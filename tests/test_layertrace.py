"""The benchmark's per-layer trace must find every function it wraps.

A rename inside pexpand would otherwise leave the benchmark's layer
metrics silently at zero; ``Tracer.install`` lists such targets in
``missing``.
"""

import sys
from pathlib import Path

import pexpand.cli  # noqa: F401  (imports every module the trace patches)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import layertrace  # noqa: E402


def test_every_trace_target_exists():
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
