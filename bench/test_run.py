"""Failed jobs make a run incorrect unless a known fault is declared.

A fake CLI stands in for pexpand, so these tests time nothing real.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import refslice  # noqa: E402
import run  # noqa: E402
from workloads import Job  # noqa: E402


class _FakeCli:
    """Exits 1 on the configs whose ``fail`` is true."""

    @staticmethod
    def main(argv):
        cfg = Path(argv[argv.index("--config") + 1]).read_text()
        return 1 if '"fail": true' in cfg else 0


def _passes(tmp: Path, jobs, n: int = 2):
    runner = run.Runner(_FakeCli, refslice, jobs, tmp / "pass")
    return [runner.run_pass() for _ in range(n)]


def test_only_declared_failures_pass(tmp_path):
    jobs = [Job("a", "horiz", {"fail": True}),
            Job("b", "deform", {"fail": True},
                meta={"expected_failure": "F2"}),
            Job("c", "j", {"fail": False})]
    problems = run.failure_problems(jobs, _passes(tmp_path, jobs))
    assert len(problems) == 1 and problems[0].startswith("a: unexpected")


def test_job_reading_a_failed_job_fails(tmp_path):
    jobs = [Job("h", "horiz", {"fail": True},
                meta={"expected_failure": "F2"}),
            Job("d", "deform", lambda d: {"fail": False}, needs=("h",))]
    passes = _passes(tmp_path, jobs)
    assert all(p[1]["error"] == "input from failed job h" for p in passes)
    problems = run.failure_problems(jobs, passes)
    assert problems == ["d: unexpected failure: input from failed job h"]


def test_declared_failure_must_fail_on_every_pass():
    job = Job("b", "deform", {}, meta={"expected_failure": "F2"})
    passes = [[{"error": "TypeError"}], [{"error": None}]]
    assert run.failure_problems([job], passes) == [
        "b: failed on 1 of 2 passes"]
