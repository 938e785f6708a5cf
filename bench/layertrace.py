"""Per-layer counts and self times for the traced pass.

The wrappers live here, in the benchmark, around the public functions of
each pexpand layer; the program itself is not changed.  ``install`` binds
a wrapper wherever pexpand's modules and classes hold the original object
(modules import each other's functions by name), and ``uninstall`` puts
the originals back, so the timed passes run unwrapped.

Each wrapper records a span on its own thread: the scan pool runs nodes on
two threads.  A span's self time is its duration minus the time of the
spans it directly encloses on the same thread.  Spans are aggregated per
thread and per name as they close, not stored, because the evaluation
kernel makes millions of calls per pass.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import threading
import time
from collections import Counter
from pathlib import Path

# (layer.function, module, attribute); a name listed twice sums its targets
TARGETS = (
    ("maps.value", "pexpand.maps", "PiecewiseMap.value"),
    ("maps.deriv", "pexpand.maps", "PiecewiseMap.deriv"),
    ("maps.validate", "pexpand.maps", "validate"),
    ("maps.family_eval", "pexpand.maps", "family_eval"),
    ("maps.add_scaled", "pexpand.maps", "PiecewiseMap.add_scaled"),
    ("maps.critical_orbit", "pexpand.maps", "critical_orbit"),
    ("maps.itinerary", "pexpand.maps", "itinerary"),
    ("maps.critical_relations", "pexpand.maps", "critical_relations"),
    ("maps.detect_periodic_critical", "pexpand.maps",
     "detect_periodic_critical"),
    ("functional.j_functional", "pexpand.functional", "j_functional"),
    ("functional.j_series_sum", "pexpand.functional", "j_series_sum"),
    ("functional.j_periodic_sum", "pexpand.functional", "j_periodic_sum"),
    ("functional.alpha_value", "pexpand.functional", "AlphaSolution.value"),
    ("functional.check_twisted_cohomology", "pexpand.functional",
     "check_twisted_cohomology"),
    ("functional.horizontality", "pexpand.functional", "horizontality"),
    ("functional.kernel_projection", "pexpand.functional",
     "kernel_projection"),
    ("deform.slope_field", "pexpand.deform", "slope_field"),
    ("deform.integrate_deformation", "pexpand.deform",
     "integrate_deformation"),
    ("deform.continue_periodic", "pexpand.deform", "continue_periodic"),
    ("deform.find_periodic_theta", "pexpand.deform", "find_periodic_theta"),
    ("conjugacy.inverse_branch", "pexpand.conjugacy", "inverse_branch"),
    ("conjugacy.point_from_itinerary", "pexpand.conjugacy",
     "point_from_itinerary"),
    ("conjugacy.generate_conjugacy_words", "pexpand.conjugacy",
     "generate_conjugacy_words"),
    ("conjugacy.from_words", "pexpand.conjugacy", "ConjugacyTable.from_words"),
    ("conjugacy.verify_conjugacy", "pexpand.conjugacy", "verify_conjugacy"),
    ("scan.run_scan", "pexpand.scan", "run_scan"),
    ("scan.node", "pexpand.scan", "_node"),
    ("scan.localize", "pexpand.scan", "_signature"),
    ("io.write_csv", "pexpand.io", "write_csv"),
    ("io.write_json", "pexpand.io", "write_json"),
    ("io.load_config", "pexpand.io", "load_config"),
    ("io.parse", "pexpand.io", "parse_map"),
    ("io.parse", "pexpand.io", "parse_field"),
    ("io.parse", "pexpand.io", "parse_family"),
    ("cli.main", "pexpand.cli", "main"),
)

# metrics reported per name: both calls and self time, or self time only
_LAYERS_WITH_CALLS = ("maps", "functional", "deform", "conjugacy")
_CALLS_AND_SELF = tuple(n for n, _, _ in TARGETS
                        if n.split(".")[0] in _LAYERS_WITH_CALLS
                        ) + ("scan.run_scan",)
_SELF_ONLY = ("scan.node", "scan.localize", "io.write_csv", "io.write_json",
              "io.load_config", "io.parse", "cli.main")
_COUNTS = ("deform.ode_steps_accepted", "deform.ode_steps_attempted",
           "scan.transitions", "io.bytes_written")
_SLOPE_CALLS_PER_STEP = {True: 12, False: 4}   # adaptive / fixed RK4 steps


class _ThreadState:
    def __init__(self):
        self.thread = threading.current_thread().name
        self.stack: list[list[int]] = []
        self.calls: Counter = Counter()
        self.ns: Counter = Counter()
        self.extra: Counter = Counter()


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple] = []
        self.missing: list[str] = []

    # -- spans ---------------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def _wrap(self, name, fn):
        state = self._state
        before, after = _HOOKS.get(name, (None, None))

        def wrapper(*args, **kwargs):
            st = state()
            token = before(st) if before else None
            frame = [0]
            st.stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                st.stack.pop()
                if st.stack:
                    st.stack[-1][0] += dt
                st.calls[name] += 1
                st.ns[name] += dt - frame[0]
            if after:
                after(st, token, result, kwargs)
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        mods = [m for n, m in sorted(sys.modules.items())
                if n.startswith("pexpand") and m is not None]
        for name, modname, attr in TARGETS:
            mod = sys.modules.get(modname)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or (leaf not in vars(owner)):
                self.missing.append(f"{modname}.{attr}")
                continue
            orig = vars(owner)[leaf]
            if isinstance(orig, classmethod):
                new = classmethod(self._wrap(name, orig.__func__))
                self._patch(owner, leaf, new)
                continue
            new = self._wrap(name, orig)
            holders = [owner] if owner_name else mods
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        self._patch(holder, key, new)

    def _patch(self, holder, key, new) -> None:
        self._patches.append((holder, key, vars(holder)[key]))
        setattr(holder, key, new)

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._patches):
            setattr(holder, key, orig)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def _totals(self):
        calls, ns, extra = Counter(), Counter(), Counter()
        for st in self._states:
            calls.update(st.calls)
            ns.update(st.ns)
            extra.update(st.extra)
        return calls, ns, extra

    def metrics(self) -> dict:
        calls, ns, extra = self._totals()
        out = {}
        for name in _CALLS_AND_SELF:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = ns[name] / 1e6
        for name in _SELF_ONLY:
            out[f"{name}.self_ms"] = ns[name] / 1e6
        for name in _COUNTS:
            out[name] = extra[name]
        out["scan.signature_evals"] = calls["scan.localize"]
        att = extra["deform.ode_steps_attempted"]
        out["deform.ode_accept_ratio"] = (
            extra["deform.ode_steps_accepted"] / att if att else 0.0)
        nodes = extra["deform.newton_nodes"]
        out["deform.newton_iters_per_node"] = (
            extra["deform.newton_iters"] / nodes if nodes else 0.0)
        return out

    def dump(self, path: Path) -> None:
        threads = {}
        for st in self._states:
            rows = threads.setdefault(st.thread, {})
            for name in st.calls:
                rows[name] = {"calls": st.calls[name],
                              "self_ms": st.ns[name] / 1e6}
        path.write_text(json.dumps({"threads": threads,
                                    "missing_targets": self.missing},
                                   indent=1, sort_keys=True) + "\n")


# -- counters read from results at the layer boundary -------------------------


def _bytes_after(st, _token, path, _kwargs):
    st.extra["io.bytes_written"] += Path(path).stat().st_size


def _ode_before(st):
    return st.calls["deform.slope_field"]


def _ode_after(st, sf_before, trace, kwargs):
    accepted = len(trace.nodes) - 1
    # two slope evaluations at t = 0, one per accepted node, and one RK4
    # stage (4 per step, 3 steps per adaptive attempt) per attempted step
    stages = st.calls["deform.slope_field"] - sf_before - 2 - accepted
    per_step = _SLOPE_CALLS_PER_STEP[kwargs.get("adaptive", True)]
    st.extra["deform.ode_steps_accepted"] += accepted
    st.extra["deform.ode_steps_attempted"] += math.ceil(max(stages, 0)
                                                        / per_step)


def _newton_after(st, _token, cont, _kwargs):
    iters = [n.newton_iterations for n in cont.nodes if n.newton_iterations]
    st.extra["deform.newton_iters"] += sum(iters)
    st.extra["deform.newton_nodes"] += len(iters)


def _scan_after(st, _token, result, _kwargs):
    st.extra["scan.transitions"] += len(result.transitions)


_HOOKS = {
    "io.write_csv": (None, _bytes_after),
    "io.write_json": (None, _bytes_after),
    "deform.integrate_deformation": (_ode_before, _ode_after),
    "deform.continue_periodic": (None, _newton_after),
    "scan.run_scan": (None, _scan_after),
}
