#!/usr/bin/env python3
"""pexpand benchmark: per-command job cost in machine-normalized units.

    python3 bench/run.py --workload certify|deform|scan|all --seed N \
        --seconds S --trace 0|1
    python3 bench/run.py --workload scan --steady 10 --seed N --seconds S

One process drives ``pexpand.cli.main`` in-process as a closed loop with one
client.  Each workload's job list runs in whole passes until ``--seconds``
have elapsed; every pass rewrites its configs and clears pexpand's caches
before each job, so every job starts cold, as a CLI process would.

Every job is timed between two reference slices (``refslice.py``).  A
job's cost is its wall time over the mean slice of its pass (unit ``ref``),
and its cost for the run is the median over passes.  After the passes,
every emitted file is checked at 40 digits (``verify40.py``) and compared
byte for byte across passes.  With ``--trace 1`` one further pass runs with
per-layer wrappers installed (``layertrace.py``); the timed passes never
install them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--steady N``
instead runs the workload N times in fresh processes, one after another,
and prints each end-to-end metric's median, quartiles and bound.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Single-threaded BLAS: the slice guard needs the scan pool to be the only
# source of extra threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
RESULTS = BENCH / "results"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
WORKLOADS = ("certify", "deform", "scan")
COMMANDS = ("validate", "j", "alpha", "horiz", "deform", "continue",
            "conjugacy", "scan", "cor51", "cor52")
MIN_PASSES = 3
IMPORT_REPEATS = 9


def _fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# set-up time


_IMPORT_CHILD = """
import statistics, sys, time
t0 = time.perf_counter()
import pexpand, pexpand.cli
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import refslice
refslice.run_slice()
print(repr(t1 - t0), repr(statistics.fmean(
    refslice.run_slice()[0] for _ in range(3))))
"""


def measure_setup() -> tuple[float, float]:
    """Time to ``import pexpand, pexpand.cli`` in fresh interpreters, timed
    inside each child so interpreter start-up is out.

    Returns (setup_s, raw median seconds).  ``setup_s`` is each import's
    time over the mean of three reference slices run right after it (and
    one warm-up slice) in the same child, times ``refslice.NOMINAL_S``:
    seconds on a machine where the slice takes that long.  The median is
    over ``IMPORT_REPEATS`` children.
    """
    import refslice
    env = dict(os.environ, PYTHONPATH=str(SRC))
    norm, raw = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_CHILD,
                               str(BENCH)], env=env, capture_output=True,
                              text=True, timeout=60, check=False)
        if proc.returncode != 0:
            _fail(f"importing pexpand failed:\n{proc.stderr}")
        t_import, t_slice = map(float, proc.stdout.split()[-2:])
        raw.append(t_import)
        norm.append(t_import / t_slice * refslice.NOMINAL_S)
    return statistics.median(norm), statistics.median(raw)


# ---------------------------------------------------------------------------
# passes


def _cache_clearers():
    """cache_clear of every functools cache in pexpand's modules."""
    out = []
    for name, mod in sorted(sys.modules.items()):
        if not name.startswith("pexpand") or mod is None:
            continue
        for obj in vars(mod).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear) and clear not in out:
                out.append(clear)
    return out


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    if path.is_dir():
        for f in sorted(path.iterdir()):
            h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


class Runner:
    def __init__(self, cli, refslice, jobs, workdir: Path):
        self.cli = cli
        self.refslice = refslice
        self.jobs = jobs
        self.workdir = workdir
        self.clearers = _cache_clearers()
        self.worst_guard = 0.0   # max over slices of (cpu - wall) / slice

    def slice(self) -> float:
        wall, cpu_excess = self.refslice.run_slice()
        self.worst_guard = max(self.worst_guard, cpu_excess / wall)
        return wall

    def run_pass(self) -> list[dict]:
        """Run every job once, each between two slices.

        Costs divide each job's wall time by the mean slice of the whole
        pass.  A shared VM can switch between a fast and a slow speed state
        many times a second (on the 2 vCPU VM of README.md, slices within
        one pass take 3.3-7.7 ms), so two slices next to a job sample its
        speed poorly; the pass mean estimates the same mixture of states
        the jobs ran in.
        """
        slices = []
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        rows, failed = [], set()
        for job in self.jobs:
            out = self.workdir / job.key
            cfg_path = self.workdir / f"{job.key}.json"
            err, cfg = None, None
            upstream = failed.intersection(job.needs)
            if upstream:
                err = f"input from failed job {', '.join(sorted(upstream))}"
            else:
                try:
                    cfg = (job.cfg(self.workdir) if callable(job.cfg)
                           else job.cfg)
                except (OSError, KeyError, ValueError) as exc:
                    err = f"input from an earlier job: {exc!r}"
            wall = 0.0
            if cfg is not None:
                cfg_path.write_text(json.dumps(cfg, indent=1) + "\n")
                for clear in self.clearers:
                    clear()
                gc.collect()
                argv = [job.cmd, "--config", str(cfg_path), "--out",
                        str(out), *job.args]
                slices.append(self.slice())
                t0 = time.perf_counter()
                try:
                    rc = self.cli.main(argv)
                    if rc != 0:
                        err = f"exit code {rc}"
                except Exception as exc:  # a job's crash is a result
                    err = f"{type(exc).__name__}: {exc}"
                wall = time.perf_counter() - t0
                slices.append(self.slice())
            if err is not None:
                failed.add(job.key)
            rows.append({"key": job.key, "cmd": job.cmd, "wall": wall,
                         "error": err, "digest": _digest(out)})
        unit = statistics.fmean(slices)
        for row in rows:
            row["cost"] = row["wall"] / unit
        return rows


# ---------------------------------------------------------------------------
# one workload


def summarize(passes: list[list[dict]]):
    """Per-job median cost and wall over passes, then per-command means."""
    per_job = []
    for i, first in enumerate(passes[0]):
        costs = [p[i]["cost"] for p in passes]
        walls = [p[i]["wall"] for p in passes]
        per_job.append((first["cmd"], statistics.median(costs),
                        statistics.median(walls)))
    by_cmd: dict[str, list] = {}
    for cmd, cost, wall in per_job:
        by_cmd.setdefault(cmd, []).append((cost, wall))
    cmd_cost = {c: statistics.fmean(x for x, _ in v)
                for c, v in by_cmd.items()}
    cmd_wall = {c: statistics.fmean(w for _, w in v)
                for c, v in by_cmd.items()}
    batch = sum(cost for _, cost, _ in per_job)
    batch_wall = sum(wall for _, _, wall in per_job)
    return batch, cmd_cost, cmd_wall, batch_wall


def failure_problems(jobs, passes: list[list[dict]]) -> list[str]:
    """A failed job makes the run incorrect unless ``expected_failure``
    names the pexpand fault behind it, and even then it must fail on every
    pass, so that ``failed`` is the same share of ``attempted`` in every
    run.  A job that reads a failed job's output fails itself (``needs``)."""
    out = []
    for i, job in enumerate(jobs):
        errors = [p[i]["error"] for p in passes if p[i]["error"] is not None]
        if not errors:
            continue
        if "expected_failure" not in job.meta:
            out.append(f"{job.key}: unexpected failure: {errors[0]}")
        elif len(errors) != len(passes):
            out.append(f"{job.key}: failed on {len(errors)} of "
                       f"{len(passes)} passes")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "pexpand" / "cli.py").is_file():
        _fail(f"no pexpand sources under {SRC}")
    setup_s, setup_raw_s = measure_setup()
    sys.path.insert(0, str(SRC))
    from pexpand import cli  # noqa: E402

    import refslice
    import workloads

    jobs = workloads.build(name, seed)
    runner = Runner(cli, refslice, jobs, OUT / name)
    passes = []
    t_start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t_start < seconds:
        passes.append(runner.run_pass())
    measured_s = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    batch, cmd_cost, cmd_wall, batch_wall = summarize(passes)

    layer = None
    if trace:
        import layertrace
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            traced = runner.run_pass()
        finally:
            tracer.uninstall()
        t_batch = summarize([traced])[0]
        layer = tracer.metrics()
        layer["trace.overhead_share"] = t_batch / batch
        for cmd in COMMANDS:
            layer[f"cmd.{cmd}.cost"] = cmd_cost.get(cmd, 0.0)
        RESULTS.mkdir(exist_ok=True)
        tracer.dump(RESULTS / f"trace_{name}_{seed}.json")
        passes.append(traced)

    import verify40
    last_failed = {r["key"] for r in passes[-1] if r["error"] is not None}
    problems = failure_problems(jobs, passes)
    problems += verify40.check_workload(jobs, runner.workdir, last_failed)
    for i, job in enumerate(jobs):
        digests = {p[i]["digest"] for p in passes}
        if len(digests) != 1:
            problems.append(f"{job.key}: outputs differ between passes")
    if runner.worst_guard > refslice.GUARD_SLACK:
        problems.append(f"slice guard: process CPU time exceeded a slice's "
                        f"wall time by {runner.worst_guard:.2%} of the slice")

    timed = passes[:-1] if trace else passes
    attempted = len(jobs) * len(timed)
    failed = sum(1 for p in timed for r in p if r["error"] is not None)
    errors = sorted({f"{r['key']}: {r['error']}" for p in timed for r in p
                     if r["error"] is not None})

    print(f"workload {name}: seed {seed}, {len(timed)} passes in "
          f"{measured_s:.1f} s, jobs attempted {attempted}, failed {failed}")
    for e in errors:
        print(f"  failed job  {e}")
    for cmd in COMMANDS:
        if cmd in cmd_cost:
            n = sum(1 for j in jobs if j.cmd == cmd)
            print(f"  {cmd:<10} jobs {n:>3}  cost {cmd_cost[cmd]:10.3f} ref"
                  f"  raw {cmd_wall[cmd] * 1e3:9.2f} ms")
    print(f"  batch raw {batch_wall:.3f} s, reference slice "
          f"{refslice.last_median_ms():.3f} ms, import {setup_raw_s:.3f} s "
          f"raw, slice guard worst {runner.worst_guard:.2%}")
    for p in problems:
        print(f"  CHECK FAILED  {p}")

    if trace:
        values = layer
        names = [m["name"] for m in SPEC["per_layer"]]
    else:
        values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
                  "batch_cost": batch}
        names = [m["name"] for m in SPEC["end_to_end"]]
    metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in names}
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# several processes: all workloads, steadiness


def _child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900,
                          check=False)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        _fail(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(seed: int, seconds: int, trace: int) -> dict:
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        res = _child(name, seed, seconds, trace)
        out["correct"] &= res["correct"]
        out["attempted"] += res["attempted"]
        out["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            out["metrics"][f"{name}.{k}"] = v
    return out


def steadiness(workload: str, n: int, seed: int, seconds: int) -> dict:
    """Run one workload n times (seeds seed..seed+n-1), one process each."""
    runs = [_child(workload, seed + i, seconds, 0) for i in range(n)]
    series = {m["name"]: [r["metrics"][m["name"]]["value"] for r in runs]
              for m in SPEC["end_to_end"]}
    print(f"steadiness of {workload}: {n} runs, seeds {seed}..{seed + n - 1}")
    print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>8}")
    table = {}
    for k, vals in series.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        bound = BOUNDS[k]
        table[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                    "bound": bound, "values": vals}
        print(f"  {k:<16}{med:12.4f}{q1:12.4f}{q3:12.4f}{spread:9.4f}"
              f"{bound:8.3f}")
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"  failed share per run: {shares}")
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"steady_{workload}_{seed}_{n}.json"
    path.write_text(json.dumps({"workload": workload, "seconds": seconds,
                                "metrics": table, "failed_shares": shares},
                               indent=1, sort_keys=True) + "\n")
    ok = all(r["correct"] for r in runs) and len(shares) == 1
    return {"correct": ok, "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {k: {"value": v["median"], "unit": UNITS[k]}
                        for k, v in table.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="N",
                    help="run the workload N times and report spreads")
    args = ap.parse_args(argv)
    if args.steady:
        if args.workload == "all":
            _fail("--steady takes one workload")
        result = steadiness(args.workload, args.steady, args.seed,
                            args.seconds)
    elif args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
