"""The 40-digit checkers accept real outputs and reject corrupted ones.

Each test runs one small pexpand job, shows that its checker passes the
output as emitted, then corrupts one value and shows that the checker
fails it.
"""

import csv
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
for _p in (BENCH, BENCH.parent / "src"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import verify40  # noqa: E402
import workloads  # noqa: E402
from pexpand import cli  # noqa: E402


def _run(tmp: Path, key: str, cmd: str, cfg: dict, **meta):
    (tmp / f"{key}.json").write_text(json.dumps(cfg))
    rc = cli.main([cmd, "--config", str(tmp / f"{key}.json"),
                   "--out", str(tmp / key)])
    assert rc == 0
    return workloads.Job(key, cmd, cfg, (), meta)


def _edit_csv(path: Path, edit) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


def _edit_json(path: Path, edit) -> None:
    body = json.loads(path.read_text())
    edit(body)
    path.write_text(json.dumps(body))


def test_j_off_by_1e_8_fails(tmp_path):
    job = _run(tmp_path, "g_j", "j", {"map": "golden_tent", "field": "bump"})
    assert verify40.check_job(job, tmp_path) == []

    def shift(body):
        body["value"] += 1e-8
    _edit_json(tmp_path / "g_j" / "j.json", shift)
    assert any("J40" in p for p in verify40.check_job(job, tmp_path))


def test_trace_b_shifted_by_1e_6_fails(tmp_path):
    _run(tmp_path, "g_h", "horiz",
         {"map": "golden_tent", "v": "bump", "w": "odd"})
    field = json.loads((tmp_path / "g_h" / "projection.json").read_text())
    cfg = {"family": {"base": "golden_tent",
                      "terms": [{"field": field["field"]}]}, "w": "odd"}
    job = _run(tmp_path, "g_d", "deform", cfg)
    assert verify40.check_job(job, tmp_path) == []

    def shift(rows):
        col = rows[0].index("b")
        mid = len(rows) // 2 + 5
        rows[mid][col] = repr(float(rows[mid][col]) + 1e-6)
    _edit_csv(tmp_path / "g_d" / "trace.csv", shift)
    probs = verify40.check_job(job, tmp_path)
    assert len(probs) == 1 and "f~^3(c)" in probs[0]


def test_bracket_moved_off_its_crossing_fails(tmp_path):
    cfg = {"family": {"base": "golden_tent", "terms": [{"field": "bump"}]},
           "grid": {"lo": -0.02, "hi": 0.02, "n": 101}}
    job = _run(tmp_path, "bump_scan", "scan", cfg, kind="transversal")
    summary = tmp_path / "bump_scan" / "summary.json"

    def keep_five(body):
        body["transitions"] = body["transitions"][10:15]
    _edit_json(summary, keep_five)
    assert verify40.check_job(job, tmp_path) == []

    def move(body):
        tr, nxt = body["transitions"][2], body["transitions"][3]
        mid = 0.5 * (tr["t_hi"] + nxt["t_lo"])
        tr["t_lo"], tr["t_hi"] = mid, mid + tr["width"]
    _edit_json(summary, move)
    probs = verify40.check_job(job, tmp_path)
    assert len(probs) == 1 and "no kneading or relation change" in probs[0]


def test_conjugacy_rows_swapped_fails(tmp_path):
    golden = {"slope": workloads.periodic_slopes(3)[0]}
    cfg = {"f0": "golden_tent", "f1": golden, "count": 60}
    job = _run(tmp_path, "g_c", "conjugacy", cfg)
    assert verify40.check_job(job, tmp_path) == []

    def swap(rows):
        rows[20], rows[21] = rows[21], rows[20]
    _edit_csv(tmp_path / "g_c" / "table.csv", swap)
    probs = verify40.check_job(job, tmp_path)
    assert any("not increasing" in p for p in probs)
