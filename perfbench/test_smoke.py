"""Self-test of the benchmark: a tiny run of every workload, plus the spec.

Run from the repository root with ``python3 -m pytest perfbench -q``; it
sits outside the tier-1 ``testpaths``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# every end-to-end metric the benchmark reports per workload, with its unit
NAMED = {
    "train_micro32": {"train_img_per_s": "img/s", "heldout_leaf_acc": "fraction"},
    "serve_mixed_paper100": {"predict_p50_ms": "ms", "predict_p95_ms": "ms"},
    "evaluate_batch_paper100": {"eval_img_per_s": "img/s"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "error_rate": "fraction"}


def test_spec_is_within_contract_limits():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer") for m in SPEC[kind]]
    assert all(name.match(n) for n in names)
    assert len(set(names)) == len(names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert unit.match(m["unit"]) and m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert {w["name"] for w in SPEC["workloads"]} == set(NAMED)


def test_tiny_run_of_every_workload(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--all", "--tiny", "--repeats", "1",
         "--seconds", "1", "--seed", "3", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert not summary["problems"]
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for workload, named in NAMED.items():
        doc = summary["workloads"][workload]
        for metric, unit in {**named, **COMMON}.items():
            assert doc["named"][metric]["unit"] == unit, (workload, metric)
            assert doc["named"][metric]["n"] == 1
        assert doc["named"]["error_rate"]["median"] == 0
        assert per_layer <= set(doc["per_layer"]), per_layer - set(doc["per_layer"])
        assert sum(doc["routed"].values()) > 0
    results = sorted(tmp_path.glob("*-trace*.json"))
    assert len(results) == 2 * len(NAMED)
    for result in results:  # every result file carries its machine record
        machine = json.loads(result.read_text())["machine"]
        assert {"nproc", "cpu_model", "python", "numpy", "openblas", "blas_threads",
                "git_commit", "seed"} <= set(machine), result.name
