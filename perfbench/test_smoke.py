"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Every workload runs once untraced and once traced. The untraced run must
emit exactly the end-to-end metrics of BENCHMARK.json and the traced run
exactly its per-layer metrics, each with its unit, and both runs must
decode identical outputs.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()
import bench  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = bench.Scale(n_train=48, n_dev=12, n_test=12, d=16, n_heads=2, n_layers=1, d_ff=32,
                   batch_size=8, train_iterations=3, quality_iterations=4,
                   model_iterations=6, beam_subset=4, sweep_subset=2, min_requests=12,
                   setup_repeats=2)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_and_traces_identically(workload, tmp_path):
    plain = bench.run_workload(workload, seed=3, seconds=0, trace=False,
                               work=tmp_path / "plain", scale=TINY)
    traced = bench.run_workload(workload, seed=3, seconds=0, trace=True,
                                work=tmp_path / "traced", scale=TINY)
    for record, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert record["correct"], record["problems"]
        assert record["attempted"] >= 1 and record["failed"] == 0
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in record["metrics"].items()}
        assert got == want
        assert all(math.isfinite(m["value"]) for m in record["metrics"].values())
    assert traced["digest"] == plain["digest"]
    assert traced["tracer"].spans, "the traced run recorded no spans"
