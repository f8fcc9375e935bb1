"""Fast smoke test of the benchmark at tiny sizes."""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bench.harness import Run, Tracer  # noqa: E402
from bench.run import measure  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_nan_and_inf_results_count_as_failed():
    run = Run(Tracer())
    tol = 1e-9
    # the gate `abs(a - b) > tol` lets NaN through; expect() must not
    assert not abs(math.nan - 0.0) > tol
    assert not run.operation("nan", lambda: run.expect("value", math.nan, tol))
    assert not run.operation("inf", lambda: run.expect("value", math.inf, tol))
    assert not run.operation("raises", lambda: 1 / 0)
    assert not run.operation("no check", lambda: None)
    assert run.operation("finite", lambda: run.expect("value", 1e-12, tol))
    assert (run.attempted, run.failed) == (5, 4)
    assert run.round_margin(0) == (pytest.approx(3.0), "value")


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["crosstalk", "cli_readme"])
def test_end_to_end_metrics_emitted_with_units(workload):
    result, record = measure(workload, 7, 0.0, 0, small=True)
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # at tiny sizes nothing overflows, so every operation passes and repeats exactly
    assert result["attempted"] >= 1 and result["failed"] == 0, record["failures"]
    assert result["correct"]


def test_per_layer_metrics_emitted_with_units():
    result, record = measure("operators", 7, 0.0, 1, small=True)
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    spans = json.loads((ROOT / record["spans_file"]).read_text())
    assert {"name", "start", "end", "parent", "op"} <= set(spans[0])
    assert result["metrics"]["paraxops.eigen_residual.fd.calls"]["value"] == 4
