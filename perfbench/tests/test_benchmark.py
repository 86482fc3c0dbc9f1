"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest -q perfbench/tests

Tiny runs check that every workload prints every named metric with
its unit; planted wrong answers check that each stage's correctness
check catches them.  Stage sizes are shrunk by patching the stage
modules' size constants.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

from harness import fig3, runner, serve, toolchain  # noqa: E402


@pytest.fixture
def tiny(monkeypatch):
    """Shrink the probes and the serving pool."""
    monkeypatch.setattr(fig3, "ROUND_TESTS", {k: 2 for k in fig3.ROUND_TESTS})
    monkeypatch.setattr(fig3, "PROBE_ROUNDS", 2)
    monkeypatch.setattr(fig3, "PROFILE_VALUES", {k: 2 for k in fig3.PROFILE_VALUES})
    monkeypatch.setattr(runner, "SERVE_PROBE_SECONDS", 0.3)
    monkeypatch.setattr(runner, "SERVE_POOL", 200)
    monkeypatch.setattr(runner, "SERVE_PROBE_POOL", 200)
    monkeypatch.setattr(runner, "SETUP_REPEATS", 1)
    monkeypatch.setattr(runner, "MIN_OWN_SECONDS", 0.3)


def test_benchmark_json_names_the_runner_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(runner.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        runner.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        runner.PER_LAYER
    )


@pytest.mark.parametrize("workload", list(runner.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric(tiny, workload, trace):
    result, record = runner.run(workload, seed=3, seconds=0.6, trace=trace)
    assert result["correct"], record["errors"]
    assert result["failed"] == 0
    assert result["attempted"] > 0
    expected = runner.PER_LAYER if trace else runner.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(expected)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    assert set(record["noise"]) == set(runner.NOISE_CONTROLS)


def _bst_case_with_flipped_verdict() -> fig3.Case:
    from repro.producers.option_bool import SOME_FALSE

    case = fig3.Case("bst")
    derived = case.derived_check
    flipped = []

    def check(fuel, args):
        verdict = derived(fuel, args)
        if verdict.is_true and not flipped:
            flipped.append(args)
            return SOME_FALSE
        return verdict

    case.derived_check = check
    return case


def test_flipped_checker_verdict_is_caught(tiny):
    cases = {c: fig3.Case(c) for c in ("stlc", "ifc")}
    cases["bst"] = _bst_case_with_flipped_verdict()
    out = fig3.run_probe(cases, random.Random(1))
    assert any("fig3.bst" in e for e in out["errors"]), out["errors"]


def test_ill_typed_generated_term_is_caught(tiny):
    from repro.casestudies import stlc

    cases = {c: fig3.Case(c) for c in fig3.CASES}
    case = cases["stlc"]
    derived = case.derived_gen
    planted = []

    def gen(fuel, ins, rng):
        out = derived(fuel, ins, rng)
        if isinstance(out, tuple) and not planted:
            planted.append(ins)
            return (stlc.app(stlc.con(1), stlc.con(2)),)
        return out

    case.derived_gen = gen
    out = fig3.run_probe(cases, random.Random(1))
    assert planted
    assert any("generator produced" in e for e in out["errors"]), out["errors"]


def test_wrong_engine_answer_is_caught():
    svc = serve.Service()
    try:
        pool = svc.make_queries(random.Random(5), 60)
        results = svc.engine.run_batch(pool)
        index = next(i for i, r in enumerate(results) if r.ok and r.value is True)
        results[index].value = False
        errors, failed = serve.verify(svc, pool, list(enumerate(results)), {})
    finally:
        svc.close()
    assert failed == 0
    assert len(errors) == 1 and "engine answered" in errors[0]


def test_table1_mismatch_is_caught():
    result = {"failures": [], "counts": {"LF": [36, 35, 6], "PLF": [71, 71, 19]}}
    assert toolchain.Toolchain.table1_errors(result)


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "toolchain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
