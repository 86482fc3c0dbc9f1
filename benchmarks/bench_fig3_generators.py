"""Figure 3 (right): generator throughput, handwritten vs derived.

The dual experiment: the *same* handcrafted checker judges the
property; inputs come once from the handcrafted generator and once
from the derived one (compiled backend).  The paper reports 1–3.5%
slowdown (−1.21% BST, −1.74% STLC); derived generators backtrack
locally, so they are expected to lose slightly more than derived
checkers do.

``test_*_handler_counts`` record, per handler of every derived
generator the cell runs, the attempts, backtracks and fuel-outs while
the derived generator draws a fixed number of values from fixed inputs
(under ``profile``, so on the instrumented path: the counts depend on
the search, never on the code's speed or representation).
"""

from __future__ import annotations

import random

import pytest

try:
    from .benchjson import record
except ImportError:  # standalone: python benchmarks/bench_*.py
    from benchjson import record
from .conftest import run_property

TESTS = {"BST": 300, "STLC": 100, "IFC": 300}

#: Fixed-input profiling: values drawn and fuel per cell (the
#: repository benchmark's ``generator_counts`` uses the same ones).
PROFILE_VALUES = {"BST": 200, "STLC": 20, "IFC": 200}
PROFILE_FUEL = {"BST": 10, "STLC": 6, "IFC": 8}
PROFILE_SEED = 2024

_RESULTS: dict[tuple[str, str], float] = {}


def _run(benchmark, cell, gen_fn, label):
    gen, predicate = cell.workload.property_fn(
        gen_fn, cell.hand_check, cell.correct_impl
    )
    num = TESTS[cell.name]
    benchmark.extra_info["case"] = cell.name
    benchmark.extra_info["generator"] = label
    result = benchmark(run_property, gen, predicate, num, 13)
    assert result == num
    if benchmark.stats is None:
        return  # --benchmark-disable smoke mode: one plain run, no stats
    stats = benchmark.stats.stats
    throughput = num / stats.mean
    _RESULTS[(cell.name, label)] = throughput
    record("fig3_generators", f"{cell.name}.{label}_tests_per_s", throughput)
    print(f"\n[Fig3-right] {cell.name:5s} generator={label:12s} "
          f"{throughput:12,.0f} tests/s")
    hand = _RESULTS.get((cell.name, "handwritten"))
    derived = _RESULTS.get((cell.name, "derived"))
    if hand and derived:
        delta = (derived - hand) / hand * 100
        record("fig3_generators", f"{cell.name}.delta_pct", delta)
        print(f"[Fig3-right] {cell.name:5s} derived vs handwritten: {delta:+.1f}%")


@pytest.mark.parametrize("label", ["handwritten", "derived"])
def test_bst_generator_throughput(benchmark, bst_cell, label):
    gen_fn = bst_cell.hand_gen if label == "handwritten" else bst_cell.derived_gen
    _run(benchmark, bst_cell, gen_fn, label)


@pytest.mark.parametrize("label", ["handwritten", "derived"])
def test_stlc_generator_throughput(benchmark, stlc_cell, label):
    gen_fn = stlc_cell.hand_gen if label == "handwritten" else stlc_cell.derived_gen
    _run(benchmark, stlc_cell, gen_fn, label)


@pytest.mark.parametrize("label", ["handwritten", "derived"])
def test_ifc_generator_throughput(benchmark, ifc_cell, label):
    gen_fn = ifc_cell.hand_gen if label == "handwritten" else ifc_cell.derived_gen
    _run(benchmark, ifc_cell, gen_fn, label)


def _profile_inputs(cell, rng):
    from repro.casestudies import ifc, stlc

    count = PROFILE_VALUES[cell.name]
    w = cell.workload
    if cell.name == "BST":
        return [w.bounds()] * count
    if cell.name == "STLC":
        env = w.environment()
        return [(env, stlc._gen_type(w.type_size, rng)) for _ in range(count)]
    return [
        (ifc.mem_to_value([
            (rng.randint(0, w.mem_size), "H" if rng.random() < 0.5 else "L")
            for _ in range(w.mem_size)
        ]),)
        for _ in range(count)
    ]


def handler_counts(cell) -> dict:
    """``kind/rel/mode/rule -> {attempts, backtracks, fuel_outs}`` over
    every handler the derived generator (and its premises) attempted
    while drawing the cell's fixed values."""
    from repro import profile

    rng = random.Random(PROFILE_SEED)
    inputs = _profile_inputs(cell, rng)
    fuel = PROFILE_FUEL[cell.name]
    with profile(cell.ctx) as trace:
        for ins in inputs:
            cell.derived_gen(fuel, ins, random.Random(rng.randrange(2**63)))
    return {
        "/".join(key): {
            "attempts": entry[0],
            "backtracks": entry[2],
            "fuel_outs": entry[3],
        }
        for key, entry in sorted(trace.entries.items())
    }


def _record_counts(cell):
    counts = handler_counts(cell)
    assert counts, f"{cell.name}: the profile saw no handler"
    record("fig3_generators", f"{cell.name}.handler_counts", counts)
    for key, c in counts.items():
        print(f"[Fig3-right] {cell.name:5s} {key:40s} attempts "
              f"{c['attempts']:8,d} backtracks {c['backtracks']:8,d} "
              f"fuel-outs {c['fuel_outs']:7,d}")


def test_bst_handler_counts(bst_cell):
    _record_counts(bst_cell)


def test_stlc_handler_counts(stlc_cell):
    _record_counts(stlc_cell)


def test_ifc_handler_counts(ifc_cell):
    _record_counts(ifc_cell)
