"""The Figure-3 campaign stage.

Each case study (BST, STLC, IFC) gives three cells, each a
``quick_check`` campaign of the case's property on the correct
implementation:

* ``check`` — handwritten generator, derived compiled checker;
* ``gen`` — derived compiled generator, handwritten checker;
* ``hand`` — both handwritten: the noise control, which no change to
  derived code should move.

Cells are interleaved in rounds of short campaigns, so a burst of
contention on the machine spreads over every cell instead of landing
on one.  Derivation happens in set-up only.

Correctness: every campaign must pass; after each campaign (outside
the timed region) every verdict of the derived checker must equal the
handwritten checker's on the same case, and every value the derived
generator produced must be accepted by the handwritten checker.
"""

from __future__ import annotations

import random
from time import perf_counter

from .calibration import SpeedTrack

CASES = ("bst", "stlc", "ifc")
KINDS = ("check", "gen", "hand")

#: Values generated per case for the handler-attempt counts.
PROFILE_VALUES = {"bst": 200, "stlc": 20, "ifc": 200}


class Case:
    """One case study's handwritten and derived checker and generator."""

    def __init__(self, name: str) -> None:
        from repro import Mode
        from repro.casestudies import bst, ifc, stlc
        from repro.derive.instances import CHECKER, GEN, resolve_compiled

        self.name = name
        if name == "bst":
            ctx = bst.make_context()
            self.workload = bst.BstWorkload(ctx)
            self.hand_gen, self.hand_check = bst.handwritten_bst_gen, bst.handwritten_bst_check
            self.rel, self.gen_mode, self.impl = "bst", "iio", bst.insert
        elif name == "stlc":
            ctx = stlc.make_context()
            self.workload = stlc.StlcWorkload(ctx)
            self.hand_gen, self.hand_check = stlc.handwritten_typing_gen, stlc.handwritten_typing_check
            self.rel, self.gen_mode, self.impl = "typing", "ioi", stlc.subst
        elif name == "ifc":
            ctx = ifc.make_context()
            self.workload = ifc.IfcWorkload(ctx)
            self.hand_gen, self.hand_check = ifc.handwritten_indist_gen, ifc.handwritten_indist_check
            self.rel, self.gen_mode, self.impl = "indist_list", "io", ifc.CORRECT_STEP
        else:
            raise ValueError(f"unknown case {name!r}")
        self.ctx = ctx
        arity = ctx.relations.get(self.rel).arity
        self.derived_check = resolve_compiled(ctx, CHECKER, self.rel, Mode.checker(arity))
        self.derived_gen = resolve_compiled(ctx, GEN, self.rel, Mode.from_string(self.gen_mode))

    def full_args(self, ins: tuple, outs: tuple) -> tuple:
        ins_it, outs_it = iter(ins), iter(outs)
        return tuple(
            next(ins_it) if c == "i" else next(outs_it) for c in self.gen_mode
        )


class Cell:
    """A (case, kind) campaign with its running totals and call logs."""

    def __init__(self, case: Case, kind: str, tracer=None) -> None:
        from repro import for_all

        self.case, self.kind = case, kind
        self.tests = 0
        self.seconds = 0.0  # at reference speed
        self.discards = 0
        self.log: list = []
        log = self.log.append
        gen_fn, check_fn = case.hand_gen, case.hand_check
        if kind == "check":
            derived = case.derived_check
            if tracer is not None:
                derived = tracer.wrap(f"fig3.{case.name}.check.derived", derived)

            def check_fn(fuel, args):
                verdict = derived(fuel, args)
                log((fuel, args, verdict))
                return verdict
        elif kind == "gen":
            derived = case.derived_gen
            if tracer is not None:
                derived = tracer.wrap(f"fig3.{case.name}.gen.derived", derived)

            def gen_fn(fuel, ins, rng):
                out = derived(fuel, ins, rng)
                if isinstance(out, tuple):
                    log((fuel, ins, out))
                return out
        gen, predicate = case.workload.property_fn(gen_fn, check_fn, case.impl)
        if tracer is not None:
            gen = tracer.wrap("quickchick.gen", gen)
            predicate = tracer.wrap("quickchick.predicate", predicate)
        self.prop = for_all(gen, predicate, name=f"fig3.{case.name}.{kind}")

    @property
    def tps(self) -> float:
        """Tests per second over all campaigns, at reference speed."""
        return self.tests / self.seconds


def run_campaign(cell: Cell, num_tests: int, seed: int, tracer=None):
    from repro import quick_check

    if tracer is None:
        return quick_check(cell.prop, num_tests=num_tests, seed=seed)
    with tracer.span("quickchick.quick_check"):
        return quick_check(cell.prop, num_tests=num_tests, seed=seed)


def verify(cell: Cell, report) -> list[str]:
    """Check one finished campaign; clears the cell's call log."""
    case = cell.case
    errors = []
    if report.failed or report.gave_up:
        errors.append(
            f"fig3.{case.name}.{cell.kind}: property "
            f"{'failed' if report.failed else 'gave up'} (seed {report.seed}, "
            f"counterexample {report.counterexample})"
        )
    for entry in cell.log:
        if cell.kind == "check":
            fuel, args, verdict = entry
            if verdict.is_none:
                continue
            expected = case.hand_check(fuel, args)
            if verdict.is_true != expected.is_true:
                errors.append(
                    f"fig3.{case.name}: derived checker says {verdict}, "
                    f"handwritten {expected}, on {args}"
                )
        else:
            fuel, ins, outs = entry
            args = case.full_args(ins, outs)
            if not case.hand_check(fuel, args).is_true:
                errors.append(
                    f"fig3.{case.name}: derived generator produced {outs} for "
                    f"{ins}, which the handwritten checker rejects"
                )
    cell.log.clear()
    return errors


#: Tests per cell in one campaign; a round runs one campaign per cell
#: (about 1 s).  The derived STLC generator costs hundreds of times
#: more per test than any other cell, with a heavy tail, so it gets the
#: fewest tests and the most time.
ROUND_TESTS = {
    ("stlc", "gen"): 20,
    ("bst", "gen"): 150, ("ifc", "gen"): 250,
    ("bst", "check"): 330, ("stlc", "check"): 260, ("ifc", "check"): 280,
    ("bst", "hand"): 660, ("stlc", "hand"): 360, ("ifc", "hand"): 410,
}
#: Rounds of the fixed-input probe (about six seconds).
PROBE_ROUNDS = 6


def _rounds(cases: dict, rng: random.Random, tracer, plan) -> dict:
    """Run rounds of one campaign per cell; ``plan(cells, index)`` gives
    the round's test count per cell, or None when the run is over.
    Each campaign's time is scaled by the speed measured around it."""
    cells = [Cell(cases[c], k, tracer) for c in CASES for k in KINDS]
    out = {"cells": {(c.case.name, c.kind): c for c in cells},
           "errors": [], "attempted": 0}
    track = SpeedTrack()
    index = 0
    while (counts := plan(cells, index)) is not None:
        for cell, num in zip(cells, counts):
            report = run_campaign(cell, num, rng.randrange(2**63), tracer)
            factor = track.mark()
            cell.tests += report.tests_run
            cell.seconds += report.elapsed_seconds * factor
            cell.discards += report.discards
            out["attempted"] += report.tests_run + report.discards
            out["errors"] += verify(cell, report)
        index += 1
    out["speed"] = track.factor
    return out


def run_stage(cases: dict, seconds: float, rng: random.Random,
              tracer=None) -> dict:
    """Rounds of every cell, interleaved, for about *seconds*."""
    start = perf_counter()

    def plan(cells, index):
        if index and perf_counter() - start >= seconds:
            return None
        return [ROUND_TESTS[(c.case.name, c.kind)] for c in cells]

    return _rounds(cases, rng, tracer, plan)


def run_probe(cases: dict, rng: random.Random, tracer=None) -> dict:
    """PROBE_ROUNDS rounds of every cell."""

    def plan(cells, index):
        if index == PROBE_ROUNDS:
            return None
        return [ROUND_TESTS[(c.case.name, c.kind)] for c in cells]

    return _rounds(cases, rng, tracer, plan)


def generator_counts(case: Case, rng: random.Random) -> dict:
    """Handler attempts, backtracks and fuel-outs while the derived
    generator produces a fixed number of values, from ``profile``."""
    from repro import profile
    from repro.casestudies import stlc

    count = PROFILE_VALUES[case.name]
    if case.name == "bst":
        lo, hi = case.workload.bounds()
        inputs = [(lo, hi)] * count
    elif case.name == "stlc":
        env = case.workload.environment()
        inputs = [(env, stlc._gen_type(case.workload.type_size, rng))
                  for _ in range(count)]
    else:
        from repro.casestudies import ifc

        size = case.workload.mem_size
        inputs = [
            (ifc.mem_to_value([
                (rng.randint(0, size), "H" if rng.random() < 0.5 else "L")
                for _ in range(size)
            ]),)
            for _ in range(count)
        ]
    fuel = {"bst": 10, "stlc": 6, "ifc": 8}[case.name]
    with profile(case.ctx) as trace:
        for ins in inputs:
            case.derived_gen(fuel, ins, random.Random(rng.randrange(2**63)))
    totals = [0, 0, 0, 0]
    for entry in trace.entries.values():
        for i in range(4):
            totals[i] += entry[i]
    attempts, successes, backtracks, fuel_outs = totals
    return {
        "handler_attempts": attempts,
        "backtracks": backtracks,
        "fuel_outs": fuel_outs,
        "success_ratio": successes / attempts if attempts else 0.0,
    }
