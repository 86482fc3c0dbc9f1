"""One benchmark run: set-up, the three stages, checks and metrics.

Every workload runs all three stages, because every run reports every
end-to-end metric.  The workload's own stage takes its inputs from the
run's seed and gets whatever is left of the run's time after the other
two stages have run as *probes*: fixed inputs (independent of the
seed) and fixed sizes, so that on the workloads a change does not
target, its prediction of "no change" can be checked.

===============  =====================================================
workload         own stage
===============  =====================================================
toolchain        cold derivation of the Software Foundations corpus
                 and certification of eight artifacts
fig3_campaign    the six Figure-3 cells (and their handwritten
                 controls) through ``quick_check``
serve_mixed      a mixed query stream through the serving engine
===============  =====================================================

With tracing on, the run goes through the stages twice, untraced and
then traced, on half its time each: the per-layer metrics come from
the traced half and the tracing overhead is the traced minus the
untraced end-to-end figure.
"""

from __future__ import annotations

import gc
import os
import random
import sys
from statistics import median
from time import perf_counter, process_time

from . import fig3, serve, toolchain
from .calibration import SpeedTrack
from .tracing import Tracer, percentile

WORKLOADS = {
    "toolchain": "toolchain",
    "fig3_campaign": "fig3",
    "serve_mixed": "serve",
}

#: Seed of every probe's inputs.
PROBE_SEED = 20220613

#: (name, unit) of the end-to-end metrics, in output order.
END_TO_END = (
    ("setup_s", "s"),
    ("derive_corpus_s", "s"),
    ("certify_s", "s"),
    ("fig3.bst.check_tps", "tests/s"),
    ("fig3.stlc.check_tps", "tests/s"),
    ("fig3.ifc.check_tps", "tests/s"),
    ("fig3.bst.gen_tps", "tests/s"),
    ("fig3.stlc.gen_tps", "tests/s"),
    ("fig3.ifc.gen_tps", "tests/s"),
)

SETUP_REPEATS = 3
#: Distinct queries of the serving stage; the stream cycles through
#: them.  The probe's stream repeats sooner: its inputs are fixed, so
#: their variety does not add to the spread between runs.
SERVE_POOL = 16_000
SERVE_PROBE_POOL = 4_000
#: Length of the serving probe.
SERVE_PROBE_SECONDS = 10.0
#: The least time the own stage gets, however short the run.
MIN_OWN_SECONDS = 2.0


class World:
    """Everything set-up builds: the stages' contexts and the engine."""

    def __init__(self) -> None:
        self.toolchain = toolchain.Toolchain()
        self.cases = {c: fig3.Case(c) for c in fig3.CASES}
        self.service = serve.Service()

    def close(self) -> None:
        self.service.close()


def _purge_program_modules() -> None:
    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]


def set_up(repeats: int = SETUP_REPEATS) -> tuple[World, float]:
    """Build the world *repeats* times from a fresh import of the
    program; returns the last world and the median set-up time."""
    times = []
    world = None
    track = SpeedTrack()
    for _ in range(repeats):
        if world is not None:
            world.close()
            world = None
        _purge_program_modules()
        gc.collect()
        t0 = perf_counter()
        world = World()
        raw = perf_counter() - t0
        times.append(raw * track.mark())
    return world, median(times)


# ---------------------------------------------------------------------------
# Stages.  Each returns (end-to-end metrics, per-layer metrics, checks).
# ---------------------------------------------------------------------------

def _checks() -> dict:
    return {"attempted": 0, "failed": 0, "errors": []}


def run_toolchain(world: World, seconds: float, rng: random.Random,
                  tracer=None) -> tuple[dict, dict, dict]:
    tc = world.toolchain
    res = toolchain.run_stage(tc, seconds, rng, tracer)
    checks = _checks()
    checks["attempted"] = res["attempted"]
    checks["errors"] += res["errors"]
    agree = tc.agreement(res["last"], rng.randrange(2**31))
    checks["attempted"] += agree["tuples"]
    checks["errors"] += agree["errors"]
    checks["failed"] = len(checks["errors"])
    e2e = {"derive_corpus_s": res["derive_corpus_s"], "certify_s": res["certify_s"]}
    layers = {"machine.speed.toolchain": res["speed"]}
    if tracer is not None:
        passes, rounds = res["pass_layers"], res["round_layers"]
        for metric, span in (
            ("core.parse_ms", "core.parse"),
            ("analysis.analyze_ms", "analysis."),
            ("derive.preprocess_ms", "derive.preprocess"),
            ("derive.schedule_ms", "derive.schedule"),
            ("derive.lower_ms", "derive.lower"),
            ("derive.codegen_ms", "derive.codegen"),
            ("toolchain.unattributed_ms", "toolchain.pass"),
        ):
            layers[metric] = 1e3 * median(
                sum(v for k, v in p.items() if k.startswith(span)) for p in passes
            )
        layers["semantics.reference_ms"] = 1e3 * median(
            r.get("semantics.reference", 0.0) for r in rounds
        )
        for name, took in res["per_artifact"].items():
            layers[f"validation.certify_ms.{name}"] = 1e3 * median(took)
        layers["validation.obligation_cases"] = res["obligation_cases"]
        layers["validation.inconclusive"] = res["inconclusive"]
        size, variants = toolchain.Toolchain.codegen_size(res["last"])
        layers["derive.codegen.source_bytes"] = size
        layers["derive.codegen.variants"] = variants
    return e2e, layers, checks


def run_fig3(world: World, seconds: float | None, rng: random.Random,
             tracer=None) -> tuple[dict, dict, dict]:
    """*seconds* ``None`` runs the fixed-size probe."""
    if seconds is None:
        res = fig3.run_probe(world.cases, rng, tracer)
    else:
        res = fig3.run_stage(world.cases, seconds, rng, tracer)
    cells = res["cells"]
    e2e = {}
    for case in fig3.CASES:
        e2e[f"fig3.{case}.check_tps"] = cells[(case, "check")].tps
        e2e[f"fig3.{case}.gen_tps"] = cells[(case, "gen")].tps
    checks = _checks()
    checks["attempted"] = res["attempted"]
    checks["errors"] = res["errors"]
    checks["failed"] = len(res["errors"])
    layers = {
        f"fig3.{case}.handwritten_tps": cells[(case, "hand")].tps
        for case in fig3.CASES
    }
    layers["machine.speed.fig3"] = res["speed"]
    if tracer is not None:
        for case in fig3.CASES:
            for kind in ("check", "gen"):
                span = tracer.totals.get(f"fig3.{case}.{kind}.derived")
                layers[f"fig3.{case}.{kind}.derived_us_per_call"] = (
                    1e6 * span[1] / span[0] * res["speed"]
                )
            counts = fig3.generator_counts(world.cases[case], rng)
            for key, value in counts.items():
                layers[f"derive.gen.{key}.{case}"] = value
        runner = tracer.totals["quickchick.quick_check"]
        layers["quickchick.runner_share"] = runner[2] / runner[1]
        layers["quickchick.discards"] = sum(c.discards for c in cells.values())
    return e2e, layers, checks


def run_serve(world: World, seconds: float, rng: random.Random,
              tracer=None, pool_size: int = SERVE_POOL) -> tuple[dict, dict, dict]:
    svc = world.service
    pool = svc.make_queries(rng, pool_size)
    gc.collect()
    gc.freeze()
    res = serve.run_stage(svc, pool, seconds, tracer)
    cache: dict = {}
    checks = _checks()
    for phase in ("closed", "open"):
        results = res[phase]["results"]
        errors, failed = serve.verify(svc, pool, results, cache)
        checks["attempted"] += len(results)
        checks["failed"] += failed
        checks["errors"] += errors
    e2e = {}
    layers = {
        "serve.qps": res["qps"],
        "serve.p50_ms": res["p50_ms"],
        "serve.p99_ms": res["p99_ms"],
        "loadgen.late_ms.p99": 1e3 * percentile(res["open"]["late"], 99),
        "machine.speed.serve": res["speed"],
    }
    if tracer is not None:
        layers.update(serve.layer_metrics(res))
    return e2e, layers, checks


def _stage(name: str, world: World, own: bool, seconds: float,
           rng: random.Random, tracer) -> tuple[dict, dict, dict]:
    """Run one stage, as the workload's own stage or as a probe."""
    probe_rng = random.Random(PROBE_SEED)
    if name == "toolchain":
        return run_toolchain(world, seconds if own else 0.0,
                             rng if own else probe_rng, tracer)
    if name == "fig3":
        return run_fig3(world, seconds if own else None,
                        rng if own else probe_rng, tracer)
    if own:
        return run_serve(world, seconds, rng, tracer)
    return run_serve(world, SERVE_PROBE_SECONDS, probe_rng, tracer,
                     SERVE_PROBE_POOL)


def run_pass(world: World, workload: str, seconds: float,
             rng: random.Random, tracer=None) -> tuple[dict, dict, dict]:
    """The probes, then the own stage on the time left of *seconds*."""
    own = WORKLOADS[workload]
    e2e, layers, checks = {}, {}, _checks()
    start = perf_counter()
    order = [s for s in ("toolchain", "fig3", "serve") if s != own] + [own]
    for name in order:
        is_own = name == own
        left = max(MIN_OWN_SECONDS, seconds - (perf_counter() - start))
        # What set-up built is long-lived: keep the cyclic collector
        # from rescanning it, so collections scan what the stage makes.
        gc.collect()
        gc.freeze()
        wall0, cpu0 = perf_counter(), process_time()
        try:
            stage_e2e, stage_layers, stage_checks = _stage(
                name, world, is_own, left, rng, tracer
            )
        finally:
            gc.unfreeze()
        stage_layers[f"cpu_share.{name}"] = (
            (process_time() - cpu0) / (perf_counter() - wall0)
        )
        e2e.update(stage_e2e)
        layers.update(stage_layers)
        for key in ("attempted", "failed"):
            checks[key] += stage_checks[key]
        checks["errors"] += stage_checks["errors"]
    return e2e, layers, checks


def run(workload: str, seed: int, seconds: float, trace: bool,
        out_dir: str | None = None) -> tuple[dict, dict]:
    """One run.  Returns the result object the command prints and a
    record of the run: every value measured, the noise controls and
    the error messages of failed checks."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    world, setup_s = set_up()
    try:
        rng = random.Random(seed)
        if not trace:
            e2e, layers, checks = run_pass(world, workload, seconds, rng)
            values = {"setup_s": setup_s, **e2e, **layers}
            units = dict(END_TO_END)
            names = [name for name, _ in END_TO_END]
        else:
            plain, _, checks = run_pass(world, workload, seconds / 2, rng)
            tracer = Tracer()
            traced, layers, traced_checks = run_pass(
                world, workload, seconds / 2, rng, tracer
            )
            for key in ("attempted", "failed"):
                checks[key] += traced_checks[key]
            checks["errors"] += traced_checks["errors"]
            for name, _ in END_TO_END[1:]:
                layers[f"trace.overhead.{name}"] = traced[name] - plain[name]
            values = {"setup_s": setup_s, **plain, **layers}
            units = dict(PER_LAYER)
            names = [name for name, _ in PER_LAYER]
            if out_dir is not None:
                tracer.write(os.path.join(out_dir, f"trace-{workload}-{seed}.jsonl"))
    finally:
        world.close()
    result = {
        "correct": not checks["errors"],
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in names
        },
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "values": values,
        "noise": {name: layers[name] for name in NOISE_CONTROLS},
        "errors": checks["errors"],
    }
    return result, record


def _per_layer() -> tuple:
    rows = [
        ("core.parse_ms", "ms"),
        ("analysis.analyze_ms", "ms"),
        ("derive.preprocess_ms", "ms"),
        ("derive.schedule_ms", "ms"),
        ("derive.lower_ms", "ms"),
        ("derive.codegen_ms", "ms"),
        ("toolchain.unattributed_ms", "ms"),
        ("derive.codegen.source_bytes", "bytes"),
        ("derive.codegen.variants", "count"),
    ]
    rows += [(f"validation.certify_ms.{c[0]}", "ms") for c in toolchain.CERTIFIED]
    rows += [("validation.obligation_cases", "count"),
             ("validation.inconclusive", "count"),
             ("semantics.reference_ms", "ms")]
    for case in fig3.CASES:
        rows += [
            (f"fig3.{case}.check.derived_us_per_call", "us"),
            (f"fig3.{case}.gen.derived_us_per_call", "us"),
            (f"fig3.{case}.handwritten_tps", "tests/s"),
        ]
        rows += [
            (f"derive.gen.{key}.{case}", unit) for key, unit in (
                ("handler_attempts", "count"), ("backtracks", "count"),
                ("fuel_outs", "count"), ("success_ratio", "ratio"),
            )
        ]
    rows += [("quickchick.runner_share", "ratio"),
             ("quickchick.discards", "count"),
             ("serve.qps", "queries/s"),
             ("serve.p50_ms", "ms"), ("serve.p99_ms", "ms"),
             ("serve.queue_ms.p50", "ms"), ("serve.queue_ms.p99", "ms")]
    for kind, rel in serve.SHAPES:
        rows += [(f"serve.service_ms.{kind}.{rel}.p50", "ms"),
                 (f"serve.service_ms.{kind}.{rel}.p99", "ms")]
    rows += [("serve.service_share.gen.typing", "ratio"),
             ("serve.batched_share", "ratio"),
             ("serve.shed", "count"), ("serve.gave_up", "count"),
             ("serve.errors", "count"), ("loadgen.late_ms.p99", "ms")]
    rows += [(f"cpu_share.{s}", "ratio") for s in ("toolchain", "fig3", "serve")]
    rows += [(f"machine.speed.{s}", "ratio") for s in ("toolchain", "fig3", "serve")]
    units = dict(END_TO_END)
    rows += [(f"trace.overhead.{name}", units[name]) for name, _ in END_TO_END[1:]]
    return tuple(rows)


#: (name, unit) of the per-layer metrics, in output order.
PER_LAYER = _per_layer()

#: Per-layer metrics measured on every run, traced or not, so that a
#: contended run shows in the recorded data.
NOISE_CONTROLS = tuple(
    name for name, _ in PER_LAYER
    if name.endswith(".handwritten_tps") or name.startswith("cpu_share.")
    or name.startswith("machine.speed.") or name == "loadgen.late_ms.p99"
)
