"""The serving stage: a mixed query stream through one ``Engine``.

The engine serves one context holding the BST and STLC relations,
with the default (interpreter) backend, one worker per available CPU,
and a bounded admission queue with the ``reject`` policy, so overload
shows up as shed queries rather than as an unbounded queue.

The mix is 35% ``typing`` checks, 25% ``bst`` checks, 20% ``typing
iio`` enumerations, 17% ``bst iio`` generations and 3% ``typing ioi``
generations.  The rare STLC generations take most of the service time
(the Figure-3 generator gap as a client sees it), so they set the tail
latency.

Two phases:

* closed loop — a fixed window of outstanding queries, each completion
  submitting the next: ``serve.qps``;
* open loop — queries due at a fixed offered rate regardless of
  completions, each timed from its due time, so a stall also delays
  the queries behind it: ``serve.p50_ms`` and ``serve.p99_ms`` (the
  median of the p99s of consecutive windows of 1000 queries).  Shed
  and failed queries count as missing every latency limit.

Correctness: every future resolves; every check and enumeration answer
equals a direct call of the same derived instance outside the engine;
every generated value is accepted by the derived checker.
"""

from __future__ import annotations

import os
import random
import statistics
from concurrent.futures import FIRST_COMPLETED, wait
from time import perf_counter, sleep

from .calibration import SpeedTrack
from .tracing import percentile

#: (cumulative share, kind, relation) of the query mix.
MIX = (
    (0.35, "check", "typing"),
    (0.60, "check", "bst"),
    (0.80, "enum", "typing"),
    (0.97, "gen", "bst"),
    (1.00, "gen", "typing"),
)
SHAPES = tuple((kind, rel) for _, kind, rel in MIX)

CHECK_FUEL = 24
ENUM_FUEL = 24
ENUM_MAX = 4
BST_GEN_FUEL = 6
TYPING_GEN_FUEL = 4
#: Fuel for re-checking generated values: enough to decide any of them.
RECHECK_FUEL = 64

WINDOW = 16
RATE = 400.0
#: Room for about two seconds of open-loop arrivals: the engine's
#: overload ladder sheds at three quarters full, so only a stall of the
#: whole process longer than that sheds queries.
QUEUE_MAX = 1024
#: Seconds between calibrations during a phase.  One kernel repetition
#: (about 1.5 ms) holds the interpreter lock, so it delays at most the
#: next submission by that much.
SAMPLE_EVERY = 0.5
#: Queries per open-loop window.  ``serve.p99_ms`` is the median over
#: consecutive windows of each window's p99 (ten samples beyond it), so
#: one burst of contention or one cluster of slow generations moves one
#: window, not the figure.
P99_WINDOW = 1000
RESOLVE_TIMEOUT = 60.0
#: The latency a query that never got an answer counts with.
MISS_SECONDS = RESOLVE_TIMEOUT


def workers() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        return os.cpu_count() or 1


class Service:
    """The served context and a running engine."""

    def __init__(self) -> None:
        import repro
        from repro.casestudies import bst, stlc

        self.repro = repro
        self.bst, self.stlc = bst, stlc
        ctx = repro.standard_context()
        repro.parse_declarations(ctx, bst.DECLARATIONS)
        repro.parse_declarations(ctx, stlc.DECLARATIONS)
        self.ctx = ctx
        self.env = stlc.StlcWorkload(ctx).environment()
        self.engine = repro.Engine(
            ctx, workers=workers(), queue_max=QUEUE_MAX, admission="reject"
        )
        self.engine.prepare(self.make_queries(random.Random(0), 40))
        self.engine.start()

    def close(self) -> None:
        self.engine.close()

    # -- inputs ----------------------------------------------------------------

    def make_queries(self, rng: random.Random, count: int) -> list:
        repro, bst, stlc = self.repro, self.bst, self.stlc
        env, nat = self.env, repro.from_int
        out = []
        while len(out) < count:
            u = rng.random()
            kind, rel = next((k, r) for share, k, r in MIX if u < share)
            if rel == "typing" and kind != "gen":
                ty = stlc._gen_type(2, rng)
                term = stlc.handwritten_typing_gen(6, (env, ty), rng)
                if not isinstance(term, tuple):
                    continue
                if kind == "enum":
                    out.append(repro.EnumQuery(
                        "typing", "iio", (env, term[0]), fuel=ENUM_FUEL,
                        max_values=ENUM_MAX,
                    ))
                    continue
                if rng.random() < 0.5:
                    ty = stlc._gen_type(2, rng)
                out.append(repro.CheckQuery(
                    "typing", (env, term[0], ty), fuel=CHECK_FUEL
                ))
            elif kind == "check":
                tree = bst.handwritten_bst_gen(6, (nat(0), nat(16)), rng)[0]
                key = rng.randint(1, 15)
                insert = bst.insert if rng.random() < 0.5 else bst.insert_swapped
                out.append(repro.CheckQuery(
                    "bst", (nat(0), nat(16), insert(key, tree)), fuel=CHECK_FUEL
                ))
            elif rel == "bst":
                out.append(repro.GenQuery(
                    "bst", "iio", (nat(0), nat(rng.randint(4, 16))),
                    fuel=BST_GEN_FUEL, seed=rng.randrange(2**32),
                ))
            else:
                out.append(repro.GenQuery(
                    "typing", "ioi", (env, stlc._gen_type(2, rng)),
                    fuel=TYPING_GEN_FUEL, seed=rng.randrange(2**32),
                ))
        return out

    # -- reference answers -----------------------------------------------------

    def expected(self, query):
        """The answer of a direct call outside the engine, in the
        engine's result shape: ``(status, value)``."""
        repro = self.repro
        from repro.producers.outcome import OUT_OF_FUEL

        ctx = self.ctx
        if isinstance(query, repro.CheckQuery):
            verdict = repro.derive_checker(ctx, query.rel).check(
                query.fuel, tuple(query.args)
            )
            if verdict.is_none:
                return ("gave_up", None)
            return ("ok", verdict.is_true)
        if isinstance(query, repro.EnumQuery):
            enum = repro.derive_enumerator(ctx, query.rel, query.mode)
            values, saw_fuel = [], False
            for item in enum.enum_st(query.fuel, tuple(query.ins)):
                if item is OUT_OF_FUEL:
                    saw_fuel = True
                    continue
                values.append(item)
                if len(values) >= query.max_values:
                    break
            if saw_fuel and not values:
                return ("gave_up", values)
            return ("ok", values)
        raise TypeError(f"no direct reference for {query!r}")

    def generated_ok(self, query, value) -> bool:
        ins, outs = iter(query.ins), iter(value)
        args = tuple(next(ins) if c == "i" else next(outs) for c in query.mode)
        checker = self.repro.derive_checker(self.ctx, query.rel)
        return checker.check(RECHECK_FUEL, args).is_true


def kind_of(query) -> str:
    return {"CheckQuery": "check", "EnumQuery": "enum", "GenQuery": "gen"}[
        type(query).__name__
    ]


def closed_loop(svc: Service, pool: list, seconds: float, track,
                tracer=None) -> dict:
    """Keep WINDOW queries outstanding for *seconds*."""
    engine = svc.engine
    results: list = []  # (pool index, QueryResult or None if unresolved)
    pending: dict = {}  # future -> pool index
    cursor = 0

    def submit():
        nonlocal cursor
        index = cursor % len(pool)
        cursor += 1
        if tracer is None:
            fut = engine.submit(pool[index])
        else:
            with tracer.span("serve.submit", rid=cursor):
                fut = engine.submit(pool[index])
        pending[fut] = index

    t0 = perf_counter()
    end = t0 + seconds
    next_sample = t0 + SAMPLE_EVERY
    for _ in range(WINDOW):
        submit()
    completed = 0
    while (now := perf_counter()) < end:
        if now >= next_sample:
            track.sample(reps=1)
            next_sample += SAMPLE_EVERY
        done, _ = wait(pending, timeout=RESOLVE_TIMEOUT, return_when=FIRST_COMPLETED)
        if not done:
            break
        for fut in done:
            results.append((pending.pop(fut), fut.result()))
            completed += 1
            submit()
    elapsed = perf_counter() - t0
    wait(pending, timeout=RESOLVE_TIMEOUT)
    for fut, index in pending.items():
        results.append((index, fut.result() if fut.done() else None))
    return {"qps": completed / elapsed, "results": results}


def open_loop(svc: Service, pool: list, seconds: float, track,
              offset: int = 0, tracer=None) -> dict:
    """Submit at RATE queries/s for *seconds*, each timed from its due
    time to its resolution; a query shed, failed or unresolved counts
    as MISS_SECONDS late."""
    engine = svc.engine
    n = max(1, int(RATE * seconds))
    done_at = [0.0] * n
    due = [0.0] * n
    late = [0.0] * n
    futures: list = []

    def stamp(i):
        def on_done(_fut):
            done_at[i] = perf_counter()
        return on_done

    t0 = perf_counter() + 0.005
    next_sample = t0 + SAMPLE_EVERY
    for i in range(n):
        due[i] = t0 + i / RATE
        if due[i] >= next_sample:
            track.sample(reps=1)
            next_sample += SAMPLE_EVERY
        wait_s = due[i] - perf_counter()
        if wait_s > 0:
            sleep(wait_s)
        late[i] = perf_counter() - due[i]
        index = (offset + i) % len(pool)
        if tracer is None:
            fut = engine.submit(pool[index])
        else:
            with tracer.span("serve.submit", rid=offset + i):
                fut = engine.submit(pool[index])
        fut.add_done_callback(stamp(i))
        futures.append(fut)
    wait(futures, timeout=RESOLVE_TIMEOUT)
    results, latencies = [], []
    for i, fut in enumerate(futures):
        result = fut.result() if fut.done() else None
        results.append(((offset + i) % len(pool), result))
        if result is None or result.status in ("shed", "error"):
            latencies.append(MISS_SECONDS)
        else:
            latencies.append(done_at[i] - due[i])
            if tracer is not None:
                tracer.record("serve.query", due[i], done_at[i], rid=offset + i)
    return {"results": results, "latencies": latencies, "late": late}


def verify(svc: Service, pool: list, results: list, cache: dict) -> tuple:
    """Compare every result with the direct reference; returns
    ``(errors, failed operations)``.  Shed and failed queries are
    failed operations; only a wrong or missing answer is an error."""
    errors: list[str] = []
    failed = 0
    for index, result in results:
        query = pool[index]
        if result is None:
            errors.append(f"query {query!r} never resolved")
            failed += 1
            continue
        if result.status == "shed":
            failed += 1
            continue
        if result.status == "error":
            failed += 1
            errors.append(f"query {query!r} errored: {result.error}")
            continue
        if isinstance(query, svc.repro.GenQuery):
            if result.status != "ok":
                continue
            key = (index, result.value)
            if key not in cache:
                cache[key] = svc.generated_ok(query, result.value)
            if not cache[key]:
                errors.append(f"generated {result.value} for {query!r} is rejected")
            continue
        if index not in cache:
            cache[index] = svc.expected(query)
        status, value = cache[index]
        if result.status != status or (status == "ok" and result.value != value):
            errors.append(
                f"engine answered {result.status} {result.value!r} for {query!r}, "
                f"direct call {status} {value!r}"
            )
    return errors, failed


def run_stage(svc: Service, pool: list, seconds: float, tracer=None) -> dict:
    """Closed loop for 40% of *seconds*, open loop for the rest; rates
    and latencies at reference speed (see :mod:`.calibration`)."""
    track = SpeedTrack()
    closed = closed_loop(svc, pool, 0.4 * seconds, track, tracer)
    closed["speed"] = track.mark()
    opened = open_loop(
        svc, pool, 0.6 * seconds, track, len(closed["results"]), tracer
    )
    opened["speed"] = track.mark()
    lat = opened["latencies"]
    windows = max(1, len(lat) // P99_WINDOW)
    size = len(lat) // windows
    p99 = statistics.median(
        percentile(lat[i * size:(i + 1) * size], 99) for i in range(windows)
    )
    return {
        "qps": closed["qps"] / closed["speed"],
        "p50_ms": 1e3 * percentile(lat, 50) * opened["speed"],
        "p99_ms": 1e3 * p99 * opened["speed"],
        "closed": closed,
        "open": opened,
        "speed": track.factor,
    }


def layer_metrics(run: dict) -> dict:
    """Queue and service times (open loop, at reference speed), shares
    and counts from the results."""
    opened = [r for _, r in run["open"]["results"] if r is not None]
    closed = [r for _, r in run["closed"]["results"] if r is not None]
    served = [r for r in opened if r.status in ("ok", "gave_up")]
    ms = 1e3 * run["open"]["speed"]
    m = {}
    queue = [r.queue_seconds for r in served]
    m["serve.queue_ms.p50"] = ms * percentile(queue, 50)
    m["serve.queue_ms.p99"] = ms * percentile(queue, 99)
    total = sum(r.elapsed_seconds for r in served)
    for kind, rel in SHAPES:
        times = [r.elapsed_seconds for r in served
                 if kind_of(r.query) == kind and r.query.rel == rel]
        m[f"serve.service_ms.{kind}.{rel}.p50"] = ms * percentile(times, 50)
        m[f"serve.service_ms.{kind}.{rel}.p99"] = ms * percentile(times, 99)
        if (kind, rel) == ("gen", "typing"):
            m["serve.service_share.gen.typing"] = sum(times) / total
    closed_served = [r for r in closed if r.status in ("ok", "gave_up")]
    m["serve.batched_share"] = (
        sum(r.batched for r in closed_served) / len(closed_served)
    )
    both = opened + closed
    m["serve.shed"] = sum(r.status == "shed" for r in both)
    m["serve.gave_up"] = sum(r.status == "gave_up" for r in both)
    m["serve.errors"] = sum(r.status == "error" for r in both)
    return m
