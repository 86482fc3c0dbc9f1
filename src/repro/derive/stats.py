"""Call-statistics instrumentation for derived computations.

A :class:`DeriveStats` object lives in ``ctx.caches['derive_stats']``
and counts what the derive hot path actually does: checker calls,
memo-table hits/misses, handler attempts, backtracks, fuel
exhaustions, and instance resolutions.  It is the observability half
of the memoization layer (:mod:`repro.derive.memo`); both are enabled
together by :func:`repro.derive.memo.enable_memoization`.

Zero-overhead disabled mode: when no stats object is installed, every
instrumentation site is a single ``ctx.caches.get(...)`` returning
``None`` followed by an ``is not None`` test — no counting, no wrapper
allocation.  Interpreters and the memo layer fetch the object through
:func:`stats_of` and guard each increment on it.
"""

from __future__ import annotations

from ..core.context import Context

STATS_KEY = "derive_stats"

#: counter name -> human description (drives as_dict/report ordering)
COUNTERS = (
    ("checker_calls", "top-level checker calls"),
    ("checker_cache_hits", "checker memo hits"),
    ("checker_cache_misses", "checker memo misses"),
    ("enum_calls", "external enumerator calls"),
    ("enum_cache_hits", "enumerator slice memo hits"),
    ("enum_cache_misses", "enumerator slice memo misses"),
    ("gen_calls", "external generator calls"),
    ("handler_attempts", "constructor handlers attempted"),
    ("backtracks", "handler attempts that failed (backtracking)"),
    ("fuel_exhaustions", "out-of-fuel answers observed"),
    ("external_resolutions", "instance registry resolutions"),
    ("analysis_runs", "static analysis gate runs"),
    ("invalidations", "memo-table invalidations (instance replaced)"),
    ("plan_lowerings", "schedules lowered to plans (cache misses)"),
    ("budget_trips", "resource-budget exhaustions (limit tripped)"),
    ("tainted_memo_skips", "memo writes skipped (exhaustion taint)"),
    ("cache_evictions", "memo entries evicted (cache-size cap)"),
    ("functionalized_calls", "functionalized premise evaluations (OP_EVALREL)"),
)


class DeriveStats:
    """Mutable counters for one context's derived computations."""

    __slots__ = tuple(name for name, _ in COUNTERS)

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name, _ in COUNTERS:
            setattr(self, name, 0)

    # -- aggregates -----------------------------------------------------------

    @property
    def cache_hits(self) -> int:
        return self.checker_cache_hits + self.enum_cache_hits

    @property
    def cache_misses(self) -> int:
        return self.checker_cache_misses + self.enum_cache_misses

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    # -- reporting ------------------------------------------------------------

    def as_dict(self) -> dict[str, int]:
        out = {name: getattr(self, name) for name, _ in COUNTERS}
        out["cache_hits"] = self.cache_hits
        out["cache_misses"] = self.cache_misses
        return out

    def report(self) -> str:
        """A human-readable multi-line summary."""
        width = max(len(desc) for _, desc in COUNTERS)
        lines = ["DeriveStats:"]
        for name, desc in COUNTERS:
            lines.append(f"  {desc:<{width}}  {getattr(self, name):>10,}")
        total = self.cache_hits + self.cache_misses
        if total:
            lines.append(
                f"  {'memo hit rate':<{width}}  {self.hit_rate:>9.1%}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)}"
            for name, _ in COUNTERS
            if getattr(self, name)
        )
        return f"DeriveStats({fields})"


def stats_of(ctx: Context) -> "DeriveStats | None":
    """The context's stats object, or ``None`` when instrumentation is
    disabled (the zero-overhead path)."""
    return ctx.caches.get(STATS_KEY)


def install_stats(ctx: Context) -> DeriveStats:
    """Install (or fetch) the context's stats object."""
    stats = ctx.caches.get(STATS_KEY)
    if stats is None:
        stats = ctx.caches[STATS_KEY] = DeriveStats()
    return stats


def remove_stats(ctx: Context) -> None:
    ctx.caches.pop(STATS_KEY, None)
