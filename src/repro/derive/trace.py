"""Derive-time profiling: per-handler execution traces.

:class:`DeriveStats` (:mod:`repro.derive.stats`) answers "how much work
happened"; this layer answers "*where*": per ``(backend, relation,
mode, rule)`` it counts handler attempts, successes, backtracks
(attempts that failed), and fuel-outs (attempts that ended
out-of-fuel).  That is the data needed to see which rule a generator
wastes its retries on, or which checker handler a dispatch index
should have filtered.

Zero overhead when off: every instrumentation site is one
``ctx.caches.get(TRACE_KEY)`` per ``rec`` level followed by ``is not
None`` guards — no wrappers, no allocation.  All four backends (the
three interpreters via :mod:`repro.derive.exec_core` and compiled code
via :mod:`repro.derive.codegen`) record into the same table, keyed the
same way, so traces from mixed-backend runs aggregate.

Usage::

    with profile(ctx) as tr:
        checker.decide(args)
    print(tr.report())
"""

from __future__ import annotations

from contextlib import contextmanager

from ..core.context import Context
from .stats import STATS_KEY, install_stats, remove_stats

TRACE_KEY = "derive_trace"

#: cache key of the span/metrics observer (owned by ``repro.observe``;
#: defined here so the executors need no import from that package)
OBSERVE_KEY = "derive_observe"

#: cache key of the resource budget (owned by ``repro.resilience``;
#: defined here, like OBSERVE_KEY, so the executors and the memo layer
#: can probe for an installed budget without importing that package)
BUDGET_KEY = "derive_budget"

#: per-entry counter layout
ATTEMPTS, SUCCESSES, BACKTRACKS, FUEL_OUTS = 0, 1, 2, 3

_FIELDS = ("attempts", "successes", "backtracks", "fuel_outs")


class DeriveTrace:
    """Mutable per-handler counters for one profiling session."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        # (backend, rel, mode_str, rule) -> [attempts, successes,
        #                                    backtracks, fuel_outs]
        self.entries: dict[tuple, list] = {}

    def record4(self, key: tuple, success: bool, fuel: bool) -> None:
        """Count one handler attempt.  *key* is the pre-merged
        ``(backend, rel, mode_str, rule)`` tuple — the lowered handler
        carries it (:attr:`~repro.derive.plan.PlanHandler.key_checker`
        and friends), so the hot path is a single dict lookup with no
        tuple allocation."""
        entry = self.entries.get(key)
        if entry is None:
            entry = self.entries[key] = [0, 0, 0, 0]
        entry[ATTEMPTS] += 1
        if success:
            entry[SUCCESSES] += 1
        else:
            entry[BACKTRACKS] += 1
        if fuel:
            entry[FUEL_OUTS] += 1

    def record(self, backend: str, key3: tuple, success: bool, fuel: bool) -> None:
        """Compatibility entry point merging the key per call; the
        executors use :meth:`record4` with pre-merged keys instead."""
        self.record4((backend, key3[0], key3[1], key3[2]), success, fuel)

    def reset(self) -> None:
        self.entries.clear()

    @property
    def total_attempts(self) -> int:
        return sum(e[ATTEMPTS] for e in self.entries.values())

    def as_dict(self) -> dict:
        """``{(backend, rel, mode, rule): {counter: n, ...}, ...}``"""
        return {
            key: dict(zip(_FIELDS, entry))
            for key, entry in self.entries.items()
        }

    def report(
        self,
        top: "int | None" = None,
        relation: "str | None" = None,
        stats=None,
    ) -> str:
        """A human-readable table, busiest handlers first.

        *top* keeps only the N busiest rows (with a "... more" footer);
        *relation* keeps rows of one relation — both matter for large
        corpora runs, where the full table runs to hundreds of rows.
        *stats* (a :class:`~repro.derive.stats.DeriveStats`, e.g. the
        one :func:`profile` installs) appends a footer with the
        transform counter the per-handler rows cannot show: premise
        evaluations functionalized away.
        """
        rows = sorted(
            self.entries.items(), key=lambda kv: -kv[1][ATTEMPTS]
        )
        if relation is not None:
            rows = [kv for kv in rows if kv[0][1] == relation]
        if not rows:
            scope = f" for relation {relation!r}" if relation else ""
            empty = f"DeriveTrace: (no handler activity recorded{scope})"
            footer = self._stats_footer(stats)
            return "\n".join([empty, *footer]) if footer else empty
        hidden = 0
        if top is not None and top < len(rows):
            hidden = len(rows) - top
            rows = rows[:top]
        label_w = max(
            len(_label(key)) for key, _ in rows
        )
        lines = [
            "DeriveTrace (per handler):",
            f"  {'handler':<{label_w}} {'attempts':>9} {'success':>9}"
            f" {'backtrack':>9} {'fuel-out':>9}",
        ]
        for key, e in rows:
            lines.append(
                f"  {_label(key):<{label_w}} {e[ATTEMPTS]:>9,}"
                f" {e[SUCCESSES]:>9,} {e[BACKTRACKS]:>9,} {e[FUEL_OUTS]:>9,}"
            )
        if hidden:
            lines.append(f"  ... ({hidden} more handlers; pass top=None for all)")
        lines.extend(self._stats_footer(stats))
        return "\n".join(lines)

    @staticmethod
    def _stats_footer(stats) -> list[str]:
        """Transform-counter footer lines (empty without *stats*).

        The counter lives on :class:`DeriveStats`, not in the
        per-handler table: a functionalized premise never reaches a
        handler (that is the point).
        """
        if stats is None:
            return []
        return [
            f"  functionalized premise evaluations: "
            f"{stats.functionalized_calls:,}",
        ]

    def __repr__(self) -> str:
        return (
            f"DeriveTrace({len(self.entries)} handlers, "
            f"{self.total_attempts} attempts)"
        )


def _label(key: tuple) -> str:
    backend, rel, mode, rule = key
    return f"{backend}:{rel}[{mode}].{rule}"


def trace_of(ctx: Context) -> "DeriveTrace | None":
    """The context's active trace, or ``None`` when profiling is off
    (the zero-overhead path)."""
    return ctx.caches.get(TRACE_KEY)


@contextmanager
def profile(ctx: Context):
    """Enable per-handler profiling for the dynamic extent of the
    ``with`` block; yields the :class:`DeriveTrace` being filled.

    Installs a :class:`~repro.derive.stats.DeriveStats` object too (the
    aggregate view) unless one is already installed — e.g. by
    :func:`~repro.derive.memo.enable_memoization` — in which case the
    existing object keeps counting and is left in place on exit.
    Nested ``profile`` blocks each get their own trace; the outer trace
    is restored (and misses the inner block's activity).
    """
    previous = ctx.caches.get(TRACE_KEY)
    trace = ctx.caches[TRACE_KEY] = DeriveTrace()
    installed_stats = ctx.caches.get(STATS_KEY) is None
    if installed_stats:
        install_stats(ctx)
    try:
        yield trace
    finally:
        if previous is None:
            ctx.caches.pop(TRACE_KEY, None)
        else:
            ctx.caches[TRACE_KEY] = previous
        if installed_stats:
            remove_stats(ctx)
