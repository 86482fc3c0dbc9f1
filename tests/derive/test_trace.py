"""Tests for derive-time profiling (repro.derive.trace)."""

from __future__ import annotations

import random

from repro.core.values import from_int, nat_list
from repro.derive import (
    Mode,
    derive_checker,
    derive_enumerator,
    derive_generator,
    enable_memoization,
    disable_memoization,
    profile,
    trace_of,
)
from repro.derive.instances import CHECKER, resolve_compiled
from repro.derive.stats import STATS_KEY, stats_of
from repro.derive.trace import TRACE_KEY, DeriveTrace


class TestProfileContext:
    def test_off_by_default_and_removed_after(self, nat_ctx):
        assert trace_of(nat_ctx) is None
        with profile(nat_ctx) as tr:
            assert trace_of(nat_ctx) is tr
        assert trace_of(nat_ctx) is None

    def test_nested_blocks_restore_outer(self, nat_ctx):
        with profile(nat_ctx) as outer:
            with profile(nat_ctx) as inner:
                assert trace_of(nat_ctx) is inner
            assert trace_of(nat_ctx) is outer

    def test_installs_and_removes_stats(self, nat_ctx):
        assert stats_of(nat_ctx) is None
        with profile(nat_ctx):
            assert stats_of(nat_ctx) is not None
        assert stats_of(nat_ctx) is None

    def test_leaves_existing_stats_in_place(self, nat_ctx):
        enable_memoization(nat_ctx)
        try:
            existing = stats_of(nat_ctx)
            assert existing is not None
            with profile(nat_ctx):
                assert stats_of(nat_ctx) is existing
            assert stats_of(nat_ctx) is existing
        finally:
            disable_memoization(nat_ctx)


class TestInterpreterTraces:
    def test_checker_records_per_rule(self, nat_ctx):
        le = derive_checker(nat_ctx, "le")
        with profile(nat_ctx) as tr:
            assert le(10, from_int(2), from_int(5)).is_true
        keys = set(tr.entries)
        assert any(k[0] == "checker" and k[1] == "le" for k in keys)
        assert tr.total_attempts > 0
        # Successful derivation: some handler succeeded somewhere.
        assert any(e[1] > 0 for e in tr.entries.values())

    def test_backtracks_counted(self, nat_ctx):
        le = derive_checker(nat_ctx, "le")
        with profile(nat_ctx) as tr:
            assert not le(10, from_int(5), from_int(2)).is_true
        assert any(e[2] > 0 for e in tr.entries.values())

    def test_enum_records(self, nat_ctx):
        enum = derive_enumerator(nat_ctx, "le", "io")
        with profile(nat_ctx) as tr:
            list(enum(4, from_int(2)))
        assert any(k[0] == "enum" for k in tr.entries)

    def test_gen_records(self, nat_ctx):
        gen = derive_generator(nat_ctx, "le", "io")
        with profile(nat_ctx) as tr:
            for seed in range(10):
                gen(5, from_int(3), rng=random.Random(seed))
        assert any(k[0] == "gen" for k in tr.entries)

    def test_profiling_does_not_change_answers(self, list_ctx):
        sorted_checker = derive_checker(list_ctx, "Sorted")
        args = [nat_list(xs) for xs in ([], [1, 2, 3], [3, 1])]
        plain = [sorted_checker(10, a) for a in args]
        with profile(list_ctx):
            traced = [sorted_checker(10, a) for a in args]
        assert plain == traced


class TestCompiledTraces:
    def test_compiled_checker_records_same_keys(self, nat_ctx):
        interp = derive_checker(nat_ctx, "le")
        compiled = resolve_compiled(nat_ctx, CHECKER, "le", Mode.checker(2))
        args = (from_int(2), from_int(5))
        with profile(nat_ctx) as tr_interp:
            interp(10, *args)
        with profile(nat_ctx) as tr_compiled:
            compiled(10, args)
        interp_keys = set(tr_interp.entries)
        compiled_keys = set(tr_compiled.entries)
        # Same (backend, rel, mode, rule) key space: traces from mixed
        # backends aggregate into the same rows.
        assert interp_keys == compiled_keys
        assert tr_interp.entries == tr_compiled.entries


class TestReporting:
    def test_report_table(self, nat_ctx):
        le = derive_checker(nat_ctx, "le")
        with profile(nat_ctx) as tr:
            le(10, from_int(2), from_int(5))
        text = tr.report()
        assert "DeriveTrace" in text
        assert "checker:le[ii]" in text

    def test_empty_report(self):
        assert "no handler activity" in DeriveTrace().report()

    def test_stats_footer(self, nat_ctx):
        from repro.derive.stats import DeriveStats

        le = derive_checker(nat_ctx, "le")
        with profile(nat_ctx) as tr:
            le(10, from_int(2), from_int(5))
        stats = DeriveStats()
        stats.functionalized_calls = 3
        text = tr.report(stats=stats)
        assert "functionalized premise evaluations: 3" in text
        # Footer also decorates the empty report, and is absent
        # without a stats object.
        assert "functionalized" in DeriveTrace().report(stats=stats)
        assert "functionalized" not in tr.report()

    def test_as_dict_and_reset(self, nat_ctx):
        le = derive_checker(nat_ctx, "le")
        with profile(nat_ctx) as tr:
            le(10, from_int(0), from_int(1))
        d = tr.as_dict()
        assert d and all(
            set(v) == {"attempts", "successes", "backtracks", "fuel_outs"}
            for v in d.values()
        )
        tr.reset()
        assert tr.total_attempts == 0

    def test_record_key_is_not_left_installed(self, nat_ctx):
        with profile(nat_ctx):
            pass
        assert TRACE_KEY not in nat_ctx.caches
        assert STATS_KEY not in nat_ctx.caches


class TestRecord4:
    def test_pre_merged_key_equivalent_to_record(self):
        a, b = DeriveTrace(), DeriveTrace()
        a.record("checker", ("le", "ii", "le_n"), True, False)
        b.record4(("checker", "le", "ii", "le_n"), True, False)
        assert a.entries == b.entries

    def test_plan_handlers_carry_backend_keys(self, nat_ctx):
        from repro.derive.plan import lower_schedule
        from repro.derive.scheduler import build_schedule

        schedule = build_schedule(nat_ctx, "le", Mode.checker(2))
        plan = lower_schedule(nat_ctx, schedule)
        for h in plan.handlers:
            assert h.key_checker == ("checker",) + h.key3
            assert h.key_enum == ("enum",) + h.key3
            assert h.key_gen == ("gen",) + h.key3


class TestReportFilters:
    def _traced(self, nat_ctx):
        le = derive_checker(nat_ctx, "le")
        ev = derive_checker(nat_ctx, "ev")
        with profile(nat_ctx) as tr:
            le(10, from_int(2), from_int(5))
            ev(10, from_int(4))
        return tr

    def test_top_truncates_with_footer(self, nat_ctx):
        tr = self._traced(nat_ctx)
        assert len(tr.entries) > 1
        text = tr.report(top=1)
        assert "more handlers" in text
        assert len([l for l in text.splitlines() if ":" in l and "[" in l]) == 1

    def test_relation_filter(self, nat_ctx):
        tr = self._traced(nat_ctx)
        text = tr.report(relation="ev")
        assert "ev[" in text and "le[" not in text

    def test_empty_filter_result(self, nat_ctx):
        tr = self._traced(nat_ctx)
        assert "no handler activity" in tr.report(relation="nope")

    def test_unfiltered_report_unchanged(self, nat_ctx):
        tr = self._traced(nat_ctx)
        assert "more handlers" not in tr.report()


MUTUAL_EVEN_ODD = """
Inductive even : nat -> Prop :=
| even_0 : even 0
| even_S : forall n, odd n -> even (S n)
with odd : nat -> Prop :=
| odd_S : forall n, even n -> odd (S n).
"""


class TestMutualGroups:
    """Tracing and observation across a mutual-recursion group (the
    group shares fuel and routes RECCHECK to sibling plans; spans and
    trace rows must attribute to the right member)."""

    def _mutual_ctx(self):
        from repro.core import parse_declarations
        from repro.derive.mutual import derive_mutual_checkers
        from repro.stdlib import standard_context

        ctx = standard_context()
        parse_declarations(ctx, MUTUAL_EVEN_ODD)
        return ctx, derive_mutual_checkers(ctx, ["even", "odd"])

    def test_trace_rows_per_member(self):
        ctx, checkers = self._mutual_ctx()
        with profile(ctx) as tr:
            assert checkers["even"](10, from_int(4)).is_true
        rels = {k[1] for k in tr.entries}
        assert rels == {"even", "odd"}
        # even 4 -> odd 3 -> even 2 -> odd 1 -> even 0: every recursive
        # step fired exactly one rule.
        assert all(e[0] == e[1] for e in tr.entries.values())

    def test_span_tree_alternates_members(self):
        from repro.observe import observe

        ctx, checkers = self._mutual_ctx()
        with observe(ctx) as obs:
            assert checkers["even"](10, from_int(4)).is_true
        chain = [(s.rel, s.size) for s in reversed(list(obs.spans))]
        assert chain == [
            ("even", 10), ("odd", 9), ("even", 8), ("odd", 7), ("even", 6),
        ]
        # One root; each level nests under the previous (shared fuel).
        roots = obs.spans.roots()
        assert len(roots) == 1
        depths = sorted(s.depth for s in obs.spans)
        assert depths == [0, 1, 2, 3, 4]

    def test_group_coverage_attributes_rules_to_members(self):
        from repro.observe import observe

        ctx, checkers = self._mutual_ctx()
        with observe(ctx) as obs:
            assert checkers["even"](12, from_int(6)).is_true
            assert checkers["odd"](12, from_int(3)).is_true
        cov = obs.coverage()
        assert cov.fired("even") == {"even_0", "even_S"}
        assert cov.fired("odd") == {"odd_S"}

    def test_mutual_spans_deterministic_across_runs(self):
        """Two separate sessions over the same group workload produce
        identical timing-stripped span trees (the single-backend
        analogue of test_backend_diff; mutual groups are interpreter-
        only, so interp-vs-interp determinism is the contract)."""
        from repro.observe import observe

        def run():
            ctx, checkers = self._mutual_ctx()
            with observe(ctx) as obs:
                checkers["even"](10, from_int(7))
                checkers["odd"](10, from_int(7))
            return obs.spans.identities(), obs.coverage().table

        ids_a, cov_a = run()
        ids_b, cov_b = run()
        assert ids_a and ids_a == ids_b
        assert cov_a == cov_b


class TestMixedBackendRuns:
    def test_interp_and_compiled_aggregate_one_trace(self, nat_ctx):
        """One profile session over both backends: rows merge into the
        same (kind, rel, mode, rule) keys, each counted twice."""
        interp = derive_checker(nat_ctx, "le")
        compiled = resolve_compiled(nat_ctx, CHECKER, "le", Mode.checker(2))
        args = (from_int(2), from_int(5))
        with profile(nat_ctx) as tr_single:
            interp(10, *args)
        with profile(nat_ctx) as tr_mixed:
            interp(10, *args)
            compiled(10, args)
        assert set(tr_mixed.entries) == set(tr_single.entries)
        for key, entry in tr_mixed.entries.items():
            assert entry == [c * 2 for c in tr_single.entries[key]]

    def test_mixed_run_span_subtrees_identical(self, list_ctx):
        from repro.observe import observe

        interp = derive_checker(list_ctx, "Sorted")
        compiled = resolve_compiled(
            list_ctx, CHECKER, "Sorted", Mode.checker(1)
        )
        arg = nat_list([1, 2, 3])
        with observe(list_ctx) as obs:
            interp(8, arg)
            compiled(8, (arg,))
        roots = obs.spans.roots()
        assert len(roots) == 2
        interp_tree, compiled_tree = (obs.spans.tree(r) for r in roots)
        assert interp_tree == compiled_tree
