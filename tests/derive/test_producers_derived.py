"""Behavioral tests for derived enumerators and generators."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.values import V, from_int, from_list, nat_list, to_int, to_list
from repro.derive import (
    ENUM,
    GEN,
    Mode,
    SampledGenerator,
    derive_checker,
    derive_enumerator,
    derive_generator,
    resolve,
)
from repro.derive.instances import resolve_compiled
from repro.producers.outcome import FAIL, OUT_OF_FUEL, is_value
from repro.resilience import budget_scope
from repro.semantics import derivable


class TestLeEnumerators:
    def test_mode_oi_enumerates_smaller(self, nat_ctx):
        en = derive_enumerator(nat_ctx, "le", "oi")
        outs = {to_int(t[0]) for t in en.values(10, from_int(3))}
        assert outs == {0, 1, 2, 3}

    def test_mode_oi_exhaustive_no_marker(self, nat_ctx):
        en = derive_enumerator(nat_ctx, "le", "oi")
        assert en.exhaustive_at(10, from_int(3))

    def test_mode_io_enumerates_larger_with_marker(self, nat_ctx):
        en = derive_enumerator(nat_ctx, "le", "io")
        items = list(en(6, from_int(2)))
        values = {to_int(t[0]) for t in items if is_value(t)}
        assert values == set(range(2, 2 + 7))
        assert OUT_OF_FUEL in items  # infinitely many more exist

    def test_fuel_zero(self, nat_ctx):
        en = derive_enumerator(nat_ctx, "le", "oi")
        items = list(en(0, from_int(2)))
        # Only the base rule (le_n) applies; recursion is cut.
        assert OUT_OF_FUEL in items

    def test_monotone_outcomes(self, nat_ctx):
        en = derive_enumerator(nat_ctx, "le", "io")
        small = {t for t in en(3, from_int(1)) if is_value(t)}
        large = {t for t in en(6, from_int(1)) if is_value(t)}
        assert small <= large


class TestSquareRoots:
    def test_forward_mode_deterministic(self, nat_ctx):
        en = derive_enumerator(nat_ctx, "square_of", "io")
        assert [to_int(t[0]) for t in en.values(5, from_int(3))] == [9]
        assert en.exhaustive_at(5, from_int(3))

    def test_inverse_mode_enumerates_roots(self, nat_ctx):
        en = derive_enumerator(nat_ctx, "square_of", "oi")
        assert [to_int(t[0]) for t in en.values(10, from_int(9))] == [3]
        assert [to_int(t[0]) for t in en.values(10, from_int(10))] == []


class TestSortedProducers:
    def test_enumerated_lists_are_sorted(self, list_ctx):
        en = derive_enumerator(list_ctx, "Sorted", "o")
        for (lst,) in en.values(3):
            xs = [to_int(x) for x in to_list(lst)]
            assert xs == sorted(xs)

    def test_enumeration_contains_all_small_sorted_lists(self, list_ctx):
        en = derive_enumerator(list_ctx, "Sorted", "o")
        produced = {tuple(to_int(x) for x in to_list(t[0])) for t in en.values(3)}
        import itertools

        for xs in itertools.product(range(2), repeat=2):
            if list(xs) == sorted(xs):
                assert tuple(xs) in produced

    def test_generated_lists_are_sorted(self, list_ctx):
        gen = derive_generator(list_ctx, "Sorted", "o")
        for (lst,) in gen.samples(6, count=100, seed=5):
            xs = [to_int(x) for x in to_list(lst)]
            assert xs == sorted(xs)

    def test_generator_reproducible(self, list_ctx):
        gen = derive_generator(list_ctx, "Sorted", "o")
        a = gen.samples(5, count=10, seed=42)
        b = gen.samples(5, count=10, seed=42)
        assert a == b


class TestSTLCProducers:
    @pytest.fixture(autouse=True)
    def _setup(self, stlc_ctx):
        self.ctx = stlc_ctx
        self.chk = derive_checker(stlc_ctx, "typing")
        self.empty = from_list([])
        self.N = V("N")

    def test_type_inference_enumerator(self):
        en = derive_enumerator(self.ctx, "typing", "iio")
        identity = V("Abs", self.N, V("Vart", from_int(0)))
        types = [t for (t,) in en.values(6, self.empty, identity)]
        assert types == [V("Arr", self.N, self.N)]

    def test_inference_of_untypeable_term(self):
        en = derive_enumerator(self.ctx, "typing", "iio")
        bad = V("App", V("Con", from_int(1)), V("Con", from_int(2)))
        assert en.values(6, self.empty, bad) == []

    def test_generated_terms_typecheck(self):
        gen = derive_generator(self.ctx, "typing", "ioi")
        count = 0
        for (e,) in gen.samples(6, self.empty, self.N, count=60, seed=3):
            assert self.chk(30, self.empty, e, self.N).is_true
            count += 1
        assert count == 60

    def test_generated_function_terms_typecheck(self):
        gen = derive_generator(self.ctx, "typing", "ioi")
        ty = V("Arr", self.N, self.N)
        for (e,) in gen.samples(6, self.empty, ty, count=30, seed=4):
            assert self.chk(40, self.empty, e, ty).is_true

    def test_enumerated_terms_typecheck_and_cover(self):
        en = derive_enumerator(self.ctx, "typing", "ioi")
        terms = [e for (e,) in en.values(2, self.empty, self.N)]
        assert V("Con", from_int(0)) in terms
        for e in terms[:50]:
            assert self.chk(20, self.empty, e, self.N).is_true

    def test_generation_in_nonempty_context_uses_variables(self):
        gen = derive_generator(self.ctx, "typing", "ioi")
        env = from_list([self.N])
        seen_var = False
        for (e,) in gen.samples(4, env, self.N, count=150, seed=9):
            if "Vart" in str(e):
                seen_var = True
        assert seen_var


class TestLookupProducers:
    def test_lookup_enumerates_bindings(self, stlc_ctx):
        en = derive_enumerator(stlc_ctx, "lookup", "ioo")
        env = from_list([V("N"), V("Arr", V("N"), V("N"))])
        pairs = {(to_int(i), str(t)) for (i, t) in en.values(5, env)}
        assert pairs == {(0, "N"), (1, "Arr N N")}
        assert en.exhaustive_at(5, env)


class TestMultipleOutputs:
    """The §8 extension: producer modes with several outputs."""

    def test_le_both_outputs(self, nat_ctx):
        en = derive_enumerator(nat_ctx, "le", "oo")
        pairs = {(to_int(a), to_int(b)) for (a, b) in en.values(3)}
        assert all(a <= b for a, b in pairs)
        assert (0, 0) in pairs and (0, 1) in pairs

    def test_typing_term_and_type(self, stlc_ctx):
        en = derive_enumerator(stlc_ctx, "typing", "ioo")
        chk = derive_checker(stlc_ctx, "typing")
        empty = from_list([])
        found = 0
        for item in en(2, empty):
            if not is_value(item):
                continue
            e, t = item
            assert chk(20, empty, e, t).is_true
            found += 1
            if found >= 25:
                break
        assert found >= 10


_N = V("N")
_ARR = V("Arr", _N, _N)


class TestSampledGeneratorSupport:
    """A finite-by-input generator is one uniform draw from its mode's
    enumeration: over seeded draws at a fixed fuel its outputs are
    exactly the enumerator's answers, and an empty enumeration draws
    FAIL when complete and OUT_OF_FUEL when it carries a fuel marker."""

    CASES = [
        # [N; N->N; N; N] holds N at 0, 2 and 3: fuel cuts the deeper
        # ones, so the answer count grows with fuel.
        ("stlc_ctx", "lookup", "ioi", (from_list([_N, _ARR, _N, _N]), _N),
         {1, 2, 3}),
        # An absent type: empty with a fuel marker at low fuel, then
        # complete and empty.
        ("stlc_ctx", "lookup", "ioi", (from_list([_N, _N]), _ARR),
         {"OUT_OF_FUEL", "FAIL"}),
        ("nat_ctx", "le", "oi", (from_int(5),), {1, 2, 3, 4, 6}),
    ]

    @pytest.mark.parametrize("backend", ["interp", "compiled"])
    @pytest.mark.parametrize("fixture, rel, mode, ins, regimes", CASES)
    def test_draws_cover_the_enumeration(
        self, request, backend, fixture, rel, mode, ins, regimes
    ):
        ctx = request.getfixturevalue(fixture)
        mode = Mode.from_string(mode)
        assert isinstance(derive_generator(ctx, rel, mode), SampledGenerator)
        if backend == "interp":
            enum = resolve(ctx, ENUM, rel, mode).fn
            gen = resolve(ctx, GEN, rel, mode).fn
        else:
            enum = resolve_compiled(ctx, ENUM, rel, mode)
            gen = resolve_compiled(ctx, GEN, rel, mode)
        seen = set()
        for fuel in (0, 1, 2, 3, 8):
            items = list(enum(fuel, ins))
            answers = {x for x in items if is_value(x)}
            rng = random.Random(fuel)
            draws = {gen(fuel, ins, rng) for _ in range(200)}
            if answers:
                assert draws == answers, (fuel, draws, answers)
                seen.add(len(answers))
            else:
                expected = OUT_OF_FUEL if OUT_OF_FUEL in items else FAIL
                assert draws == {expected}, fuel
                seen.add(str(expected))
        assert seen == regimes

    def test_budget_cut_draws_out_of_fuel(self, nat_ctx):
        # A tripped budget leaves a partial enumeration with answers in
        # it; the draw reports the indefinite outcome, not one of them.
        enum = derive_enumerator(nat_ctx, "le", "oi")
        gen = derive_generator(nat_ctx, "le", "oi")
        with budget_scope(nat_ctx, max_ops=20):
            items = list(enum(50, from_int(40)))
        assert any(is_value(x) for x in items) and items[-1] is OUT_OF_FUEL
        with budget_scope(nat_ctx, max_ops=20):
            assert gen(50, from_int(40), rng=random.Random(0)) is OUT_OF_FUEL
        assert is_value(gen(50, from_int(40), rng=random.Random(0)))
