"""Tests for mixed binds and unconstrained datatype producers."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.types import BOOL, NAT, Ty, TyVar
from repro.core.values import Value, to_int
from repro.producers.combinators import (
    GEN_TABLES,
    _gen_value,
    _require_datatype,
    bind_CE,
    bind_CG,
    bind_EC,
    enum_datatype,
    gen_datatype,
    slice_exhaustive,
)
from repro.producers.enumerators import Enumerator
from repro.producers.generators import Generator
from repro.producers.option_bool import NONE_OB, SOME_FALSE, SOME_TRUE
from repro.producers.outcome import FAIL, OUT_OF_FUEL, is_value
from repro.stdlib import standard_context


@pytest.fixture(scope="module")
def ctx():
    return standard_context()


class TestBindEC:
    def test_finds_witness(self):
        result = bind_EC(
            iter([1, 2, 3]), lambda x: SOME_TRUE if x == 2 else SOME_FALSE
        )
        assert result is SOME_TRUE

    def test_complete_search_gives_false(self):
        assert bind_EC(iter([1, 2]), lambda x: SOME_FALSE) is SOME_FALSE

    def test_fuel_marker_prevents_false(self):
        result = bind_EC(iter([1, OUT_OF_FUEL]), lambda x: SOME_FALSE)
        assert result is NONE_OB

    def test_none_continuation_prevents_false(self):
        result = bind_EC(iter([1, 2]), lambda x: NONE_OB)
        assert result is NONE_OB

    def test_short_circuits_on_witness(self):
        seen = []

        def k(x):
            seen.append(x)
            return SOME_TRUE

        bind_EC(iter([1, 2, 3]), k)
        assert seen == [1]

    def test_empty_enumeration_is_false(self):
        assert bind_EC(iter(()), lambda x: SOME_TRUE) is SOME_FALSE


class TestBindCE_CG:
    def test_true_continues(self):
        e = bind_CE(SOME_TRUE, lambda: Enumerator.from_values([1]))
        assert list(e.run(0)) == [1]

    def test_false_is_fail(self):
        assert list(bind_CE(SOME_FALSE, lambda: Enumerator.ret(1)).run(0)) == []

    def test_none_is_fuel(self):
        assert list(bind_CE(NONE_OB, lambda: Enumerator.ret(1)).run(0)) == [
            OUT_OF_FUEL
        ]

    def test_generator_variants(self):
        rng = random.Random(0)
        assert bind_CG(SOME_TRUE, lambda: Generator.ret(5)).run(0, rng) == 5
        assert not is_value(bind_CG(SOME_FALSE, lambda: Generator.ret(5)).run(0, rng))
        assert bind_CG(NONE_OB, lambda: Generator.ret(5)).run(0, rng) is OUT_OF_FUEL


class TestSliceExhaustive:
    def test_finite_types(self, ctx):
        assert slice_exhaustive(ctx, BOOL, 0)
        assert slice_exhaustive(ctx, Ty("unit"), 0)

    def test_nested_finite_needs_depth(self, ctx):
        opt_bool = Ty("option", (BOOL,))
        assert not slice_exhaustive(ctx, opt_bool, 0)
        assert slice_exhaustive(ctx, opt_bool, 1)

    def test_recursive_types_never_exhaust(self, ctx):
        assert not slice_exhaustive(ctx, NAT, 50)
        assert not slice_exhaustive(ctx, Ty("list", (BOOL,)), 50)


class TestEnumDatatype:
    def test_nat_sizes(self, ctx):
        e = enum_datatype(ctx, NAT)
        assert sorted(to_int(v) for v in e.outcomes(4)) == [0, 1, 2, 3, 4]

    def test_fuel_marker_for_infinite(self, ctx):
        e = enum_datatype(ctx, NAT)
        assert not e.complete_at(4)

    def test_no_marker_when_exhaustive(self, ctx):
        e = enum_datatype(ctx, BOOL)
        assert e.complete_at(0)
        assert e.outcomes(0) == {Value("true"), Value("false")}

    def test_monotone_in_size(self, ctx):
        e = enum_datatype(ctx, Ty("list", (BOOL,)))
        assert e.outcomes(1) <= e.outcomes(2) <= e.outcomes(3)

    def test_depth_bound(self, ctx):
        e = enum_datatype(ctx, Ty("list", (NAT,)))
        assert all(v.depth() <= 4 for v in e.outcomes(3))

    def test_no_duplicates(self, ctx):
        e = enum_datatype(ctx, Ty("option", (NAT,)))
        items = [v for v in e.run(3) if is_value(v)]
        assert len(items) == len(set(items))


class TestGenDatatype:
    def test_values_well_typed(self, ctx):
        g = gen_datatype(ctx, Ty("list", (NAT,)))
        for v in g.sample_values(4, 50, seed=0):
            assert ctx.datatypes.check_value(v, Ty("list", (NAT,)))

    def test_depth_bound(self, ctx):
        g = gen_datatype(ctx, NAT)
        for v in g.sample_values(3, 50, seed=1):
            assert v.depth() <= 4

    def test_size_zero_only_nullary(self, ctx):
        g = gen_datatype(ctx, NAT)
        assert set(g.sample_values(0, 20, seed=2)) == {Value("O")}

    @settings(max_examples=20, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(min_value=0, max_value=2**31))
    def test_gen_within_enum_outcomes(self, ctx, seed):
        """Generated values always lie in the enumerator's outcome set
        at the same size (shared possibilistic semantics)."""
        size = 3
        ty = Ty("option", (BOOL,))
        allowed = enum_datatype(ctx, ty).outcomes(size)
        v = gen_datatype(ctx, ty).run(size, random.Random(seed))
        assert v in allowed


def _reference_gen_value(ctx, ty, size, rng):
    """The per-node algorithm the constructor tables replaced: look the
    datatype up and instantiate the chosen constructor's argument types
    at every node drawn."""
    dt, ty_args = _require_datatype(ctx, ty)
    if size == 0:
        candidates = [c for c in dt.constructors if not c.arg_types]
    else:
        candidates = list(dt.constructors)
    if not candidates:
        return OUT_OF_FUEL if dt.constructors else FAIL
    options = list(candidates)
    saw_fuel = False
    while options:
        ctor = options[rng.randrange(len(options))]
        args = []
        failed = False
        for at in dt.constructor_arg_types(ctor.name, ty_args):
            sub = _reference_gen_value(ctx, at, size - 1, rng)
            if not is_value(sub):
                saw_fuel = saw_fuel or sub is OUT_OF_FUEL
                failed = True
                break
            args.append(sub)
        if not failed:
            return Value(ctor.name, tuple(args))
        options.remove(ctor)
    return OUT_OF_FUEL if saw_fuel else FAIL


class TestGenValueTables:
    """The table-driven arbitrary-value generator draws exactly what the
    per-node algorithm drew: same values, same RNG stream."""

    def _cases(self):
        from repro.casestudies import bst, stlc

        std = standard_context()
        stlc_ctx = stlc.make_context()
        bst_ctx = bst.make_context()
        return [
            (std, NAT),
            (std, Ty("list", (NAT,))),
            (std, Ty("option", (BOOL,))),
            (stlc_ctx, Ty("type")),
            (stlc_ctx, Ty("term")),
            (bst_ctx, Ty("tree")),
        ]

    def test_same_values_and_rng_state(self):
        for ctx, ty in self._cases():
            for size in range(7):
                for seed in range(12):
                    r_new, r_ref = random.Random(seed), random.Random(seed)
                    for _ in range(5):
                        a = _gen_value(ctx, ty, size, r_new)
                        b = _reference_gen_value(ctx, ty, size, r_ref)
                        assert a == b, (ty, size, seed)
                        assert r_new.getstate() == r_ref.getstate()

    def test_tables_built_once_per_context(self):
        ctx = standard_context()
        ty = Ty("list", (NAT,))
        _gen_value(ctx, ty, 4, random.Random(0))
        table = ctx.artifacts[GEN_TABLES][ty]
        _gen_value(ctx, ty, 4, random.Random(1))
        assert ctx.artifacts[GEN_TABLES][ty] is table

    def test_unproducible_argument_raises_when_drawn(self):
        from repro.core.errors import DeclarationError

        ctx = standard_context()
        ty = Ty("list", (TyVar("A"),))
        outcomes = set()
        for seed in range(10):
            got = []
            for gen in (_gen_value, _reference_gen_value):
                try:
                    got.append(gen(ctx, ty, 3, random.Random(seed)))
                except DeclarationError:
                    got.append("raised")
            assert got[0] == got[1], seed
            outcomes.add(got[0] == "raised")
        assert outcomes == {True, False}
        # At size 0 only nil is drawn: the element type is never needed.
        assert _gen_value(ctx, ty, 0, random.Random(0)) == Value("nil")
