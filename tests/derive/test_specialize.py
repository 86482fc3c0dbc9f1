"""Tests for the term-representation specialization pass.

Covers the coercion algebra (box/unbox round-trips and their failure
mode), repr inference and the worthwhileness demotion, the per-context
on/off switch, specialized/boxed/interpreter agreement (including the
entry-coercion fallback on ill-typed values), canonical memo keys and
the cross-backend cache-contamination regression, the batched entry
points, and certificate discharge against specialized artifacts.
"""

from __future__ import annotations

import pytest

from repro.core.types import Ty
from repro.core.values import NIL, Value, V, from_int, from_list, nat_list
from repro.derive import Mode
from repro.derive.instances import CHECKER, resolve, resolve_compiled
from repro.derive.memo import (
    CHECKER_MEMO,
    definite_answer,
    enable_memoization,
)
from repro.derive import specialize as sp
from repro.producers.option_bool import NONE_OB, SOME_FALSE, SOME_TRUE
from repro.validation import ValidationConfig, certify_checker


# ---------------------------------------------------------------------------
# Coercions.
# ---------------------------------------------------------------------------


class TestCoercions:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 30])
    def test_nat_round_trip(self, n):
        assert sp.box_nat(n) == from_int(n)
        assert sp.unbox_nat(from_int(n)) == n
        assert sp.unbox_nat(sp.box_nat(n)) == n

    def test_box_nat_shares_spines(self):
        assert sp.box_nat(5) is sp.box_nat(5)
        assert sp.box_nat(5).args[0] is sp.box_nat(4)

    def test_unbox_nat_is_partial(self):
        with pytest.raises(sp.SpecCoercionError):
            sp.unbox_nat(V("true"))
        with pytest.raises(sp.SpecCoercionError):
            sp.unbox_nat(V("cons", from_int(1), NIL))
        with pytest.raises(sp.SpecCoercionError):
            sp.unbox_nat(42)  # not even a Value

    @pytest.mark.parametrize(
        "r, boxed, native",
        [
            (("list", sp.NAT), nat_list([1, 2, 3]), (1, (2, (3, ())))),
            (("list", sp.NAT), nat_list([]), ()),
            (
                ("list", sp.BOX),
                from_list([V("true"), V("false")]),
                (V("true"), (V("false"), ())),
            ),
            (
                ("list", ("list", sp.NAT)),
                from_list([nat_list([1]), nat_list([])]),
                ((1, ()), ((), ())),
            ),
        ],
    )
    def test_list_round_trip(self, r, boxed, native):
        assert sp.unboxer(r)(boxed) == native
        assert sp.boxer(r)(native) == boxed

    def test_list_unbox_is_partial(self):
        with pytest.raises(sp.SpecCoercionError):
            sp.unboxer(("list", sp.NAT))(from_int(3))
        with pytest.raises(sp.SpecCoercionError):
            sp.unboxer(("list", sp.NAT))(from_list([V("true")]))

    def test_nullary_constructors_intern(self):
        assert sp.intern_value(V("O")) is sp.intern_value(V("O"))
        assert sp.intern_value(V("nil")) is sp.intern_value(V("nil"))
        deep = V("S", V("S", V("O")))
        assert sp.intern_value(deep) is sp.intern_value(from_int(2))

    def test_value_in_repr_compile_time_failure(self):
        with pytest.raises(sp.SpecCoercionError):
            sp.value_in_repr(V("true"), sp.NAT)


# ---------------------------------------------------------------------------
# Repr inference and demotion.
# ---------------------------------------------------------------------------


class TestReprInference:
    def test_repr_of(self):
        assert sp.repr_of(Ty("nat")) == sp.NAT
        assert sp.repr_of(Ty("list", (Ty("nat"),))) == ("list", sp.NAT)
        assert sp.repr_of(Ty("bool")) == sp.BOX
        assert sp.repr_of(None) == sp.BOX

    def test_worthwhile(self):
        assert sp.worthwhile(sp.NAT)
        assert sp.worthwhile(("list", sp.NAT))
        assert sp.worthwhile(("list", ("list", sp.NAT)))
        assert not sp.worthwhile(sp.BOX)
        assert not sp.worthwhile(("list", sp.BOX))

    def test_nat_relation_specializes(self, nat_ctx):
        fn = resolve_compiled(nat_ctx, CHECKER, "le", Mode.checker(2))
        assert fn.__spec_reprs__ == (sp.NAT, sp.NAT)

    def test_list_of_box_is_demoted(self, stlc_ctx):
        """``typing``'s context is ``list type`` — no nat inside, so
        the entry stays boxed (pair conversion would only add a
        traversal); the term argument's nat components still make the
        plan worth specializing."""
        fn = resolve_compiled(stlc_ctx, CHECKER, "typing", Mode.checker(3))
        assert fn.__spec_reprs__ == (sp.BOX, sp.BOX, sp.BOX)

    def test_list_of_nat_stays_specialized(self, list_ctx):
        fn = resolve_compiled(list_ctx, CHECKER, "Sorted", Mode.checker(1))
        assert fn.__spec_reprs__ == (("list", sp.NAT),)


# ---------------------------------------------------------------------------
# The on/off switch.
# ---------------------------------------------------------------------------


class TestSpecializationFlag:
    def test_disable_compiles_boxed_only(self, nat_ctx):
        sp.disable_specialization(nat_ctx)
        fn = resolve_compiled(nat_ctx, CHECKER, "le", Mode.checker(2))
        assert not hasattr(fn, "__spec_rec__")
        assert not hasattr(fn, "__spec_fast__")
        assert fn(5, (from_int(1), from_int(2))) is SOME_TRUE

    def test_env_var_off_switch(self, nat_ctx, monkeypatch):
        monkeypatch.setenv("REPRO_NO_SPECIALIZE", "1")
        assert not sp.specialization_enabled(nat_ctx)
        fn = resolve_compiled(nat_ctx, CHECKER, "le", Mode.checker(2))
        assert not hasattr(fn, "__spec_rec__")

    def test_enabled_by_default(self, nat_ctx):
        assert sp.specialization_enabled(nat_ctx)


# ---------------------------------------------------------------------------
# Agreement between the twins.
# ---------------------------------------------------------------------------


def _le_cases():
    return [
        (from_int(a), from_int(b)) for a in range(4) for b in range(4)
    ]


class TestTwinAgreement:
    def test_spec_vs_interpreter(self, nat_ctx):
        interp = resolve(nat_ctx, CHECKER, "le", Mode.checker(2)).fn
        compiled = resolve_compiled(nat_ctx, CHECKER, "le", Mode.checker(2))
        for args in _le_cases():
            for fuel in (0, 1, 2, 5):
                assert interp(fuel, args) is compiled(fuel, args)

    def test_fast_twin_matches_instrumented_twin(self, nat_ctx):
        fn = resolve_compiled(nat_ctx, CHECKER, "le", Mode.checker(2))
        for a in range(4):
            for b in range(4):
                for fuel in (0, 2, 5):
                    assert fn.__spec_fast__(fuel, fuel, a, b) is fn.__spec_rec__(
                        fuel, fuel, a, b
                    )

    def test_fast_twin_matches_public_entry(self, nat_ctx):
        fn = resolve_compiled(nat_ctx, CHECKER, "le", Mode.checker(2))
        for args in _le_cases():
            native = tuple(sp.unbox_nat(a) for a in args)
            assert fn.__spec_fast__(5, 5, *native) is fn(5, args)

    def test_ill_typed_argument_falls_back_to_boxed_twin(self, nat_ctx):
        """An argument outside the specialized repr (not a Peano nat)
        must not raise out of the public entry: the wrapper catches the
        coercion failure and re-runs the boxed twin."""
        interp = resolve(nat_ctx, CHECKER, "le", Mode.checker(2)).fn
        compiled = resolve_compiled(nat_ctx, CHECKER, "le", Mode.checker(2))
        weird = (V("true"), from_int(2))
        assert compiled(5, weird) is interp(5, weird)

    def test_ill_typed_term_keeps_instrumentation_identical(self):
        """A non-nat key inside a BST node passes the entry coercion
        (the tree stays boxed), so only the instrumented twin meets it.
        Spans and budget ops must match the interpreter's exactly: the
        instrumented twin may not fail after opening a span or charging
        an op and leave the boxed re-run to record it all again."""
        from repro.casestudies import bst
        from repro.observe import observe
        from repro.resilience import budget_scope

        ctx = bst.make_context()
        interp = resolve(ctx, CHECKER, "bst", Mode.checker(3)).fn
        compiled = resolve_compiled(ctx, CHECKER, "bst", Mode.checker(3))
        args = (from_int(0), from_int(9), V("Node", V("Leaf"), V("true"), V("Leaf")))
        assert compiled(6, args) is interp(6, args)
        spans = []
        ops = []
        for fn in (interp, compiled):
            with observe(ctx) as obs:
                fn(6, args)
            spans.append(obs.spans.identities())
            with budget_scope(ctx, max_ops=10_000) as bud:
                fn(6, args)
            ops.append(bud.ops)
        assert spans[0] and spans[1] == spans[0]
        assert ops[1] == ops[0]

    def test_premise_calls_bind_the_callees_fast_twin(self):
        """DESIGN §4.7: where argument reprs agree, a premise call binds
        the callee's matching twin directly — ``lt`` inside ``bst``'s
        fast twin is one call on ints, not a spliced copy of ``lt``."""
        from repro.casestudies import bst

        ctx = bst.make_context()
        fn = resolve_compiled(ctx, CHECKER, "bst", Mode.checker(3))
        lt = resolve_compiled(ctx, CHECKER, "lt", Mode.checker(2))
        assert lt.__spec_fast__ in fn.__spec_fast__.__globals__.values()


# ---------------------------------------------------------------------------
# Canonical memo keys.
# ---------------------------------------------------------------------------


class TestCanonicalizeArgs:
    def test_all_boxed_tuple_is_returned_unchanged(self):
        args = (from_int(1), V("true"))
        assert sp.canonicalize_args(args) is args

    def test_native_forms_canonicalize_to_boxed(self):
        assert sp.canonicalize_args((3,)) == (from_int(3),)
        assert sp.canonicalize_args(((),)) == (NIL,)
        assert sp.canonicalize_args(((1, (2, ())),)) == (nat_list([1, 2]),)

    def test_bool_passthrough(self):
        assert sp.canonicalize_args((True,)) == (True,)

    def test_memo_cross_contamination_regression(self, nat_ctx):
        """A boxed caller and a native-repr caller of one ground query
        must share a single memo line with one definite answer."""
        enable_memoization(nat_ctx)
        interp = resolve(nat_ctx, CHECKER, "le", Mode.checker(2)).fn
        compiled = resolve_compiled(nat_ctx, CHECKER, "le", Mode.checker(2))
        boxed = (from_int(2), from_int(3))
        a = interp(8, boxed)
        b = compiled(8, boxed)
        assert a is b is SOME_TRUE
        keys = [k for k in nat_ctx.caches[CHECKER_MEMO] if k[0] == "le"]
        assert len(keys) == 1
        # The fuel-independent lookup answers identically for boxed
        # and native key spellings of the same ground query.
        assert definite_answer(nat_ctx, "le", boxed) is SOME_TRUE
        assert definite_answer(nat_ctx, "le", (2, 3)) is SOME_TRUE
        assert len(nat_ctx.caches[CHECKER_MEMO]) == len(
            set(nat_ctx.caches[CHECKER_MEMO])
        )


# ---------------------------------------------------------------------------
# Batched entry points.
# ---------------------------------------------------------------------------


class TestBatchEntryPoints:
    def test_compiled_batch_matches_elementwise(self, nat_ctx):
        fn = resolve_compiled(nat_ctx, CHECKER, "le", Mode.checker(2))
        argses = _le_cases()
        assert fn.__batch__(5, argses) == [fn(5, args) for args in argses]

    def test_compiled_batch_survives_ill_typed_elements(self, nat_ctx):
        fn = resolve_compiled(nat_ctx, CHECKER, "le", Mode.checker(2))
        argses = [
            (from_int(1), from_int(2)),
            (V("true"), from_int(2)),  # falls back per element
            (from_int(3), from_int(1)),
        ]
        assert fn.__batch__(5, argses) == [fn(5, args) for args in argses]

    def test_interpreter_batch_parity(self, nat_ctx):
        from repro.derive.exec_core import run_checker_batch

        checker = resolve(nat_ctx, CHECKER, "le", Mode.checker(2)).fn.__self__
        compiled = resolve_compiled(nat_ctx, CHECKER, "le", Mode.checker(2))
        argses = _le_cases()
        batch = checker.check_batch(5, argses)
        assert batch == compiled.__batch__(5, argses)
        assert batch == run_checker_batch(
            nat_ctx, checker._plans, checker._plan, 5, argses
        )

    def test_batch_unspecialized_plan(self, stlc_ctx):
        sp.disable_specialization(stlc_ctx)
        fn = resolve_compiled(stlc_ctx, CHECKER, "lookup", Mode.checker(3))
        args = (nat_list([]), from_int(0), V("N"))
        assert fn.__batch__(4, [args, args]) == [fn(4, args)] * 2


# ---------------------------------------------------------------------------
# Certificates discharge against specialized artifacts.
# ---------------------------------------------------------------------------

FAST_CFG = ValidationConfig(
    domain_depth=3, max_tuples=100, ref_depth=10, max_fuel=16, gen_samples=60
)


class TestValidationOfSpecializedArtifacts:
    @pytest.mark.parametrize("rel", ["le", "ev"])
    def test_specialized_nat_checkers_certify(self, nat_ctx, rel):
        inst = resolve(
            nat_ctx,
            CHECKER,
            rel,
            Mode.checker(nat_ctx.relations.get(rel).arity),
            backend="compiled",
        )
        assert inst.fn.__spec_reprs__  # genuinely specialized
        cert = certify_checker(nat_ctx, rel, FAST_CFG, instance=inst)
        assert cert.ok, cert.summary()

    def test_specialized_list_checker_certifies(self, list_ctx):
        inst = resolve(
            list_ctx, CHECKER, "Sorted", Mode.checker(1), backend="compiled"
        )
        assert inst.fn.__spec_reprs__ == (("list", sp.NAT),)
        cert = certify_checker(list_ctx, "Sorted", FAST_CFG, instance=inst)
        assert cert.ok, cert.summary()
