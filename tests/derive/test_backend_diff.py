"""Differential property test: interpreter vs compiled backends.

Both backends execute the same lowered Plan (one lowering, two
executions), so on any input they must produce *identical* outcomes:

* checkers — the same ``OptionBool`` singleton;
* enumerators — the same value/marker sequence, in the same order;
* generators — the same sample (or marker) under the same RNG seed.

The corpus is every monomorphic relation the deriver handles in
``repro.sf`` (the Table 1 population) and the ``repro.casestudies``
relations, plus all derivable producer modes of the small shared
fixtures.  Inputs are seeded slices of each argument type's value
enumeration, capped to keep the product tractable.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core.errors import ReproError
from repro.derive import Mode, disable_functionalization
from repro.derive.instances import (
    CHECKER,
    ENUM,
    GEN,
    resolve,
    resolve_compiled,
)
from repro.derive.specialize import disable_specialization
from repro.producers.combinators import _enum_values
from repro.producers.option_bool import NONE_OB
from repro.resilience import FaultPlan, budget_scope
from repro.sf.registry import CHAPTER_MODULES, load_chapter

from ..conftest import LIST_RELATIONS, NAT_RELATIONS, STLC_DECLS

CHECK_FUELS = (0, 2, 5)
MAX_PER_POSITION = 4
MAX_TUPLES = 40

_CHAPTERS = {}
_PLAIN_CHAPTERS = {}
_FUNC_OFF_CHAPTERS = {}


def chapter(module):
    if module not in _CHAPTERS:
        _CHAPTERS[module] = load_chapter(module)
    return _CHAPTERS[module]


def plain_chapter(module):
    """The same chapter with term-representation specialization off —
    its compiled instances are boxed-only (the pre-specialization
    emitter's behaviour)."""
    if module not in _PLAIN_CHAPTERS:
        ch = load_chapter(module)
        disable_specialization(ch.ctx)
        _PLAIN_CHAPTERS[module] = ch
    return _PLAIN_CHAPTERS[module]


def func_off_chapter(module):
    """The same chapter with premise functionalization off — plans
    keep their enumerate-then-check premises (no ``OP_EVALREL`` ops)
    and no enumerator carries a direct-eval twin (the pre-pass
    behaviour)."""
    if module not in _FUNC_OFF_CHAPTERS:
        ch = load_chapter(module)
        disable_functionalization(ch.ctx)
        _FUNC_OFF_CHAPTERS[module] = ch
    return _FUNC_OFF_CHAPTERS[module]


def seeded_inputs(ctx, arg_types, seed=0):
    """A capped product of small values of each argument type."""
    per_position = []
    for ty in arg_types:
        values = list(itertools.islice(_enum_values(ctx, ty, 2), 12))
        if not values:
            return []
        rng = random.Random((seed, str(ty)).__repr__())
        if len(values) > MAX_PER_POSITION:
            values = rng.sample(values, MAX_PER_POSITION)
        per_position.append(values)
    return list(itertools.islice(itertools.product(*per_position), MAX_TUPLES))


def assert_checkers_agree(ctx, rel, fuels=CHECK_FUELS):
    relation = ctx.relations.get(rel)
    mode = Mode.checker(relation.arity)
    interp = resolve(ctx, CHECKER, rel, mode).fn
    compiled = resolve_compiled(ctx, CHECKER, rel, mode)
    cases = seeded_inputs(ctx, relation.arg_types)
    assert cases, f"no seeded inputs for {rel}"
    for args in cases:
        for fuel in fuels:
            assert interp(fuel, args) is compiled(fuel, args), (
                f"checker mismatch: {rel} fuel={fuel} args={args}"
            )


def assert_enums_agree(ctx, rel, mode_str, fuels=(0, 2, 4)):
    relation = ctx.relations.get(rel)
    mode = Mode.from_string(mode_str)
    interp = resolve(ctx, ENUM, rel, mode).fn
    compiled = resolve_compiled(ctx, ENUM, rel, mode)
    in_types = [relation.arg_types[i] for i in mode.ins]
    for ins in seeded_inputs(ctx, in_types) or [()]:
        for fuel in fuels:
            a = list(interp(fuel, ins))
            b = list(compiled(fuel, ins))
            assert a == b, (
                f"enum mismatch: {rel}[{mode_str}] fuel={fuel} ins={ins}"
            )


def assert_gens_agree(ctx, rel, mode_str, fuel=4, seeds=range(25)):
    relation = ctx.relations.get(rel)
    mode = Mode.from_string(mode_str)
    interp = resolve(ctx, GEN, rel, mode).fn
    compiled = resolve_compiled(ctx, GEN, rel, mode)
    in_types = [relation.arg_types[i] for i in mode.ins]
    for ins in (seeded_inputs(ctx, in_types) or [()])[:6]:
        for seed in seeds:
            a = interp(fuel, ins, random.Random(seed))
            b = compiled(fuel, ins, random.Random(seed))
            assert a == b, (
                f"gen mismatch: {rel}[{mode_str}] seed={seed} ins={ins}"
            )


def _diff_within_budget(ctx, rel, fuels, max_ops=60_000, seconds=2.0):
    """Run the checker diff with every call resource-bounded.

    A handful of corpus relations are exponential even at fuel 2
    (plf_sub's ``subtype`` checks transitivity by producing the middle
    type unconstrained).  Each backend call runs under a fresh
    :class:`~repro.resilience.Budget`, so a blowup degrades that call
    to ``None`` instead of wedging the suite — a genuine backend
    divergence still fails fast.  Agreement is asserted on whatever
    completed, and also on pairs where *both* backends tripped the op
    cap (op charges are mirrored site-for-site, so both unwind at the
    same index and must still answer identically); only wall-clock
    trips — which land at backend-dependent op indices — skip the
    comparison.  Returns the number of compared pairs.
    """
    relation = ctx.relations.get(rel)
    mode = Mode.checker(relation.arity)
    interp = resolve(ctx, CHECKER, rel, mode).fn
    compiled = resolve_compiled(ctx, CHECKER, rel, mode)
    cases = seeded_inputs(ctx, relation.arg_types)
    assert cases, f"no seeded inputs for {rel}"
    compared = 0
    for args in cases:
        for fuel in fuels:
            with budget_scope(
                ctx, max_ops=max_ops, deadline_seconds=seconds
            ) as b_i:
                a = interp(fuel, args)
            with budget_scope(
                ctx, max_ops=max_ops, deadline_seconds=seconds
            ) as b_c:
                b = compiled(fuel, args)
            tripped = (
                b_i.exhausted.limit if b_i.exhausted else None,
                b_c.exhausted.limit if b_c.exhausted else None,
            )
            if "deadline" in tripped or tripped.count("ops") == 1:
                # Wall trips land at nondeterministic op indices, and a
                # one-sided op trip means the wall backstop fired first
                # on the other side — no comparable outcome either way.
                continue
            assert a is b, (
                f"checker mismatch: {rel} fuel={fuel} args={args} "
                f"(trips={tripped})"
            )
            compared += 1
    return compared


def _spec_unspec_diff(
    ctx_spec, ctx_plain, rel, fuels, max_ops=60_000, seconds=2.0
):
    """Diff the specialized compiled checker against a boxed-only
    compiled checker from an identical context.  Same budget/skip
    discipline as :func:`_diff_within_budget`; op charges are emitted
    site-for-site in both twins, so two-sided op trips still compare.
    Returns the number of compared pairs."""
    relation = ctx_spec.relations.get(rel)
    mode = Mode.checker(relation.arity)
    spec = resolve_compiled(ctx_spec, CHECKER, rel, mode)
    plain = resolve_compiled(ctx_plain, CHECKER, rel, mode)
    cases = seeded_inputs(ctx_spec, relation.arg_types)
    assert cases, f"no seeded inputs for {rel}"
    compared = 0
    for args in cases:
        for fuel in fuels:
            with budget_scope(
                ctx_spec, max_ops=max_ops, deadline_seconds=seconds
            ) as b_s:
                a = spec(fuel, args)
            with budget_scope(
                ctx_plain, max_ops=max_ops, deadline_seconds=seconds
            ) as b_p:
                b = plain(fuel, args)
            tripped = (
                b_s.exhausted.limit if b_s.exhausted else None,
                b_p.exhausted.limit if b_p.exhausted else None,
            )
            if "deadline" in tripped or tripped.count("ops") == 1:
                continue
            assert a is b, (
                f"spec/unspec mismatch: {rel} fuel={fuel} args={args} "
                f"(trips={tripped})"
            )
            compared += 1
    return compared


FUNC_FAULT_SEEDS = (11, 22)


def _func_on_off_diff(
    ctx_on, ctx_off, rel, fuels, max_ops=60_000, seconds=2.0
):
    """Diff checkers with the functionalization pass on vs off.

    The pass is a *refinement*, not an equivalence: an OP_EVALREL
    premise computes its answer directly, so the pass-on checker may
    answer definitely where pass-off ran out of fuel enumerating — but
    it must never flip or lose a definite pass-off verdict.  The two
    plans charge different op streams by construction, so any budget
    trip on either side skips the pair (unlike the spec/unspec diff,
    where charges mirror site-for-site).  Within each configuration
    the interpreter and compiled twins must still agree exactly, under
    plain budgets and under seeded fault schedules (interruption
    soundness survives the transform).  Returns compared on/off pairs.
    """
    relation = ctx_on.relations.get(rel)
    mode = Mode.checker(relation.arity)
    on_i = resolve(ctx_on, CHECKER, rel, mode).fn
    on_c = resolve_compiled(ctx_on, CHECKER, rel, mode)
    off_i = resolve(ctx_off, CHECKER, rel, mode).fn
    off_c = resolve_compiled(ctx_off, CHECKER, rel, mode)
    cases = seeded_inputs(ctx_on, relation.arg_types)
    assert cases, f"no seeded inputs for {rel}"
    compared = 0
    for args in cases:
        for fuel in fuels:
            answers = {}
            for key, ctx, fn in (
                ("on", ctx_on, on_c),
                ("on_i", ctx_on, on_i),
                ("off", ctx_off, off_c),
                ("off_i", ctx_off, off_i),
            ):
                with budget_scope(
                    ctx, max_ops=max_ops, deadline_seconds=seconds
                ) as b:
                    answers[key] = (fn(fuel, args), b.exhausted is not None)
            for key in ("on", "off"):
                (a, ta), (b, tb) = answers[key], answers[key + "_i"]
                if not ta and not tb:
                    assert a is b, (
                        f"backends diverge ({key}): {rel} fuel={fuel} "
                        f"args={args}"
                    )
            (on, t_on), (off, t_off) = answers["on"], answers["off"]
            if t_on or t_off:
                continue
            assert on is off or (off is NONE_OB and on is not NONE_OB), (
                f"functionalization broke a verdict: {rel} fuel={fuel} "
                f"args={args} on={on} off={off}"
            )
            compared += 1
    # Interruption soundness per configuration: an injected fuel-out
    # may degrade a definite verdict to indefinite, never flip it, and
    # both backends must unwind identically at the injected op.
    plans = [
        FaultPlan.seeded(s, n_events=6, horizon=2048)
        for s in FUNC_FAULT_SEEDS
    ]
    for args in cases[:2]:
        for ctx, interp, compiled in (
            (ctx_on, on_i, on_c),
            (ctx_off, off_i, off_c),
        ):
            with budget_scope(ctx, max_ops=max_ops) as b0:
                base = compiled(2, args)
            base_definite = b0.exhausted is None and base is not NONE_OB
            for plan in plans:
                with budget_scope(
                    ctx, max_ops=max_ops, faults=plan, check_every=1
                ):
                    fi = interp(2, args)
                with budget_scope(
                    ctx, max_ops=max_ops, faults=plan, check_every=1
                ):
                    fc = compiled(2, args)
                assert fi is fc, (
                    f"backends diverge under faults: {rel} args={args} "
                    f"plan={list(plan)}"
                )
                if base_definite and fi is not NONE_OB:
                    assert fi is base, (
                        f"fault flipped a definite verdict: {rel} "
                        f"args={args} plan={list(plan)}"
                    )
    return compared


class TestSFCorpusCheckers:
    """Every derivable SF relation: interp and compiled checkers agree."""

    @pytest.mark.parametrize("module", CHAPTER_MODULES)
    def test_chapter_checkers_agree(self, module):
        ch = chapter(module)
        covered = 0
        for entry in ch.entries:
            if entry.higher_order:
                continue
            relation = ch.ctx.relations.get(entry.name)
            if not relation.is_monomorphic():
                continue
            try:
                # Fuel 2 exercises base handlers, one recursion level
                # and external calls; fuel 3+ hits exponential search
                # cliffs on some relations (e.g. lf_indprop's evp)
                # without adding diff coverage.
                if _diff_within_budget(ch.ctx, entry.name, fuels=(0, 2)):
                    covered += 1
            except ReproError:
                continue  # out of the deriver's scope: census covers it
        assert covered, f"no relation in {module} was diffable"


class TestSpecializedVsUnspecialized:
    """The specialization pass must be invisible in verdicts: the
    specialized compiled checker and a boxed-only compiled checker
    agree over the whole corpus (all SF chapters + case studies)."""

    @pytest.mark.parametrize("module", CHAPTER_MODULES)
    def test_chapter_spec_unspec_agree(self, module):
        ch, plain = chapter(module), plain_chapter(module)
        covered = 0
        for entry in ch.entries:
            if entry.higher_order:
                continue
            relation = ch.ctx.relations.get(entry.name)
            if not relation.is_monomorphic():
                continue
            try:
                if _spec_unspec_diff(
                    ch.ctx, plain.ctx, entry.name, fuels=(0, 2)
                ):
                    covered += 1
            except ReproError:
                continue
        assert covered, f"no relation in {module} was diffable"

    @pytest.mark.parametrize(
        "maker, rels",
        [
            ("bst", ("bst", "lt")),
            ("stlc", ("typing", "lookup")),
            ("ifc", ("indist_atom", "indist_list")),
        ],
    )
    def test_case_study_spec_unspec_agree(self, maker, rels):
        import importlib

        mod = importlib.import_module(f"repro.casestudies.{maker}")
        ctx_spec = mod.make_context()
        ctx_plain = mod.make_context()
        disable_specialization(ctx_plain)
        for rel in rels:
            assert _spec_unspec_diff(ctx_spec, ctx_plain, rel, fuels=(0, 2))


def _fresh(decls):
    """A context factory: the standard context plus *decls*."""
    from repro.core import parse_declarations
    from repro.stdlib import standard_context

    def make():
        ctx = standard_context()
        for d in decls:
            parse_declarations(ctx, d)
        return ctx

    return make


def _case_study(name):
    import importlib

    return importlib.import_module(f"repro.casestudies.{name}").make_context


#: Every compiled generator mode this suite derives elsewhere: the
#: ``TestAllModesSmallRelations`` and ``TestSampledGenerators`` modes
#: and the case studies' (``lt io`` is ``bst iio``'s premise).
GEN_TWIN_MODES = [
    ("nat", "le", "io"), ("nat", "le", "oi"), ("nat", "le", "oo"),
    ("nat", "ev", "o"),
    ("list", "Sorted", "o"),
    ("list", "InNat", "io"), ("list", "InNat", "oi"), ("list", "InNat", "oo"),
    ("stlc_fixture", "typing", "iio"), ("stlc_fixture", "typing", "ioi"),
    ("stlc_fixture", "lookup", "ioi"),
    ("bst", "bst", "iio"), ("bst", "lt", "io"),
    ("stlc", "typing", "ioi"),
    ("ifc", "indist_list", "io"),
]

_GEN_MAKERS = {
    "nat": _fresh((NAT_RELATIONS,)),
    "list": _fresh((NAT_RELATIONS, LIST_RELATIONS)),
    "stlc_fixture": _fresh((STLC_DECLS,)),
    "bst": _case_study("bst"),
    "stlc": _case_study("stlc"),
    "ifc": _case_study("ifc"),
}


def _gen_pair(maker, rel, mode_str, prepare=None):
    """The compiled generator for ``rel mode_str`` in two fresh
    contexts, specialization on and off; *prepare* runs on each
    context before anything is derived."""
    mode = Mode.from_string(mode_str)
    fns = []
    for spec in (True, False):
        ctx = _GEN_MAKERS[maker]()
        if not spec:
            disable_specialization(ctx)
        if prepare is not None:
            prepare(ctx)
        fns.append((ctx, resolve_compiled(ctx, GEN, rel, mode)))
    return fns


def _assert_same_draws(on, off, fuel, ins, seeds, calls=3):
    """Equal samples and equal ``rng`` states after every call."""
    for seed in seeds:
        r_on, r_off = random.Random(seed), random.Random(seed)
        for _ in range(calls):
            a = on(fuel, ins, r_on)
            b = off(fuel, ins, r_off)
            assert a == b, f"seed={seed} ins={ins}: {a} vs {b}"
            assert r_on.getstate() == r_off.getstate(), f"seed={seed} ins={ins}"


class TestGeneratorTwins:
    """The representation-specialized generator twin must be invisible:
    with specialization on and off, every compiled generator returns
    the same samples and leaves the RNG in the same state, and the
    instrumented path (handler counts, op charges, memo call counts)
    is untouched.  All calls run uninstrumented unless stated, so the
    twin is the code under test."""

    @pytest.mark.parametrize("maker, rel, mode", GEN_TWIN_MODES)
    def test_spec_on_off_same_draws(self, maker, rel, mode):
        (ctx, on), (_, off) = _gen_pair(maker, rel, mode)
        relation = ctx.relations.get(rel)
        in_types = [relation.arg_types[i] for i in Mode.from_string(mode).ins]
        for ins in (seeded_inputs(ctx, in_types) or [()])[:4]:
            _assert_same_draws(on, off, 4, ins, range(8))

    def test_bst_draws_at_figure3_bounds(self):
        """Deep trees (the Figure-3 bounds and fuel) and every ``lt``
        input up to them, many calls per stream."""
        from repro.core.values import from_int

        (_, on), (_, off) = _gen_pair("bst", "bst", "iio")
        _assert_same_draws(
            on, off, 10, (from_int(0), from_int(16)), range(6), calls=25
        )
        (_, on), (_, off) = _gen_pair("bst", "lt", "io")
        for n in range(17):
            _assert_same_draws(on, off, 10, (from_int(n),), range(6))

    def test_bst_generator_twin_runs_on_ints(self):
        """The Figure-3 BST generator and its ``lt io`` premise get
        twins on ints; the twin binds ``lt``'s generator twin and ``lt``'s
        checker twin directly.  The other Figure-3 generator modes stay
        boxed: no input or output repr is worth a coercion."""
        from repro.casestudies import bst, ifc, stlc
        from repro.derive import specialize as sp

        ctx = bst.make_context()
        gen = resolve_compiled(ctx, GEN, "bst", Mode.from_string("iio"))
        lt = resolve_compiled(ctx, GEN, "lt", Mode.from_string("io"))
        lt_check = resolve_compiled(ctx, CHECKER, "lt", Mode.checker(2))
        assert gen.__spec_reprs__ == (sp.NAT, sp.NAT)
        assert gen.__spec_out_reprs__ == (sp.BOX,)
        assert lt.__spec_reprs__ == lt.__spec_out_reprs__ == (sp.NAT,)
        bound = gen.__spec_fast__.__globals__.values()
        assert lt.__spec_fast__ in bound
        assert lt_check.__spec_fast__ in bound
        for mod, rel, mode in (
            (stlc, "typing", "ioi"),
            (stlc, "lookup", "ioi"),
            (ifc, "indist_list", "io"),
            (ifc, "indist_atom", "io"),
        ):
            fn = resolve_compiled(
                mod.make_context(), GEN, rel, Mode.from_string(mode)
            )
            assert not hasattr(fn, "__spec_fast__"), (rel, mode)

    def test_ill_typed_input_falls_back_identically(self):
        from repro.core.values import V

        (_, on), (_, off) = _gen_pair("bst", "lt", "io")
        assert hasattr(on, "__spec_fast__")
        _assert_same_draws(on, off, 4, (V("Leaf"),), range(8))
        (_, on), (_, off) = _gen_pair("bst", "bst", "iio")
        _assert_same_draws(on, off, 4, (V("Leaf"), V("true")), range(8))

    def test_instrumented_counts_unchanged(self):
        """Under ``profile`` and a budget the wrapper selects the
        instrumented boxed twin either way: per-handler counts and op
        charges are the same with specialization on and off."""
        from repro import profile
        from repro.core.values import from_int

        (ctx_on, on), (ctx_off, off) = _gen_pair("bst", "bst", "iio")
        ins = (from_int(0), from_int(10))
        entries, ops = [], []
        for ctx, fn in ((ctx_on, on), (ctx_off, off)):
            rng = random.Random(5)
            with profile(ctx) as trace:
                out = [fn(6, ins, rng) for _ in range(20)]
            entries.append((out, trace.entries))
            rng = random.Random(5)
            with budget_scope(ctx, max_ops=500) as bud:
                out = [fn(6, ins, rng) for _ in range(20)]
            ops.append((out, bud.ops, rng.getstate()))
        assert entries[0][1] and entries[0] == entries[1]
        assert ops[0] == ops[1]

    def test_memo_counts_every_premise_generator_call(self):
        """Memo wrappers hide the raw twins, so a twin never bypasses a
        memoized premise: ``gen_calls`` is the same on and off."""
        from repro.core.values import from_int
        from repro.derive import derive_stats, enable_memoization

        pair = _gen_pair("bst", "bst", "iio", prepare=enable_memoization)
        ins = (from_int(0), from_int(10))
        calls = []
        for ctx, fn in pair:
            rng = random.Random(9)
            out = [fn(6, ins, rng) for _ in range(30)]
            calls.append((out, derive_stats(ctx).gen_calls))
        assert calls[0][1] > 30
        assert calls[0] == calls[1]


class TestFunctionalizeOnOff:
    """The functionalization pass (OP_EVALREL + cross-relation
    inlining) refines but never breaks verdicts, over the whole corpus
    (all SF chapters + case studies), under budgets and seeded fault
    schedules."""

    @pytest.mark.parametrize("module", CHAPTER_MODULES)
    def test_chapter_on_off_agree(self, module):
        ch, off = chapter(module), func_off_chapter(module)
        covered = 0
        for entry in ch.entries:
            if entry.higher_order:
                continue
            relation = ch.ctx.relations.get(entry.name)
            if not relation.is_monomorphic():
                continue
            try:
                if _func_on_off_diff(
                    ch.ctx, off.ctx, entry.name, fuels=(0, 2)
                ):
                    covered += 1
            except ReproError:
                continue
        assert covered, f"no relation in {module} was diffable"

    @pytest.mark.parametrize(
        "maker, rels",
        [
            ("bst", ("bst", "lt")),
            ("stlc", ("typing", "lookup")),
            ("ifc", ("indist_atom", "indist_list")),
        ],
    )
    def test_case_study_on_off_agree(self, maker, rels):
        import importlib

        mod = importlib.import_module(f"repro.casestudies.{maker}")
        ctx_on = mod.make_context()
        ctx_off = mod.make_context()
        disable_functionalization(ctx_off)
        for rel in rels:
            assert _func_on_off_diff(ctx_on, ctx_off, rel, fuels=(0, 2))


class TestCaseStudies:
    def test_bst_checker_and_producers(self):
        from repro.casestudies import bst

        ctx = bst.make_context()
        assert_checkers_agree(ctx, "bst")
        assert_enums_agree(ctx, "bst", "iio", fuels=(0, 2, 3))
        assert_gens_agree(ctx, "bst", "iio")

    def test_stlc_checker_and_producers(self):
        from repro.casestudies import stlc

        ctx = stlc.make_context()
        assert_checkers_agree(ctx, "typing", fuels=(0, 2))
        assert_checkers_agree(ctx, "lookup", fuels=(0, 3))
        assert_enums_agree(ctx, "typing", "iio", fuels=(0, 3))
        assert_gens_agree(ctx, "typing", "ioi")

    def test_ifc_checker_and_producers(self):
        from repro.casestudies import ifc

        ctx = ifc.make_context()
        assert_checkers_agree(ctx, "indist_atom", fuels=(0, 3))
        assert_checkers_agree(ctx, "indist_list", fuels=(0, 2))
        assert_gens_agree(ctx, "indist_list", "io")


class TestSampledGenerators:
    """Finite-by-input modes derive generators that draw from their
    enumeration; both backends share that draw and must agree."""

    def test_stlc_lookup_ioi(self, stlc_ctx):
        assert_enums_agree(stlc_ctx, "lookup", "ioi")
        assert_gens_agree(stlc_ctx, "lookup", "ioi")

    def test_le_oi(self, nat_ctx):
        assert_gens_agree(nat_ctx, "le", "oi", fuel=6)


class TestAllModesSmallRelations:
    """Every producer mode of the small fixtures, both producer kinds."""

    @pytest.mark.parametrize("mode", ["io", "oi", "oo"])
    def test_le_modes(self, nat_ctx, mode):
        assert_enums_agree(nat_ctx, "le", mode)
        assert_gens_agree(nat_ctx, "le", mode)

    def test_ev_output_mode(self, nat_ctx):
        assert_enums_agree(nat_ctx, "ev", "o")
        assert_gens_agree(nat_ctx, "ev", "o")

    @pytest.mark.parametrize("mode", ["o"])
    def test_sorted_modes(self, list_ctx, mode):
        assert_enums_agree(list_ctx, "Sorted", mode)
        assert_gens_agree(list_ctx, "Sorted", mode)

    @pytest.mark.parametrize("mode", ["io", "oi", "oo"])
    def test_innat_modes(self, list_ctx, mode):
        assert_enums_agree(list_ctx, "InNat", mode, fuels=(0, 2, 3))
        assert_gens_agree(list_ctx, "InNat", mode)

    @pytest.mark.parametrize("mode", ["iio", "ioi"])
    def test_typing_modes(self, stlc_ctx, mode):
        assert_enums_agree(stlc_ctx, "typing", mode, fuels=(0, 2))
        assert_gens_agree(stlc_ctx, "typing", mode, seeds=range(15))
