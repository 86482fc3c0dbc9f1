"""The determinacy & functionality analysis: verdict lattice, the
acceptance verdicts on the case studies, and the golden REL007..REL009
sweep over the full corpus (verdicts must stay stable as the analysis
evolves — update the golden set deliberately, with a reason)."""

from __future__ import annotations

import importlib

import pytest

from repro.analysis import analyze_context
from repro.analysis.determinacy import (
    FINITE_KEY,
    Verdict,
    analyze_determinacy,
    finite_by_input,
    relation_verdict,
)
from repro.casestudies import bst, ifc, stlc
from repro.core import parse_declarations
from repro.stdlib import standard_context


class TestVerdictLattice:
    def test_order(self):
        assert Verdict.DET < Verdict.FUNCTIONAL < Verdict.SEMIDET < Verdict.MULTI

    def test_join_is_max(self):
        assert max(Verdict.DET, Verdict.MULTI) is Verdict.MULTI
        assert max(Verdict.FUNCTIONAL, Verdict.SEMIDET) is Verdict.SEMIDET

    def test_at_most_one(self):
        assert Verdict.DET.at_most_one
        assert Verdict.FUNCTIONAL.at_most_one
        assert not Verdict.SEMIDET.at_most_one
        assert not Verdict.MULTI.at_most_one

    def test_str(self):
        assert str(Verdict.FUNCTIONAL) == "functional"


class TestAcceptanceVerdicts:
    """The verdicts the PR promises (see ISSUE acceptance criteria)."""

    def test_stlc_typing_iio_is_functional(self):
        ctx = stlc.make_context()
        assert relation_verdict(ctx, "typing", "iio") is Verdict.FUNCTIONAL

    def test_stlc_typing_checker_is_functional(self):
        ctx = stlc.make_context()
        res = analyze_determinacy(ctx, "typing")
        assert res.verdict is Verdict.FUNCTIONAL
        # Exactly one functionalization opportunity: TApp's premise
        # 'typing' at the derived mode iio.
        sites = [(s.rule, s.rel, s.mode_str) for s in res.functional_sites]
        assert sites == [("TApp", "typing", "iio")]

    def test_bst_lt_checker_is_det(self):
        ctx = bst.make_context()
        assert relation_verdict(ctx, "lt", "ii") is Verdict.DET

    def test_bst_checker_is_det(self):
        ctx = bst.make_context()
        assert relation_verdict(ctx, "bst", "iii") is Verdict.DET

    def test_bst_lt_multi_answer_mode_is_multi(self):
        # 'insert'-style enumeration: lt at io yields every greater
        # nat, and the overlap between lt_base and lt_step is definite.
        ctx = bst.make_context()
        res = analyze_determinacy(ctx, "lt", "io")
        assert res.verdict is Verdict.MULTI
        assert res.definite_overlaps == [("lt_base", "lt_step")]

    def test_verdicts_are_cached(self):
        ctx = stlc.make_context()
        first = relation_verdict(ctx, "typing", "iio")
        assert relation_verdict(ctx, "typing", "iio") is first


#: (code, relation, mode) triples the full corpus sweep must produce —
#: with the functionalization pass at its default (on), so REL008 must
#: never appear and the corpus stays warning-free.
GOLDEN_CORPUS_FINDINGS = {
    ("REL007", "btree_size", "io"),
    ("REL007", "eval_big", "io"),
    ("REL007", "revrel", "io"),
    ("REL007", "typing", "iio"),
}


def test_corpus_determinacy_findings_are_stable():
    from repro.analysis.cli import CASE_STUDY_MODULES
    from repro.sf.registry import CHAPTER_MODULES, load_chapter

    rows = set()
    for module in CHAPTER_MODULES:
        chapter = load_chapter(module)
        for d in analyze_context(chapter.ctx):
            if d.code in ("REL007", "REL008", "REL009"):
                rows.add((d.code, d.relation, d.mode))
    for module in CASE_STUDY_MODULES:
        ctx = importlib.import_module(module).make_context()
        for d in analyze_context(ctx):
            if d.code in ("REL007", "REL008", "REL009"):
                rows.add((d.code, d.relation, d.mode))
    assert rows == GOLDEN_CORPUS_FINDINGS


# ---------------------------------------------------------------------------
# finite_by_input: which generator modes sample their enumeration
# ---------------------------------------------------------------------------

_FINITE_FIXTURES = """
Inductive le : nat -> nat -> Prop :=
| le_n : forall n, le n n
| le_S : forall n m, le n m -> le n (S m).

Inductive subseq : list nat -> list nat -> Prop :=
| sub_nil : forall l, subseq [] l
| sub_skip : forall x l1 l2, subseq l1 l2 -> subseq l1 (x :: l2)
| sub_take : forall x l1 l2, subseq l1 l2 -> subseq (x :: l1) (x :: l2).

Inductive paired : nat -> nat -> Prop :=
| paired_any : forall n m, paired n m.
"""


def _fixture_context():
    ctx = standard_context()
    parse_declarations(ctx, _FINITE_FIXTURES)
    return ctx


_CONTEXTS = {
    "stlc": stlc.make_context,
    "bst": bst.make_context,
    "ifc": ifc.make_context,
    "fixtures": _fixture_context,
}


@pytest.mark.parametrize(
    "where, rel, mode, expected",
    [
        # Answers fixed by a structurally decreasing input.
        ("stlc", "lookup", "ioi", True),
        ("fixtures", "le", "oi", True),
        ("bst", "lt", "oi", True),
        # The recursive call's input is the conclusion's bare variable.
        ("bst", "lt", "io", False),
        # Two self-calls and an infinite producer premise (lt io).
        ("bst", "bst", "iio", False),
        # ia_high instantiates its free v2.
        ("ifc", "indist_atom", "io", False),
        # The recursive handler also produces indist_atom io.
        ("ifc", "indist_list", "io", False),
        # Several recursive handlers and a type instantiation.
        ("stlc", "typing", "ioi", False),
        # Two recursive rules on the same input: exponentially many
        # subsequences.
        ("fixtures", "subseq", "oi", False),
        # An unconstrained existential output.
        ("fixtures", "paired", "io", False),
    ],
)
def test_finite_by_input_verdicts(where, rel, mode, expected):
    ctx = _CONTEXTS[where]()
    assert finite_by_input(ctx, rel, mode) is expected
    assert ctx.artifacts[FINITE_KEY][(rel, mode)] is expected


def test_finite_by_input_is_separate_from_the_lattice():
    # lookup ioi has many answers (one per matching position) yet a
    # finite set of them: 'multi' on the lattice, finite by input.
    ctx = stlc.make_context()
    assert relation_verdict(ctx, "lookup", "ioi") is Verdict.MULTI
    assert finite_by_input(ctx, "lookup", "ioi")
    assert not finite_by_input(ctx, "lookup", "iii")
