"""Tests for the reference proof-search semantics."""

import pytest

from repro.core import parse_declarations
from repro.core.terms import Var, value_to_term
from repro.core.values import from_int, nat_list
from repro.semantics import (
    FlounderError,
    SearchConfig,
    check_derivation,
    derivable,
    search_derivation,
    solutions,
)


class TestGroundQueries:
    def test_le(self, nat_ctx):
        assert derivable(nat_ctx, "le", (from_int(2), from_int(5)), 10)
        assert not derivable(nat_ctx, "le", (from_int(5), from_int(2)), 10)

    def test_le_reflexive(self, nat_ctx):
        for n in range(5):
            assert derivable(nat_ctx, "le", (from_int(n), from_int(n)), 2)

    def test_depth_bound_respected(self, nat_ctx):
        # le 0 5 needs 6 rule applications.
        assert not derivable(nat_ctx, "le", (from_int(0), from_int(5)), 3)
        assert derivable(nat_ctx, "le", (from_int(0), from_int(5)), 6)

    def test_ev(self, nat_ctx):
        assert derivable(nat_ctx, "ev", (from_int(8),), 10)
        assert not derivable(nat_ctx, "ev", (from_int(7),), 10)

    def test_square_of_function_calls(self, nat_ctx):
        assert derivable(nat_ctx, "square_of", (from_int(4), from_int(16)), 3)
        assert not derivable(nat_ctx, "square_of", (from_int(4), from_int(15)), 3)

    def test_sorted(self, list_ctx):
        assert derivable(list_ctx, "Sorted", (nat_list([]),), 3)
        assert derivable(list_ctx, "Sorted", (nat_list([1, 1, 2]),), 10)
        assert not derivable(list_ctx, "Sorted", (nat_list([2, 1]),), 10)

    def test_memoization_consistent(self, nat_ctx):
        args = (from_int(3), from_int(7))
        assert derivable(nat_ctx, "le", args, 10)
        assert derivable(nat_ctx, "le", args, 10)  # memo hit
        assert derivable(nat_ctx, "le", args, 12)  # monotone fast path


class TestOpenGoals:
    def test_enumerate_smaller(self, nat_ctx):
        sols = solutions(
            nat_ctx, "le", (Var("x"), value_to_term(from_int(3))), 10
        )
        xs = sorted((s["x"] for s in sols), key=str)
        assert len(xs) == 4

    def test_inversion_through_functions(self, nat_ctx):
        """square_of ? 16 needs generate-and-test."""
        sols = solutions(
            nat_ctx, "square_of", (Var("x"), value_to_term(from_int(16))), 4
        )
        assert [s["x"] for s in sols] == [from_int(4)]

    def test_no_solutions(self, nat_ctx):
        sols = solutions(
            nat_ctx, "square_of", (Var("x"), value_to_term(from_int(17))), 4
        )
        assert sols == []

    def test_limit_respected(self, nat_ctx):
        sols = solutions(
            nat_ctx, "le", (value_to_term(from_int(0)), Var("y")), 8, limit=3
        )
        assert len(sols) == 3

    def test_fully_open_goal(self, nat_ctx):
        sols = solutions(nat_ctx, "ev", (Var("n"),), 4)
        ns = {str(s["n"]) for s in sols}
        assert {"0", "2", "4"} <= ns | {"6"}


class TestDerivationTrees:
    def test_tree_checks(self, list_ctx):
        args = (nat_list([0, 1, 2]),)
        tree = search_derivation(list_ctx, "Sorted", args, 12)
        assert tree is not None
        assert check_derivation(list_ctx, tree, args)

    def test_tree_size_grows_with_list(self, list_ctx):
        small = search_derivation(list_ctx, "Sorted", (nat_list([1]),), 12)
        large = search_derivation(list_ctx, "Sorted", (nat_list([1, 1, 1, 1]),), 12)
        assert large.size() > small.size()

    def test_unprovable_gives_none(self, list_ctx):
        assert search_derivation(list_ctx, "Sorted", (nat_list([9, 1]),), 12) is None

    def test_height_within_budget(self, nat_ctx):
        tree = search_derivation(nat_ctx, "le", (from_int(0), from_int(4)), 10)
        assert tree.height() <= 10


class TestNonterminatingRelation:
    """The paper's `zero` predicate (Section 5.1): derivable only at 0."""

    def test_zero_holds_on_zero(self, zero_ctx):
        assert derivable(zero_ctx, "zero", (from_int(0),), 4)

    def test_zero_never_holds_elsewhere(self, zero_ctx):
        # NonZero keeps demanding zero (S n): no finite derivation.
        for depth in (4, 8, 16):
            assert not derivable(zero_ctx, "zero", (from_int(3),), depth)


class TestNodeBudget:
    def test_generate_and_test_candidates_are_charged(self, ctx):
        # pal_app's conclusion calls app, so [0; 2; 0] sends the search
        # into a generate-and-test fallback nested under recursion.  Its
        # candidates hit memoized ground sub-goals and apply no rules,
        # so only charging each candidate keeps the query bounded.
        parse_declarations(
            ctx,
            """
            Inductive pal : list nat -> Prop :=
            | pal_nil : pal []
            | pal_one : forall x, pal [x]
            | pal_app : forall l x, pal l -> pal (x :: l ++ [x]).
            """,
        )
        with pytest.raises(FlounderError):
            derivable(
                ctx, "pal", (nat_list([0, 2, 0]),), 10,
                SearchConfig(enum_depth=5, max_nodes=300),
            )


class TestNegation:
    def test_negated_premise(self, ctx):
        parse_declarations(
            ctx,
            """
            Inductive isz : nat -> Prop := | isz0 : isz 0.
            Inductive notz : nat -> Prop :=
            | nz : forall n, ~ isz n -> notz n.
            """,
        )
        assert derivable(ctx, "notz", (from_int(3),), 5)
        assert not derivable(ctx, "notz", (from_int(0),), 5)
