"""Determinacy & functionality analysis over scheduled rules.

The mode framework (Section 4 of the paper) already decides *which*
argument positions a derived artifact consumes and produces; this pass
decides *how many* answers it can produce.  Per ``(relation, mode)``
it computes a verdict on a four-point lattice (join = max)::

    det  ⊑  functional  ⊑  semidet  ⊑  multi

* ``det`` — at most one answer, and every scheduled rule body is
  *loop-free*: no enumeration steps at all (only pattern tests,
  equality checks, checker calls and recursive self-checks).  For
  checker modes the whole decision procedure is straight-line per
  fixpoint level.
* ``functional`` — the output slots are uniquely determined by the
  input slots (at most one answer per input tuple): rule conclusions
  are pairwise non-overlapping on the input positions, and every
  premise that binds an output is itself ``functional`` (or better) in
  the slots already known at that point.  Recursive self-premises are
  handled coinductively: the relation is *assumed* functional at the
  analyzed mode while its rules are verified under that assumption —
  sound because derivations are finite, so an actual double answer
  would have a minimal witness whose rule the verification would have
  rejected.  This is the functionalization-grade verdict consumed by
  :func:`repro.derive.plan.functionalize_plan`.
* ``semidet`` — every rule body yields at most one answer, but the
  conclusions *might* overlap on input positions (neither a rigid
  constructor mismatch proving disjointness nor a one-way match
  proving overlap): more than one rule may answer, so outputs cannot
  be claimed functional.
* ``multi`` — possibly many answers: some rule enumerates (an
  unbounded producer premise or a type instantiation), or two
  deterministic rules *definitely* overlap on input positions (the
  REL009 situation: per-rule determinism is ruined by the rule set).

Checker modes have no output slots — the "answer" is a boolean — so
``multi`` never applies there; an enumerate-then-check body caps the
verdict at ``semidet`` (a semi-decision procedure) instead.

The analysis runs over the *real* schedules
(:func:`repro.derive.scheduler.build_schedule`), so its verdicts
describe exactly the premise calls the backends will execute; the
overlap test reuses the REL003 one-way matcher discipline on
preprocessed conclusions restricted to input positions.  Verdicts are
cached per context under :data:`DETERMINACY_KEY`.

A separate property, :func:`finite_by_input`, says whether a producer
mode's answer set is finite and small for every input: no type
instantiation, every non-recursive producer premise finite by input
in turn, and at most one recursive handler, whose only producer
premise is its single self-call on a strict subterm of one input.  It
is orthogonal to the lattice (``lookup ioi`` is ``multi`` and finite);
generator derivation reads it to sample an enumeration instead of
backtracking (:mod:`repro.derive.instances`).  Answers are cached
under :data:`FINITE_KEY`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

from ..core.context import Context
from ..core.errors import ReproError
from ..core.terms import (
    Ctor,
    Term,
    Var,
    is_constructor_term,
    subst,
    var_set,
    var_set_all,
)
from ..core.unify import unify
from ..core.values import Value
from ..derive.modes import Mode
from ..derive.preprocess import preprocess_relation
from ..derive.schedule import (
    Handler,
    SCheckCall,
    SInstantiate,
    SProduce,
    SRecCheck,
    Schedule,
)
from ..derive.scheduler import build_schedule

#: ``ctx.artifacts`` slot holding the ``{(rel, mode_str): Verdict}`` memo.
DETERMINACY_KEY = "determinacy"
#: ``ctx.artifacts`` slot holding the ``{(rel, mode_str): bool}`` memo
#: of :func:`finite_by_input`.
FINITE_KEY = "finite_by_input"


class Verdict(IntEnum):
    """Answer-multiplicity lattice; ``max`` is the join."""

    DET = 0
    FUNCTIONAL = 1
    SEMIDET = 2
    MULTI = 3

    def __str__(self) -> str:  # 'det', not 'Verdict.DET' — for messages
        return self.name.lower()

    @property
    def at_most_one(self) -> bool:
        """At most one answer per input tuple?"""
        return self <= Verdict.FUNCTIONAL


# Pairwise conclusion-overlap classification (input positions only).
DISJOINT = "disjoint"  # rigid constructor mismatch at some input position
OVERLAPS = "overlaps"  # one-way match succeeded: definite overlap
POSSIBLE = "possible"  # variables block both proofs


@dataclass(frozen=True)
class ProduceSite:
    """One ``SProduce`` step: a premise executed by enumerate-then-check
    (or, when :attr:`verdict` is functional-grade, a candidate for the
    plan-level functionalization rewrite)."""

    rule: str
    rel: str
    mode_str: str
    recursive: bool
    verdict: Verdict


@dataclass
class DetResult:
    """Everything :func:`analyze_determinacy` learned about one
    ``(relation, mode)``."""

    rel: str
    mode_str: str
    verdict: Verdict
    rules: dict[str, Verdict] = field(default_factory=dict)
    overlaps: list[tuple[str, str, str]] = field(default_factory=list)
    produce_sites: list[ProduceSite] = field(default_factory=list)

    @property
    def functional_sites(self) -> list[ProduceSite]:
        """Non-recursive produce premises whose callee is proven
        functional — the functionalization opportunities (REL008 when
        the pass is off)."""
        return [
            s
            for s in self.produce_sites
            if not s.recursive and s.verdict.at_most_one
        ]

    @property
    def definite_overlaps(self) -> list[tuple[str, str]]:
        return [(a, b) for a, b, k in self.overlaps if k == OVERLAPS]


# ---------------------------------------------------------------------------
# Conclusion overlap on input positions
# ---------------------------------------------------------------------------

def _rigidly_disjoint(a: Term, b: Term) -> bool:
    """Can no instantiation make *a* and *b* equal?  True only on a
    rigid constructor/constant mismatch — a variable anywhere blocks
    the proof (conservative)."""
    if isinstance(a, Var) or isinstance(b, Var):
        return False
    if isinstance(a, Ctor) and isinstance(b, Ctor):
        if a.name != b.name or len(a.args) != len(b.args):
            return True
        return any(_rigidly_disjoint(x, y) for x, y in zip(a.args, b.args))
    if isinstance(a, Value) and isinstance(b, Value):
        return a != b
    # Fun applications (and Ctor-vs-Value shapes) are opaque here.
    return False


def _one_way_overlap(
    gen: tuple[Term, ...], spec: tuple[Term, ...]
) -> bool:
    """REL003's one-way matcher: does *gen* match every instance of
    *spec* (unification binding no *spec*-side variable)?  A success
    is a definite overlap witness."""
    env = {v: Var(f"{v}#det") for v in var_set_all(spec)}
    renamed = tuple(subst(t, env) for t in spec)
    rigid = {env[v].name for v in env}
    s: dict = {}
    for g, t in zip(gen, renamed):
        nxt = unify(g, t, s)
        if nxt is None:
            return False
        s = nxt
    return all(name not in rigid for name in s)


def _classify_overlap(ci: tuple[Term, ...], cj: tuple[Term, ...]) -> str:
    if any(_rigidly_disjoint(a, b) for a, b in zip(ci, cj)):
        return DISJOINT
    if _one_way_overlap(ci, cj) or _one_way_overlap(cj, ci):
        return OVERLAPS
    return POSSIBLE


# ---------------------------------------------------------------------------
# Per-(relation, mode) verdict with coinductive recursion
# ---------------------------------------------------------------------------

def _rule_verdict(
    ctx: Context,
    rel_name: str,
    mode: Mode,
    steps,
    pending: dict,
    used_pending: set,
    sites: "list[ProduceSite] | None",
    rule_name: str,
) -> Verdict:
    v = Verdict.DET
    for step in steps:
        if isinstance(step, (SCheckCall, SRecCheck)):
            continue  # boolean call: no bindings, no extra answers
        if isinstance(step, SInstantiate):
            v = max(v, Verdict.MULTI)  # type enumeration
        elif isinstance(step, SProduce):
            callee = _verdict(
                ctx, step.rel, step.mode, pending, used_pending
            )
            if sites is not None:
                sites.append(
                    ProduceSite(
                        rule_name,
                        step.rel,
                        str(step.mode),
                        step.recursive,
                        callee,
                    )
                )
            if callee.at_most_one:
                v = max(v, Verdict.FUNCTIONAL)  # loop draws ≤ 1 item
            else:
                v = max(v, Verdict.MULTI)
    return v


def _compute(
    ctx: Context,
    rel_name: str,
    mode: Mode,
    pending: dict,
    used_pending: set,
    result: "DetResult | None" = None,
) -> Verdict:
    relation = ctx.relations.get(rel_name)
    if relation is None:
        return Verdict.MULTI
    try:
        schedule: Schedule = build_schedule(ctx, rel_name, mode)
        pre = preprocess_relation(relation, ctx)
    except ReproError:
        return Verdict.MULTI  # unschedulable/ill-typed: assume the worst

    rule_vs: dict[str, Verdict] = {}
    sites = result.produce_sites if result is not None else None
    for handler in schedule.handlers:
        rule_vs[handler.rule] = _rule_verdict(
            ctx, rel_name, mode, handler.steps, pending, used_pending,
            sites, handler.rule,
        )
    if result is not None:
        result.rules = rule_vs

    worst_rule = max(rule_vs.values(), default=Verdict.DET)
    if mode.is_checker:
        # The answer is a boolean — never 'multi'; enumerate-then-check
        # bodies make the checker a semi-decision procedure at worst.
        return min(worst_rule, Verdict.SEMIDET)

    ins = mode.ins
    concl = {r.name: tuple(r.conclusion[i] for i in ins) for r in pre.rules}
    overlap = Verdict.DET
    for i, ri in enumerate(pre.rules):
        for rj in pre.rules[i + 1:]:
            kind = _classify_overlap(concl[ri.name], concl[rj.name])
            if result is not None and kind != DISJOINT:
                result.overlaps.append((ri.name, rj.name, kind))
            if kind == OVERLAPS:
                # Two rules answering the same inputs: even per-rule
                # determinism cannot keep the outputs functional.
                overlap = max(overlap, Verdict.MULTI)
            elif kind == POSSIBLE:
                overlap = max(overlap, Verdict.SEMIDET)
    if worst_rule >= Verdict.MULTI or overlap >= Verdict.MULTI:
        return Verdict.MULTI
    if overlap >= Verdict.SEMIDET:
        return Verdict.SEMIDET
    # Disjoint conclusions + deterministic bodies: outputs are a
    # partial function of the inputs.  Loop-free bodies on top of that
    # (no produce steps at all, not even assumed-functional recursive
    # ones) earn the full 'det'.
    return worst_rule if worst_rule == Verdict.DET else Verdict.FUNCTIONAL


def _verdict(
    ctx: Context,
    rel_name: str,
    mode: Mode,
    pending: dict,
    used_pending: set,
) -> Verdict:
    cache = ctx.artifacts.setdefault(DETERMINACY_KEY, {})
    key = (rel_name, str(mode))
    if key in cache:
        return cache[key]
    if key in pending:
        # Coinductive assumption for in-progress relations (recursive
        # and mutually recursive produce premises).
        used_pending.add(key)
        return pending[key]
    pending[key] = Verdict.DET
    used_here: set = set()
    while True:
        used_here.clear()
        v = _compute(ctx, rel_name, mode, pending, used_here)
        if v == pending[key] or key not in used_here:
            break
        pending[key] = v  # assumption raised; re-verify under it
    del pending[key]
    used_pending |= used_here - {key}
    if not (used_here - {key}) or not pending:
        # Safe to memoize: the verdict depended on no *other* relation
        # still being computed under an unsettled assumption.
        cache[key] = v
    return v


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

def relation_verdict(ctx: Context, rel_name: str, mode: "Mode | str") -> Verdict:
    """The determinacy verdict for ``(rel_name, mode)`` (cached)."""
    rel = ctx.relations.get(rel_name)
    if rel is None:
        return Verdict.MULTI
    mode_obj = mode if isinstance(mode, Mode) else Mode.for_relation(rel, mode)
    return _verdict(ctx, rel_name, mode_obj, {}, set())


def analyze_determinacy(
    ctx: Context, rel_name: str, mode: "Mode | str | None" = None
) -> DetResult:
    """Full determinacy analysis for ``(rel_name, mode)``: the relation
    verdict plus per-rule verdicts, the conclusion-overlap table and
    every produce site (``mode=None`` analyzes the checker mode)."""
    rel = ctx.relations.get(rel_name)
    if rel is None:
        return DetResult(rel_name, str(mode or ""), Verdict.MULTI)
    if mode is None:
        mode_obj = Mode.checker(rel.arity)
    elif isinstance(mode, Mode):
        mode_obj = mode
    else:
        mode_obj = Mode.for_relation(rel, mode)
    result = DetResult(rel_name, str(mode_obj), Verdict.MULTI)
    pending: dict = {}
    # Seed the coinductive assumption for the analyzed pair itself so
    # the instrumented _compute below observes recursion the same way
    # _verdict would, then reconcile with the cached fixpoint verdict.
    result.verdict = _verdict(ctx, rel_name, mode_obj, pending, set())
    pending[(rel_name, str(mode_obj))] = result.verdict
    _compute(ctx, rel_name, mode_obj, pending, set(), result)
    return result


# ---------------------------------------------------------------------------
# Finite by input
# ---------------------------------------------------------------------------

def _decreasing(handler: Handler, call: SProduce) -> bool:
    """Does the self-call *call* pass, at some input position, a
    variable the conclusion binds strictly inside a constructor pattern
    at that same position?  (Its inputs and the handler's patterns are
    both in mode-input order, since the call is at the same mode.)"""
    for arg, pattern in zip(call.in_args, handler.in_patterns):
        if (
            isinstance(arg, Var)
            and isinstance(pattern, Ctor)
            and is_constructor_term(pattern)
            and arg.name in var_set(pattern)
        ):
            return True
    return False


def _finite(ctx: Context, rel_name: str, mode: Mode, pending: set) -> bool:
    cache = ctx.artifacts.setdefault(FINITE_KEY, {})
    key = (rel_name, str(mode))
    if key in cache:
        return cache[key]
    if key in pending:
        # A dependency cycle through non-recursive premises: resolution
        # rejects those anyway, so refusing here is only conservative.
        return False
    try:
        schedule = build_schedule(ctx, rel_name, mode)
    except ReproError:
        return False
    pending.add(key)
    try:
        result = _finite_schedule(ctx, schedule, pending)
    finally:
        pending.discard(key)
    cache[key] = result
    return result


def _finite_schedule(ctx: Context, schedule: Schedule, pending: set) -> bool:
    recursive_handlers = 0
    for handler in schedule.handlers:
        produces = []
        for step in handler.steps:
            if isinstance(step, SInstantiate):
                return False
            if isinstance(step, SProduce):
                produces.append(step)
        if any(step.recursive for step in produces):
            recursive_handlers += 1
            if recursive_handlers > 1 or len(produces) != 1:
                return False
            if not _decreasing(handler, produces[0]):
                return False
        elif not all(
            _finite(ctx, step.rel, step.mode, pending) for step in produces
        ):
            return False
    return True


def finite_by_input(ctx: Context, rel_name: str, mode: "Mode | str") -> bool:
    """Is every answer set of the producer mode ``(rel_name, mode)``
    finite, and bounded linearly in the size of one input?  (Cached.)

    Holds when the real schedule has no ``SInstantiate`` step, every
    non-recursive producer premise is itself finite by input, at most
    one handler makes a recursive producer call, and that handler's
    only producer premise is its single self-call, which passes a
    variable bound strictly inside the conclusion's constructor pattern
    at the same input position.  Every level of the fixpoint then adds
    the finitely many answers of its non-recursive handlers and makes
    one self-call on a strictly smaller input, so the enumeration at
    any fuel has at most (size of that input + 1) × (answers of one
    level's base handlers) items.  Checker modes never qualify.
    """
    rel = ctx.relations.get(rel_name)
    if rel is None:
        return False
    mode_obj = mode if isinstance(mode, Mode) else Mode.for_relation(rel, mode)
    if mode_obj.is_checker:
        return False
    return _finite(ctx, rel_name, mode_obj, set())
