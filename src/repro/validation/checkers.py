"""Translation validation of derived checkers (Sections 5.2.1–5.2.2).

``certify_checker`` discharges, for one checker instance, the four
checker obligations of Section 5.1 against the reference proof search.
The fuel ladder doubles up to ``max_fuel``, so monotonicity is checked
along real chains and the ∃-fuel searches of completeness terminate.

The structural walk of the Ltac2 scripts — case analysis on pattern
matching, checker matching (plain and negated), recursive calls, and
enumeration — appears here as the ``step_cases`` census over the
schedule: every construct kind the proof scripts must handle is
recorded, and any unknown construct fails certification outright.
"""

from __future__ import annotations

from ..core.context import Context
from ..semantics.proof_search import FlounderError, SearchConfig, derivable
from ..derive.instances import CHECKER, Instance, resolve_checker
from ..derive.schedule import (
    SAssign,
    SCheckCall,
    SEqCheck,
    SInstantiate,
    SMatch,
    SProduce,
    SRecCheck,
    Schedule,
)
from ..derive.scheduler import required_instances
from .domains import argument_tuples
from .obligations import (
    DEFAULT_CONFIG,
    Certificate,
    ObligationResult,
    ValidationConfig,
)

_STEP_NAMES = {
    SCheckCall: "checker-matching",
    SRecCheck: "recursive-call",
    SEqCheck: "equality-check",
    SAssign: "assignment",
    SMatch: "pattern-matching",
    SProduce: "enumeration",
    SInstantiate: "instantiation",
}


def census(schedule: Schedule) -> dict[str, int]:
    """Count schedule constructs by proof-case kind (and split the
    negated checker-matching case out, as Section 5.2 does)."""
    counts: dict[str, int] = {"top-level-match": len(schedule.handlers)}
    for handler in schedule.handlers:
        for step in handler.steps:
            name = _STEP_NAMES[type(step)]
            if isinstance(step, SCheckCall) and step.negated:
                name = "checker-matching-negated"
            counts[name] = counts.get(name, 0) + 1
    return counts


def _fuel_ladder(max_fuel: int) -> list[int]:
    fuels = [0, 1]
    f = 2
    while f < max_fuel:
        fuels.append(f)
        f *= 2
    fuels.append(max_fuel)
    return fuels


def certify_checker(
    ctx: Context,
    rel_name: str,
    cfg: ValidationConfig = DEFAULT_CONFIG,
    instance: Instance | None = None,
) -> Certificate:
    """Validate a checker for *rel_name* (deriving it if necessary)."""
    if instance is None:
        instance = resolve_checker(ctx, rel_name)
    rel = ctx.relations.get(rel_name)
    cert = Certificate(rel=rel_name, mode="i" * rel.arity, kind="checker")
    if instance.schedule is not None:
        cert.step_cases = census(instance.schedule)
        cert.dependencies = [
            (k, r, str(m) if m is not None else "i" * ctx.relations.get(r).arity)
            for k, r, m in required_instances(instance.schedule)
        ]

    domain = argument_tuples(ctx, rel, cfg)
    fuels = _fuel_ladder(cfg.max_fuel)
    search_cfg = SearchConfig(enum_depth=cfg.domain_depth + 2)

    sound = ObligationResult("soundness", "proved")
    complete = ObligationResult("completeness", "proved")
    monotone = ObligationResult("monotonicity", "proved")
    neg_sound = ObligationResult("negation-soundness", "proved")

    skipped = 0  # reference floundered on the tuple itself
    floundered = 0  # reference floundered re-checking a claimed true
    for args in domain:
        try:
            truth = derivable(ctx, rel_name, args, cfg.ref_depth, search_cfg)
        except FlounderError:  # node budget / floundering: skip tuple
            skipped += 1
            continue
        results = [instance.fn(f, args) for f in fuels]

        decided = None
        for f, r in zip(fuels, results):
            if decided is not None and not r.is_none and r is not decided:
                monotone.status = "refuted"
                monotone.counterexample = (args, f, decided, r)
            if decided is None and not r.is_none:
                decided = r
            if r.is_true:
                sound.cases += 1
                if not truth:
                    try:
                        deeper = derivable(
                            ctx, rel_name, args, 2 * cfg.ref_depth, search_cfg
                        )
                    except FlounderError:
                        floundered += 1
                        deeper = True  # cannot refute
                    if not deeper:
                        sound.status = "refuted"
                        sound.counterexample = (args, f)
            if r.is_false:
                neg_sound.cases += 1
                if truth:
                    neg_sound.status = "refuted"
                    neg_sound.counterexample = (args, f)
            monotone.cases += 1

        if truth:
            complete.cases += 1
            if not any(r.is_true for r in results):
                # ∃-fuel obligation: retry once with much more fuel
                # before declaring refutation.
                if not instance.fn(4 * cfg.max_fuel, args).is_true:
                    complete.status = "refuted"
                    complete.counterexample = (args, 4 * cfg.max_fuel)

    detail = f"{len(domain)} argument tuples, fuels {fuels}"
    if skipped:
        detail += f" ({skipped} skipped: reference floundered)"
    for ob in (sound, complete, monotone, neg_sound):
        ob.detail = detail
        cert.obligations.append(ob)
    sound.detail += _floundered_note(floundered)
    return cert


def _floundered_note(count: int) -> str:
    """The detail suffix counting reference searches that floundered
    (they cannot refute, so the obligation stands without them)."""
    return f"; reference floundered on {count} case(s)" if count else ""
