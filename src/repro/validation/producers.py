"""Translation validation of derived producers (Section 5.1/5.2).

For enumerators the obligations are discharged *exactly*: soundness of
every produced value, completeness against the reference witness set,
size-monotonicity of the outcome sets, and honesty of the fuel marker
(an enumeration without ``OUT_OF_FUEL`` must already equal the full
witness set — this is the property that lets checkers answer a
definitive ``Some false`` after a failed existential search).

Generators share their schedule with enumerators, so their possibilistic
semantics coincide by construction; we still validate them directly:
soundness on every sampled value, and statistical completeness
(coverage of small witness sets within a sample budget).
"""

from __future__ import annotations

import random

from ..core.context import Context
from ..core.terms import Var, value_to_term
from ..core.values import Value
from ..derive.instances import ENUM, GEN, Instance, resolve
from ..derive.modes import Mode
from ..derive.scheduler import required_instances
from ..producers.outcome import OUT_OF_FUEL, is_value
from ..semantics.proof_search import FlounderError, SearchConfig, derivable, solutions
from .checkers import _floundered_note, _fuel_ladder, census
from .domains import input_tuples
from .obligations import (
    DEFAULT_CONFIG,
    Certificate,
    ObligationResult,
    ValidationConfig,
)


def _full_args(
    mode: Mode, ins: tuple[Value, ...], outs: tuple[Value, ...]
) -> tuple[Value, ...]:
    args: list[Value | None] = [None] * mode.arity
    for pos, v in zip(mode.ins, ins):
        args[pos] = v
    for pos, v in zip(mode.out_list, outs):
        args[pos] = v
    assert all(a is not None for a in args)
    return tuple(args)  # type: ignore[arg-type]


def _reference_witnesses(
    ctx: Context,
    rel_name: str,
    mode: Mode,
    ins: tuple[Value, ...],
    cfg: ValidationConfig,
    limit: int = 200,
) -> list[tuple[Value, ...]] | None:
    """The set of output tuples the relation admits for these inputs
    (None when the reference search flounders)."""
    goal: list = [None] * mode.arity
    for pos, v in zip(mode.ins, ins):
        goal[pos] = value_to_term(v)
    names = []
    for pos in mode.out_list:
        name = f"__o{pos}"
        names.append(name)
        goal[pos] = Var(name)
    try:
        found = solutions(
            ctx,
            rel_name,
            tuple(goal),
            depth=cfg.ref_depth,
            cfg=SearchConfig(enum_depth=cfg.domain_depth + 2),
            limit=limit,
        )
    except FlounderError:
        return None
    return [tuple(w[n] for n in names) for w in found]


def _reference_accepts(
    ctx: Context,
    rel_name: str,
    args: tuple[Value, ...],
    cfg: ValidationConfig,
    search_cfg: SearchConfig,
) -> bool | None:
    """Does the reference search derive ``rel_name(args)`` at
    ``ref_depth`` or, failing that, twice as deep?  None when it
    flounders (it cannot refute then)."""
    try:
        return derivable(
            ctx, rel_name, args, cfg.ref_depth, search_cfg
        ) or derivable(ctx, rel_name, args, 2 * cfg.ref_depth, search_cfg)
    except FlounderError:
        return None


def _run_enum(
    instance: Instance, fuel: int, ins: tuple[Value, ...], cap: int
):
    """Collect up to *cap* outcomes; ``truncated`` means the
    enumeration was cut short (so absence of a value proves nothing)."""
    outcomes: set[tuple[Value, ...]] = set()
    exhausted = True
    truncated = False
    for item in instance.fn(fuel, ins):
        if item is OUT_OF_FUEL:
            exhausted = False
        else:
            outcomes.add(item)
            if len(outcomes) >= cap:
                truncated = True
                exhausted = False
                break
    return outcomes, exhausted, truncated


def certify_enumerator(
    ctx: Context,
    rel_name: str,
    mode: "Mode | str",
    cfg: ValidationConfig = DEFAULT_CONFIG,
    instance: Instance | None = None,
) -> Certificate:
    if isinstance(mode, str):
        mode = Mode.from_string(mode)
    if instance is None:
        instance = resolve(ctx, ENUM, rel_name, mode)
    rel = ctx.relations.get(rel_name)
    cert = Certificate(rel=rel_name, mode=str(mode), kind="enum")
    if instance.schedule is not None:
        cert.step_cases = census(instance.schedule)
        cert.dependencies = [
            (k, r, str(m) if m is not None else "i" * ctx.relations.get(r).arity)
            for k, r, m in required_instances(instance.schedule)
        ]

    domain = input_tuples(ctx, rel, mode.ins, cfg)
    fuels = _fuel_ladder(cfg.max_fuel)

    sound = ObligationResult("soundness", "proved")
    complete = ObligationResult("completeness", "proved")
    monotone = ObligationResult("size-monotonicity", "proved")
    honest = ObligationResult("fuel-marker-honesty", "proved")
    typed = ObligationResult("well-typed-outputs", "proved")
    search_cfg = SearchConfig(enum_depth=cfg.domain_depth + 2)
    floundered = 0

    for ins in domain:
        previous: set[tuple[Value, ...]] | None = None
        last_outcomes: set[tuple[Value, ...]] = set()
        last_truncated = False
        exhausted_at: int | None = None
        checked: set[tuple[Value, ...]] = set()
        for f in fuels:
            outcomes, exhausted, truncated = _run_enum(
                instance, f, ins, cfg.max_outcomes
            )
            if previous is not None and not truncated:
                monotone.cases += 1
                if not previous <= outcomes:
                    monotone.status = "refuted"
                    monotone.counterexample = (ins, f, previous - outcomes)
            previous = None if truncated else outcomes
            last_outcomes = outcomes
            last_truncated = truncated
            if exhausted and exhausted_at is None:
                exhausted_at = f
            for outs in outcomes:
                if outs in checked:
                    continue
                checked.add(outs)
                sound.cases += 1
                ok = _reference_accepts(
                    ctx, rel_name, _full_args(mode, ins, outs), cfg, search_cfg
                )
                if ok is None:
                    floundered += 1  # cannot refute
                elif not ok:
                    sound.status = "refuted"
                    sound.counterexample = (ins, outs, f)
                for v, ty in zip(outs, instance.schedule.out_types if instance.schedule else ()):
                    typed.cases += 1
                    if not ctx.datatypes.check_value(v, ty):
                        typed.status = "refuted"
                        typed.counterexample = (ins, v, ty)

        witnesses = _reference_witnesses(ctx, rel_name, mode, ins, cfg)
        if witnesses is None:
            if complete.status == "proved" and not complete.detail:
                complete.detail = "some inputs skipped (reference floundered)"
            continue
        # A value produced at fuel f has constructor depth at most
        # f + 1, so deeper reference witnesses are out of reach *by
        # construction*, not by incompleteness: restrict the obligation
        # to witnesses the fuel budget can express.
        witnesses = [
            w
            for w in witnesses
            if all(v.depth() <= cfg.max_fuel + 1 for v in w)
        ]
        missing = [o for o in witnesses if o not in last_outcomes]
        complete.cases += len(witnesses)
        if missing and last_truncated:
            # Absence from a truncated enumeration proves nothing.
            if complete.status == "proved":
                complete.status = "inconclusive"
                complete.detail = "enumeration truncated by max_outcomes"
        elif missing:
            # The obligation is ∃s — retry with a much larger fuel
            # before declaring refutation (witnesses found by the
            # reference search can simply be deep).
            bigger, _, big_trunc = _run_enum(
                instance, 4 * cfg.max_fuel, ins, 4 * cfg.max_outcomes
            )
            for outs in missing:
                if outs in bigger:
                    continue
                if big_trunc:
                    if complete.status == "proved":
                        complete.status = "inconclusive"
                        complete.detail = "retry enumeration truncated"
                else:
                    complete.status = "refuted"
                    complete.counterexample = (ins, outs, 4 * cfg.max_fuel)
        if exhausted_at is not None:
            # No fuel marker ⇒ the enumeration claims exhaustiveness:
            # every reference witness must already be present.  (Extra
            # outcomes would be a soundness failure, checked above.)
            honest.cases += 1
            reference = set(witnesses)
            if len(reference) < 200 and not reference <= last_outcomes:
                honest.status = "refuted"
                honest.counterexample = (
                    ins,
                    sorted(map(str, reference - last_outcomes))[:5],
                )

    detail = f"{len(domain)} input tuples, fuels {fuels}"
    sound.detail = detail + _floundered_note(floundered)
    for ob in (sound, complete, monotone, honest, typed):
        ob.detail = ob.detail or detail
        cert.obligations.append(ob)
    return cert


def certify_generator(
    ctx: Context,
    rel_name: str,
    mode: "Mode | str",
    cfg: ValidationConfig = DEFAULT_CONFIG,
    instance: Instance | None = None,
) -> Certificate:
    if isinstance(mode, str):
        mode = Mode.from_string(mode)
    if instance is None:
        instance = resolve(ctx, GEN, rel_name, mode)
    rel = ctx.relations.get(rel_name)
    cert = Certificate(rel=rel_name, mode=str(mode), kind="gen")
    if instance.schedule is not None:
        cert.step_cases = census(instance.schedule)

    domain = input_tuples(ctx, rel, mode.ins, cfg)
    # Sampling is slow; keep the domain tight for generators.
    domain = domain[: max(10, cfg.max_tuples // 20)]

    sound = ObligationResult("soundness", "proved")
    complete = ObligationResult("statistical-completeness", "proved")
    search_cfg = SearchConfig(enum_depth=cfg.domain_depth + 2)
    rng = random.Random(cfg.seed)
    floundered = 0

    for ins in domain:
        seen: set[tuple[Value, ...]] = set()
        for _ in range(cfg.gen_samples):
            item = instance.fn(cfg.max_fuel, ins, rng)
            if not is_value(item):
                continue
            sound.cases += 1
            seen.add(item)
            ok = _reference_accepts(
                ctx, rel_name, _full_args(mode, ins, item), cfg, search_cfg
            )
            if ok is None:
                floundered += 1  # cannot refute
            elif not ok:
                sound.status = "refuted"
                sound.counterexample = (ins, item)

        witnesses = _reference_witnesses(ctx, rel_name, mode, ins, cfg, limit=6)
        if witnesses is None or len(witnesses) >= 6:
            continue  # too many witnesses for statistical coverage
        for outs in witnesses:
            complete.cases += 1
            if outs not in seen:
                complete.status = "inconclusive"
                complete.detail = (
                    f"witness {tuple(map(str, outs))} for input "
                    f"{tuple(map(str, ins))} never sampled in "
                    f"{cfg.gen_samples} draws"
                )

    sound.detail = (
        f"{len(domain)} inputs × {cfg.gen_samples} samples"
        + _floundered_note(floundered)
    )
    complete.detail = complete.detail or "small witness sets fully covered"
    cert.obligations.append(sound)
    cert.obligations.append(complete)
    return cert
