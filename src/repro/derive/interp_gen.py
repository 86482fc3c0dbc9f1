"""Generator backend: the ``G (option A)`` instantiation of a derived
program.

Public surface only — :class:`DerivedGenerator` lowers its schedule to
a :class:`~repro.derive.plan.Plan` once and delegates to the shared
executor (:func:`repro.derive.exec_core.run_gen`).  Compared to the
enumerator instantiation:

* ``enumerating``  →  QuickChick-style ``backtrack`` over handlers
  (weighted random choice, discarding failed options);
* the recursive calls draw randomly instead of enumerating;
* existential instantiation uses the unconstrained random generator.

A run returns one output tuple, or :data:`FAIL` (no derivation found
down the sampled path and every alternative definitively failed), or
:data:`OUT_OF_FUEL` (some alternative ran out of fuel — retrying with
a larger size may succeed).

Modes whose answers are finite by input are derived as a
:class:`SampledGenerator` instead: one uniform draw from the mode's
complete enumeration, which costs linear work where backtracking
search re-explores the same small answer set at every retry.
"""

from __future__ import annotations

import random
from typing import Any

from ..core.context import Context
from ..core.values import Value
from ..producers.outcome import FAIL, OUT_OF_FUEL, is_value
from .exec_core import run_gen
from .plan import Plan, lower_schedule
from .schedule import Schedule
from .trace import BUDGET_KEY


class _GeneratorSurface:
    """The public generator surface, built on the internal calling
    convention ``gen_st(fuel, ins, rng)`` each subclass supplies."""

    def gen_st(
        self, fuel: int, ins: tuple[Value, ...], rng: random.Random
    ) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(
        self, fuel: int, *ins: Value, rng: random.Random | None = None
    ) -> Any:
        return self.gen_st(fuel, tuple(ins), rng or random.Random())

    def samples(
        self,
        fuel: int,
        *ins: Value,
        count: int = 100,
        seed: int | None = None,
    ) -> list[tuple[Value, ...]]:
        """Draw until *count* proper outputs were produced (markers
        dropped); gives up after ``20 * count`` attempts."""
        rng = random.Random(seed)
        ins = tuple(ins)
        out: list[tuple[Value, ...]] = []
        attempts = 0
        while len(out) < count and attempts < 20 * count:
            attempts += 1
            x = self.gen_st(fuel, ins, rng)
            if is_value(x):
                out.append(x)
        return out


class DerivedGenerator(_GeneratorSurface):
    """A derived constrained generator for ``(rel, mode)``.

    Calling convention: ``gen(fuel, *in_args, rng=...)`` returns one
    output tuple, or ``FAIL`` / ``OUT_OF_FUEL``.
    """

    def __init__(
        self, ctx: Context, schedule: Schedule, retries_per_handler: int = 2
    ) -> None:
        if schedule.mode.is_checker:
            raise ValueError("DerivedGenerator needs a producer-mode schedule")
        self.ctx = ctx
        self.schedule = schedule
        self.retries = retries_per_handler
        self._plan = lower_schedule(ctx, schedule)

    @property
    def plan(self) -> Plan:
        """The lowered program this generator executes."""
        return self._plan

    def gen_st(
        self, fuel: int, ins: tuple[Value, ...], rng: random.Random
    ) -> Any:
        """Internal calling convention (used by instance resolution)."""
        return run_gen(self.ctx, self._plan, fuel, fuel, ins, rng, self.retries)

    def rec(
        self,
        size: int,
        top_size: int,
        ins: tuple[Value, ...],
        rng: random.Random,
    ) -> Any:
        """One level of the derived fixpoint."""
        return run_gen(
            self.ctx, self._plan, size, top_size, ins, rng, self.retries
        )


class SampledGenerator(_GeneratorSurface):
    """A derived generator for a mode whose answers are finite by input
    (:func:`repro.analysis.determinacy.finite_by_input`): one uniform
    draw from the complete answer list of the mode's enumerator at the
    given fuel, in place of backtracking search.

    *enum* is the resolved enumerator instance on either backend; its
    ``fn`` is read per call, so memo wrapping installed later applies.
    The support at every fuel equals the backtracking generator's, and
    the budget, trace and observation hooks are the enumerator's own.
    A draw is ``FAIL`` when the enumeration is complete and empty, and
    ``OUT_OF_FUEL`` when it is empty with a fuel marker or was cut
    short by the budget.
    """

    def __init__(self, ctx: Context, schedule: Schedule, enum) -> None:
        self.ctx = ctx
        self.schedule = schedule
        self.rel = schedule.rel
        self.mode = schedule.mode
        self.enum = enum

    def gen_st(
        self, fuel: int, ins: tuple[Value, ...], rng: random.Random
    ) -> Any:
        bud = self.ctx.caches.get(BUDGET_KEY)
        taints = bud.taints if bud is not None else 0
        answers = []
        saw_fuel = False
        for item in self.enum.fn(fuel, ins):
            if is_value(item):
                answers.append(item)
            elif item is OUT_OF_FUEL:
                saw_fuel = True
        if bud is not None and bud.taints != taints:
            return OUT_OF_FUEL
        if not answers:
            return OUT_OF_FUEL if saw_fuel else FAIL
        return answers[rng.randrange(len(answers))]

    def __repr__(self) -> str:
        return f"SampledGenerator({self.rel!r}, {self.mode})"


class HandwrittenGenerator(_GeneratorSurface):
    """Public wrapper around a registered handwritten generator.

    ``derive_generator`` hands this back when resolution finds a
    user-supplied ``GenSizedSuchThat`` instance: all calls delegate to
    the live ``instance.fn`` while presenting the
    :class:`DerivedGenerator` public surface.
    """

    def __init__(self, ctx: Context, instance) -> None:
        self.ctx = ctx
        self.instance = instance
        self.rel = instance.rel
        self.mode = instance.mode
        # Registry key (interp backend): re-read per call so that
        # register(..., replace=True) takes effect on live wrappers.
        self._key = (instance.kind, instance.rel, str(instance.mode))

    def gen_st(
        self, fuel: int, ins: tuple[Value, ...], rng: random.Random
    ) -> Any:
        live = self.ctx.instances.get(self._key)
        return (live or self.instance).fn(fuel, tuple(ins), rng)

    def __repr__(self) -> str:
        return f"HandwrittenGenerator({self.rel!r}, {self.mode})"


def make_generator(ctx: Context, schedule: Schedule):
    """Build the internal-convention callable for the registry."""
    gen = DerivedGenerator(ctx, schedule)
    return gen.gen_st
