"""Plan IR: the lowered, executable form of a :class:`Schedule`.

A :class:`Schedule` is the paper-shaped program — one
:class:`~repro.derive.schedule.Handler` per rule, steps mirroring the
constructs of Figures 1 and 2 — and stays the source of truth that
``repro.validation`` certificates and ``repro.analysis`` walk.  But it
is a poor *execution* format: every interpreter step re-dispatched on
the step's class, environments were per-handler ``dict``\\ s copied at
each enumeration item, and every call tried every handler.

Lowering turns each schedule, once, into a :class:`Plan`:

* **Slot environments.**  Every rule variable (and every intermediate
  scrutinee) is resolved at lowering time to an integer index into a
  flat environment list.  Slots are single-assignment along any
  execution path (the scheduler's known-variable discipline guarantees
  def-before-use), so backtracking over enumeration items can reuse one
  environment in place — no dict, no copies.

* **Straightline ops.**  Steps and nested patterns flatten into tuples
  with integer opcodes (`OP_EVAL`, `OP_TESTCTOR`, ...), so the
  executor's hot loop is integer compares over tuples instead of
  ``isinstance`` chains over dataclasses.  External calls carry their
  registry key, precomputed, so the common case is one dict lookup.

* **Handler dispatch index.**  Handlers whose conclusion pattern at
  some input position has a constructor head can only match values
  built with that constructor.  The plan picks the most discriminating
  input position and builds ``ctor -> (candidate handlers...)`` tables
  (plus a default for values whose head constructor appears in no
  pattern), preserving the original handler order.  A call then
  attempts only the candidates; the filtered handlers are exactly
  those whose input match would have failed, so checker/enumerator
  semantics are unchanged and the enumeration order is preserved.

All four backends consume this IR: the three interpreters execute it
through :mod:`repro.derive.exec_core`, and :mod:`repro.derive.codegen`
emits Python source from it — one lowering, no drift.
"""

from __future__ import annotations

import os
from typing import Any, Iterable

from ..core.context import Context
from ..core.errors import EvaluationError
from ..core.terms import Ctor, Fun, Term, Var, term_to_value
from ..core.values import Value
from .modes import Mode
from .schedule import (
    SAssign,
    SCheckCall,
    SEqCheck,
    SInstantiate,
    SMatch,
    SProduce,
    SRecCheck,
    Schedule,
)

PLANS_KEY = "plans"

# -- expressions -------------------------------------------------------------
#
# Tagged tuples; the tag is the first element.
#   (X_SLOT, slot)                  read a slot
#   (X_CONST, value)                ground constructor term, interned Value
#   (X_CTOR, name, (exprs...))      build Value(name, args)
#   (X_FUN, impl, (exprs...), name) call a declared function's impl

X_SLOT = 0
X_CONST = 1
X_CTOR = 2
X_FUN = 3

# -- ops ---------------------------------------------------------------------
#
#   (OP_EVAL, dst, expr)                       env[dst] = eval(expr)
#   (OP_TESTCTOR, src, ctor, (dsts...))        fail unless env[src].ctor is
#                                              ctor; project args into dsts
#   (OP_TESTCONST, src, value)                 fail unless env[src] == value
#   (OP_TESTEQ, ea, eb, negated)               fail when (ea == eb) == negated
#   (OP_CHECK, key, (exprs...), negated, rel)  external checker call; key is
#                                              the interp registry key
#   (OP_RECCHECK, (exprs...), rel|None)        recursive checker call (group
#                                              sibling when rel is not None)
#   (OP_PRODUCE, enum_key, gen_key, (ins...), (dsts...), recursive, rel, mode)
#                                              producer call binding outputs
#   (OP_INSTANTIATE, dst, ty)                  unconstrained producer for ty

OP_EVAL = 0
OP_TESTCTOR = 1
OP_TESTCONST = 2
OP_TESTEQ = 3
OP_CHECK = 4
OP_RECCHECK = 5
OP_PRODUCE = 6
OP_INSTANTIATE = 7
# Functionalized producer call: same operand shape as OP_PRODUCE, but
# the premise relation is proven functional at the called mode
# (repro.analysis.determinacy), so the drivers commit to the first
# definite answer instead of looping enumerate-then-check — a failure
# of the continuation is a definite failure of the handler, because no
# other answer exists.
OP_EVALREL = 8

_OP_NAMES = (
    "eval",
    "testctor",
    "testconst",
    "testeq",
    "check",
    "reccheck",
    "produce",
    "instantiate",
    "evalrel",
)


class PlanHandler:
    """One lowered handler: straightline ops over a slot environment."""

    __slots__ = (
        "rule",
        "index",
        "recursive",
        "ops",
        "out_exprs",
        "n_ins",
        "n_slots",
        "tail",
        "cost",
        "key3",
        "key_checker",
        "key_enum",
        "key_gen",
        "head_ctors",
    )

    def __init__(
        self,
        rule: str,
        index: int,
        recursive: bool,
        ops: tuple,
        out_exprs: tuple,
        n_ins: int,
        n_slots: int,
        key3: tuple,
        head_ctors: tuple,
    ) -> None:
        self.rule = rule
        self.index = index
        self.recursive = recursive
        self.ops = ops
        self.out_exprs = out_exprs
        self.n_ins = n_ins
        self.n_slots = n_slots
        # Padding appended to the input values to size the environment.
        self.tail = (None,) * (n_slots - n_ins)
        # Budget charge per attempt of this handler (one entry plus one
        # unit per op) — a static proxy for straightline work, shared by
        # the interpreters and the compiled twins so fault schedules
        # keyed on charge indices replay identically on both.
        self.cost = 1 + len(ops)
        # (rel, mode_str, rule): the profiling key, shared by backends.
        self.key3 = key3
        # Backend pre-merged profiling keys: the trace hot path does a
        # single dict lookup per attempt with no tuple allocation (a
        # checker-mode plan only ever uses key_checker; a producer-mode
        # plan serves both the enum and the gen driver).
        self.key_checker = ("checker",) + key3
        self.key_enum = ("enum",) + key3
        self.key_gen = ("gen",) + key3
        # Per input position: the constructor name required of the
        # value there, or None when any value can match (variable or
        # function-free head).  Drives the dispatch index.
        self.head_ctors = head_ctors

    def describe(self) -> str:
        lines = [
            f"plan-handler {self.rule}"
            f"{' (recursive)' if self.recursive else ''} "
            f"[slots={self.n_slots}, ins={self.n_ins}]:"
        ]
        for op in self.ops:
            lines.append(f"  {_OP_NAMES[op[0]]} {_op_operands(op)}")
        lines.append(
            "  ret (" + ", ".join(_expr_str(e) for e in self.out_exprs) + ")"
            if self.out_exprs
            else "  ret true"
        )
        return "\n".join(lines)


class Plan:
    """The lowered program for ``(relation, mode)``, all backends."""

    __slots__ = (
        "rel",
        "mode",
        "mode_str",
        "n_ins",
        "handlers",
        "base",
        "has_recursive",
        "out_types",
        "schedule",
        "algorithm",
        "dispatch_pos",
        "full_table",
        "full_default",
        "base_table",
        "base_default",
    )

    def __init__(self, schedule: Schedule, handlers: tuple) -> None:
        self.rel = schedule.rel
        self.mode = schedule.mode
        self.mode_str = str(schedule.mode)
        self.n_ins = len(schedule.mode.ins)
        self.handlers = handlers
        self.base = tuple(h for h in handlers if not h.recursive)
        self.has_recursive = any(h.recursive for h in handlers)
        self.out_types = schedule.out_types
        self.schedule = schedule
        self.algorithm = getattr(schedule, "algorithm", "full")
        self._build_dispatch()

    # -- dispatch index ------------------------------------------------------

    def _build_dispatch(self) -> None:
        """Pick the most discriminating input position and build the
        ``ctor -> candidates`` tables (full set and base-only set)."""
        best_pos, best_count = -1, 0
        for p in range(self.n_ins):
            count = sum(
                1 for h in self.handlers if h.head_ctors[p] is not None
            )
            if count > best_count:
                best_pos, best_count = p, count
        self.dispatch_pos = best_pos
        if best_pos < 0:
            # No constructor head anywhere: every call tries all
            # handlers (the tables stay empty and unused).
            self.full_table = {}
            self.full_default = self.handlers
            self.base_table = {}
            self.base_default = self.base
            return
        self.full_table, self.full_default = _dispatch_table(
            self.handlers, best_pos
        )
        self.base_table, self.base_default = _dispatch_table(
            self.base, best_pos
        )

    def candidates(self, args: tuple) -> tuple:
        """Handlers that can match *args* (all-handlers set)."""
        p = self.dispatch_pos
        if p < 0:
            return self.full_default
        return self.full_table.get(args[p].ctor, self.full_default)

    def base_candidates(self, args: tuple) -> tuple:
        """Handlers that can match *args*, base (non-recursive) only."""
        p = self.dispatch_pos
        if p < 0:
            return self.base_default
        return self.base_table.get(args[p].ctor, self.base_default)

    def describe(self) -> str:
        kind = "checker" if self.mode.is_checker else "producer"
        lines = [
            f"plan for {self.rel} [{self.mode_str}] ({kind}, "
            f"algorithm={self.algorithm}, dispatch_pos={self.dispatch_pos}):"
        ]
        if self.dispatch_pos >= 0:
            for ctor, hs in sorted(self.full_table.items()):
                lines.append(
                    f"  dispatch {ctor} -> ({', '.join(h.rule for h in hs)})"
                )
            lines.append(
                "  dispatch * -> ("
                + ", ".join(h.rule for h in self.full_default)
                + ")"
            )
        for h in self.handlers:
            lines.append(_indent(h.describe()))
        return "\n".join(lines)


def _dispatch_table(handlers: tuple, pos: int):
    """``ctor -> candidate tuple`` preserving handler order.  A handler
    with a variable head at *pos* belongs to every bucket (it can match
    anything); the default bucket holds exactly those."""
    ctors = []
    for h in handlers:
        head = h.head_ctors[pos]
        if head is not None and head not in ctors:
            ctors.append(head)
    table = {
        ctor: tuple(
            h
            for h in handlers
            if h.head_ctors[pos] is None or h.head_ctors[pos] == ctor
        )
        for ctor in ctors
    }
    default = tuple(h for h in handlers if h.head_ctors[pos] is None)
    return table, default


# ---------------------------------------------------------------------------
# Lowering.
# ---------------------------------------------------------------------------


class _Lowerer:
    """Per-handler lowering state: the variable -> slot map and the op
    accumulator."""

    def __init__(self, ctx: Context, schedule: Schedule) -> None:
        self.ctx = ctx
        self.schedule = schedule
        self.slots: dict[str, int] = {}
        self.n_slots = len(schedule.mode.ins)
        self.ops: list[tuple] = []
        self._consts: dict[Value, tuple] = {}

    def fresh(self) -> int:
        slot = self.n_slots
        self.n_slots += 1
        return slot

    def bind(self, var: str) -> int:
        # Re-binding shadows: the name maps to a fresh slot and later
        # reads see the new value.  This matches the historical
        # dict-environment semantics (assignment overwrote), which the
        # scheduler relies on for duplicated producer binds (a
        # non-linear premise like ``P x x`` at mode ``oo`` binds ``x``
        # once per output position, last occurrence winning).
        slot = self.slots[var] = self.fresh()
        return slot

    # -- expressions ---------------------------------------------------------

    def const(self, value: Value) -> tuple:
        interned = self._consts.get(value)
        if interned is None:
            # Hash-cons the ground value process-wide (deferred import:
            # specialize imports plan for the opcode constants), so the
            # same constant in any plan is one object and ``is``
            # fast-paths in ``Value.__eq__`` fire across backends.
            from .specialize import intern_value

            interned = self._consts[value] = (X_CONST, intern_value(value))
        return interned

    def expr(self, t: Term) -> tuple:
        if isinstance(t, Var):
            try:
                return (X_SLOT, self.slots[t.name])
            except KeyError:
                raise EvaluationError(
                    f"schedule bug: variable {t.name!r} unbound at runtime"
                ) from None
        if _is_ground_ctor(t):
            return self.const(term_to_value(t))
        args = tuple(self.expr(a) for a in t.args)
        if isinstance(t, Ctor):
            return (X_CTOR, t.name, args)
        return (X_FUN, self.ctx.functions.require(t.name).impl, args, t.name)

    # -- pattern matching ----------------------------------------------------

    def match(self, src: int, pattern: Term, binds: frozenset) -> None:
        """Lower a match of slot *src* against *pattern*; variables in
        *binds* not yet bound become slot aliases / projections, all
        other pattern parts become equality tests."""
        if isinstance(pattern, Var):
            name = pattern.name
            if name in binds and name not in self.slots:
                self.slots[name] = src  # alias, no op needed
                return
            if name not in self.slots:
                raise EvaluationError(
                    f"schedule bug: pattern variable {name!r} neither "
                    "bound nor binding"
                )
            self.ops.append(
                (OP_TESTEQ, (X_SLOT, self.slots[name]), (X_SLOT, src), False)
            )
            return
        if isinstance(pattern, Fun):
            # All variables under a function call are known by
            # construction (the scheduler instantiates blocked
            # variables), so the call is evaluated and compared.
            self.ops.append(
                (OP_TESTEQ, self.expr(pattern), (X_SLOT, src), False)
            )
            return
        if _is_ground_ctor(pattern):
            self.ops.append(
                (OP_TESTCONST, src, term_to_value(pattern))
            )
            return
        dsts = []
        subs = []
        for sub in pattern.args:
            if (
                isinstance(sub, Var)
                and sub.name in binds
                and sub.name not in self.slots
            ):
                dsts.append(self.bind(sub.name))
            else:
                dst = self.fresh()
                dsts.append(dst)
                subs.append((dst, sub))
        self.ops.append((OP_TESTCTOR, src, pattern.name, tuple(dsts)))
        for dst, sub in subs:
            self.match(dst, sub, binds)

    def scrutinee_slot(self, t: Term) -> int:
        """The slot holding *t*'s value (reusing the variable's slot
        when the scrutinee is a bare variable)."""
        if isinstance(t, Var) and t.name in self.slots:
            return self.slots[t.name]
        dst = self.fresh()
        self.ops.append((OP_EVAL, dst, self.expr(t)))
        return dst

    # -- steps ---------------------------------------------------------------

    def step(self, step: Any) -> None:
        ctx = self.ctx
        if isinstance(step, SAssign):
            if isinstance(step.term, Var):
                # let x := y — alias, both slots are read-only after.
                self.slots[step.var] = self.slots[step.term.name]
                return
            expr = self.expr(step.term)
            self.ops.append((OP_EVAL, self.bind(step.var), expr))
            return
        if isinstance(step, SEqCheck):
            self.ops.append(
                (OP_TESTEQ, self.expr(step.lhs), self.expr(step.rhs),
                 step.negated)
            )
            return
        if isinstance(step, SMatch):
            src = self.scrutinee_slot(step.scrutinee)
            self.match(src, step.pattern, step.binds)
            return
        if isinstance(step, SRecCheck):
            self.ops.append(
                (OP_RECCHECK, tuple(self.expr(a) for a in step.args),
                 step.rel)
            )
            return
        if isinstance(step, SCheckCall):
            arity = ctx.relations.get(step.rel).arity
            key = ("checker", step.rel, "i" * arity)
            self.ops.append(
                (OP_CHECK, key, tuple(self.expr(a) for a in step.args),
                 step.negated, step.rel)
            )
            return
        if isinstance(step, SProduce):
            ins = tuple(self.expr(a) for a in step.in_args)
            dsts = tuple(self.bind(b) for b in step.binds)
            mode_str = str(step.mode)
            enum_key = ("enum", step.rel, mode_str)
            gen_key = ("gen", step.rel, mode_str)
            self.ops.append(
                (OP_PRODUCE, enum_key, gen_key, ins, dsts,
                 step.recursive, step.rel, step.mode)
            )
            return
        if isinstance(step, SInstantiate):
            self.ops.append((OP_INSTANTIATE, self.bind(step.var), step.ty))
            return
        raise AssertionError(f"unknown step {step!r}")


def _lower_handler(
    ctx: Context, schedule: Schedule, handler: Any, index: int
) -> PlanHandler:
    lo = _Lowerer(ctx, schedule)
    head_ctors = []
    # Input patterns are linear constructor patterns (preprocessing
    # guarantees it): every variable is a binding occurrence.
    for j, pattern in enumerate(handler.in_patterns):
        if isinstance(pattern, Fun):
            raise EvaluationError(
                f"schedule bug: function call {pattern} in an input pattern"
            )
        head_ctors.append(pattern.name if isinstance(pattern, Ctor) else None)
        lo.match(j, pattern, frozenset(_pattern_vars(pattern)))
    for step in handler.steps:
        lo.step(step)
    out_exprs = tuple(lo.expr(t) for t in handler.out_terms)
    return PlanHandler(
        rule=handler.rule,
        index=index,
        recursive=handler.recursive,
        ops=tuple(lo.ops),
        out_exprs=out_exprs,
        n_ins=len(schedule.mode.ins),
        n_slots=lo.n_slots,
        key3=(schedule.rel, str(schedule.mode), handler.rule),
        head_ctors=tuple(head_ctors),
    )


def lower_schedule(ctx: Context, schedule: Schedule) -> Plan:
    """Lower *schedule* to a :class:`Plan` (cached per context).

    The cache is keyed by object identity: schedules are built once per
    ``(rel, mode, policy, group)`` by the scheduler's own cache, and the
    plan keeps its schedule alive, so identity is stable.
    """
    cache = ctx.artifacts.setdefault(PLANS_KEY, {})
    plan = cache.get(id(schedule))
    if plan is not None:
        return plan
    handlers = tuple(
        _lower_handler(ctx, schedule, h, i)
        for i, h in enumerate(schedule.handlers)
    )
    if functionalization_enabled(ctx):
        for h in handlers:
            _functionalize_handler(ctx, h)
    plan = Plan(schedule, handlers)
    stats = ctx.caches.get("derive_stats")
    if stats is not None:
        stats.plan_lowerings += 1
    cache[id(schedule)] = plan
    return plan


# ---------------------------------------------------------------------------
# Functionalization (determinacy-driven premise rewrite).
# ---------------------------------------------------------------------------

#: ``ctx.artifacts`` flag gating the functionalization pass (default on).
FUNC_FLAG = "derive_functionalize"


def functionalization_enabled(ctx: Context) -> bool:
    """Is determinacy-driven functionalization (and the direct-eval
    twins it licenses) on for *ctx*?  Off globally
    under ``REPRO_NO_FUNCTIONALIZE=1``; per context via
    :func:`disable_functionalization`.  The flag is read at plan
    lowering / compile time — flip it before deriving instances."""
    if os.environ.get("REPRO_NO_FUNCTIONALIZE"):
        return False
    return bool(ctx.artifacts.get(FUNC_FLAG, True))


def enable_functionalization(ctx: Context) -> None:
    ctx.artifacts[FUNC_FLAG] = True


def disable_functionalization(ctx: Context) -> None:
    ctx.artifacts[FUNC_FLAG] = False


def _functionalize_handler(ctx: Context, handler: PlanHandler) -> None:
    """Rewrite eligible enumerate-then-check ops of a freshly lowered
    handler into :data:`OP_EVALREL` (in place, before the handler is
    published inside a :class:`Plan`).

    Eligible: a non-recursive :data:`OP_PRODUCE` whose ``(rel, mode)``
    is proven functional-or-better by :mod:`repro.analysis.determinacy`
    — at most one output tuple exists, so committing to the first
    definite answer is complete, and a later test failing is a definite
    handler failure rather than a backtrack point.  Recursive produces
    keep the loop: they run at the mode being derived and their charge
    pattern anchors the fault-injection replay discipline.

    The op tuple keeps OP_PRODUCE's operand shape (only the tag
    changes), so handler cost — ``1 + len(ops)``, the per-attempt
    budget charge — is identical with the pass on or off; only the
    per-item loop charges differ, exactly as the transform removes the
    extra draws.
    """
    if not any(op[0] == OP_PRODUCE and not op[5] for op in handler.ops):
        return
    from ..analysis.determinacy import relation_verdict

    ops = list(handler.ops)
    changed = False
    for i, op in enumerate(ops):
        if op[0] != OP_PRODUCE or op[5]:
            continue
        if relation_verdict(ctx, op[6], op[7]).at_most_one:
            ops[i] = (OP_EVALREL,) + op[1:]
            changed = True
    if changed:
        handler.ops = tuple(ops)


# ---------------------------------------------------------------------------
# Helpers.
# ---------------------------------------------------------------------------


def _is_ground_ctor(t: Term) -> bool:
    if isinstance(t, Ctor):
        return all(_is_ground_ctor(a) for a in t.args)
    return False


def _pattern_vars(pattern: Term) -> Iterable[str]:
    if isinstance(pattern, Var):
        yield pattern.name
        return
    for sub in pattern.args:
        yield from _pattern_vars(sub)


def _expr_str(e: tuple) -> str:
    tag = e[0]
    if tag == X_SLOT:
        return f"s{e[1]}"
    if tag == X_CONST:
        return str(e[1])
    if tag == X_CTOR:
        return f"{e[1]}({', '.join(_expr_str(a) for a in e[2])})"
    return f"{e[3]}({', '.join(_expr_str(a) for a in e[2])})"


def _op_operands(op: tuple) -> str:
    tag = op[0]
    if tag == OP_EVAL:
        return f"s{op[1]} := {_expr_str(op[2])}"
    if tag == OP_TESTCTOR:
        dsts = ", ".join(f"s{d}" for d in op[3])
        return f"s{op[1]} is {op[2]}({dsts})"
    if tag == OP_TESTCONST:
        return f"s{op[1]} == {op[2]}"
    if tag == OP_TESTEQ:
        rel = "!=" if op[3] else "=="
        return f"{_expr_str(op[1])} {rel} {_expr_str(op[2])}"
    if tag == OP_CHECK:
        neg = "~" if op[3] else ""
        return f"{neg}{op[4]}({', '.join(_expr_str(e) for e in op[2])})"
    if tag == OP_RECCHECK:
        target = f"{op[2]}:" if op[2] else ""
        return f"{target}{', '.join(_expr_str(e) for e in op[1])}"
    if tag in (OP_PRODUCE, OP_EVALREL):
        how = "fun" if tag == OP_EVALREL else ("rec" if op[5] else "ext")
        dsts = ", ".join(f"s{d}" for d in op[4])
        ins = ", ".join(_expr_str(e) for e in op[3])
        return f"{dsts} <- {how} {op[6]}[{op[7]}]({ins})"
    dst, ty = op[1], op[2]
    return f"s{dst} <- arbitrary {ty}"


def _indent(text: str) -> str:
    return "\n".join("  " + line for line in text.splitlines())
