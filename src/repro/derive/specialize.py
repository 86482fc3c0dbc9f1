"""Term-representation specialization for the compiled backend.

EXPERIMENTS.md records the reproduction's biggest fidelity gap: derived
checkers lost double-digit percentages against handwritten baselines
where the paper (Section 6.2, Figure 3) measured under 2%.  The cause
is representation, not algorithm: the handwritten baselines run on
machine integers while the compiled Plans executed boxed Peano /
constructor :class:`~repro.core.values.Value` terms — exactly the gap
Coq extraction closes for QuickChick by mapping ``nat`` and ``list``
onto native OCaml data.

This module is the analysis half of that extraction step (the emission
half lives in :mod:`repro.derive.codegen`): it decides, per lowered
:class:`~repro.derive.plan.Plan`, which runtime representation each
slot can use, and provides the boundary coercions that box/unbox values
exactly at the specialized/boxed frontier.

Representations (*reprs*) form a tiny descriptor language:

* ``'nat'`` — Peano naturals as non-negative Python ``int``;
  ``TESTCTOR S`` becomes ``> 0`` plus a decrement, ``S e`` becomes
  ``e + 1``, equality is integer equality;
* ``('list', elem)`` — cons-lists as nested pairs ``()`` / ``(hd,
  tl)`` with elements in their own repr (O(1) head/tail, no hash on
  construction; head-pattern tests compile to truthiness);
* ``'box'`` — everything else stays a :class:`Value`.

Soundness contract (argued in DESIGN.md §4.7, enforced by the
differential suite):

* coercions round-trip exactly on well-typed values —
  ``box(unbox(v)) == v`` and ``unbox(box(x)) == x``;
* unboxing is *partial*: on an ill-typed value it raises
  :class:`SpecCoercionError`, and the compiled entry point falls back
  to the boxed twin (which is always compiled alongside), so verdicts
  never depend on specialization;
* all boxing directions are total, so no coercion inside a
  specialized fixpoint can fail except the statically type-directed
  eager unboxes of the uninstrumented fast checker twin, which unwind
  to the same entry fallback.  The instrumented twin does not unbox
  eagerly: it fails only at its entry, before it records anything;
* a generator twin (uninstrumented only) converts nothing partially
  past its entry either: a re-run after a draw would consume the RNG
  differently, so it must return exactly what the boxed twin returns
  and leave the RNG in the same state.

The pass is on by default; ``disable_specialization(ctx)`` or the
``REPRO_NO_SPECIALIZE`` environment variable turn it off (existing
compiled instances are unaffected — the flag is read at compile time).
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable

from ..core.context import Context
from ..core.types import Ty, TypeExpr
from ..core.values import NIL, Value, ZERO
from .plan import OP_RECCHECK, Plan

SPEC_FLAG = "derive_specialize"

# Repr descriptors.  BOX/NAT are plain strings so descriptors are
# hashable, printable, and cheap to compare; lists nest as tuples.
BOX = "box"
NAT = "nat"


class SpecCoercionError(ValueError):
    """An ill-typed value reached a specialized representation boundary.

    Raised by the partial (unboxing) coercions only; the compiled entry
    points catch it and re-run the boxed twin, so callers never see it.
    """


# ---------------------------------------------------------------------------
# Enable / disable.
# ---------------------------------------------------------------------------

def specialization_enabled(ctx: Context) -> bool:
    if os.environ.get("REPRO_NO_SPECIALIZE"):
        return False
    return bool(ctx.artifacts.get(SPEC_FLAG, True))


def enable_specialization(ctx: Context) -> None:
    """(Re-)enable the pass for instances compiled *after* this call."""
    ctx.artifacts[SPEC_FLAG] = True


def disable_specialization(ctx: Context) -> None:
    """Compile subsequent instances boxed-only (already-compiled
    instances keep whatever representation they were built with)."""
    ctx.artifacts[SPEC_FLAG] = False


# ---------------------------------------------------------------------------
# Repr inference.
# ---------------------------------------------------------------------------

def repr_of(ty: "TypeExpr | None") -> Any:
    """The specialized repr for a ground type (``BOX`` when unknown or
    unspecializable)."""
    if not isinstance(ty, Ty):
        return BOX
    if ty.name == "nat":
        return NAT
    if ty.name == "list":
        return ("list", repr_of(ty.args[0]))
    return BOX


def repr_name(r: Any) -> str:
    if isinstance(r, tuple):
        return f"list({repr_name(r[1])})"
    return r


def worthwhile(r: Any) -> bool:
    """Whether repr *r* pays for its entry coercion.

    ``nat`` does (every Peano op collapses to an int op), and so does
    any list whose elements eventually do.  A ``('list', 'box')``
    does not: nested pairs cost the same per-op as a cons spine, so
    unboxing at entry would just add one full extra traversal per
    call — measurably a net loss on shallow-recursion relations (IFC's
    ``indist_list``).  Such reprs are demoted to ``BOX`` and the plan
    still gets the instrumentation-free fast twin."""
    if r == NAT:
        return True
    if isinstance(r, tuple):
        return worthwhile(r[1])
    return False


class SpecInfo:
    """The per-plan specialization decision: entry reprs + arg types,
    and for generator plans the reprs their outputs are returned in."""

    __slots__ = ("entry_reprs", "entry_types", "out_reprs")

    def __init__(
        self, entry_reprs: tuple, entry_types: tuple, out_reprs: tuple = ()
    ) -> None:
        self.entry_reprs = entry_reprs
        self.entry_types = entry_types
        self.out_reprs = out_reprs


def _component_opportunity(ctx: Context, types: tuple) -> bool:
    """Whether any argument datatype has a constructor component that
    specializes (e.g. BST's ``Node : tree -> nat -> tree``) — those
    components are eagerly unboxed at ``TESTCTOR`` projections."""
    for ty in types:
        if not isinstance(ty, Ty) or ty.name not in ctx.datatypes:
            continue
        dt = ctx.datatypes.get(ty.name)
        if len(dt.params) != len(ty.args):
            continue
        for sig in dt.constructors:
            comps = dt.constructor_arg_types(sig.name, ty.args)
            if any(worthwhile(repr_of(t)) for t in comps):
                return True
    return False


def _eligible(ctx: Context, plan: Plan) -> bool:
    if not specialization_enabled(ctx):
        return False
    # OP_RECCHECK is (OP_RECCHECK, exprs, rel|None): a non-None rel
    # that differs from the plan's own names a mutual-group sibling.
    # Producer plans hold no OP_RECCHECK: their recursion is always
    # on themselves.
    for h in plan.handlers:
        for op in h.ops:
            if op[0] == OP_RECCHECK and op[2] not in (None, plan.rel):
                return False
    return True


def _worthwhile_reprs(types: tuple) -> tuple:
    return tuple(
        r if worthwhile(r) else BOX for r in (repr_of(t) for t in types)
    )


def spec_info(ctx: Context, plan: Plan) -> "SpecInfo | None":
    """Decide whether (and how) to specialize *plan* — a checker plan,
    or a generator plan (the only producer plans the compiled backend
    specializes).

    Returns ``None`` when the pass is disabled, the plan belongs to a
    mutual-recursion group (the compiled backend's single ``rec``
    cannot dispatch group siblings), or no slot would change
    representation (specializing then would only duplicate code).  A
    checker also qualifies through a specializable constructor
    component of an argument (:func:`_component_opportunity`, unboxed
    at projections); a generator qualifies only through a worthwhile
    input or output repr, since its twin never unboxes at projections.
    """
    if not _eligible(ctx, plan):
        return None
    relation = ctx.relations.get(plan.rel)
    entry_types = tuple(relation.arg_types[i] for i in plan.mode.ins)
    entry_reprs = _worthwhile_reprs(entry_types)
    if not plan.mode.is_checker:
        out_reprs = _worthwhile_reprs(
            tuple(relation.arg_types[i] for i in plan.mode.out_list)
        )
        if all(r == BOX for r in entry_reprs + out_reprs):
            return None
        return SpecInfo(entry_reprs, entry_types, out_reprs)
    if all(r == BOX for r in entry_reprs) and not _component_opportunity(
        ctx, entry_types
    ):
        return None
    return SpecInfo(entry_reprs, entry_types)


def boxed_info(ctx: Context, plan: Plan) -> "SpecInfo | None":
    """An all-``BOX`` :class:`SpecInfo` for an eligible checker plan
    that :func:`spec_info` declined (nothing to unbox).  The emitter
    uses it to build the instrumentation-free fast twin — same boxed
    representation, but with straight-line handlers inlined into the
    dispatch — without enabling any representation change."""
    if not plan.mode.is_checker or not _eligible(ctx, plan):
        return None
    relation = ctx.relations.get(plan.rel)
    entry_types = tuple(relation.arg_types[i] for i in plan.mode.ins)
    return SpecInfo(tuple(BOX for _ in entry_types), entry_types)


# ---------------------------------------------------------------------------
# Interning (hash-consing) of ground constants.
# ---------------------------------------------------------------------------

_INTERN: dict[Value, Value] = {}


def intern_value(v: Value) -> Value:
    """The canonical instance of ground value *v* (hash-consed,
    process-wide).  Repeated constants across plans — and the nullary
    constructors in particular — collapse to one object, so ``is``
    fast-paths in ``Value.__eq__`` fire and boxing allocates nothing
    for shared spines."""
    w = _INTERN.get(v)
    if w is None:
        w = _INTERN[v] = Value(v.ctor, tuple(intern_value(a) for a in v.args))
    return w


# ---------------------------------------------------------------------------
# Boundary coercions.
# ---------------------------------------------------------------------------

# Grow-on-demand cache of small boxed naturals: box_nat(n) is O(1)
# amortized for cached sizes and returns shared (hash-consed) spines,
# so boxing at the spec/boxed frontier allocates only for fresh maxima.
#
# Concurrency + growth contract: the cache is append-only and capped.
# Reads are lock-free (a list index under the GIL); growth takes
# _NAT_CACHE_LOCK and re-checks the length, so two threads extending
# from the same tail can never append out-of-order spines.  Requests
# beyond the cap build their tail locally off the cached prefix and
# cache nothing — a serving workload with one huge outlier can no
# longer pin an unbounded spine list for the life of the process.
_NAT_CACHE_MAX = 4096
_NAT_CACHE: list[Value] = [intern_value(ZERO)]
_NAT_CACHE_LOCK = threading.Lock()
_NIL = intern_value(NIL)


def box_nat(n: int) -> Value:
    cache = _NAT_CACHE
    if n < len(cache):
        return cache[n]
    if n < _NAT_CACHE_MAX:
        with _NAT_CACHE_LOCK:
            # Re-check under the lock: another thread may have grown
            # the cache past n while we waited.
            v = cache[-1]
            for _ in range(len(cache), n + 1):
                v = Value("S", (v,))
                cache.append(v)
            return cache[n]
    # Beyond the cap: snapshot the cached prefix length once (the list
    # only grows, so the indexed read is safe) and build the rest
    # privately.
    top = len(cache) - 1
    v = cache[top]
    for _ in range(top, n):
        v = Value("S", (v,))
    return v


def unbox_nat(v: Value) -> int:
    """Peano natural -> int (raises :class:`SpecCoercionError` on
    anything else)."""
    n = 0
    try:
        while v.ctor == "S":
            n += 1
            v = v.args[0]
        if v.ctor != "O":
            raise SpecCoercionError(f"not a natural: {v!r}")
    except AttributeError:
        raise SpecCoercionError(f"not a value: {v!r}") from None
    return n


def identity(x: Any) -> Any:
    return x


def boxer(r: Any) -> Callable[[Any], Value]:
    """The total coercion from repr *r* back to boxed values."""
    if r == BOX:
        return identity
    if r == NAT:
        return box_nat
    box_elem = boxer(r[1])

    def box_list(p: tuple) -> Value:
        # Nested pairs -> cons spine, iteratively (lists can be long).
        items = []
        while p:
            items.append(box_elem(p[0]))
            p = p[1]
        acc = _NIL
        for item in reversed(items):
            acc = Value("cons", (item, acc))
        return acc

    return box_list


def unboxer(r: Any) -> Callable[[Value], Any]:
    """The partial coercion from boxed values into repr *r*."""
    if r == BOX:
        return identity
    if r == NAT:
        return unbox_nat
    unbox_elem = unboxer(r[1])

    def unbox_list(v: Value) -> tuple:
        items = []
        try:
            while v.ctor == "cons":
                items.append(unbox_elem(v.args[0]))
                v = v.args[1]
            if v.ctor != "nil":
                raise SpecCoercionError(f"not a list: {v!r}")
        except AttributeError:
            raise SpecCoercionError(f"not a value: {v!r}") from None
        acc: tuple = ()
        for item in reversed(items):
            acc = (item, acc)
        return acc

    return unbox_list


def entry_unboxers(entry_reprs: tuple) -> "tuple | None":
    """Per-argument unboxers for a specialized entry point, or ``None``
    when every argument stays boxed (no entry coercion needed)."""
    if all(r == BOX for r in entry_reprs):
        return None
    return tuple(unboxer(r) for r in entry_reprs)


def value_in_repr(v: Value, r: Any) -> Any:
    """Convert ground value *v* into repr *r* at compile time.

    Raises :class:`SpecCoercionError` when the value does not inhabit
    the repr (the caller then emits the boxed form instead).
    """
    return unboxer(r)(v)


# ---------------------------------------------------------------------------
# Canonical memo keys.
# ---------------------------------------------------------------------------

def canonicalize_args(args: tuple) -> tuple:
    """Map an argument tuple to its canonical boxed form.

    Memo tables (:mod:`repro.derive.memo`) key on ``(rel, args)``; a
    specialized caller holding native ints / nested-pair lists must hit
    the same entry as a boxed caller with the equal Peano / cons terms,
    or the two backends would each warm a private (and potentially
    stale-on-invalidation) cache line for one ground query.  All-boxed
    tuples (the common case) return identically ``args``.
    """
    for a in args:
        if type(a) is not Value:
            return tuple(_canon(a) for a in args)
    return args


def _canon(a: Any) -> Any:
    if type(a) is Value:
        return a
    if isinstance(a, bool):  # bool is an int subtype; not a repr we emit
        return a
    if isinstance(a, int):
        if a < 0:
            return a
        return box_nat(a)
    if isinstance(a, tuple):
        if a == ():
            return _NIL
        if len(a) == 2:
            return Value("cons", (_canon(a[0]), _canon(a[1])))
        return tuple(_canon(x) for x in a)
    return a
