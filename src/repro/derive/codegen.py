"""Code generation: compile lowered plans to Python source.

The paper's plugin emits Gallina *code* for each derived computation;
the interpreters in this package execute the lowered Plan IR instead.
This module closes the loop: it compiles a :class:`~repro.derive.plan.
Plan` into a dedicated Python function (built with ``compile``/
``exec``), eliminating the remaining interpretive overhead — the
backend used by the Figure 3 benchmarks, with the interpreter kept as
the ablation baseline.

The compiler consumes the *same* lowering as the interpreters
(:func:`~repro.derive.plan.lower_schedule` — slot environments,
flattened pattern ops, dispatch index), so interpreted and compiled
backends cannot drift: slots become Python locals, ops become
statements, and the dispatch tables are emitted as module-level dict
literals keyed by head constructor.

Compilation scheme (checker):

* the fixpoint becomes a Python function ``rec(size, top_size, *ins)``
  that looks up candidate handlers in the dispatch table;
* each handler becomes a flat function: ``testctor``/``testconst``/
  ``testeq`` ops compile to early returns, ``.&&`` chains likewise,
  and each ``bindEC`` producer op to a ``for`` loop;
* one ``_inc`` flag per handler reproduces the nested-``bindEC`` fuel
  accounting exactly (a branch that ends without success inside a loop
  ``continue``\\ s; the handler returns ``Some false`` only when the
  flag stayed clear).

One op walker (:class:`_SpecPlanCompiler`) emits every checker
fixpoint: the boxed ``rec`` is its all-``BOX`` case, and the
representation-specialized twins differ only in the reprs fixed at
each compile site in :func:`compile_checker`.  Its generator walker
does the same for :func:`compile_generator`.

Enumerators compile to Python generator functions (``yield`` /
``yield from``), generators to single-sample recursive functions with
the weighted-backtrack loop at the top.  External instances are
resolved at compile time through the registry (with the ``compiled``
backend preferred, so whole dependency trees compile together).

Profiling, observation, and budget hooks are threaded through the
emitted ``rec``: one ``caches.get('derive_trace')`` plus one
``caches.get('derive_observe')`` plus one
``caches.get('derive_budget')`` per call and ``is not None`` guards —
matching the interpreters' zero-overhead-off contract.  Dispatch
entries carry the pre-merged ``(kind, rel, mode, rule)`` trace key and
the handler's static charge cost; span begin/end sites and budget
charge sites (one ``charge_entry`` per level, one ``charge(cost)`` per
handler attempt, one ``charge(1)`` per producer-loop item) mirror
:mod:`~repro.derive.exec_core` construct-by-construct, so mixed
interpreted/compiled runs aggregate into one trace, produce identical
span trees, and replay a deterministic fault schedule identically.
"""

from __future__ import annotations

from typing import Any

from ..core.context import Context
from ..core.errors import ReproError, UnknownNameError
from ..core.types import Ty, TypeExpr, is_ground, mangle
from ..core.values import Value
from ..producers.combinators import _enum_values, _gen_value, slice_exhaustive
from ..producers.option_bool import NONE_OB, SOME_FALSE, SOME_TRUE, negate
from ..producers.outcome import FAIL, OUT_OF_FUEL
from . import specialize
from .plan import (
    OP_CHECK,
    OP_EVAL,
    OP_EVALREL,
    OP_INSTANTIATE,
    OP_PRODUCE,
    OP_RECCHECK,
    OP_TESTCONST,
    OP_TESTCTOR,
    OP_TESTEQ,
    X_CONST,
    X_CTOR,
    X_SLOT,
    Plan,
    PlanHandler,
    lower_schedule,
)
from .schedule import Schedule


class _Emitter:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.indent = 0

    def emit(self, line: str = "") -> None:
        self.lines.append("    " * self.indent + line if line else "")

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class _PlanCompiler:
    """Plan-to-source compiler: the enumerator walker, the direct-eval
    twin, the dispatch tables and the instrumented fixpoint top.  The
    checker and generator op walkers are :class:`_SpecPlanCompiler`'s."""

    def __init__(
        self, ctx: Context, plan: Plan, kind: str, fast: bool = False
    ) -> None:
        self.ctx = ctx
        self.plan = plan
        self.kind = kind  # 'checker' | 'enum' | 'gen'
        # fast=True emits the instrumentation-free twin: the
        # trace/observe/budget locals are pinned to None (every guarded
        # site is a no-op exactly when those caches are empty, which is
        # the only state in which entry wrappers select this twin).
        self.fast = fast
        self.globals: dict[str, Any] = {
            "Value": Value,
            "SOME_TRUE": SOME_TRUE,
            "SOME_FALSE": SOME_FALSE,
            "NONE_OB": NONE_OB,
            "OUT_OF_FUEL": OUT_OF_FUEL,
            "FAIL": FAIL,
            "_negate": negate,
            "_ctx": ctx,
        }
        self._const_cache: dict[Value, str] = {}
        self._fn_cache: dict[int, str] = {}
        self._counter = 0

    # -- helpers -----------------------------------------------------------------

    def _bind_global(self, stem: str, obj: Any) -> str:
        self._counter += 1
        name = f"{stem}_{self._counter}"
        self.globals[name] = obj
        return name

    def _bind_fn(self, stem: str, fn: Any) -> str:
        cached = self._fn_cache.get(id(fn))
        if cached is None:
            cached = self._fn_cache[id(fn)] = self._bind_global(stem, fn)
        return cached

    def constant(self, value: Value) -> str:
        if value not in self._const_cache:
            self._const_cache[value] = self._bind_global("_const", value)
        return self._const_cache[value]

    def slot(self, i: int) -> str:
        return f"_in{i}" if i < self.plan.n_ins else f"_s{i}"

    def expr(self, e: tuple) -> str:
        """Compile a lowered expression to a Python expression."""
        tag = e[0]
        if tag == X_SLOT:
            return self.slot(e[1])
        if tag == X_CONST:
            return self.constant(e[1])
        args = ", ".join(self.expr(a) for a in e[2])
        if tag == X_CTOR:
            trailing = "," if len(e[2]) == 1 else ""
            return f"Value({e[1]!r}, ({args}{trailing}))"
        fn_name = self._bind_fn(f"_f_{e[3]}", e[1])
        return f"{fn_name}({args})"

    def args_tuple(self, exprs: tuple) -> str:
        return _tuple_code([self.expr(e) for e in exprs])

    def _emit_instr_locals(self, em: _Emitter) -> None:
        if self.fast:
            em.emit("_tr = _ob = _bud = None")
            return
        em.emit("_caches = _ctx.caches")
        em.emit("_tr = _caches.get('derive_trace')")
        em.emit("_ob = _caches.get('derive_observe')")
        em.emit("_bud = _ctx.caches.get('derive_budget')")

    def _fail(self, em: _Emitter, cond: str, fail: str) -> None:
        em.emit(f"if {cond}:")
        em.indent += 1
        em.emit(fail)
        em.indent -= 1

    def _emit_test(self, em: _Emitter, op: tuple, fail: str) -> None:
        """The deterministic test ops, identical in every backend."""
        tag = op[0]
        if tag == OP_TESTCTOR:
            src = self.slot(op[1])
            self._fail(em, f"{src}.ctor != {op[2]!r}", fail)
            for k, dst in enumerate(op[3]):
                em.emit(f"{self.slot(dst)} = {src}.args[{k}]")
        elif tag == OP_TESTCONST:
            self._fail(
                em, f"{self.slot(op[1])} != {self.constant(op[2])}", fail
            )
        else:  # OP_TESTEQ
            cmp = "==" if op[3] else "!="
            self._fail(
                em, f"{self.expr(op[1])} {cmp} {self.expr(op[2])}", fail
            )

    # -- instance resolution at compile time -----------------------------------------

    def checker_fn(self, rel: str):
        from .instances import resolve_compiled_checker

        return resolve_compiled_checker(self.ctx, rel)

    def producer_fn(self, rel: str, mode) -> Any:
        from .instances import ENUM, GEN, resolve_compiled

        kind = ENUM if self.kind in ("checker", "enum") else GEN
        return resolve_compiled(self.ctx, kind, rel, mode)

    def eval_twin(self, rel: str, mode) -> Any:
        """The premise's direct-eval artifact, when its enum instance
        carries one (attached by :func:`compile_enumerator` for plans
        whose determinacy verdict licenses single-answer evaluation).
        Fast twins call it at :data:`OP_EVALREL` sites in place of the
        first-definite-item loop; slow twins keep the loop so the
        per-item budget charges stay site-for-site with the
        interpreter."""
        if self.kind == "gen":
            return None
        return getattr(
            self.producer_fn(rel, mode), "__spec_eval_rec__", None
        )

    def eval_call(self, fn: str, args: str) -> str:
        """A direct call of a premise eval fixpoint — raw ``rec``
        convention ``(size, top, *ins)`` with the caller's remaining
        fuel as both, and no argument tuple."""
        sep = ", " if args else ""
        return f"{fn}(_top, _top{sep}{args})"

    # -- compilation ------------------------------------------------------------------

    def compile(self):
        em = _Emitter()
        for h in self.plan.handlers:
            if self.kind == "checker":
                self._emit_checker_handler(em, h)
            elif self.kind == "enum":
                self._emit_enum_handler(em, h)
            else:
                self._emit_gen_handler(em, h)
            em.emit()
        self._emit_dispatch(em)
        self._emit_top(em)
        source = em.source()
        code = compile(source, f"<derived {self.kind} {self.plan.rel}>", "exec")
        namespace = dict(self.globals)
        exec(code, namespace)
        rec = namespace["rec"]
        rec.__derived_source__ = source
        return rec

    def _ins_params(self) -> list[str]:
        return [f"_in{i}" for i in range(self.plan.n_ins)]

    def _handler_params(self) -> str:
        ins = self._ins_params()
        if self.kind == "gen":
            extra = f", {', '.join(ins)}" if ins else ""
            return f"_size1, _top, _rng{extra}"
        return f"_size1, _top, {', '.join(ins) or '*_'}"

    def _call_handler(self, fn: str) -> str:
        ins = self._ins_params()
        params = ", ".join(ins)
        if self.kind == "gen":
            extra = f", {params}" if params else ""
            return f"{fn}(_sz1, _top, _rng{extra})"
        sep = ", " if params else ""
        return f"{fn}(_sz1, _top{sep}{params})"

    # .. dispatch tables .............................................................

    def _entry(self, h: PlanHandler) -> str:
        key4 = (self.kind,) + h.key3
        return f"(_h_{h.index}, {h.recursive!r}, {key4!r}, {h.cost!r})"

    def _entries(self, handlers: tuple) -> str:
        inner = ", ".join(self._entry(h) for h in handlers)
        trailing = "," if len(handlers) == 1 else ""
        return f"({inner}{trailing})"

    def _emit_dispatch(self, em: _Emitter) -> None:
        """Dispatch tables as module-level literals.  Entries are
        ``(handler_fn, recursive, key4, cost)`` so one shape serves all
        three backends (weights need ``recursive``, profiling needs the
        pre-merged trace key — the compiled twin of
        :attr:`~repro.derive.plan.PlanHandler.key_checker` and friends —
        and budget charges need the static per-attempt
        :attr:`~repro.derive.plan.PlanHandler.cost`)."""
        plan = self.plan
        if plan.dispatch_pos < 0:
            em.emit(f"_all_full = {self._entries(plan.handlers)}")
            em.emit(f"_all_base = {self._entries(plan.base)}")
            em.emit()
            return
        for name, table, default in (
            ("full", plan.full_table, plan.full_default),
            ("base", plan.base_table, plan.base_default),
        ):
            items = ", ".join(
                f"{ctor!r}: {self._entries(hs)}" for ctor, hs in table.items()
            )
            em.emit(f"_disp_{name} = {{{items}}}")
            em.emit(f"_disp_{name}_d = {self._entries(default)}")
        em.emit()

    def _emit_candidates(self, em: _Emitter, which: str) -> None:
        """Emit ``_hs = <candidates>`` for the current size branch."""
        plan = self.plan
        if plan.dispatch_pos < 0:
            em.emit(f"_hs = _all_{which}")
        else:
            scrut = f"_in{plan.dispatch_pos}"
            em.emit(
                f"_hs = _disp_{which}.get({scrut}.ctor, _disp_{which}_d)"
            )

    def _emit_loop_charge(self, em: _Emitter, *stmts: str) -> None:
        """One ``charge(1)`` at a producer-loop top — the compiled twin
        of the interpreters' per-item charge, same site, same order."""
        em.emit("if _bud is not None and _bud.charge(1):")
        em.indent += 1
        for stmt in stmts:
            em.emit(stmt)
        em.indent -= 1

    # .. enumerator ..............................................................

    def _emit_enum_handler(self, em: _Emitter, h: PlanHandler) -> None:
        em.emit(f"def _h_{h.index}({self._handler_params()}):")
        em.indent += 1
        if _has_loop_ops(h):
            if self.fast:
                em.emit("_bud = None")
            else:
                em.emit("_bud = _ctx.caches.get('derive_budget')")
        self._emit_enum_ops(em, h, h.ops, 0, depth=0)
        em.indent -= 1

    def _emit_enum_ops(
        self, em: _Emitter, h: PlanHandler, ops: tuple, i: int, depth: int
    ) -> None:
        fail = "return" if depth == 0 else "continue"
        n = len(ops)
        while i < n:
            op = ops[i]
            tag = op[0]
            if tag == OP_EVAL:
                em.emit(f"{self.slot(op[1])} = {self.expr(op[2])}")
            elif tag in (OP_TESTCTOR, OP_TESTCONST, OP_TESTEQ):
                self._emit_test(em, op, fail)
            elif tag == OP_CHECK:
                r = f"_r{i}"
                fn = self._bind_fn(f"_chk_{op[4]}", self.checker_fn(op[4]))
                em.emit(f"{r} = {fn}(_top, {self.args_tuple(op[2])})")
                if op[3]:
                    em.emit(f"{r} = _negate({r})")
                em.emit(f"if {r} is not SOME_TRUE:")
                em.indent += 1
                self._fail(em, f"{r} is NONE_OB", "yield OUT_OF_FUEL")
                em.emit(fail)
                em.indent -= 1
            elif tag == OP_RECCHECK:
                raise AssertionError(
                    "producer schedules never contain recursive checker calls"
                )
            elif tag == OP_EVALREL:
                # Functionalized premise: first definite item commits
                # (nothing else exists behind later markers), then the
                # handler continues straightline — no nested loop.
                item, got = f"_it{i}", f"_g{i}"
                ev = self.eval_twin(op[6], op[7]) if self.fast else None
                if ev is not None:
                    fn = self._bind_fn(f"_ev_{op[6]}", ev)
                    args = ", ".join(self.expr(e) for e in op[3])
                    em.emit(f"{got} = {self.eval_call(fn, args)}")
                    em.emit(f"if {got} is OUT_OF_FUEL or {got} is FAIL:")
                    em.indent += 1
                    self._fail(
                        em, f"{got} is OUT_OF_FUEL", "yield OUT_OF_FUEL"
                    )
                    em.emit(fail)
                    em.indent -= 1
                    for k, dst in enumerate(op[4]):
                        em.emit(f"{self.slot(dst)} = {got}[{k}]")
                    i += 1
                    continue
                fn = self._bind_fn(
                    f"_enum_{op[6]}", self.producer_fn(op[6], op[7])
                )
                em.emit(f"{got} = None")
                em.emit(f"for {item} in {fn}(_top, {self.args_tuple(op[3])}):")
                em.indent += 1
                self._emit_loop_charge(em, "yield OUT_OF_FUEL", "break")
                em.emit(f"if {item} is OUT_OF_FUEL:")
                em.indent += 1
                em.emit("yield OUT_OF_FUEL")
                em.emit("continue")
                em.indent -= 1
                em.emit(f"{got} = {item}")
                em.emit("break")
                em.indent -= 1
                em.emit(f"if {got} is None:")
                em.indent += 1
                em.emit(fail)
                em.indent -= 1
                if not self.fast:
                    em.emit("_st = _ctx.caches.get('derive_stats')")
                    em.emit("if _st is not None:")
                    em.indent += 1
                    em.emit("_st.functionalized_calls += 1")
                    em.indent -= 1
                for k, dst in enumerate(op[4]):
                    em.emit(f"{self.slot(dst)} = {got}[{k}]")
            elif tag == OP_PRODUCE:
                item = f"_it{i}"
                ins = ", ".join(self.expr(e) for e in op[3])
                if op[5]:  # recursive self-call, one level down
                    source = f"rec(_size1, _top, {ins})"
                else:
                    fn = self._bind_fn(
                        f"_enum_{op[6]}", self.producer_fn(op[6], op[7])
                    )
                    source = f"{fn}(_top, {self.args_tuple(op[3])})"
                em.emit(f"for {item} in {source}:")
                em.indent += 1
                # ``break``, not ``return``: the interpreter's charge
                # trip returns from the innermost ``_enum_ops`` frame
                # only, so outer produce loops resume with their next
                # item — exiting the whole flattened handler here would
                # drop those items and diverge under one-shot faults.
                self._emit_loop_charge(em, "yield OUT_OF_FUEL", "break")
                em.emit(f"if {item} is OUT_OF_FUEL:")
                em.indent += 1
                em.emit("yield OUT_OF_FUEL")
                em.emit("continue")
                em.indent -= 1
                for k, dst in enumerate(op[4]):
                    em.emit(f"{self.slot(dst)} = {item}[{k}]")
                self._emit_enum_ops(em, h, ops, i + 1, depth + 1)
                em.indent -= 1
                return
            else:  # OP_INSTANTIATE
                item = self.slot(op[1])
                enum_fn = self._bind_global(
                    "_arb", _make_arbitrary_enum(self.ctx, op[2])
                )
                em.emit(f"for {item} in {enum_fn}(_top):")
                em.indent += 1
                em.emit(f"if {item} is OUT_OF_FUEL:")
                em.indent += 1
                em.emit("yield OUT_OF_FUEL")
                em.emit("continue")
                em.indent -= 1
                # After the marker test — see the checker walker's
                # OP_INSTANTIATE — and ``break`` for the same reason as
                # OP_PRODUCE.
                self._emit_loop_charge(em, "yield OUT_OF_FUEL", "break")
                self._emit_enum_ops(em, h, ops, i + 1, depth + 1)
                em.indent -= 1
                return
            i += 1
        outs = ", ".join(self.expr(e) for e in h.out_exprs)
        trailing = "," if len(h.out_exprs) == 1 else ""
        em.emit(f"yield ({outs}{trailing})")

    # .. direct-eval twin (functional enum plans) ................................

    def compile_eval(self):
        """Compile the enum plan as a direct function — the *eval
        twin* of a relation whose determinacy verdict is functional or
        better (``repro.analysis.determinacy``): at most one answer
        exists, so enumeration collapses to computation.

        ``rec(_size, _top, *ins)`` returns the unique answer tuple,
        ``OUT_OF_FUEL`` when the search was incomplete without finding
        it, or ``FAIL`` when it is definitely absent.  Recursive
        premises become direct recursive calls (same relation and mode,
        hence themselves single-answer) and functional external
        premises chain through their own eval twins — no generator
        frames anywhere on the hot path.

        Soundness is the OP_EVALREL commit argument one level deeper:
        a definite answer found at any fuel is the unique semantic
        answer, so committing to it (and reporting definite failure
        when a later test rejects it) loses nothing, and markers seen
        before the commit are moot.  The twin is instrumentation-free
        by construction and must only be reached from fast twins —
        entry wrappers select those exactly when no trace/observe/
        budget cache is installed, so every charge site the twin omits
        is a no-op in any state in which it runs.
        """
        assert self.kind == "enum" and self.fast
        em = _Emitter()
        for h in self.plan.handlers:
            self._emit_eval_handler(em, h)
            em.emit()
        self._emit_dispatch(em)
        self._emit_eval_top(em)
        source = em.source()
        code = compile(source, f"<derived eval {self.plan.rel}>", "exec")
        namespace = dict(self.globals)
        exec(code, namespace)
        rec = namespace["rec"]
        rec.__derived_source__ = source
        return rec

    def _emit_eval_handler(self, em: _Emitter, h: PlanHandler) -> None:
        em.emit(f"def _h_{h.index}({self._handler_params()}):")
        em.indent += 1
        em.emit("_inc = False")
        self._emit_eval_ops(em, h, h.ops, 0, depth=0)
        em.emit("return OUT_OF_FUEL if _inc else None")
        em.indent -= 1

    def _emit_eval_ops(
        self, em: _Emitter, h: PlanHandler, ops: tuple, i: int, depth: int
    ) -> None:
        # Handler protocol: answer tuple | OUT_OF_FUEL | None (definite
        # miss).  At depth 0 markers return immediately; inside a
        # residual producer loop they accumulate in ``_inc``.
        fail = "return None" if depth == 0 else "continue"
        n = len(ops)
        while i < n:
            op = ops[i]
            tag = op[0]
            if tag == OP_EVAL:
                em.emit(f"{self.slot(op[1])} = {self.expr(op[2])}")
            elif tag in (OP_TESTCTOR, OP_TESTCONST, OP_TESTEQ):
                self._emit_test(em, op, fail)
            elif tag == OP_CHECK:
                r = f"_r{i}"
                fn = self._bind_fn(f"_chk_{op[4]}", self.checker_fn(op[4]))
                em.emit(f"{r} = {fn}(_top, {self.args_tuple(op[2])})")
                if op[3]:
                    em.emit(f"{r} = _negate({r})")
                em.emit(f"if {r} is not SOME_TRUE:")
                em.indent += 1
                if depth == 0:
                    em.emit(
                        f"return OUT_OF_FUEL if {r} is NONE_OB else None"
                    )
                else:
                    self._fail(em, f"{r} is NONE_OB", "_inc = True")
                    em.emit(fail)
                em.indent -= 1
            elif tag == OP_RECCHECK:
                raise AssertionError(
                    "producer schedules never contain recursive checker calls"
                )
            elif tag == OP_EVALREL or (tag == OP_PRODUCE and op[5]):
                # Single-answer premise: one direct call.  A recursive
                # produce runs this plan's own (rel, mode) — functional
                # by the twin's precondition — so it commits too.
                got = f"_g{i}"
                if op[5]:
                    ins = ", ".join(self.expr(e) for e in op[3])
                    em.emit(f"{got} = rec(_size1, _top, {ins})")
                else:
                    ev = self.eval_twin(op[6], op[7])
                    if ev is None:
                        # No eval twin on the premise instance (e.g. an
                        # interpreted fallback): first-definite-item
                        # loop, as in the fast enum twin.
                        self._emit_eval_produce_loop(em, op, i, depth, fail)
                        i += 1
                        continue
                    fn = self._bind_fn(f"_ev_{op[6]}", ev)
                    args = ", ".join(self.expr(e) for e in op[3])
                    em.emit(f"{got} = {self.eval_call(fn, args)}")
                em.emit(f"if {got} is OUT_OF_FUEL or {got} is FAIL:")
                em.indent += 1
                if depth == 0:
                    em.emit(
                        f"return OUT_OF_FUEL if {got} is OUT_OF_FUEL"
                        " else None"
                    )
                else:
                    self._fail(em, f"{got} is OUT_OF_FUEL", "_inc = True")
                    em.emit(fail)
                em.indent -= 1
                for k, dst in enumerate(op[4]):
                    em.emit(f"{self.slot(dst)} = {got}[{k}]")
            elif tag == OP_PRODUCE:
                # A premise the analysis could not functionalize keeps
                # its enumeration loop.
                item = f"_it{i}"
                fn = self._bind_fn(
                    f"_enum_{op[6]}", self.producer_fn(op[6], op[7])
                )
                em.emit(
                    f"for {item} in {fn}(_top, {self.args_tuple(op[3])}):"
                )
                em.indent += 1
                em.emit(f"if {item} is OUT_OF_FUEL:")
                em.indent += 1
                em.emit("_inc = True")
                em.emit("continue")
                em.indent -= 1
                for k, dst in enumerate(op[4]):
                    em.emit(f"{self.slot(dst)} = {item}[{k}]")
                self._emit_eval_ops(em, h, ops, i + 1, depth + 1)
                em.indent -= 1
                return
            else:  # OP_INSTANTIATE
                item = self.slot(op[1])
                enum_fn = self._bind_global(
                    "_arb", _make_arbitrary_enum(self.ctx, op[2])
                )
                em.emit(f"for {item} in {enum_fn}(_top):")
                em.indent += 1
                em.emit(f"if {item} is OUT_OF_FUEL:")
                em.indent += 1
                em.emit("_inc = True")
                em.emit("continue")
                em.indent -= 1
                self._emit_eval_ops(em, h, ops, i + 1, depth + 1)
                em.indent -= 1
                return
            i += 1
        outs = ", ".join(self.expr(e) for e in h.out_exprs)
        trailing = "," if len(h.out_exprs) == 1 else ""
        em.emit(f"return ({outs}{trailing})")

    def _emit_eval_produce_loop(
        self, em: _Emitter, op: tuple, i: int, depth: int, fail: str
    ) -> None:
        """OP_EVALREL without a premise eval twin: commit to the first
        definite item of the premise enumerator (the fast enum twin's
        form, with returns instead of yields)."""
        item, got, inc = f"_it{i}", f"_g{i}", f"_ic{i}"
        fn = self._bind_fn(f"_enum_{op[6]}", self.producer_fn(op[6], op[7]))
        em.emit(f"{got} = None")
        em.emit(f"{inc} = False")
        em.emit(f"for {item} in {fn}(_top, {self.args_tuple(op[3])}):")
        em.indent += 1
        em.emit(f"if {item} is OUT_OF_FUEL or {item} is FAIL:")
        em.indent += 1
        em.emit(f"{inc} = True")
        em.emit("continue")
        em.indent -= 1
        em.emit(f"{got} = {item}")
        em.emit("break")
        em.indent -= 1
        em.emit(f"if {got} is None:")
        em.indent += 1
        if depth == 0:
            em.emit(f"return OUT_OF_FUEL if {inc} else None")
        else:
            self._fail(em, inc, "_inc = True")
            em.emit(fail)
        em.indent -= 1
        for k, dst in enumerate(op[4]):
            em.emit(f"{self.slot(dst)} = {got}[{k}]")

    def _emit_eval_top(self, em: _Emitter) -> None:
        plan = self.plan
        ins = self._ins_params()
        params = ", ".join(ins)
        em.emit(f"def rec(_size, _top, {params or '*_'}):")
        em.indent += 1
        em.emit("if _size == 0:")
        em.indent += 1
        self._emit_candidates(em, "base")
        em.emit("_sz1 = None")
        em.emit(f"_fuel = {plan.has_recursive!r}")
        em.indent -= 1
        em.emit("else:")
        em.indent += 1
        self._emit_candidates(em, "full")
        em.emit("_sz1 = _size - 1")
        em.emit("_fuel = False")
        em.indent -= 1
        em.emit("for _h in _hs:")
        em.indent += 1
        em.emit(f"_r = {self._call_handler('_h[0]')}")
        em.emit("if _r is None: continue")
        em.emit("if _r is OUT_OF_FUEL:")
        em.indent += 1
        em.emit("_fuel = True")
        em.emit("continue")
        em.indent -= 1
        em.emit("return _r")
        em.indent -= 1
        em.emit("return OUT_OF_FUEL if _fuel else FAIL")
        em.indent -= 1

    # .. the fixpoint .............................................................

    def _emit_entry_charge(self, em: _Emitter, *stmts: str) -> None:
        """The per-level ``charge_entry`` check — the compiled twin of
        the interpreters' fixpoint-entry charge.  *stmts* unwind to the
        backend's indefinite outcome."""
        plan = self.plan
        em.emit("if _bud is not None and _bud.charge_entry(_top - _size):")
        em.indent += 1
        em.emit(
            f"_bud.record_site({self.kind!r}, {plan.rel!r}, "
            f"{plan.mode_str!r})"
        )
        for stmt in stmts:
            em.emit(stmt)
        em.indent -= 1

    def _emit_handler_charge(self, em: _Emitter, *stmts: str) -> None:
        """One ``charge(cost)`` per handler attempt, before the call —
        same site and order as the interpreters."""
        plan = self.plan
        em.emit("if _bud is not None and _bud.charge(_h[3]):")
        em.indent += 1
        em.emit(
            f"_bud.record_site({self.kind!r}, {plan.rel!r}, "
            f"{plan.mode_str!r})"
        )
        for stmt in stmts:
            em.emit(stmt)
        em.indent -= 1

    def _emit_top(self, em: _Emitter) -> None:
        plan = self.plan
        ins = self._ins_params()
        params = ", ".join(ins)
        span_begin = (
            f"_sp = _ob.spans.begin({self.kind!r}, {plan.rel!r}, "
            f"{plan.mode_str!r}, _size, _top)"
        )
        if self.kind == "checker":
            em.emit(f"def rec(_size, _top, {params or '*_'}):")
            em.indent += 1
            self._emit_instr_locals(em)
            em.emit(f"if _ob is not None: {span_begin}")
            self._emit_entry_charge(
                em,
                "if _ob is not None: _ob.end_checker(_sp, NONE_OB)",
                "return NONE_OB",
            )
            em.emit("if _size == 0:")
            em.indent += 1
            self._emit_candidates(em, "base")
            em.emit("_sz1 = None")
            em.emit(f"_none = {plan.has_recursive!r}")
            em.indent -= 1
            em.emit("else:")
            em.indent += 1
            self._emit_candidates(em, "full")
            em.emit("_sz1 = _size - 1")
            em.emit("_none = False")
            em.indent -= 1
            em.emit("for _h in _hs:")
            em.indent += 1
            self._emit_handler_charge(em, "_none = True", "break")
            em.emit(f"_r = {self._call_handler('_h[0]')}")
            em.emit("if _tr is not None:")
            em.indent += 1
            em.emit(
                "_tr.record4(_h[2], _r is SOME_TRUE, _r is NONE_OB)"
            )
            em.indent -= 1
            em.emit("if _r is SOME_TRUE:")
            em.indent += 1
            em.emit("if _ob is not None: _ob.end_checker(_sp, SOME_TRUE)")
            em.emit("return SOME_TRUE")
            em.indent -= 1
            em.emit("if _r is NONE_OB: _none = True")
            em.indent -= 1
            em.emit("_r = NONE_OB if _none else SOME_FALSE")
            em.emit("if _ob is not None: _ob.end_checker(_sp, _r)")
            em.emit("return _r")
            em.indent -= 1
        elif self.kind == "enum":
            em.emit(f"def rec(_size, _top, {params or '*_'}):")
            em.indent += 1
            self._emit_instr_locals(em)
            em.emit(f"if _ob is not None: {span_begin}")
            self._emit_entry_charge(
                em,
                "yield OUT_OF_FUEL",
                "if _ob is not None: _ob.end_enum(_sp, 0, True)",
                "return",
            )
            em.emit("_fuel = False")
            em.emit("_nv = 0")
            em.emit("if _size == 0:")
            em.indent += 1
            self._emit_candidates(em, "base")
            em.emit("_sz1 = None")
            em.indent -= 1
            em.emit("else:")
            em.indent += 1
            self._emit_candidates(em, "full")
            em.emit("_sz1 = _size - 1")
            em.indent -= 1
            em.emit("if _tr is None:")
            em.indent += 1
            em.emit("for _h in _hs:")
            em.indent += 1
            self._emit_handler_charge(em, "_fuel = True", "break")
            em.emit(f"for _x in {self._call_handler('_h[0]')}:")
            em.indent += 1
            em.emit("if _x is OUT_OF_FUEL: _fuel = True")
            em.emit("else: yield _x")
            em.indent -= 3
            em.emit("else:")
            em.indent += 1
            em.emit("for _h in _hs:")
            em.indent += 1
            self._emit_handler_charge(em, "_fuel = True", "break")
            em.emit("_sv = _sf = False")
            em.emit(f"for _x in {self._call_handler('_h[0]')}:")
            em.indent += 1
            em.emit("if _x is OUT_OF_FUEL: _fuel = _sf = True")
            em.emit("else:")
            em.indent += 1
            em.emit("_sv = True")
            em.emit("_nv += 1")
            em.emit("yield _x")
            em.indent -= 2
            em.emit("_tr.record4(_h[2], _sv, _sf)")
            em.indent -= 2
            if plan.has_recursive:
                em.emit("if _size == 0: _fuel = True")
            em.emit("if _fuel: yield OUT_OF_FUEL")
            em.emit("if _ob is not None: _ob.end_enum(_sp, _nv, _fuel)")
            em.indent -= 1
        else:  # gen
            em.emit("def rec(_size, _top, _ins, _rng):")
            em.indent += 1
            if params:
                comma = "," if len(ins) == 1 else ""
                em.emit(f"{params}{comma} = _ins")
            self._emit_instr_locals(em)
            em.emit(f"if _ob is not None: {span_begin}")
            self._emit_entry_charge(
                em,
                "if _ob is not None: _ob.end_gen(_sp, OUT_OF_FUEL, 0)",
                "return OUT_OF_FUEL",
            )
            em.emit("_na = 0")
            em.emit("if _size == 0:")
            em.indent += 1
            self._emit_candidates(em, "base")
            em.emit("_sz1 = None")
            em.emit(f"_fuel = {plan.has_recursive!r}")
            em.indent -= 1
            em.emit("else:")
            em.indent += 1
            self._emit_candidates(em, "full")
            em.emit("_sz1 = _size - 1")
            em.emit("_fuel = False")
            em.indent -= 1
            em.emit(
                "_live = [[_h, 2, ((_size if _h[1] else 1) or 1)]"
                " for _h in _hs]"
            )
            em.emit("while _live:")
            em.indent += 1
            em.emit("_total = 0")
            em.emit("for _e in _live: _total += _e[2]")
            em.emit("_pick = _rng.randrange(_total)")
            em.emit("for _e in _live:")
            em.indent += 1
            em.emit("if _pick < _e[2]: break")
            em.emit("_pick -= _e[2]")
            em.indent -= 1
            em.emit("_h = _e[0]")
            self._emit_handler_charge(em, "_fuel = True", "break")
            em.emit("_na += 1")
            args = f", {params}" if params else ""
            em.emit(f"_res = _h[0](_sz1, _top, _rng{args})")
            em.emit("if _res is FAIL:")
            em.indent += 1
            em.emit("if _tr is not None:"
                    " _tr.record4(_h[2], False, False)")
            em.indent -= 1
            em.emit("elif _res is OUT_OF_FUEL:")
            em.indent += 1
            em.emit("_fuel = True")
            em.emit("if _tr is not None:"
                    " _tr.record4(_h[2], False, True)")
            em.indent -= 1
            em.emit("else:")
            em.indent += 1
            em.emit("if _tr is not None:"
                    " _tr.record4(_h[2], True, False)")
            em.emit("if _ob is not None: _ob.end_gen(_sp, _res, _na)")
            em.emit("return _res")
            em.indent -= 1
            em.emit("_e[1] -= 1")
            em.emit("if _e[1] <= 0: _live.remove(_e)")
            em.indent -= 1
            em.emit("_res = OUT_OF_FUEL if _fuel else FAIL")
            em.emit("if _ob is not None: _ob.end_gen(_sp, _res, _na)")
            em.emit("return _res")
            em.indent -= 1


def _has_loop_ops(h: PlanHandler) -> bool:
    """Whether the handler contains producer loops (and so needs the
    per-item budget charge and its ``_bud`` probe)."""
    return any(
        op[0] in (OP_PRODUCE, OP_INSTANTIATE, OP_EVALREL) for op in h.ops
    )


# ---------------------------------------------------------------------------
# Checker emission: one op walker over term representations.
# ---------------------------------------------------------------------------

class _SpecUnsupported(Exception):
    """Raised during specialized emission when the plan does something
    the pass cannot represent; ``compile_checker`` falls back to the
    boxed-only artifact."""


class _SpecPlanCompiler(_PlanCompiler):
    """The checker and generator compiler: one op walker per kind for
    every fixpoint of that kind.

    Emits the handler/dispatch/fixpoint structure of the base compiler
    — op for op, with identical budget charge sites, trace record
    sites, and observe spans — over slots whose representation is
    tracked during emission (:mod:`repro.derive.specialize`): ``nat``
    slots may be Python ints, ``list`` slots nested pairs, and ground
    constants are interned.  Every specialized/boxed boundary (external
    calls into unspecialized siblings, function impls, producer loops)
    boxes with total coercions.

    Three compile sites in :func:`compile_checker` fix the reprs:

    * ``info=None`` — the boxed ``rec``, the all-``BOX`` case: every
      slot stays a :class:`Value` and premises are called through
      their public entry.  It is total, so it serves as the coercion
      fallback of the other two;
    * ``info`` with ``fast=False`` — the instrumented twin
      (``__spec_rec__``): native entry reprs, premises bound to the
      callee's instrumented twin where reprs agree.  It converts
      nothing partially, so once the entry coercion succeeded it
      cannot raise and re-running ``rec`` never follows an opened span
      or a charged op;
    * ``info`` with ``fast=True`` — the uninstrumented twin
      (``__spec_fast__``): additionally eagerly unboxes ``nat``
      components at ``TESTCTOR`` projections (statically
      type-directed, partial: an ill-typed value raises
      :class:`~repro.derive.specialize.SpecCoercionError`, which the
      entry wrapper catches by re-running ``rec``), omits every
      trace/observe/budget site, inlines straight-line handlers into
      the dispatch, and turns final-position recursion into a jump.

    :func:`compile_generator` uses the generator walker (``kind="gen"``)
    the same way: ``info=None`` gives the boxed ``rec`` and, with
    ``fast=True``, the boxed ``__fast_rec__``; ``info`` with
    ``fast=True`` gives the generator twin (``__spec_fast__``), which
    converts nothing partially (see :meth:`_emit_gen_handler`).
    """

    def __init__(
        self,
        ctx: Context,
        plan: Plan,
        info,
        boxed_rec,
        fast: bool = False,
        kind: str = "checker",
    ) -> None:
        # fast=True emits the instrumentation-free twin: every
        # trace/observe/budget site is omitted instead of guarded.
        # Those sites are no-ops whenever the corresponding cache entry
        # is absent, so the twin is observationally identical on
        # uninstrumented contexts — and the entry wrapper only selects
        # it in exactly that state.
        super().__init__(ctx, plan, kind, fast)
        self.all_box = info is None
        if info is None:
            n = len(plan.mode.ins)
            info = specialize.SpecInfo(
                (specialize.BOX,) * n,
                (None,) * n,
                (specialize.BOX,) * len(plan.mode.out_list),
            )
        self.info = info
        self.globals["_rbox"] = boxed_rec
        self.globals["_box_nat"] = specialize.box_nat
        self.globals["_unbox_nat"] = specialize.unbox_nat
        self._coercers: dict = {}
        self._srepr: dict[int, Any] = {}
        self._stype: dict[int, "TypeExpr | None"] = {}
        self._inline = False
        self._inline_fail = "break"
        self._tail_ok = False
        self._branch_key = None

    # .. repr helpers ............................................................

    def constant(self, value: Value) -> str:
        return super().constant(specialize.intern_value(value))

    def _boxer(self, r) -> str:
        if r == specialize.NAT:
            return "_box_nat"
        key = ("box", r)
        name = self._coercers.get(key)
        if name is None:
            name = self._coercers[key] = self._bind_global(
                "_boxr", specialize.boxer(r)
            )
        return name

    def _unboxer(self, r) -> str:
        if r == specialize.NAT:
            return "_unbox_nat"
        key = ("unbox", r)
        name = self._coercers.get(key)
        if name is None:
            name = self._coercers[key] = self._bind_global(
                "_unboxr", specialize.unboxer(r)
            )
        return name

    def _lit(self, x, r) -> str:
        """A Python literal for compile-time-converted constant *x* in
        repr *r* (boxed parts bind as interned const globals)."""
        if r == specialize.NAT:
            return repr(x)
        if r == specialize.BOX:
            return self.constant(x)
        if x == ():
            return "()"
        return f"({self._lit(x[0], r[1])}, {self._lit(x[1], r)})"

    def _const_in(self, value: Value, r) -> str:
        return self._lit(specialize.value_in_repr(value, r), r)

    def _ctor_owner(self, name: str) -> str | None:
        try:
            return self.ctx.datatypes.owner_of(name).name
        except UnknownNameError:
            return None

    # .. expressions .............................................................

    def sexpr(self, e: tuple, hint=None) -> tuple[str, Any]:
        """Compile an expression; returns ``(code, repr)``.  Constants
        (and nat/list constructor applications) adapt to *hint* when
        they can; everything else reports its natural repr and the
        caller coerces with a total boxer if needed.  The all-``BOX``
        compiler adapts everything to ``BOX``."""
        if hint is None and self.all_box:
            hint = specialize.BOX
        tag = e[0]
        if tag == X_SLOT:
            return self.slot(e[1]), self._srepr.get(e[1], specialize.BOX)
        if tag == X_CONST:
            want = hint if hint is not None else specialize.BOX
            try:
                return self._const_in(e[1], want), want
            except specialize.SpecCoercionError:
                return self.constant(e[1]), specialize.BOX
        if tag == X_CTOR:
            return self._ctor_expr(e, hint)
        # X_FUN: declared impls take and return boxed values.
        args = ", ".join(self.boxed(a) for a in e[2])
        fn_name = self._bind_fn(f"_f_{e[3]}", e[1])
        return f"{fn_name}({args})", specialize.BOX

    def _ctor_expr(self, e: tuple, hint) -> tuple[str, Any]:
        name = e[1]
        owner = self._ctor_owner(name)
        if owner == "nat" and hint in (None, specialize.NAT):
            if name == "O":
                return "0", specialize.NAT
            code, r = self.sexpr(e[2][0], hint=specialize.NAT)
            if r == specialize.NAT:
                return f"({code} + 1)", specialize.NAT
        elif owner == "list" and type(hint) is tuple:
            if name == "nil":
                return "()", hint
            hd, rh = self.sexpr(e[2][0], hint=hint[1])
            tl, rt = self.sexpr(e[2][1], hint=hint)
            if rh == hint[1] and rt == hint:
                return f"({hd}, {tl})", hint
        args = ", ".join(self.boxed(a) for a in e[2])
        trailing = "," if len(e[2]) == 1 else ""
        return f"Value({name!r}, ({args}{trailing}))", specialize.BOX

    def boxed(self, e: tuple) -> str:
        """Compile an expression to its boxed form (total coercion)."""
        code, r = self.sexpr(e, hint=specialize.BOX)
        if r == specialize.BOX:
            return code
        return f"{self._boxer(r)}({code})"

    def sargs_tuple(self, exprs: tuple) -> str:
        return _tuple_code([self.boxed(e) for e in exprs])

    # .. slot typing (drives eager unboxing at projections) ......................

    def _expr_type(self, e: tuple) -> "TypeExpr | None":
        tag = e[0]
        if tag == X_SLOT:
            return self._stype.get(e[1])
        if tag == X_CONST:
            return self._value_type(e[1])
        if tag == X_CTOR:
            owner = self._ctor_owner(e[1])
            if owner is not None and not self.ctx.datatypes.get(owner).params:
                return Ty(owner)
            return None
        decl = self.ctx.functions.get(e[3])
        if decl is not None and is_ground(decl.result_type):
            return decl.result_type
        return None

    def _value_type(self, v: Value) -> "TypeExpr | None":
        owner = self._ctor_owner(v.ctor)
        if owner is not None and not self.ctx.datatypes.get(owner).params:
            return Ty(owner)
        return None

    def _component_types(self, src: int, ctor: str):
        ty = self._stype.get(src)
        if not isinstance(ty, Ty) or ty.name not in self.ctx.datatypes:
            return None
        dt = self.ctx.datatypes.get(ty.name)
        if not dt.has_constructor(ctor) or len(dt.params) != len(ty.args):
            return None
        return dt.constructor_arg_types(ctor, ty.args)

    # .. tests ...................................................................

    def _emit_test(self, em: _Emitter, op: tuple, fail: str) -> None:
        tag = op[0]
        if tag == OP_TESTCTOR:
            self._emit_testctor(em, op, fail)
        elif tag == OP_TESTCONST:
            src, r = op[1], self._srepr.get(op[1], specialize.BOX)
            try:
                lit = self._const_in(op[2], r)
            except specialize.SpecCoercionError:
                # The constant does not inhabit the slot's repr (an
                # ill-typed rule would be rejected earlier; this guards
                # the emission): compare boxed.
                code = self.slot(src)
                if r != specialize.BOX:
                    code = f"{self._boxer(r)}({code})"
                self._fail(em, f"{code} != {self.constant(op[2])}", fail)
                return
            self._fail(em, f"{self.slot(src)} != {lit}", fail)
        else:  # OP_TESTEQ
            cmp = "==" if op[3] else "!="
            a, ra = self.sexpr(op[1])
            b, rb = self.sexpr(op[2], hint=ra)
            if rb != ra:
                a2, ra2 = self.sexpr(op[1], hint=rb)
                if ra2 == rb:
                    a, ra = a2, ra2
                else:
                    if ra != specialize.BOX:
                        a = f"{self._boxer(ra)}({a})"
                    if rb != specialize.BOX:
                        b = f"{self._boxer(rb)}({b})"
            self._fail(em, f"{a} {cmp} {b}", fail)

    def _emit_testctor(self, em: _Emitter, op: tuple, fail: str) -> None:
        src, ctor, dsts = op[1], op[2], op[3]
        r = self._srepr.get(src, specialize.BOX)
        sname = self.slot(src)
        # Inside an inlined dispatch branch the scrutinee's head is
        # already established — skip the re-test, keep projections.
        known = (
            self._inline
            and src == self.plan.dispatch_pos
            and ctor == self._branch_key
        )
        if r == specialize.NAT:
            if ctor == "S":
                if not known:
                    self._fail(em, f"{sname} <= 0", fail)
                em.emit(f"{self.slot(dsts[0])} = {sname} - 1")
                self._srepr[dsts[0]] = specialize.NAT
                self._stype[dsts[0]] = Ty("nat")
            elif ctor == "O":
                if not known:
                    self._fail(em, f"{sname} != 0", fail)
            else:
                raise _SpecUnsupported(f"constructor {ctor!r} on a nat slot")
            return
        if type(r) is tuple:
            if ctor == "cons":
                if not known:
                    self._fail(em, f"not {sname}", fail)
                hd, tl = dsts
                em.emit(f"{self.slot(hd)} = {sname}[0]")
                em.emit(f"{self.slot(tl)} = {sname}[1]")
                self._srepr[hd] = r[1]
                self._srepr[tl] = r
                ty = self._stype.get(src)
                if isinstance(ty, Ty) and ty.name == "list":
                    self._stype[hd] = ty.args[0]
                    self._stype[tl] = ty
            elif ctor == "nil":
                if not known:
                    self._fail(em, f"{sname}", fail)
            else:
                raise _SpecUnsupported(f"constructor {ctor!r} on a list slot")
            return
        # Boxed source: the standard head test.  The fast twin also
        # eagerly unboxes nat components (the handwritten checkers'
        # ``to_int`` move — partial, but statically type-directed, and
        # any failure on an ill-typed value unwinds to the entry's
        # boxed fallback).  The instrumented twins keep them boxed: an
        # unwind there would follow an opened span and charged ops.
        if not known:
            self._fail(em, f"{sname}.ctor != {ctor!r}", fail)
        comp_types = self._component_types(src, ctor)
        for k, dst in enumerate(dsts):
            ty = comp_types[k] if comp_types is not None else None
            if (
                self.fast
                and self.kind == "checker"
                and isinstance(ty, Ty)
                and ty.name == "nat"
            ):
                em.emit(f"{self.slot(dst)} = _unbox_nat({sname}.args[{k}])")
                self._srepr[dst] = specialize.NAT
            else:
                em.emit(f"{self.slot(dst)} = {sname}.args[{k}]")
                self._srepr[dst] = specialize.BOX
            self._stype[dst] = ty

    # .. calls ...................................................................

    def _emit_tail_jump(self, em: _Emitter, exprs: tuple) -> bool:
        """Try to emit a final-position RECCHECK as a loop iteration
        (``_size/_in* = ...; continue``).  Only legal when every
        argument already sits in its entry repr; returns False (and
        emits nothing) otherwise, leaving the caller to emit a call."""
        parts = self._native_args(exprs, self.info.entry_reprs)
        if parts is None:
            return False
        em.emit("_size = _size1")
        if parts:
            targets = ", ".join(self._ins_params())
            em.emit(f"{targets} = {', '.join(parts)}")
        em.emit("continue")
        return True

    def _native_args(self, exprs: tuple, wanted: tuple) -> "list | None":
        """The argument codes when every expression compiles straight
        into its *wanted* repr, else ``None`` (no runtime unboxing)."""
        parts = []
        for e, w in zip(exprs, wanted):
            code, r = self.sexpr(e, hint=w)
            if r != w:
                return None
            parts.append(code)
        return parts

    def _rec_call(self, exprs: tuple) -> str:
        parts = self._native_args(exprs, self.info.entry_reprs)
        if parts is not None:
            return f"rec(_size1, _top, {', '.join(parts)})"
        # Repr mismatch: hand the call to the boxed twin (same charge
        # sites, same verdicts) instead of unboxing at runtime.
        boxed = ", ".join(self.boxed(e) for e in exprs)
        return f"_rbox(_size1, _top, {boxed})"

    def _check_call(self, op: tuple) -> str:
        """A premise call: the callee's matching twin, bound directly
        when every argument already sits in its entry repr (``lt``
        inside ``bst`` is then one call on ints), else its public
        entry.  The boxed ``rec`` always takes the public entry.

        A generator twin must never raise a coercion error, while a
        checker's fast twin unboxes ``nat`` components of its boxed
        arguments eagerly; so a generator binds it only when no
        argument is boxed, and otherwise takes the public entry, which
        falls back internally."""
        fn = self.checker_fn(op[4])
        attr = "__spec_fast__" if self.fast else "__spec_rec__"
        srec = None if self.all_box else getattr(fn, attr, None)
        wanted = getattr(fn, "__spec_reprs__", None)
        if self.kind == "gen" and wanted is not None and specialize.BOX in wanted:
            srec = None
        if srec is not None and wanted is not None and len(op[2]) == len(wanted):
            parts = self._native_args(op[2], wanted)
            if parts is not None:
                f = self._bind_fn(f"_spchk_{op[4]}", srec)
                return f"{f}(_top, _top, {', '.join(parts)})"
        f = self._bind_fn(f"_chk_{op[4]}", fn)
        return f"{f}(_top, {self.sargs_tuple(op[2])})"

    # .. the checker body ........................................................

    def _emit_checker_handler(self, em: _Emitter, h: PlanHandler) -> None:
        mode_ins = self.plan.mode.ins
        self._srepr = dict(enumerate(self.info.entry_reprs))
        self._stype = dict(enumerate(self.info.entry_types))
        assert len(mode_ins) == len(self.info.entry_reprs)
        em.emit(f"def _h_{h.index}({self._handler_params()}):")
        em.indent += 1
        if _has_loop_ops(h) and not self.fast:
            # Only handlers with producer loops charge per item; the
            # budget probe is scoped to them so straightline handlers
            # stay probe-free.
            em.emit("_bud = _ctx.caches.get('derive_budget')")
        em.emit("_inc = False")
        self._emit_checker_ops(em, h.ops, 0, depth=0)
        em.emit("return NONE_OB if _inc else SOME_FALSE")
        em.indent -= 1

    def _emit_loop_charge(self, em: _Emitter, *stmts: str) -> None:
        if not self.fast:
            super()._emit_loop_charge(em, *stmts)

    def _emit_top(self, em: _Emitter) -> None:
        if not self.fast or self.kind == "gen":
            super()._emit_top(em)
            return
        # The fast twin's fixpoint: no trace/observe/budget sites, and
        # straight-line handlers are inlined into the dispatch (the
        # single-iteration ``while`` supplies the "next handler" jump),
        # so a recursion level costs one Python call instead of one per
        # handler attempt.  Handlers with producer loops keep their
        # function form and are called like the instrumented top does.
        # The whole body sits in a ``while True`` so that a RECCHECK in
        # final position of a branch's final handler becomes a
        # ``continue`` (tail recursion as iteration); ``_none`` then
        # accumulates across iterations, which is exactly the OR the
        # per-level return mapping computes (a level's ``None`` answer
        # turns every enclosing level's answer into ``None``).
        plan = self.plan
        params = ", ".join(self._ins_params())
        em.emit(f"def rec(_size, _top, {params or '*_'}):")
        em.indent += 1
        em.emit("_none = False")
        em.emit("while True:")
        em.indent += 1
        em.emit("if _size == 0:")
        em.indent += 1
        em.emit("_size1 = None")
        if plan.has_recursive:
            em.emit("_none = True")
        self._emit_inline_dispatch(
            em, plan.base, plan.base_table, plan.base_default
        )
        em.indent -= 1
        em.emit("else:")
        em.indent += 1
        em.emit("_size1 = _size - 1")
        self._emit_inline_dispatch(
            em, plan.handlers, plan.full_table, plan.full_default
        )
        em.indent -= 1
        em.emit("return NONE_OB if _none else SOME_FALSE")
        em.indent -= 2

    def _emit_inline_dispatch(
        self, em: _Emitter, handlers: tuple, table, default
    ) -> None:
        plan = self.plan
        if plan.dispatch_pos < 0:
            self._emit_inline_handlers(em, handlers)
            return
        p = plan.dispatch_pos
        r = self.info.entry_reprs[p]
        scrut = f"_in{p}"

        def branch_handlers(key: str) -> None:
            # The key is established only when the branch's handlers
            # came from the table (the default pool mixes heads).
            self._branch_key = key if key in table else None
            try:
                self._emit_inline_handlers(em, table.get(key, default))
            finally:
                self._branch_key = None

        if r == specialize.NAT:
            em.emit(f"if {scrut} > 0:")
            em.indent += 1
            branch_handlers("S")
            em.indent -= 1
            em.emit("else:")
            em.indent += 1
            branch_handlers("O")
            em.indent -= 1
        elif type(r) is tuple:
            em.emit(f"if {scrut}:")
            em.indent += 1
            branch_handlers("cons")
            em.indent -= 1
            em.emit("else:")
            em.indent += 1
            branch_handlers("nil")
            em.indent -= 1
        else:
            em.emit(f"_c = {scrut}.ctor")
            branch = "if"
            for ctor in table:
                em.emit(f"{branch} _c == {ctor!r}:")
                em.indent += 1
                branch_handlers(ctor)
                em.indent -= 1
                branch = "elif"
            em.emit("else:")
            em.indent += 1
            self._emit_inline_handlers(em, default)
            em.indent -= 1

    def _emit_inline_handlers(self, em: _Emitter, handlers: tuple) -> None:
        if not handlers:
            em.emit("pass")
            return
        ins = ", ".join(self._ins_params())
        sep = ", " if ins else ""
        exhausted = "return NONE_OB if _none else SOME_FALSE"
        for h in handlers:
            last = h is handlers[-1]
            if _has_loop_ops(h):
                em.emit(f"_r = _h_{h.index}(_size1, _top{sep}{ins})")
                em.emit("if _r is SOME_TRUE:")
                em.indent += 1
                em.emit("return SOME_TRUE")
                em.indent -= 1
                em.emit("if _r is NONE_OB: _none = True")
                continue
            self._srepr = dict(enumerate(self.info.entry_reprs))
            self._stype = dict(enumerate(self.info.entry_types))
            self._inline = True
            # The last handler of a branch needs no "next handler"
            # jump: a failure IS the branch verdict, so it emits bare
            # (no single-iteration while) with the final return as its
            # fail target — which also legalizes the tail-``continue``.
            self._inline_fail = exhausted if last else "break"
            self._tail_ok = last
            if not last:
                em.emit("while True:")
                em.indent += 1
            try:
                self._emit_checker_ops(em, h.ops, 0, depth=0)
            finally:
                self._inline = False
                self._inline_fail = "break"
                self._tail_ok = False
            if not last:
                em.indent -= 1

    def _emit_checker_ops(self, em: _Emitter, ops: tuple, i: int, depth: int) -> None:
        inline = self._inline and depth == 0
        fail = (
            self._inline_fail
            if inline
            else ("return SOME_FALSE" if depth == 0 else "continue")
        )
        n = len(ops)
        while i < n:
            op = ops[i]
            tag = op[0]
            if tag == OP_EVAL:
                code, r = self.sexpr(op[2])
                em.emit(f"{self.slot(op[1])} = {code}")
                self._srepr[op[1]] = r
                self._stype[op[1]] = self._expr_type(op[2])
            elif tag in (OP_TESTCTOR, OP_TESTCONST, OP_TESTEQ):
                self._emit_test(em, op, fail)
            elif tag in (OP_CHECK, OP_RECCHECK):
                if (
                    tag == OP_RECCHECK
                    and inline
                    and self._tail_ok
                    and i == n - 1
                    and self._emit_tail_jump(em, op[1])
                ):
                    return
                r = f"_r{i}"
                if tag == OP_RECCHECK:
                    em.emit(f"{r} = {self._rec_call(op[1])}")
                else:
                    em.emit(f"{r} = {self._check_call(op)}")
                    if op[3]:
                        em.emit(f"{r} = _negate({r})")
                if inline:
                    em.emit(f"if {r} is not SOME_TRUE:")
                    em.indent += 1
                    em.emit(f"if {r} is NONE_OB: _none = True")
                    em.emit(fail)
                    em.indent -= 1
                elif depth == 0:
                    # Straight-line `.&&`: None propagates as None.
                    self._fail(em, f"{r} is NONE_OB", "return NONE_OB")
                    self._fail(em, f"{r} is not SOME_TRUE", "return SOME_FALSE")
                else:
                    # Inside an enumeration loop: a None kills this
                    # branch but taints the search (bindEC accounting).
                    em.emit(f"if {r} is not SOME_TRUE:")
                    em.indent += 1
                    self._fail(em, f"{r} is NONE_OB", "_inc = True")
                    em.emit(fail)
                    em.indent -= 1
            elif tag == OP_EVALREL:
                # Functionalized premise (repro.analysis.determinacy):
                # at most one answer exists, so commit to the first
                # definite item and continue straightline.  The local
                # incomplete flag mirrors the interpreter's — markers
                # are moot once the answer is found, and without one
                # they decide None vs definite-false for this op only.
                # Loop ops keep their handler out of the inlined
                # dispatch, so this op never runs inline.
                item, got, inc = f"_it{i}", f"_g{i}", f"_ic{i}"
                assert not op[5]  # the transform skips recursive ops
                ev = self.eval_twin(op[6], op[7]) if self.fast else None
                if ev is not None:
                    # The premise carries a direct-eval twin: one call,
                    # no producer loop.  OUT_OF_FUEL absorbs every
                    # marker the loop form would have tallied; FAIL is
                    # the loop's complete-and-empty exit.  Outputs
                    # arrive boxed, as from the enumerator.
                    fn = self._bind_fn(f"_ev_{op[6]}", ev)
                    args = ", ".join(self.boxed(e) for e in op[3])
                    em.emit(f"{got} = {self.eval_call(fn, args)}")
                    em.emit(f"if {got} is OUT_OF_FUEL or {got} is FAIL:")
                    em.indent += 1
                    if depth == 0:
                        em.emit(
                            f"return NONE_OB if {got} is OUT_OF_FUEL"
                            " else SOME_FALSE"
                        )
                    else:
                        self._fail(
                            em, f"{got} is OUT_OF_FUEL", "_inc = True"
                        )
                        em.emit(fail)
                    em.indent -= 1
                    self._emit_outs(em, op, got)
                    i += 1
                    continue
                fn = self._bind_fn(
                    f"_enum_{op[6]}", self.producer_fn(op[6], op[7])
                )
                em.emit(f"{got} = None")
                em.emit(f"{inc} = False")
                em.emit(f"for {item} in {fn}(_top, {self.sargs_tuple(op[3])}):")
                em.indent += 1
                self._emit_loop_charge(em, f"{inc} = True", "break")
                em.emit(f"if {item} is OUT_OF_FUEL or {item} is FAIL:")
                em.indent += 1
                em.emit(f"{inc} = True")
                em.emit("continue")
                em.indent -= 1
                em.emit(f"{got} = {item}")
                em.emit("break")
                em.indent -= 1
                em.emit(f"if {got} is None:")
                em.indent += 1
                if depth == 0:
                    em.emit(f"return NONE_OB if {inc} else SOME_FALSE")
                else:
                    self._fail(em, inc, "_inc = True")
                    em.emit(fail)
                em.indent -= 1
                if not self.fast:
                    em.emit("_st = _ctx.caches.get('derive_stats')")
                    em.emit("if _st is not None:")
                    em.indent += 1
                    em.emit("_st.functionalized_calls += 1")
                    em.indent -= 1
                self._emit_outs(em, op, got)
            elif tag == OP_PRODUCE:
                item = f"_it{i}"
                assert not op[5]  # checker schedules: external only
                fn = self._bind_fn(
                    f"_enum_{op[6]}", self.producer_fn(op[6], op[7])
                )
                em.emit(f"for {item} in {fn}(_top, {self.sargs_tuple(op[3])}):")
                em.indent += 1
                self._emit_loop_charge(em, "_inc = True", "break")
                em.emit(f"if {item} is OUT_OF_FUEL or {item} is FAIL:")
                em.indent += 1
                em.emit("_inc = True")
                em.emit("continue")
                em.indent -= 1
                self._emit_outs(em, op, item)
                self._emit_checker_ops(em, ops, i + 1, depth + 1)
                em.indent -= 1
                return
            else:  # OP_INSTANTIATE
                item = self.slot(op[1])
                self._srepr[op[1]] = specialize.BOX
                self._stype[op[1]] = op[2]
                enum_fn = self._bind_global(
                    "_arb", _make_arbitrary_enum(self.ctx, op[2])
                )
                em.emit(f"for {item} in {enum_fn}(_top):")
                em.indent += 1
                em.emit(f"if {item} is OUT_OF_FUEL:")
                em.indent += 1
                em.emit("_inc = True")
                em.emit("continue")
                em.indent -= 1
                # Charge after the marker test: the interpreter's
                # instantiate loop sees raw values only (the fuel
                # marker lives outside its stream), so charging the
                # marker here would desynchronize the op streams.
                self._emit_loop_charge(em, "_inc = True", "break")
                self._emit_checker_ops(em, ops, i + 1, depth + 1)
                em.indent -= 1
                return
            i += 1
        em.emit("return SOME_TRUE")

    # .. the generator body ......................................................

    def _emit_gen_handler(self, em: _Emitter, h: PlanHandler) -> None:
        """A generator handler: ops, draws and failure returns in plan
        order, over tracked reprs (all ``BOX`` in the boxed fixpoints).
        The twin converts nothing partially — no eager unboxing at
        projections, premise twins bound only where they cannot raise —
        so once the entry coercion succeeded it returns what the boxed
        fast twin returns, after the same draws."""
        self._srepr = dict(enumerate(self.info.entry_reprs))
        self._stype = dict(enumerate(self.info.entry_types))
        em.emit(f"def _h_{h.index}({self._handler_params()}):")
        em.indent += 1
        for i, op in enumerate(h.ops):
            tag = op[0]
            if tag == OP_EVAL:
                code, r = self.sexpr(op[2])
                em.emit(f"{self.slot(op[1])} = {code}")
                self._srepr[op[1]] = r
                self._stype[op[1]] = self._expr_type(op[2])
            elif tag in (OP_TESTCTOR, OP_TESTCONST, OP_TESTEQ):
                self._emit_test(em, op, "return FAIL")
            elif tag == OP_CHECK:
                r = f"_r{i}"
                em.emit(f"{r} = {self._check_call(op)}")
                if op[3]:
                    em.emit(f"{r} = _negate({r})")
                em.emit(f"if {r} is not SOME_TRUE:")
                em.indent += 1
                em.emit(f"return OUT_OF_FUEL if {r} is NONE_OB else FAIL")
                em.indent -= 1
            elif tag == OP_RECCHECK:
                raise AssertionError(
                    "producer schedules never contain recursive checker calls"
                )
            elif tag in (OP_PRODUCE, OP_EVALREL):
                item = f"_it{i}"
                call, reprs = self._gen_call(op)
                em.emit(f"{item} = {call}")
                em.emit(f"if {item} is FAIL or {item} is OUT_OF_FUEL:")
                em.indent += 1
                em.emit(f"return {item}")
                em.indent -= 1
                self._emit_outs(em, op, item, reprs)
            else:  # OP_INSTANTIATE
                gen_fn = self._bind_global(
                    "_arbg", _make_arbitrary_gen(self.ctx, op[2])
                )
                item = self.slot(op[1])
                em.emit(f"{item} = {gen_fn}(_top, _rng)")
                em.emit(f"if {item} is FAIL or {item} is OUT_OF_FUEL:")
                em.indent += 1
                em.emit(f"return {item}")
                em.indent -= 1
                # The boxed draw, then a total conversion of a value
                # the arbitrary generator built well-typed.
                r = specialize.repr_of(op[2])
                if r == specialize.NAT and not self.all_box:
                    em.emit(f"{item} = _unbox_nat({item})")
                else:
                    r = specialize.BOX
                self._srepr[op[1]] = r
                self._stype[op[1]] = op[2]
        outs = []
        for e, w in zip(h.out_exprs, self.info.out_reprs):
            code, r = self.sexpr(e, hint=w)
            if r != w:
                if w != specialize.BOX:
                    raise _SpecUnsupported(
                        f"output of {h.rule} not in repr {w!r}"
                    )
                code = f"{self._boxer(r)}({code})"
            outs.append(code)
        trailing = "," if len(outs) == 1 else ""
        em.emit(f"return ({', '.join(outs)}{trailing})")
        em.indent -= 1

    def _gen_call(self, op: tuple) -> tuple[str, tuple]:
        """A producer premise of a generator fixpoint and the reprs its
        outputs arrive in.  Recursion passes entry reprs (or hands a
        call whose arguments are not native to the boxed fast twin);
        an external premise binds the callee's generator twin when the
        argument reprs agree — a memo wrapper hides it, so memoized
        callees keep their counted public entry."""
        boxed_outs = (specialize.BOX,) * len(op[4])
        if op[5]:  # recursive self-call, one level down
            parts = self._native_args(op[3], self.info.entry_reprs)
            if parts is None:
                args = self.sargs_tuple(op[3])
                return f"_rbox(_size1, _top, {args}, _rng)", boxed_outs
            args = _tuple_code(parts)
            return f"rec(_size1, _top, {args}, _rng)", self.info.out_reprs
        fn = self.producer_fn(op[6], op[7])
        srec = None if self.all_box else getattr(fn, "__spec_fast__", None)
        wanted = getattr(fn, "__spec_reprs__", None)
        if srec is not None and len(op[3]) == len(wanted):
            parts = self._native_args(op[3], wanted)
            if parts is not None:
                f = self._bind_fn(f"_spgen_{op[6]}", srec)
                return (
                    f"{f}(_top, _top, {_tuple_code(parts)}, _rng)",
                    fn.__spec_out_reprs__,
                )
        f = self._bind_fn(f"_gen_{op[6]}", fn)
        return f"{f}(_top, {self.sargs_tuple(op[3])}, _rng)", boxed_outs

    def _emit_outs(
        self, em: _Emitter, op: tuple, src: str, reprs: tuple = ()
    ) -> None:
        """Bind a producer call's outputs from answer tuple *src*; they
        arrive in *reprs* (boxed when not given)."""
        types = self._produce_out_types(op) or (None,) * len(op[4])
        reprs = reprs or (specialize.BOX,) * len(op[4])
        for k, dst in enumerate(op[4]):
            em.emit(f"{self.slot(dst)} = {src}[{k}]")
            self._srepr[dst] = reprs[k]
            self._stype[dst] = types[k]

    def _produce_out_types(self, op: tuple):
        """Output types of a producer call (for downstream projection
        typing); ``None`` when they cannot be read off the relation."""
        try:
            relation = self.ctx.relations.get(op[6])
        except UnknownNameError:
            return None
        outs = op[7].out_list
        if len(outs) != len(op[4]):
            return None
        return tuple(relation.arg_types[j] for j in outs)

    # .. dispatch on native scrutinees ...........................................

    def _emit_candidates(self, em: _Emitter, which: str) -> None:
        plan = self.plan
        if plan.dispatch_pos < 0:
            em.emit(f"_hs = _all_{which}")
            return
        p = plan.dispatch_pos
        r = self.info.entry_reprs[p]
        scrut = f"_in{p}"
        if r == specialize.NAT:
            key = f"('S' if {scrut} > 0 else 'O')"
        elif type(r) is tuple:
            key = f"('cons' if {scrut} else 'nil')"
        else:
            key = f"{scrut}.ctor"
        em.emit(f"_hs = _disp_{which}.get({key}, _disp_{which}_d)")


def _tuple_code(parts: list) -> str:
    """A Python tuple display of the code strings *parts*."""
    trailing = "," if len(parts) == 1 else ""
    return f"({', '.join(parts)}{trailing})"


def _make_arbitrary_enum(ctx: Context, ty: TypeExpr):
    def arbitrary(fuel: int):
        yield from _enum_values(ctx, ty, fuel)
        if not slice_exhaustive(ctx, ty, fuel):
            yield OUT_OF_FUEL

    arbitrary.__name__ = f"arbitrary_{mangle(ty)}"
    return arbitrary


def _make_arbitrary_gen(ctx: Context, ty: TypeExpr):
    def arbitrary(fuel: int, rng):
        return _gen_value(ctx, ty, fuel, rng)

    arbitrary.__name__ = f"arbitrary_gen_{mangle(ty)}"
    return arbitrary


# ---------------------------------------------------------------------------
# Public entry points.
# ---------------------------------------------------------------------------

def _uninstrumented(caches) -> bool:
    """Whether no trace/observe/budget is installed — the state in
    which every site the fast twins omit is a no-op."""
    return (
        caches.get("derive_budget") is None
        and caches.get("derive_trace") is None
        and caches.get("derive_observe") is None
    )


def compile_checker(ctx: Context, schedule: Schedule):
    """Compile a checker schedule to ``fn(fuel, args) -> OptionBool``
    (the internal instance convention).

    All three fixpoints come from one walker (:class:`_SpecPlanCompiler`)
    with the representation fixed here: the boxed ``rec`` always; and,
    when :func:`repro.derive.specialize.spec_info` approves the plan, an
    instrumented and a fast representation-specialized twin fronted by
    unboxing coercions at the entry.  An ill-typed argument
    (``SpecCoercionError``) falls back to the boxed ``rec``, so the
    public behaviour is representation-independent.  The
    returned callable always carries ``__batch__`` — the amortized
    entry point that coerces/dispatches once per argument vector.
    """
    plan = lower_schedule(ctx, schedule)
    rec = _SpecPlanCompiler(ctx, plan, info=None, boxed_rec=None).compile()
    info = specialize.spec_info(ctx, plan)
    spec = fast = None
    if info is not None:
        try:
            spec = _SpecPlanCompiler(ctx, plan, info, rec).compile()
            fast = _SpecPlanCompiler(
                ctx, plan, info, rec, fast=True
            ).compile()
        except _SpecUnsupported:
            spec = fast = None
    if spec is None:
        # No representation change — but an eligible checker still gets
        # the instrumentation-free fast twin (all-boxed, handlers
        # inlined), with the instrumented rec as both the instrumented
        # path and the coercion fallback.
        binfo = specialize.boxed_info(ctx, plan)
        if binfo is not None:
            try:
                fastb = _SpecPlanCompiler(
                    ctx, plan, binfo, rec, fast=True
                ).compile()
            except _SpecUnsupported:
                fastb = None
            if fastb is not None:
                info, spec, fast = binfo, rec, fastb

    if spec is None:

        def check(fuel: int, args: tuple) -> Any:
            return rec(fuel, fuel, *args)

        def check_batch(fuel: int, argses) -> list:
            return [rec(fuel, fuel, *args) for args in argses]

    else:
        unbox = specialize.entry_unboxers(info.entry_reprs)
        CoercionError = specialize.SpecCoercionError

        def _spec_rec():
            # The fast twin omits trace/observe/budget sites, which are
            # all no-ops when the caches are empty — select it exactly
            # then; any installed instrumentation keeps the full twin.
            # ``ctx.caches`` resolves per call to the *current
            # session's* state, so the selection is session-correct.
            return fast if _uninstrumented(ctx.caches) else spec

        if unbox is None:

            def check(fuel: int, args: tuple) -> Any:
                try:
                    return _spec_rec()(fuel, fuel, *args)
                except CoercionError:
                    return rec(fuel, fuel, *args)

            def check_batch(fuel: int, argses) -> list:
                out = []
                s = _spec_rec()
                for args in argses:
                    try:
                        out.append(s(fuel, fuel, *args))
                    except CoercionError:
                        out.append(rec(fuel, fuel, *args))
                return out

        else:

            def check(fuel: int, args: tuple) -> Any:
                try:
                    sargs = [f(a) for f, a in zip(unbox, args)]
                except CoercionError:
                    return rec(fuel, fuel, *args)
                try:
                    return _spec_rec()(fuel, fuel, *sargs)
                except CoercionError:
                    return rec(fuel, fuel, *args)

            def check_batch(fuel: int, argses) -> list:
                out = []
                s = _spec_rec()
                for args in argses:
                    try:
                        sargs = [f(a) for f, a in zip(unbox, args)]
                        out.append(s(fuel, fuel, *sargs))
                    except CoercionError:
                        out.append(rec(fuel, fuel, *args))
                return out

        check.__spec_rec__ = spec
        check.__spec_fast__ = fast
        check.__spec_reprs__ = info.entry_reprs
        # Plan and reprs stay readable for the frozen emitter copies
        # under benchmarks/legacy, whose baselines splice premises.
        check.__spec_plan__ = plan
        check.__spec_info__ = info
        check.__spec_source__ = spec.__derived_source__
        check.__spec_fast_source__ = fast.__derived_source__
        check_batch.__spec_rec__ = spec
        check_batch.__spec_fast__ = fast
        check_batch.__spec_reprs__ = info.entry_reprs

    check.__wrapped_rec__ = rec
    check.__derived_source__ = rec.__derived_source__
    check.__batch__ = check_batch
    return check


def compile_enumerator(ctx: Context, schedule: Schedule):
    """Compile an enum schedule to ``fn(fuel, ins) -> iterator``.

    An instrumentation-free fast twin is compiled alongside and
    selected per call whenever no trace/observe/budget is installed
    (all the omitted sites are no-ops in that state).
    """
    plan = lower_schedule(ctx, schedule)
    rec = _PlanCompiler(ctx, plan, "enum").compile()
    if not specialize.specialization_enabled(ctx):

        def enum_st(fuel: int, ins: tuple):
            return rec(fuel, fuel, *ins)

    else:
        fast = _PlanCompiler(ctx, plan, "enum", fast=True).compile()

        def enum_st(fuel: int, ins: tuple):
            if _uninstrumented(ctx.caches):
                return fast(fuel, fuel, *ins)
            return rec(fuel, fuel, *ins)

        enum_st.__fast_rec__ = fast

    enum_st.__wrapped_rec__ = rec
    enum_st.__derived_source__ = rec.__derived_source__
    _attach_eval_twin(ctx, plan, enum_st)
    return enum_st


def _attach_eval_twin(ctx: Context, plan, enum_st) -> None:
    """Compile and attach the direct-eval twin (``__spec_eval__``) for
    an enum plan whose determinacy verdict is functional or better.
    Fast twins consume it at OP_EVALREL sites; nothing else does, so a
    plan that cannot take one simply keeps the loop form."""
    from .plan import functionalization_enabled

    if not functionalization_enabled(ctx):
        return
    if not specialize.specialization_enabled(ctx):
        return  # no fast twins exist to call it
    from ..analysis.determinacy import relation_verdict

    try:
        if not relation_verdict(ctx, plan.rel, plan.mode_str).at_most_one:
            return
        ev_rec = _PlanCompiler(ctx, plan, "enum", fast=True).compile_eval()
    except ReproError:
        return

    def enum_ev(fuel: int, ins: tuple):
        return ev_rec(fuel, fuel, *ins)

    enum_ev.__derived_source__ = ev_rec.__derived_source__
    enum_st.__spec_eval__ = enum_ev
    # Codegen consumers bypass the wrapper and call the fixpoint with
    # splatted arguments — no tuple, no extra frame per premise.
    enum_st.__spec_eval_rec__ = ev_rec


def compile_generator(ctx: Context, schedule: Schedule):
    """Compile a gen schedule to ``fn(fuel, ins, rng) -> tuple|marker``
    (with the same fast-twin selection as :func:`compile_enumerator`).

    When :func:`repro.derive.specialize.spec_info` approves the plan,
    the uninstrumented path runs a representation-specialized twin
    (``__spec_fast__``) instead, fronted by unboxing coercions at the
    entry and boxing at the exit.  An ill-typed input falls back to the
    boxed fast twin before anything is drawn; past the entry the twin
    cannot fail, and it makes the boxed twin's draws in the boxed
    twin's order, so samples and ``rng`` state are
    representation-independent.
    """
    plan = lower_schedule(ctx, schedule)
    rec = _SpecPlanCompiler(ctx, plan, None, None, kind="gen").compile()
    if not specialize.specialization_enabled(ctx):

        def gen_st(fuel: int, ins: tuple, rng):
            return rec(fuel, fuel, ins, rng)

    else:
        fast = _SpecPlanCompiler(
            ctx, plan, None, None, fast=True, kind="gen"
        ).compile()
        info = specialize.spec_info(ctx, plan)
        spec = None
        if info is not None:
            try:
                spec = _SpecPlanCompiler(
                    ctx, plan, info, fast, fast=True, kind="gen"
                ).compile()
            except _SpecUnsupported:
                spec = None

        if spec is None:

            def gen_st(fuel: int, ins: tuple, rng):
                if _uninstrumented(ctx.caches):
                    return fast(fuel, fuel, ins, rng)
                return rec(fuel, fuel, ins, rng)

        else:
            unbox = tuple(specialize.unboxer(r) for r in info.entry_reprs)
            box = tuple(specialize.boxer(r) for r in info.out_reprs)
            CoercionError = specialize.SpecCoercionError

            def gen_st(fuel: int, ins: tuple, rng):
                if not _uninstrumented(ctx.caches):
                    return rec(fuel, fuel, ins, rng)
                try:
                    sins = tuple([f(a) for f, a in zip(unbox, ins)])
                except CoercionError:
                    return fast(fuel, fuel, ins, rng)
                res = spec(fuel, fuel, sins, rng)
                if res is FAIL or res is OUT_OF_FUEL:
                    return res
                return tuple([f(x) for f, x in zip(box, res)])

            gen_st.__spec_fast__ = spec
            gen_st.__spec_reprs__ = info.entry_reprs
            gen_st.__spec_out_reprs__ = info.out_reprs

        gen_st.__fast_rec__ = fast

    gen_st.__wrapped_rec__ = rec
    gen_st.__derived_source__ = rec.__derived_source__
    return gen_st
