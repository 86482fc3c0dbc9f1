"""The derivation-and-certification stage.

One *pass* builds a fresh context per Software Foundations chapter
from its source text and derives every in-scope relation's checker
twice: through ``derive_checker`` (the analysis gate, then the
schedule interpreter) and through the compiled backend.  It also
derives, in fresh case-study contexts, the three Figure-3 checkers and
the four Figure-3 producer modes on both backends.  One *round*
certifies a fixed set of eight artifacts by translation validation.

Correctness: each pass must reproduce the Table-1 counts, no
obligation of any certificate may be refuted, and after timing, the
interpreted and compiled checkers of every relation must agree with
each other and with the reference semantics (``derivable``) on seeded
ground tuples.  Obligations the validator could not decide within its
budget (``inconclusive``) are counted, not failed: the statistical
completeness check of the ``bst iio`` generator is inconclusive on
about half of all validation seeds at 100 samples per input.
"""

from __future__ import annotations

import importlib
import random
from statistics import median
from time import perf_counter

from .calibration import SpeedTrack

#: Table 1 as this repository reproduces it: (in-scope relations,
#: relations derived, relations Algorithm 1 supports) per volume.
TABLE1 = {"LF": (36, 36, 6), "PLF": (71, 71, 19)}

#: Producer modes of the Figure-3 cells, and the checkers under test.
FIG3_ARTIFACTS = (
    ("bst", "bst", (("gen", "iio"),)),
    ("stlc", "typing", (("gen", "ioi"), ("enum", "iio"))),
    ("ifc", "indist_list", (("gen", "io"),)),
)

VALIDATION_DECLS = """
Inductive le : nat -> nat -> Prop :=
| le_n : forall n, le n n
| le_S : forall n m, le n m -> le n (S m).

Inductive Sorted : list nat -> Prop :=
| Sorted_nil : Sorted []
| Sorted_sing : forall x, Sorted [x]
| Sorted_cons : forall x y l,
    le x y -> Sorted (y :: l) -> Sorted (x :: y :: l).
"""

#: The certified artifacts: (metric suffix, context, kind, relation, mode).
CERTIFIED = (
    ("checker.le", "validation", "checker", "le", None),
    ("checker.Sorted", "validation", "checker", "Sorted", None),
    ("enum.le.oi", "validation", "enum", "le", "oi"),
    ("gen.le.oi", "validation", "gen", "le", "oi"),
    ("checker.bst", "bst", "checker", "bst", None),
    ("checker.typing", "stlc", "checker", "typing", None),
    ("checker.indist_list", "ifc", "checker", "indist_list", None),
    ("gen.bst.iio", "bst", "gen", "bst", "iio"),
)

#: Layer functions spanned in a traced pass or round.
LAYER_TARGETS = (
    ("repro.core.parser", "parse_declarations", "core.parse"),
    ("repro.analysis.checks", "analyze", "analysis.analyze"),
    ("repro.analysis.checks", "analyze_context", "analysis.analyze"),
    ("repro.analysis.determinacy", "relation_verdict", "analysis.determinacy"),
    ("repro.derive.preprocess", "preprocess_relation", "derive.preprocess"),
    ("repro.derive.scheduler", "build_schedule", "derive.schedule"),
    ("repro.derive.plan", "lower_schedule", "derive.lower"),
    ("repro.derive.codegen", "compile_checker", "derive.codegen"),
    ("repro.derive.codegen", "compile_enumerator", "derive.codegen"),
    ("repro.derive.codegen", "compile_generator", "derive.codegen"),
    ("repro.semantics.proof_search", "derivable", "semantics.reference"),
    ("repro.semantics.proof_search", "solutions", "semantics.reference"),
    ("repro.semantics.proof_search", "search_derivation", "semantics.reference"),
)

#: The fixpoint variants a compiled callable can carry.
_VARIANT_ATTRS = (
    "__wrapped_rec__", "__spec_rec__", "__spec_fast__", "__fast_rec__",
    "__spec_eval__",
)


class Toolchain:
    """Derivation passes and certification rounds over fresh contexts."""

    def __init__(self) -> None:
        import repro
        from repro.casestudies import bst, ifc, stlc
        from repro.sf.registry import CHAPTER_MODULES

        self.repro = repro
        self.chapters = [importlib.import_module(m) for m in CHAPTER_MODULES]
        self.cases = {"bst": bst, "stlc": stlc, "ifc": ifc}

    # -- derivation ----------------------------------------------------------

    def derive_pass(self, rng: random.Random, between=None) -> dict:
        """One cold pass; returns counts, failures and the contexts.
        *between* is called after each chapter and case study."""
        from repro.core.errors import ReproError
        from repro.core.relations import Relation
        from repro.derive.checker_core import algorithm1_supported
        from repro.derive.instances import CHECKER, ENUM, GEN, resolve_compiled

        repro = self.repro
        Mode = repro.Mode
        counts = {v: [0, 0, 0] for v in TABLE1}
        failures: list[str] = []
        contexts = []
        chapters = list(self.chapters)
        rng.shuffle(chapters)
        for mod in chapters:
            ctx = repro.standard_context()
            setup = getattr(mod, "setup", None)
            if setup is not None:
                setup(ctx)
            declared = repro.parse_declarations(ctx, mod.DECLARATIONS)
            names = []
            for rel in declared:
                if not isinstance(rel, Relation):
                    continue
                row = counts[mod.VOLUME]
                row[0] += 1
                if algorithm1_supported(rel):
                    row[2] += 1
                try:
                    repro.derive_checker(ctx, rel.name)
                    resolve_compiled(ctx, CHECKER, rel.name, Mode.checker(rel.arity))
                except ReproError as err:
                    failures.append(f"{mod.CHAPTER}.{rel.name}: {err}")
                    continue
                row[1] += 1
                names.append(rel.name)
            contexts.append((ctx, names))
            if between is not None:
                between()
        kinds = {"gen": GEN, "enum": ENUM}
        derive_producer = {
            "gen": repro.derive_generator, "enum": repro.derive_enumerator,
        }
        for case, rel, modes in FIG3_ARTIFACTS:
            ctx = self.cases[case].make_context()
            arity = ctx.relations.get(rel).arity
            repro.derive_checker(ctx, rel)
            resolve_compiled(ctx, CHECKER, rel, Mode.checker(arity))
            for kind, mode in modes:
                derive_producer[kind](ctx, rel, mode)
                resolve_compiled(ctx, kinds[kind], rel, Mode.from_string(mode))
            contexts.append((ctx, []))
            if between is not None:
                between()
        attempted = sum(row[0] for row in counts.values()) + sum(
            1 + len(modes) for _, _, modes in FIG3_ARTIFACTS
        )
        return {"counts": counts, "failures": failures, "contexts": contexts,
                "attempted": attempted}

    @staticmethod
    def table1_errors(result: dict) -> list[str]:
        errors = list(result["failures"])
        for volume, expected in TABLE1.items():
            got = tuple(result["counts"][volume])
            if got != expected:
                errors.append(
                    f"Table 1 {volume}: (in scope, derived, baseline) = "
                    f"{got}, expected {expected}"
                )
        return errors

    @staticmethod
    def codegen_size(result: dict) -> tuple[int, int]:
        """(source bytes, fixpoint variants) over every compiled
        instance of a pass, read from the callables' source attributes."""
        seen: set[int] = set()
        size = 0
        for ctx, _names in result["contexts"]:
            for key, inst in ctx.instances.items():
                if len(key) != 4 or key[3] != "compiled":
                    continue
                for attr in _VARIANT_ATTRS:
                    variant = getattr(inst.fn, attr, None)
                    source = getattr(variant, "__derived_source__", None)
                    if source is None or id(source) in seen:
                        continue
                    seen.add(id(source))
                    size += len(source.encode())
        return size, len(seen)

    # -- certification -------------------------------------------------------

    def certify_round(self, seed: int, tracer=None, between=None) -> list[tuple]:
        """Certify the eight artifacts in fresh contexts; returns
        ``(name, certificate, raw seconds)`` per artifact.  *between*
        is called after each artifact, outside its timing."""
        repro = self.repro
        cfg = repro.ValidationConfig(
            domain_depth=3, max_tuples=150, ref_depth=12, max_fuel=16,
            gen_samples=100, seed=seed,
        )
        validation = repro.standard_context()
        repro.parse_declarations(validation, VALIDATION_DECLS)
        contexts = {"validation": validation}
        for case, module in self.cases.items():
            contexts[case] = module.make_context()
        certify = {
            "checker": lambda ctx, rel, mode: repro.certify_checker(ctx, rel, cfg),
            "enum": lambda ctx, rel, mode: repro.certify_enumerator(ctx, rel, mode, cfg),
            "gen": lambda ctx, rel, mode: repro.certify_generator(ctx, rel, mode, cfg),
        }
        out = []
        for name, where, kind, rel, mode in CERTIFIED:
            t0 = perf_counter()
            if tracer is None:
                cert = certify[kind](contexts[where], rel, mode)
            else:
                with tracer.span(f"validation.certify.{name}"):
                    cert = certify[kind](contexts[where], rel, mode)
            out.append((name, cert, perf_counter() - t0))
            if between is not None:
                between()
        return out

    # -- reference agreement -------------------------------------------------

    def agreement(self, result: dict, seed: int) -> dict:
        """Interpreted and compiled checkers against each other and
        against ``derivable`` on two seeded ground tuples of every
        relation of a pass.  Checker calls run under the same
        deterministic op budget, so a blow-up answers ``None`` on both
        backends alike; a tuple the reference cannot decide within its
        node budget is skipped."""
        from repro.derive.instances import CHECKER, resolve_compiled
        from repro.semantics.proof_search import FlounderError, SearchConfig
        from repro.validation.domains import random_tuples

        repro = self.repro
        fuel, depth, max_ops = 10, 10, 20_000
        cfg = repro.ValidationConfig(domain_depth=2, seed=seed)
        search = SearchConfig(enum_depth=5, max_nodes=20_000)
        tuples = 0
        errors: list[str] = []
        for ctx, names in result["contexts"]:
            for name in names:
                rel = ctx.relations.get(name)
                interp = repro.derive_checker(ctx, name)
                compiled = resolve_compiled(
                    ctx, CHECKER, name, repro.Mode.checker(rel.arity)
                )
                for args in random_tuples(ctx, rel, cfg, count=2):
                    tuples += 1
                    with repro.budget_scope(ctx, max_ops=max_ops):
                        a = interp.check(fuel, args)
                    with repro.budget_scope(ctx, max_ops=max_ops):
                        b = compiled(fuel, args)
                    if a is not b:
                        errors.append(f"{name}{args}: interpreted {a}, compiled {b}")
                        continue
                    if a.is_none:
                        continue
                    try:
                        truth = repro.derivable(ctx, name, args, depth, search)
                        if a.is_true and not truth:
                            truth = repro.derivable(ctx, name, args, 2 * depth, search)
                    except FlounderError:
                        continue
                    if truth != a.is_true:
                        errors.append(f"{name}{args}: checkers say {a}, derivable {truth}")
        return {"tuples": tuples, "errors": errors}


def _totals(tracer) -> dict:
    return {k: v[2] for k, v in tracer.totals.items()}


def _delta(tracer, before: dict, factor: float) -> dict:
    return {
        k: (v - before.get(k, 0.0)) * factor for k, v in _totals(tracer).items()
    }


def run_stage(tc: Toolchain, seconds: float, rng: random.Random,
              tracer=None) -> dict:
    """Alternate cold passes and certification rounds for about
    *seconds* (at least one of each).  Times are at reference speed
    (see :mod:`.calibration`).  With a *tracer*, every layer call is
    spanned and each pass and round records its per-layer self times."""
    out = {
        "passes": [], "rounds": [], "errors": [], "attempted": 0,
        "per_artifact": {}, "pass_layers": [], "round_layers": [],
    }
    track = SpeedTrack()
    start = perf_counter()
    while True:
        cycle0 = perf_counter()
        spent0 = track.spent
        if tracer is None:
            last = tc.derive_pass(rng, track.sample)
        else:
            before = _totals(tracer)
            with tracer.instrument(LAYER_TARGETS), tracer.span("toolchain.pass"):
                last = tc.derive_pass(rng, track.sample)
        raw = perf_counter() - cycle0 - (track.spent - spent0)
        factor = track.mark()
        out["passes"].append(raw * factor)
        if tracer is not None:
            out["pass_layers"].append(_delta(tracer, before, factor))
        out["attempted"] += last["attempted"]
        out["errors"] += Toolchain.table1_errors(last)
        seed = rng.randrange(2**31)
        t0 = perf_counter()
        spent0 = track.spent
        if tracer is None:
            certs = tc.certify_round(seed, between=track.sample)
        else:
            before = _totals(tracer)
            with tracer.instrument(LAYER_TARGETS), tracer.span("validation.round"):
                certs = tc.certify_round(seed, tracer, track.sample)
        raw = perf_counter() - t0 - (track.spent - spent0)
        factor = track.mark()
        out["rounds"].append(raw * factor)
        if tracer is not None:
            out["round_layers"].append(_delta(tracer, before, factor))
        out["inconclusive"] = 0
        for name, cert, took in certs:
            out["attempted"] += 1
            out["per_artifact"].setdefault(name, []).append(took * factor)
            if cert.refuted:
                out["errors"].append(f"certificate {name} refuted:\n{cert.summary()}")
            out["inconclusive"] += sum(
                o.status == "inconclusive" for o in cert.obligations
            )
        out["obligation_cases"] = sum(
            o.cases for _, cert, _ in certs for o in cert.obligations
        )
        now = perf_counter()
        if now - start + (now - cycle0) > seconds:
            break
    out["last"] = last
    out["derive_corpus_s"] = median(out["passes"])
    out["certify_s"] = median(out["rounds"])
    out["speed"] = track.factor
    return out
