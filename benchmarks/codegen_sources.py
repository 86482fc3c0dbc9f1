"""Dump and compare the generated source of every compiled fixpoint.

``dump`` compiles the checkers of every relation of the 16 Software
Foundations chapters, plus the three Figure-3 checkers and their
producer modes, and writes the ``__derived_source__`` of every fixpoint
variant of every compiled instance to a JSON file.  ``diff`` compares
two such files variant by variant::

    PYTHONPATH=src python benchmarks/codegen_sources.py dump OUT.json
    PYTHONPATH=src python benchmarks/codegen_sources.py diff A.json B.json

Run ``dump`` in two checkouts and ``diff`` the files to show which
emitted sources a code-generator change touched.
"""

from __future__ import annotations

import importlib
import json
import sys

#: The fixpoint variants a compiled callable can carry.
VARIANTS = (
    "__wrapped_rec__", "__spec_rec__", "__spec_fast__", "__fast_rec__",
    "__spec_eval__",
)

#: Figure-3 case studies: (module, checked relation, producer modes).
FIG3 = (
    ("bst", "bst", (("gen", "iio"),)),
    ("stlc", "typing", (("gen", "ioi"), ("enum", "iio"))),
    ("ifc", "indist_list", (("gen", "io"),)),
)


def _contexts():
    import repro
    from repro.core.errors import ReproError
    from repro.core.relations import Relation
    from repro.derive.instances import CHECKER, ENUM, GEN, resolve_compiled
    from repro.sf.registry import CHAPTER_MODULES

    for name in CHAPTER_MODULES:
        mod = importlib.import_module(name)
        ctx = repro.standard_context()
        setup = getattr(mod, "setup", None)
        if setup is not None:
            setup(ctx)
        for rel in repro.parse_declarations(ctx, mod.DECLARATIONS):
            if not isinstance(rel, Relation):
                continue
            try:
                repro.derive_checker(ctx, rel.name)
                resolve_compiled(
                    ctx, CHECKER, rel.name, repro.Mode.checker(rel.arity)
                )
            except ReproError:
                continue
        yield mod.CHAPTER, ctx
    kinds = {"gen": GEN, "enum": ENUM}
    for case, rel, modes in FIG3:
        ctx = importlib.import_module(f"repro.casestudies.{case}").make_context()
        arity = ctx.relations.get(rel).arity
        resolve_compiled(ctx, CHECKER, rel, repro.Mode.checker(arity))
        for kind, mode in modes:
            resolve_compiled(ctx, kinds[kind], rel, repro.Mode.from_string(mode))
        yield case, ctx


def dump(path: str) -> None:
    out: dict[str, dict[str, str]] = {}
    for where, ctx in _contexts():
        for key, inst in ctx.instances.items():
            if len(key) != 4 or key[3] != "compiled":
                continue
            sources = {}
            for attr in VARIANTS:
                source = getattr(
                    getattr(inst.fn, attr, None), "__derived_source__", None
                )
                if source is not None:
                    sources[attr] = source
            out[f"{where}:{key[0]}:{key[1]}:{key[2]}"] = sources
    with open(path, "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
    total = sum(len(s) for v in out.values() for s in v.values())
    count = sum(len(v) for v in out.values())
    print(f"{len(out)} instances, {count} sources, {total:,} bytes -> {path}")


def diff(path_a: str, path_b: str) -> None:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    for attr in VARIANTS:
        old = {k: v[attr] for k, v in a.items() if attr in v}
        new = {k: v[attr] for k, v in b.items() if attr in v}
        changed = sorted(k for k in old.keys() & new.keys() if old[k] != new[k])
        same = len(old.keys() & new.keys()) - len(changed)
        size_a = sum(len(s) for s in old.values())
        size_b = sum(len(s) for s in new.values())
        print(
            f"{attr}: {same} identical, {len(changed)} changed, "
            f"{len(new.keys() - old.keys())} added, "
            f"{len(old.keys() - new.keys())} removed; "
            f"{size_a:,} -> {size_b:,} bytes"
        )
        for k in changed:
            print(f"  changed {k}: {len(old[k]):,} -> {len(new[k]):,} bytes")


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "dump":
        dump(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "diff":
        diff(sys.argv[2], sys.argv[3])
    else:
        sys.exit(__doc__)
