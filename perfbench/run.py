"""Run one workload of the repository benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload toolchain --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.  The lines before it print the same metrics by name and
unit.  Each run also appends a record (every value measured, the noise
controls and the messages of failed checks) to
``perfbench/out/runs.jsonl``; a traced run writes its spans to
``perfbench/out/trace-<workload>-<seed>.jsonl``.  The exit status is
0 when every correctness check passed and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"no program source at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    from harness.runner import WORKLOADS, run

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    result, record = run(
        args.workload, args.seed, args.seconds, bool(args.trace), out_dir
    )
    with open(os.path.join(out_dir, "runs.jsonl"), "a") as log:
        log.write(json.dumps(record) + "\n")
    for error in record["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    for name, value in record["noise"].items():
        print(f"noise {name} {value}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
