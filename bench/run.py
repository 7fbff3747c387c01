"""Benchmark of the nhfair command pipeline.

Run from the repository root:

    python3 bench/run.py --workload auc-jsonl --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``). Inputs are
generated from ``--seed`` under ``bench/.work/``; nhfair is imported
from ``./src`` and never modified. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

WORKLOADS = ("auc-jsonl", "multiclass-csv", "sweep-summaries")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "nhfair" / "__init__.py").is_file():
        print("run.py: no nhfair source under ./src; run it from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness
    import workloads

    result, raw = harness.run_workload(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        src, Path(__file__).resolve().parent / ".work" / args.workload,
    )
    for name, metric in result["metrics"].items():
        wall = f" (unscaled wall time {raw[name]:.6g} s)" if name in raw else ""
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}{wall}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
