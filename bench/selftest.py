"""Self-test of the benchmark harness. Run from the repository root:

    python3 bench/selftest.py

1. A small-size run of every workload, untraced and traced, passes its
   output checks, and only the comma/quote round trip fails.
2. The harness's reference metrics equal ``nhfair.oracle.oracle_metrics``
   on small random cohorts.
3. The evaluate check reports a failure for a deliberately perturbed
   table: one metric cell off by 1e-3, or two method rows swapped.
4. The workloads, metric names and units agree with BENCHMARK.json.
5. The span nesting check passes nested spans and reports a child span
   that outlasts its parent, two overlapping child spans, and a layer
   span outside any command span.

Exits 1 on the first failed part.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"


def small_runs(work: Path) -> None:
    import harness
    import workloads

    for name, w in workloads.WORKLOADS.items():
        for traced in (False, True):
            result, _ = harness.run_workload(w.scaled(0.05), 7, 0.0, traced, SRC, work / name)
            rounds = result["attempted"] // (5 if w.faulty_round_trip else 4)
            want_failed = rounds if w.faulty_round_trip else 0
            assert result["correct"], f"{name} (traced={traced}): checks failed"
            assert result["failed"] == want_failed, f"{name}: {result['failed']} failed"
            assert all(m["value"] == m["value"] for m in result["metrics"].values()), name
    print("selftest 1: PASS - small runs of every workload pass their checks")


def reference_matches_oracle() -> None:
    import numpy as np

    import reference
    from nhfair.errors import MetricError
    from nhfair.oracle import oracle_metrics
    from nhfair.synth import CohortSpec, generate

    rng = np.random.default_rng(2006)
    compared = 0
    for _ in range(60):
        n_labels, n_groups = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        labels = [f"l{i}" for i in range(n_labels)]
        groups = [f"g{i}" for i in range(n_groups)]
        spec = CohortSpec(
            seed=int(rng.integers(2**31)),
            n_per_group={g: int(rng.integers(1, 40)) for g in groups},
            class_prior={g: dict(zip(labels, rng.dirichlet(np.ones(n_labels)).tolist()))
                         for g in groups},
            confusion_spec={g: {y: dict(zip(labels, rng.dirichlet(np.ones(n_labels)).tolist()))
                                for y in labels} for g in groups},
            score_noise=float(rng.choice([0.0, 0.5, 2.0])),
        )
        kind = "auc" if n_labels == 2 and rng.random() < 0.5 else "accuracy"
        run = generate(spec, utility_kind=kind)
        for variant in ("diagonal", "full"):
            try:
                want = oracle_metrics(run, eqodd_variant=variant)
            except MetricError:
                continue
            got = reference.reference_report(run, variant)
            for metric, value in want.as_dict().items():
                if metric != "warnings":
                    assert abs(got.values[metric] - value) <= 1e-12, (metric, got, want)
            assert got.degenerate == bool(want.warnings), (got, want)
            compared += 1
    assert compared >= 60, compared
    print(f"selftest 2: PASS - reference metrics equal oracle_metrics on {compared} cohorts")


def perturbed_outputs_fail(work: Path) -> None:
    import harness
    import reference
    import workloads
    from nhfair import cli

    w = workloads.WORKLOADS["auc-jsonl"].scaled(0.02)
    inputs = workloads.setup(w, 3, work / "perturb" / "inputs")
    pipeline = harness.Pipeline(w, inputs, work / "perturb", harness.Clock())
    table = work / "perturb" / "table.csv"
    assert cli.main(["evaluate", "--out", str(table), *inputs.log_globs]) == 0
    assert reference.check_evaluate(table, pipeline.expected) == []

    lines = table.read_text(encoding="utf-8").splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    cells = lines[1].rstrip("\n").split(",")
    column = header.index("worst")
    mean, _, std = cells[column].partition(" ± ")
    cells[column] = f"{float(mean) + 0.1:.2f} ± {std}"  # 1e-3 as a fraction
    off_by = [lines[0], ",".join(cells) + "\n", *lines[2:]]
    swapped = [lines[0], lines[2], lines[1], *lines[3:]]
    for name, text in (("one cell off by 1e-3", off_by), ("two method rows swapped", swapped)):
        table.write_text("".join(text), encoding="utf-8")
        problems = reference.check_evaluate(table, pipeline.expected)
        assert problems, f"the check missed: {name}"
    print("selftest 3: PASS - the evaluate check rejects a perturbed cell and swapped rows")


def metrics_match_benchmark_json() -> None:
    import harness
    import run
    import workloads

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, ours in (("end_to_end", harness.END_TO_END), ("per_layer", harness.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert declared == ours, f"{key}: {set(declared) ^ set(ours)}"
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS), names
    print("selftest 4: PASS - workloads, metric names and units match BENCHMARK.json")


def nesting_check_fails() -> None:
    from trace import Span, nesting_problems

    nested = [Span(0, "cli.evaluate", None, 0.0, 10.0),
              Span(1, "records.parse_run", 0, 1.0, 4.0),
              Span(2, "metrics.group_auc", 0, 5.0, 6.0)]
    assert nesting_problems(nested) == [], nesting_problems(nested)
    outlasting = [*nested[:2], Span(2, "metrics.group_auc", 0, 5.0, 11.0)]
    assert nesting_problems(outlasting), "the check missed a child outlasting its parent"
    overlapping = [*nested[:2], Span(2, "metrics.group_auc", 0, 3.0, 9.0)]
    assert nesting_problems(overlapping), "the check missed overlapping child spans"
    orphan = [*nested, Span(3, "metrics.confusion", None, 11.0, 12.0)]
    assert nesting_problems(orphan), "the check missed a span outside any command"
    print("selftest 5: PASS - the span nesting check rejects spans that do not nest")


def main() -> int:
    if not (SRC / "nhfair" / "__init__.py").is_file():
        print("selftest.py: no nhfair source under ./src", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    work = BENCH / ".work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        small_runs(work)
        reference_matches_oracle()
        perturbed_outputs_fail(work)
        metrics_match_benchmark_json()
        nesting_check_fails()
    except AssertionError as exc:
        print(f"selftest: FAIL - {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
