"""Acceptance suite: one test per criterion, each printing PASS on success.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance and runtime bound is pinned here, not configurable.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import make_run, point, random_candidate_cloud, random_cohort_spec
from nhfair.cli import main
from nhfair.errors import AllGroupsDegenerate, NoEvaluableClass
from nhfair.metrics import group_auc, metric_report, pooled_auc
from nhfair.oracle import oracle_dto, oracle_metrics, oracle_select
from nhfair.records import write_run
from nhfair.selection import (
    Zone,
    dto_select,
    fwh_select,
    gap,
    parse_summaries,
    worst,
    zone_tally_table,
)
from nhfair.stats import friedman, nemenyi_cd, rank_matrix
from nhfair.synth import CohortSpec, generate
from nhfair.tables import ReportRow


def announce(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {message}")


# Published per-dataset results: method -> (overall, worst, gap), percent.
# The advantaged-group utility is reconstructed as worst + gap.
TABLE = {
    "celeba": {
        "kind": "acc",
        "rows": {
            "erm": (86.57, 83.76, 6.76), "randaug": (86.72, 83.89, 6.80),
            "mixup": (85.61, 82.74, 6.90), "resampling": (86.35, 83.44, 6.98),
            "bm": (85.93, 82.86, 7.38), "fis": (83.05, 79.33, 8.94),
            "decoupled": (86.35, 83.46, 6.93), "laftr": (86.55, 83.67, 6.93),
            "fscl": (85.61, 82.56, 7.35), "gapreg": (85.62, 83.17, 5.90),
            "mcdp": (80.26, 77.13, 7.52), "groupdro": (86.12, 83.50, 6.31),
            "dfr": (86.58, 83.78, 6.74), "oxonfair": (86.49, 83.63, 6.87),
        },
    },
    "utkface": {
        "kind": "acc",
        "rows": {
            "erm": (92.75, 91.78, 2.26), "randaug": (93.19, 92.19, 2.34),
            "mixup": (92.62, 91.55, 2.50), "resampling": (92.70, 91.60, 2.56),
            "bm": (93.33, 92.27, 2.47), "fis": (91.97, 90.91, 2.48),
            "decoupled": (91.68, 90.84, 1.97), "laftr": (93.17, 92.05, 2.61),
            "fscl": (93.52, 92.62, 2.10), "gapreg": (92.53, 91.70, 1.91),
            "mcdp": (92.49, 91.63, 2.00), "groupdro": (92.45, 91.41, 2.44),
            "dfr": (92.73, 91.60, 2.63), "oxonfair": (92.36, 91.11, 2.91),
        },
    },
    "fairface": {
        "kind": "acc",
        "rows": {
            "erm": (66.76, 66.34, 0.87), "randaug": (68.37, 67.69, 1.44),
            "mixup": (65.40, 64.50, 1.93), "resampling": (65.40, 64.51, 1.90),
            "bm": (65.66, 65.20, 0.97), "fis": (65.31, 64.59, 1.53),
            "decoupled": (67.03, 66.61, 0.87), "laftr": (66.44, 65.60, 1.76),
            "fscl": (65.42, 64.64, 1.66), "gapreg": (65.02, 64.12, 1.92),
            "mcdp": (66.06, 65.62, 0.90), "groupdro": (65.51, 65.22, 0.60),
            "dfr": (63.20, 62.45, 1.59),
        },
    },
    "facet": {
        "kind": "acc",
        "rows": {
            "erm": (67.55, 64.25, 4.31), "randaug": (67.83, 64.94, 3.78),
            "mixup": (67.86, 64.54, 4.33), "resampling": (67.56, 64.13, 4.48),
            "bm": (65.87, 62.67, 4.18), "fis": (67.60, 63.53, 5.33),
            "decoupled": (67.33, 62.60, 6.17), "laftr": (70.74, 68.60, 2.82),
            "fscl": (67.79, 65.02, 3.61), "gapreg": (67.01, 62.22, 6.26),
            "mcdp": (67.91, 64.21, 4.84), "groupdro": (67.20, 64.07, 4.08),
            "dfr": (66.87, 63.10, 4.92), "oxonfair": (68.09, 64.11, 5.21),
        },
    },
    "ham10000": {
        "kind": "auc",
        "rows": {
            "erm": (88.35, 84.67, 4.11), "randaug": (89.09, 84.67, 4.99),
            "mixup": (86.51, 82.31, 4.14), "resampling": (87.75, 84.77, 3.52),
            "bm": (89.54, 86.49, 3.04), "fis": (85.97, 82.98, 3.11),
            "decoupled": (87.87, 84.04, 5.17), "laftr": (86.71, 81.68, 6.18),
            "fscl": (89.40, 85.89, 3.71), "gapreg": (84.97, 82.57, 3.07),
            "mcdp": (82.96, 80.29, 3.10), "groupdro": (87.66, 83.98, 4.98),
            "dfr": (87.06, 82.49, 5.30), "oxonfair": (88.46, 83.83, 5.46),
        },
    },
    "fitz17k": {
        "kind": "auc",
        "rows": {
            "erm": (89.74, 88.39, 2.92), "randaug": (91.29, 90.15, 2.51),
            "mixup": (90.62, 89.38, 2.43), "resampling": (90.76, 88.99, 3.62),
            "bm": (91.02, 89.93, 2.34), "fis": (88.34, 87.02, 3.06),
            "decoupled": (89.63, 88.45, 2.55), "laftr": (90.95, 89.67, 2.87),
            "fscl": (90.71, 89.77, 2.22), "gapreg": (89.59, 88.52, 1.84),
            "mcdp": (91.65, 90.49, 2.87), "groupdro": (90.72, 90.06, 1.92),
            "dfr": (89.99, 88.57, 2.93), "oxonfair": (89.56, 88.40, 3.06),
        },
    },
    "waterbirds": {
        "kind": "acc",
        "rows": {
            "erm": (85.63, 84.20, 2.87), "randaug": (86.09, 84.52, 3.14),
            "mixup": (87.67, 85.99, 3.36), "resampling": (87.35, 84.85, 4.98),
            "bm": (88.20, 85.96, 4.48), "fis": (83.72, 82.67, 2.09),
            "decoupled": (74.64, 64.45, 20.38), "laftr": (85.72, 83.94, 3.56),
            "fscl": (86.83, 86.28, 1.10), "gapreg": (86.45, 85.72, 1.47),
            "mcdp": (85.98, 84.83, 2.31), "groupdro": (85.46, 84.45, 2.02),
            "dfr": (89.83, 89.09, 1.47), "oxonfair": (90.27, 89.52, 1.50),
        },
    },
}


def summaries_csv_for(dataset: str) -> str:
    lines = ["run_id,method,disadv%,adv%,overall%"]
    for method, (overall, worst_value, gap_value) in TABLE[dataset]["rows"].items():
        adv = worst_value + gap_value
        lines.append(f"{method}-{dataset},{method},{worst_value:.2f},{adv:.2f},{overall:.2f}")
    return "\n".join(lines) + "\n"


def test_criterion_1_table_fixture_consistency(tmp_path):
    start = time.perf_counter()
    checked = 0
    randaug_results = {}
    for dataset in TABLE:
        path = tmp_path / f"{dataset}.csv"
        path.write_text(summaries_csv_for(dataset), encoding="utf-8")
        summaries = {s.method: s for s in parse_summaries(path)}
        for method, (_, worst_pts, gap_pts) in TABLE[dataset]["rows"].items():
            v = summaries[method].group_utilities
            assert abs(gap(v) * 100 - gap_pts) <= 0.01, (dataset, method)
            assert abs(worst(v) * 100 - worst_pts) <= 0.01, (dataset, method)
            checked += 1
        erm = point(
            "erm", summaries["erm"].group_utilities,
            method="erm", overall=summaries["erm"].overall,
        )
        ra = point(
            "randaug", summaries["randaug"].group_utilities,
            method="randaug", overall=summaries["randaug"].overall,
        )
        randaug_results[dataset] = fwh_select([ra], erm)
        assert randaug_results[dataset].zone is Zone.OPTIMAL, dataset
    assert zone_tally_table(randaug_results).text == "7|0|0|0"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    announce(1, f"{checked} published gap/worst cells reproduced to +/-0.01; "
                f"randaug vs erm Optimal on all 7 datasets ({elapsed:.2f}s)")


def test_criterion_2_metric_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20_240_001)
    compared = 0
    degenerate = 0
    for i in range(1000):
        spec = random_cohort_spec(rng, max_n=200)
        kind = "auc" if (len(spec.labels) == 2 and i % 2 == 0) else "accuracy"
        run = generate(spec, utility_kind=kind)
        try:
            engine = metric_report(run)
        except (NoEvaluableClass, AllGroupsDegenerate) as error:
            with pytest.raises(type(error)):
                oracle_metrics(run)
            degenerate += 1
            continue
        reference = oracle_metrics(run)
        for name in ("overall", "worst", "gap", "dp", "eqodd"):
            assert abs(getattr(engine, name) - getattr(reference, name)) <= 1e-12, name
        assert sorted(engine.warnings) == sorted(reference.warnings)
        compared += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.2f}s"
    assert compared >= 900
    announce(2, f"{compared} cohorts match the oracle within 1e-12 "
                f"({degenerate} degenerate raised identically; {elapsed:.1f}s)")


def test_criterion_3_selection_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20_240_002)
    for _ in range(1000):
        candidates = random_candidate_cloud(rng, max_candidates=50)
        baseline = point(
            "baseline",
            {"g1": int(rng.integers(0, 41)) / 40, "g2": int(rng.integers(0, 41)) / 40},
        )
        tolerance = float(rng.choice([0.0, 0.025]))
        engine = fwh_select(candidates, baseline, tolerance)
        reference = oracle_select(candidates, baseline, tolerance)
        assert engine.candidate_zones == reference.candidate_zones
        assert (engine.selected is None) == (reference.selected is None)
        if engine.selected is not None:
            assert engine.selected.run_id == reference.selected.run_id
        dto_engine, dto_distance = dto_select(candidates)
        dto_reference, reference_distance = oracle_dto(candidates)
        assert dto_engine.run_id == dto_reference.run_id
        assert dto_distance == reference_distance
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 3 took {elapsed:.2f}s"
    announce(3, f"1000 candidate clouds: zones and selections identical ({elapsed:.1f}s)")


def test_criterion_4_zone_partition_exhaustive():
    start = time.perf_counter()
    baseline = point("base", {"adv": 0.8, "dis": 0.6})
    for tolerance in (0.0, 0.01):
        grid = {
            f"c{i:03d}-{j:03d}": (0.7 + i * 0.001, 0.5 + j * 0.001)
            for i in range(201)
            for j in range(201)
        }
        candidates = [point(run_id, {"adv": adv, "dis": dis})
                      for run_id, (adv, dis) in grid.items()]
        zones = fwh_select(candidates, baseline, tolerance).candidate_zones
        counts = {z: 0 for z in Zone}
        for run_id, (adv, dis) in grid.items():
            zone = zones[run_id]
            counts[zone] += 1
            adv_ok = adv >= 0.8 - tolerance
            dis_ok = dis >= 0.6 - tolerance
            expected = {
                (True, True): Zone.OPTIMAL,
                (False, True): Zone.SUB_OPTIMAL,
                (False, False): Zone.DEGRADATION,
                (True, False): Zone.UNWANTED,
            }[(adv_ok, dis_ok)]
            assert zone is expected, (adv, dis, tolerance)
        assert sum(counts.values()) == 201 * 201
        assert all(count > 0 for count in counts.values())
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 4 took {elapsed:.2f}s"
    announce(4, f"201x201 grid tiled by exactly one zone each, both tolerances ({elapsed:.1f}s)")


def test_criterion_5_friedman_fixture():
    cells = [
        ReportRow(method=f"m{j}", dataset=f"d{i}", split="", utility_kind="accuracy",
                  n_seeds=5, metrics={"gap": (float(j), 0.0)})
        for j in (1, 2, 3) for i in range(4)
    ]
    matrix = rank_matrix(cells, "gap")
    statistic, df = friedman(matrix)
    assert abs(statistic - 8.0) <= 1e-9
    assert df == 2
    cd = nemenyi_cd(3, 4, 0.05)
    assert abs(cd - 1.657) <= 0.001
    tied = [
        ReportRow(method=f"m{j}", dataset=f"d{i}", split="", utility_kind="accuracy",
                  n_seeds=5, metrics={"gap": (1.0, 0.0)})
        for j in (1, 2, 3) for i in range(4)
    ]
    tied_statistic, _ = friedman(rank_matrix(tied, "gap"))
    assert tied_statistic == 0.0
    announce(5, f"friedman fixture: statistic {statistic:.9f}, df {df}, "
                f"cd {cd:.4f}, all-tied statistic exactly 0")


def _equal_behavior_spec(seed: int, n_total: int) -> CohortSpec:
    per_group = {"A": n_total // 2, "B": n_total - n_total // 2}
    behavior = {
        "neg": {"neg": 0.8, "pos": 0.2},
        "pos": {"neg": 0.2, "pos": 0.8},
    }
    return CohortSpec(
        seed=seed,
        n_per_group=per_group,
        class_prior={g: {"neg": 0.5, "pos": 0.5} for g in per_group},
        confusion_spec={g: behavior for g in per_group},
    )


def test_criterion_6_dp_eqodd_analytic_limits():
    for seed in (1, 2, 3):
        run = generate(_equal_behavior_spec(seed, 100_000))
        report = metric_report(run)
        assert report.dp >= 0.99, f"seed {seed}: dp {report.dp}"
        assert report.eqodd >= 0.99, f"seed {seed}: eqodd {report.eqodd}"

    perfect = CohortSpec(
        seed=4,
        n_per_group={"A": 2000, "B": 2000},
        class_prior={g: {"neg": 0.5, "pos": 0.5} for g in ("A", "B")},
        confusion_spec={
            g: {"neg": {"neg": 1.0, "pos": 0.0}, "pos": {"neg": 0.0, "pos": 1.0}}
            for g in ("A", "B")
        },
    )
    run = generate(perfect)
    report = metric_report(run)
    assert report.overall == 1.0
    assert report.worst == 1.0
    assert report.eqodd == 1.0
    # a perfect classifier's dp equals the parity of the empirical label rates
    per_group_pos_rate = {}
    for g in ("A", "B"):
        group_records = [rec for rec in run.records if rec.group == g]
        per_group_pos_rate[g] = sum(
            1 for rec in group_records if rec.true_label == "pos"
        ) / len(group_records)
    expected_dp = 1.0 - abs(per_group_pos_rate["A"] - per_group_pos_rate["B"])
    assert report.dp == expected_dp
    announce(6, f"equal-behavior n=1e5 cohorts: dp and eqodd >= 0.99; "
                f"perfect classifier exact (dp {report.dp:.6f})")


def test_criterion_7_auc_correctness():
    tie_run = make_run(
        [
            ("pos", "pos", "A", 0.9),
            ("pos", "pos", "A", 0.8),
            ("neg", "neg", "A", 0.7),
            ("neg", "neg", "A", 0.8),
            ("pos", "pos", "B", 0.9),
            ("neg", "neg", "B", 0.1),
        ],
        utility_kind="auc",
    )
    utilities, _ = group_auc(tie_run)
    assert utilities["A"] == 0.875

    doubled = make_run(
        [
            ("pos", "pos", "A", 0.9), ("pos", "pos", "A", 0.8),
            ("neg", "neg", "A", 0.7), ("neg", "neg", "A", 0.8),
            ("pos", "pos", "B", 0.9), ("neg", "neg", "B", 0.1),
        ] * 2,
        utility_kind="auc",
    )
    doubled_utilities, _ = group_auc(doubled)
    assert doubled_utilities == utilities
    assert pooled_auc(doubled) == pooled_auc(tie_run)

    separated = make_run(
        [
            ("pos", "pos", "A", 0.9), ("pos", "pos", "A", 0.7),
            ("neg", "neg", "A", 0.4), ("neg", "neg", "A", 0.2),
            ("pos", "pos", "B", 0.8), ("neg", "neg", "B", 0.3),
        ],
        utility_kind="auc",
    )
    separated_utilities, _ = group_auc(separated)
    assert set(separated_utilities.values()) == {1.0}
    announce(7, "auc tie fixture 0.875 exact; duplication invariant; "
                "separated scores give 1.0")


def test_criterion_8_cli_determinism(tmp_path):
    run_dir = tmp_path / "runs"
    run_dir.mkdir()
    behavior = {
        "neg": {"neg": 0.85, "pos": 0.15},
        "pos": {"neg": 0.25, "pos": 0.75},
    }
    for offset, method in ((0, "erm"), (100, "mitiga")):
        for seed in (1, 2):
            spec = CohortSpec(
                seed=offset + seed,
                n_per_group={"A": 80, "B": 80},
                class_prior={g: {"neg": 0.5, "pos": 0.5} for g in ("A", "B")},
                confusion_spec={g: behavior for g in ("A", "B")},
                score_noise=0.4,
            )
            run = generate(spec, utility_kind="auc", method=method, dataset="demo")
            write_run(run, run_dir / f"{method}-s{seed}.jsonl")

    outputs = []
    for attempt, jobs in (("a", "1"), ("b", "4")):
        csv_out = tmp_path / f"table-{attempt}.csv"
        json_out = tmp_path / f"table-{attempt}.json"
        assert main(
            ["evaluate", "--jobs", jobs, "--out", str(csv_out), str(run_dir / "*.jsonl")]
        ) == 0
        assert main(
            [
                "evaluate", "--jobs", jobs, "--format", "json",
                "--out", str(json_out), str(run_dir / "*.jsonl"),
            ]
        ) == 0
        outputs.append((csv_out.read_bytes(), json_out.read_bytes()))
    assert outputs[0] == outputs[1]

    agg = tmp_path / "agg.csv"
    agg.write_text(
        "method,dataset,n_seeds,gap\n"
        "erm,d1,5,6.76\nerm,d2,5,2.26\nerm,d3,5,0.87\n"
        "randaug,d1,5,6.80\nrandaug,d2,5,2.34\nrandaug,d3,5,1.44\n"
        "gapreg,d1,5,5.90\ngapreg,d2,5,1.91\ngapreg,d3,5,1.92\n",
        encoding="utf-8",
    )
    svg_bytes = []
    for attempt in ("a", "b"):
        out = tmp_path / f"cd-{attempt}.json"
        svg = tmp_path / f"cd-{attempt}.svg"
        assert main(
            ["compare", "--metric", "gap", "--out", str(out), "--svg", str(svg), str(agg)]
        ) == 0
        svg_bytes.append((out.read_bytes(), svg.read_bytes()))
    assert svg_bytes[0] == svg_bytes[1]
    announce(8, "evaluate and compare outputs byte-identical across runs and thread counts")
