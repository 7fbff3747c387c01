"""Production implementations vs the brute-force oracles.

The oracles recompute everything from raw records (or raw candidate
lists) with nested loops and share no computation with the production
code, so agreement here is strong evidence that both routes implement
the same definitions. The acceptance suite repeats these sweeps at the
full sample counts; this module keeps quick versions for everyday runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_run, point, random_candidate_cloud, random_cohort_spec
from nhfair.config import EQODD_VARIANTS
from nhfair.errors import AllGroupsDegenerate, NoEvaluableClass
from nhfair.metrics import metric_report
from nhfair.oracle import oracle_dto, oracle_metrics, oracle_select
from nhfair.selection import dto_select, fwh_select
from nhfair.synth import generate

FIELDS = ("overall", "worst", "gap", "dp", "eqodd")
# AUC is a rank sum here and a pair count in the oracle, so its last bits may differ
AUC_FIELDS = ("overall", "worst", "gap")


def assert_reports_match(engine, oracle, utility_kind, tol=1e-12):
    for name in FIELDS:
        if utility_kind == "auc" and name in AUC_FIELDS:
            assert abs(getattr(engine, name) - getattr(oracle, name)) <= tol, name
        else:
            assert getattr(engine, name) == getattr(oracle, name), name
    assert sorted(engine.warnings) == sorted(oracle.warnings)


def run_metric_sweep(n_cohorts, seed, max_n=200):
    """Compare every cohort under both eqodd variants; returns the reports compared."""
    rng = np.random.default_rng(seed)
    compared = 0
    for i in range(n_cohorts):
        spec = random_cohort_spec(rng, max_n=max_n)
        kind = "auc" if (len(spec.labels) == 2 and i % 2 == 0) else "accuracy"
        run = generate(spec, utility_kind=kind)
        for variant in EQODD_VARIANTS:
            try:
                engine = metric_report(run, eqodd_variant=variant)
            except (NoEvaluableClass, AllGroupsDegenerate) as engine_error:
                with pytest.raises(type(engine_error)):
                    oracle_metrics(run, eqodd_variant=variant)
                continue
            assert_reports_match(engine, oracle_metrics(run, eqodd_variant=variant), kind)
            compared += 1
    return compared


def run_selection_sweep(n_clouds, seed):
    import warnings

    from nhfair.errors import AdvantageTieWarning

    rng = np.random.default_rng(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdvantageTieWarning)
        for _ in range(n_clouds):
            candidates = random_candidate_cloud(rng)
            baseline = point(
                "baseline",
                {
                    "g1": int(rng.integers(0, 41)) / 40,
                    "g2": int(rng.integers(0, 41)) / 40,
                },
            )
            tolerance = float(rng.choice([0.0, 0.025]))
            engine = fwh_select(candidates, baseline, tolerance)
            oracle = oracle_select(candidates, baseline, tolerance)
            assert engine.candidate_zones == oracle.candidate_zones
            assert engine.tally == oracle.tally
            assert (engine.selected is None) == (oracle.selected is None)
            if engine.selected is not None:
                assert engine.selected.run_id == oracle.selected.run_id
                assert engine.zone == oracle.zone

            dto_engine, dist_engine = dto_select(candidates)
            dto_oracle, dist_oracle = oracle_dto(candidates)
            assert dto_engine.run_id == dto_oracle.run_id
            assert dist_engine == dist_oracle


def test_metric_oracle_equivalence_quick():
    assert run_metric_sweep(150, seed=101) > 200


def test_selection_oracle_equivalence_quick():
    run_selection_sweep(200, seed=202)


def test_fixed_fixtures_agree():
    dp_run = make_run(
        [
            ("pos", "pos", "A"),
            ("neg", "pos", "A"),
            ("neg", "neg", "A"),
            ("pos", "neg", "A"),
            ("pos", "pos", "B"),
            ("neg", "neg", "B"),
            ("neg", "neg", "B"),
            ("pos", "neg", "B"),
        ]
    )
    engine = metric_report(dp_run)
    oracle = oracle_metrics(dp_run)
    assert engine.dp == oracle.dp == 0.75

    auc_run = make_run(
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
    engine = metric_report(auc_run)
    oracle = oracle_metrics(auc_run)
    assert engine.worst == oracle.worst == 0.875


def test_table_pair_is_optimal_in_both(celeba_pair):
    erm, randaug = celeba_pair
    engine = fwh_select([randaug], erm)
    oracle = oracle_select([randaug], erm)
    assert engine.selected.run_id == oracle.selected.run_id == "randaug"
    assert engine.zone.value == oracle.zone.value == "Optimal"


def test_single_unwanted_candidate_selects_none():
    baseline = point("base", {"g1": 0.9, "g2": 0.7})
    bad = point("bad", {"g1": 0.95, "g2": 0.6})
    engine = fwh_select([bad], baseline)
    oracle = oracle_select([bad], baseline)
    assert engine.selected is None and oracle.selected is None
    assert engine.tally == oracle.tally
