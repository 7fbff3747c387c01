"""Cohort generation: determinism, convergence, spec validation."""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest

from nhfair.errors import InvalidSpec, ParseError
from nhfair.metrics import demographic_parity, confusion, metric_report
from nhfair.synth import CohortSpec, generate


def binary_spec(seed=0, n=100, p_pos_a=0.5, p_pos_b=0.5, score_noise=0.0):
    """Group-symmetric cohort except for the predicted-positive rates."""
    def conf(p_pos):
        # predicted-positive rate p_pos regardless of the true label
        return {
            "neg": {"neg": 1.0 - p_pos, "pos": p_pos},
            "pos": {"neg": 1.0 - p_pos, "pos": p_pos},
        }

    return CohortSpec(
        seed=seed,
        n_per_group={"A": n, "B": n},
        class_prior={
            "A": {"neg": 0.5, "pos": 0.5},
            "B": {"neg": 0.5, "pos": 0.5},
        },
        confusion_spec={"A": conf(p_pos_a), "B": conf(p_pos_b)},
        score_noise=score_noise,
    )


class TestGenerate:
    def test_identity_confusion_is_perfect(self):
        spec = CohortSpec(
            seed=3,
            n_per_group={"A": 30, "B": 30},
            class_prior={
                "A": {"neg": 0.4, "pos": 0.6},
                "B": {"neg": 0.7, "pos": 0.3},
            },
            confusion_spec={
                g: {
                    "neg": {"neg": 1.0, "pos": 0.0},
                    "pos": {"neg": 0.0, "pos": 1.0},
                }
                for g in ("A", "B")
            },
        )
        run = generate(spec)
        assert all(rec.true_label == rec.predicted_label for rec in run.records)

    def test_same_seed_is_byte_identical(self):
        spec = binary_spec(seed=42, n=50, score_noise=0.3)
        assert generate(spec, utility_kind="auc") == generate(spec, utility_kind="auc")

    def test_different_seed_differs(self):
        a = generate(binary_spec(seed=1))
        b = generate(binary_spec(seed=2))
        assert a != b

    def test_scores_sum_to_one(self):
        run = generate(binary_spec(seed=5, n=20, score_noise=1.0), utility_kind="auc")
        for rec in run.records:
            assert sum(rec.scores.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(0.0 <= v <= 1.0 for v in rec.scores.values())

    def test_dp_converges_to_spec_rates(self):
        # predicted-positive rates 0.5 vs 0.25 -> dp converges to 0.75
        spec = binary_spec(seed=9, n=50_000, p_pos_a=0.5, p_pos_b=0.25)
        run = generate(spec)
        dp = demographic_parity(confusion(run), "pos")
        assert dp == pytest.approx(0.75, abs=0.01)

    def test_json_round_trip(self, tmp_path):
        spec = binary_spec(seed=11, score_noise=0.25)
        text = spec.to_json()
        assert CohortSpec.from_json(text) == spec
        path = tmp_path / "spec.json"
        path.write_text(text, encoding="utf-8")
        assert CohortSpec.load(path) == spec


def _spec_file(tmp_path, **changes) -> Path:
    doc = {**json.loads(binary_spec().to_json()), **changes}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"seed": 1.5}, "seed must be a JSON integer, got 1.5"),
        ({"seed": "7"}, "seed must be a JSON integer, got '7'"),
        ({"seed": True}, "seed must be a JSON integer, got True"),
        ({"n_per_group": {"A": True, "B": True}}, "n_per_group.A must be a JSON integer, got True"),
        ({"n_per_group": [100, 100]}, "n_per_group must be a JSON object, got [100, 100]"),
        ({"class_prior": {"A": {"neg": "0.5", "pos": 0.5}, "B": {"neg": 0.5, "pos": 0.5}}},
         "class_prior.A.neg must be a JSON number, got '0.5'"),
        ({"confusion_spec": {"A": {"neg": 1.0}}},
         "confusion_spec.A.neg must be a JSON object, got 1.0"),
        ({"score_noise": None}, "score_noise must be a JSON number, got None"),
    ],
    ids=["float seed", "string seed", "bool seed", "bool counts", "array counts",
         "string prior", "flat confusion", "null noise"],
)
def test_spec_value_of_another_json_type_is_invalid_naming_its_key(tmp_path, changes, message):
    with pytest.raises(InvalidSpec) as err:
        CohortSpec.load(_spec_file(tmp_path, **changes))
    assert str(err.value) == message


def test_spec_without_a_key_or_not_json_names_it(tmp_path):
    path = _spec_file(tmp_path)
    path.write_text(json.dumps({"seed": 1}), encoding="utf-8")
    with pytest.raises(InvalidSpec, match="missing key 'n_per_group'"):
        CohortSpec.load(path)
    path.write_text("{", encoding="utf-8")
    with pytest.raises(ParseError, match="spec.json: not valid JSON"):
        CohortSpec.load(path)


def test_spec_numbers_may_be_json_integers(tmp_path):
    path = _spec_file(tmp_path, score_noise=1, class_prior={
        "A": {"neg": 0, "pos": 1}, "B": {"neg": 0.5, "pos": 0.5}
    })
    spec = CohortSpec.load(path)
    assert spec.score_noise == 1.0 and spec.class_prior["A"] == {"neg": 0.0, "pos": 1.0}
    assert type(spec.score_noise) is float and type(spec.class_prior["A"]["pos"]) is float


_ONE_LABEL_ROWS = {g: {"neg": {"neg": 1.0}} for g in ("A", "B")}


@pytest.mark.parametrize("fields, message", [
    ({"class_prior": {"A": {"neg": 1.0}, "B": {"neg": 1.0}}, "confusion_spec": _ONE_LABEL_ROWS},
     "need at least 2 labels"),
    ({"class_prior": {"A": {"neg": 0.5, "pos": 0.5}, "B": {"pos": 0.5, "neg": 0.5}}},
     "group B: class prior must cover labels ('neg', 'pos')"),
    ({"class_prior": {"A": {"neg": 0.5, "pos": 0.5}}},
     "group B: class prior must cover labels ('neg', 'pos')"),
    ({"class_prior": {"A": {"neg": 1.5, "pos": -0.5}, "B": {"neg": 0.5, "pos": 0.5}}},
     "group A: negative prior"),
    ({"confusion_spec": {"A": binary_spec().confusion_spec["A"],
                         "B": {"neg": {"neg": 1.0, "pos": 0.0}}}},
     "group B: confusion rows must cover labels ('neg', 'pos')"),
    ({"confusion_spec": {"A": {"neg": {"neg": 1.0, "pos": 0.0}, "pos": {"pos": 1.0}},
                         "B": binary_spec().confusion_spec["B"]}},
     "group A, label pos: confusion row must cover ('neg', 'pos')"),
    ({"confusion_spec": {"A": {"neg": {"neg": 1.0, "pos": 0.0},
                               "pos": {"neg": -0.25, "pos": 1.25}},
                         "B": binary_spec().confusion_spec["B"]}},
     "group A, label pos: negative probability"),
])
def test_each_invalid_spec_has_its_own_message(fields, message):
    spec = dataclasses.replace(binary_spec(), **fields)
    with pytest.raises(InvalidSpec) as err:
        spec.validate()
    assert str(err.value) == message
    with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
        generate(spec)


class TestInvalidSpec:
    def test_prior_not_normalized(self):
        spec = binary_spec()
        bad = CohortSpec(
            seed=0,
            n_per_group=spec.n_per_group,
            class_prior={
                "A": {"neg": 0.5, "pos": 0.6},
                "B": {"neg": 0.5, "pos": 0.5},
            },
            confusion_spec=spec.confusion_spec,
        )
        with pytest.raises(InvalidSpec):
            generate(bad)

    def test_zero_samples(self):
        spec = binary_spec()
        bad = CohortSpec(
            seed=0,
            n_per_group={"A": 0, "B": 10},
            class_prior=spec.class_prior,
            confusion_spec=spec.confusion_spec,
        )
        with pytest.raises(InvalidSpec):
            generate(bad)

    def test_negative_noise(self):
        spec = binary_spec()
        bad = CohortSpec(
            seed=0,
            n_per_group=spec.n_per_group,
            class_prior=spec.class_prior,
            confusion_spec=spec.confusion_spec,
            score_noise=-0.5,
        )
        with pytest.raises(InvalidSpec):
            generate(bad)

    def test_single_group(self):
        with pytest.raises(InvalidSpec):
            generate(
                CohortSpec(
                    seed=0,
                    n_per_group={"A": 5},
                    class_prior={"A": {"neg": 0.5, "pos": 0.5}},
                    confusion_spec={
                        "A": {
                            "neg": {"neg": 1.0, "pos": 0.0},
                            "pos": {"neg": 0.0, "pos": 1.0},
                        }
                    },
                )
            )


def test_equal_behavior_dp_noise_is_binomially_bounded():
    """1 - dp over equal-behavior cohorts stays within binomial sampling noise.

    With identical predicted-positive rates p in both groups of size n,
    1 - dp = |phat_A - phat_B| which has standard deviation
    sqrt(2 p (1-p) / n); the 3-sigma exceedance rate should be tiny.
    """
    n = 400
    p = 0.5
    sigma = (2 * p * (1 - p) / n) ** 0.5
    exceed = 0
    trials = 1000
    for seed in range(trials):
        run = generate(binary_spec(seed=seed, n=n, p_pos_a=p, p_pos_b=p))
        dp = demographic_parity(confusion(run), "pos")
        if 1.0 - dp > 3.0 * sigma:
            exceed += 1
    # expectation under normal approx is ~2.7 of 1000; allow generous slack
    assert exceed <= 10


def test_metric_report_runs_on_generated_auc_cohort():
    run = generate(binary_spec(seed=21, n=200, score_noise=0.5), utility_kind="auc")
    report = metric_report(run)
    assert 0.0 <= report.overall <= 1.0
    assert 0.0 <= report.worst <= 1.0


class TestCheckedInFixtures:
    """Cohort spec files in tests/data stay stable across platforms.

    Expected values were computed once with the loop-based oracle and
    frozen here; a drift in the generator or the metrics shows up as a
    mismatch.
    """

    DATA = Path(__file__).parent / "data"

    def test_binary_fixture(self):
        spec = CohortSpec.load(self.DATA / "cohort_binary.json")
        report = metric_report(generate(spec, utility_kind="auc"))
        assert report.overall == pytest.approx(0.8169047619047619, abs=1e-12)
        assert report.worst == pytest.approx(0.7548711502199874, abs=1e-12)
        assert report.gap == pytest.approx(0.1380020008333519, abs=1e-12)
        assert report.dp == pytest.approx(0.8666666666666667, abs=1e-12)
        assert report.eqodd == pytest.approx(0.9182012164458246, abs=1e-12)

    def test_multiclass_fixture(self):
        spec = CohortSpec.load(self.DATA / "cohort_multiclass.json")
        report = metric_report(generate(spec))
        assert report.overall == pytest.approx(0.7555555555555555, abs=1e-12)
        assert report.worst == pytest.approx(0.7142857142857143, abs=1e-12)
        assert report.gap == pytest.approx(0.08571428571428574, abs=1e-12)
        assert report.dp == pytest.approx(0.9047619047619048, abs=1e-12)
        assert report.eqodd == pytest.approx(0.8946572817078025, abs=1e-12)
