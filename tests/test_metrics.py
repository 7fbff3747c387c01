"""Metric fixtures with hand-computed expectations, plus property tests."""

from __future__ import annotations

from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_run
from nhfair.errors import AllGroupsDegenerate, NoEvaluableClass
from nhfair.metrics import (
    GroupUtilityVector,
    confusion,
    demographic_parity,
    equalized_odds,
    gap,
    group_accuracy,
    group_auc,
    metric_report,
    pooled_auc,
    worst,
)
from nhfair.records import EvaluationRun, GroupSpace, LabelSpace, RunManifest


class TestConfusion:
    def test_single_cell(self):
        run = make_run([("pos", "pos", "A")] * 4 + [("neg", "neg", "B")])
        counts = np.array(confusion(run).counts)
        assert counts[0, 1, 1] == 4
        assert counts.sum() == 5

    def test_empty_intersection_recorded(self):
        run = make_run([("pos", "pos", "A"), ("pos", "neg", "B")])
        t = confusion(run)
        counts = np.array(t.counts)
        assert counts[t.groups.index("B"), t.labels.index("neg")].sum() == 0  # no error

    def test_counts_match_per_record_tally(self):
        import random

        rng = random.Random(17)
        labels = ("l0", "l1", "l2")
        groups = ("gA", "gB")
        triples = [
            (rng.choice(labels), rng.choice(labels), rng.choice(groups)) for _ in range(50)
        ]
        triples += [(labels[0], labels[0], g) for g in groups]  # every group present
        run = make_run(triples, labels=labels, groups=groups)
        counts = np.array(confusion(run).counts)
        for gi, g in enumerate(groups):
            for yi, y in enumerate(labels):
                for pi, p in enumerate(labels):
                    expected = sum(
                        1
                        for rec in run.records
                        if rec.group == g and rec.true_label == y and rec.predicted_label == p
                    )
                    assert counts[gi, yi, pi] == expected


class TestGroupAccuracy:
    def test_three_of_four(self):
        run = make_run(
            [
                ("pos", "pos", "A"),
                ("pos", "pos", "A"),
                ("neg", "neg", "A"),
                ("neg", "pos", "A"),
                ("pos", "pos", "B"),
                ("neg", "neg", "B"),
            ]
        )
        utilities = group_accuracy(confusion(run))
        assert utilities.utility["A"] == 0.75
        assert utilities.utility["B"] == 1.0

    def test_perfect_predictions(self):
        run = make_run([("pos", "pos", "A"), ("neg", "neg", "B")])
        utilities = group_accuracy(confusion(run))
        assert set(utilities.utility.values()) == {1.0}


class TestGapWorst:
    def test_reported_pair(self):
        v = GroupUtilityVector(utility={"adv": 0.9052, "disadv": 0.8376}, utility_kind="accuracy")
        assert gap(v) * 100 == pytest.approx(6.76, abs=1e-9)
        assert worst(v) == 0.8376

    def test_equal_groups_zero_gap(self):
        v = GroupUtilityVector(utility={"A": 0.8, "B": 0.8, "C": 0.8}, utility_kind="accuracy")
        assert gap(v) == 0.0

    def test_three_group_spread(self):
        v = GroupUtilityVector(utility={"A": 0.7, "B": 0.9, "C": 0.8}, utility_kind="accuracy")
        assert gap(v) == pytest.approx(0.2, abs=1e-12)
        assert worst(v) == 0.7


class TestGroupAuc:
    def test_tie_fixture(self):
        # Group A: positives score 0.9 and 0.8, negatives 0.7 and 0.8.
        # Pairs: 3 concordant + 1 tie -> (3 + 0.5) / 4 = 0.875.
        run = make_run(
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
        utilities, warnings = group_auc(run)
        assert utilities.utility["A"] == 0.875
        assert utilities.utility["B"] == 1.0
        assert warnings == []

    def test_perfect_separation(self):
        run = make_run(
            [
                ("pos", "pos", "A", 0.9),
                ("neg", "neg", "A", 0.2),
                ("pos", "pos", "B", 0.8),
                ("neg", "neg", "B", 0.3),
            ],
            utility_kind="auc",
        )
        utilities, _ = group_auc(run)
        assert set(utilities.utility.values()) == {1.0}

    def test_single_class_group_degenerate(self):
        run = make_run(
            [
                ("neg", "neg", "A", 0.4),
                ("neg", "neg", "A", 0.2),
                ("pos", "pos", "B", 0.9),
                ("neg", "neg", "B", 0.1),
            ],
            utility_kind="auc",
        )
        utilities, warnings = group_auc(run)
        assert utilities.utility["A"] == 0.5
        assert any("only one class" in w for w in warnings)

    def test_all_groups_degenerate(self):
        run = make_run(
            [("neg", "neg", "A", 0.4), ("pos", "pos", "B", 0.9)],
            utility_kind="auc",
        )
        with pytest.raises(AllGroupsDegenerate):
            group_auc(run)

    def test_duplication_leaves_auc_unchanged(self):
        base = [
            ("pos", "pos", "A", 0.9),
            ("pos", "neg", "A", 0.4),
            ("neg", "neg", "A", 0.4),
            ("neg", "pos", "A", 0.6),
            ("pos", "pos", "B", 0.7),
            ("neg", "neg", "B", 0.7),
        ]
        run1 = make_run(base, utility_kind="auc")
        run2 = make_run(base + base, utility_kind="auc")
        u1, _ = group_auc(run1)
        u2, _ = group_auc(run2)
        assert u1.utility == u2.utility
        assert pooled_auc(run1) == pooled_auc(run2)


class TestDemographicParity:
    def test_rate_half_vs_quarter(self):
        # A predicts positive at 2/4, B at 1/4 -> dp = 1 - 0.25.
        run = make_run(
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
        assert demographic_parity(confusion(run), "pos") == 0.75

    def test_identical_distributions(self):
        run = make_run(
            [
                ("pos", "pos", "A"),
                ("neg", "neg", "A"),
                ("pos", "pos", "B"),
                ("neg", "neg", "B"),
            ]
        )
        assert demographic_parity(confusion(run), "pos") == 1.0

    def test_multiclass_worst_class_diff(self):
        # Per-class prediction-rate differences 0.1, 0.3, 0.2 -> dp = 0.7.
        # A rates over 10: (0.5, 0.3, 0.2); B rates over 10: (0.4, 0.6, 0.0).
        labels = ("c0", "c1", "c2")
        a_preds = ["c0"] * 5 + ["c1"] * 3 + ["c2"] * 2
        b_preds = ["c0"] * 4 + ["c1"] * 6
        triples = [("c0", p, "A") for p in a_preds] + [("c0", p, "B") for p in b_preds]
        # keep every true class present somewhere so the run is realistic
        triples += [("c1", "c1", "A"), ("c2", "c2", "A"), ("c1", "c1", "B"), ("c2", "c0", "B")]
        run = make_run(triples, labels=labels)
        t = confusion(run)
        counts = np.array(t.counts)
        rates_a = [counts[0, :, c].sum() / counts[0].sum() for c in range(3)]
        rates_b = [counts[1, :, c].sum() / counts[1].sum() for c in range(3)]
        expected = 1.0 - max(abs(ra - rb) for ra, rb in zip(rates_a, rates_b))
        assert demographic_parity(t, "c2") == expected


class TestEqualizedOdds:
    def test_crossed_rates(self):
        # Correct rates: A = (1.0, 0.5), B = (0.5, 1.0) -> mean score 0.5.
        run = make_run(
            [
                ("neg", "neg", "A"),
                ("neg", "neg", "A"),
                ("pos", "pos", "A"),
                ("pos", "neg", "A"),
                ("neg", "neg", "B"),
                ("neg", "pos", "B"),
                ("pos", "pos", "B"),
                ("pos", "pos", "B"),
            ]
        )
        value, warnings = equalized_odds(confusion(run))
        assert value == 0.5
        assert warnings == []

    def test_perfect_classifier(self):
        run = make_run(
            [("pos", "pos", "A"), ("neg", "neg", "A"), ("pos", "pos", "B"), ("neg", "neg", "B")]
        )
        value, _ = equalized_odds(confusion(run))
        assert value == 1.0

    def test_skips_class_empty_in_one_group(self):
        run = make_run(
            [
                ("pos", "pos", "A"),
                ("neg", "neg", "A"),
                ("pos", "pos", "B"),
                ("pos", "neg", "B"),
            ]
        )
        value, warnings = equalized_odds(confusion(run))
        # class neg skipped (absent in B); only pos contributes: 1 - |1 - 0.5|
        assert value == 0.5
        assert any("neg" in w and "skipped" in w for w in warnings)

    def test_all_classes_skipped(self):
        run = make_run([("pos", "pos", "A"), ("neg", "neg", "B")])
        with pytest.raises(NoEvaluableClass):
            equalized_odds(confusion(run))

    def test_unknown_variant_is_a_value_error(self):
        run = make_run([("pos", "pos", "A"), ("neg", "neg", "B")])
        with pytest.raises(ValueError, match="^unknown eqodd variant 'bogus'$"):
            equalized_odds(confusion(run), "bogus")

    def test_full_variant_counts_off_diagonal(self):
        run = make_run(
            [
                ("pos", "pos", "A"),
                ("neg", "neg", "A"),
                ("pos", "pos", "B"),
                ("neg", "pos", "B"),
            ]
        )
        diagonal, _ = equalized_odds(confusion(run), variant="diagonal")
        full, _ = equalized_odds(confusion(run), variant="full")
        # diagonal: classes neg (|1-0|=1 -> 0), pos (0 -> 1): mean 0.5
        assert diagonal == 0.5
        # full adds the mirrored off-diagonal rates, same parity values here
        assert full == 0.5


class TestMetricReport:
    def test_bundle_on_small_run(self):
        run = make_run(
            [
                ("pos", "pos", "A"),
                ("neg", "neg", "A"),
                ("pos", "pos", "B"),
                ("pos", "neg", "B"),
                ("neg", "neg", "B"),
            ]
        )
        report = metric_report(run)
        assert report.overall == 0.8
        assert report.worst == pytest.approx(2 / 3)
        assert report.gap == pytest.approx(1 / 3)
        assert 0.0 <= report.dp <= 1.0
        assert 0.0 <= report.eqodd <= 1.0

    def test_csv_row_matches_reported_formatting(self):
        from nhfair.tables import ReportRow, rows_to_csv

        values = {"utility": 0.8657, "worst": 0.8376, "gap": 0.0676, "eqodd": 0.8191, "dp": 0.672}
        row = ReportRow(
            method="erm", dataset="celeba", split="test", utility_kind="accuracy", n_seeds=1,
            metrics={name: (value, 0.0) for name, value in values.items()},
        )
        line = rows_to_csv([row], "percent").splitlines()[1]
        assert line == "erm,celeba,test,accuracy,1,86.57,83.76,6.76,81.91,67.20,"

    def test_one_record_per_group_warns_thin_support(self):
        run = make_run([("pos", "pos", "A"), ("neg", "neg", "B")], labels=("neg", "pos"))
        with pytest.raises(NoEvaluableClass):
            metric_report(run)
        run = make_run(
            [("pos", "pos", "A"), ("pos", "neg", "B")], labels=("neg", "pos")
        )
        report = metric_report(run)
        assert any("thin support" in w for w in report.warnings)


# --- property tests ---------------------------------------------------------

LABELS3 = ("l0", "l1", "l2")
GROUPS3 = ("gA", "gB", "gC")


@st.composite
def small_runs(draw, with_scores=False):
    n_labels = 2 if with_scores else draw(st.integers(2, 3))
    n_groups = draw(st.integers(2, 3))
    labels = LABELS3[:n_labels]
    groups = GROUPS3[:n_groups]
    n = draw(st.integers(n_groups, 40))
    triples = []
    for i in range(n):
        group = groups[i % n_groups]  # every group populated
        y = draw(st.sampled_from(labels))
        y_hat = draw(st.sampled_from(labels))
        if with_scores:
            score = draw(st.integers(0, 20)) / 20.0
            triples.append((y, y_hat, group, score))
        else:
            triples.append((y, y_hat, group))
    return make_run(
        triples,
        labels=labels,
        groups=groups,
        utility_kind="auc" if with_scores else "accuracy",
    )


def shuffle_records(run: EvaluationRun, seed: int) -> EvaluationRun:
    import random

    records = list(run.records)
    random.Random(seed).shuffle(records)
    return EvaluationRun.from_records(run.manifest, records)


@given(small_runs(), st.integers(0, 10))
@settings(max_examples=60, deadline=None)
def test_permutation_invariance(run, seed):
    try:
        before = metric_report(run)
        after = metric_report(shuffle_records(run, seed))
    except NoEvaluableClass:
        return
    assert before == after


@given(small_runs())
@settings(max_examples=60, deadline=None)
def test_group_relabeling_equivariance(run):
    groups = run.manifest.group_space.groups
    mapping = dict(zip(groups, groups[1:] + groups[:1]))  # cyclic relabel
    renamed = EvaluationRun.from_records(
        run.manifest,
        tuple(
            type(rec)(
                sample_id=rec.sample_id,
                true_label=rec.true_label,
                predicted_label=rec.predicted_label,
                group=mapping[rec.group],
                scores=rec.scores,
            )
            for rec in run.records
        ),
    )
    try:
        before = metric_report(run)
        after = metric_report(renamed)
    except NoEvaluableClass:
        return
    u_before = group_accuracy(confusion(run)).utility
    u_after = group_accuracy(confusion(renamed)).utility
    assert all(u_after[mapping[g]] == u_before[g] for g in groups)
    assert (before.gap, before.worst, before.dp, before.eqodd) == (
        after.gap,
        after.worst,
        after.dp,
        after.eqodd,
    )


@given(small_runs())
@settings(max_examples=60, deadline=None)
def test_bounds_and_gap_zero_iff_equal(run):
    try:
        report = metric_report(run)
    except NoEvaluableClass:
        return
    for value in (report.overall, report.worst, report.gap, report.dp, report.eqodd):
        assert 0.0 <= value <= 1.0
    utilities = group_accuracy(confusion(run)).utility
    assert (report.gap == 0.0) == (len(set(utilities.values())) == 1)


@given(small_runs())
@settings(max_examples=60, deadline=None)
def test_dp_one_iff_identical_distributions(run):
    t = confusion(run)
    dp = demographic_parity(t, run.manifest.label_space.positive_label)
    counts = np.array(t.counts)
    rates = []
    for gi in range(len(t.groups)):
        n = counts[gi].sum()
        rates.append(tuple(counts[gi, :, c].sum() / n for c in range(len(t.labels))))
    if len(t.labels) == 2:
        identical = len({r[t.labels.index(run.manifest.label_space.positive_label)]
                         for r in rates}) == 1
    else:
        identical = len(set(rates)) == 1
    assert (dp == 1.0) == identical


@given(small_runs())
@settings(max_examples=60, deadline=None)
def test_binary_dp_agrees_with_multiclass_restriction(run):
    t = confusion(run)
    if len(t.labels) != 2:
        return
    binary = demographic_parity(t, run.manifest.label_space.positive_label)
    counts = np.array(t.counts)
    worst_diff = 0.0
    for c in range(2):
        for a in range(len(t.groups)):
            for b in range(a + 1, len(t.groups)):
                ra = counts[a, :, c].sum() / counts[a].sum()
                rb = counts[b, :, c].sum() / counts[b].sum()
                worst_diff = max(worst_diff, abs(float(ra) - float(rb)))
    assert binary == pytest.approx(1.0 - worst_diff, abs=1e-12)


@given(small_runs(with_scores=True))
@settings(max_examples=40, deadline=None)
def test_auc_duplication_invariance(run):
    doubled = EvaluationRun.from_records(
        run.manifest,
        tuple(
            list(run.records)
            + [
                type(rec)(
                    sample_id=rec.sample_id + "-dup",
                    true_label=rec.true_label,
                    predicted_label=rec.predicted_label,
                    group=rec.group,
                    scores=rec.scores,
                )
                for rec in run.records
            ]
        ),
    )
    try:
        u1, _ = group_auc(run)
        u2, _ = group_auc(doubled)
    except AllGroupsDegenerate:
        return
    assert u1.utility == u2.utility


# --- AUC against the per-group kernel it replaced ----------------------------


def _reference_mid_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties replaced by the tie group's average rank."""
    _, inverse, tie_counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(tie_counts)
    starts = ends - tie_counts + 1
    return ((starts + ends) / 2.0)[inverse]


def _reference_auc(pos: np.ndarray, neg: np.ndarray) -> float:
    ranks = _reference_mid_ranks(np.concatenate([pos, neg]))
    n_pos = len(pos)
    u = float(ranks[:n_pos].sum()) - n_pos * (n_pos + 1) / 2
    return u / (n_pos * len(neg))


def _reference_group_auc(run: EvaluationRun) -> tuple[dict[str, float], list[str]]:
    """One ``np.unique`` per group, as group_auc computed it before one sort served all."""
    score, is_pos, group = np.array(run.scores[1]), np.array(run.y) == 1, np.array(run.group)
    utility, warnings = {}, []
    for i, g in enumerate(run.manifest.group_space.groups):
        pos, neg = score[(group == i) & is_pos], score[(group == i) & ~is_pos]
        if not pos.size or not neg.size:
            utility[g] = 0.5
            warnings.append(f"group {g}: only one class present, auc set to 0.5")
        else:
            utility[g] = _reference_auc(pos, neg)
    if len(warnings) == len(utility):
        raise AllGroupsDegenerate("no group contains both classes")
    return utility, warnings


def _outcome(f, *args):
    try:
        return f(*args)
    except (AllGroupsDegenerate, ZeroDivisionError) as exc:
        return type(exc)


@st.composite
def tied_auc_runs(draw):
    """Binary auc runs with heavy ties: scores on a coarse grid with 0.0, -0.0 and 1.0,
    groups of one class or one record, some empty, and all-equal scores."""
    groups = GROUPS3[: draw(st.integers(2, 3))]
    grid = draw(st.sampled_from([(0.5,), (0.0, -0.0, 1.0), (0.0, -0.0, 0.25, 0.5, 1.0),
                                 tuple(i / 8 for i in range(9))]))
    n = draw(st.integers(1, 30))
    group = np.array(draw(st.lists(st.integers(0, len(groups) - 1), min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    score = np.array(draw(st.lists(st.sampled_from(grid), min_size=n, max_size=n)))
    manifest = RunManifest(
        method="m", dataset="d", seed=0, split="test", utility_kind="auc",
        label_space=LabelSpace(labels=("neg", "pos")), group_space=GroupSpace(groups=groups),
    )
    return EvaluationRun(manifest, np.array([f"s{i:02d}" for i in range(n)], dtype=object),
                         group, y, y, [1.0 - score, score])


@given(tied_auc_runs())
@settings(max_examples=300, deadline=None)
def test_auc_equals_the_per_group_mid_rank_kernel(run):
    got = _outcome(group_auc, run)
    want = _outcome(_reference_group_auc, run)
    if want is AllGroupsDegenerate:
        assert got is AllGroupsDegenerate
    else:
        assert (got[0].utility, got[1]) == want
    score, is_pos = np.array(run.scores[1]), np.array(run.y) == 1
    assert _outcome(pooled_auc, run) == _outcome(_reference_auc, score[is_pos], score[~is_pos])


# --- Every kernel against the numpy kernels it replaced ----------------------


def reference_confusion(run: EvaluationRun) -> np.ndarray:
    """The (G, C, C) int64 count tensor as one ``np.bincount`` built it."""
    n_groups, n_labels = run.manifest.group_space.size, run.manifest.label_space.size
    group, y, y_hat = (np.array(column, dtype=np.intp) for column in (run.group, run.y, run.y_hat))
    flat = (group * n_labels + y) * n_labels + y_hat
    counts = np.bincount(flat, minlength=n_groups * n_labels * n_labels)
    return counts.astype(np.int64, copy=False).reshape(n_groups, n_labels, n_labels)


def reference_u_statistics(
    score: np.ndarray, is_pos: np.ndarray, code: np.ndarray | None = None, n_codes: int = 1
) -> list[tuple[float, int, int]]:
    """Per code, the positives' Mann-Whitney U and the numbers of positives and
    negatives, from one sort of every record by (code, score) and mid-ranks."""
    order = np.argsort(score)
    if code is not None:
        order = order[np.argsort(code[order], kind="stable")]
    s = score[order]
    n = len(s)
    edges = np.ones(n + 1, dtype=bool)  # where a tie run starts, and the end
    np.not_equal(s[1:], s[:-1], out=edges[1:n])
    if code is not None:
        c = code[order]
        edges[1:n] |= c[1:] != c[:-1]
    bounds = np.flatnonzero(edges)
    starts, ends = bounds[:-1], bounds[1:]
    before = np.zeros(n + 1, dtype=np.intp)  # positives before each position
    np.cumsum(is_pos[order], out=before[1:])
    twice = (before[ends] - before[starts]) * (starts + ends + 1)
    if code is None:
        sizes, twice_sums = [n], [int(twice.sum())]
    else:
        sizes = np.bincount(code, minlength=n_codes).tolist()
        twice_sums = np.bincount(c[starts], weights=twice, minlength=n_codes).tolist()
    cuts = [0, *accumulate(sizes)]
    positives = before[cuts].tolist()
    per_code = []
    for first, size, twice_sum, p, q in zip(cuts, sizes, twice_sums, positives, positives[1:]):
        n_pos = q - p
        per_code.append(((twice_sum - n_pos * (2 * first + n_pos + 1)) / 2, n_pos, size - n_pos))
    return per_code


def reference_report(run: EvaluationRun, variant: str) -> tuple:
    """Utilities, overall, dp, eqodd and warnings as the numpy kernels computed them."""
    manifest = run.manifest
    groups, labels = manifest.group_space.groups, manifest.label_space.labels
    counts = reference_confusion(run)
    warnings = []
    if manifest.utility_kind == "auc":
        positive = labels.index(manifest.label_space.positive_label)
        score, is_pos = np.array(run.scores[positive]), np.array(run.y) == positive
        utilities = {}
        for g, (u, n_pos, n_neg) in zip(groups, reference_u_statistics(
                score, is_pos, np.array(run.group, dtype=np.intp), len(groups))):
            if n_pos and n_neg:
                utilities[g] = u / (n_pos * n_neg)
            else:
                utilities[g] = 0.5
                warnings.append(f"group {g}: only one class present, auc set to 0.5")
        if len(warnings) == len(groups):
            return AllGroupsDegenerate
        ((u, n_pos, n_neg),) = reference_u_statistics(score, is_pos)
        overall = u / (n_pos * n_neg)
    else:
        rates = counts.trace(axis1=1, axis2=2) / counts.sum(axis=(1, 2))
        utilities = dict(zip(groups, rates.tolist()))
        overall = int(np.trace(counts.sum(axis=0))) / len(run.sample_ids)
    predicted = counts.sum(axis=1)
    rates = predicted / predicted.sum(axis=1, keepdims=True)
    if len(labels) == 2:
        rates = rates[:, labels.index(manifest.label_space.positive_label)]
    dp = 1.0 - float((rates.max(axis=0) - rates.min(axis=0)).max())
    totals = counts.sum(axis=2)
    evaluable = totals.all(axis=0)
    warnings += [
        f"eqodd: class {labels[y]} skipped (no samples in group(s) "
        f"{', '.join(g for g, n in zip(groups, totals[:, y]) if not n)})"
        for y in np.flatnonzero(~evaluable)
    ]
    ys = np.flatnonzero(evaluable)
    if variant == "diagonal":
        rates = counts[:, ys, ys] / totals[:, ys]
    else:
        rates = counts[:, ys] / totals[:, ys, None]
    scores = (1.0 - (rates.max(axis=0) - rates.min(axis=0))).ravel().tolist()
    if not scores:
        return NoEvaluableClass
    warnings += [f"thin support: group {g} has only {n} record(s)"
                 for g, n in zip(groups, counts.sum(axis=(1, 2)).tolist()) if n < 2]
    return utilities, overall, dp, sum(scores) / len(scores), tuple(warnings)


@st.composite
def kernel_runs(draw):
    """Runs of random codes in which every group has a record: auc runs (binary, scores
    on a grid with ties, 0.0 and -0.0) or accuracy runs of 2 to 4 labels, with
    single-class groups and classes missing from a group."""
    auc = draw(st.booleans())
    groups = GROUPS3[: draw(st.integers(2, 3))]
    labels = ("neg", "pos") if auc else ("l0", "l1", "l2", "l3")[: draw(st.integers(2, 4))]
    n = draw(st.integers(len(groups), 40))
    codes = st.lists(st.integers(0, len(labels) - 1), min_size=n, max_size=n)
    rest = n - len(groups)
    group = [*range(len(groups)),
             *draw(st.lists(st.integers(0, len(groups) - 1), min_size=rest, max_size=rest))]
    y = draw(codes)
    y_hat = draw(codes)
    if draw(st.booleans()):  # one group holds a single class
        y = [y[0] if g == 0 else label for g, label in zip(group, y)]
    scores = None
    if auc:
        grid = draw(st.sampled_from([(0.5,), (0.0, -0.0, 1.0), tuple(i / 8 for i in range(9))]))
        positive = draw(st.lists(st.sampled_from(grid), min_size=n, max_size=n))
        scores = [[1.0 - v for v in positive], positive]
    manifest = RunManifest(
        method="m", dataset="d", seed=0, split="test", utility_kind="auc" if auc else "accuracy",
        label_space=LabelSpace(labels=labels), group_space=GroupSpace(groups=groups),
    )
    ids = draw(st.permutations([f"s{i:02d}" for i in range(n)]))
    return EvaluationRun(manifest, ids, group, y, y_hat, scores)


@given(kernel_runs(), st.sampled_from(["diagonal", "full"]))
@settings(max_examples=300, deadline=None)
def test_kernels_equal_the_numpy_kernels_they_replaced(run, variant):
    assert confusion(run).counts == tuple(
        tuple(map(tuple, block)) for block in reference_confusion(run).tolist()
    )
    want = reference_report(run, variant)
    try:
        got = metric_report(run, eqodd_variant=variant)
    except (AllGroupsDegenerate, NoEvaluableClass) as exc:
        assert type(exc) is want
        return
    assert (dict(got.group_utilities.utility), got.overall, got.dp, got.eqodd,
            got.warnings) == want


@st.composite
def accuracy_runs(draw):
    """Accuracy runs of 2 or 3 groups of 1 to 5,000 records, each group with any count
    of correct predictions. Each group's first record is of class l0, so eqodd always
    has a class to compare."""
    groups = GROUPS3[: draw(st.integers(2, 3))]
    sizes = st.one_of(st.integers(1, 3), st.integers(1, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    group, y, y_hat = [], [], []
    for g in range(len(groups)):
        size = draw(sizes)
        correct = draw(st.integers(0, size))
        truth = [0, *rng.integers(0, 2, size - 1).tolist()]
        group += [g] * size
        y += truth
        y_hat += [t if i < correct else 1 - t for i, t in enumerate(truth)]
    manifest = RunManifest(
        method="m", dataset="d", seed=0, split="test", utility_kind="accuracy",
        label_space=LabelSpace(labels=("l0", "l1")), group_space=GroupSpace(groups=groups),
    )
    return EvaluationRun(manifest, [f"s{i:05d}" for i in range(len(y))], group, y, y_hat)


@given(accuracy_runs())
@settings(max_examples=200, deadline=None)
def test_pooled_accuracy_lies_within_the_group_accuracies_exactly(run):
    # pooled accuracy sum(c_g) / sum(n_g) is a mediant of the group rates c_g / n_g;
    # each is one correctly rounded division and rounding is monotone, so no slack
    report = metric_report(run)
    values = report.group_utilities.values_in_order()
    assert min(values) <= report.overall <= max(values)
