"""Shared builders for hand-written runs and candidate points."""

from __future__ import annotations

import pytest

from nhfair.records import (
    EvaluationRun,
    GroupSpace,
    LabelSpace,
    PredictionRecord,
    RunManifest,
)
from nhfair.selection import RunResult


def make_run(
    triples,
    labels=("neg", "pos"),
    groups=("A", "B"),
    utility_kind="accuracy",
    positive_label="",
    method="m",
    dataset="d",
    seed=0,
    split="test",
    sort=True,
):
    """Build a run from (true, predicted, group[, score]) tuples.

    The optional fourth element is the positive-label score; it is
    expanded into a full per-class map so auc runs validate.
    """
    label_space = LabelSpace(labels=tuple(labels), positive_label=positive_label)
    records = []
    for i, triple in enumerate(triples):
        if len(triple) == 4:
            y, y_hat, group, score = triple
            scores = {lb: (score if lb == label_space.positive_label else 1.0 - score)
                      for lb in labels}
        else:
            y, y_hat, group = triple
            scores = None
        records.append(
            PredictionRecord(
                sample_id=f"s{i:05d}",
                true_label=y,
                predicted_label=y_hat,
                group=group,
                scores=scores,
            )
        )
    manifest = RunManifest(
        method=method,
        dataset=dataset,
        seed=seed,
        split=split,
        utility_kind=utility_kind,
        label_space=label_space,
        group_space=GroupSpace(groups=tuple(groups)),
    )
    if sort:
        records = sorted(records, key=lambda rec: rec.sample_id)
    return EvaluationRun.from_records(manifest, records)


def point(run_id, utilities, method="m", overall=None):
    if overall is None:
        overall = sum(utilities.values()) / len(utilities)
    return RunResult.from_utilities(
        run_id=run_id, method=method, utilities=dict(utilities), overall=overall
    )


@pytest.fixture
def celeba_pair():
    """Baseline/candidate pair reconstructed from published worst and gap."""
    erm = point("erm", {"disadv": 0.8376, "adv": 0.9052}, method="erm", overall=0.8657)
    randaug = point("randaug", {"disadv": 0.8389, "adv": 0.9069}, method="randaug", overall=0.8672)
    return erm, randaug


def random_cohort_spec(rng, max_n=200):
    """Random CohortSpec with n <= max_n, up to 4 classes and 3 groups."""
    from nhfair.synth import CohortSpec

    n_labels = int(rng.integers(2, 5))
    n_groups = int(rng.integers(2, 4))
    labels = [f"l{i}" for i in range(n_labels)]
    groups = [f"g{i}" for i in range(n_groups)]
    budget = int(rng.integers(n_groups, max_n + 1))
    sizes = {}
    remaining = budget
    for i, g in enumerate(groups):
        left = len(groups) - i - 1
        hi = remaining - left
        size = int(rng.integers(1, hi + 1)) if i < len(groups) - 1 else remaining
        sizes[g] = size
        remaining -= size

    def simplex(k):
        w = rng.random(k) + 0.05
        w = w / w.sum()
        return [float(x) for x in w]

    class_prior = {g: dict(zip(labels, simplex(n_labels))) for g in groups}
    confusion_spec = {
        g: {y: dict(zip(labels, simplex(n_labels))) for y in labels} for g in groups
    }
    return CohortSpec(
        seed=int(rng.integers(0, 2**31)),
        n_per_group=sizes,
        class_prior=class_prior,
        confusion_spec=confusion_spec,
        score_noise=float(rng.choice([0.0, 0.3, 1.0])),
    )


def random_coded_run(rng, n_groups, n_labels, n, utility_kind="accuracy", true_labels=None,
                     positive_first=False):
    """A run of ``n`` random codes over ``n_groups`` groups and ``n_labels`` labels.

    True labels are drawn from ``true_labels`` (codes; every label by default),
    predictions from every label. The first records give each group each of
    the true labels, so ``n`` must be at least ``n_groups * len(true_labels)``.
    The positive label is the first where ``positive_first``, else the last. An auc
    run has two labels, and its scores lie on a grid of ninths, tied across groups
    and classes.
    """
    groups = tuple(f"g{i:03d}" for i in range(n_groups))
    labels = tuple(f"l{i:03d}" for i in range(n_labels))
    true_labels = list(range(n_labels) if true_labels is None else true_labels)
    spread = [t for t in true_labels for _ in range(n_groups)]
    y = spread + rng.choice(true_labels, n - len(spread)).tolist()
    scores = None
    if utility_kind == "auc":
        positive = rng.integers(0, 10, n) / 9
        scores = [positive, 1.0 - positive] if positive_first else [1.0 - positive, positive]
    manifest = RunManifest(
        method="m", dataset="d", seed=0, split="test", utility_kind=utility_kind,
        label_space=LabelSpace(labels=labels, positive_label=labels[0] if positive_first else labels[-1]),
        group_space=GroupSpace(groups=groups),
    )
    return EvaluationRun(manifest, [f"s{i:05d}" for i in range(n)],
                         [i % n_groups for i in range(n)], y,
                         rng.integers(0, n_labels, n), scores)


def random_candidate_cloud(rng, max_candidates=50, grid=40):
    """Random two-group candidate cloud; grid-quantized to exercise ties."""
    n = int(rng.integers(1, max_candidates + 1))
    return [
        point(
            f"c{i:03d}",
            {
                "g1": int(rng.integers(0, grid + 1)) / grid,
                "g2": int(rng.integers(0, grid + 1)) / grid,
            },
            method=f"m{int(rng.integers(0, 4))}",
            overall=int(rng.integers(0, grid + 1)) / grid,
        )
        for i in range(n)
    ]
