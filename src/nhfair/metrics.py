"""Utility and fairness metrics computed from an evaluation run.

All metric values live in [0, 1]; the report layer converts to percent
for table output. Conventions:

* ``gap``   = max group utility - min group utility (lower is fairer)
* ``worst`` = min group utility (higher is fairer)
* ``dp``    = 1 - worst pairwise difference in predicted-class rates,
  restricted to the positive class for binary tasks and taken over all
  classes for multi-class tasks
* ``eqodd`` = per-class parity of correct-classification rates,
  averaged over classes whose (group, class) cells are all populated

Degenerate cells are never silently NaN: single-class groups get AUC 0.5
plus a warning, and classes empty in some group are skipped from eqodd
with a warning. Every function is pure; runs may be evaluated in
parallel. The kernels work on a run's columns: the confusion tensor is
one ``bincount`` and AUC a mid-rank sum over masked score columns.
Within a run, sums follow the canonical record order, so results are
identical regardless of thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .columns import EvaluationRun
from .errors import (
    AllGroupsDegenerate,
    InternalInvariantViolation,
    NoEvaluableClass,
)
from .selection import GroupUtilityVector
from .tables import EQODD_VARIANTS


@dataclass(frozen=True)
class ConfusionTensor:
    """Counts indexed by (group, true label, predicted label)."""

    groups: tuple[str, ...]
    labels: tuple[str, ...]
    counts: np.ndarray  # (G, C, C) int64

    def n_group(self, group: str) -> int:
        return int(self.counts[self.groups.index(group)].sum())


@dataclass(frozen=True)
class MetricReport:
    """The five reported columns plus degenerate-cell warnings.

    ``group_utilities`` is the per-group vector that worst and gap come
    from, so selection need not compute it again.
    """

    overall: float
    worst: float
    gap: float
    dp: float
    eqodd: float
    warnings: tuple[str, ...] = ()
    group_utilities: GroupUtilityVector | None = None

    def as_dict(self) -> dict[str, object]:
        return {
            "utility": self.overall,
            "worst": self.worst,
            "gap": self.gap,
            "eqodd": self.eqodd,
            "dp": self.dp,
            "warnings": list(self.warnings),
        }


def confusion(run: EvaluationRun) -> ConfusionTensor:
    """Tally records into a (group, true, predicted) count tensor."""
    groups = run.manifest.group_space.groups
    labels = run.manifest.label_space.labels
    n_groups, n_labels = len(groups), len(labels)
    flat = (run.group.astype(np.intp) * n_labels + run.y) * n_labels + run.y_hat
    counts = np.bincount(flat, minlength=n_groups * n_labels * n_labels)
    return ConfusionTensor(
        groups=groups,
        labels=labels,
        counts=counts.astype(np.int64, copy=False).reshape(n_groups, n_labels, n_labels),
    )


def group_accuracy(t: ConfusionTensor) -> GroupUtilityVector:
    """Per-group accuracy: correct count over group size."""
    utility: dict[str, float] = {}
    for i, g in enumerate(t.groups):
        correct = int(np.trace(t.counts[i]))
        n = int(t.counts[i].sum())
        utility[g] = correct / n
    return GroupUtilityVector(utility=utility, utility_kind="accuracy")


def _mid_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties replaced by the tie group's average rank."""
    uniq, inverse, tie_counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(tie_counts)
    starts = ends - tie_counts + 1
    return ((starts + ends) / 2.0)[inverse]


def _auc_from_scores(pos: np.ndarray, neg: np.ndarray) -> float:
    """Rank-based AUC, equal to (concordant + tied/2) / (n_pos * n_neg)."""
    ranks = _mid_ranks(np.concatenate([pos, neg]))
    n_pos = len(pos)
    u = float(ranks[:n_pos].sum()) - n_pos * (n_pos + 1) / 2
    return u / (n_pos * len(neg))


def _positive_scores(run: EvaluationRun) -> tuple[np.ndarray, np.ndarray]:
    """Each record's positive-label score (present in auc runs), and which are positives."""
    labels = run.manifest.label_space.labels
    positive = labels.index(run.manifest.label_space.positive_label)
    return run.scores[:, positive], run.y == positive


def group_auc(run: EvaluationRun) -> tuple[GroupUtilityVector, list[str]]:
    """Per-group AUC from the positive-label score.

    A group missing one of the two classes cannot be ranked; it gets
    utility 0.5 and a warning. If every group is degenerate the metric is
    undefined and AllGroupsDegenerate is raised.
    """
    manifest = run.manifest
    score, is_pos = _positive_scores(run)
    utility: dict[str, float] = {}
    warnings: list[str] = []
    degenerate = 0
    for i, g in enumerate(manifest.group_space.groups):
        in_group = run.group == i
        pos = score[in_group & is_pos]
        neg = score[in_group & ~is_pos]
        if not pos.size or not neg.size:
            utility[g] = 0.5
            warnings.append(f"group {g}: only one class present, auc set to 0.5")
            degenerate += 1
        else:
            utility[g] = _auc_from_scores(pos, neg)
    if degenerate == len(manifest.group_space.groups):
        raise AllGroupsDegenerate("no group contains both classes")
    return GroupUtilityVector(utility=utility, utility_kind="auc"), warnings


def pooled_auc(run: EvaluationRun) -> float:
    """AUC over all records together, same tie handling as group_auc."""
    score, is_pos = _positive_scores(run)
    return _auc_from_scores(score[is_pos], score[~is_pos])


def gap(v: GroupUtilityVector) -> float:
    values = v.values_in_order()
    return max(values) - min(values)


def worst(v: GroupUtilityVector) -> float:
    return min(v.values_in_order())


def _prediction_rates(t: ConfusionTensor) -> list[list[float]]:
    """rates[g][c] = fraction of group g predicted as class c."""
    rates: list[list[float]] = []
    for i in range(len(t.groups)):
        n = int(t.counts[i].sum())
        rates.append([int(t.counts[i, :, c].sum()) / n for c in range(len(t.labels))])
    return rates


def demographic_parity(t: ConfusionTensor, positive_label: str) -> float:
    """1 minus the worst pairwise predicted-rate difference.

    Binary tasks compare only the positive class; multi-class tasks take
    the maximum over classes as well as group pairs.
    """
    rates = _prediction_rates(t)
    n_groups = len(t.groups)
    if len(t.labels) == 2:
        classes = [t.labels.index(positive_label)]
    else:
        classes = list(range(len(t.labels)))
    worst_diff = 0.0
    for c in classes:
        for a in range(n_groups):
            for b in range(a + 1, n_groups):
                diff = abs(rates[a][c] - rates[b][c])
                if diff > worst_diff:
                    worst_diff = diff
    return 1.0 - worst_diff


def equalized_odds(t: ConfusionTensor, variant: str = "diagonal") -> tuple[float, list[str]]:
    """Per-class rate parity across groups, averaged over evaluable classes.

    ``diagonal`` compares only the correct-classification rate
    P[h(X)=y | Y=y, A=g]; ``full`` compares every conditional rate
    P[h(X)=c | Y=y, A=g]. A class with an empty (group, class) cell is
    skipped with a warning; if nothing remains, NoEvaluableClass.
    """
    if variant not in EQODD_VARIANTS:
        raise ValueError(f"unknown eqodd variant {variant!r}")
    n_groups = len(t.groups)
    n_classes = len(t.labels)
    class_totals = [[int(t.counts[g, y].sum()) for y in range(n_classes)] for g in range(n_groups)]

    warnings: list[str] = []
    scores: list[float] = []
    for y in range(n_classes):
        empty = [t.groups[g] for g in range(n_groups) if class_totals[g][y] == 0]
        if empty:
            warnings.append(
                f"eqodd: class {t.labels[y]} skipped (no samples in group(s) {', '.join(empty)})"
            )
            continue
        predicted = [y] if variant == "diagonal" else list(range(n_classes))
        for c in predicted:
            worst_diff = 0.0
            for a in range(n_groups):
                for b in range(a + 1, n_groups):
                    rate_a = int(t.counts[a, y, c]) / class_totals[a][y]
                    rate_b = int(t.counts[b, y, c]) / class_totals[b][y]
                    diff = abs(rate_a - rate_b)
                    if diff > worst_diff:
                        worst_diff = diff
            scores.append(1.0 - worst_diff)
    if not scores:
        raise NoEvaluableClass("every class has an empty (group, class) cell")
    return sum(scores) / len(scores), warnings


def metric_report(run: EvaluationRun, eqodd_variant: str = "diagonal") -> MetricReport:
    """Compute the full five-metric bundle for one run."""
    t = confusion(run)
    warnings: list[str] = []

    if run.manifest.utility_kind == "auc":
        utilities, auc_warnings = group_auc(run)
        warnings.extend(auc_warnings)
        overall = pooled_auc(run)
    else:
        utilities = group_accuracy(t)
        correct = int(np.trace(t.counts.sum(axis=0)))
        overall = correct / len(run.sample_ids)

    g = gap(utilities)
    w = worst(utilities)
    dp = demographic_parity(t, run.manifest.label_space.positive_label)
    eqodd, eq_warnings = equalized_odds(t, variant=eqodd_variant)
    warnings.extend(eq_warnings)

    for grp in t.groups:
        n = t.n_group(grp)
        if n < 2:
            warnings.append(f"thin support: group {grp} has only {n} record(s)")

    if run.manifest.utility_kind == "accuracy":
        values = utilities.values_in_order()
        if not (min(values) - 1e-12 <= overall <= max(values) + 1e-12):
            raise InternalInvariantViolation(
                f"pooled accuracy {overall} outside group accuracy range "
                f"[{min(values)}, {max(values)}]"
            )

    return MetricReport(
        overall=overall,
        worst=w,
        gap=g,
        dp=dp,
        eqodd=eqodd,
        warnings=tuple(warnings),
        group_utilities=utilities,
    )
