"""Utility and fairness metrics computed from an evaluation run.

All metric values live in [0, 1]; the report layer converts to percent
for table output. Conventions:

* ``gap``   = max group utility - min group utility (lower is fairer)
* ``worst`` = min group utility (higher is fairer)
* ``dp``    = 1 - the worst difference between groups (max - min) in
  predicted-class rates, restricted to the positive class for binary
  tasks and taken over all classes for multi-class tasks
* ``eqodd`` = per-class parity (1 - (max - min) over groups) of
  correct-classification rates, averaged over classes whose (group,
  class) cells are all populated

Degenerate cells are never silently NaN: single-class groups get AUC 0.5
plus a warning, and classes empty in some group are skipped from eqodd
with a warning. Every function is pure. The kernels work on a run's
columns: the confusion tensor is one ``bincount``, AUC a mid-rank sum
over masked score columns, and the other metrics are reductions of the
confusion tensor. Within a run, sums follow the canonical record order,
so results do not depend on the order of the input records.
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
    rates = t.counts.trace(axis1=1, axis2=2) / t.counts.sum(axis=(1, 2))
    return GroupUtilityVector(utility=dict(zip(t.groups, rates.tolist())), utility_kind="accuracy")


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


def _spread(rates: np.ndarray) -> np.ndarray:
    # The worst |rate_a - rate_b| over the groups (axis 0) is max - min: a rounded
    # difference is monotone in each operand, so no pair rounds above (max, min).
    return rates.max(axis=0) - rates.min(axis=0)


def demographic_parity(t: ConfusionTensor, positive_label: str) -> float:
    """1 minus the worst difference between groups in predicted-class rates.

    Binary tasks compare only the positive class; multi-class tasks take
    the maximum over classes as well.
    """
    predicted = t.counts.sum(axis=1)  # (G, C) records predicted as each class
    rates = predicted / predicted.sum(axis=1, keepdims=True)
    if len(t.labels) == 2:
        rates = rates[:, t.labels.index(positive_label)]
    return 1.0 - float(_spread(rates).max())


def equalized_odds(t: ConfusionTensor, variant: str = "diagonal") -> tuple[float, list[str]]:
    """Per-class rate parity across groups, averaged over evaluable classes.

    ``diagonal`` compares only the correct-classification rate
    P[h(X)=y | Y=y, A=g]; ``full`` compares every conditional rate
    P[h(X)=c | Y=y, A=g]. A class with an empty (group, class) cell is
    skipped with a warning; if nothing remains, NoEvaluableClass.
    """
    if variant not in EQODD_VARIANTS:
        raise ValueError(f"unknown eqodd variant {variant!r}")
    totals = t.counts.sum(axis=2)  # (G, C) records of each true class
    evaluable = totals.all(axis=0)
    warnings = [
        f"eqodd: class {t.labels[y]} skipped (no samples in group(s) "
        f"{', '.join(g for g, n in zip(t.groups, totals[:, y]) if not n)})"
        for y in np.flatnonzero(~evaluable)
    ]
    ys = np.flatnonzero(evaluable)
    if variant == "diagonal":
        rates = t.counts[:, ys, ys] / totals[:, ys]
    else:
        rates = t.counts[:, ys] / totals[:, ys, None]
    # class order, then predicted-class order; Python's sum keeps the last bit
    scores = (1.0 - _spread(rates)).ravel().tolist()
    if not scores:
        raise NoEvaluableClass("every class has an empty (group, class) cell")
    return sum(scores) / len(scores), warnings


def metric_report(run: EvaluationRun, eqodd_variant: str = "diagonal") -> MetricReport:
    """Compute the full five-metric bundle for one run."""
    t = confusion(run)
    if run.manifest.utility_kind == "auc":
        utilities, warnings = group_auc(run)
        overall = pooled_auc(run)
    else:
        utilities, warnings = group_accuracy(t), []
        overall = int(np.trace(t.counts.sum(axis=0))) / len(run.sample_ids)
        values = utilities.values_in_order()
        if not (min(values) - 1e-12 <= overall <= max(values) + 1e-12):
            raise InternalInvariantViolation(
                f"pooled accuracy {overall} outside group accuracy range "
                f"[{min(values)}, {max(values)}]"
            )
    dp = demographic_parity(t, run.manifest.label_space.positive_label)
    eqodd, eq_warnings = equalized_odds(t, variant=eqodd_variant)
    thin = [
        f"thin support: group {g} has only {n} record(s)"
        for g, n in zip(t.groups, t.counts.sum(axis=(1, 2)).tolist())
        if n < 2
    ]
    return MetricReport(
        overall=overall,
        worst=worst(utilities),
        gap=gap(utilities),
        dp=dp,
        eqodd=eqodd,
        warnings=(*warnings, *eq_warnings, *thin),
        group_utilities=utilities,
    )
