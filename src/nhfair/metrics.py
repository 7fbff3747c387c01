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
columns: the confusion tensor is one ``bincount``, every group's AUC a
mid-rank sum over one sort of the run's scores, and the other metrics
are reductions of the confusion tensor. Within a run, sums follow the
canonical record order or are exact, so results do not depend on the
order of the input records.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

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


def _positive_scores(run: EvaluationRun) -> tuple[np.ndarray, np.ndarray]:
    """Each record's positive-label score (present in auc runs), and which are positives."""
    labels = run.manifest.label_space.labels
    positive = labels.index(run.manifest.label_space.positive_label)
    return run.scores[:, positive], run.y == positive


def _u_statistics(
    score: np.ndarray, is_pos: np.ndarray, code: np.ndarray | None = None, n_codes: int = 1
) -> list[tuple[float, int, int]]:
    """Per code (one code for all records if None): the positives' Mann-Whitney U,
    the number of positives and the number of negatives.

    One sort puts the records in (code, score) order: a quicksort of the
    scores, then a stable sort of the codes. A tie run is a stretch of
    neighbours equal in both, and its records share the run's mid-rank
    within their code. Twice a mid-rank is an integer, so each U is exact.
    """
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
    # twice the sum of the positives' 1-based mid-ranks over all records, per code
    twice = (before[ends] - before[starts]) * (starts + ends + 1)
    if code is None:
        sizes, twice_sums = [n], [int(twice.sum())]
    else:
        sizes = np.bincount(code, minlength=n_codes).tolist()
        twice_sums = np.bincount(c[starts], weights=twice, minlength=n_codes).tolist()
    cuts = [0, *accumulate(sizes)]  # where each code's records start, and the end
    positives = before[cuts].tolist()
    per_code = []
    for first, size, twice_sum, p, q in zip(cuts, sizes, twice_sums, positives, positives[1:]):
        n_pos = q - p
        # ranks shifted to start at 1 within the code; U = rank sum - n_pos (n_pos + 1) / 2
        per_code.append(((twice_sum - n_pos * (2 * first + n_pos + 1)) / 2, n_pos, size - n_pos))
    return per_code


def group_auc(run: EvaluationRun) -> tuple[GroupUtilityVector, list[str]]:
    """Per-group AUC from the positive-label score.

    A group missing one of the two classes cannot be ranked; it gets
    utility 0.5 and a warning. If every group is degenerate the metric is
    undefined and AllGroupsDegenerate is raised.
    """
    groups = run.manifest.group_space.groups
    per_group = _u_statistics(*_positive_scores(run), run.group, len(groups))
    utility: dict[str, float] = {}
    warnings: list[str] = []
    for g, (u, n_pos, n_neg) in zip(groups, per_group):
        if n_pos and n_neg:
            utility[g] = u / (n_pos * n_neg)
        else:
            utility[g] = 0.5
            warnings.append(f"group {g}: only one class present, auc set to 0.5")
    if len(warnings) == len(groups):
        raise AllGroupsDegenerate("no group contains both classes")
    return GroupUtilityVector(utility=utility, utility_kind="auc"), warnings


def pooled_auc(run: EvaluationRun) -> float:
    """AUC over all records together, same tie handling as group_auc."""
    ((u, n_pos, n_neg),) = _u_statistics(*_positive_scores(run))
    return u / (n_pos * n_neg)


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
