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
with a warning. Every function is pure and needs the standard library
alone. The kernels work on a run's columns: the confusion tensor is one
count over the flat ``(group * C + true) * C + predicted`` codes, every
group's AUC an exact integer (twice the Mann-Whitney U, from a sort of
the group's negative scores and two bisections per positive), and the
other metrics are reductions of the confusion tensor. Counts are exact
integers and a rate is one ``int / int`` division; sums follow a fixed
order (label, then predicted label), so results do not depend on the
order of the input records.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Sequence
from itertools import compress, repeat
from operator import add, eq, mul, not_
from typing import NamedTuple

from .config import EQODD_VARIANTS
from .errors import AllGroupsDegenerate, NoEvaluableClass
from .records import EvaluationRun
from .selection import GroupUtilityVector, RunResult


class ConfusionTensor(NamedTuple):
    """Counts indexed ``counts[group][true label][predicted label]``."""

    groups: tuple[str, ...]
    labels: tuple[str, ...]
    counts: tuple[tuple[tuple[int, ...], ...], ...]  # (G, C, C)


def confusion(run: EvaluationRun) -> ConfusionTensor:
    """Tally records into a (group, true, predicted) count tensor."""
    groups = run.manifest.group_space.groups
    labels = run.manifest.label_space.labels
    n_labels = len(labels)
    tally = Counter(map(add, map(mul, map(add, map(mul, run.group, repeat(n_labels)), run.y),
                                 repeat(n_labels)), run.y_hat))
    cells = range(n_labels)
    counts = tuple(
        tuple(tuple(tally[(g * n_labels + y) * n_labels + p] for p in cells) for y in cells)
        for g in range(len(groups))
    )
    return ConfusionTensor(groups=groups, labels=labels, counts=counts)


def _size(block: tuple[tuple[int, ...], ...]) -> int:
    """Records counted in one group's (true, predicted) block."""
    return sum(map(sum, block))


def _correct(block: tuple[tuple[int, ...], ...]) -> int:
    """Records of one group's block predicted as their true label."""
    return sum(row[y] for y, row in enumerate(block))


def group_accuracy(t: ConfusionTensor) -> GroupUtilityVector:
    """Per-group accuracy: correct count over group size."""
    rates = [_correct(block) / _size(block) for block in t.counts]
    return GroupUtilityVector(utility=dict(zip(t.groups, rates)), utility_kind="accuracy")


def _positive_scores(run: EvaluationRun) -> tuple[Sequence[float], Sequence[int]]:
    """Each record's positive-label score (present in auc runs), and 1 for a positive
    record, 0 for a negative one (an auc run has two labels)."""
    labels = run.manifest.label_space.labels
    positive = labels.index(run.manifest.label_space.positive_label)
    is_pos = run.y if positive == 1 else array("b", map(not_, run.y))
    return run.scores[positive], is_pos


def _twice_u(negatives: list[float], positives: list[float]) -> int:
    """Twice the positives' Mann-Whitney U against the negatives, exactly.

    A positive scores 2 for each negative below it and 1 for each it ties:
    the negatives before its left and before its right insertion point into
    the sorted negatives. Where no positive ties a negative, the two points
    are one.
    """
    negatives.sort()
    lefts = [*map(bisect_left, repeat(negatives), positives)]
    negatives.append(math.inf)  # past every score: each left point indexes a negative
    tied = any(map(eq, map(negatives.__getitem__, lefts), positives))
    del negatives[-1]
    if not tied:
        return 2 * sum(lefts)
    return sum(lefts) + sum(map(bisect_right, repeat(negatives), positives))


def group_auc(run: EvaluationRun) -> tuple[GroupUtilityVector, list[str]]:
    """Per-group AUC from the positive-label score.

    A group missing one of the two classes cannot be ranked; it gets
    utility 0.5 and a warning. If every group is degenerate the metric is
    undefined and AllGroupsDegenerate is raised.
    """
    groups = run.manifest.group_space.groups
    score, is_pos = _positive_scores(run)
    # per group, its negatives' then its positives' scores
    split: list[list[float]] = [[] for _ in range(2 * len(groups))]
    adds = [part.append for part in split]
    for key, value in zip(map(add, map(mul, run.group, repeat(2)), is_pos), score):
        adds[key](value)
    utility: dict[str, float] = {}
    warnings: list[str] = []
    for g, negatives, positives in zip(groups, split[::2], split[1::2]):
        if negatives and positives:
            u = _twice_u(negatives, positives) / 2
            utility[g] = u / (len(positives) * len(negatives))
        else:
            utility[g] = 0.5
            warnings.append(f"group {g}: only one class present, auc set to 0.5")
    if len(warnings) == len(groups):
        raise AllGroupsDegenerate("no group contains both classes")
    return GroupUtilityVector(utility=utility, utility_kind="auc"), warnings


def pooled_auc(run: EvaluationRun) -> float:
    """AUC over all records together, same tie handling as group_auc."""
    score, is_pos = _positive_scores(run)
    positives = [*compress(score, is_pos)]
    negatives = [*compress(score, map(not_, is_pos))]
    u = _twice_u(negatives, positives) / 2
    return u / (len(positives) * len(negatives))


def gap(v: GroupUtilityVector) -> float:
    values = v.values_in_order()
    return max(values) - min(values)


def worst(v: GroupUtilityVector) -> float:
    return min(v.values_in_order())


def _spread(rates: list[float]) -> float:
    # The worst |rate_a - rate_b| over the groups is max - min: a rounded
    # difference is monotone in each operand, so no pair rounds above (max, min).
    return max(rates) - min(rates)


def demographic_parity(t: ConfusionTensor, positive_label: str) -> float:
    """1 minus the worst difference between groups in predicted-class rates.

    Binary tasks compare only the positive class; multi-class tasks take
    the maximum over classes as well.
    """
    # per group, the share of its records predicted as each class
    rates = [[sum(column) / _size(block) for column in zip(*block)] for block in t.counts]
    classes = [t.labels.index(positive_label)] if len(t.labels) == 2 else range(len(t.labels))
    return 1.0 - max(_spread([row[c] for row in rates]) for c in classes)


def equalized_odds(t: ConfusionTensor, variant: str = "diagonal") -> tuple[float, list[str]]:
    """Per-class rate parity across groups, averaged over evaluable classes.

    ``diagonal`` compares only the correct-classification rate
    P[h(X)=y | Y=y, A=g]; ``full`` compares every conditional rate
    P[h(X)=c | Y=y, A=g]. A class with an empty (group, class) cell is
    skipped with a warning; if nothing remains, NoEvaluableClass.
    """
    if variant not in EQODD_VARIANTS:
        raise ValueError(f"unknown eqodd variant {variant!r}")
    totals = [[*map(sum, block)] for block in t.counts]  # (G, C) records of each true class
    warnings = []
    scores = []  # class order, then predicted-class order; Python's sum keeps the last bit
    for y, label in enumerate(t.labels):
        empty = [g for g, sizes in zip(t.groups, totals) if not sizes[y]]
        if empty:
            warnings.append(
                f"eqodd: class {label} skipped (no samples in group(s) {', '.join(empty)})"
            )
            continue
        for c in [y] if variant == "diagonal" else range(len(t.labels)):
            rates = [block[y][c] / sizes[y] for block, sizes in zip(t.counts, totals)]
            scores.append(1.0 - _spread(rates))
    if not scores:
        raise NoEvaluableClass("every class has an empty (group, class) cell")
    return sum(scores) / len(scores), warnings


def metric_report(run: EvaluationRun, eqodd_variant: str = "diagonal") -> RunResult:
    """Compute the full five-metric bundle for one run, with the run's identity."""
    t = confusion(run)
    if run.manifest.utility_kind == "auc":
        utilities, warnings = group_auc(run)
        overall = pooled_auc(run)
    else:
        utilities, warnings = group_accuracy(t), []
        overall = sum(map(_correct, t.counts)) / len(run.sample_ids)
    dp = demographic_parity(t, run.manifest.label_space.positive_label)
    eqodd, eq_warnings = equalized_odds(t, variant=eqodd_variant)
    thin = [
        f"thin support: group {g} has only {n} record(s)"
        for g, n in zip(t.groups, map(_size, t.counts))
        if n < 2
    ]
    return RunResult(
        **run.manifest.identity(),
        group_utilities=utilities,
        overall=overall,
        worst=worst(utilities),
        gap=gap(utilities),
        dp=dp,
        eqodd=eqodd,
        warnings=(*warnings, *eq_warnings, *thin),
    )
