"""Utility and fairness metrics computed from an evaluation run.

All metric values live in [0, 1]; the report layer converts to percent
for table output. Conventions:

* ``gap`` and ``worst`` of the group utilities are ``selection.gap``
  and ``selection.worst``, which a summary-table row shares
* ``dp``    = 1 - the worst difference between groups (max - min) in
  predicted-class rates, restricted to the positive class for binary
  tasks and taken over all classes for multi-class tasks
* ``eqodd`` = per-class parity (1 - (max - min) over groups) of
  correct-classification rates, averaged over classes whose (group,
  class) cells are all populated

Degenerate cells are never silently NaN: single-class groups get AUC 0.5
plus a warning, and classes empty in some group are skipped from eqodd
with a warning. Every function is pure and needs the standard library
alone. The kernels work on a run's columns in one pass each, by C-level
byte operations where the codes fit a byte: the confusion tensor is one
count over the flat ``(group * C + true) * C + predicted`` codes, built
by whole-column integer arithmetic with one byte lane a record (two past
256 cells); one split of the positive scores by group and class feeds
every group's AUC, an exact integer (twice the Mann-Whitney U, from a
sort of the group's negative scores and two bisections per positive),
and the pooled AUC; the other metrics are reductions of the confusion
tensor. Counts are exact integers and a rate is one ``int / int``
division; sums follow a fixed order (label, then predicted label), so
results do not depend on the order of the input records.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Iterable
from itertools import chain, repeat
from operator import add, eq, mul, not_
from typing import NamedTuple

from .config import EQODD_VARIANTS
from .errors import AllGroupsDegenerate, NoEvaluableClass
from .records import EvaluationRun
from .selection import RunResult


class ConfusionTensor(NamedTuple):
    """Counts indexed ``counts[group][true label][predicted label]``."""

    groups: tuple[str, ...]
    labels: tuple[str, ...]
    counts: tuple[tuple[tuple[int, ...], ...], ...]  # (G, C, C)


def _lanes(codes: array, width: int) -> int:
    """A column of byte codes as one integer: one ``width``-byte lane a record,
    in native byte order, the first record in the lowest lane."""
    if width == 2:
        wide = bytearray(2 * len(codes))
        wide[sys.byteorder == "big" :: 2] = codes  # each code the lane's low byte
        return int.from_bytes(wide, sys.byteorder)
    return int.from_bytes(codes.tobytes(), sys.byteorder)


def confusion(run: EvaluationRun) -> ConfusionTensor:
    """Tally records into a (group, true, predicted) count tensor."""
    groups = run.manifest.group_space.groups
    labels = run.manifest.label_space.labels
    n_labels = len(labels)
    columns = (run.group, run.y, run.y_hat)
    n_cells = len(groups) * n_labels * n_labels
    if all(codes.typecode == "b" for codes in columns) and n_cells <= 1 << 16:
        # flat codes by three multiply-adds over whole columns, one lane a record:
        # each lane stays below n_cells, so no lane carries into the next
        width = 1 if n_cells <= 1 << 8 else 2
        g, y, p = (_lanes(codes, width) for codes in columns)
        flat = ((g * n_labels + y) * n_labels + p).to_bytes(width * len(run.y), sys.byteorder)
        tally = Counter(memoryview(flat).cast("B" if width == 1 else "H"))
    else:
        tally = Counter(map(add, map(mul, map(add, map(mul, run.group, repeat(n_labels)), run.y),
                                     repeat(n_labels)), run.y_hat))
    # every cell read by one map, in flat order, then sliced into rows and blocks
    cells = [*map(tally.__getitem__, range(n_cells))]
    rows = [tuple(cells[i : i + n_labels]) for i in range(0, n_cells, n_labels)]
    counts = tuple(
        tuple(rows[i : i + n_labels]) for i in range(0, len(rows), n_labels)
    )
    return ConfusionTensor(groups=groups, labels=labels, counts=counts)


def _size(block: tuple[tuple[int, ...], ...]) -> int:
    """Records counted in one group's (true, predicted) block."""
    return sum(map(sum, block))


def _correct(block: tuple[tuple[int, ...], ...]) -> int:
    """Records of one group's block predicted as their true label."""
    return sum(row[y] for y, row in enumerate(block))


def group_accuracy(t: ConfusionTensor) -> dict[str, float]:
    """Per-group accuracy: correct count over group size."""
    return {g: _correct(block) / _size(block) for g, block in zip(t.groups, t.counts)}


# Per group, its negatives' positive-label scores, sorted, and its positives'
_Split = tuple[list[list[float]], list[list[float]]]


def _auc_split(run: EvaluationRun) -> _Split:
    """An auc run's positive-label scores split by group and class, in one pass.

    Each record's key is ``group * 2 + is_pos`` (an auc run has two labels).
    """
    labels = run.manifest.label_space.labels
    positive = labels.index(run.manifest.label_space.positive_label)
    n = len(run.y)
    if run.group.typecode == run.y.typecode == "b":  # every key fits a byte lane
        y = _lanes(run.y, 1)
        is_pos = y if positive else int.from_bytes(b"\x01" * n, sys.byteorder) - y
        keys: Iterable[int] = (2 * _lanes(run.group, 1) + is_pos).to_bytes(n, sys.byteorder)
    else:
        keys = map(add, map(mul, run.group, repeat(2)), run.y if positive else map(not_, run.y))
    split: list[list[float]] = [[] for _ in range(2 * run.manifest.group_space.size)]
    adds = [part.append for part in split]
    for key, value in zip(keys, run.scores[positive]):
        adds[key](value)
    negatives = split[::2]
    for part in negatives:
        part.sort()
    return negatives, split[1::2]


def _twice_u(negatives: list[float], positives: list[float]) -> int:
    """Twice the positives' Mann-Whitney U against the sorted negatives, exactly.

    A positive scores 2 for each negative below it and 1 for each it ties:
    the negatives before its left and before its right insertion point into
    the negatives. Where no positive ties a negative, the two points are
    one. The negatives are left as given.
    """
    lefts = [*map(bisect_left, repeat(negatives), positives)]
    negatives.append(math.inf)  # past every score: each left point indexes a negative
    tied = any(map(eq, map(negatives.__getitem__, lefts), positives))
    del negatives[-1]
    if not tied:
        return 2 * sum(lefts)
    return sum(lefts) + sum(map(bisect_right, repeat(negatives), positives))


def group_auc(
    run: EvaluationRun, split: _Split | None = None
) -> tuple[dict[str, float], list[str]]:
    """Per-group AUC from the positive-label score.

    A group missing one of the two classes cannot be ranked; it gets
    utility 0.5 and a warning. If every group is degenerate the metric is
    undefined and AllGroupsDegenerate is raised. ``split`` is the run's
    :func:`_auc_split`, built here where none is given.
    """
    groups = run.manifest.group_space.groups
    utility: dict[str, float] = {}
    warnings: list[str] = []
    group_negatives, group_positives = split or _auc_split(run)
    for g, negatives, positives in zip(groups, group_negatives, group_positives):
        if negatives and positives:
            u = _twice_u(negatives, positives) / 2
            utility[g] = u / (len(positives) * len(negatives))
        else:
            utility[g] = 0.5
            warnings.append(f"group {g}: only one class present, auc set to 0.5")
    if len(warnings) == len(groups):
        raise AllGroupsDegenerate("no group contains both classes")
    return utility, warnings


def pooled_auc(run: EvaluationRun, split: _Split | None = None) -> float:
    """AUC over all records together, same tie handling as group_auc.

    The pooled negatives are the groups' sorted negatives merged by one sort.
    """
    group_negatives, group_positives = split or _auc_split(run)
    negatives = sorted(chain(*group_negatives))
    positives = [*chain(*group_positives)]
    u = _twice_u(negatives, positives) / 2
    return u / (len(positives) * len(negatives))


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
    rates = []
    for block in t.counts:
        predicted = [*map(sum, zip(*block))]  # the block's records predicted as each class
        size = sum(predicted)
        rates.append([count / size for count in predicted])
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
        split = _auc_split(run)  # one split feeds both AUCs
        utilities, warnings = group_auc(run, split)
        overall = pooled_auc(run, split)
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
        utility_kind=run.manifest.utility_kind,
        overall=overall,
        dp=dp,
        eqodd=eqodd,
        warnings=(*warnings, *eq_warnings, *thin),
    )
