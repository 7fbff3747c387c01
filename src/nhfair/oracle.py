"""Brute-force re-implementations of every metric and selection rule.

Everything here is written as plain nested loops over records, groups,
classes, and pairs, on purpose: these functions are the independent
second route that the test suite compares against the production
implementations. Only the result containers are imported from the
production modules; no computation is shared.

Do not "optimize" this file by delegating to metrics or selection - the
duplication is the point.
"""

from __future__ import annotations

import math as _math

from .errors import (
    AllGroupsDegenerate,
    EmptyCandidateSet,
    NoEvaluableClass,
    SelectionError,
)
from .records import EvaluationRun
from .selection import ZONE_ORDER, RunResult, SelectionResult, Zone


def _oracle_group_accuracy(run: EvaluationRun) -> dict[str, float]:
    out: dict[str, float] = {}
    for g in run.manifest.group_space.groups:
        correct = 0
        total = 0
        for rec in run.records:
            if rec.group == g:
                total += 1
                if rec.predicted_label == rec.true_label:
                    correct += 1
        out[g] = correct / total
    return out


def _oracle_auc(pos_scores: list[float], neg_scores: list[float]) -> float:
    u = 0.0
    for p in pos_scores:
        for q in neg_scores:
            if p > q:
                u += 1.0
            elif p == q:
                u += 0.5
    return u / (len(pos_scores) * len(neg_scores))


def _oracle_group_auc(run: EvaluationRun) -> tuple[dict[str, float], list[str]]:
    positive = run.manifest.label_space.positive_label
    out: dict[str, float] = {}
    warnings: list[str] = []
    degenerate = 0
    for g in run.manifest.group_space.groups:
        pos: list[float] = []
        neg: list[float] = []
        for rec in run.records:
            if rec.group != g:
                continue
            if rec.true_label == positive:
                pos.append(rec.scores[positive])
            else:
                neg.append(rec.scores[positive])
        if not pos or not neg:
            out[g] = 0.5
            warnings.append(f"group {g}: only one class present, auc set to 0.5")
            degenerate += 1
        else:
            out[g] = _oracle_auc(pos, neg)
    if degenerate == len(run.manifest.group_space.groups):
        raise AllGroupsDegenerate("no group contains both classes")
    return out, warnings


def _oracle_pooled_auc(run: EvaluationRun) -> float:
    positive = run.manifest.label_space.positive_label
    pos = [rec.scores[positive] for rec in run.records if rec.true_label == positive]
    neg = [rec.scores[positive] for rec in run.records if rec.true_label != positive]
    return _oracle_auc(pos, neg)


def _oracle_dp(run: EvaluationRun) -> float:
    groups = run.manifest.group_space.groups
    labels = run.manifest.label_space.labels
    if len(labels) == 2:
        classes = [run.manifest.label_space.positive_label]
    else:
        classes = list(labels)
    worst_diff = 0.0
    for label in classes:
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                rate = []
                for g in (groups[i], groups[j]):
                    hits = 0
                    total = 0
                    for rec in run.records:
                        if rec.group == g:
                            total += 1
                            if rec.predicted_label == label:
                                hits += 1
                    rate.append(hits / total)
                diff = abs(rate[0] - rate[1])
                if diff > worst_diff:
                    worst_diff = diff
    return 1.0 - worst_diff


def _oracle_eqodd(run: EvaluationRun, variant: str) -> tuple[float, list[str]]:
    groups = run.manifest.group_space.groups
    labels = run.manifest.label_space.labels
    warnings: list[str] = []
    scores: list[float] = []
    for y in labels:
        empty = []
        for g in groups:
            n_gy = 0
            for rec in run.records:
                if rec.group == g and rec.true_label == y:
                    n_gy += 1
            if n_gy == 0:
                empty.append(g)
        if empty:
            warnings.append(
                f"eqodd: class {y} skipped (no samples in group(s) {', '.join(empty)})"
            )
            continue
        predicted = [y] if variant == "diagonal" else list(labels)
        for c in predicted:
            worst_diff = 0.0
            for i in range(len(groups)):
                for j in range(i + 1, len(groups)):
                    rate = []
                    for g in (groups[i], groups[j]):
                        hits = 0
                        total = 0
                        for rec in run.records:
                            if rec.group == g and rec.true_label == y:
                                total += 1
                                if rec.predicted_label == c:
                                    hits += 1
                        rate.append(hits / total)
                    diff = abs(rate[0] - rate[1])
                    if diff > worst_diff:
                        worst_diff = diff
            scores.append(1.0 - worst_diff)
    if not scores:
        raise NoEvaluableClass("every class has an empty (group, class) cell")
    return sum(scores) / len(scores), warnings


def oracle_metrics(run: EvaluationRun, eqodd_variant: str = "diagonal") -> RunResult:
    """Full metric bundle by explicit enumeration; mirrors metric_report."""
    warnings: list[str] = []
    if run.manifest.utility_kind == "auc":
        utilities, auc_warnings = _oracle_group_auc(run)
        warnings.extend(auc_warnings)
        overall = _oracle_pooled_auc(run)
    else:
        utilities = _oracle_group_accuracy(run)
        correct = 0
        for rec in run.records:
            if rec.predicted_label == rec.true_label:
                correct += 1
        overall = correct / len(run.records)

    dp = _oracle_dp(run)
    eqodd, eq_warnings = _oracle_eqodd(run, eqodd_variant)
    warnings.extend(eq_warnings)
    for g in run.manifest.group_space.groups:
        n = sum(1 for rec in run.records if rec.group == g)
        if n < 2:
            warnings.append(f"thin support: group {g} has only {n} record(s)")

    return RunResult(
        **run.manifest.identity(),
        group_utilities=utilities,
        utility_kind=run.manifest.utility_kind,
        overall=overall,
        dp=dp,
        eqodd=eqodd,
        warnings=tuple(warnings),
    )


def _oracle_zone(candidate: RunResult, baseline: RunResult, tolerance: float) -> Zone:
    groups = list(baseline.group_utilities)
    ok = []
    for g in groups:
        ok.append(candidate.group_utilities[g] >= baseline.group_utilities[g] - tolerance)
    if all(ok):
        return Zone.OPTIMAL
    if not any(ok):
        return Zone.DEGRADATION
    worst_value = min(baseline.group_utilities[g] for g in groups)
    worst_group = None
    for g in groups:
        if baseline.group_utilities[g] == worst_value:
            worst_group = g
            break
    if ok[groups.index(worst_group)]:
        return Zone.SUB_OPTIMAL
    return Zone.UNWANTED


def _oracle_distance(a: RunResult, coords: dict[str, float]) -> float:
    total = 0.0
    for g in a.group_utilities:
        d = coords[g] - a.group_utilities[g]
        total += d * d
    return _math.sqrt(total)


def oracle_select(
    candidates: list[RunResult], baseline: RunResult, tolerance: float = 0.0
) -> SelectionResult:
    """Zone classification and selection by exhaustive comparison."""
    if not candidates:
        raise EmptyCandidateSet("selection needs at least one candidate")
    ids = [c.run_id for c in candidates]
    if len(set(ids)) != len(ids):
        raise SelectionError("duplicate candidate run_id(s)")

    zones = {c.run_id: _oracle_zone(c, baseline, tolerance) for c in candidates}
    tally = {z: 0 for z in ZONE_ORDER}
    for z in zones.values():
        tally[z] += 1

    selected = None
    zone = None
    for z in (Zone.OPTIMAL, Zone.SUB_OPTIMAL, Zone.DEGRADATION):
        members = [c for c in candidates if zones[c.run_id] == z]
        if not members:
            continue
        zone = z
        if z in (Zone.OPTIMAL, Zone.SUB_OPTIMAL):
            best = members[0]
            for c in members[1:]:
                if (c.gap, -c.overall, c.run_id) < (best.gap, -best.overall, best.run_id):
                    best = c
        else:
            coords = dict(baseline.group_utilities)
            best = members[0]
            for c in members[1:]:
                key_c = (_oracle_distance(c, coords), -c.worst, c.run_id)
                key_b = (_oracle_distance(best, coords), -best.worst, best.run_id)
                if key_c < key_b:
                    best = c
        selected = best
        break

    return SelectionResult(
        selected=selected,
        zone=zone,
        tally=tally,
        candidate_zones=zones,
        rationale="oracle",
    )


def oracle_dto(candidates: list[RunResult]) -> tuple[RunResult, float]:
    """Distance-to-utopia selection by exhaustive comparison."""
    if not candidates:
        raise EmptyCandidateSet("dto selection needs at least one candidate")
    coords: dict[str, float] = {}
    for g in candidates[0].group_utilities:
        best_value = candidates[0].group_utilities[g]
        for c in candidates[1:]:
            if c.group_utilities[g] > best_value:
                best_value = c.group_utilities[g]
        coords[g] = best_value
    best = candidates[0]
    for c in candidates[1:]:
        key_c = (_oracle_distance(c, coords), -c.worst, c.run_id)
        key_b = (_oracle_distance(best, coords), -best.worst, best.run_id)
        if key_c < key_b:
            best = c
    return best, _oracle_distance(best, coords)


def oracle_friedman(ranks: list[list[float]]) -> float:
    """Friedman statistic by direct summation over a plain rank matrix."""
    n = len(ranks)
    k = len(ranks[0])
    total = 0.0
    for j in range(k):
        column_sum = 0.0
        for i in range(n):
            column_sum += ranks[i][j]
        mean = column_sum / n
        total += mean * mean
    return 12.0 * n / (k * (k + 1)) * total - 3.0 * n * (k + 1)
