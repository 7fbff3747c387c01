"""Seed aggregation and cross-method rank statistics.

Methods are compared across datasets (the blocks) on the mean of a
chosen metric: each dataset ranks the methods (rank 1 = best under the
metric's direction, ties averaged), the Friedman statistic tests whether
mean ranks differ, and the Nemenyi critical difference says how far two
mean ranks must be apart to call them different. Methods whose mean
ranks sit closer than the CD form "cliques" that a critical-difference
plot joins with a bar.

Metric directions are fixed here (gap: lower is better; everything
else: higher is better) so a silent direction flip cannot invert the
conclusions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .config import METRIC_NAMES
from .errors import (
    DegenerateMatrix,
    DuplicateSeed,
    EngineError,
    MissingCell,
    ParseError,
    UnsupportedAlpha,
    UnsupportedK,
)
from .tables import ReportRow

if TYPE_CHECKING:
    from .selection import RunResult

METRIC_DIRECTIONS = {
    "utility": "higher_better",
    "worst": "higher_better",
    "gap": "lower_better",
    "eqodd": "higher_better",
    "dp": "higher_better",
}

# Critical values q_alpha(k) for the Nemenyi test, k = 2..20. These are
# studentized-range quantiles at infinite degrees of freedom divided by
# sqrt(2), embedded so results do not depend on a stats library version.
_Q_TABLE = {
    0.05: (
        1.959964, 2.343701, 2.569032, 2.727774, 2.849705, 2.948320,
        3.030879, 3.101730, 3.163684, 3.218654, 3.268004, 3.312739,
        3.353618, 3.391230, 3.426041, 3.458425, 3.488685, 3.517073,
        3.543799,
    ),
    0.10: (
        1.644854, 2.052293, 2.291341, 2.459516, 2.588521, 2.692732,
        2.779884, 2.854606, 2.919889, 2.977768, 3.029694, 3.076733,
        3.119693, 3.159199, 3.195743, 3.229723, 3.261461, 3.291224,
        3.319233,
    ),
}


class RankMatrix(NamedTuple):
    methods: tuple[str, ...]
    blocks: tuple[str, ...]
    ranks: tuple[tuple[float, ...], ...]  # per block, each method's rank; ties averaged
    direction: str

    @property
    def k(self) -> int:
        return len(self.methods)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def _mean_std(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, var**0.5


def _behind(error: EngineError, runs: list[RunResult]) -> EngineError:
    """``error``, its ``runs`` the results behind it."""
    error.runs = runs
    return error


def aggregate(results: list[RunResult]) -> list[ReportRow]:
    """Collapse per-seed results into one table row per (method, dataset, split).

    Seeds must be distinct within a row and its runs must share one
    utility kind. Warnings are merged without repeats, and means and
    sample stds (n - 1, zero for a single seed) taken, in seed order, so
    a row does not depend on the order of its inputs. Rows come back in
    table order: by dataset, then method, then split. An error's ``runs``
    are the results behind it, in input order.
    """
    groups: dict[tuple[str, str, str], list[RunResult]] = {}
    mixed: list[RunResult] = []  # a row's first run and the first, in input order, of another kind
    for result in results:
        entries = groups.setdefault((result.method, result.dataset, result.split), [])
        kind = result.group_utilities.utility_kind
        if not mixed and entries and entries[0].group_utilities.utility_kind != kind:
            mixed = [entries[0], result]
        entries.append(result)

    for (method, dataset, split), entries in sorted(groups.items()):
        seeds = [result.seed for result in entries]
        if len(set(seeds)) != len(seeds):
            dup = sorted({s for s in seeds if seeds.count(s) > 1})
            raise _behind(DuplicateSeed(
                f"duplicate seed(s) {dup} for method={method} dataset={dataset} split={split}"
            ), [result for result in entries if result.seed in dup])
    if mixed:
        raise _behind(ParseError(
            f"mixed utility kinds for method={mixed[1].method} dataset={mixed[1].dataset}"
        ), mixed)

    rows: list[ReportRow] = []
    for (method, dataset, split), entries in groups.items():
        in_seed_order = sorted(entries, key=lambda result: result.seed)
        values = [result.as_dict() for result in in_seed_order]
        warnings = dict.fromkeys(w for result in in_seed_order for w in result.warnings)
        rows.append(
            ReportRow(
                method=method,
                dataset=dataset,
                split=split,
                utility_kind=entries[0].group_utilities.utility_kind,
                n_seeds=len(entries),
                metrics={name: _mean_std([v[name] for v in values]) for name in METRIC_NAMES},
                warnings=tuple(warnings),
            )
        )
    return sorted(rows, key=lambda row: (row.dataset, row.method, row.split))


def _average_ranks(values: list[float], higher_better: bool) -> list[float]:
    """Rank 1 = best; tied values share their average rank."""
    k = len(values)
    keyed = sorted(range(k), key=lambda j: (-values[j] if higher_better else values[j], j))
    ranks = [0.0] * k
    i = 0
    while i < k:
        j = i
        while j + 1 < k and values[keyed[j + 1]] == values[keyed[i]]:
            j += 1
        avg = (i + 1 + j + 1) / 2.0
        for pos in range(i, j + 1):
            ranks[keyed[pos]] = avg
        i = j + 1
    return ranks


def rank_matrix(rows: list[ReportRow], metric: str) -> RankMatrix:
    """Rank method means per dataset for one metric, which every row must hold.

    The metric is ranked in its METRIC_DIRECTIONS direction; an unknown
    metric is a ValueError. Every (method, dataset) cell must be present;
    a hole raises MissingCell naming it, matching the convention of
    dropping a method from the comparison rather than imputing. Ranks do
    not depend on the units of the means.
    """
    if metric not in METRIC_DIRECTIONS:
        raise ValueError(f"unknown metric {metric!r}")
    direction = METRIC_DIRECTIONS[metric]

    table: dict[tuple[str, str], float] = {}
    methods: list[str] = []
    blocks: list[str] = []
    for row in rows:
        key = (row.method, row.dataset)
        if key in table:
            raise MissingCell(
                f"duplicate cell for method={row.method} dataset={row.dataset}; "
                "pass a single table per comparison"
            )
        table[key] = row.metrics[metric][0]
        if row.method not in methods:
            methods.append(row.method)
        if row.dataset not in blocks:
            blocks.append(row.dataset)
    if len(methods) < 2 or len(blocks) < 1:
        raise DegenerateMatrix(
            f"need at least 2 methods and 1 dataset for metric {metric!r}, "
            f"got {len(methods)} and {len(blocks)}"
        )
    for m in methods:
        for b in blocks:
            if (m, b) not in table:
                raise MissingCell(f"method {m!r} has no cell for dataset {b!r}")

    higher = direction == "higher_better"
    ranks = tuple(
        tuple(_average_ranks([table[(m, b)] for m in methods], higher)) for b in blocks
    )
    return RankMatrix(
        methods=tuple(methods), blocks=tuple(blocks), ranks=ranks, direction=direction
    )


def mean_ranks(m: RankMatrix) -> dict[str, float]:
    means: dict[str, float] = {}
    for j, method in enumerate(m.methods):
        means[method] = sum(row[j] for row in m.ranks) / m.n_blocks
    return means


def _tie_correction(m: RankMatrix) -> float:
    """1 - sum(t^3 - t) / (N k (k^2 - 1)); 1.0 when no ties."""
    total = 0
    for row in m.ranks:
        for value in set(row):
            t = row.count(value)
            total += t**3 - t
    return 1.0 - total / (m.n_blocks * m.k * (m.k**2 - 1))


def friedman(m: RankMatrix, tie_corrected: bool = False) -> tuple[float, int]:
    """Friedman chi-square over the rank matrix, df = k - 1.

    statistic = 12 N / (k (k+1)) * sum_j rbar_j^2 - 3 N (k+1)

    The default is the classical statistic; ``tie_corrected`` divides by
    the standard tie-correction factor, which is undefined when every
    block is fully tied.
    """
    if m.k < 2 or m.n_blocks < 2:
        raise DegenerateMatrix(f"need k >= 2 and N >= 2, got k={m.k}, N={m.n_blocks}")
    k = m.k
    n = m.n_blocks
    means = mean_ranks(m)
    sum_sq = sum(means[method] ** 2 for method in m.methods)
    # Grouped so the fully tied case cancels exactly in float arithmetic.
    statistic = (12.0 * n * sum_sq) / (k * (k + 1)) - 3.0 * n * (k + 1)
    if tie_corrected:
        c = _tie_correction(m)
        if c == 0.0:
            raise DegenerateMatrix("every block fully tied; tie-corrected statistic undefined")
        statistic /= c
    return statistic, k - 1


def nemenyi_cd(k: int, n_blocks: int, alpha: float = 0.05) -> float:
    """Critical difference q_alpha(k) * sqrt(k (k+1) / (6 N))."""
    if alpha not in _Q_TABLE:
        raise UnsupportedAlpha(f"alpha must be one of {sorted(_Q_TABLE)}, got {alpha}")
    if not 2 <= k <= 20:
        raise UnsupportedK(f"k must be in [2, 20], got {k}")
    if n_blocks < 1:
        raise DegenerateMatrix(f"need at least one block, got {n_blocks}")
    q = _Q_TABLE[alpha][k - 2]
    return q * (k * (k + 1) / (6.0 * n_blocks)) ** 0.5


def cliques(ranks: dict[str, float], cd: float) -> list[tuple[str, ...]]:
    """Maximal runs of rank-sorted methods spanning less than the CD.

    Only multi-method cliques are reported, and a clique contained in a
    larger one is suppressed.
    """
    ordered = sorted(ranks, key=lambda name: (ranks[name], name))
    values = [ranks[name] for name in ordered]
    spans: list[tuple[int, int]] = []
    for i in range(len(ordered)):
        j = i
        while j + 1 < len(ordered) and values[j + 1] - values[i] < cd:
            j += 1
        if j > i:
            spans.append((i, j))
    maximal = [
        (i, j)
        for (i, j) in spans
        if not any((a <= i and j <= b) and (a, b) != (i, j) for (a, b) in spans)
    ]
    return [tuple(ordered[i : j + 1]) for i, j in maximal]
