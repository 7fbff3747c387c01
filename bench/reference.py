"""Reference results computed apart from nhfair, and the output checks.

Every expected value here comes from the generated records (before they
are written) or from the files the harness wrote itself, by another
route than the program takes: the confusion tensor is one ``bincount``,
AUC counts lower and equal negatives with ``searchsorted`` instead of
mid-ranks, worst pairwise differences are column max minus min, ranks
count better and tied competitors, and the Nemenyi critical value is
integrated from the normal distribution. ``oracle_select`` serves the
four-zone check; it shares no code with ``nhfair.selection``.

Each ``check_*`` returns a list of problems; an empty list means the
output is correct. Nothing is compared against a stored copy of an
earlier output.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nhfair.oracle import oracle_select
from nhfair.selection import CandidatePoint

METRICS = ("utility", "worst", "gap", "eqodd", "dp")
# A percent cell printed at two decimals is within half a unit of the
# exact value; the extra 1e-6 absorbs float noise in the reference.
PRINT_TOL = 0.005 + 1e-6
FLOAT_TOL = 1e-9


@dataclass(frozen=True)
class RefReport:
    """Reference metrics of one run; ``degenerate`` predicts a warning."""

    run_id: str
    method: str
    utilities: dict[str, float]
    values: dict[str, float]  # METRICS -> fraction
    degenerate: bool


def _auc(pos: np.ndarray, neg: np.ndarray) -> float | None:
    """P(score_pos > score_neg) + P(equal) / 2 by counting sorted negatives."""
    if len(pos) == 0 or len(neg) == 0:
        return None
    neg = np.sort(neg)
    lower = np.searchsorted(neg, pos, side="left")
    equal = np.searchsorted(neg, pos, side="right") - lower
    return float(lower.sum() + 0.5 * equal.sum()) / (len(pos) * len(neg))


def reference_report(run, eqodd: str = "diagonal") -> RefReport:
    m = run.manifest
    groups, labels = m.group_space.groups, m.label_space.labels
    gi = {g: i for i, g in enumerate(groups)}
    li = {lb: i for i, lb in enumerate(labels)}
    n, n_g, n_c = len(run.records), len(groups), len(labels)
    g = np.fromiter((gi[r.group] for r in run.records), np.int64, n)
    y = np.fromiter((li[r.true_label] for r in run.records), np.int64, n)
    yh = np.fromiter((li[r.predicted_label] for r in run.records), np.int64, n)
    counts = np.bincount((g * n_c + y) * n_c + yh, minlength=n_g * n_c * n_c)
    counts = counts.reshape(n_g, n_c, n_c)
    per_group = counts.sum(axis=(1, 2))
    degenerate = bool((per_group < 2).any())
    positive = li[m.label_space.positive_label]

    if m.utility_kind == "auc":
        score = np.fromiter(
            (r.scores[m.label_space.positive_label] for r in run.records), float, n
        )
        is_pos = y == positive
        utilities = {}
        for i, name in enumerate(groups):
            value = _auc(score[(g == i) & is_pos], score[(g == i) & ~is_pos])
            degenerate |= value is None
            utilities[name] = 0.5 if value is None else value
        overall = _auc(score[is_pos], score[~is_pos])
    else:
        utilities = {name: np.trace(counts[i]) / per_group[i] for i, name in enumerate(groups)}
        overall = np.trace(counts.sum(axis=0)) / n

    predicted_rate = counts.sum(axis=1) / per_group[:, None]  # (group, predicted class)
    classes = [positive] if n_c == 2 else list(range(n_c))
    spread = predicted_rate[:, classes].max(axis=0) - predicted_rate[:, classes].min(axis=0)
    dp = 1.0 - float(spread.max())

    class_totals = counts.sum(axis=2)  # (group, true class)
    parities = []
    for c in range(n_c):
        if (class_totals[:, c] == 0).any():
            degenerate = True
            continue
        rates = counts[:, c, :] / class_totals[:, c, None]  # (group, predicted)
        columns = [c] if eqodd == "diagonal" else list(range(n_c))
        parities.extend(1.0 - (rates[:, columns].max(axis=0) - rates[:, columns].min(axis=0)))
    values = {
        "utility": float(overall),
        "worst": float(min(utilities.values())),
        "gap": float(max(utilities.values()) - min(utilities.values())),
        "eqodd": float(np.mean(parities)),
        "dp": dp,
    }
    return RefReport(
        run_id=m.run_id,
        method=m.method,
        utilities={k: float(v) for k, v in utilities.items()},
        values=values,
        degenerate=degenerate,
    )


# ---------------------------------------------------------------- evaluate

@dataclass(frozen=True)
class ExpectedRow:
    kind: str
    n_seeds: int
    cells: dict[str, tuple[float, float]]  # metric -> (mean, sample std), fractions
    warns: bool


def expected_table(runs, reports: list[RefReport]) -> dict[tuple[str, str, str], ExpectedRow]:
    keyed: dict[tuple[str, str, str], list[tuple]] = {}
    for run, report in zip(runs, reports):
        m = run.manifest
        keyed.setdefault((m.method, m.dataset, m.split), []).append((m.utility_kind, report))
    table = {}
    for key, entries in keyed.items():
        cells = {}
        for metric in METRICS:
            v = np.array([rep.values[metric] for _, rep in entries])
            cells[metric] = (float(v.mean()), float(v.std(ddof=1)) if len(v) > 1 else 0.0)
        table[key] = ExpectedRow(
            kind=entries[0][0],
            n_seeds=len(entries),
            cells=cells,
            warns=any(rep.degenerate for _, rep in entries),
        )
    return table


def _read_table(path: Path) -> tuple[list[dict[str, str]], list[str]]:
    """Rows of an evaluate/compare table, and the problems found reading it."""
    if not path.exists():
        return [], [f"{path.name}: missing"]
    with path.open(encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        rows = list(reader)
        header = reader.fieldnames or []
    problems = [f"{path.name}: no column {c!r}" for c in ("method", "dataset", "n_seeds",
                                                         *METRICS) if c not in header]
    for line, row in enumerate(rows, start=2):
        if None in row or None in row.values():
            problems.append(f"{path.name}: line {line} has {len(header)} columns in the "
                            f"header but not in the row")
    return rows, problems


def _mean_std(cell: str) -> tuple[float, float | None]:
    parts = cell.split("±")
    return float(parts[0]), (float(parts[1]) if len(parts) == 2 else None)


def check_evaluate(path: Path, expected: dict[tuple[str, str, str], ExpectedRow]) -> list[str]:
    rows, problems = _read_table(path)
    if problems:
        return problems
    keys = [(r["method"], r["dataset"], r.get("split", "")) for r in rows]
    want = sorted(expected, key=lambda k: (k[1], k[0], k[2]))
    if keys != want:
        return [f"{path.name}: rows {keys[:4]}... differ from the expected "
                f"(dataset, method) order {want[:4]}..."]
    for key, row in zip(keys, rows):
        exp = expected[key]
        where = f"{path.name}: {key[0]}/{key[1]}"
        if row.get("utility_kind", exp.kind) != exp.kind or int(row["n_seeds"]) != exp.n_seeds:
            problems.append(f"{where}: kind/seeds {row.get('utility_kind')}/{row['n_seeds']}")
        for metric in METRICS:
            try:
                mean, std = _mean_std(row[metric])
            except ValueError:
                problems.append(f"{where}: {metric} cell {row[metric]!r} is not mean ± std")
                continue
            ref_mean, ref_std = exp.cells[metric]
            if abs(mean - 100 * ref_mean) > PRINT_TOL:
                problems.append(f"{where}: {metric} mean {mean} != {100 * ref_mean:.6f}")
            if (std is None) != (exp.n_seeds == 1) or (
                std is not None and abs(std - 100 * ref_std) > PRINT_TOL
            ):
                problems.append(f"{where}: {metric} std {std} != {100 * ref_std:.6f}")
        if bool(row.get("warnings", "")) != exp.warns:
            problems.append(f"{where}: warnings {row.get('warnings')!r}, expected "
                            f"{'some' if exp.warns else 'none'}")
    return problems


# ---------------------------------------------------------------- compare

def nemenyi_q(k: int, alpha: float) -> float:
    """Studentized-range quantile at infinite df over sqrt(2), by integration.

    P(range of k standard normals <= q) = k * int phi(z) (Phi(z) - Phi(z - q))^(k-1) dz.
    """
    z = np.linspace(-12.0, 12.0, 24001)
    phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    cdf = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in z])

    def coverage(q: float) -> float:
        inner = np.clip(cdf - np.interp(z - q, z, cdf), 0.0, 1.0)
        f = k * phi * inner ** (k - 1)
        return float(((f[1:] + f[:-1]) * 0.5 * (z[1] - z[0])).sum())

    lo, hi = 0.0, 10.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if coverage(mid) < 1.0 - alpha else (lo, mid)
    return 0.5 * (lo + hi) / math.sqrt(2.0)


def _ranks(values: list[float], higher_better: bool) -> list[float]:
    """Rank 1 = best: 1 + (number better) + (number tied) / 2."""
    sign = 1.0 if higher_better else -1.0
    return [
        1.0
        + sum(sign * w > sign * v for w in values)
        + 0.5 * (sum(w == v for w in values) - 1)
        for v in values
    ]


def _cliques(ranks: dict[str, float], cd: float) -> set[frozenset[str]]:
    order = sorted(ranks, key=lambda m: (ranks[m], m))
    runs = set()
    for i in range(len(order)):
        members = [m for m in order[i:] if ranks[m] - ranks[order[i]] < cd]
        if len(members) > 1:
            runs.add(frozenset(members))
    return {c for c in runs if not any(c < other for other in runs)}


def check_compare(cd_path: Path, svg_path: Path, table_path: Path, metric: str,
                  q_alpha: float) -> list[str]:
    rows, problems = _read_table(table_path)
    if problems:
        return problems
    if not cd_path.exists() or not svg_path.exists():
        return [f"{cd_path.name} or {svg_path.name}: missing"]
    out = json.loads(cd_path.read_text(encoding="utf-8"))
    methods = list(dict.fromkeys(r["method"] for r in rows))
    datasets = list(dict.fromkeys(r["dataset"] for r in rows))
    mean = {(r["method"], r["dataset"]): _mean_std(r[metric])[0] for r in rows}
    k, n = len(methods), len(datasets)
    per_dataset = [_ranks([mean[(m, d)] for m in methods], metric != "gap") for d in datasets]
    ranks = {m: sum(row[j] for row in per_dataset) / n for j, m in enumerate(methods)}
    friedman = 12.0 * n / (k * (k + 1)) * sum(r * r for r in ranks.values()) - 3.0 * n * (k + 1)
    cd = q_alpha * math.sqrt(k * (k + 1) / (6.0 * n))

    got = out.get("mean_ranks", {})
    if (out.get("k"), out.get("n_datasets"), out.get("df")) != (k, n, k - 1):
        problems.append(f"{cd_path.name}: k/N/df {out.get('k')}/{out.get('n_datasets')}/"
                        f"{out.get('df')} != {k}/{n}/{k - 1}")
    if set(got) != set(methods) or any(abs(got[m] - ranks[m]) > FLOAT_TOL for m in methods):
        problems.append(f"{cd_path.name}: mean ranks {got} != {ranks}")
    if abs(sum(got.values()) - k * (k + 1) / 2) > FLOAT_TOL:
        problems.append(f"{cd_path.name}: mean ranks sum to {sum(got.values())}, not k(k+1)/2")
    reported = out.get("friedman_statistic", math.nan)
    if not abs(reported - friedman) <= FLOAT_TOL * max(1.0, friedman):
        problems.append(f"{cd_path.name}: Friedman {out.get('friedman_statistic')} != {friedman}")
    reported_cd = out.get("cd", math.nan)
    if not abs(reported_cd - cd) <= 1e-5 * cd:
        problems.append(f"{cd_path.name}: CD {reported_cd} != {cd}")
    cliques = [frozenset(c) for c in out.get("cliques", [])]
    for c in cliques:
        span = max(got[m] for m in c) - min(got[m] for m in c)
        if not span < reported_cd:
            problems.append(f"{cd_path.name}: clique {sorted(c)} spans {span} >= CD")
    if set(cliques) != _cliques(got, reported_cd) or len(set(cliques)) != len(cliques):
        problems.append(f"{cd_path.name}: cliques {out.get('cliques')} are not the maximal "
                        f"runs within the CD")

    try:
        root = ET.parse(svg_path).getroot()
    except ET.ParseError as exc:
        return problems + [f"{svg_path.name}: not XML: {exc}"]
    texts = [el.text or "" for el in root.iter() if el.tag.endswith("text")]
    missing = [m for m in methods if not any(t.startswith(f"{m} (") for t in texts)]
    if not root.tag.endswith("svg") or missing:
        problems.append(f"{svg_path.name}: no label for {missing}")
    return problems


# ---------------------------------------------------------------- selection

Candidate = tuple[str, str, dict[str, float], float]  # run_id, method, utilities, overall


def _distance(utilities: dict[str, float], target: dict[str, float]) -> float:
    total = 0.0
    for g, u in utilities.items():
        d = target[g] - u
        total += d * d
    return math.sqrt(total)


def selected_run_id(path: Path) -> str | None:
    """The run select-erm chose, or None if its output cannot be read."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))["selected"]["run_id"]
    except (OSError, ValueError, KeyError, TypeError):
        return None


def check_select_erm(path: Path, candidates: list[Candidate]) -> list[str]:
    groups = list(candidates[0][2])
    utopia = {g: max(c[2][g] for c in candidates) for g in groups}
    distance = {c[0]: _distance(c[2], utopia) for c in candidates}
    best = min(candidates, key=lambda c: (distance[c[0]], -min(c[2].values()), c[0]))[0]
    if not path.exists():
        return [f"{path.name}: missing"]
    out = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    got_utopia = out.get("utopia", {})
    if set(got_utopia) != set(groups) or any(
        abs(got_utopia[g] - utopia[g]) > FLOAT_TOL for g in groups
    ):
        problems.append(f"{path.name}: utopia {got_utopia} != {utopia}")
    got = {c["run_id"]: c for c in out.get("candidates", [])}
    if set(got) != set(distance):
        problems.append(f"{path.name}: {len(got)} candidates, expected {len(distance)}")
    else:
        by_id = {c[0]: c for c in candidates}
        for run_id, c in got.items():
            utilities = by_id[run_id][2]
            if abs(c["distance"] - distance[run_id]) > FLOAT_TOL or any(
                abs(c["group_utilities"][g] - utilities[g]) > FLOAT_TOL for g in groups
            ):
                problems.append(f"{path.name}: candidate {run_id} differs from the reference")
                break
    selected = out.get("selected", {}).get("run_id")
    if selected != best:
        problems.append(f"{path.name}: selected {selected}, reference {best}")
    return problems


def check_select_fwh(path: Path, candidates: list[Candidate], baseline_id: str) -> list[str]:
    points = {
        c[0]: CandidatePoint.from_utilities(run_id=c[0], method=c[1], utilities=c[2],
                                            overall=c[3])
        for c in candidates
    }
    baseline = points.pop(baseline_id)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref = oracle_select(list(points.values()), baseline, 0.0)
    if not path.exists():
        return [f"{path.name}: missing"]
    out = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    if out.get("baseline", {}).get("run_id") != baseline_id:
        problems.append(f"{path.name}: baseline {out.get('baseline')} != {baseline_id}")
    zones = {run_id: z.value for run_id, z in ref.candidate_zones.items()}
    if out.get("zones") != zones:
        wrong = sorted(r for r in zones if out.get("zones", {}).get(r) != zones[r])
        problems.append(f"{path.name}: zones differ for {wrong[:5]}")
    if out.get("tally") != {z.value: n for z, n in ref.tally.items()}:
        problems.append(f"{path.name}: tally {out.get('tally')} != {ref.tally}")
    selected = (out.get("selected") or {}).get("run_id")
    want = None if ref.selected is None else ref.selected.run_id
    if selected != want or out.get("zone") != (None if ref.zone is None else ref.zone.value):
        problems.append(f"{path.name}: selected {selected} in {out.get('zone')}, "
                        f"reference {want} in {ref.zone}")
    return problems
