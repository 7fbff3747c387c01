"""Command-line interface.

Four subcommands cover the evaluation workflow:

* ``evaluate``   - metric table (CSV/JSON/Markdown) from prediction logs
* ``select-erm`` - distance-to-utopia baseline selection
* ``select-fwh`` - four-zone selection against a baseline
* ``compare``    - Friedman test, Nemenyi CD, cliques, and an SVG plot

Inputs are file paths or globs. A ``.jsonl`` file (or a ``.csv`` with a
manifest sidecar), the suffix in any case, is a prediction log; any other
``.csv`` is a summary table. Exit codes: 0 success (possibly with warnings
on stderr), 2 bad input or configuration, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import glob
import json
import sys
from pathlib import Path

from . import metrics, selection, stats
from .config import EngineConfig, add_flags, build_config
from .errors import (
    EmptyCandidateSet,
    EngineError,
    InternalInvariantViolation,
    MetricError,
    ParseError,
    StatsError,
)
from .metrics import MetricReport
from .records import (
    RunManifest,
    is_manifest,
    is_prediction_log,
    parse_run,
    parse_summaries,
    read_csv_table,
)
from .selection import CandidatePoint
from .svgplot import render_cd_plot
from .tables import parse_mean_std, rows_to_csv, rows_to_json, rows_to_markdown


def _expand_inputs(patterns: list[str]) -> list[Path]:
    paths: list[Path] = []
    for pattern in patterns:
        matched = sorted(glob.glob(pattern))
        if matched:
            paths.extend(Path(p) for p in matched)
        elif Path(pattern).exists():
            paths.append(Path(pattern))
        else:
            raise ParseError(f"no runs matched: no file matches {pattern!r}")
    return [p for p in dict.fromkeys(paths) if not is_manifest(p)]


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _evaluate_file(path: Path, eqodd: str = "diagonal") -> tuple[MetricReport, RunManifest]:
    """Parse one prediction log and compute its report; the run is dropped after."""
    run = parse_run(path)
    try:
        return metrics.metric_report(run, eqodd_variant=eqodd), run.manifest
    except MetricError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _candidate_from_run(path: Path) -> CandidatePoint:
    """A log's selection point; its degenerate-cell warnings go to stderr."""
    report, manifest = _evaluate_file(path)
    for warning in report.warnings:
        sys.stderr.write(f"warning: {path}: {warning}\n")
    return CandidatePoint(
        run_id=manifest.run_id,
        method=manifest.method,
        group_utilities=report.group_utilities,
        gap=report.gap,
        overall=report.overall,
    )


def _load_candidates(paths: list[Path]) -> list[CandidatePoint]:
    candidates: list[CandidatePoint] = []
    for path in paths:
        if is_prediction_log(path):
            candidates.append(_candidate_from_run(path))
        else:
            candidates += (
                CandidatePoint.from_utilities(
                    s.run_id, s.method, s.group_utilities, s.overall_utility
                )
                for s in parse_summaries(path)
            )
    return candidates


def cmd_evaluate(config: EngineConfig) -> int:
    paths = _expand_inputs(config.inputs)
    run_paths = [p for p in paths if is_prediction_log(p)]
    if not run_paths:
        raise ParseError(f"no runs matched: {' '.join(config.inputs) or '(no inputs)'}")
    bad = [p for p in paths if not is_prediction_log(p)]
    if bad:
        raise ParseError(
            f"evaluate expects prediction logs, got summary file(s): "
            f"{', '.join(str(p) for p in bad)}"
        )

    rows = stats.aggregate([_evaluate_file(p, config.eqodd) for p in run_paths])

    if config.format == "csv":
        _emit(rows_to_csv(rows, config.units), config.out)
    elif config.format == "md":
        _emit(rows_to_markdown(rows, config.units), config.out)
    else:
        _emit(rows_to_json(rows), config.out)
    return 0


def cmd_select_erm(config: EngineConfig) -> int:
    paths = _expand_inputs(config.inputs)
    candidates = _load_candidates(paths)
    if not candidates:
        raise EmptyCandidateSet(f"no candidates matched: {' '.join(config.inputs)}")
    target = selection.utopia(candidates)
    best, best_distance = selection.dto_select(candidates)
    payload = {
        "utopia": target.coordinates,
        "candidates": [
            {
                "run_id": c.run_id,
                "method": c.method,
                "group_utilities": dict(c.group_utilities.utility),
                "distance": selection.distance_to(c, target.coordinates),
            }
            for c in candidates
        ],
        "selected": {"run_id": best.run_id, "method": best.method, "distance": best_distance},
    }
    _emit(json.dumps(payload, indent=2) + "\n", config.out)
    return 0


def _resolve_baseline(
    config: EngineConfig, candidates: list[CandidatePoint]
) -> tuple[CandidatePoint, list[CandidatePoint], str]:
    spec = config.baseline
    if not spec:
        raise ParseError("select-fwh requires --baseline (a file or a candidate run_id)")
    path = Path(spec)
    if path.exists():
        found = _load_candidates([path])
        if len(found) != 1:
            raise ParseError(
                f"baseline summary file must contain exactly one row, got {len(found)}",
                path=str(path),
            )
        return found[0], candidates, f"file {path}"
    matches = [c for c in candidates if c.run_id == spec]
    if not matches:
        raise ParseError(f"baseline {spec!r} is neither a file nor a candidate run_id")
    rest = [c for c in candidates if c.run_id != spec]
    return matches[0], rest, f"candidate {spec!r} (excluded from the candidate set)"


def cmd_select_fwh(config: EngineConfig) -> int:
    paths = _expand_inputs(config.inputs)
    candidates = _load_candidates(paths)
    baseline, candidates, origin = _resolve_baseline(config, candidates)
    if not candidates:
        raise EmptyCandidateSet("no candidates left after resolving the baseline")
    result = selection.fwh_select(candidates, baseline, tolerance=config.tolerance)
    payload = {
        "baseline": {
            "run_id": baseline.run_id,
            "method": baseline.method,
            "group_utilities": dict(baseline.group_utilities.utility),
            "origin": origin,
        },
        "tolerance": config.tolerance,
    }
    payload.update(result.as_dict())
    _emit(json.dumps(payload, indent=2) + "\n", config.out)
    if result.selected is None:
        sys.stderr.write("warning: every candidate is Unwanted; nothing selected\n")
    return 0


def _cells_from_csv(path: Path, metric: str) -> list[stats.AggregateCell]:
    header, rows, lines, fault = read_csv_table(path, ParseError)
    for column in (metric, "method", "dataset"):
        if column not in (header or []):
            raise ParseError(f"column {column!r} not found", path=str(path), line=1)
    cells = []
    for line, fields in zip(lines, rows):
        row = dict(zip(header, fields))
        try:
            mean, std = parse_mean_std(row[metric])
        except ValueError:
            raise ParseError(
                f"bad {metric} cell {row[metric]!r}", path=str(path), line=line
            ) from None
        try:
            n_seeds = int(row.get("n_seeds") or 1)
        except ValueError:
            raise ParseError(
                f"bad n_seeds cell {row['n_seeds']!r}", path=str(path), line=line
            ) from None
        cells.append(
            stats.AggregateCell(
                method=row["method"],
                dataset=row["dataset"],
                metric=metric,
                mean=mean,
                std=std,
                n_seeds=n_seeds,
                split=row.get("split", "") or "",
            )
        )
    if fault is not None:
        raise fault
    return cells


def cmd_compare(config: EngineConfig) -> int:
    if not config.metric:
        raise ParseError("compare requires --metric")
    paths = _expand_inputs(config.inputs)
    if len(paths) != 1:
        raise ParseError(
            f"compare expects exactly one aggregated table, got {len(paths)} input(s)"
        )
    cells = _cells_from_csv(paths[0], config.metric)
    try:
        matrix = stats.rank_matrix(cells, config.metric)
        statistic, df = stats.friedman(matrix, tie_corrected=config.tie_corrected)
        cd = stats.nemenyi_cd(matrix.k, matrix.n_blocks, alpha=config.alpha)
    except StatsError as exc:
        raise type(exc)(f"{paths[0]}: {exc}") from exc
    ranks = stats.mean_ranks(matrix)
    groups = stats.cliques(ranks, cd)
    payload = {
        "metric": config.metric,
        "direction": matrix.direction,
        "k": matrix.k,
        "n_datasets": matrix.n_blocks,
        "alpha": config.alpha,
        "friedman_statistic": statistic,
        "df": df,
        "cd": cd,
        "mean_ranks": {m: ranks[m] for m in sorted(ranks, key=lambda n: (ranks[n], n))},
        "cliques": [list(c) for c in groups],
    }
    _emit(json.dumps(payload, indent=2) + "\n", config.out)

    svg_path = config.svg
    if svg_path is None and config.out:
        svg_path = str(Path(config.out).with_suffix(".svg"))
    if svg_path:
        Path(svg_path).write_text(render_cd_plot(config.metric, ranks, cd), encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, with the flags the option table gives it."""
    parser = argparse.ArgumentParser(
        prog="nhfair",
        description="Group-fairness evaluation, harm-aware selection, and method comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="flat key=value config file (or set NHFAIR_CONFIG)")
        add_flags(p, command)
        p.add_argument("inputs", nargs="*", help="input files or globs")
    return parser


_COMMANDS = {
    "evaluate": (cmd_evaluate, "metric table from prediction logs"),
    "select-erm": (cmd_select_erm, "distance-to-utopia baseline selection"),
    "select-fwh": (cmd_select_fwh, "four-zone selection against a baseline"),
    "compare": (cmd_compare, "Friedman + Nemenyi CD over an aggregated table"),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    namespace = parser.parse_args(argv)
    values = vars(namespace)
    command = values.pop("command")
    inputs = values.pop("inputs")
    try:
        config = build_config(values, inputs)
        return _COMMANDS[command][0](config)
    except InternalInvariantViolation as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 3
    except EngineError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # unexpected: report as an internal failure
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
