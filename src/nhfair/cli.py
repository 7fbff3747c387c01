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
import contextlib
import gc
import glob
import json
import os
import stat
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import selection, stats
from .config import EngineConfig, add_flags, build_config
from .errors import (
    EmptyCandidateSet,
    EngineError,
    InternalInvariantViolation,
    MetricError,
    ParseError,
    StatsError,
)
from .records import (
    RunManifest,
    is_manifest,
    is_prediction_log,
    parse_run,
    parse_summaries,
    read_csv_table,
    require_distinct_columns,
)
from .selection import CandidatePoint
from .svgplot import render_cd_plot
from .tables import parse_mean_std, rows_to_csv, rows_to_json, rows_to_markdown

if TYPE_CHECKING:
    from .metrics import MetricReport


def _input_file(path: Path) -> Path:
    """``path``, unless it names a directory."""
    if path.is_dir():
        raise ParseError("is a directory, expected a file", path=str(path))
    return path


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
    return [_input_file(p) for p in dict.fromkeys(paths) if not is_manifest(p)]


def _output(path: str | None) -> Path | None:
    """The file an output goes to (None: stdout), checked before any input is read.

    The directory checked is the one the write reaches, through any
    symbolic links in ``path``.
    """
    if not path:
        return None
    target = Path(path)
    if target.is_dir():
        raise ParseError("output path is a directory", path=path)
    if not Path(os.path.realpath(target)).parent.is_dir():
        raise ParseError("output directory does not exist", path=path)
    return target


def _replaceable(target: Path) -> bool:
    """Whether ``target`` is a plain file path that a renamed temporary may replace.

    That is a missing path, or a writable regular file that is not a
    symbolic link, in a directory that can be written. Anything else
    (``/dev/null``, ``/dev/stdout`` and other links, a FIFO, a file in a
    read-only directory) is opened and written in place.
    """
    try:
        mode = os.lstat(target).st_mode
    except FileNotFoundError:
        return True
    return (
        stat.S_ISREG(mode)
        and os.access(target, os.W_OK)
        and os.access(target.parent, os.W_OK)
    )


def _emit(*outputs: tuple[Path | None, str]) -> None:
    """Write each text to its file, or to stdout where the file is None.

    A plain file (see :func:`_replaceable`) is written beside its target
    under a temporary name and moved into place only once every output is
    written, so a failed command leaves no partial file there.
    """
    staged: list[tuple[Path, Path]] = []
    try:
        for i, (target, text) in enumerate(outputs):
            if target is None:
                sys.stdout.write(text)
            elif _replaceable(target):
                temporary = target.with_name(f".{target.name}.{os.getpid()}-{i}.tmp")
                staged.append((temporary, target))
                temporary.write_text(text, encoding="utf-8")
                if target.exists():  # the replaced file keeps its permission bits
                    temporary.chmod(stat.S_IMODE(target.stat().st_mode))
            else:
                target.write_text(text, encoding="utf-8")
        for temporary, target in staged:
            os.replace(temporary, target)
    finally:
        for temporary, _ in staged:
            temporary.unlink(missing_ok=True)


def _evaluate_file(path: Path, eqodd: str = "diagonal") -> tuple[MetricReport, RunManifest]:
    """Parse one prediction log and compute its report; the run is dropped after."""
    from . import metrics  # numpy: loaded only by commands that read a log

    run = parse_run(path)
    try:
        return metrics.metric_report(run, eqodd_variant=eqodd), run.manifest
    except MetricError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _single_threaded() -> bool:
    """Whether this process runs exactly one OS thread; False where that cannot be told.

    Only such a process forks: a lock that another thread held at the fork
    stays held in the child for ever.
    """
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


_TOKEN = 4  # bytes of one log index in the claim pipe


def _claim_pipe(n: int) -> int:
    """The read end of a pipe holding the log indices 0, 1, ... in order, write end closed.

    An index is a fixed-size token, so one ``os.read`` of ``_TOKEN`` bytes
    claims one log: a pipe read is atomic on Linux, and nothing is locked
    that a process killed mid-claim could keep. The tokens are written
    before any fork, as many as the pipe holds; the caller reads the rest
    of the logs itself.
    """
    import fcntl
    import select

    read_end, write_end = os.pipe()
    with contextlib.suppress(AttributeError, OSError):  # a larger pipe; Linux only
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, n * _TOKEN)
    os.set_blocking(write_end, False)
    data = b"".join(i.to_bytes(_TOKEN, sys.byteorder) for i in range(n))
    step = select.PIPE_BUF // _TOKEN * _TOKEN  # a write of at most PIPE_BUF is all or nothing
    try:
        for start in range(0, len(data), step):
            os.write(write_end, data[start : start + step])
    except BlockingIOError:  # the pipe is full
        pass
    finally:
        os.close(write_end)
    return read_end


def _claimed_reports(
    paths: list[Path], claims: int, eqodd: str
) -> list[tuple[int, MetricReport, RunManifest]]:
    """Reports of the logs claimed from ``claims``, until none is left or one faults.

    A faulty log is left out and ends the claiming: the claims still in
    the pipe are drained, since no log after the first fault is needed.
    """
    reports = []
    try:
        while token := os.read(claims, _TOKEN):
            i = int.from_bytes(token, sys.byteorder)
            reports.append((i, *_evaluate_file(paths[i], eqodd)))
    except Exception:  # read again by the caller, which raises it
        while os.read(claims, 1 << 16):
            pass
    return reports


def _fork_reader(paths: list[Path], claims: int, eqodd: str) -> tuple[int, int]:
    """Fork a helper that reports the logs it claims; its pid and result pipe.

    The helper sends one pickled list of (index, report, manifest) and no
    exception: a log it claimed and did not report, faulty or not, is
    read by the parent itself.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)
        return pid, read_end
    try:  # in the helper, which never returns from here
        import pickle

        os.close(read_end)
        reports = _claimed_reports(paths, claims, eqodd)
        with open(write_end, "wb") as pipe:
            pickle.dump(reports, pipe, pickle.HIGHEST_PROTOCOL)
    finally:
        os._exit(0)


def _read_ahead(
    paths: list[Path], eqodd: str, jobs: int
) -> list[tuple[MetricReport, RunManifest] | None]:
    """The logs' reports, read by up to ``jobs`` processes, in input order.

    None stands for a log the caller reads itself, in order, as a serial
    command does: every log when the logs are read serially, else a log
    that faulted or that no process reported. Helpers are forked only
    from a single-threaded process, after numpy is loaded. The parent and
    each helper claim the next unread log, one at a time, until none is
    left; every helper is reaped before this returns or raises.
    """
    results: list[tuple[MetricReport, RunManifest] | None] = [None] * len(paths)
    n = min(jobs, len(paths))
    if n < 2 or not hasattr(os, "fork"):
        return results
    from . import metrics  # noqa: F401  numpy and the log code, loaded once before any fork

    if not _single_threaded():
        return results
    import pickle  # loaded only by a command that forks
    import signal

    claims = _claim_pipe(len(paths))
    helpers: list[tuple[int, int]] = []
    try:
        for _ in range(n - 1):
            try:
                helpers.append(_fork_reader(paths, claims, eqodd))
            except OSError:  # no process to be had: fewer processes claim the logs
                break
        reports = _claimed_reports(paths, claims, eqodd)
        for _, pipe in helpers:
            with open(pipe, "rb", closefd=False) as stream:
                data = stream.read()
            with contextlib.suppress(Exception):  # a helper that died reported nothing
                reports += pickle.loads(data)
        for i, report, manifest in reports:
            results[i] = report, manifest
    finally:
        os.close(claims)
        for pid, pipe in helpers:
            os.close(pipe)
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)  # finished already, or no longer needed
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
    return results


def _load_candidates(paths: list[Path], jobs: int) -> list[CandidatePoint]:
    """Selection points in input order; a log's degenerate-cell warnings go to stderr."""
    logs = [p for p in paths if is_prediction_log(p)]
    read = dict(zip(logs, _read_ahead(logs, "diagonal", jobs)))
    candidates: list[CandidatePoint] = []
    for path in paths:
        if path in read:
            report, manifest = read[path] or _evaluate_file(path)
            for warning in report.warnings:
                sys.stderr.write(f"warning: {path}: {warning}\n")
            candidates.append(
                CandidatePoint(
                    run_id=manifest.run_id,
                    method=manifest.method,
                    group_utilities=report.group_utilities,
                    gap=report.gap,
                    overall=report.overall,
                )
            )
        else:
            candidates += (
                CandidatePoint.from_utilities(
                    s.run_id, s.method, s.group_utilities, s.overall_utility
                )
                for s in parse_summaries(path)
            )
    return candidates


def cmd_evaluate(config: EngineConfig) -> int:
    out = _output(config.out)
    paths = _expand_inputs(config.inputs)
    is_log = [*map(is_prediction_log, paths)]
    run_paths = [p for p, log in zip(paths, is_log) if log]
    if not run_paths:
        raise ParseError(f"no runs matched: {' '.join(config.inputs) or '(no inputs)'}")
    bad = [p for p, log in zip(paths, is_log) if not log]
    if bad:
        raise ParseError(
            f"evaluate expects prediction logs, got summary file(s): "
            f"{', '.join(str(p) for p in bad)}"
        )

    read = _read_ahead(run_paths, config.eqodd, config.jobs)
    rows = stats.aggregate(
        [pair or _evaluate_file(p, config.eqodd) for p, pair in zip(run_paths, read)]
    )

    if config.format == "csv":
        text = rows_to_csv(rows, config.units)
    elif config.format == "md":
        text = rows_to_markdown(rows, config.units)
    else:
        text = rows_to_json(rows)
    _emit((out, text))
    return 0


def cmd_select_erm(config: EngineConfig) -> int:
    out = _output(config.out)
    paths = _expand_inputs(config.inputs)
    candidates = _load_candidates(paths, config.jobs)
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
    _emit((out, json.dumps(payload, indent=2) + "\n"))
    return 0


def _resolve_baseline(
    config: EngineConfig, candidates: list[CandidatePoint]
) -> tuple[CandidatePoint, list[CandidatePoint], str]:
    spec = config.baseline
    if not spec:
        raise ParseError("select-fwh requires --baseline (a file or a candidate run_id)")
    path = Path(spec)
    if path.exists():
        found = _load_candidates([_input_file(path)], config.jobs)
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
    out = _output(config.out)
    paths = _expand_inputs(config.inputs)
    candidates = _load_candidates(paths, config.jobs)
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
    _emit((out, json.dumps(payload, indent=2) + "\n"))
    if result.selected is None:
        sys.stderr.write("warning: every candidate is Unwanted; nothing selected\n")
    return 0


def _cells_from_csv(path: Path, metric: str) -> list[stats.AggregateCell]:
    header, rows, lines, fault = read_csv_table(path, ParseError)
    require_distinct_columns(header or [], path)
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
            n_seeds = 0
        if n_seeds < 1:
            raise ParseError(f"bad n_seeds cell {row['n_seeds']!r}", path=str(path), line=line)
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
    out = _output(config.out)
    svg_path = config.svg
    if svg_path is None and out is not None:
        svg_path = str(out.with_suffix(".svg"))
    svg = _output(svg_path)
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
    outputs = [(out, json.dumps(payload, indent=2) + "\n")]
    if svg is not None:
        outputs.append((svg, render_cd_plot(config.metric, ranks, cd)))
    _emit(*outputs)
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
    # nhfair calls no BLAS routine, and a BLAS thread pool started with numpy
    # would keep the log readers from forking (_read_ahead).
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # Cyclic GC is paused for the command: reference counting frees what it
    # drops, and it leaves the same few reference cycles whatever its input
    # (README), so the collector's passes would only cost time.
    gc_was_enabled = gc.isenabled()
    gc.disable()
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
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
