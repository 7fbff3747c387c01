"""Command-line interface.

Four subcommands cover the evaluation workflow:

* ``evaluate``   - metric table (CSV/JSON/Markdown) from prediction logs
* ``select-erm`` - distance-to-utopia baseline selection
* ``select-fwh`` - four-zone selection against a baseline
* ``compare``    - Friedman test, Nemenyi CD, cliques, and an SVG plot

Inputs are file paths or globs, each resolved once to its path and kind
(``inputs.kind``). A kind the command's role does not read
(``inputs.ACCEPTS``) is refused with one message; the rest are read by
their kind. Exit codes: 0 success (possibly with warnings on stderr), 2
bad input or configuration, 3 internal error.

A command loads only the modules whose code it runs. ``inputs`` tells
what an input is; ``selection``, which also reads summary tables, is
loaded by the select commands and the first log, the log format and run
model (``records``) and the metric code by the first log, ``stats`` by
``evaluate`` and ``compare``, ``tables`` by the first table read or
written, and ``svgplot`` by the first plot drawn. Every layer
function is still called through a module attribute (``parse_run``,
``parse_summaries``, the table writers and the plot through this
module's), so a profiler or tracer can wrap it there.

The process entry point is :func:`run`: the ``nhfair`` script and
``python -m nhfair.cli`` call it, and it ends the process without
interpreter teardown once ``main`` is done. :func:`main` never exits.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import glob
import json
import os
import stat
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

from .config import EngineConfig, add_flags, build_config
from .errors import (
    DuplicateSeed,
    EmptyCandidateSet,
    EngineError,
    MetricError,
    ParseError,
    SelectionError,
    StatsError,
)
from .inputs import JSONL_LOG, LOGS, MANIFEST, kind, require_read

if TYPE_CHECKING:
    from .records import EvaluationRun
    from .selection import RunResult
    from .tables import ReportRow

Input = tuple[Path, str]  # an input file and its kind (inputs.kind)


def parse_run(path: Path, kind: str) -> EvaluationRun:
    """``records.read_log``; the log model is loaded by the first log read."""
    from . import records

    return records.read_log(path, kind)


def parse_summaries(path: Path) -> list[RunResult]:
    """``selection.parse_summaries``; loaded by the first summary table read."""
    from . import selection

    return selection.parse_summaries(path)


def rows_to_csv(rows: list[ReportRow], units: str) -> str:
    """``tables.rows_to_csv``; the table code is loaded by the first table written."""
    from . import tables

    return tables.rows_to_csv(rows, units)


def rows_to_markdown(rows: list[ReportRow], units: str) -> str:
    """``tables.rows_to_markdown``; the table code is loaded by the first table written."""
    from . import tables

    return tables.rows_to_markdown(rows, units)


def rows_to_json(rows: list[ReportRow]) -> str:
    """``tables.rows_to_json``; the table code is loaded by the first table written."""
    from . import tables

    return tables.rows_to_json(rows)


def render_cd_plot(metric: str, ranks: dict[str, float], cd: float) -> str:
    """``svgplot.render_cd_plot``; the plot code is loaded by the first plot drawn."""
    from . import svgplot

    return svgplot.render_cd_plot(metric, ranks, cd)


def _expand_inputs(patterns: list[str], role: str) -> list[Input]:
    """The files the patterns match, once each, in order, with their kinds, but sidecars
    (read with their logs); a directory, a match gone or a kind ``role`` does not read is
    an error."""
    paths: list[Path] = []
    for pattern in patterns:  # a pattern that matches nothing may name a file literally
        matched = sorted(glob.glob(pattern)) or [p for p in [pattern] if os.path.exists(p)]
        if not matched:
            raise ParseError(f"no runs matched: no file matches {pattern!r}")
        paths += map(Path, matched)
    inputs = [(path, kind(path)) for path in dict.fromkeys(paths)]
    for path, found in inputs:
        if found is None:
            raise ParseError("file not found", path=str(path))
        if found != MANIFEST:
            require_read(path, found, role)
    return [(path, found) for path, found in inputs if found != MANIFEST]


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


def _replaceable(target: Path) -> int | None:
    """The mode of ``target`` (0 where it is missing) if it is a plain file path that a
    renamed temporary may replace, else None.

    That is a missing path, or a writable regular file that is not a
    symbolic link, in a directory that can be written; its ``lstat`` mode
    is then what ``stat`` gives. Anything else (``/dev/null``,
    ``/dev/stdout`` and other links, a FIFO, a file in a read-only
    directory) is opened and written in place.
    """
    try:
        mode = os.lstat(target).st_mode
    except FileNotFoundError:
        return 0
    replaceable = (
        stat.S_ISREG(mode)
        and os.access(target, os.W_OK)
        and os.access(target.parent, os.W_OK)
    )
    return mode if replaceable else None


def _write_stdout(text: str) -> None:
    """Write and flush ``text`` to stdout; raise EngineError where stdout is gone or full.

    stdout is gone where file descriptor 1 was closed at start, or where it
    is a pipe whose reader has gone; it is full where a write or flush fails
    otherwise (say, a full disk): the environment's fault, not an internal
    one. Descriptor 1 is then pointed at the null device, so the flush as
    the process exits writes what stdout still holds there and fails no
    more.
    """
    if sys.stdout is None:
        reason = "closed"
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
            return
        except BrokenPipeError:
            reason = "broken pipe, its reader has gone"
        except OSError as exc:
            reason = exc.strerror or str(exc)
    null = os.open(os.devnull, os.O_WRONLY)
    if null != 1:  # else descriptor 1 was closed, and the null device took it
        os.dup2(null, 1)
        os.close(null)
    raise EngineError(f"stdout: {reason}")


def _emit(*outputs: tuple[Path | None, str]) -> None:
    """Write each text to its file, or to stdout where the file is None.

    A plain file (see :func:`_replaceable`) is written beside its target
    under a temporary name and moved into place only once every output is
    written, so a failed command leaves no partial file there. A file that
    cannot be written (say, on a full disk) is an EngineError naming it.
    """
    staged: list[tuple[Path, Path]] = []
    try:
        for i, (target, text) in enumerate(outputs):
            if target is None:
                _write_stdout(text)
                continue
            try:
                if (mode := _replaceable(target)) is not None:
                    temporary = target.with_name(f".{target.name}.{os.getpid()}-{i}.tmp")
                    staged.append((temporary, target))
                    temporary.write_text(text, encoding="utf-8")
                    if mode:  # the replaced file keeps its permission bits
                        temporary.chmod(stat.S_IMODE(mode))
                else:
                    target.write_text(text, encoding="utf-8")
            except OSError as exc:
                raise EngineError(f"{target}: {exc.strerror or exc}") from None
        for temporary, target in staged:
            os.replace(temporary, target)
    finally:
        for temporary, _ in staged:
            temporary.unlink(missing_ok=True)


def _evaluate_file(log: Input, eqodd: str = "diagonal") -> RunResult:
    """Parse one prediction log and compute its result; the run is dropped after."""
    from . import metrics  # the log and metric code: loaded only by commands that read a log

    run = parse_run(*log)
    try:
        return metrics.metric_report(run, eqodd_variant=eqodd)
    except MetricError as exc:
        raise type(exc)(f"{log[0]}: {exc}") from exc


def _single_threaded() -> bool:
    """Whether this process runs exactly one OS thread; False where that cannot be told.

    Only such a process forks: a lock that another thread held at the fork
    stays held in the child for ever. Only such a process ends without
    teardown (:func:`run`): another thread's work would be cut off.
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


def _claimed_reports(logs: list[Input], claims: int, eqodd: str) -> list[tuple[int, RunResult]]:
    """Results of the logs claimed from ``claims``, until none is left or one faults.

    A faulty log is left out and ends the claiming: the claims still in
    the pipe are drained, since no log after the first fault is needed.
    """
    reports = []
    try:
        while token := os.read(claims, _TOKEN):
            i = int.from_bytes(token, sys.byteorder)
            reports.append((i, _evaluate_file(logs[i], eqodd)))
    except Exception:  # read again by the caller, which raises it
        while os.read(claims, 1 << 16):
            pass
    return reports


def _fork_reader(logs: list[Input], claims: int, eqodd: str) -> tuple[int, int]:
    """Fork a helper that reports the logs it claims; its pid and result pipe.

    The helper sends one pickled list of (index, result) and no
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
        reports = _claimed_reports(logs, claims, eqodd)
        with open(write_end, "wb") as pipe:
            pickle.dump(reports, pipe, pickle.HIGHEST_PROTOCOL)
    finally:
        os._exit(0)


def _read_ahead(logs: list[Input], eqodd: str, jobs: int) -> list[RunResult | None]:
    """The logs' results, read by up to ``jobs`` processes, in input order.

    None stands for a log the caller reads itself, in order, as a serial
    command does: every log when the logs are read serially, else a log
    that faulted or that no process reported. Helpers are forked only
    from a single-threaded process. The parent and each helper claim the
    next unread log, one at a time, until none is left; every helper is
    reaped before this returns or raises.
    """
    results: list[RunResult | None] = [None] * len(logs)
    n = min(jobs, len(logs))
    if n < 2 or not hasattr(os, "fork"):
        return results
    from . import metrics  # noqa: F401  the log and metric code, loaded once before any fork

    if JSONL_LOG in (log[1] for log in logs):
        import orjson  # noqa: F401  the JSONL decoder, loaded once before any fork

    if not _single_threaded():
        return results
    import pickle  # loaded only by a command that forks
    import signal

    claims = _claim_pipe(len(logs))
    helpers: list[tuple[int, int]] = []
    try:
        for _ in range(n - 1):
            try:
                helpers.append(_fork_reader(logs, claims, eqodd))
            except OSError:  # no process to be had: fewer processes claim the logs
                break
        reports = _claimed_reports(logs, claims, eqodd)
        for _, pipe in helpers:
            with open(pipe, "rb", closefd=False) as stream:
                data = stream.read()
            with contextlib.suppress(Exception):  # a helper that died reported nothing
                reports += pickle.loads(data)
        for i, result in reports:
            results[i] = result
    finally:
        os.close(claims)
        for pid, pipe in helpers:
            os.close(pipe)
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)  # finished already, or no longer needed
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
    return results


def _load_candidates(inputs: list[Input], jobs: int) -> list[RunResult]:
    """Selection candidates in input order; a log's degenerate-cell warnings go to stderr.

    A run_id that two candidates share is an error naming the inputs it came from.
    """
    logs = [log for log in inputs if log[1] in LOGS]
    read = dict(zip(logs, _read_ahead(logs, "diagonal", jobs)))
    candidates: list[RunResult] = []
    sources: dict[str, list[str]] = {}  # run_id -> the inputs holding it, in input order
    for entry in inputs:
        path = entry[0]
        results = [read[entry] or _evaluate_file(entry)] if entry in read else parse_summaries(path)
        for result in results:
            for warning in result.warnings:
                sys.stderr.write(f"warning: {path}: {warning}\n")
            sources.setdefault(result.run_id, []).append(str(path))
        candidates += results
    if len(sources) != len(candidates):
        repeated = sorted(i for i, found in sources.items() if len(found) > 1)
        raise SelectionError(
            "duplicate candidate run_id(s): "
            + "; ".join(f"{i} ({', '.join(dict.fromkeys(sources[i]))})" for i in repeated)
        )
    return candidates


def _warn_pooled_datasets(candidates: list[RunResult]) -> None:
    """One stderr line where the candidates name more than one dataset (a summary row
    names none): they are selected as one pool, where the paper selects per dataset."""
    datasets = sorted({c.dataset for c in candidates} - {""})
    if len(datasets) > 1:
        sys.stderr.write(
            f"warning: candidates span {len(datasets)} datasets ({', '.join(datasets)}) and "
            "are selected as one pool; the paper tunes and zones per dataset\n"
        )


def cmd_evaluate(config: EngineConfig) -> int:
    from . import stats

    out = _output(config.out)
    logs = _expand_inputs(config.inputs, "evaluate")
    if not logs:
        raise ParseError(f"no runs matched: {' '.join(config.inputs) or '(no inputs)'}")

    read = _read_ahead(logs, config.eqodd, config.jobs)
    results = [result or _evaluate_file(log, config.eqodd) for log, result in zip(logs, read)]
    try:
        rows = stats.aggregate(results)
    except (DuplicateSeed, ParseError) as exc:  # named by the logs behind it, in input order
        named = [str(p) for (p, _), r in zip(logs, results) if any(r is run for run in exc.runs)]
        raise type(exc)(f"{exc} ({', '.join(named)})") from exc

    if config.format == "csv":
        text = rows_to_csv(rows, config.units)
    elif config.format == "md":
        text = rows_to_markdown(rows, config.units)
    else:
        text = rows_to_json(rows)
    _emit((out, text))
    return 0


def cmd_select_erm(config: EngineConfig) -> int:
    from . import selection

    out = _output(config.out)
    candidates = _load_candidates(_expand_inputs(config.inputs, "select-erm"), config.jobs)
    if not candidates:
        raise EmptyCandidateSet(f"no candidates matched: {' '.join(config.inputs)}")
    _warn_pooled_datasets(candidates)
    target = selection.utopia(candidates)
    best, best_distance = selection.dto_select(candidates)
    payload = {
        "utopia": target,
        "candidates": [
            {
                "run_id": c.run_id,
                "method": c.method,
                "group_utilities": c.group_utilities,
                "distance": selection.distance_to(c, target),
            }
            for c in candidates
        ],
        "selected": {"run_id": best.run_id, "method": best.method, "distance": best_distance},
    }
    _emit((out, json.dumps(payload, indent=2) + "\n"))
    return 0


def _resolve_baseline(
    config: EngineConfig, candidates: list[RunResult]
) -> tuple[RunResult, list[RunResult], str]:
    spec = config.baseline
    if not spec:
        raise ParseError("select-fwh requires --baseline (a file or a candidate run_id)")
    path = Path(spec)
    if (found_kind := kind(path)) is not None:  # else no file is there: a run_id
        require_read(path, found_kind, "select-fwh --baseline")
        found = _load_candidates([(path, found_kind)], config.jobs)
        if len(found) != 1:
            raise ParseError(
                f"baseline summary file must contain exactly one row, got {len(found)}",
                path=str(path),
            )
        baseline, origin = found[0], f"file {path}"
    else:
        matches = [c for c in candidates if c.run_id == spec]
        if not matches:
            raise ParseError(f"baseline {spec!r} is neither a file nor a candidate run_id")
        baseline, origin = matches[0], f"candidate {spec!r} (excluded from the candidate set)"
    # a candidate with the baseline's run_id is the baseline: it leaves the candidate set
    return baseline, [c for c in candidates if c.run_id != baseline.run_id], origin


def cmd_select_fwh(config: EngineConfig) -> int:
    from . import selection

    out = _output(config.out)
    candidates = _load_candidates(_expand_inputs(config.inputs, "select-fwh"), config.jobs)
    baseline, candidates, origin = _resolve_baseline(config, candidates)
    if not candidates:
        raise EmptyCandidateSet("no candidates left after resolving the baseline")
    _warn_pooled_datasets(candidates)
    result = selection.fwh_select(candidates, baseline, tolerance=config.tolerance)
    payload = {
        "baseline": {
            "run_id": baseline.run_id,
            "method": baseline.method,
            "group_utilities": baseline.group_utilities,
            "origin": origin,
        },
        "tolerance": config.tolerance,
    }
    payload.update(result.as_dict())
    _emit((out, json.dumps(payload, indent=2) + "\n"))
    if result.selected is None:
        sys.stderr.write("warning: every candidate is Unwanted; nothing selected\n")
    return 0


def cmd_compare(config: EngineConfig) -> int:
    from . import stats, tables

    if not config.metric:
        raise ParseError("compare requires --metric")
    out = _output(config.out)
    svg_path = config.svg
    if svg_path is None and out is not None:
        svg_path = str(out.with_suffix(".svg"))
    svg = _output(svg_path)
    if out is not None and os.path.realpath(out) == os.path.realpath(svg):
        raise ParseError("the SVG plot would replace the JSON result; give --svg another path",
                         path=svg_path)
    inputs = _expand_inputs(config.inputs, "compare")
    if len(inputs) != 1:
        raise ParseError(
            f"compare expects exactly one aggregated table, got {len(inputs)} input(s)"
        )
    [(path, table_kind)] = inputs
    rows = tables.read_table(path, table_kind, config.metric)
    try:
        matrix = stats.rank_matrix(rows, config.metric)
        statistic, df = stats.friedman(matrix, tie_corrected=config.tie_corrected)
        cd = stats.nemenyi_cd(matrix.k, matrix.n_blocks, alpha=config.alpha)
    except StatsError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
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
    # Cyclic GC is paused for the command: reference counting frees what it
    # drops, and it leaves the same few reference cycles whatever its input
    # (README), so the collector's passes would only cost time.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        config = build_config(values, inputs)
        return _COMMANDS[command][0](config)
    except EngineError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # unexpected: report as an internal failure
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3
    finally:
        if gc_was_enabled:
            gc.enable()


def _observed() -> bool:
    """Whether a profiler, tracer or (Python 3.12+) ``sys.monitoring`` tool watches."""
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(
        monitoring.get_tool(tool) is not None for tool in range(6)  # the tool ids 0-5
    )


def run() -> NoReturn:
    """Run :func:`main` on ``sys.argv`` and end the process with its exit code.

    The ``atexit`` handlers run and stdout and stderr are flushed, as at a
    normal exit; then the process ends with ``os._exit``, skipping the
    teardown of every module and the final collection, which only cost
    time once every output is written. Where a profiler or tracer
    watches, another thread runs (or that cannot be told), or a flush
    fails, it exits through ``sys.exit`` instead, as before.
    """
    try:
        code = main()
    except SystemExit as exc:  # argparse: a usage error or --help
        code = exc.code
    if not isinstance(code, int) or _observed() or not _single_threaded():
        sys.exit(code)
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:  # say, stderr's pipe gone or stdout's disk full: Python reports it
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
