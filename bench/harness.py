"""One benchmark run: set up a workload, run its pipeline, check, report.

A round runs the workload's four commands one at a time, as a user runs
them: ``evaluate`` on the logs, ``compare --svg`` on evaluate's table,
``select-erm`` on the ERM candidates, then ``select-fwh`` on every
candidate with the run select-erm chose as the baseline.
``sweep-summaries`` adds the comma/quote round trip (``evaluate`` then
``compare`` on a method named ``erm,"v2"``), which fails on today's
code; it counts as one operation and its time is kept out of every
metric. Every other command counts as one operation.

Untraced runs (``--trace 0``) start each command as a child process and
time it from start to exit; rounds repeat until ``--seconds`` have
passed and every end-to-end metric is the median over rounds. Traced
runs (``--trace 1``) call ``nhfair.cli.main`` in-process, alternating
untraced and traced rounds, and report per-layer figures as medians over
the traced rounds.

Every time is scaled to a fixed host speed (see ``Clock``). On a
shared host the speed of the same code swings by a third or more for
tens of seconds at a time, and no run length averages that away; the
scaled time moves much less with it. The unscaled wall times are printed
next to the metrics.
"""

from __future__ import annotations

import gc
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import reference
import trace
import workloads

SETUP_REPEATS = 5
STARTUP_REPEATS = 5
ALPHA = 0.05
# A config file named here would change nhfair's defaults without a flag;
# every command runs without one.
CONFIG_ENV = "NHFAIR_CONFIG"
# A fixed job of the kinds of work every command does: start an
# interpreter, import numpy, decode JSON lines and CSV rows into Python
# objects. It shares no code with nhfair, so no change to nhfair moves it.
CALIBRATION_JOB = """
import csv, io, json
import numpy
lines = ['{"id": "s%06d", "p": {"neg": 0.25, "pos": %r}}' % (i, i / 9e4) for i in range(15000)]
objects = [json.loads(line) for line in lines]
text = "".join("s%06d,c%d,g%d\\n" % (i, i % 7, i % 3) for i in range(15000))
rows = list(csv.reader(io.StringIO(text)))
numpy.bincount(numpy.array([len(row[1]) for row in rows]))
"""
# What the calibration job takes at the reference speed; a scaled time is
# the wall time on a host that runs the job in this long.
REFERENCE_CALIBRATION_S = 0.3

END_TO_END = {
    "setup_s": "s",
    "evaluate_s": "s",
    "evaluate_records_per_s": "records/s",
    "select_erm_s": "s",
    "select_fwh_s": "s",
    "compare_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"{name}.s": "s" for name in trace.LAYERS},
    "records.parse_run.records_per_s": "records/s",
    "records.parse_run.bytes_per_s": "B/s",
    "records.resident_bytes_per_record": "B/record",
    "records.write_run.s": "s",
    "synth.generate.s": "s",
    "metrics.metric_report.self_s": "s",
    **{f"cli.{command}.self_s": "s" for command in trace.COMMANDS},
    "metrics.group_auc.calls_per_run": "calls/run",
    "metrics.confusion.calls_per_run": "calls/run",
    "cli.startup_s": "s",
    "runtime.gc_s": "s",
    "runtime.gc_collections": "count",
    "trace.overhead_s": "s",
}


def _calibration_s() -> float:
    """Wall time of the calibration job in a child: the host's speed now."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", CALIBRATION_JOB], check=True)
    return time.perf_counter() - start


class Clock:
    """Times calls in scaled seconds: wall time at the reference speed.

    The speed is the mean of the calibration job just before and just
    after the call, so the scaled time counts the work done rather than how
    fast the host happened to run while it was done. The calibration after
    one call serves as the one before the next.
    """

    def __init__(self) -> None:
        self._last: float | None = None

    def time(self, fn):
        """Call ``fn``; its result, its wall time, and that time scaled."""
        before = self._last if self._last is not None else _calibration_s()
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        self._last = _calibration_s()
        return result, wall, wall * 2 * REFERENCE_CALIBRATION_S / (before + self._last)


@dataclass
class Round:
    wall: dict[str, float] = field(default_factory=dict)  # command -> scaled s
    raw_wall: dict[str, float] = field(default_factory=dict)  # command -> wall s
    rss_kb: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def pipeline_s(self) -> float:
        return sum(self.wall.values())


class ChildRunner:
    """Runs ``nhfair`` commands as child processes, like a user would."""

    def __init__(self, src: Path, log: Path):
        self.env = dict(os.environ)
        self.env.pop(CONFIG_ENV, None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p
        )
        self.log = log

    def __call__(self, argv: list[str]) -> tuple[int, int]:
        """Exit code and peak resident set (KiB) of one command."""
        with self.log.open("ab") as log:
            proc = subprocess.Popen([sys.executable, "-m", "nhfair.cli", *argv],
                                    stdin=subprocess.DEVNULL, stdout=log, stderr=log,
                                    env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss

    def startup_s(self, clock: Clock) -> float:
        """Median scaled time of a child that only imports ``nhfair.cli``."""
        argv = [sys.executable, "-c", "import nhfair.cli"]
        return median(
            clock.time(lambda: subprocess.run(argv, env=self.env, check=True))[2]
            for _ in range(STARTUP_REPEATS)
        )


class InProcessRunner:
    """Calls ``nhfair.cli.main``; a tracer, when set, opens one span per command."""

    def __init__(self):
        from nhfair import cli

        os.environ.pop(CONFIG_ENV, None)
        self.cli = cli
        self.tracer: trace.Tracer | None = None

    def __call__(self, argv: list[str]) -> tuple[int, int]:
        if self.tracer is None:
            return self._main(argv), 0
        with self.tracer.span("cli." + argv[0].replace("-", "_")):
            return self._main(argv), 0

    def _main(self, argv: list[str]) -> int:
        try:
            return self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            return exc.code if isinstance(exc.code, int) else 2


class Pipeline:
    """The workload's commands, their outputs, and the expected results."""

    def __init__(self, w: workloads.Workload, inputs: workloads.Inputs, out: Path,
                 clock: Clock):
        self.w = w
        self.clock = clock
        self.inputs = inputs
        self.out = out
        reports = [reference.reference_report(r, w.eqodd or "diagonal") for r in inputs.runs]
        self.expected = reference.expected_table(inputs.runs, reports)
        self.candidates = inputs.summary_rows or [
            (r.run_id, r.method, r.utilities, r.values["utility"]) for r in reports
        ]
        self.erm_candidates = [c for c in self.candidates if c[1] == "erm"]
        self.faulty_expected = reference.expected_table(
            inputs.faulty_runs,
            [reference.reference_report(r) for r in inputs.faulty_runs],
        )
        self.q_alpha = reference.nemenyi_q(len(w.logs.methods), ALPHA)
        self.faulty_q = reference.nemenyi_q(2, ALPHA)

    def _path(self, name: str) -> Path:
        path = self.out / name
        path.unlink(missing_ok=True)  # never check a stale output
        return path

    def _command(self, rnd: Round, runner, argv: list[str], key: str | None = None) -> bool:
        """Run one command, timed under ``key`` unless that is None; True if it exited 0."""
        if key is None:
            code, _ = runner(argv)
        else:
            (code, rss), rnd.raw_wall[key], rnd.wall[key] = self.clock.time(lambda: runner(argv))
            rnd.rss_kb[key] = rss
        if code != 0:
            rnd.notes.append(f"{argv[0]} exited {code}")
        return code == 0

    def _check(self, rnd: Round, ok: bool, check) -> None:
        rnd.attempted += 1
        if not ok:
            rnd.failed += 1
            return
        try:
            rnd.problems.extend(check())
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            rnd.problems.append(f"output unreadable: {type(exc).__name__}: {exc}")

    def round(self, runner, on_traced_end=None) -> Round:
        """All commands once; ``on_traced_end`` runs before the untraced faulty op."""
        rnd = Round()
        table, cd, svg = self._path("table.csv"), self._path("cd.json"), self._path("cd.svg")
        erm, fwh = self._path("erm.json"), self._path("fwh.json")
        metric = "utility"
        eqodd = ("--eqodd", self.w.eqodd) if self.w.eqodd else ()

        ok = self._command(rnd, runner, ["evaluate", *eqodd, "--out", str(table),
                                         *self.inputs.log_globs], "evaluate")
        self._check(rnd, ok, lambda: reference.check_evaluate(table, self.expected))
        ok = self._command(rnd, runner, ["compare", "--metric", metric, "--out", str(cd),
                                         "--svg", str(svg), str(table)], "compare")
        self._check(rnd, ok, lambda: reference.check_compare(cd, svg, table, metric,
                                                              self.q_alpha))
        ok = self._command(rnd, runner, ["select-erm", "--out", str(erm),
                                         *self.inputs.erm_globs], "select_erm")
        self._check(rnd, ok, lambda: reference.check_select_erm(erm, self.erm_candidates))
        baseline = reference.selected_run_id(erm)
        ok = self._command(rnd, runner, ["select-fwh", "--baseline", str(baseline), "--out",
                                         str(fwh), *self.inputs.select_globs], "select_fwh")
        self._check(rnd, ok and baseline is not None,
                    lambda: reference.check_select_fwh(fwh, self.candidates, baseline))
        if on_traced_end is not None:
            on_traced_end()
        if self.inputs.faulty_glob:
            self._faulty_round_trip(rnd, runner)
        return rnd

    def _faulty_round_trip(self, rnd: Round, runner) -> None:
        table, cd, svg = (self._path(n) for n in ("faulty.csv", "faulty.json", "faulty.svg"))
        ok = self._command(rnd, runner, ["evaluate", "--out", str(table),
                                         self.inputs.faulty_glob])
        ok = ok and not reference.check_evaluate(table, self.faulty_expected)
        ok = self._command(rnd, runner, ["compare", "--metric", "utility", "--out", str(cd),
                                         "--svg", str(svg), str(table)]) and ok
        self._check(rnd, ok, lambda: reference.check_compare(cd, svg, table, "utility",
                                                              self.faulty_q))


def _setup(w, seed, work: Path, tracer: trace.Tracer | None, clock: Clock):
    """Set up SETUP_REPEATS times: the last inputs, and each time or layer split."""
    times, per_layer = [], []
    for _ in range(SETUP_REPEATS):
        inputs = None  # else this set-up's collections walk the last one's records
        shutil.rmtree(work / "inputs", ignore_errors=True)
        gc.collect()
        if tracer is None:
            inputs, raw, scaled = clock.time(lambda: workloads.setup(w, seed, work / "inputs"))
            times.append((raw, scaled))
        else:
            tracer.spans.clear()
            with trace.instrument(tracer, trace.setup_targets()):
                inputs, raw, scaled = clock.time(
                    lambda: workloads.setup(w, seed, work / "inputs"))
            per_layer.append({
                f"{name}.s": scaled / raw * sum(s.end - s.start for s in tracer.spans
                                                if s.name == name)
                for name in ("synth.generate", "records.write_run")
            })
    return inputs, times, per_layer


def _resident_bytes_per_record(inputs: workloads.Inputs) -> float:
    """Memory a parsed run keeps alive, per record, for the largest log."""
    from nhfair import records

    logs = [p for p in (inputs.root / "logs").iterdir() if not p.name.endswith(".json")]
    path = max(logs, key=os.path.getsize)
    gc.collect()
    tracemalloc.start()
    try:
        run = records.parse_run(path)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return retained / len(run.records)


def run_workload(w: workloads.Workload, seed: int, seconds: float, traced: bool, src: Path,
                 work: Path) -> tuple[dict, dict[str, float]]:
    """The run's result object, and the unscaled wall-time medians by metric."""
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    tracer = trace.Tracer() if traced else None
    clock = Clock()
    inputs, setup_times, setup_layers = _setup(w, seed, work, tracer, clock)
    n_records = inputs.n_records
    pipeline = Pipeline(w, inputs, work / "out", clock)
    # The references are computed; holding the generated records would make
    # every in-process garbage collection walk them.
    inputs.runs.clear()
    inputs.faulty_runs.clear()
    child = ChildRunner(src, work / "children.log")

    rounds: list[Round] = []
    raw: dict[str, float] = {}
    if not traced:
        child(["--help"])  # brings the interpreter's files into the page cache
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            rounds.append(pipeline.round(child))
        raw = {
            "setup_s": median(t[0] for t in setup_times),
            **{f"{c}_s": median(r.raw_wall[c] for r in rounds) for c in trace.COMMANDS},
        }
        metrics = {
            "setup_s": median(t[1] for t in setup_times),
            "pipeline_s": median(r.pipeline_s for r in rounds),
            "peak_rss_mb": median(max(r.rss_kb.values()) for r in rounds) / 1024.0,
        }
        for command in trace.COMMANDS:
            metrics[f"{command}_s"] = median(r.wall[command] for r in rounds)
        metrics["evaluate_records_per_s"] = n_records / metrics["evaluate_s"]
        units = END_TO_END
    else:
        metrics = _traced_rounds(pipeline, tracer, seconds, rounds, work)
        metrics["cli.startup_s"] = child.startup_s(clock)
        metrics["records.resident_bytes_per_record"] = _resident_bytes_per_record(inputs)
        for name in ("synth.generate.s", "records.write_run.s"):
            metrics[name] = median(layer[name] for layer in setup_layers)
        units = PER_LAYER

    problems = [p for r in rounds for p in r.problems]
    for note in sorted({n for r in rounds for n in r.notes} | set(problems[:20])):
        print(f"{w.name}: {note}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    return result, raw


def _traced_rounds(pipeline: Pipeline, tracer: trace.Tracer, seconds: float,
                   rounds: list[Round], work: Path) -> dict[str, float]:
    """Alternate untraced and traced in-process rounds; per-layer medians."""
    runner = InProcessRunner()
    untraced_walls, traced_walls, layers = [], [], []
    start = time.perf_counter()
    while not traced_walls or time.perf_counter() - start < seconds:
        gc.collect()
        rounds.append(pipeline.round(runner))
        untraced_walls.append(rounds[-1].pipeline_s)

        gc.collect()
        tracer.spans.clear()
        tracer.gc_s, tracer.gc_collections = 0.0, 0
        with ExitStack() as tracing:
            tracing.enter_context(trace.instrument(tracer, trace.command_targets()))
            tracing.enter_context(tracer.collecting_gc())
            runner.tracer = tracer
            tracing.callback(setattr, runner, "tracer", None)
            rounds.append(pipeline.round(runner, on_traced_end=tracing.close))
        traced = rounds[-1]
        traced_walls.append(traced.pipeline_s)
        traced.problems.extend(trace.nesting_problems(tracer.spans))
        layer = trace.layer_metrics(tracer.spans)
        layer["runtime.gc_s"] = tracer.gc_s
        layer["runtime.gc_collections"] = tracer.gc_collections
        # spans are wall times; scale them like the round's commands
        speed = traced.pipeline_s / sum(traced.raw_wall.values())
        for name in layer:
            if name.endswith("per_s"):
                layer[name] /= speed
            elif name.endswith("_s") or name.endswith(".s"):
                layer[name] *= speed
        layers.append(layer)
    tracer.write(work / "spans.jsonl")
    out = {name: median(layer[name] for layer in layers) for name in layers[0]}
    out["trace.overhead_s"] = median(traced_walls) - median(untraced_walls)
    return out
