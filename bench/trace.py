"""Spans recorded from the benchmark's side of each layer boundary.

``instrument`` replaces the public function of each layer where the CLI
looks it up (``nhfair.cli.parse_run``, ``nhfair.metrics.group_auc``, ...)
with a wrapper that records a span, and puts the originals back on exit.
Nothing in ``nhfair`` is edited. Spans are kept in memory; ``layer_metrics``
turns one round of them into the per-layer figures.

A span's self time is its duration minus the time its direct children
cover. When calls are single-threaded and nested, the self times of a
command's spans add up to the command span; ``nesting_problems`` reports
spans that are not nested.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0

    @contextmanager
    def span(self, name: str):
        s = Span(len(self.spans), name, self._stack[-1] if self._stack else None,
                 time.perf_counter())
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, count=None):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if count is not None:
                s.counts.update(count(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        # a collection with no span open is set off by the benchmark itself
        if not self._stack:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    @contextmanager
    def collecting_gc(self):
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(s.__dict__) + "\n")


def _run_counts(args, run):
    return {"records": len(run.records), "bytes": os.path.getsize(args[0])}


def setup_targets():
    from nhfair import records, synth

    return [
        (synth, "generate", "synth.generate", None),
        (records, "write_run", "records.write_run", None),
    ]


def command_targets():
    from nhfair import cli, metrics, selection, stats

    def n(key):
        return lambda args, result: {key: len(args[0])}

    return [
        (cli, "parse_run", "records.parse_run", _run_counts),
        (cli, "parse_summaries", "records.parse_summaries",
         lambda args, rows: {"rows": len(rows)}),
        (metrics, "metric_report", "metrics.metric_report", None),
        (metrics, "confusion", "metrics.confusion", None),
        (metrics, "group_auc", "metrics.group_auc", None),
        (metrics, "pooled_auc", "metrics.pooled_auc", None),
        (stats, "aggregate", "stats.aggregate", n("runs")),
        *((stats, f, "stats.rank", None)
          for f in ("rank_matrix", "friedman", "nemenyi_cd", "mean_ranks", "cliques")),
        *((cli, f, "tables.format", n("rows")) for f in ("rows_to_csv", "rows_to_json",
                                                         "rows_to_markdown")),
        (cli, "render_cd_plot", "svgplot.render_cd_plot", None),
        (selection, "dto_select", "selection.dto_select", n("candidates")),
        (selection, "fwh_select", "selection.fwh_select", n("candidates")),
    ]


@contextmanager
def instrument(tracer: Tracer, targets):
    """Wrap each (module, attribute) entry point; restore them on exit."""
    saved = []
    try:
        for module, attr, name, count in targets:
            if not hasattr(module, attr):
                print(f"trace: {module.__name__}.{attr} not found; {name} reads 0",
                      file=sys.stderr)
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, count))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


COMMANDS = ("evaluate", "compare", "select_erm", "select_fwh")
LAYERS = (
    "records.parse_run", "records.parse_summaries", "metrics.confusion", "metrics.group_auc",
    "metrics.pooled_auc", "stats.aggregate", "tables.format", "stats.rank",
    "svgplot.render_cd_plot", "selection.dto_select", "selection.fwh_select",
)


def self_times(spans: list[Span]) -> dict[int, float]:
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def nesting_problems(spans: list[Span]) -> list[str]:
    """Spans that break the nesting self times rest on.

    If every span lies within its parent, spans with the same parent do
    not overlap, and every layer span has a command span above it, no self
    time is negative and the self times of a command's spans add up to the
    command span. Spans from other threads or layer calls made outside
    any command break this and are reported.
    """
    problems = []
    last_end: dict[int | None, float] = {}
    for s in sorted(spans, key=lambda s: s.start):
        if s.parent is None:
            if not s.name.startswith("cli."):
                problems.append(f"{s.name} span outside any command span")
        else:
            parent = spans[s.parent]  # a span's id is its index in the list
            if s.start < parent.start or s.end > parent.end:
                problems.append(f"{s.name} span not inside its parent {parent.name}")
        if s.start < last_end.get(s.parent, s.start):
            problems.append(f"{s.name} span overlaps an earlier span with its parent")
        last_end[s.parent] = max(last_end.get(s.parent, s.end), s.end)
    return problems


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one traced round (every command once)."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name: str) -> float:
        return sum(own[s.id] for s in by_name.get(name, []))

    out = {f"{name}.s": total(name) for name in LAYERS}
    out["metrics.metric_report.self_s"] = total("metrics.metric_report")
    for command in COMMANDS:
        out[f"cli.{command}.self_s"] = total(f"cli.{command}")
    parses = by_name.get("records.parse_run", [])
    parse_s = out["records.parse_run.s"]
    out["records.parse_run.records_per_s"] = (
        sum(s.counts["records"] for s in parses) / parse_s if parse_s else 0.0
    )
    out["records.parse_run.bytes_per_s"] = (
        sum(s.counts["bytes"] for s in parses) / parse_s if parse_s else 0.0
    )
    for name in ("metrics.group_auc", "metrics.confusion"):
        out[f"{name}.calls_per_run"] = len(by_name.get(name, [])) / max(1, len(parses))
    return out
