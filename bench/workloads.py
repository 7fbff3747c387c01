"""Seeded inputs for the three benchmark workloads.

Each workload is a set of prediction logs (and, for ``sweep-summaries``,
summary CSVs) drawn with ``nhfair.synth.generate`` and written with
``nhfair.records.write_run``. Sizes are fixed per workload; the seed only
changes the draws, so timings on different seeds measure the same amount
of work.

``setup`` is the benchmark's set-up step: it generates and writes every
input file and returns what the reference checks need (the generated
runs themselves, kept in memory, and the summary rows as written).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from nhfair import records, synth

# Method name of the comma/quote round trip (ROADMAP 4b): the evaluate
# table leaves this cell unquoted, so the row shifts when read back.
FAULTY_METHOD = 'erm,"v2"'
FAULTY_SEED = 20260


@dataclass(frozen=True)
class LogSet:
    """One family of prediction logs: methods x datasets x seeds."""

    methods: tuple[str, ...]
    datasets: tuple[str, ...]
    n_seeds: int
    groups: tuple[str, ...]
    n_per_group: int
    # per dataset: (utility kind, number of classes, file format)
    kinds: tuple[tuple[str, int, str], ...]


@dataclass(frozen=True)
class Workload:
    name: str
    logs: LogSet
    eqodd: str | None = None  # --eqodd for evaluate; None passes no flag
    # summary CSVs for selection: (clouds, the first being ERM's, rows per
    # cloud, groups); None selects over the logs themselves
    summaries: tuple[int, int, int] | None = None
    faulty_round_trip: bool = False

    def scaled(self, factor: float) -> "Workload":
        """The same workload with fewer records per group (for the self-test)."""
        logs = replace(self.logs, n_per_group=max(12, int(self.logs.n_per_group * factor)))
        summaries = self.summaries
        if summaries is not None:
            summaries = (summaries[0], max(8, int(summaries[1] * factor)), summaries[2])
        return replace(self, logs=logs, summaries=summaries)


def _tags(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i:02d}" for i in range(n))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="auc-jsonl",
            logs=LogSet(
                methods=("erm", "groupdro", "reweight"),
                datasets=("celeba", "isic"),
                n_seeds=2,
                groups=("A", "B"),
                # 12,000 records per log, so that a run, five set-ups
                # included, ends in about 35 s (bench/README.md)
                n_per_group=6000,
                kinds=(("auc", 2, "jsonl"),) * 2,
            ),
        ),
        Workload(
            name="multiclass-csv",
            logs=LogSet(
                methods=("erm", "groupdro", "reweight"),
                datasets=("fairface", "utkface"),
                n_seeds=2,
                groups=_tags("g", 8),
                n_per_group=1000,
                kinds=(("accuracy", 10, "csv"),) * 2,
            ),
            eqodd="full",
        ),
        Workload(
            name="sweep-summaries",
            logs=LogSet(
                methods=("erm",) + _tags("m", 9),
                datasets=_tags("d", 30),
                n_seeds=3,
                groups=("g0", "g1", "g2"),
                n_per_group=30,
                kinds=(("auc", 2, "jsonl"), ("accuracy", 3, "csv")) * 15,
            ),
            summaries=(4, 150, 4),
            faulty_round_trip=True,
        ),
    )
}


@dataclass
class Inputs:
    """Files written by set-up plus what the reference checks need."""

    root: Path
    log_globs: list[str]
    runs: list[records.EvaluationRun]
    erm_globs: list[str]  # select-erm inputs: the ERM candidates
    select_globs: list[str]  # select-fwh inputs: every candidate
    # summary rows as written: (run_id, method, {group: utility}, overall)
    summary_rows: list[tuple[str, str, dict[str, float], float]] = field(default_factory=list)
    faulty_glob: str | None = None
    faulty_runs: list[records.EvaluationRun] = field(default_factory=list)

    @property
    def n_records(self) -> int:
        return sum(len(run.records) for run in self.runs)


def _cohort_spec(rng: np.random.Generator, seed: int, logs: LogSet, n_classes: int,
                 auc: bool) -> synth.CohortSpec:
    labels = ("neg", "pos") if n_classes == 2 else tuple(f"c{i}" for i in range(n_classes))
    prior: dict[str, dict[str, float]] = {}
    behaviour: dict[str, dict[str, dict[str, float]]] = {}
    for g in logs.groups:
        # floor every class at half its uniform share so no (group, class)
        # cell of the large workloads comes out empty
        p = 0.5 / n_classes + 0.5 * rng.dirichlet(np.ones(n_classes))
        prior[g] = dict(zip(labels, (float(x) for x in p / p.sum())))
        rows = {}
        for i, y in enumerate(labels):
            hit = float(rng.uniform(0.6, 0.92))
            rest = (1.0 - hit) * rng.dirichlet(np.ones(n_classes - 1))
            row = np.insert(rest, i, hit)
            rows[y] = dict(zip(labels, (float(x) for x in row / row.sum())))
        behaviour[g] = rows
    return synth.CohortSpec(
        seed=seed,
        n_per_group={g: logs.n_per_group for g in logs.groups},
        class_prior=prior,
        confusion_spec=behaviour,
        score_noise=1.0 if auc else 0.0,
    )


def _write_logs(rng: np.random.Generator, logs: LogSet, out: Path) -> list[records.EvaluationRun]:
    out.mkdir(parents=True)
    cells = [(m, d, kind) for d, kind in zip(logs.datasets, logs.kinds) for m in logs.methods]
    run_seeds = rng.choice(2**31, size=len(cells) * logs.n_seeds, replace=False)
    runs = []
    for index, (method, dataset, (kind, n_classes, fmt)) in enumerate(cells):
        for s in range(logs.n_seeds):
            seed = int(run_seeds[index * logs.n_seeds + s])
            spec = _cohort_spec(rng, seed, logs, n_classes, kind == "auc")
            run = synth.generate(spec, utility_kind=kind, method=method, dataset=dataset)
            slug = "".join(c if c.isalnum() else "_" for c in method)
            records.write_run(run, out / f"{slug}-{dataset}-s{s}.{fmt}")
            runs.append(run)
    return runs


def _write_summaries(rng: np.random.Generator, w: Workload, out: Path) -> list:
    """An ERM candidate cloud plus clouds of the other methods, on a 1/256 grid.

    Grid values are exact binary fractions, so equal distances and gaps
    compare equal and the tie rules decide. Two ERM rows are placed nearest
    the utopia point at the same distance with different worst groups, so
    select-erm's choice rests on its tie order.
    """
    n_files, n_rows, n_groups = w.summaries
    groups = [f"s{i}" for i in range(n_groups)]
    clouds = {"erm": [(f"erm-r{r:03d}", "erm", rng.integers(176, 241, n_groups))
                      for r in range(n_rows)]}
    top = np.max([levels for _, _, levels in clouds["erm"]], axis=0)
    clouds["erm"] += [("erm-tie-a", "erm", top - np.eye(n_groups, dtype=int)[0] * 2),
                      ("erm-tie-b", "erm", top - 1)]
    others = w.logs.methods[1:]
    for f in range(1, n_files):
        clouds[f"cloud{f}"] = [
            (f"c{f}-r{r:03d}", others[int(rng.integers(len(others)))],
             rng.integers(160, 256, n_groups))
            for r in range(n_rows)
        ]
    out.mkdir(parents=True)
    rows = []
    for name, cloud in clouds.items():
        lines = [",".join(["run_id", "method", *groups, "overall"])]
        for run_id, method, levels in cloud:
            utilities = {g: int(v) / 256 for g, v in zip(groups, levels)}
            overall = int(rng.integers(160, 256)) / 256
            rows.append((run_id, method, utilities, overall))
            lines.append(",".join([run_id, method, *map(repr, utilities.values()),
                                   repr(overall)]))
        (out / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return rows


def setup(w: Workload, seed: int, root: Path) -> Inputs:
    """Generate and write every input of workload ``w`` under a new ``root``."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(w.name)])
    runs = _write_logs(rng, w.logs, root / "logs")
    formats = sorted({fmt for _, _, fmt in w.logs.kinds})
    log_globs = [str(root / "logs" / f"*.{fmt}") for fmt in formats]
    inputs = Inputs(root=root, log_globs=log_globs, runs=runs, select_globs=log_globs,
                    erm_globs=[str(root / "logs" / f"erm-*.{fmt}") for fmt in formats])
    if w.summaries is not None:
        inputs.summary_rows = _write_summaries(rng, w, root / "summaries")
        inputs.erm_globs = [str(root / "summaries" / "erm.csv")]
        inputs.select_globs = [str(root / "summaries" / "*.csv")]
    if w.faulty_round_trip:
        # fixed seed: the round trip fails the same way whatever --seed is
        faulty = LogSet(methods=(FAULTY_METHOD, "erm"), datasets=("d00", "d01"), n_seeds=1,
                        groups=("g0", "g1", "g2"), n_per_group=30,
                        kinds=(("accuracy", 3, "csv"),) * 2)
        inputs.faulty_runs = _write_logs(np.random.default_rng(FAULTY_SEED), faulty,
                                         root / "faulty")
        inputs.faulty_glob = str(root / "faulty" / "*.csv")
    return inputs
