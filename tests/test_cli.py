"""End-to-end command tests: outputs, exit codes, config, determinism."""

from __future__ import annotations

import atexit
import contextlib
import dataclasses
import errno
import gc
import importlib
import io
import json
import os
import pstats
import stat
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nhfair
from conftest import make_run
from nhfair import cli, stats
from nhfair.cli import build_parser, main
from nhfair.config import OPTIONS, EngineConfig, build_config
from nhfair.metrics import metric_report
from nhfair.records import parse_run, write_run
from nhfair.selection import parse_summaries
from nhfair.synth import CohortSpec, generate
from nhfair.tables import METRIC_NAMES, parse_mean_std


def spec_for(seed, skew=0.0):
    return CohortSpec(
        seed=seed,
        n_per_group={"A": 60, "B": 60},
        class_prior={
            "A": {"neg": 0.5, "pos": 0.5},
            "B": {"neg": 0.5, "pos": 0.5},
        },
        confusion_spec={
            "A": {
                "neg": {"neg": 0.85, "pos": 0.15},
                "pos": {"neg": 0.2, "pos": 0.8},
            },
            "B": {
                "neg": {"neg": 0.85 - skew, "pos": 0.15 + skew},
                "pos": {"neg": 0.2 + skew, "pos": 0.8 - skew},
            },
        },
        score_noise=0.4,
    )


@pytest.fixture
def run_dir(tmp_path):
    directory = tmp_path / "runs"
    directory.mkdir()
    for method, skew in (("erm", 0.0), ("mitiga", 0.05)):
        for seed in (1, 2, 3):
            run = generate(spec_for(seed, skew), method=method, dataset="demo")
            write_run(run, directory / f"{method}-demo-s{seed}.jsonl")
    return directory


@pytest.fixture
def summary_csv(tmp_path):
    path = tmp_path / "summ.csv"
    path.write_text(
        "run_id,method,disadv%,adv%,overall%\n"
        "erm1,erm,83.76,90.52,86.57\n"
        "ra1,randaug,83.89,90.69,86.72\n"
        "mix1,mixup,82.74,89.64,85.61\n",
        encoding="utf-8",
    )
    return path


class TestEvaluate:
    def test_csv_table(self, run_dir, tmp_path, capsys):
        code = main(["evaluate", str(run_dir / "*.jsonl")])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("method,dataset,split,utility_kind,n_seeds")
        assert len(lines) == 3  # header + erm + mitiga, seeds aggregated
        assert "±" in lines[1]

    def test_markdown_and_json(self, run_dir, capsys):
        assert main(["evaluate", "--format", "md", str(run_dir / "erm-*.jsonl")]) == 0
        md = capsys.readouterr().out
        assert md.startswith("| Method |")
        assert main(["evaluate", "--format", "json", str(run_dir / "erm-*.jsonl")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["n_seeds"] == 3
        assert set(payload[0]["metrics"]) == {"utility", "worst", "gap", "eqodd", "dp"}

    def test_fraction_units(self, run_dir, capsys):
        assert main(["evaluate", "--units", "fraction", str(run_dir / "erm-*.jsonl")]) == 0
        out = capsys.readouterr().out
        value = out.strip().splitlines()[1].split(",")[5].split("±")[0].strip()
        assert 0.0 <= float(value) <= 1.0

    def test_empty_glob_exits_2(self, tmp_path, capsys):
        code = main(["evaluate", str(tmp_path / "nope-*.jsonl")])
        assert code == 2
        assert "no runs matched" in capsys.readouterr().err

    def test_summary_file_rejected(self, summary_csv, capsys):
        code = main(["evaluate", str(summary_csv)])
        assert code == 2

    def test_mixed_kinds_labeled(self, tmp_path, capsys):
        write_run(generate(spec_for(1), method="acc", dataset="d"), tmp_path / "a.jsonl")
        write_run(
            generate(spec_for(1), utility_kind="auc", method="roc", dataset="d"),
            tmp_path / "b.jsonl",
        )
        assert main(["evaluate", str(tmp_path / "*.jsonl")]) == 0
        out = capsys.readouterr().out
        assert ",accuracy," in out and ",auc," in out

    def test_determinism_across_jobs(self, run_dir, tmp_path):
        out1 = tmp_path / "t1.csv"
        out2 = tmp_path / "t2.csv"
        out4 = tmp_path / "t4.csv"
        assert main(["evaluate", "--out", str(out1), str(run_dir / "*.jsonl")]) == 0
        assert main(["evaluate", "--jobs", "1", "--out", str(out2), str(run_dir / "*.jsonl")]) == 0
        assert main(["evaluate", "--jobs", "4", "--out", str(out4), str(run_dir / "*.jsonl")]) == 0
        assert out1.read_bytes() == out2.read_bytes() == out4.read_bytes()

    def test_warnings_do_not_depend_on_log_order(self, tmp_path, capsys):
        # seed 1: group A has one record and no neg; seed 0: group B has no neg
        for name, seed, triples in (
            ("a-s1.jsonl", 1, [("pos", "pos", "A"), ("neg", "neg", "B"),
                               ("pos", "neg", "B"), ("neg", "pos", "B")]),
            ("b-s0.jsonl", 0, [("pos", "pos", "A"), ("neg", "neg", "A"),
                               ("pos", "pos", "B"), ("pos", "neg", "B")]),
        ):
            write_run(make_run(triples, seed=seed), tmp_path / name)
        outputs = []
        for order in (("a-s1", "b-s0"), ("b-s0", "a-s1")):
            assert main(["evaluate", *(str(tmp_path / f"{n}.jsonl") for n in order)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "class neg skipped (no samples in group(s) B); eqodd: class neg" in outputs[0]

    def test_unmatched_pattern_exits_2(self, run_dir, capsys):
        missing = str(run_dir / "missing.jsonl")
        code = main(["evaluate", str(run_dir / "erm-demo-s1.jsonl"), missing])
        assert code == 2
        err = capsys.readouterr().err
        assert "no runs matched" in err and missing in err

    def test_comma_and_quote_in_method_round_trip(self, tmp_path, capsys):
        method = 'erm,"v2"'
        for name, slug, skew in ((method, "erm_v2", 0.0), ("dro", "dro", 0.05)):
            for dataset in ("d1", "d2"):
                run = generate(spec_for(7, skew), method=name, dataset=dataset)
                write_run(run, tmp_path / f"{slug}-{dataset}.jsonl")
        table = tmp_path / "table.csv"
        assert main(["evaluate", "--out", str(table), str(tmp_path / "*.jsonl")]) == 0
        assert '"erm,""v2"""' in table.read_text(encoding="utf-8")
        assert main(["compare", "--metric", "utility", str(table)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["mean_ranks"]) == {method, "dro"}


# any text (a lone surrogate is not text; see test_lone_surrogate_name_exits_2), with the
# characters CSV and line splitting treat specially drawn often
_NAMES = st.text(
    st.characters(exclude_categories=("Cs",))
    | st.sampled_from(["\r", "\n", ",", '"', "±", "\x00", "\t", "\u2028"]),
    max_size=6,
)


@given(
    methods=st.lists(_NAMES, min_size=2, max_size=2, unique=True),
    datasets=st.lists(_NAMES, min_size=2, max_size=2, unique=True),
)
@settings(max_examples=40, deadline=None)
def test_any_names_round_trip_evaluate_to_compare(methods, datasets):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for i, method in enumerate(methods):
            for j, dataset in enumerate(datasets):
                run = generate(spec_for(i + j, 0.05 * i), method=method, dataset=dataset)
                write_run(run, directory / f"m{i}-d{j}.jsonl")
        table, cd = directory / "table.csv", directory / "cd.json"
        assert main(["evaluate", "--out", str(table), str(directory / "*.jsonl")]) == 0
        assert main(["compare", "--metric", "utility", "--out", str(cd), str(table)]) == 0
        assert set(json.loads(cd.read_text(encoding="utf-8"))["mean_ranks"]) == set(methods)


def test_carriage_return_in_name_round_trips(tmp_path, capsys):
    for i, method in enumerate(("erm\rv2", "dro")):
        for dataset in ("d1", "d2"):
            run = generate(spec_for(3, 0.05 * i), method=method, dataset=dataset)
            write_run(run, tmp_path / f"m{i}-{dataset}.jsonl")
    table = tmp_path / "table.csv"
    assert main(["evaluate", "--out", str(table), str(tmp_path / "*.jsonl")]) == 0
    text = table.read_bytes().decode("utf-8")
    assert '"erm\rv2","d1","test","accuracy","1",' in text
    assert "\ndro,d1,test,accuracy,1," in text  # other rows keep minimal quoting
    assert main(["compare", "--metric", "utility", str(table)]) == 0
    assert set(json.loads(capsys.readouterr().out)["mean_ranks"]) == {"erm\rv2", "dro"}


def test_lone_surrogate_name_exits_2(tmp_path, capsys):
    path = tmp_path / "run.jsonl"
    write_run(generate(spec_for(1), method="m\ud800", dataset="d"), path)
    assert main(["evaluate", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path.with_suffix('.manifest.json')}: bad manifest: " in err
    assert "surrogates not allowed" in err


def _undecodable_cases():
    """(name, build) pairs; build(dir) writes the inputs and returns argv, path, line."""

    def log(directory, suffix):
        path = directory / f"run.{suffix}"
        write_run(generate(spec_for(1), method="m", dataset="d"), path)
        return path

    def append(path, data):
        path.write_bytes(path.read_bytes() + data)
        return len(path.read_bytes().splitlines())

    def jsonl_bytes(d):
        path = log(d, "jsonl")
        return ["evaluate", str(path)], path, append(path, b"\xff\xfe\n")

    def jsonl_bytes_after_bad_json(d):
        # the bad byte wins over the earlier line, even a read-buffer away
        path = log(d, "jsonl")
        return ["evaluate", str(path)], path, append(path, b"{\n" + b"\n" * 20_000 + b"\xff\n")

    def csv_bytes(d):
        path = log(d, "csv")
        return ["evaluate", str(path)], path, append(path, b"x\xff,neg,neg,A\n")

    def manifest_bytes(d):
        path = log(d, "jsonl").with_suffix(".manifest.json")
        path.write_bytes(b'{\n  "method": "m\xe9",\n  "dataset": "d"\n}\n')
        return ["evaluate", str(d / "run.jsonl")], path, 2

    def summary_bytes(d):
        path = d / "summ.csv"
        path.write_bytes(b"run_id,method,a%,b%,overall%\nr1,m,80,90,85\nr2,\xc3,80,90,85\n")
        return ["select-erm", str(path)], path, 3

    def table_bytes(d):
        path = d / "agg.csv"
        path.write_bytes(b"method,dataset,n_seeds,gap\nerm,d1,5,1.0\n\x80rm,d2,5,2.0\n")
        return ["compare", "--metric", "gap", str(path)], path, 3

    def config_bytes(d):
        path = d / "engine.cfg"
        path.write_bytes(b"tolerance = 0.5\n# caf\xe9\n")
        summaries = d / "summ.csv"
        summaries.write_text("run_id,method,a%,b%,overall%\nr1,m,80,90,85\n", encoding="utf-8")
        return ["select-erm", "--config", str(path), str(summaries)], path, 2

    def jsonl_nesting(d):
        path = log(d, "jsonl")
        return ["evaluate", str(path)], path, append(path, b"[" * 100_000 + b"\n")

    def manifest_nesting(d):
        path = log(d, "jsonl").with_suffix(".manifest.json")
        path.write_bytes(b"[" * 100_000)
        return ["evaluate", str(d / "run.jsonl")], path, None

    def jsonl_long_integer(d):
        # more digits than Python converts between int and str
        path = log(d, "jsonl")
        record = b'{"sample_id": "z", "y": "neg", "y_hat": "neg", "group": "A", "scores": '
        score = b'{"pos": 1' + b"0" * 5000 + b"}"
        return ["evaluate", str(path)], path, append(path, record + score + b"}\n")

    def manifest_long_integer(d):
        path = log(d, "jsonl").with_suffix(".manifest.json")
        path.write_text(_LOG_MANIFEST.replace('"seed": 1', '"seed": 1' + "0" * 5000))
        return ["evaluate", str(d / "run.jsonl")], path, None

    def manifest_infinite_seed(d):
        path = log(d, "jsonl").with_suffix(".manifest.json")
        path.write_text(_LOG_MANIFEST.replace('"seed": 1', '"seed": 1e400'))
        return ["evaluate", str(d / "run.jsonl")], path, None

    return [(f.__name__, f) for f in (
        jsonl_bytes, jsonl_bytes_after_bad_json, csv_bytes, manifest_bytes, summary_bytes, table_bytes, config_bytes,
        jsonl_nesting, manifest_nesting, jsonl_long_integer, manifest_long_integer,
        manifest_infinite_seed,
    )]


@pytest.mark.parametrize("name, build", _undecodable_cases())
def test_undecodable_input_exits_2_naming_path_and_line(tmp_path, capsys, name, build):
    argv, path, line = build(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal error" not in err
    where = f"{path}: " if line is None else f"{path}: line {line}: "
    assert where in err


_LOG_MANIFEST = json.dumps({
    "method": "m", "dataset": "d", "seed": 1, "split": "test", "utility_kind": "accuracy",
    "labels": ["neg", "pos"], "groups": ["A", "B"],
})
_CSV_INPUTS = {  # kind: argv, header
    "log": (["evaluate"], "sample_id,y,y_hat,group\n"),
    "summary": (["select-erm"], "run_id,method,a,b,overall\n"),
    "table": (["compare", "--metric", "utility"], "method,dataset,n_seeds,utility\n"),
}
_LONG_FIELD = '"' + "x" * 140_000  # an unclosed quote: one field past the csv module's limit


@pytest.mark.parametrize(
    "kind, records, line, message",
    [
        # a record with a quoted line break, then a faulty record
        ("log", '"s\n1",pos,pos,A\ns2,neg,neg,Z\n', 4, "group 'Z' not in manifest"),
        ("summary", '"r\n1",m,0.8,0.9,0.85\nr2,m,0.8,1.5,0.85\n', 4,
         "utility '1.5' outside [0, 1]"),
        ("table", '"m\n1",d1,1,0.8\nm2,d1,one,0.9\n', 4, "bad n_seeds cell 'one'"),
        ("log", '"s\r\n1",pos,pos,A\r\ns2,neg,neg\r\n', 4, "expected 4 fields, got 3"),
        ("summary", '"r\r1",m,0.8,0.9,0.85\rr2,m,0.8\r', 4, "expected 5 fields, got 3"),
        ("table", '"m\r1",d1,1,0.8\r\nm2,d1,1\n', 4, "expected 4 fields, got 3"),
        ("log", "s1,pos,pos,A\n" + _LONG_FIELD, 3, "unreadable CSV record: field larger"),
        ("summary", "r1,m,0.8,0.9,0.85\n" + _LONG_FIELD, 3, "unreadable CSV record: field larger"),
        ("table", "m1,d1,1,0.8\n" + _LONG_FIELD, 3, "unreadable CSV record: field larger"),
        # a record holding NUL, which the csv module of Python 3.10 rejects, then a fault
        ("log", "s\x001,pos,pos,A\ns2,neg,neg,Z\n", 3, "group 'Z' not in manifest"),
        ("summary", "r\x001,m,0.8,0.9,0.85\nr2,m,0.8,1.5,0.85\n", 3,
         "utility '1.5' outside [0, 1]"),
        ("table", "m\x001,d1,1,0.8\nm2,d1,one,0.9\n", 3, "bad n_seeds cell 'one'"),
    ],
    ids=[f"{kind}-{case}" for case in ("after-break", "width-after-break", "long-field", "after-nul")
         for kind in ("log", "summary", "table")],
)
def test_csv_fault_names_the_line_its_record_starts_on(tmp_path, capsys, kind, records, line,
                                                       message):
    argv, header = _CSV_INPUTS[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_bytes((header + records).encode("utf-8"))
    (tmp_path / "log.manifest.json").write_text(_LOG_MANIFEST, encoding="utf-8")
    assert main([*argv, str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: line {line}: {message}")


@pytest.mark.parametrize(
    "kind, header, column",
    [
        ("summary", "run_id,method,a,a,overall", "a"),
        ("summary", "run_id,method,a,a%,overall", "a"),
        ("summary", "run_id,method,a,b,overall,overall%", "overall"),
        ("table", "method,dataset,n_seeds,utility,utility", "utility"),
        ("table", "method,dataset,method,utility", "method"),
    ],
)
def test_repeated_column_name_exits_2_at_line_1(tmp_path, capsys, kind, header, column):
    argv, _ = _CSV_INPUTS[kind]
    path = tmp_path / f"{kind}.csv"
    width = header.count(",") + 1
    path.write_text(f"{header}\n" + ",".join(["m", "d"] + ["0.5"] * (width - 2)) + "\n",
                    encoding="utf-8")
    assert main([*argv, str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: line 1: column {column!r} is repeated\n"


def test_repeated_score_column_of_a_log_keeps_the_last_non_blank_cell(tmp_path, capsys):
    log = tmp_path / "log.csv"
    (tmp_path / "log.manifest.json").write_text(
        _LOG_MANIFEST.replace('"accuracy"', '"auc"'), encoding="utf-8"
    )
    outputs = []
    for scores in (("0.3,0.9", "0.1,", ",0.8", "0.7,0.2"), ("0.9", "0.1", "0.8", "0.2")):
        header = "sample_id,y,y_hat,group,score:pos" + (",score:pos" if "," in scores[0] else "")
        rows = [f"s{i},{y},{y},{g},{s}" for i, (y, g, s) in enumerate(
            zip(("pos", "neg", "pos", "neg"), "AABB", scores))]
        log.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        assert main(["evaluate", str(log)]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


def test_upper_case_suffix_log_reads_as_its_lower_case_copy(tmp_path, capsys):
    run = generate(spec_for(1), method="m", dataset="d")
    outputs = []
    for name in ("upper/run.JSONL", "lower/run.jsonl"):
        path = tmp_path / name
        path.parent.mkdir()
        write_run(run, path)
        for argv in (["evaluate"], ["select-erm"]):
            assert main([*argv, str(path.parent / "*")]) == 0
            outputs.append(capsys.readouterr())
    assert outputs[:2] == outputs[2:]


_PATH_INPUTS = {  # file name: content
    "run.jsonl": None,  # written from a generated run, with its manifest
    "summ.csv": "run_id,method,a,b,overall\nr1,m,0.8,0.7,0.75\nr2,n,0.7,0.8,0.76\n",
    "agg.csv": "method,dataset,gap\nm1,d1,0.1\nm2,d1,0.2\nm1,d2,0.15\nm2,d2,0.25\n",
    "agg.json": json.dumps([
        {"method": m, "dataset": d, "split": "", "n_seeds": 1,
         "metrics": {"gap": {"mean": gap, "std": 0.0}}}
        for m, d, gap in (("m1", "d1", 0.1), ("m2", "d1", 0.2), ("m1", "d2", 0.15),
                          ("m2", "d2", 0.25))
    ]),
}


def _path_inputs(directory: Path) -> None:
    for name, text in _PATH_INPUTS.items():
        if text is None:
            write_run(generate(spec_for(1), method="m", dataset="d"), directory / name)
        else:
            (directory / name).write_text(text, encoding="utf-8")


@pytest.mark.parametrize(
    "argv, named",
    [
        (["evaluate", "sub"], "sub"),
        (["select-erm", "sub"], "sub"),
        (["select-erm", "s*"], "sub"),  # a pattern that matches the directory and summ.csv
        (["select-fwh", "--baseline", "r1", "sub"], "sub"),
        (["select-fwh", "--baseline", "sub", "summ.csv"], "sub"),
        (["compare", "--metric", "gap", "sub"], "sub"),
        (["compare", "--metric", "gap", "dangling.csv"], "dangling.csv"),
        (["evaluate", "lone.jsonl"], "lone.manifest.json"),
    ],
    ids=["evaluate", "select-erm", "select-erm-pattern", "select-fwh", "select-fwh-baseline",
         "compare", "compare-dangling-link", "evaluate-manifest-dir"],
)
def test_input_that_is_not_a_file_exits_2_naming_it(tmp_path, capsys, monkeypatch, argv, named):
    _path_inputs(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "lone.jsonl").write_bytes((tmp_path / "run.jsonl").read_bytes())
    (tmp_path / "lone.manifest.json").mkdir()
    (tmp_path / "dangling.csv").symlink_to(tmp_path / "gone.csv")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {named}: ")


@pytest.mark.parametrize(
    "argv, named",
    [
        (["evaluate", "--out", "sub", "run.jsonl"], "sub"),
        (["select-erm", "--out", "sub", "summ.csv"], "sub"),
        (["select-erm", "--out", "missing/t.json", "summ.csv"], "missing/t.json"),
        (["select-fwh", "--baseline", "r1", "--out", "missing/t.json", "summ.csv"],
         "missing/t.json"),
        (["compare", "--metric", "gap", "--out", "sub", "agg.csv"], "sub"),
        (["compare", "--metric", "gap", "--out", "cd.json", "--svg", "missing/cd.svg",
          "agg.csv"], "missing/cd.svg"),
        (["compare", "--metric", "gap", "--out", "cd.json", "--svg", "sub", "agg.csv"], "sub"),
        (["compare", "--metric", "gap", "--out", "sub.json", "agg.csv"], "sub.svg"),
        (["compare", "--metric", "gap", "--svg", "missing/cd.svg", "agg.csv"], "missing/cd.svg"),
        (["select-erm", "--out", "astray.json", "summ.csv"], "astray.json"),
    ],
    ids=["evaluate-out-dir", "select-erm-out-dir", "select-erm-out-missing-parent",
         "select-fwh-out-missing-parent", "compare-out-dir", "compare-svg-missing-parent",
         "compare-svg-dir", "compare-derived-svg-dir", "compare-stdout-svg-missing-parent",
         "select-erm-out-link-to-missing-parent"],
)
def test_unwritable_output_exits_2_before_anything_is_written(tmp_path, capsys, monkeypatch,
                                                               argv, named):
    _path_inputs(tmp_path)
    for directory in ("sub", "sub.svg"):
        (tmp_path / directory).mkdir()
    (tmp_path / "astray.json").symlink_to(tmp_path / "missing" / "t.json")
    before = sorted(p.name for p in tmp_path.rglob("*"))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {named}: ") and captured.out == ""
    assert sorted(p.name for p in tmp_path.rglob("*")) == before


def test_outputs_are_moved_into_place_leaving_no_temporary_file(tmp_path, monkeypatch):
    _path_inputs(tmp_path)
    (tmp_path / "cd.json").write_text("old", encoding="utf-8")
    (tmp_path / "cd.json").chmod(0o600)
    (tmp_path / "erm.json").write_text("old", encoding="utf-8")
    (tmp_path / "link.json").symlink_to("erm.json")
    monkeypatch.chdir(tmp_path)
    assert main(["compare", "--metric", "gap", "--out", "cd.json", "agg.csv"]) == 0
    assert main(["select-erm", "--out", "link.json", "summ.csv"]) == 0  # written through
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [*_PATH_INPUTS, "run.manifest.json", "cd.json", "cd.svg", "erm.json", "link.json"]
    )
    assert json.loads((tmp_path / "cd.json").read_text(encoding="utf-8"))["metric"] == "gap"
    assert stat.S_IMODE((tmp_path / "cd.json").stat().st_mode) == 0o600
    assert (tmp_path / "link.json").is_symlink()
    assert json.loads((tmp_path / "erm.json").read_text(encoding="utf-8"))["selected"]


def test_file_in_read_only_directory_is_written_in_place(tmp_path, monkeypatch):
    _path_inputs(tmp_path)
    locked = tmp_path / "locked"
    locked.mkdir()
    (locked / "erm.json").write_text("old", encoding="utf-8")
    locked.chmod(0o555)  # no temporary file can be made here (unless run as root)
    monkeypatch.chdir(tmp_path)
    try:
        assert main(["select-erm", "--out", "locked/erm.json", "summ.csv"]) == 0
    finally:
        locked.chmod(0o755)
    assert [p.name for p in locked.iterdir()] == ["erm.json"]
    assert json.loads((locked / "erm.json").read_text(encoding="utf-8"))["selected"]


@pytest.mark.parametrize("through_link", [False, True], ids=["fifo", "link-to-fifo"])
def test_output_to_a_fifo_is_written_in_place(tmp_path, monkeypatch, through_link):
    _path_inputs(tmp_path)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    out = fifo
    if through_link:
        out = tmp_path / "out.json"
        out.symlink_to(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # lets the write open the FIFO
    monkeypatch.chdir(tmp_path)
    try:
        assert main(["select-erm", "--out", str(out), "summ.csv"]) == 0
        received = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert json.loads(received)["selected"]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert out.is_symlink() == through_link
    assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


def _child_env() -> dict[str, str]:
    """The environment for a child interpreter that imports this nhfair."""
    src = str(Path(nhfair.__file__).parents[1])
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def test_out_dev_stdout_writes_to_the_stdout_given(tmp_path):
    _path_inputs(tmp_path)
    argv = [sys.executable, "-m", "nhfair.cli", "select-erm", "--out", "/dev/stdout", "summ.csv"]
    piped = subprocess.run(argv, cwd=tmp_path, env=_child_env(), capture_output=True, text=True,
                           check=False)
    assert piped.returncode == 0, piped.stderr
    assert json.loads(piped.stdout)["selected"]
    log = tmp_path / "log.txt"
    log.write_text("", encoding="utf-8")
    inode = log.stat().st_ino
    with open(log, "a", encoding="utf-8") as stdout:
        child = subprocess.run(argv, cwd=tmp_path, env=_child_env(), stdout=stdout,
                               stderr=subprocess.PIPE, text=True, check=False)
    assert child.returncode == 0, child.stderr
    assert log.stat().st_ino == inode  # written through, not replaced
    assert log.read_text(encoding="utf-8") == piped.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [*_PATH_INPUTS, "run.manifest.json", "log.txt"]
    )


# The exit that ``python -m nhfair.cli`` made before ``cli.run``: ``main``'s code
# through ``sys.exit``, then the interpreter's own teardown.
_SYS_EXIT = "import sys; from nhfair.cli import main; sys.exit(main())"


def _both_ways(argv: list[str], cwd: Path, stdout: int = subprocess.PIPE,
               prefix: tuple[str, ...] = ()) -> list[tuple]:
    """Exit code, stdout, stderr and the files written (name: bytes) of ``argv`` run by
    ``python -m nhfair.cli`` and by ``sys.exit(main())``, each in a fresh interpreter
    with its stdout buffered, started through ``prefix``."""
    env = {k: v for k, v in _child_env().items() if k != "PYTHONUNBUFFERED"}
    inputs = {p.name for p in cwd.iterdir()}
    results = []
    for start in (["-m", "nhfair.cli"], ["-c", _SYS_EXIT]):
        child = subprocess.run([*prefix, sys.executable, *start, *argv], cwd=cwd, env=env,
                               stdout=stdout, stderr=subprocess.PIPE, check=False)
        written = {p.name: p.read_bytes() for p in cwd.iterdir() if p.name not in inputs}
        for name in written:
            (cwd / name).unlink()
        results.append((child.returncode, child.stdout, child.stderr, written))
    return results


@pytest.mark.parametrize(
    "argv, code",
    [
        (["compare", "--metric", "gap", "agg.csv"], 0),
        (["compare", "--metric", "gap", "--out", "cd.json", "agg.csv"], 0),
        (["evaluate", "run.jsonl"], 0),
        (["evaluate", "--jobs", "2", "run.jsonl", "log.csv"], 0),
        (["evaluate", "missing.jsonl"], 2),
        (["evaluate", "--no-such-flag", "run.jsonl"], 2),
        (["compare", "--help"], 0),
        ([], 2),
    ],
    ids=["compare", "compare-out", "evaluate", "evaluate-forked", "bad-input", "usage-error",
         "help", "no-command"],
)
def test_a_command_run_as_a_module_ends_as_sys_exit_of_main_did(tmp_path, argv, code):
    """Output to a pipe, a usage error and --help give the same code, bytes and files
    whether the process ends through cli.run or through sys.exit and teardown."""
    _path_inputs(tmp_path)
    write_run(generate(spec_for(1), method="n", dataset="d"), tmp_path / "log.csv")
    new, old = _both_ways(argv, tmp_path)
    assert new == old
    assert new[0] == code
    assert (new[1] != b"") == (code == 0 and "--out" not in argv)
    assert sorted(new[3]) == (["cd.json", "cd.svg"] if "--out" in argv else [])


# A command started with file descriptor 1 closed, as the shell's ``>&-`` starts it.
_CLOSED_STDOUT = ("sh", "-c", 'exec "$@" >&-', "sh")


def test_a_closed_stdout_ends_as_sys_exit_of_main_did(tmp_path):
    """With stdout a pipe whose reader is gone, whether the output fits its 8 KiB buffer
    or not, and with file descriptor 1 closed, a command that prints exits 2 with one
    error line naming stdout and writes no file, not even its plot; with --out it
    writes its files and exits 0."""
    _path_inputs(tmp_path)
    rows = [f"r{i},m{i % 7},0.{50 + i % 40},0.{60 + i % 30},0.{55 + i % 35}" for i in range(120)]
    (tmp_path / "many.csv").write_text(
        "run_id,method,a,b,overall\n" + "\n".join(rows) + "\n", encoding="utf-8"
    )
    gone = b"error: stdout: broken pipe, its reader has gone\n"
    closed = b"error: stdout: closed\n"
    for argv in (["compare", "--metric", "gap", "--svg", "cd.svg", "agg.csv"],
                 ["select-erm", "many.csv"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            new, old = _both_ways(argv, tmp_path, stdout=write_end)
        finally:
            os.close(write_end)
        assert new == old == (2, None, gone, {})
        new, old = _both_ways(argv, tmp_path, stdout=subprocess.DEVNULL, prefix=_CLOSED_STDOUT)
        assert new == old == (2, None, closed, {})
    argv = ["compare", "--metric", "gap", "--out", "cd.json", "agg.csv"]
    new, old = _both_ways(argv, tmp_path, stdout=subprocess.DEVNULL, prefix=_CLOSED_STDOUT)
    assert new == old
    assert new[:3] == (0, None, b"")
    assert sorted(new[3]) == ["cd.json", "cd.svg"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_output_exits_2_with_one_line_naming_it(tmp_path):
    """A write to stdout or to --out that fails for want of space exits 2 with one
    error line naming the output, whether the output fits stdout's buffer or not,
    and writes no file."""
    _path_inputs(tmp_path)
    full = os.strerror(errno.ENOSPC)
    cases = [
        (["compare", "--metric", "gap", "--svg", "cd.svg", "agg.csv"], "stdout"),
        (["evaluate", "run.jsonl"], "stdout"),
        (["evaluate", "--format", "json", "run.jsonl", "run.jsonl"], "stdout"),
        (["compare", "--metric", "gap", "--svg", "cd.svg", "--out", "/dev/full", "agg.csv"],
         "/dev/full"),
        (["evaluate", "--out", "/dev/full", "run.jsonl"], "/dev/full"),
    ]
    with open("/dev/full", "wb") as device:
        for argv, output in cases:
            stdout = device if output == "stdout" else subprocess.PIPE
            new, old = _both_ways(argv, tmp_path, stdout=stdout)
            printed = None if output == "stdout" else b""
            assert new == old == (2, printed, f"error: {output}: {full}\n".encode(), {}), argv


def test_a_file_output_that_fails_to_write_leaves_no_file(tmp_path, monkeypatch, capsys):
    """An --out file that cannot be written exits 2 naming it, and the outputs staged
    before it are removed, not moved into place."""
    _path_inputs(tmp_path)
    write_text = Path.write_text

    def short_of_space(path, text, *args, **kwargs):
        if ".cd.svg." in path.name:
            write_text(path, text[:10], *args, **kwargs)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return write_text(path, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", short_of_space)
    monkeypatch.chdir(tmp_path)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(["compare", "--metric", "gap", "--out", "cd.json", "agg.csv"]) == 2
    assert capsys.readouterr() == ("", f"error: cd.svg: {os.strerror(errno.ENOSPC)}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_an_atexit_handler_runs_before_the_output_is_flushed(tmp_path):
    """cli.run runs the handlers a program registered before it ran the module as
    __main__, and flushes what they write."""
    _path_inputs(tmp_path)
    code = (
        "import atexit, runpy, sys\n"
        "atexit.register(print, 'handler ran')\n"
        "sys.argv = ['nhfair', 'select-erm', 'summ.csv']\n"
        "runpy.run_module('nhfair.cli', run_name='__main__')\n"
    )
    child = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_child_env(),
                           capture_output=True, text=True, check=False)
    assert (child.returncode, child.stderr) == (0, "")
    payload, handler = child.stdout.rsplit("}\n", 1)
    assert json.loads(payload + "}")["selected"]
    assert handler == "handler ran\n"


def test_a_profiled_command_writes_its_profile(tmp_path):
    """Under cProfile cli.run exits through sys.exit, so the profiler writes its file."""
    _path_inputs(tmp_path)
    argv = [sys.executable, "-m", "cProfile", "-o", "p.prof", "-m", "nhfair.cli",
            "select-erm", "run.jsonl"]
    child = subprocess.run(argv, cwd=tmp_path, env=_child_env(), capture_output=True,
                           text=True, check=False)
    assert (child.returncode, child.stderr) == (0, "")
    assert json.loads(child.stdout)["selected"]
    functions = pstats.Stats(str(tmp_path / "p.prof")).stats
    assert any(name == "main" and file.endswith("cli.py") for file, _, name in functions)


class _Exited(Exception):
    """Raised in place of ``os._exit``, with its code."""


class _ClosedPipe(io.StringIO):
    def flush(self) -> None:
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize("case", ["plain", "usage-error", "profiled", "threaded", "flush-fails"])
def test_run_ends_with_os_exit_only_where_nothing_else_must_run(tmp_path, monkeypatch, case):
    """cli.run ends with os._exit after the atexit handlers and the flushes; a
    profiler, another thread or a failed flush makes it exit through sys.exit. (This
    process runs numpy's BLAS threads, so whether it runs one thread is set here.)"""
    _path_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    argv = ["nhfair", "select-erm", "summ.csv"]
    if case == "usage-error":
        argv = ["nhfair", "select-erm", "--no-such-flag"]
    monkeypatch.setattr(sys, "argv", argv)
    handlers: list[str] = []
    monkeypatch.setattr(cli.atexit, "_run_exitfuncs", lambda: handlers.append("ran"))

    def exited(code: int) -> None:
        raise _Exited(code)

    monkeypatch.setattr(cli.os, "_exit", exited)
    monkeypatch.setattr(cli, "_single_threaded", lambda: case != "threaded")
    if case == "flush-fails":  # stderr: a command reports a failed stdout itself
        monkeypatch.setattr(sys, "stderr", _ClosedPipe())
    if case == "profiled":
        sys.setprofile(lambda frame, event, arg: None)
    try:
        with pytest.raises((_Exited, SystemExit)) as ended:
            cli.run()
    finally:
        sys.setprofile(None)
    code = 2 if case == "usage-error" else 0
    if case in ("plain", "usage-error"):
        assert (type(ended.value), ended.value.args, handlers) == (_Exited, (code,), ["ran"])
    else:  # sys.exit: the interpreter runs the handlers as it exits
        assert (type(ended.value), ended.value.code) == (SystemExit, code)
        assert handlers == (["ran"] if case == "flush-fails" else [])


def test_a_command_registers_no_atexit_handler(tmp_path):
    """No module a command loads, nhfair's or a dependency's, registers an atexit
    handler: cli.run has none of its own to run."""
    _path_inputs(tmp_path)
    code = (
        "import atexit, sys\n"
        "from nhfair.cli import main\n"
        "before = atexit._ncallbacks()\n"
        "for argv in (['evaluate', 'run.jsonl'], ['select-erm', 'run.jsonl'],\n"
        "             ['compare', '--metric', 'gap', '--out', 'cd.json', 'agg.csv']):\n"
        "    assert main(argv) == 0\n"
        "print(before, atexit._ncallbacks())\n"
    )
    child = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_child_env(),
                           stdout=subprocess.PIPE, text=True, check=False)
    assert child.returncode == 0
    before, after = map(int, child.stdout.split()[-2:])
    assert before == after
    before = atexit._ncallbacks()
    assert main(["compare", "--metric", "gap", str(tmp_path / "agg.csv")]) == 0
    assert atexit._ncallbacks() == before


def test_the_nhfair_script_runs_cli_run():
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    [target] = [line.split("=", 1)[1].strip().strip('"')
                for line in scripts.splitlines() if line.startswith("nhfair ")]
    module, name = target.split(":")
    assert getattr(importlib.import_module(module), name) is cli.run


def test_readme_lists_every_export_under_the_module_that_defines_it():
    """README's Library section lists ``nhfair.__all__``, one bullet per module."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    listing = text.split("`nhfair` exports these names (`nhfair.__all__`)", 1)[1]
    bullets = listing.split("\n\n")[1].replace("\n  ", " ").splitlines()
    listed = []
    for bullet in bullets:
        module, names = bullet.removeprefix("* `nhfair.").split("`: ", 1)
        listed += [(name.strip("`"), module) for name in names.split(", ")]
    assert sorted(listed) == sorted(nhfair._EXPORTS.items())
    assert sorted(name for name, _ in listed) == sorted(nhfair.__all__)
    for name, module in listed:
        assert name in vars(importlib.import_module(f"nhfair.{module}"))


def test_every_export_resolves_to_the_object_its_module_defines():
    for name in nhfair.__all__:
        module = importlib.import_module(f"nhfair.{nhfair._EXPORTS[name]}")
        assert nhfair.__getattr__(name) is getattr(module, name), name
    assert set(nhfair.__all__) <= set(dir(nhfair))


# Runs ``cli.main`` on the argv given as JSON (none: only imports the CLI) in
# a fresh interpreter, then prints the exit code and which heavy modules it loaded
# (dataclasses and inspect are heavy at start-up: no command may load them).
_CHILD = """
import json, sys
from nhfair import cli
argv = json.loads(sys.argv[1])
code = None if argv is None else cli.main(argv)
heavy = ("dataclasses", "inspect", "numpy", "orjson", "nhfair.metrics", "nhfair.records",
         "nhfair.selection", "nhfair.stats", "nhfair.svgplot", "nhfair.synth", "nhfair.tables")
print(json.dumps([code, [name for name in heavy if name in sys.modules]]))
"""

_LOG_CODE = ["nhfair.metrics", "nhfair.records", "nhfair.selection"]
_RANK_CODE = ["nhfair.stats", "nhfair.svgplot", "nhfair.tables"]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (None, []),
        (["compare", "--metric", "gap", "--out", "cd.json", "--svg", "cd.svg", "agg.csv"],
         _RANK_CODE),
        (["compare", "--metric", "gap", "--out", "cd.json", "--svg", "cd.svg", "agg.json"],
         _RANK_CODE),
        (["select-erm", "--out", "erm.json", "summ.csv"], ["nhfair.selection"]),
        (["select-fwh", "--baseline", "r1", "--out", "fwh.json", "summ.csv"],
         ["nhfair.selection"]),
        (["select-erm", "--out", "erm.json", "run.jsonl"], ["orjson", *_LOG_CODE]),
        (["evaluate", "--out", "table.csv", "run.jsonl"],
         ["orjson", *_LOG_CODE, "nhfair.stats", "nhfair.tables"]),
        (["evaluate", "--out", "table.csv", "log.csv"],
         [*_LOG_CODE, "nhfair.stats", "nhfair.tables"]),
        (["evaluate", "--jobs", "2", "--out", "table.csv", "log.csv", "log2.csv"],
         [*_LOG_CODE, "nhfair.stats", "nhfair.tables"]),
    ],
    ids=["import", "compare", "compare-json", "select-erm", "select-fwh", "select-erm-log",
         "evaluate", "evaluate-csv", "evaluate-csv-jobs"],
)
def test_only_commands_that_read_a_log_load_the_log_code(tmp_path, argv, loaded):
    """Each command loads only the modules it runs: only a log loads the run model and
    the log and metric code, only a JSONL log orjson, only a summary table or a log
    selection, only evaluate and compare the rank statistics and the table code, only
    a plot the plot code; none loads numpy, dataclasses or inspect. Logs read by forked
    helpers load no more than logs read serially."""
    _path_inputs(tmp_path)
    write_run(generate(spec_for(1), method="m", dataset="d"), tmp_path / "log.csv")
    write_run(generate(spec_for(2), method="m", dataset="d"), tmp_path / "log2.csv")
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(argv)],
        cwd=tmp_path, env=_child_env(), capture_output=True, text=True, check=False,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == [None if argv is None else 0, loaded], child.stderr
    if argv is not None:
        assert (tmp_path / argv[argv.index("--out") + 1]).stat().st_size > 0


# Runs each argv given as JSON through ``cli.main`` in a fresh interpreter,
# then prints the exit codes and whether numpy was loaded.
_NO_NUMPY_CHILD = """
import json, sys
from nhfair import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, "numpy" in sys.modules]))
"""


def test_log_commands_load_no_numpy(tmp_path):
    """evaluate, select-erm and select-fwh read JSONL and CSV logs, serially and by
    forked helpers, without numpy."""
    data = Path(__file__).parent / "data"
    binary = CohortSpec.load(data / "cohort_binary.json")
    write_run(generate(binary, utility_kind="auc", method="erm"), tmp_path / "erm.jsonl")
    write_run(generate(binary, utility_kind="auc", method="dro"), tmp_path / "dro.csv")
    write_run(generate(CohortSpec.load(data / "cohort_multiclass.json")),
              tmp_path / "multiclass.csv")
    logs = ["erm.jsonl", "dro.csv"]  # selection compares runs of one group space
    baseline = parse_run(tmp_path / "erm.jsonl").manifest.run_id
    argvs = [
        [*command, *jobs, "--out", f"out{i}-{len(jobs)}", *inputs]
        for i, (command, inputs) in enumerate([
            (["evaluate"], [*logs, "multiclass.csv"]),
            (["select-erm"], logs),
            (["select-fwh", "--baseline", baseline], logs),
        ])
        for jobs in ([], ["--jobs", "1"])
    ]
    child = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_CHILD, json.dumps(argvs)],
        cwd=tmp_path, env=_child_env(), capture_output=True, text=True, check=False,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == [[0] * len(argvs), False], child.stderr
    for i in range(3):  # the default --jobs and --jobs 1 write the same bytes
        assert (tmp_path / f"out{i}-0").read_bytes() == (tmp_path / f"out{i}-2").read_bytes()


def test_synth_without_numpy_names_the_extra(tmp_path):
    """numpy is the synth extra: without it, importing the generator fails naming the
    extra, and the commands still run."""
    argv = ["select-erm", "--out", "erm.json", "summ.csv"]
    code = f"""
import sys
sys.modules["numpy"] = None  # import numpy fails, as where it is not installed
from nhfair import cli
assert cli.main({argv!r}) == 0
import nhfair.synth
"""
    _path_inputs(tmp_path)
    child = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_child_env(),
                           capture_output=True, text=True, check=False)
    assert child.returncode == 1, child.stderr
    assert child.stderr.endswith(
        "ImportError: nhfair.synth needs numpy, which the synth extra installs: "
        "pip install 'nhfair[synth]'\n"
    ), child.stderr
    assert (tmp_path / "erm.json").stat().st_size > 0


# The (module, attribute) pairs that the benchmark's tracer replaces with
# timing wrappers (bench/trace.py, setup_targets and command_targets). Each
# must stay an attribute of its module that the commands call through that
# module, or the layer it times reads 0.
_TRACE_SEAMS = [
    ("synth", "generate"), ("records", "write_run"),
    ("cli", "parse_run"), ("cli", "parse_summaries"),
    ("metrics", "metric_report"), ("metrics", "confusion"), ("metrics", "group_auc"),
    ("metrics", "pooled_auc"),
    ("stats", "aggregate"), ("stats", "rank_matrix"), ("stats", "friedman"),
    ("stats", "nemenyi_cd"), ("stats", "mean_ranks"), ("stats", "cliques"),
    ("cli", "rows_to_csv"), ("cli", "rows_to_json"), ("cli", "rows_to_markdown"),
    ("cli", "render_cd_plot"),
    ("selection", "dto_select"), ("selection", "fwh_select"),
]
_TWO_LOGS = {"cli.parse_run": 2, "metrics.metric_report": 2, "metrics.confusion": 2,
             "metrics.group_auc": 2, "metrics.pooled_auc": 2}


@pytest.mark.parametrize(
    "argv, calls",
    [
        (["evaluate", "erm.jsonl", "dro.csv"],
         {**_TWO_LOGS, "stats.aggregate": 1, "cli.rows_to_csv": 1}),
        (["evaluate", "--format", "json", "erm.jsonl", "dro.csv"],
         {**_TWO_LOGS, "stats.aggregate": 1, "cli.rows_to_json": 1}),
        (["evaluate", "--format", "md", "erm.jsonl", "dro.csv"],
         {**_TWO_LOGS, "stats.aggregate": 1, "cli.rows_to_markdown": 1}),
        (["select-erm", "erm.jsonl", "dro.csv"], {**_TWO_LOGS, "selection.dto_select": 1}),
        (["select-fwh", "--baseline", "erm.jsonl", "dro.csv"],
         {**_TWO_LOGS, "selection.fwh_select": 1}),
        (["select-erm", "summ.csv"], {"cli.parse_summaries": 1, "selection.dto_select": 1}),
        (["select-fwh", "--baseline", "r1", "summ.csv"],
         {"cli.parse_summaries": 1, "selection.fwh_select": 1}),
        (["compare", "--metric", "gap", "--svg", "cd.svg", "agg.csv"],
         {"stats.rank_matrix": 1, "stats.friedman": 1, "stats.nemenyi_cd": 1,
          # friedman calls mean_ranks, and the plot cliques, through stats
          "stats.mean_ranks": 2, "stats.cliques": 2, "cli.render_cd_plot": 1}),
    ],
    ids=["evaluate", "evaluate-json", "evaluate-md", "select-erm-logs", "select-fwh-logs",
         "select-erm", "select-fwh", "compare"],
)
def test_commands_call_each_layer_through_the_benchmark_trace_seams(
    tmp_path, monkeypatch, capsys, argv, calls
):
    """Each wrapper the benchmark's tracer puts on a layer runs once per call of that layer."""
    counts: Counter[str] = Counter()
    for module, attr in _TRACE_SEAMS:
        owner = importlib.import_module(f"nhfair.{module}")

        def counted(*args, _name=f"{module}.{attr}", _original=getattr(owner, attr), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    _path_inputs(tmp_path)
    binary = CohortSpec.load(Path(__file__).parent / "data" / "cohort_binary.json")
    for method, name in (("erm", "erm.jsonl"), ("dro", "dro.csv")):
        nhfair.records.write_run(
            nhfair.synth.generate(binary, utility_kind="auc", method=method), tmp_path / name
        )
    assert counts == {"synth.generate": 2, "records.write_run": 2}
    counts.clear()
    monkeypatch.chdir(tmp_path)

    jobs = [] if argv[0] == "compare" else ["--jobs", "1"]
    assert main([*argv, *jobs, "--out", "out"]) == 0, capsys.readouterr().err
    assert counts == calls


# Runs each command given as JSON through ``cli.main`` in this fresh
# interpreter, as the nhfair script does, counting the processes it forks.
# A command may name a sabotage: "helper dies" makes every forked helper exit
# at its first log, "killed at claim" SIGKILLs every helper right after it
# takes its first log index from the claim pipe, "interrupt" raises
# KeyboardInterrupt right after the parent's first read of the claim pipe.
# The parent makes that read however many logs the helpers have claimed
# already, where it may read no log itself: a parent held back after its
# forks finds every index claimed. Prints, per command: exit code,
# stdout, stderr, the --out file's text (None if it was not written), forks,
# and whether a child was left unreaped.
_FORK_CHILD = """
import contextlib, io, json, os, signal, sys
from nhfair import cli
forks, parent, sabotage = [], os.getpid(), None
fork, evaluate_file, read = os.fork, cli._evaluate_file, os.read

def counting_fork():
    forks.append(1)
    return fork()

def sabotaged(path, eqodd="diagonal"):
    if sabotage == "helper dies" and os.getpid() != parent:
        os._exit(1)
    return evaluate_file(path, eqodd)

def sabotaged_read(fd, n):
    data = read(fd, n)
    if sabotage == "killed at claim" and os.getpid() != parent and n == cli._TOKEN:
        os.kill(os.getpid(), signal.SIGKILL)
    if sabotage == "interrupt" and os.getpid() == parent and n == cli._TOKEN:
        raise KeyboardInterrupt
    return data

os.fork, cli._evaluate_file, os.read = counting_fork, sabotaged, sabotaged_read
results = []
for argv, sabotage in json.loads(sys.argv[1]):
    out, err, started = io.StringIO(), io.StringIO(), len(forks)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except KeyboardInterrupt:
            code = "interrupted"
    try:
        os.waitpid(-1, os.WNOHANG)
        unreaped = True
    except ChildProcessError:
        unreaped = False
    target = argv[argv.index("--out") + 1]
    text = None
    if os.path.exists(target):
        with open(target, encoding="utf-8") as handle:
            text = handle.read()
        os.remove(target)
    results.append([code, out.getvalue(), err.getvalue(), text, len(forks) - started, unreaped])
print(json.dumps(results))
"""


def _fork_inputs(directory: Path) -> dict[str, list[str]]:
    """Input lists by case, over logs of unequal sizes and formats."""
    names = []
    for i in range(4):
        spec = dataclasses.replace(spec_for(i), n_per_group={"A": 30 + 70 * i, "B": 60})
        write_run(generate(spec, utility_kind="auc", method=f"m{i % 2}", dataset="demo"),
                  directory / f"l{i}.jsonl")
        names.append(f"l{i}.jsonl")
    # group B holds only positives: AUC falls back to 0.5 with a warning
    write_run(make_run([("pos", "pos", "A", 0.9), ("neg", "neg", "A", 0.2),
                        ("pos", "pos", "B", 0.7), ("pos", "neg", "B", 0.4)],
                       utility_kind="auc", method="single", dataset="demo"),
              directory / "warns.jsonl")
    for name, source, extra in (("bad-first.jsonl", "l0.jsonl", '{"sample_id": \n'),
                                ("bad-last.jsonl", "warns.jsonl", '{"y": "neg"}\n')):
        text = (directory / source).read_text(encoding="utf-8")
        (directory / name).write_text(text + extra, encoding="utf-8")
        (directory / name).with_suffix(".manifest.json").write_text(
            (directory / source).with_suffix(".manifest.json").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
    (directory / "bad-summ.csv").write_text(
        "run_id,method,A,B,overall\nr1,s,0.8,1.5,0.8\n", encoding="utf-8"
    )
    (directory / "base.csv").write_text(
        "run_id,method,A,B,overall\nbase,erm,0.7,0.7,0.7\n", encoding="utf-8"
    )
    # 40 tiny logs, JSONL and CSV in turn, auc and accuracy methods; the
    # faulty copies break logs 7 (CSV), 22 (JSONL) and 39 (CSV)
    tiny = []
    for i in range(40):
        spec = dataclasses.replace(spec_for(100 + i), n_per_group={"A": 6 + i % 5, "B": 8})
        name = f"t{i:02d}.{'csv' if i % 2 else 'jsonl'}"
        write_run(generate(spec, utility_kind="auc" if i % 4 < 2 else "accuracy",
                           method=f"t{i % 4}", dataset="tiny"), directory / name)
        tiny.append(name)
    faulty = [*tiny]
    for i, extra in ((7, '{"y": "neg"}\n'), (22, "z,neg,neg,Q\n"), (39, "z,neg\n")):
        faulty[i] = "bad-" + tiny[i]
        text = (directory / tiny[i]).read_text(encoding="utf-8")
        (directory / faulty[i]).write_text(text + extra, encoding="utf-8")
        (directory / faulty[i]).with_suffix(".manifest.json").write_text(
            (directory / tiny[i]).with_suffix(".manifest.json").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
    return {
        "warning in the last log": [*names, "warns.jsonl"],
        "fault in the last log": [*names, "bad-last.jsonl"],
        "faults in the first and last log": ["bad-first.jsonl", *names[1:], "bad-last.jsonl"],
        "summary fault before a log fault": ["bad-summ.csv", *names[:3], "bad-last.jsonl"],
        "40 tiny mixed logs": tiny,
        "40 tiny mixed logs, three faults": faulty,
    }


def test_forked_log_readers_give_the_serial_bytes_and_are_reaped(tmp_path):
    cases = _fork_inputs(tmp_path)
    commands = {
        "evaluate": ["evaluate", "--out", "out.csv"],
        "select-erm": ["select-erm", "--out", "out.json"],
        "select-fwh": ["select-fwh", "--baseline", "base.csv", "--out", "out.json"],
    }
    jobs = {"default": [], **{j: ["--jobs", j] for j in ("1", "2", "3", "4")}}
    tiny = [case for case in cases if case.startswith("40 tiny")]
    runs = [
        (case, command, j, None)
        for case in cases for command in commands
        for j in (jobs if case in tiny else ("default", "1", "3"))
    ] + [
        (case, command, "3", sabotage)
        for case in ("warning in the last log", *tiny) for command in commands
        for sabotage in ("helper dies", "killed at claim")
    ] + [("warning in the last log", "select-erm", "3", "interrupt")]
    argvs = [
        [[*commands[command][:1], *jobs[j], *commands[command][1:], *cases[case]], sabotage]
        for case, command, j, sabotage in runs
    ]
    child = subprocess.run(
        [sys.executable, "-X", "dev", "-c", _FORK_CHILD, json.dumps(argvs)],
        cwd=tmp_path, env=_child_env(), capture_output=True, text=True, check=False, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    results = dict(zip(runs, json.loads(child.stdout)))
    for (case, command, j, sabotage), (code, out, err, text, forks, unreaped) in results.items():
        assert not unreaped, (case, command, j, sabotage)
        if sabotage == "interrupt":
            assert code == "interrupted" and forks == 2
            continue
        serial = results[(case, command, "1", None)]
        assert [code, out, err, text] == serial[:4], (case, command, j, sabotage)
        n_logs = sum(name.endswith((".jsonl", ".csv")) and "summ" not in name
                     for name in cases[case])
        expected_forks = min(cli.EngineConfig().jobs if j == "default" else int(j), n_logs) - 1
        if command == "evaluate" and case == "summary fault before a log fault":
            expected_forks = 0  # evaluate refuses a summary file before reading any log
        assert forks == expected_forks, (case, command, j, sabotage)

    def first(case, command):
        return results[(case, command, "1", None)]

    for command in commands:
        assert first("warning in the last log", command)[0] == 0
        assert first("40 tiny mixed logs", command)[0] == 0
        assert first("fault in the last log", command)[:3] == [
            2, "", f"error: bad-last.jsonl: line 5: missing field 'sample_id'\n"
        ]
        assert first("faults in the first and last log", command)[2].startswith("error: bad-first.jsonl: ")
        assert first("40 tiny mixed logs, three faults", command)[:3] == [
            2, "", f"error: bad-t07.csv: line 18: expected 4 fields, got 1\n"
        ]
    warning = "warning: warns.jsonl: group B: only one class present, auc set to 0.5"
    assert warning in first("warning in the last log", "select-erm")[2]
    assert first("summary fault before a log fault", "select-fwh")[2].startswith(
        "error: bad-summ.csv: line 2: "
    )


def test_default_jobs_read_serially_where_no_helper_can_be_forked(run_dir, tmp_path,
                                                                   monkeypatch, capsys):
    argvs = [
        ["evaluate", "--out", str(tmp_path / "table.csv")],
        ["select-erm"],
        ["select-fwh", "--baseline", "erm:demo:seed1:test"],
    ]
    logs = sorted(str(p) for p in run_dir.glob("*.jsonl"))

    def outputs(jobs):
        seen = []
        for argv in argvs:
            code = main([*argv, *jobs, *logs])
            seen.append([code, *capsys.readouterr()])
        return seen, (tmp_path / "table.csv").read_bytes()

    serial = outputs(["--jobs", "1"])
    forks = []

    def refused_fork():
        forks.append(1)
        raise OSError(errno.EAGAIN, "fork refused")

    monkeypatch.setattr(os, "fork", refused_fork)
    # a second thread runs: no fork is tried
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert outputs(["--jobs", "3"]) == serial
        assert outputs([]) == serial
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert forks == []
    # one thread, but the fork fails: the command reads the logs itself
    monkeypatch.setattr(cli, "_single_threaded", lambda: True)
    assert outputs(["--jobs", "3"]) == serial
    assert forks


# Claims log indices 0..n-1 with cli's claim pipe and claim loop in this
# fresh interpreter and in forked workers (more than the cores here), with a
# stub report per log that raises at index ``fault``. Prints the bytes left in
# the pipe at the end, then, per process, the indices it reported.
_CLAIM_CHILD = """
import json, os, sys
from nhfair import cli
n, fault, workers = json.loads(sys.argv[1])

def stub(i, eqodd):
    if i == fault:
        raise ValueError(i)
    return i, eqodd

cli._evaluate_file = stub
claims = cli._claim_pipe(n)
pipes = []
for _ in range(workers):
    read_end, write_end = os.pipe()
    pid = os.fork()
    if not pid:
        with open(write_end, "w") as pipe:
            json.dump([i for i, _ in cli._claimed_reports(range(n), claims, "x")], pipe)
        os._exit(0)
    os.close(write_end)
    pipes.append((pid, read_end))
claimed = [[i for i, _ in cli._claimed_reports(range(n), claims, "x")]]
for pid, read_end in pipes:
    with open(read_end) as pipe:
        claimed.append(json.load(pipe))
    os.waitpid(pid, 0)
print(json.dumps([len(os.read(claims, 1 << 16)), *claimed]))
"""


@pytest.mark.parametrize(
    "n, fault, workers",
    [(1, None, 4), (1000, None, 4), (1000, 0, 4), (1000, 500, 4), (1000, 500, 0),
     (100_000, None, 4), (400_000, None, 4), (400_000, 10_000, 4)],
)
def test_claims_hand_out_a_prefix_of_the_logs_once_each_in_order(n, fault, workers):
    child = subprocess.run(
        [sys.executable, "-X", "dev", "-c", _CLAIM_CHILD, json.dumps([n, fault, workers])],
        env=_child_env(), capture_output=True, text=True, check=False, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    left, *claimed = json.loads(child.stdout)
    assert left == 0  # every claim was taken, or drained after the fault
    assert all(c == sorted(c) for c in claimed)  # each process claims in input order
    reported = sorted(i for c in claimed for i in c)
    assert len(set(reported)) == len(reported)  # no log is claimed twice
    if fault is None:
        # every index the pipe held; it holds at least its default 64 KiB of them
        assert reported == list(range(len(reported)))
        assert len(reported) == n or len(reported) >= 65536 // cli._TOKEN
    else:
        # the faulty log is never reported, and every log before it is
        assert fault not in reported
        assert reported[:fault] == list(range(fault))


@pytest.mark.parametrize("command", ["evaluate", "select-erm", "select-fwh"])
def test_jobs_below_1_exits_2(run_dir, capsys, command):
    assert main([command, "--jobs", "0", str(run_dir / "*.jsonl")]) == 2
    assert "jobs must be >= 1, got 0" in capsys.readouterr().err


def _fuzz_seed_files() -> dict[str, bytes]:
    """Valid inputs of every kind, by file name, as bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        run = make_run(
            [("pos", "pos", "A", 0.9), ("neg", "pos", "A", 0.6), ("neg", "neg", "B", 0.2),
             ("pos", "neg", "B", 0.4), ("pos", "pos", "B", 0.7)],
            utility_kind="auc",
        )
        write_run(run, directory / "run.jsonl")
        write_run(run, directory / "log.csv")
        files = {p.name: p.read_bytes() for p in directory.iterdir()}
    files["summ.csv"] = b"run_id,method,a%,b,overall,dp\nr1,m,80,0.9,0.85,0.5\nr2,n,85%,0.88,86%,\n"
    files["agg.csv"] = (
        "method,dataset,n_seeds,split,utility\nerm,d1,2,test,0.86 \u00b1 0.01\n"
        "erm,d2,2,test,0.91\ndro,d1,2,test,0.84\ndro,d2,2,test,0.93 \u00b1 0.02\n"
        "mix,d1,1,,0.8\nmix,d2,1,,0.9\n"
    ).encode("utf-8")
    return files


_FUZZ_FILES = _fuzz_seed_files()
_FUZZ_TARGETS = {  # mutated file: the command that reads it, and the files its errors may name
    "run.jsonl": (["evaluate", "run.jsonl"], ("run.jsonl",)),
    "run.manifest.json": (["evaluate", "run.jsonl"], ("run.manifest.json", "run.jsonl")),
    "log.csv": (["evaluate", "--eqodd", "full", "log.csv"], ("log.csv",)),
    "summ.csv": (["select-erm", "summ.csv"], ("summ.csv",)),
    "agg.csv": (["compare", "--metric", "utility", "agg.csv"], ("agg.csv",)),
}
_TOKENS = [b"\n", b"\r", b'"', b",", b"\xff", b"\x00", b"NaN", b"1e999", b"%"]


@st.composite
def _mutated(draw, data: bytes) -> bytes:
    """``data`` after one to three deletions, copied slices, random bytes or token inserts."""
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["delete", "copy", "random", "token"]))
        if kind == "delete":
            data = data[:at] + data[at + draw(st.integers(1, 8)):]
        elif kind == "copy":
            start = draw(st.integers(0, len(data)))
            data = data[:at] + data[start:start + draw(st.integers(1, 16))] + data[at:]
        elif kind == "random":
            data = data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]
        else:
            data = data[:at] + draw(st.sampled_from(_TOKENS)) + data[at:]
    return data


@given(target=st.sampled_from(sorted(_FUZZ_TARGETS)), data=st.data())
@settings(max_examples=300, deadline=None)
def test_corrupt_input_exits_0_or_2_naming_the_file(target, data):
    argv, named = _FUZZ_TARGETS[target]
    mutated = data.draw(_mutated(_FUZZ_FILES[target]))
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for name, content in _FUZZ_FILES.items():
            (directory / name).write_bytes(mutated if name == target else content)
        out, err = io.StringIO(), io.StringIO()
        args = [str(directory / a) if a in _FUZZ_FILES else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    message = err.getvalue()
    assert code in (0, 2), message
    if code == 2:
        assert any(f"error: {directory / name}: " in message for name in named), message


def _break_path(directory: Path, name: str, kind: str) -> Path:
    """The path, standing for ``directory / name``, of ``kind``.

    A directory in place of the file, a file under a missing directory,
    or a link in place of the file to a missing file beside it.
    """
    path = directory / name
    path.unlink(missing_ok=True)
    if kind == "directory":
        path.mkdir()
    elif kind == "missing parent":
        return directory / "missing" / name
    else:
        path.symlink_to(directory / f"gone-{name}")
    return path


@given(target=st.sampled_from(sorted(_FUZZ_TARGETS)), data=st.data())
@settings(max_examples=100, deadline=None)
def test_path_kind_of_input_or_out_exits_0_or_2_naming_it(target, data):
    argv, named = _FUZZ_TARGETS[target]
    broken = data.draw(st.sampled_from([target, "out.json"]), label="broken")
    kinds = ["directory", "dangling link"]
    if broken != "run.manifest.json":  # found beside its log, so never under another directory
        kinds.append("missing parent")
    kind = data.draw(st.sampled_from(kinds), label="kind")
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for name, content in _FUZZ_FILES.items():
            (directory / name).write_bytes(content)
        paths = {name: directory / name for name in _FUZZ_FILES}
        paths[broken] = _break_path(directory, broken, kind)
        args = [str(paths[a]) if a in paths else a for a in argv]
        if broken == "out.json":
            args[1:1] = ["--out", str(paths[broken])]
            named = ("out.json",)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    message = err.getvalue()
    assert code in (0, 2), message
    if code == 2:
        assert any(str(paths[name]) in message for name in named), message


@pytest.fixture
def gc_restored():
    """Puts back the interpreter's cyclic GC setting after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("outcome", [0, 2, 3, "usage"])
def test_main_pauses_gc_and_leaves_it_as_the_caller_had_it(
    tmp_path, summary_csv, monkeypatch, gc_restored, enabled, outcome
):
    seen = []

    def command(config):
        seen.append(gc.isenabled())
        if outcome == 3:
            raise RuntimeError("boom")
        return cli.cmd_select_erm(config)

    monkeypatch.setitem(cli._COMMANDS, "select-erm", (command, ""))
    argv = {
        0: ["select-erm", str(summary_csv)],
        2: ["select-erm", str(tmp_path / "missing.csv")],
        3: ["select-erm", str(summary_csv)],
        "usage": ["select-erm", "--no-such-flag"],
    }[outcome]
    (gc.enable if enabled else gc.disable)()
    if outcome == "usage":
        with pytest.raises(SystemExit):
            main(argv)
        assert seen == []
    else:
        assert main(argv) == outcome
        assert seen == [False]
    assert gc.isenabled() is enabled


def _logs_taking_every_decode_path(directory: Path, n: int) -> list[str]:
    """``n`` logs: JSONL with blank and whitespace-padded lines, and CSV whose
    first record holds a quoted line break."""
    paths = []
    for i in range(n):
        path = directory / f"m{i % 3}-demo-s{i}.{('jsonl', 'csv')[i % 2]}"
        write_run(generate(spec_for(i), method=f"m{i % 3}", dataset="demo"), path)
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".jsonl":
            lines = text.splitlines()
            text = "\n".join(f"  {line} " if k % 7 == 0 else line for k, line in enumerate(lines))
            text = text.replace("\n", "\n\n \t\n", 3) + "\n"
        else:
            text = text.replace("\nA-000000,", '\n"A-000\n000",', 1)
        path.write_text(text, encoding="utf-8", newline="" if path.suffix == ".csv" else None)
        paths.append(str(path))
    return paths


def test_evaluate_leaves_as_many_reference_cycles_for_20_logs_as_for_2(tmp_path, gc_restored):
    paths = _logs_taking_every_decode_path(tmp_path, 20)
    out = str(tmp_path / "table.csv")

    def cycles_left(logs: list[str]) -> int:
        gc.collect()
        gc.disable()  # main keeps it off; the collection below finds what the command left
        assert main(["evaluate", "--out", out, *logs]) == 0
        return gc.collect()

    cycles_left(paths[:2])  # first use: imports and caches
    assert cycles_left(paths[:2]) == cycles_left(paths)


class TestSelectFromLogs:
    @pytest.fixture
    def logs(self, tmp_path):
        # group B holds only positives, so its AUC falls back to 0.5 with a warning
        single = make_run(
            [("pos", "pos", "A", 0.9), ("neg", "neg", "A", 0.2), ("pos", "pos", "B", 0.7),
             ("pos", "neg", "B", 0.4)],
            utility_kind="auc", method="single", seed=1,
        )
        other = make_run(
            [("pos", "pos", "A", 0.8), ("neg", "neg", "A", 0.3), ("pos", "pos", "B", 0.6),
             ("neg", "pos", "B", 0.7)],
            utility_kind="auc", method="other", seed=2,
        )
        write_run(single, tmp_path / "single.jsonl")
        write_run(other, tmp_path / "other.jsonl")
        return tmp_path / "single.jsonl", tmp_path / "other.jsonl"

    def test_select_erm_forwards_warnings(self, logs, capsys):
        single, other = logs
        assert main(["select-erm", str(single), str(other)]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["candidates"][0]["group_utilities"]["B"] == 0.5
        assert captured.err.splitlines() == [
            f"warning: {single}: group B: only one class present, auc set to 0.5",
            f"warning: {single}: eqodd: class neg skipped (no samples in group(s) B)",
        ]

    def test_select_fwh_forwards_baseline_warnings(self, logs, capsys):
        single, other = logs
        assert main(["select-fwh", "--baseline", str(single), str(other)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["baseline"]["group_utilities"]["B"] == 0.5
        assert f"warning: {single}: group B: only one class present" in captured.err


def test_selection_from_logs_equals_selection_from_their_summary_table(run_dir, tmp_path,
                                                                       capsys):
    logs = sorted(run_dir.glob("*.jsonl"))
    results = [metric_report(parse_run(log)) for log in logs]
    groups = [*results[0].group_utilities]
    lines = [",".join(["run_id", "method", *groups, "overall", "dp", "eqodd"])]
    for r in results:
        cells = [*(r.group_utilities[g] for g in groups), r.overall, r.dp, r.eqodd]
        lines.append(",".join([r.run_id, r.method, *map(repr, cells)]))
    table = tmp_path / "summ.csv"
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    # a summary row is the log's result without the manifest's dataset, seed and split
    assert parse_summaries(table) == [
        r._replace(dataset="", seed=None, split="", warnings=()) for r in results
    ]
    for command in (["select-erm"], ["select-fwh", "--baseline", results[0].run_id]):
        outputs = []
        for inputs in ([str(log) for log in logs], [str(table)]):
            assert main([*command, *inputs]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["select-erm", "select-fwh"])
def test_candidates_of_several_datasets_are_pooled_with_one_warning(tmp_path, capsys, command):
    # a summary row names no dataset, so summary tables never warn
    for method, dataset in (("erm", "isic"), ("dro", "celeba"), ("erm", "celeba"),
                            ("mix", "isic"), ("mix", "celeba")):
        write_run(generate(spec_for(1), method=method, dataset=dataset),
                  tmp_path / f"{method}-{dataset}.jsonl")
    (tmp_path / "summ.csv").write_text(
        "run_id,method,A,B,overall\nr1,erm,0.8,0.7,0.75\nr2,dro,0.78,0.76,0.77\n"
        "r3,mix,0.7,0.7,0.7\n", encoding="utf-8"
    )
    warning = ("warning: candidates span 2 datasets (celeba, isic) and are selected as one "
               "pool; the paper tunes and zones per dataset")
    cases = {  # inputs, baseline run_id, whether they warn
        "two datasets": (["erm-isic", "dro-celeba", "erm-celeba", "mix-isic"],
                         "erm:celeba:seed1:test", True),
        "one dataset": (["dro-celeba", "erm-celeba", "mix-celeba"], "erm:celeba:seed1:test",
                        False),
        "one dataset and a summary table": (["erm-celeba", "mix-celeba", "summ"], "r1", False),
        "a summary table": (["summ"], "r1", False),
    }
    for case, (names, baseline, warns) in cases.items():
        inputs = [str(tmp_path / f"{n}.{'csv' if n == 'summ' else 'jsonl'}") for n in names]
        flags = [] if command == "select-erm" else ["--baseline", baseline]
        assert main([command, *flags, *inputs]) == 0, case
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ([warning] if warns else []), case
        assert json.loads(captured.out)["selected"], case
        if warns:  # the warning goes to stderr, never into the JSON output
            assert main([command, *flags, "--out", str(tmp_path / "out.json"), *inputs]) == 0
            assert (tmp_path / "out.json").read_text(encoding="utf-8") == captured.out
            assert capsys.readouterr().err.splitlines() == [warning]


@pytest.mark.parametrize("kind", ["logs", "summary table", "two tables"])
@pytest.mark.parametrize("command", ["select-erm", "select-fwh"])
def test_repeated_candidate_run_id_exits_2_naming_it(tmp_path, capsys, command, kind):
    if kind == "logs":  # two logs of one manifest identity, in either format
        run_id = "erm:demo:seed1:test"
        for skew, name in ((0.0, "a.jsonl"), (0.05, "b.csv"), (0.1, "c.jsonl")):
            method = "other" if name == "c.jsonl" else "erm"
            write_run(generate(spec_for(1, skew), method=method, dataset="demo"),
                      tmp_path / name)
        inputs = [str(tmp_path / name) for name in ("a.jsonl", "b.csv", "c.jsonl")]
        named = f"{run_id} ({inputs[0]}, {inputs[1]})"
    elif kind == "summary table":
        run_id = "r1"
        table = tmp_path / "summ.csv"
        table.write_text("run_id,method,a,b,overall\nr1,erm,0.8,0.7,0.75\n"
                         "r2,dro,0.78,0.76,0.77\nr1,erm,0.79,0.72,0.76\n", encoding="utf-8")
        inputs = [str(table)]
        named = f"r1 ({table})"
    else:  # each id named once, sorted, with its files in input order
        run_id = "r3"
        inputs = [str(tmp_path / name) for name in ("c2.csv", "base.csv")]
        Path(inputs[0]).write_text("run_id,method,a,b,overall\nr2,dro,0.78,0.76,0.77\n"
                                   "r1,erm,0.8,0.7,0.75\nr3,erm,0.7,0.7,0.7\n", encoding="utf-8")
        Path(inputs[1]).write_text("run_id,method,a,b,overall\nr1,erm,0.8,0.7,0.75\n"
                                   "r2,dro,0.78,0.76,0.77\n", encoding="utf-8")
        named = f"r1 ({inputs[0]}, {inputs[1]}); r2 ({inputs[0]}, {inputs[1]})"
    argv = [command, *inputs] if command == "select-erm" else [
        command, "--baseline", run_id, *inputs]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"error: duplicate candidate run_id(s): {named}"


@pytest.mark.parametrize("fault", ["duplicate seed", "mixed utility kinds"])
def test_row_fault_of_evaluate_names_the_logs_behind_it(tmp_path, capsys, fault):
    # (name, seed, utility kind) in input order; "b" is the log behind the fault with "d"
    kind = "auc" if fault == "mixed utility kinds" else "accuracy"
    logs = [("d", 1, "accuracy"), ("a", 2, "accuracy"), ("c", 3, "accuracy"), ("b", 1, kind)]
    if fault == "mixed utility kinds":
        logs[-1] = ("b", 4, kind)
    for name, seed, utility_kind in logs:
        write_run(generate(spec_for(seed), utility_kind=utility_kind, method="erm",
                           dataset="demo"), tmp_path / f"{name}.jsonl")
    inputs = [str(tmp_path / f"{name}.jsonl") for name, _, _ in logs]
    assert main(["evaluate", *inputs]) == 2
    captured = capsys.readouterr()
    message = ("duplicate seed(s) [1] for method=erm dataset=demo split=test"
               if fault == "duplicate seed" else "mixed utility kinds for method=erm dataset=demo")
    assert captured.out == ""
    assert captured.err == f"error: {message} ({inputs[0]}, {inputs[3]})\n"


class TestSelectErm:
    def test_dto_report(self, summary_csv, capsys):
        assert main(["select-erm", str(summary_csv)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["selected"]["run_id"] == "ra1"
        assert payload["utopia"] == pytest.approx({"disadv": 0.8389, "adv": 0.9069})
        assert len(payload["candidates"]) == 3

    def test_single_candidate(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text(
            "run_id,method,a%,b%,overall%\nr1,erm,80,90,85\n", encoding="utf-8"
        )
        assert main(["select-erm", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["selected"]["distance"] == 0.0

    def test_group_mismatch_exits_2(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("run_id,method,g1%,g2%,overall%\nr1,m,80,90,85\n", encoding="utf-8")
        b = tmp_path / "b.csv"
        b.write_text("run_id,method,gX%,gY%,overall%\nr2,m,80,90,85\n", encoding="utf-8")
        assert main(["select-erm", str(a), str(b)]) == 2

    def test_no_candidates_exits_2(self, tmp_path):
        assert main(["select-erm", str(tmp_path / "missing-*.csv")]) == 2


# A summary table whose rows a corrupted file lost: the header holds them
# after a deleted newline, or an unclosed quote in its last column swallows them.
_ROWLESS_TABLES = {
    "deleted newline": "run_id,method,a,b,overall,dp"
                       "r1,erm,0.8,0.7,0.75,0.5r2,dro,0.78,0.76,0.77,\n",
    "unclosed quote": 'run_id,method,a,b,overall,"dp\n'
                      "r1,erm,0.8,0.7,0.75,0.5\nr2,dro,0.78,0.76,0.77,\n",
    "header only": "run_id,method,a,b,overall\n",
}


@pytest.mark.parametrize("shape", sorted(_ROWLESS_TABLES))
@pytest.mark.parametrize("command", ["select-erm", "select-fwh r1", "select-fwh --baseline FILE"])
def test_summary_table_without_rows_exits_2_naming_it(tmp_path, capsys, shape, command):
    table = tmp_path / "summ.csv"
    table.write_text(_ROWLESS_TABLES[shape], encoding="utf-8")
    other = tmp_path / "cand.csv"
    other.write_text("run_id,method,a,b,overall\nr2,dro,0.78,0.76,0.77\n", encoding="utf-8")
    argv = {
        "select-erm": ["select-erm", str(table)],
        "select-fwh r1": ["select-fwh", "--baseline", "r1", str(table)],
        "select-fwh --baseline FILE": ["select-fwh", "--baseline", str(table), str(other)],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {table}: summary table has a header but no rows\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["select-fwh", "cand.csv"],
         "select-fwh requires --baseline (a file or a candidate run_id)"),
        (["compare", "agg.csv"], "compare requires --metric"),
        (["compare", "--metric", "gap", "agg.csv", "agg2.csv"],
         "compare expects exactly one aggregated table, got 2 input(s)"),
        (["select-fwh", "--baseline", "two.csv", "cand.csv"],
         "two.csv: baseline summary file must contain exactly one row, got 2"),
        (["select-fwh", "--baseline", "r2", "cand.csv"],
         "no candidates left after resolving the baseline"),
    ],
    ids=["select-fwh without baseline", "compare without metric", "compare on two tables",
         "baseline file of two rows", "no candidate but the baseline"],
)
def test_missing_or_surplus_input_exits_2(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    Path("cand.csv").write_text("run_id,method,a,b,overall\nr2,dro,0.78,0.76,0.77\n",
                                encoding="utf-8")
    Path("two.csv").write_text("run_id,method,a,b,overall\nr1,erm,0.8,0.7,0.75\n"
                               "r3,erm,0.7,0.7,0.7\n", encoding="utf-8")
    for name in ("agg.csv", "agg2.csv"):
        Path(name).write_text("method,dataset,gap\nerm,d1,0.1\ndro,d1,0.05\n", encoding="utf-8")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def _log_lines(*records: tuple[str, str, str, str], scores: dict | None = None) -> str:
    fields = ("sample_id", "y", "y_hat", "group")
    extra = {} if scores is None else {"scores": scores}
    return "".join(json.dumps({**dict(zip(fields, r)), **extra}) + "\n" for r in records)


_LOG_LINES = _log_lines(("s1", "pos", "pos", "A"), ("s2", "neg", "neg", "B"),
                        ("s3", "neg", "pos", "B"), ("s4", "neg", "neg", "A"))


def _sidecar(**changes: object) -> str:
    return json.dumps({**json.loads(_LOG_MANIFEST), **changes})


_BAD_SIDECARS = {  # id: sidecar changes, reason
    "repeated labels": ({"labels": ["neg", "neg"]}, "labels must be distinct"),
    "one group": ({"groups": ["A"]}, "group space needs at least 2 groups"),
    "split dev": ({"split": "dev"},
                  "split must be one of ('train', 'validation', 'test'), got 'dev'"),
    "utility_kind f1": ({"utility_kind": "f1"},
                        "utility_kind must be one of ('accuracy', 'auc'), got 'f1'"),
    "auc with three labels": ({"utility_kind": "auc", "labels": ["a", "b", "c"]},
                              "auc runs require a binary label space"),
}
_LOG = {"run.jsonl": _LOG_LINES, "run.manifest.json": _LOG_MANIFEST}


@pytest.mark.parametrize(
    "files, argv, message",
    [
        ({**_LOG, "summ.csv": "run_id,method,a,b,overall\nr1,m,0.8,0.7,0.75\n"},
         ["evaluate", "run.jsonl", "summ.csv"], "summ.csv: evaluate does not read a CSV table"),
        ({"t.json": "[]"}, ["evaluate", "t.json"], "t.json: evaluate does not read a JSON file"),
        ({"t.json": "[]"}, ["select-erm", "t.json"],
         "t.json: select-erm does not read a JSON file"),
        ({"t.md": "| Method |\n|---|\n"}, ["select-erm", "t.md"],
         "t.md: select-erm does not read a Markdown table"),
        ({"erm.json": "{}", "summ.csv": "run_id,method,a,b,overall\nr1,m,0.8,0.7,0.75\n"},
         ["select-fwh", "--baseline", "erm.json", "summ.csv"],
         "erm.json: select-fwh --baseline does not read a JSON file"),
        (_LOG, ["compare", "--metric", "gap", "run.jsonl"],
         "run.jsonl: compare does not read a JSONL log"),
        (_LOG, ["select-erm", "*.json"], "no candidates matched: *.json"),
        ({"auc1.jsonl": _log_lines(("s1", "pos", "pos", "A"), ("s2", "neg", "pos", "B"),
                                   scores={"neg": 0.3, "pos": 0.7}),
          "auc1.manifest.json": _sidecar(utility_kind="auc")},
         ["evaluate", "auc1.jsonl"], "auc1.jsonl: no group contains both classes"),
        ({"empty.csv": ""}, ["select-erm", "empty.csv"],
         "empty.csv: line 1: empty file, expected a header"),
        ({"one.csv": "run_id,method,overall,A\nr1,m,0.8,0.7\n"}, ["select-erm", "one.csv"],
         "one.csv: line 1: header must name at least 2 group columns"),
        ({"long.csv": "x" * 140_000 + ",method,overall,A,B\n"}, ["select-erm", "long.csv"],
         "long.csv: line 1: unreadable CSV record: field larger than field limit (131072)"),
        *(({"m.jsonl": _LOG_LINES, "m.manifest.json": _sidecar(**changes)},
           ["evaluate", "m.jsonl"], f"m.manifest.json: bad manifest: {reason}")
          for changes, reason in _BAD_SIDECARS.values()),
        *(({"bad.csv": "run_id,method,a,b,overall\nr1,m,abc,0.7,0.75\n"},
           [*command, "bad.csv"], "bad.csv: line 2: utility cell 'abc' is not a number")
          for command in (["select-erm"], ["select-fwh", "--baseline", "r1"])),
    ],
    ids=["summary among logs", "evaluate json", "select-erm json", "select-erm markdown",
         "select-erm json baseline", "compare log", "only sidecars matched",
         "auc groups of one class", "empty summary", "one group column", "field past the csv limit",
         *(f"sidecar {name}" for name in _BAD_SIDECARS),
         "summary cell abc select-erm", "summary cell abc select-fwh"],
)
def test_input_fault_exits_2_with_its_whole_message(tmp_path, capsys, monkeypatch, files, argv,
                                                    message):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        Path(name).write_text(text, encoding="utf-8")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


# Every kind of file nhfair writes, each with the kind it is read as.
_WRITTEN = {
    "erm-d1.jsonl": "a JSONL log", "erm-d1.manifest.json": "a manifest sidecar",
    "dro-d1.csv": "a CSV log", "dro-d1.manifest.json": "a manifest sidecar",
    "table.csv": "a CSV table", "table.json": "a JSON file", "table.md": "a Markdown table",
    "select-erm.json": "a JSON file", "select-fwh.json": "a JSON file",
    "cd.json": "a JSON file", "cd.svg": "an SVG plot",
}
# Each command role, as an argv with the file's place in it.
_ROLES = {
    "evaluate": ["evaluate", "--jobs", "1", "{}"],
    "select-erm": ["select-erm", "--jobs", "1", "{}"],
    "select-fwh": ["select-fwh", "--jobs", "1", "--baseline", "base.csv", "{}"],
    "select-fwh --baseline": ["select-fwh", "--jobs", "1", "--baseline", "{}",
                              "erm-d2.jsonl", "dro-d2.csv"],
    "compare": ["compare", "--metric", "gap", "{}"],
}
_SUMMARY_HEADER = "line 1: header must contain run_id, method and overall columns"
_SIDECARS = ("erm-d1.manifest.json", "dro-d1.manifest.json")
# The (role, file) pairs that are not refused: exit 0, or the error read from a
# file of a kind the role reads but of other content. A sidecar among the
# inputs is left out, since it is read with its log.
_NOT_REFUSED = {
    **{(role, log): 0 for role in _ROLES if role != "compare"
       for log in ("erm-d1.jsonl", "dro-d1.csv")},
    **{(role, "table.csv"): f"table.csv: {_SUMMARY_HEADER}"
       for role in ("select-erm", "select-fwh", "select-fwh --baseline")},
    ("compare", "table.csv"): 0,
    ("compare", "table.json"): 0,
    **{("compare", name): f"{name}: expected a JSON array of table rows"
       for name in ("select-erm.json", "select-fwh.json", "cd.json")},
    **{("evaluate", name): f"no runs matched: {name}" for name in _SIDECARS},
    **{("select-erm", name): f"no candidates matched: {name}" for name in _SIDECARS},
    **{("select-fwh", name): "no candidates left after resolving the baseline"
       for name in _SIDECARS},
    **{("compare", name): "compare expects exactly one aggregated table, got 0 input(s)"
       for name in _SIDECARS},
}


@pytest.fixture(scope="module")
def written_files(tmp_path_factory):
    """A directory of every kind of file nhfair writes, and the inputs they came from."""
    directory = tmp_path_factory.mktemp("written")
    for method, suffix in (("erm", "jsonl"), ("dro", "csv")):
        for dataset in ("d1", "d2"):
            write_run(generate(spec_for(1), method=method, dataset=dataset),
                      directory / f"{method}-{dataset}.{suffix}")
    (directory / "base.csv").write_text("run_id,method,A,B,overall\nbase,erm,0.8,0.7,0.75\n",
                                        encoding="utf-8")
    logs = [str(directory / name) for name in ("erm-d1.jsonl", "dro-d1.csv", "erm-d2.jsonl",
                                               "dro-d2.csv")]
    for argv in (
        *(["evaluate", "--format", f, "--out", str(directory / f"table.{f}"), *logs]
          for f in ("csv", "json", "md")),
        ["select-erm", "--out", str(directory / "select-erm.json"), *logs[:2]],
        ["select-fwh", "--baseline", str(directory / "base.csv"),
         "--out", str(directory / "select-fwh.json"), *logs[:2]],
        ["compare", "--metric", "gap", "--out", str(directory / "cd.json"),
         str(directory / "table.csv")],
    ):
        assert main(argv) == 0
    assert {p.name for p in directory.iterdir()} >= set(_WRITTEN)
    return directory


@pytest.mark.parametrize("name", _WRITTEN)
@pytest.mark.parametrize("role", _ROLES)
def test_every_file_nhfair_writes_is_read_or_refused_by_every_command_role(
    written_files, capsys, monkeypatch, role, name
):
    """Each pair is read (exit 0) or exits 2 with one whole line: the refusal of a kind
    that the role does not read, or the error of a file of a kind it reads."""
    monkeypatch.chdir(written_files)
    code = main([name if arg == "{}" else arg for arg in _ROLES[role]])
    err = capsys.readouterr().err
    expected = _NOT_REFUSED.get((role, name), f"{name}: {role} does not read {_WRITTEN[name]}")
    if expected == 0:
        assert (code, err) == (0, "")
    else:
        assert (code, err) == (2, f"error: {expected}\n")
    if name.endswith((".json", ".md", ".svg")):  # never a message about CSV columns
        assert "header" not in err and "column" not in err


def test_a_log_and_its_sidecar_are_stat_ed_once_a_csv_log_and_its_sidecar_twice(
    tmp_path, monkeypatch, capsys
):
    """inputs.kind stats a log once, and a CSV log's sidecar once; no reader stats again.
    An existing --out file is stat-ed once, by the output check: the writer takes its
    permission bits from the lstat that tells whether it may be replaced."""
    for method, name in (("erm", "erm.jsonl"), ("dro", "dro.csv")):
        write_run(generate(spec_for(1), method=method, dataset="d"), tmp_path / name)
    (tmp_path / "t.csv").write_text("old", encoding="utf-8")
    (tmp_path / "t.csv").chmod(0o640)
    monkeypatch.chdir(tmp_path)
    counts: Counter[str] = Counter()
    real_stat = os.stat

    def counted(path, *args, **kwargs):
        counts[os.fspath(path)] += 1
        return real_stat(path, *args, **kwargs)

    monkeypatch.setattr(os, "stat", counted)
    argv = ["evaluate", "--jobs", "1", "--out", "t.csv", "erm.jsonl", "dro.csv"]
    assert main(argv) == 0, capsys.readouterr()
    monkeypatch.setattr(os, "stat", real_stat)
    assert 0 < counts["erm.jsonl"] + counts["erm.manifest.json"] <= 1
    assert 0 < counts["dro.csv"] + counts["dro.manifest.json"] <= 2
    assert counts["t.csv"] == 1
    assert (tmp_path / "t.csv").read_text(encoding="utf-8").startswith("method,dataset,")
    assert stat.S_IMODE((tmp_path / "t.csv").stat().st_mode) == 0o640


def test_a_log_name_that_is_no_glob_of_itself_is_read_as_a_literal_path(tmp_path, capsys,
                                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    for stem in ("r[1]", "run"):  # the pattern r[1].jsonl matches only r1.jsonl
        Path(f"{stem}.jsonl").write_text(_LOG_LINES, encoding="utf-8")
        Path(f"{stem}.manifest.json").write_text(_LOG_MANIFEST, encoding="utf-8")
    outputs = []
    for log in ("r[1].jsonl", "run.jsonl"):
        assert main(["evaluate", log]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].err == "" and outputs[0].out.startswith("method,dataset,")


class TestSelectFwh:
    def test_baseline_by_run_id(self, summary_csv, capsys):
        assert main(["select-fwh", "--baseline", "erm1", str(summary_csv)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["baseline"]["run_id"] == "erm1"
        assert payload["zones"]["ra1"] == "Optimal"
        assert payload["selected"]["run_id"] == "ra1"
        assert payload["tally_string"].count("|") == 3

    def test_baseline_by_file(self, tmp_path, summary_csv, capsys):
        base = tmp_path / "base.csv"
        base.write_text(
            "run_id,method,disadv%,adv%,overall%\nerm0,erm,83.76,90.52,86.57\n",
            encoding="utf-8",
        )
        assert main(["select-fwh", "--baseline", str(base), str(summary_csv)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["zones"]) == 3  # baseline not excluded when external

    def test_baseline_file_row_leaves_the_candidates_as_a_run_id_does(self, tmp_path, capsys):
        base, cand = tmp_path / "base.csv", tmp_path / "cand.csv"
        base.write_text("run_id,method,a,b,overall\nr1,erm,0.8,0.7,0.75\n", encoding="utf-8")
        cand.write_text("run_id,method,a,b,overall\nr1,erm,0.8,0.7,0.75\n"
                        "r2,dro,0.78,0.76,0.77\n", encoding="utf-8")
        payloads = []
        for spec in (str(base), "r1"):
            assert main(["select-fwh", "--baseline", spec, str(cand)]) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        for payload in payloads:
            assert payload["zones"] == {"r2": "SubOptimal"}
            assert payload["selected"]["run_id"] == "r2"
        assert payloads[0]["baseline"]["origin"] == f"file {base}"
        assert {**payloads[0], "baseline": None} == {**payloads[1], "baseline": None}

    def test_all_unwanted_warns_but_exits_0(self, tmp_path, capsys):
        path = tmp_path / "cand.csv"
        path.write_text(
            "run_id,method,disadv%,adv%,overall%\n"
            "base,erm,70,90,80\n"
            "u1,m,65,95,80\n",
            encoding="utf-8",
        )
        code = main(["select-fwh", "--baseline", "base", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["selected"] is None
        assert payload["tally_string"] == "0|0|0|1"
        assert "Unwanted" in captured.err

    def test_tolerance_flips_boundary_zone(self, tmp_path, capsys):
        path = tmp_path / "cand.csv"
        path.write_text(
            "run_id,method,disadv%,adv%,overall%\n"
            "base,erm,70,90,80\n"
            "edge,m,71,89.6,80.3\n",
            encoding="utf-8",
        )
        assert main(["select-fwh", "--baseline", "base", str(path)]) == 0
        strict = json.loads(capsys.readouterr().out)
        assert strict["zones"]["edge"] == "SubOptimal"
        assert main(
            ["select-fwh", "--baseline", "base", "--tolerance", "0.005", str(path)]
        ) == 0
        relaxed = json.loads(capsys.readouterr().out)
        assert relaxed["zones"]["edge"] == "Optimal"

    def test_missing_baseline_exits_2(self, summary_csv):
        assert main(["select-fwh", "--baseline", "ghost", str(summary_csv)]) == 2


AGG = (
    "method,dataset,n_seeds,utility,worst,gap,eqodd,dp\n"
    "erm,d1,5,86.57 ± 0.18,83.76,6.76,81.91,67.20\n"
    "erm,d2,5,92.75,91.78,2.26,97.62,94.55\n"
    "erm,d3,5,66.76,66.34,0.87,96.22,97.61\n"
    "erm,d4,5,67.55,64.25,4.31,96.47,95.40\n"
    "randaug,d1,5,86.72,83.89,6.80,81.73,67.37\n"
    "randaug,d2,5,93.19,92.19,2.34,97.62,94.83\n"
    "randaug,d3,5,68.37,67.69,1.44,96.14,97.55\n"
    "randaug,d4,5,67.83,64.94,3.78,96.68,95.91\n"
    "gapreg,d1,5,85.62,83.17,5.90,93.94,75.91\n"
    "gapreg,d2,5,92.53,91.70,1.91,98.10,95.30\n"
    "gapreg,d3,5,65.02,64.12,1.92,96.15,97.51\n"
    "gapreg,d4,5,67.01,62.22,6.26,98.92,98.73\n"
)


class TestCompare:
    def test_full_report(self, tmp_path, capsys):
        table = tmp_path / "agg.csv"
        table.write_text(AGG, encoding="utf-8")
        assert main(["compare", "--metric", "gap", str(table)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 3 and payload["n_datasets"] == 4
        assert payload["direction"] == "lower_better"
        assert payload["df"] == 2
        assert payload["cd"] == pytest.approx(1.657, abs=1e-3)
        assert set(payload["mean_ranks"]) == {"erm", "randaug", "gapreg"}

    def test_svg_artifacts(self, tmp_path):
        table = tmp_path / "agg.csv"
        table.write_text(AGG, encoding="utf-8")
        out = tmp_path / "cd.json"
        svg = tmp_path / "cd.svg"
        assert main(
            ["compare", "--metric", "gap", "--out", str(out), "--svg", str(svg), str(table)]
        ) == 0
        text = svg.read_text(encoding="utf-8")
        assert text.startswith("<svg")
        assert 'width="800"' in text and 'height="132"' in text
        for name in ("erm", "randaug", "gapreg"):
            assert name in text
        assert "CD = " in text

    def test_svg_derived_from_out(self, tmp_path):
        table = tmp_path / "agg.csv"
        table.write_text(AGG, encoding="utf-8")
        out = tmp_path / "cd.json"
        assert main(["compare", "--metric", "gap", "--out", str(out), str(table)]) == 0
        assert (tmp_path / "cd.svg").exists()

    @pytest.mark.parametrize("table", ["agg.csv", "missing.csv"])
    @pytest.mark.parametrize("svg", [None, "cd.json", "sub/../cd.json", "link.json"])
    def test_svg_that_is_the_out_file_exits_2_before_the_table_is_read(self, tmp_path, capsys,
                                                                       svg, table):
        (tmp_path / "agg.csv").write_text(AGG, encoding="utf-8")
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.json").symlink_to(tmp_path / "cd.json")
        out = tmp_path / ("cd.svg" if svg is None else "cd.json")
        svg_flag = [] if svg is None else ["--svg", str(tmp_path / svg)]
        argv = ["compare", "--metric", "gap", "--out", str(out), *svg_flag,
                str(tmp_path / table)]
        assert main(argv) == 2
        named = out if svg is None else tmp_path / svg
        message = "the SVG plot would replace the JSON result; give --svg another path"
        assert capsys.readouterr().err == f"error: {named}: {message}\n"
        assert not out.exists()

    def test_missing_cell_exits_2(self, tmp_path, capsys):
        table = tmp_path / "agg.csv"
        table.write_text(
            "method,dataset,n_seeds,gap\nerm,d1,5,1.0\nerm,d2,5,2.0\noxonfair,d1,5,1.5\n",
            encoding="utf-8",
        )
        assert main(["compare", "--metric", "gap", str(table)]) == 2
        assert "oxonfair" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, fault",
        [
            ("erm,d1,1.0\nerm,d1,2.0\ndro,d1,1.5\n", "duplicate cell for method=erm dataset=d1"),
            ("erm,d1,1.0\nerm,d2,2.0\ndro,d1,1.5\n", "method 'dro' has no cell for dataset 'd2'"),
            ("erm,d1,1.0\nerm,d2,2.0\n", "need at least 2 methods and 1 dataset"),
            ("erm,d1,1.0\ndro,d1,2.0\n", "need k >= 2 and N >= 2, got k=2, N=1"),
            ("".join(f"m{i},d{j},{i}\n" for i in range(21) for j in (1, 2)),
             "k must be in [2, 20], got 21"),
        ],
        ids=["duplicate cell", "missing cell", "one method", "one dataset", "21 methods"],
    )
    def test_table_errors_name_the_table(self, tmp_path, capsys, rows, fault):
        table = tmp_path / "agg.csv"
        table.write_text("method,dataset,gap\n" + rows, encoding="utf-8")
        assert main(["compare", "--metric", "gap", str(table)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {table}: {fault}")

    @pytest.mark.parametrize(
        "row, fault",
        [
            ('erm,"v2",d2,5,2.0\n', "fields"),
            ("erm,d2,five,2.0\n", "n_seeds"),
            ("erm,d2,0,2.0\n", "bad n_seeds cell '0'"),
            ("erm,d2,-3,2.0\n", "bad n_seeds cell '-3'"),
            ("erm,d2,5,nan\n", "bad gap cell 'nan'"),
            ("erm,d2,5,inf\n", "bad gap cell 'inf'"),
            ("erm,d2,5,1e999\n", "bad gap cell '1e999'"),
            ("erm,d2,5,2.0 ± nan\n", "bad gap cell '2.0 ± nan'"),
            ("erm,d2,5,0.9 ± -0.5\n", "bad gap cell '0.9 ± -0.5'"),
        ],
    )
    def test_malformed_row_exits_2_with_line(self, tmp_path, capsys, row, fault):
        table = tmp_path / "agg.csv"
        table.write_text("method,dataset,n_seeds,gap\nerm,d1,5,1.0\n" + row, encoding="utf-8")
        assert main(["compare", "--metric", "gap", str(table)]) == 2
        err = capsys.readouterr().err
        assert f"{table}: line 3: " in err and fault in err

    def test_deterministic_outputs(self, tmp_path):
        table = tmp_path / "agg.csv"
        table.write_text(AGG, encoding="utf-8")
        pairs = []
        for tag in ("x", "y"):
            out = tmp_path / f"{tag}.json"
            svg = tmp_path / f"{tag}.svg"
            assert main(
                ["compare", "--metric", "worst", "--out", str(out), "--svg", str(svg), str(table)]
            ) == 0
            pairs.append((out.read_bytes(), svg.read_bytes()))
        assert pairs[0] == pairs[1]



def _agg_json() -> str:
    """The rows of AGG as ``evaluate --format json`` writes them."""
    header, *lines = AGG.splitlines()
    rows = []
    for line in lines:
        cells = dict(zip(header.split(","), line.split(",")))
        rows.append({
            "method": cells["method"], "dataset": cells["dataset"], "split": "test",
            "utility_kind": "accuracy", "n_seeds": int(cells["n_seeds"]),
            "metrics": {name: dict(zip(("mean", "std"), parse_mean_std(cells[name])))
                        for name in METRIC_NAMES},
            "warnings": [],
        })
    return json.dumps(rows, indent=2) + "\n"


_ROW = '{"method": "m", "dataset": "d", "split": "", "n_seeds": 1, "metrics": {"gap": %s}}'
_BAD_JSON = {  # id: (table text, start of the message after the path)
    "csv": ("method,dataset,gap\n", "not valid JSON: Expecting value: line 1 column 1"),
    "deep": ("[" * 100_000, "not valid JSON: nested deeper than 100 levels"),
    "long integer": ("[1" + "0" * 5000 + "]", "not valid JSON: "),
    "object": ('{"rows": []}', "expected a JSON array of table rows"),
    "number row": ("[1]", "row 1: expected a JSON object, got 1"),
    "no method": ('[{"dataset": "d", "split": "", "n_seeds": 1}]',
                  "row 1: method must be a JSON string"),
    "number method": ('[{"method": 1, "dataset": "d", "split": ""}]',
                      "row 1: method must be a JSON string"),
    "no split": ('[{"method": "m", "dataset": "d", "n_seeds": 1}]',
                 "row 1: split must be a JSON string"),
    **{f"n_seeds {value}": (
        '[{"method": "m", "dataset": "d", "split": "", "n_seeds": %s}]' % value,
        f"row 1: n_seeds must be a JSON integer of at least 1, got {shown}",
    ) for value, shown in (("true", True), ("0", 0), ("2.0", 2.0), ('"3"', "'3'"))},
    "no metrics": ('[{"method": "m", "dataset": "d", "split": "", "n_seeds": 1}]',
                   "row 1: metrics.gap must be a JSON object, got None"),
    "other metric": (f"[{_ROW.replace('gap', 'utility') % '{}'}]",
                     "row 1: metrics.gap must be a JSON object, got None"),
    **{f"cell {name}": (f"[{_ROW % cell}]", "row 1: metrics.gap must hold a finite mean")
       for name, cell in (
           ("no std", '{"mean": 0.1}'),
           ("NaN", '{"mean": NaN, "std": 0}'),
           ("negative std", '{"mean": 0.1, "std": -0.5}'),
           ("1e999", '{"mean": 1e999, "std": 0}'),
           ("string", '{"mean": "0.1", "std": 0}'),
           ("bool", '{"mean": true, "std": 0}'),
           ("Infinity std", '{"mean": 0.1, "std": Infinity}'),
           ("400-digit mean", '{"mean": 1' + "0" * 400 + ', "std": 0}'),
       )},
}


class TestCompareJson:
    @pytest.mark.parametrize("metric", METRIC_NAMES)
    @pytest.mark.parametrize("name", ["agg.json", "AGG.JSON"])
    def test_json_table_gives_what_the_csv_table_gives(self, tmp_path, metric, name):
        (tmp_path / "agg.csv").write_text(AGG, encoding="utf-8")
        (tmp_path / name).write_text(_agg_json(), encoding="utf-8")
        outputs = []
        for table in ("agg.csv", name):
            out, svg = tmp_path / f"{table}.out.json", tmp_path / f"{table}.svg"
            argv = ["compare", "--metric", metric, "--out", str(out), "--svg", str(svg)]
            assert main([*argv, str(tmp_path / table)]) == 0
            outputs.append((out.read_bytes(), svg.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("text, fault", _BAD_JSON.values(), ids=_BAD_JSON)
    def test_bad_json_table_exits_2_naming_it(self, tmp_path, capsys, text, fault):
        good = json.loads(_agg_json())[0]
        table = tmp_path / "agg.json"
        table.write_text(text, encoding="utf-8")
        assert main(["compare", "--metric", "gap", str(table)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {table}: {fault}")
        # the same fault in a later row names that row
        if fault.startswith("row 1: "):
            table.write_text(json.dumps([good, *json.loads(text)]), encoding="utf-8")
            assert main(["compare", "--metric", "gap", str(table)]) == 2
            assert capsys.readouterr().err.startswith(f"error: {table}: row 2: {fault[7:]}")

    def test_json_that_is_not_utf8_exits_2_naming_it(self, tmp_path, capsys):
        table = tmp_path / "agg.json"
        table.write_bytes(b'[{"method": "\xff"}]')
        assert main(["compare", "--metric", "gap", str(table)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {table}: ")


@given(
    n_methods=st.integers(2, 3),
    n_datasets=st.integers(2, 3),
    n_seeds=st.integers(1, 2),
    skews=st.lists(st.sampled_from([0.0, 0.05, 0.1]), min_size=9, max_size=9),
    first_seed=st.integers(0, 100),
    metric=st.sampled_from([name for name in METRIC_NAMES if name != "gap"]),
)
@settings(max_examples=15, deadline=None)
def test_compare_on_evaluate_json_ranks_the_aggregated_rows(
    n_methods, n_datasets, n_seeds, skews, first_seed, metric
):
    """compare on evaluate's JSON, for gap (lower is better) and a higher-is-better metric,
    is the rank statistics of ``stats.aggregate`` over the runs held in memory."""
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        results = []
        for i in range(n_methods):
            for j in range(n_datasets):
                for seed in range(first_seed, first_seed + n_seeds):
                    run = generate(spec_for(seed, skews[3 * i + j]), method=f"m{i}",
                                   dataset=f"d{j}")
                    write_run(run, directory / f"m{i}-d{j}-s{seed}.jsonl")
                    results.append(metric_report(run))
        rows = stats.aggregate(results)
        table, out = directory / "table.json", directory / "cd.json"
        assert main(["evaluate", "--jobs", "1", "--format", "json", "--out", str(table),
                     str(directory / "*.jsonl")]) == 0
        for name in ("gap", metric):
            assert main(["compare", "--metric", name, "--out", str(out), str(table)]) == 0
            matrix = stats.rank_matrix(rows, name)
            statistic, df = stats.friedman(matrix)
            cd = stats.nemenyi_cd(matrix.k, matrix.n_blocks)
            ranks = stats.mean_ranks(matrix)
            expected = {
                "metric": name,
                "direction": matrix.direction,
                "k": n_methods,
                "n_datasets": n_datasets,
                "alpha": 0.05,
                "friedman_statistic": statistic,
                "df": df,
                "cd": cd,
                "mean_ranks": {m: ranks[m] for m in sorted(ranks, key=lambda n: (ranks[n], n))},
                "cliques": [list(c) for c in stats.cliques(ranks, cd)],
            }
            assert out.read_text(encoding="utf-8") == json.dumps(expected, indent=2) + "\n"


class TestConfig:
    def test_config_file_and_cli_override(self, tmp_path, summary_csv, capsys):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("tolerance = 0.5\n# comment\nunits = percent\n", encoding="utf-8")
        assert main(
            ["select-fwh", "--config", str(cfg), "--baseline", "erm1", str(summary_csv)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tolerance"] == 0.5  # from file
        assert main(
            [
                "select-fwh", "--config", str(cfg), "--tolerance", "0.1",
                "--baseline", "erm1", str(summary_csv),
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tolerance"] == 0.1  # CLI wins

    def test_env_var_fallback(self, tmp_path, summary_csv, capsys, monkeypatch):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("tolerance = 0.25\n", encoding="utf-8")
        monkeypatch.setenv("NHFAIR_CONFIG", str(cfg))
        assert main(["select-fwh", "--baseline", "erm1", str(summary_csv)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tolerance"] == 0.25

    def test_bad_config_exits_2(self, tmp_path, summary_csv, capsys):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("tolerance = -1\n", encoding="utf-8")
        assert main(["select-erm", "--config", str(cfg), str(summary_csv)]) == 2

    def test_keys_of_other_commands_are_ignored(self, tmp_path, summary_csv, capsys):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("eqodd = full\nmetric = gap\nformat = md\n", encoding="utf-8")
        assert main(["select-erm", "--config", str(cfg), str(summary_csv)]) == 0
        assert json.loads(capsys.readouterr().out)["selected"]["run_id"] == "ra1"

    @pytest.mark.parametrize(
        "text, line",
        [
            *((f"# a{c}b\nmade_up = 1\n", 2)
              for c in ("\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")),
            ("# a\r\nmade_up = 1\r\n", 2),
            ("# a\r\rmade_up = 1", 3),
        ],
        ids=["form-feed", "vertical-tab", "x1c", "x1d", "x1e", "x85", "u2028", "u2029", "crlf",
             "lone-cr"],
    )
    def test_lines_end_only_at_newline_and_carriage_return(self, tmp_path, summary_csv, capsys,
                                                            text, line):
        cfg = tmp_path / "engine.cfg"
        cfg.write_bytes(text.encode("utf-8"))
        assert main(["select-erm", "--config", str(cfg), str(summary_csv)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: line {line}: unknown key 'made_up'\n"

    def test_form_feed_in_a_comment_leaves_the_next_line_a_key(self, tmp_path, summary_csv,
                                                              capsys):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("# a\fb\ntolerance = -1\n", encoding="utf-8")
        assert main(["select-fwh", "--config", str(cfg), "--baseline", "erm1",
                     str(summary_csv)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: line 2: key 'tolerance': must be >= 0, got -1.0\n"
        )

    def test_unknown_key_exits_2(self, tmp_path, summary_csv):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("made_up = 1\n", encoding="utf-8")
        assert main(["select-erm", "--config", str(cfg), str(summary_csv)]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("jobs = x\n", "{cfg}: line 1: key 'jobs': bad value 'x'"),
            ("# a\ntie_corrected = maybe\n",
             "{cfg}: line 2: key 'tie_corrected': bad value 'maybe'"),
            ("tolerance = 0.1\njobs\n", "{cfg}: line 2: expected key = value"),
            (None, "config file not found: {cfg}"),
            ("", "{cfg}: is a directory, expected a file"),
            ("units = percent\nformat = xml\n",
             "{cfg}: line 2: key 'format': must be one of ('csv', 'json', 'md'), got 'xml'"),
            ("# a\ntolerance = -1\n", "{cfg}: line 2: key 'tolerance': must be >= 0, got -1.0"),
            ("alpha = 0.2\n", "{cfg}: line 1: key 'alpha': must be 0.05 or 0.10, got 0.2"),
            ("jobs = 0\n", "{cfg}: line 1: key 'jobs': must be >= 1, got 0"),
        ],
        ids=["bad-integer", "bad-boolean", "no-equals", "missing", "directory", "bad-choice",
             "bad-tolerance", "bad-alpha", "bad-jobs"],
    )
    def test_config_file_errors_name_the_file(self, tmp_path, summary_csv, capsys, text,
                                               message):
        cfg = tmp_path / "engine.cfg"
        if text == "":
            cfg.mkdir()
        elif text is not None:
            cfg.write_text(text, encoding="utf-8")
        assert main(["select-erm", "--config", str(cfg), str(summary_csv)]) == 2
        assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"

    def test_a_bad_file_value_fails_also_where_a_flag_overrides_it(self, tmp_path, summary_csv,
                                                                    capsys):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("tolerance = -1\n", encoding="utf-8")
        assert main(["select-fwh", "--config", str(cfg), "--tolerance", "0.1",
                     "--baseline", "erm1", str(summary_csv)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: line 1: key 'tolerance': must be >= 0, got -1.0\n"
        )

    @pytest.mark.parametrize("text, value", [("TRUE", True), ("1", True), ("False", False),
                                             ("0", False)])
    def test_config_booleans(self, tmp_path, text, value):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text(f"tie_corrected = {text}\n", encoding="utf-8")
        assert build_config({"config": str(cfg)}, []).tie_corrected is value

    def test_engine_config_holds_each_option_default(self):
        config = EngineConfig()
        assert {option.name: getattr(config, option.name) for option in OPTIONS} == {
            option.name: option.default for option in OPTIONS
        }
        assert config.inputs == []
        assert EngineConfig(alpha=0.1, inputs=["a.csv"]).alpha == 0.1
        with pytest.raises(TypeError, match="unexpected keyword argument 'alhpa'"):
            EngineConfig(alhpa=0.1)


class TestFlags:
    def test_each_option_is_a_flag_of_exactly_its_commands(self, capsys):
        parser = build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        for option in OPTIONS:
            flag = "--" + option.name.replace("_", "-")
            if isinstance(option.default, bool):
                args = [flag]
            else:
                args = [flag, (option.choices or ("1",))[0]]
            commands = option.commands or tuple(sub.choices)
            for command in sub.choices:
                if command in commands:
                    namespace = parser.parse_args([command, *args])
                    assert getattr(namespace, option.name) is not None, (command, flag)
                else:
                    with pytest.raises(SystemExit) as caught:
                        parser.parse_args([command, *args])
                    assert caught.value.code == 2, (command, flag)
                    assert "unrecognized arguments" in capsys.readouterr().err

    def test_flag_count_and_help(self, capsys):
        parser = build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        flags = {
            command: sorted(
                s for a in p._actions for s in a.option_strings if s.startswith("--")
                and s != "--help"
            )
            for command, p in sub.choices.items()
        }
        assert sum(len(f) for f in flags.values()) == 20
        assert flags["select-erm"] == ["--config", "--jobs", "--out"]
        assert flags["select-fwh"] == ["--baseline", "--config", "--jobs", "--out", "--tolerance"]
        with pytest.raises(SystemExit):
            main(["evaluate", "--help"])
        out = capsys.readouterr().out
        assert "--eqodd" in out and "--jobs" in out and "--tolerance" not in out
