"""Parsing, validation, and round-trip stability of the record model."""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import math
import os
import reprlib
import subprocess
import sys
import tempfile
import weakref
from array import array
from collections.abc import Sequence
from itertools import accumulate
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_run
from nhfair import inputs, records, tables
from nhfair.cli import main
from nhfair.errors import (
    DuplicateSampleId,
    EmptyGroup,
    MalformedLine,
    MalformedRow,
    MissingScores,
    ParseError,
    UnknownGroup,
    UnknownLabel,
    UtilityOutOfRange,
)
from nhfair.errors import AllGroupsDegenerate, NoEvaluableClass
from nhfair.inputs import MAX_DEPTH
from nhfair.metrics import metric_report
from nhfair.oracle import oracle_metrics
from nhfair.records import (
    SIDECAR_KEYS,
    EvaluationRun,
    _finish_run,
    _load_manifest,
    _raise_first,
    GroupSpace,
    LabelSpace,
    PredictionRecord,
    RunManifest,
    parse_run,
    write_run,
)
from nhfair.selection import parse_summaries
from nhfair.synth import CohortSpec, generate


MANIFEST = {
    "method": "erm",
    "dataset": "demo",
    "seed": 1,
    "split": "test",
    "utility_kind": "accuracy",
    "labels": ["neg", "pos"],
    "groups": ["A", "B"],
}


def write_fixture(tmp_path, lines, manifest=None, name="run.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    mpath = tmp_path / (path.stem + ".manifest.json")
    mpath.write_text(json.dumps(manifest or MANIFEST), encoding="utf-8")
    return path


def record_line(sample_id, y, y_hat, group, scores=None):
    obj = {"sample_id": sample_id, "y": y, "y_hat": y_hat, "group": group}
    if scores is not None:
        obj["scores"] = scores
    return json.dumps(obj)


class TestParseRun:
    def test_wellformed_jsonl(self, tmp_path):
        path = write_fixture(
            tmp_path,
            [
                record_line("s1", "pos", "pos", "A"),
                record_line("s2", "neg", "pos", "A"),
                record_line("s3", "pos", "neg", "B"),
                record_line("s4", "neg", "neg", "B"),
            ],
        )
        run = parse_run(path)
        assert len(run.records) == 4
        assert run.manifest.method == "erm"
        assert run.manifest.label_space.positive_label == "pos"  # defaults to last

    def test_records_sorted_by_sample_id(self, tmp_path):
        path = write_fixture(
            tmp_path,
            [
                record_line("s9", "pos", "pos", "A"),
                record_line("s1", "neg", "neg", "B"),
                record_line("s5", "pos", "neg", "A"),
            ],
        )
        run = parse_run(path)
        assert [rec.sample_id for rec in run.records] == ["s1", "s5", "s9"]

    def test_unknown_group_names_line(self, tmp_path):
        path = write_fixture(
            tmp_path,
            [
                record_line("s1", "pos", "pos", "A"),
                record_line("s2", "neg", "pos", "B"),
                record_line("s3", "pos", "neg", "Z"),
            ],
        )
        with pytest.raises(UnknownGroup) as err:
            parse_run(path)
        assert err.value.line == 3

    def test_unknown_label(self, tmp_path):
        path = write_fixture(
            tmp_path,
            [record_line("s1", "maybe", "pos", "A"), record_line("s2", "neg", "neg", "B")],
        )
        with pytest.raises(UnknownLabel) as err:
            parse_run(path)
        assert err.value.line == 1

    def test_duplicate_sample_id(self, tmp_path):
        path = write_fixture(
            tmp_path,
            [
                record_line("s1", "pos", "pos", "A"),
                record_line("s1", "neg", "neg", "B"),
            ],
        )
        with pytest.raises(DuplicateSampleId) as err:
            parse_run(path)
        assert err.value.line == 2

    def test_json_number_and_bool_cells_name_labels_and_groups_by_their_str(self, tmp_path):
        manifest = dict(MANIFEST, labels=["0", "1"], groups=["True", "B"])
        path = write_fixture(
            tmp_path,
            [
                '{"sample_id": 5, "y": 1, "y_hat": 0, "group": true}',
                record_line("s2", "0", "1", "B"),
            ],
            manifest,
        )
        assert parse_run(path).records == (
            PredictionRecord(sample_id="5", true_label="1", predicted_label="0", group="True"),
            PredictionRecord(sample_id="s2", true_label="0", predicted_label="1", group="B"),
        )

    def test_number_id_and_its_str_are_one_id(self, tmp_path):
        path = write_fixture(
            tmp_path,
            [
                '{"sample_id": 5, "y": "pos", "y_hat": "pos", "group": "A"}',
                record_line("5", "neg", "neg", "B"),
            ],
        )
        with pytest.raises(DuplicateSampleId) as err:
            parse_run(path)
        assert err.value.line == 2
        assert str(err.value) == f"{path}: line 2: sample_id '5' already seen on line 1"

    def test_missing_scores_on_auc_run(self, tmp_path):
        manifest = dict(MANIFEST, utility_kind="auc")
        path = write_fixture(
            tmp_path,
            [
                record_line("s1", "pos", "pos", "A", {"neg": 0.2, "pos": 0.8}),
                record_line("s2", "neg", "neg", "B"),
            ],
            manifest=manifest,
        )
        with pytest.raises(MissingScores) as err:
            parse_run(path)
        assert err.value.line == 2

    def test_empty_group_is_load_error(self, tmp_path):
        path = write_fixture(
            tmp_path,
            [record_line("s1", "pos", "pos", "A"), record_line("s2", "neg", "neg", "A")],
        )
        with pytest.raises(EmptyGroup) as err:
            parse_run(path)
        assert "B" in str(err.value)

    @pytest.mark.parametrize("n_groups", [128, 130])
    def test_empty_groups_among_byte_and_wider_group_codes(self, tmp_path, n_groups):
        # past 128 groups a code takes two bytes, one of them 0 for the first 256:
        # the first group stays missing, and so does the last
        groups = [f"g{i:03d}" for i in range(n_groups)]
        path = write_fixture(
            tmp_path,
            [record_line(f"s{i:03d}", "pos", "pos", g) for i, g in enumerate(groups[1:-1])],
            manifest=dict(MANIFEST, groups=groups),
        )
        with pytest.raises(EmptyGroup) as err:
            parse_run(path)
        assert str(err.value).endswith(f"no records for group(s): g000, {groups[-1]}")

    def test_malformed_json_line(self, tmp_path):
        path = write_fixture(
            tmp_path, [record_line("s1", "pos", "pos", "A"), "{not json"]
        )
        with pytest.raises(MalformedLine) as err:
            parse_run(path)
        assert err.value.line == 2

    def test_score_out_of_range(self, tmp_path):
        path = write_fixture(
            tmp_path,
            [record_line("s1", "pos", "pos", "A", {"neg": 0.2, "pos": 1.5})],
        )
        with pytest.raises(MalformedLine) as err:
            parse_run(path)
        assert err.value.line == 1

    def test_score_key_outside_label_space(self, tmp_path):
        path = write_fixture(
            tmp_path,
            [record_line("s1", "pos", "pos", "A", {"pos": 0.9, "bogus": 0.1})],
        )
        with pytest.raises(UnknownLabel):
            parse_run(path)

    def test_missing_manifest(self, tmp_path):
        path = tmp_path / "orphan.jsonl"
        path.write_text(record_line("s1", "pos", "pos", "A") + "\n", encoding="utf-8")
        with pytest.raises(ParseError):
            parse_run(path)

    def test_csv_records(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text(
            "sample_id,y,y_hat,group,score:neg,score:pos\n"
            "s1,pos,pos,A,0.2,0.8\n"
            "s2,neg,neg,B,0.9,0.1\n",
            encoding="utf-8",
        )
        (tmp_path / "run.manifest.json").write_text(json.dumps(MANIFEST), encoding="utf-8")
        run = parse_run(path)
        assert run.records[0].scores == {"neg": 0.2, "pos": 0.8}

    def test_csv_blank_score_cell_means_absent(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text(
            "sample_id,y,y_hat,group,score:neg,score:pos\n"
            "s1,pos,pos,A,,0.8\n"
            "s2,neg,neg,B,,\n",
            encoding="utf-8",
        )
        (tmp_path / "run.manifest.json").write_text(json.dumps(MANIFEST), encoding="utf-8")
        run = parse_run(path)
        assert run.records[0].scores == {"pos": 0.8}
        assert run.records[1].scores is None


@pytest.mark.parametrize(
    "key, value, shown",
    [
        ("seed", 1.5, "1.5"),
        ("seed", True, "True"),
        ("seed", "7", "'7'"),
        ("seed", float("inf"), "inf"),
        ("seed", None, "None"),
        ("method", None, "None"),
        ("method", ["a"], "['a']"),
        ("method", 3, "3"),
        ("dataset", 3, "3"),
        ("split", False, "False"),
        ("utility_kind", {"kind": "auc"}, "{'kind': 'auc'}"),
        ("positive_label", 1, "1"),
        ("positive_label", None, "None"),
        ("labels", "ab", "'ab'"),
        ("labels", None, "None"),
        ("labels", [["neg"], "pos"], "[['neg'], 'pos']"),
        ("groups", {"A": 0, "B": 1}, "{'A': 0, 'B': 1}"),
        ("groups", 2, "2"),
        ("groups", ["A", {"B": 1}], "['A', {'B': 1}]"),
    ],
)
def test_manifest_scalar_of_another_json_type_exits_2_naming_the_sidecar(tmp_path, capsys, key,
                                                                        value, shown):
    path = write_fixture(tmp_path, [record_line("s1", "pos", "pos", "A"),
                                    record_line("s2", "neg", "neg", "B")],
                         manifest=dict(MANIFEST, **{key: value}))
    names = "array of strings, numbers, booleans or nulls"
    kind = {"seed": "integer", "labels": names, "groups": names}.get(key, "string")
    sidecar = tmp_path / "run.manifest.json"
    message = f"{sidecar}: bad manifest: {key} must be a JSON {kind}, got {shown}"
    with pytest.raises(MalformedLine) as caught:
        parse_run(path)
    assert str(caught.value) == message
    assert main(["evaluate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_manifest_names_of_numbers_bools_and_null_stand_for_their_text(tmp_path):
    manifest = dict(MANIFEST, labels=[0, 1.5], groups=[True, None], positive_label="1.5")
    path = write_fixture(tmp_path, [record_line("s1", 1.5, 0, True),
                                    record_line("s2", "0", "1.5", "None")], manifest=manifest)
    run = parse_run(path)
    assert run.manifest.label_space.labels == ("0", "1.5")
    assert run.manifest.group_space.groups == ("True", "None")
    assert [(r.true_label, r.predicted_label, r.group) for r in run.records] == [
        ("1.5", "0", "True"), ("0", "1.5", "None")]


@pytest.mark.parametrize("seed", [0, -3, 2**70])
@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_manifest_scalars_round_trip_as_written(tmp_path, seed, fmt):
    run = make_run([("pos", "pos", "A", 0.8), ("neg", "pos", "B", 0.6), ("neg", "neg", "A", 0.1)],
                   utility_kind="auc", positive_label="pos", method="m\u00e9thode \"x\"",
                   dataset="d,1", seed=seed, split="validation")
    write_run(run, tmp_path / f"run.{fmt}")
    again = parse_run(tmp_path / f"run.{fmt}")
    assert again.manifest == run.manifest and type(again.manifest.seed) is int
    assert again == run


_NAMES_TYPE = "array of strings, numbers, booleans or nulls"
# The JSON type README documents for each sidecar key.
_DOCUMENTED = {"seed": "integer", "labels": "array", "groups": "array"}
_SCALAR = st.one_of(st.text(max_size=3), st.integers(), st.booleans(), st.none())
_JSON_VALUES = {
    "string": st.text(max_size=5),
    "integer": st.integers(),
    "float": st.floats(),
    "bool": st.booleans(),
    "null": st.none(),
    "array": st.lists(_SCALAR, max_size=3),
    "array holding an array": st.lists(_SCALAR, max_size=3).map(lambda items: [*items, [1]]),
    "object": st.dictionaries(st.text(max_size=3), _SCALAR, max_size=3),
}
# A value of the documented type that the manifest's records also accept.
_VALID = {
    "method": st.text(max_size=5),
    "dataset": st.text(max_size=5),
    "seed": st.integers(),
    "split": st.sampled_from(["train", "validation", "test"]),
    "utility_kind": st.just("accuracy"),
    "labels": st.permutations(["neg", "pos"]).map(list)
    | st.permutations(["neg", "pos", 7]).map(list),
    "groups": st.permutations(["A", "B"]).map(list),
    "positive_label": st.sampled_from(["neg", "pos"]),
}


@pytest.mark.parametrize("kind", list(_JSON_VALUES))
@pytest.mark.parametrize("key", [key.name for key in SIDECAR_KEYS])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_each_json_type_in_each_manifest_key_exits_0_only_for_the_documented_type(key, kind,
                                                                                  data):
    documented = kind == _DOCUMENTED.get(key, "string")
    value = data.draw(_VALID[key] if documented else _JSON_VALUES[kind])
    with tempfile.TemporaryDirectory() as directory:
        lines = [record_line(f"s{i}", y, y, group)
                 for i, (y, group) in enumerate([("pos", "A"), ("neg", "A"), ("pos", "B"),
                                                 ("neg", "B")])]
        path = write_fixture(Path(directory), lines, manifest=dict(MANIFEST, **{key: value}))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["evaluate", str(path)])
    if documented:
        assert (code, stderr.getvalue()) == (0, "")
    else:
        shown = reprlib.repr(json.loads(json.dumps(value)))
        expected = {"seed": "integer", "labels": _NAMES_TYPE, "groups": _NAMES_TYPE}
        message = f"{key} must be a JSON {expected.get(key, 'string')}, got {shown}"
        sidecar = path.with_suffix(".manifest.json")
        assert (code, stderr.getvalue()) == (2, f"error: {sidecar}: bad manifest: {message}\n")


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_sidecar_holds_the_table_keys_in_table_order(tmp_path, fmt):
    run = make_run([("pos", "pos", "A", 0.8), ("neg", "neg", "B", 0.1)],
                   utility_kind="auc", positive_label="pos")
    write_run(run, tmp_path / f"run.{fmt}")
    sidecar = json.loads((tmp_path / "run.manifest.json").read_text(encoding="utf-8"))
    assert list(sidecar) == [key.name for key in SIDECAR_KEYS]
    assert parse_run(tmp_path / f"run.{fmt}") == run


def test_manifest_faults_are_reported_presence_first(tmp_path):
    manifest = {key: value for key, value in MANIFEST.items() if key != "labels"}
    path = write_fixture(tmp_path, [record_line("s1", "pos", "pos", "A")],
                         manifest=dict(manifest, seed=1.5))
    with pytest.raises(MalformedLine) as caught:
        parse_run(path)
    assert str(caught.value) == (
        f"{tmp_path / 'run.manifest.json'}: bad manifest: missing key 'labels'"
    )


@pytest.mark.parametrize("sidecar, message", [
    (["method"], "must be a JSON object, got ['method']"),
    ("x", "must be a JSON object, got 'x'"),
    (3, "must be a JSON object, got 3"),
    (None, "must be a JSON object, got None"),
    ({key: value for key, value in MANIFEST.items() if key != "dataset"},
     "missing key 'dataset'"),
], ids=["array", "string", "number", "null", "no dataset"])
def test_a_sidecar_not_an_object_or_missing_a_key_is_named_in_plain_words(tmp_path, sidecar,
                                                                          message):
    path = write_fixture(tmp_path, [record_line("s1", "pos", "pos", "A")])
    path.with_suffix(".manifest.json").write_text(json.dumps(sidecar), encoding="utf-8")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(["evaluate", str(path)])
    text = stderr.getvalue()
    assert (code, text) == (
        2, f"error: {path.with_suffix('.manifest.json')}: bad manifest: {message}\n")
    for python_text in ("indices must be", "not subscriptable", "NoneType"):
        assert python_text not in text


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_parse_write_parse_identical(self, tmp_path, fmt):
        spec = CohortSpec(
            seed=11,
            n_per_group={"A": 25, "B": 30},
            class_prior={
                "A": {"neg": 0.6, "pos": 0.4},
                "B": {"neg": 0.4, "pos": 0.6},
            },
            confusion_spec={
                "A": {"neg": {"neg": 0.8, "pos": 0.2}, "pos": {"neg": 0.3, "pos": 0.7}},
                "B": {"neg": {"neg": 0.7, "pos": 0.3}, "pos": {"neg": 0.1, "pos": 0.9}},
            },
            score_noise=0.5,
        )
        run = generate(spec, utility_kind="auc")
        first = tmp_path / f"first.{fmt}"
        write_run(run, first)
        parsed = parse_run(first)
        assert parsed == run
        second = tmp_path / f"second.{fmt}"
        write_run(parsed, second)
        assert parse_run(second) == parsed

    def test_order_independent_of_file_order(self, tmp_path):
        lines = [
            record_line("s2", "neg", "pos", "A"),
            record_line("s1", "pos", "pos", "B"),
        ]
        forward = write_fixture(tmp_path, lines, name="fwd.jsonl")
        backward = write_fixture(tmp_path, list(reversed(lines)), name="bwd.jsonl")
        assert parse_run(forward).records == parse_run(backward).records


AUC_MANIFEST = dict(MANIFEST, utility_kind="auc")
OK1 = record_line("s1", "pos", "pos", "A")
OK2 = record_line("s2", "neg", "neg", "B")
OK3 = record_line("s3", "neg", "pos", "B")
SCORED = record_line("s1", "pos", "pos", "A", {"neg": 0.4, "pos": 0.6})
CSV_HEADER = "sample_id,y,y_hat,group,score:neg,score:pos\n"


def jsonl(*lines, end="\n"):
    return end.join(lines) + end


def raw_record(sample_id, group="B", scores="null"):
    """A record line with a literal (possibly non-JSON-standard) scores value."""
    return (
        f'{{"sample_id": "{sample_id}", "y": "pos", "y_hat": "pos", "group": "{group}", '
        f'"scores": {scores}}}'
    )


# (case, format, manifest, file text, error class or None, line); a file
# with several faults reports the first line's, decode faults (JSON,
# fields, scores) before record faults (ids, labels, groups, auc scores),
# and both before a group without records
CORRUPT_CASES = [
    ("invalid JSON", "jsonl", MANIFEST, jsonl(OK1, "{not json", OK2), MalformedLine, 2),
    ("truncated last line", "jsonl", MANIFEST, f'{OK1}\n{OK2}\n{{"sample_id": "s3"',
     MalformedLine, 3),
    ("non-object line", "jsonl", MANIFEST, jsonl(OK1, "[1, 2]", OK2), MalformedLine, 2),
    ("string line", "jsonl", MANIFEST, jsonl(OK1, '"s2"', OK2), MalformedLine, 2),
    ("missing field", "jsonl", MANIFEST,
     jsonl(OK1, '{"sample_id": "s2", "y": "pos", "group": "B"}'), MalformedLine, 2),
    ("non-object scores", "jsonl", MANIFEST, jsonl(OK1, raw_record("s2", scores="[0.4, 0.6]")),
     MalformedLine, 2),
    ("non-numeric score", "jsonl", MANIFEST,
     jsonl(OK1, raw_record("s2", scores='{"pos": "high"}')), MalformedLine, 2),
    ("null score", "jsonl", MANIFEST, jsonl(OK1, raw_record("s2", scores='{"pos": null}')),
     MalformedLine, 2),
    ("score above 1", "jsonl", MANIFEST, jsonl(OK1, raw_record("s2", scores='{"pos": 1.5}')),
     MalformedLine, 2),
    ("negative score", "jsonl", MANIFEST, jsonl(OK1, raw_record("s2", scores='{"neg": -0.1}')),
     MalformedLine, 2),
    ("NaN score", "jsonl", MANIFEST, jsonl(OK1, raw_record("s2", scores='{"pos": NaN}')),
     MalformedLine, 2),
    ("Infinity score", "jsonl", MANIFEST,
     jsonl(OK1, raw_record("s2", scores='{"pos": Infinity}')), MalformedLine, 2),
    ("integer too large for a float", "jsonl", MANIFEST,
     jsonl(OK1, raw_record("s2", scores='{"pos": 1' + "0" * 400 + "}")), MalformedLine, 2),
    ("unknown score key", "jsonl", MANIFEST,
     jsonl(OK1, raw_record("s2", scores='{"pos": 0.5, "maybe": 0.5}')), UnknownLabel, 2),
    ("unknown label", "jsonl", MANIFEST, jsonl(OK1, record_line("s2", "maybe", "pos", "B")),
     UnknownLabel, 2),
    ("unknown prediction", "jsonl", MANIFEST, jsonl(OK1, record_line("s2", "pos", "maybe", "B")),
     UnknownLabel, 2),
    ("unknown group", "jsonl", MANIFEST, jsonl(OK1, OK2, record_line("s3", "pos", "pos", "Z")),
     UnknownGroup, 3),
    ("duplicate id", "jsonl", MANIFEST, jsonl(OK1, OK2, record_line("s1", "pos", "pos", "B")),
     DuplicateSampleId, 3),
    ("auc record without scores", "jsonl", AUC_MANIFEST,
     jsonl(SCORED, record_line("s2", "neg", "neg", "B")), MissingScores, 2),
    ("auc record with empty scores", "jsonl", AUC_MANIFEST,
     jsonl(SCORED, raw_record("s2", scores="{}")), MissingScores, 2),
    ("auc record without positive score", "jsonl", AUC_MANIFEST,
     jsonl(SCORED, raw_record("s2", scores='{"neg": 0.3}')), MissingScores, 2),
    ("empty group", "jsonl", MANIFEST, jsonl(OK1, record_line("s2", "neg", "neg", "A")),
     EmptyGroup, None),
    ("empty file", "jsonl", MANIFEST, "", ParseError, None),
    ("blank lines only", "jsonl", MANIFEST, "\n  \n\t\n", ParseError, None),
    ("object split over two lines", "jsonl", MANIFEST,
     jsonl(OK1, '{"sample_id": "s2", "y": "neg",', '"y_hat": "neg", "group": "B"}'),
     MalformedLine, 2),
    ("array split over two lines", "jsonl", MANIFEST, jsonl(OK1, "[" + OK2, OK3 + "]"),
     MalformedLine, 2),
    ("two objects on one line", "jsonl", MANIFEST, jsonl(OK1, OK2 + " " + OK3), MalformedLine, 2),
    ("two objects and a comma on one line", "jsonl", MANIFEST, jsonl(OK1, OK2 + "," + OK3),
     MalformedLine, 2),
    ("100,000 nested objects", "jsonl", MANIFEST,
     jsonl(OK1, '{"a": ' * 100_000 + "1" + "}" * 100_000, OK2), MalformedLine, 2),
    ("1,100 nested arrays under an extra key", "jsonl", MANIFEST,
     jsonl(OK1[:-1] + ', "extra": ' + "[" * 1100 + "]" * 1100 + "}", OK2), MalformedLine, 1),
    ("150 unclosed arrays", "jsonl", MANIFEST, jsonl(OK1, "[" * 150, OK2), MalformedLine, 2),
    ("CR line ends", "jsonl", MANIFEST, jsonl(OK1, OK2, "{bad", end="\r"), MalformedLine, 3),
    ("CRLF line ends", "jsonl", MANIFEST,
     jsonl(OK1, "", OK2, record_line("s4", "pos", "pos", "Z"), end="\r\n"), UnknownGroup, 4),
    ("raw U+2028 in a string", "jsonl", MANIFEST,
     jsonl(
         json.dumps({"sample_id": "s\u2028a", "y": "pos", "y_hat": "pos", "group": "A"},
                    ensure_ascii=False),
         OK2,
         record_line("s3", "pos", "pos", "Z"),
     ), UnknownGroup, 3),
    ("whitespace around values", "jsonl", MANIFEST,
     jsonl("  " + OK1, "", OK2 + "  ", record_line("s5", "pos", "pos", "Z")), UnknownGroup, 4),
    ("ids differing by a trailing NUL", "jsonl", MANIFEST,
     jsonl(OK1, record_line("s1\x00", "pos", "pos", "B")), None, None),
    ("duplicate NUL-suffixed id", "jsonl", MANIFEST,
     jsonl(
         record_line("s1\x00", "pos", "pos", "A"), OK2, record_line("s1\x00", "pos", "pos", "B")
     ), DuplicateSampleId, 3),
    ("first decode fault wins", "jsonl", MANIFEST,
     jsonl(OK1, raw_record("s2", scores='{"pos": 2}'), '{"sample_id": "s3"}'), MalformedLine, 2),
    ("decode fault after a record fault", "jsonl", MANIFEST,
     jsonl(OK1, record_line("s2", "pos", "pos", "Z"), OK3, "{bad"), MalformedLine, 4),
    ("score fault after a duplicate id", "jsonl", MANIFEST,
     jsonl(OK1, record_line("s1", "pos", "pos", "B"), raw_record("s3", scores='{"x": 0.1}')),
     UnknownLabel, 3),
    ("first record fault wins", "jsonl", MANIFEST,
     jsonl(OK1, record_line("s2", "maybe", "pos", "B"), record_line("s1", "pos", "pos", "B")),
     UnknownLabel, 2),
    ("duplicate id before other faults of its line", "jsonl", MANIFEST,
     jsonl(OK1, record_line("s1", "maybe", "maybe", "Z")), DuplicateSampleId, 2),
    ("unknown label before missing auc scores", "jsonl", AUC_MANIFEST,
     jsonl(SCORED, record_line("s2", "maybe", "pos", "B")), UnknownLabel, 2),
    ("decode fault before an empty group", "jsonl", MANIFEST,
     jsonl(OK1, raw_record("s2", "A", '{"pos": "x"}')), MalformedLine, 2),
    ("record fault before an empty group", "jsonl", MANIFEST,
     jsonl(OK1, record_line("s2", "maybe", "pos", "A")), UnknownLabel, 2),
    ("csv field count", "csv", MANIFEST, CSV_HEADER + "s1,pos,pos,A,0.4,0.6\ns2,neg,neg\n",
     MalformedLine, 3),
    ("csv blank row keeps numbering", "csv", MANIFEST,
     CSV_HEADER + "s1,pos,pos,A,0.4,0.6\n\ns2,neg,neg,Z,,\n", UnknownGroup, 4),
    ("csv non-numeric cell", "csv", MANIFEST,
     CSV_HEADER + "s1,pos,pos,A,0.4,0.6\ns2,neg,neg,B,abc,0.5\n", MalformedLine, 3),
    ("csv nan cell", "csv", MANIFEST, CSV_HEADER + "s1,pos,pos,A,0.4,0.6\ns2,neg,neg,B,,nan\n",
     MalformedLine, 3),
    ("csv inf cell", "csv", MANIFEST, CSV_HEADER + "s1,pos,pos,A,0.4,0.6\ns2,neg,neg,B,inf,\n",
     MalformedLine, 3),
    ("csv score above 1", "csv", MANIFEST,
     CSV_HEADER + "s1,pos,pos,A,0.4,0.6\ns2,neg,neg,B,0.5,1.5\n", MalformedLine, 3),
    ("csv unknown score column", "csv", MANIFEST,
     "sample_id,y,y_hat,group,score:pos,score:maybe\ns1,pos,pos,A,0.4,\ns2,neg,neg,B,0.5,0.1\n",
     UnknownLabel, 3),
    ("csv unexpected column", "csv", MANIFEST, "sample_id,y,y_hat,group,extra\ns1,pos,pos,A,1\n",
     MalformedLine, 1),
    ("csv unknown label", "csv", MANIFEST, CSV_HEADER + "s1,pos,pos,A,,\ns2,maybe,neg,B,,\n",
     UnknownLabel, 3),
    ("csv unknown group", "csv", MANIFEST, CSV_HEADER + "s1,pos,pos,A,,\ns2,neg,neg,Z,,\n",
     UnknownGroup, 3),
    ("csv duplicate id", "csv", MANIFEST,
     CSV_HEADER + "s1,pos,pos,A,,\ns2,neg,neg,B,,\ns1,neg,neg,B,,\n", DuplicateSampleId, 4),
    ("csv auc record without scores", "csv", AUC_MANIFEST,
     CSV_HEADER + "s1,pos,pos,A,0.4,0.6\ns2,neg,neg,B,,\n", MissingScores, 3),
    ("csv auc record without positive score", "csv", AUC_MANIFEST,
     CSV_HEADER + "s1,pos,pos,A,0.4,0.6\ns2,neg,neg,B,0.5,\n", MissingScores, 3),
    ("csv empty group", "csv", MANIFEST, CSV_HEADER + "s1,pos,pos,A,,\ns2,neg,neg,A,,\n",
     EmptyGroup, None),
    ("csv empty file", "csv", MANIFEST, "", ParseError, None),
    ("csv header only", "csv", MANIFEST, CSV_HEADER, ParseError, None),
    ("csv CRLF line ends", "csv", MANIFEST,
     (CSV_HEADER + "s1,pos,pos,A,,\ns2,neg,neg,B,,\ns3,neg,neg,Z,,\n").replace("\n", "\r\n"),
     UnknownGroup, 4),
    ("csv ids differing by a trailing NUL", "csv", MANIFEST,
     CSV_HEADER + "s1,pos,pos,A,,\ns1\x00,neg,neg,B,,\n", None, None),
    ("csv cell fault after a record fault", "csv", MANIFEST,
     CSV_HEADER + "s1,pos,pos,A,,\ns2,neg,neg,Z,,\ns3,neg,neg,B,x,\n", MalformedLine, 4),
    ("csv first decode fault wins", "csv", MANIFEST, CSV_HEADER + "s1,pos,pos,A,x,\ns2,neg,neg\n",
     MalformedLine, 2),
]


@pytest.mark.parametrize(
    "fmt, manifest, text, error, line",
    [case[1:] for case in CORRUPT_CASES],
    ids=[case[0] for case in CORRUPT_CASES],
)
def test_bad_input_names_class_path_and_line(tmp_path, fmt, manifest, text, error, line):
    path = tmp_path / f"run.{fmt}"
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    (tmp_path / "run.manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    if error is None:
        run = parse_run(path)
        assert [rec.sample_id for rec in run.records] == ["s1", "s1\x00"]
        return
    with pytest.raises(ParseError) as err:
        parse_run(path)
    assert type(err.value) is error
    assert (err.value.path, err.value.line) == (str(path), line)
    if error is DuplicateSampleId:
        assert "already seen on line" in str(err.value)


def reference_finish_run(
    manifest: RunManifest,
    path: str | None,
    lines: Sequence[int],
    columns: Sequence[Sequence],
    scores: Sequence[Sequence[float]] | None,
    fault: records.Fault | None,
    pending: ParseError | None = None,
) -> EvaluationRun:
    """``records._finish_run`` written with a ``str`` copy of every cell and an argsort,
    after the decode ``fault`` of the records and the ``pending`` fault of a later line.

    Every cell is mapped through ``str`` before its lookup, repeated ids
    are found by comparing neighbours after a stable sort, whose order also
    sorts the columns before the run is built, and each check is a numpy
    mask, a score being present where it is not NaN. The fault of the
    earliest row that a mask flags is raised; on one row, the earlier mask's.
    """
    _raise_first(fault, path, lines)
    if pending is not None:
        raise pending
    if not lines:
        raise ParseError("run contains no records", path=path)
    ids, ys, y_hats, groups = ([*map(str, column)] for column in columns)
    labels = manifest.label_space.labels
    matrix = None if scores is None else np.array(scores, dtype=float).T  # (n, C)
    present = np.zeros((len(ids), len(labels)), bool) if matrix is None else ~np.isnan(matrix)
    group_names = manifest.group_space.groups

    def codes(names: list[str], space: tuple[str, ...]) -> np.ndarray:
        index = {name: i for i, name in enumerate(space)}
        return np.array([index.get(name, -1) for name in names], dtype=np.intp)

    y = codes(ys, labels)
    y_hat = codes(y_hats, labels)
    group = codes(groups, group_names)

    order = sorted(range(len(ids)), key=ids.__getitem__)  # stable: repeats keep input order
    sorted_ids = np.array(ids, dtype=object)[order]
    repeated = np.zeros(len(ids), dtype=bool)
    repeated[np.asarray(order[1:], dtype=np.intp)[sorted_ids[1:] == sorted_ids[:-1]]] = True
    masks = [
        (repeated, lambda row: (
            DuplicateSampleId,
            f"sample_id {ids[row]!r} already seen on line {lines[ids.index(ids[row])]}",
        )),
        (y < 0, lambda row: (UnknownLabel, f"label {ys[row]!r} not in manifest")),
        (y_hat < 0, lambda row: (UnknownLabel, f"label {y_hats[row]!r} not in manifest")),
        (group < 0, lambda row: (UnknownGroup, f"group {groups[row]!r} not in manifest")),
    ]
    if manifest.utility_kind == "auc":
        positive = manifest.label_space.positive_label
        masks += [
            (~present.any(axis=1), lambda row: (
                MissingScores, f"auc run but record {ids[row]!r} has no scores",
            )),
            (~present[:, labels.index(positive)], lambda row: (
                MissingScores,
                f"auc run but record {ids[row]!r} lacks a score for the "
                f"positive label {positive!r}",
            )),
        ]
    rows = [(int(np.flatnonzero(mask)[0]), i) for i, (mask, _) in enumerate(masks) if mask.any()]
    if rows:  # the earliest row; on one row, the earlier mask
        row, i = min(rows)
        cls, message = masks[i][1](row)
        raise cls(message, path=path, line=lines[row])

    sizes = np.bincount(group, minlength=len(group_names))
    missing = [g for g, size in zip(group_names, sizes) if size == 0]
    if missing:
        raise EmptyGroup(f"no records for group(s): {', '.join(missing)}", path=path)
    return EvaluationRun(
        manifest=manifest,
        sample_ids=sorted_ids,
        group=group[order],
        y=y[order],
        y_hat=y_hat[order],
        scores=None if matrix is None else matrix[order].T,
    )


# a cell as a JSON decoder may give it: the text of a label, group or id,
# or a number, bool or null whose str() is that text
AS_JSON = {"0": 0, "1": 1, "None": None, "True": True, "False": False, "2.5": 2.5}
# cells that name no label or group, some of them unhashable
UNKNOWN_CELLS = ("maybe", 1.0, math.nan, [1], {"k": 1}, "", "1 ")


@st.composite
def decoded_records(draw):
    """Arguments of ``_finish_run``: decoded columns with record faults at random rows.

    Faults: a repeated id (a number against its text among them), an unknown
    label, prediction or group, a missing auc score and a group without
    records; valid cells are sometimes numbers, bools or null.
    """
    labels = ("0", "1", "None")[: draw(st.integers(2, 3))]
    groups = ("True", "False", "2.5")[: draw(st.integers(2, 3))]
    kind = "auc" if len(labels) == 2 and draw(st.booleans()) else "accuracy"
    n = draw(st.integers(1, 12))
    ids: list = [str(k) for k in draw(st.lists(st.integers(0, 30), min_size=n, max_size=n,
                                              unique=True))]
    cells = [
        ids,
        draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n)),
        draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n)),
        draw(st.lists(st.sampled_from(groups), min_size=n, max_size=n)),
    ]
    if draw(st.integers(0, 3)):  # mostly, every group has a record
        cells[3][: len(groups)] = groups[:n]
    scored = kind == "auc" or draw(st.booleans())
    present = np.full((n, len(labels)), scored)
    rows = st.integers(0, n - 1)
    for fault in draw(st.lists(st.sampled_from(
        ("repeat", "repeat number", "id number", "unknown", "json", "no scores", "no positive")
    ), max_size=4)):
        row = draw(rows)
        if fault == "repeat":
            ids[row] = ids[draw(rows)]
        elif fault == "repeat number":  # 5 against "5"
            number = draw(st.integers(31, 32))
            ids[row], ids[draw(rows)] = number, str(number)
        elif fault == "id number" and isinstance(ids[row], str):
            number = int(ids[row])
            ids[row] = draw(st.sampled_from([number, float(number), [number]]))
        elif fault == "unknown":
            cells[draw(st.integers(1, 3))][row] = draw(st.sampled_from(UNKNOWN_CELLS))
        elif fault == "json":
            column = cells[draw(st.integers(1, 3))]
            if isinstance(column[row], str):
                column[row] = AS_JSON.get(column[row], column[row])
        elif fault == "no scores":
            present[row] = False
        else:
            present[row, -1] = False
    scores = [*np.where(present, 0.5, math.nan).T] if scored else None  # one column per label
    lines = [*accumulate(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))]
    manifest = RunManifest(
        method="m", dataset="d", seed=0, split="test", utility_kind=kind,
        label_space=LabelSpace(labels=labels), group_space=GroupSpace(groups=groups),
    )
    return manifest, "run.jsonl", lines, cells, scores, None


def _outcome(finish, args) -> object:
    try:
        return finish(*args)
    except ParseError as exc:
        return type(exc), exc.path, exc.line, str(exc)


def finish_cells(manifest, path, lines, columns, scores, fault) -> EvaluationRun:
    """``_finish_run`` of decoded cells, coded and checked as a CSV log's are."""
    _raise_first(fault, path, lines)
    codes, unknown = zip(*map(records._codes, columns[1:], records._code_spaces(manifest)))
    ids = [*map(str, columns[0])]
    return _finish_run(manifest, path, lines, ids, codes, unknown, scores)


@given(decoded_records())
@settings(max_examples=400, deadline=None)
def test_finish_run_raises_or_builds_as_the_reference(args):
    got, expected = _outcome(finish_cells, args), _outcome(reference_finish_run, args)
    assert got == expected
    if isinstance(expected, EvaluationRun):
        assert got.sample_ids == expected.sample_ids
        for name in ("group", "y", "y_hat"):
            assert getattr(got, name).typecode == getattr(expected, name).typecode, name
        assert (got.scores is None) == (expected.scores is None)
        for got_column, expected_column in zip(got.scores or (), expected.scores or ()):
            assert got_column.typecode == expected_column.typecode == "d"


@pytest.mark.parametrize("scores", [[0.1], "x", 5, 0, []], ids=repr)
def test_a_record_whose_scores_are_not_an_object_is_malformed_in_rows_as_in_a_log(
    tmp_path, scores
):
    """from_records names the record's position as its line; a fault of an earlier
    record is reported first, and one of a later record is not."""
    manifest = _load_manifest(write_fixture(tmp_path, [OK1], name="m.jsonl"))
    rows = [
        PredictionRecord("s1", "pos", "pos", "A", {"pos": 0.5}),
        PredictionRecord("s2", "neg", "neg", "B", scores),
        PredictionRecord("s3", "neg", "neg", "Z", {"pos": 1.5}),
    ]
    log = write_fixture(tmp_path, [
        record_line(r.sample_id, r.true_label, r.predicted_label, r.group, r.scores) for r in rows
    ])
    for build, where in [(lambda: EvaluationRun.from_records(manifest, rows), ""),
                         (lambda: parse_run(log), f"{log}: ")]:
        with pytest.raises(MalformedLine) as err:
            build()
        assert (str(err.value), err.value.line) == (f"{where}line 2: scores must be an object", 2)
    rows[0] = rows[0]._replace(scores={"pos": 2.0})
    with pytest.raises(MalformedLine, match="^line 1: score for 'pos' out of"):
        EvaluationRun.from_records(manifest, rows)


def test_raise_first_reads_records_up_to_the_first_faulty_one():
    """Of faults at rows 3 and 700 of 1,000, row 3's is raised at its line, and no
    later row is read; ``pending`` is raised only where no row is faulty."""
    read: list[int] = []

    def fault(row: int):
        read.append(row)
        return (UnknownGroup, f"fault of row {row}") if row in (3, 700) else None

    lines = range(11, 1011)
    pending = MalformedLine("invalid JSON", path="run.jsonl", line=1011)
    with pytest.raises(UnknownGroup) as err:
        _raise_first(fault, "run.jsonl", lines, pending)
    assert (str(err.value), err.value.line) == ("run.jsonl: line 14: fault of row 3", 14)
    assert read == [0, 1, 2, 3]
    read.clear()
    with pytest.raises(MalformedLine) as err:
        _raise_first(lambda row: fault(row) if row not in (3, 700) else None, "run.jsonl",
                     lines, pending)
    assert err.value is pending and read == [row for row in range(1000) if row not in (3, 700)]
    with pytest.raises(MalformedLine) as err:
        _raise_first(None, "run.jsonl", lines, pending)
    assert err.value is pending
    _raise_first(None, "run.jsonl", lines)
    _raise_first(lambda row: None, "run.jsonl", lines)


@pytest.mark.parametrize("maps", [
    [None, None, None],
    [{}, None, {"pos": 0.5}],
    [{"neg": 0.25, "pos": 0.75}, {"pos": 1}, {"neg": 0}],
], ids=["null", "empty and null", "dicts"])
def test_score_maps_of_dicts_and_nulls_need_no_record_scan(maps):
    """Maps that are dicts or null keep the column path: no fault to scan records with."""
    columns, fault = records._mapped_scores(maps, ("neg", "pos"))
    assert fault is None
    present = [[m[label] for m in maps if m and label in m] for label in ("neg", "pos")]
    assert [[v for v in column if v == v] for column in columns] == present


def test_a_score_map_that_is_no_object_is_reported_at_its_record():
    """Row 0's map is no object; row 2's score is out of range: row 0's fault is first."""
    maps = [[0.1], None, {"pos": 2}]
    _, fault = records._mapped_scores(maps, ("neg", "pos"))
    assert [fault(row) for row in range(3)] == [
        (MalformedLine, "scores must be an object"),
        None,
        (MalformedLine, "score for 'pos' out of [0, 1]: 2.0"),
    ]
    with pytest.raises(MalformedLine, match="^line 1: scores must be an object$"):
        _raise_first(fault, None, range(1, 4))


@pytest.mark.parametrize("fmt, header", [("jsonl", 0), ("csv", 1)])
def test_a_score_fault_is_reported_before_an_earlier_repeated_id(tmp_path, fmt, header):
    """A decode fault wins over a record fault of an earlier line: a repeated id on
    record 4 and a score of 1.5 on record 500 (in the second JSONL slice) report
    record 500; without that score, record 4 is reported."""
    rows = [PredictionRecord(f"s{i:03d}", "pos", "neg", "AB"[i % 2], {"pos": 0.5})
            for i in range(600)]
    rows[3] = rows[3]._replace(sample_id=rows[0].sample_id)
    path = tmp_path / f"run.{fmt}"
    (tmp_path / "run.manifest.json").write_text(json.dumps(MANIFEST), encoding="utf-8")
    for score, error, line, message in [
        (1.5, MalformedLine, 500, "score for 'pos' out of [0, 1]: 1.5"),
        (0.5, DuplicateSampleId, 4, "sample_id 's000' already seen on line 1"),
    ]:
        rows[499] = rows[499]._replace(scores={"pos": score})
        if fmt == "jsonl":
            text = jsonl(*(record_line(*row) for row in rows))
        else:
            text = CSV_HEADER + "".join(f"{r.sample_id},{r.true_label},{r.predicted_label},"
                                        f"{r.group},,{r.scores['pos']}\n" for r in rows)
        path.write_text(text, encoding="utf-8")
        message = message.replace("line 1", f"line {1 + header}")
        with pytest.raises(error) as err:
            parse_run(path)
        assert str(err.value) == f"{path}: line {line + header}: {message}"


@contextlib.contextmanager
def recursion_limit(limit: int):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def stack_depth() -> int:
    """The number of Python frames on the caller's stack."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize(
    "name",
    ["100,000 nested objects", "1,100 nested arrays under an extra key", "150 unclosed arrays"],
)
def test_a_line_nested_deeper_than_the_limit_is_malformed_under_any_recursion_limit(
    tmp_path, name
):
    _, fmt, manifest, text, _, line = next(case for case in CORRUPT_CASES if case[0] == name)
    path = tmp_path / f"run.{fmt}"
    path.write_text(text, encoding="utf-8")
    (tmp_path / "run.manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    message = f"{path}: line {line}: invalid JSON: nested deeper than 100 levels"
    for limit in (stack_depth() + MAX_DEPTH + 50, 10_000):
        with recursion_limit(limit), pytest.raises(MalformedLine) as err:
            parse_run(path)
        assert str(err.value) == message


def with_deep_key(doc: object) -> str:
    """The JSON text of ``doc``, an object or an array of objects, whose first object
    holds an extra key with 1,100 nested arrays."""
    text = json.dumps(doc)
    end = text.index("}")
    return f'{text[:end]}, "deep": {"[" * 1100}{"]" * 1100}{text[end:]}'


def deep_inputs(tmp_path: Path) -> dict[str, tuple[list[str], Path]]:
    """Per whole-file JSON input a command reads, its argv and the file nested too deep."""
    log = write_fixture(tmp_path, [OK1, OK2, OK3, record_line("s4", "neg", "neg", "A"),
                                   record_line("s5", "pos", "neg", "B")])
    sidecar = tmp_path / "run.manifest.json"
    sidecar.write_text(with_deep_key(MANIFEST), encoding="utf-8")
    rows = [
        {"method": method, "dataset": dataset, "split": "test", "utility_kind": "accuracy",
         "n_seeds": 1, "metrics": {"gap": {"mean": mean, "std": 0.0}}, "warnings": []}
        for mean, (method, dataset) in enumerate([("a", "d1"), ("a", "d2"), ("b", "d1"),
                                                  ("b", "d2")])
    ]
    table = tmp_path / "agg.json"
    table.write_text(with_deep_key(rows), encoding="utf-8")
    return {
        "sidecar": (["evaluate", str(log)], sidecar),
        "table": (["compare", "--metric", "gap", "--out", str(tmp_path / "cd.json"),
                   "--svg", str(tmp_path / "cd.svg"), str(table)], table),
    }


@pytest.mark.parametrize("kind", ["sidecar", "table"])
def test_a_json_file_nested_deeper_than_the_limit_exits_2_under_any_recursion_limit(
    tmp_path, capsys, kind
):
    argv, path = deep_inputs(tmp_path)[kind]
    prefix = "manifest is " if kind == "sidecar" else ""
    errors = []
    for limit in (stack_depth() + 150, 10_000):
        with recursion_limit(limit):
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors == [f"error: {path}: {prefix}not valid JSON: nested deeper than 100 levels\n"] * 2


def test_a_cohort_spec_nested_deeper_than_the_limit_is_a_parse_error_under_any_recursion_limit(
    tmp_path,
):
    spec = tmp_path / "spec.json"
    data = Path(__file__).parent / "data" / "cohort_binary.json"
    spec.write_text(with_deep_key(json.loads(data.read_text(encoding="utf-8"))), encoding="utf-8")
    for limit in (stack_depth() + 150, 10_000):
        with recursion_limit(limit), pytest.raises(ParseError) as err:
            CohortSpec.load(spec)
        assert str(err.value) == f"{spec}: not valid JSON: nested deeper than 100 levels"


def json_depth(text: str) -> int:
    """How deep json reads a JSON text to nest, found level by level (no recursion)."""
    with recursion_limit(10_000):  # an object as the list of its values, repeated keys kept
        level = [json.loads(text, object_pairs_hook=lambda pairs: [v for _, v in pairs])]
    depth = 0
    while containers := [item for item in level if isinstance(item, list)]:
        depth += 1
        level = [item for c in containers for item in c]
    return depth


# strings full of what the depth scan must skip: brackets, quotes, backslashes
BRACKET_TEXT = st.one_of(
    st.text(alphabet='[]{}"\\ a', max_size=8),
    st.builds(
        str.__add__, st.text(alphabet='[{"\\', max_size=4), st.integers(0, 120).map("[".__mul__)
    ),
)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.integers(), BRACKET_TEXT),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(BRACKET_TEXT, inner, max_size=3)
    ),
    max_leaves=12,
)


@st.composite
def nested_texts(draw) -> tuple[str, str]:
    """A JSON text nested in arrays and objects to about ``MAX_DEPTH`` levels,
    with brackets, quotes and backslashes in its strings, and the same text
    with its last string left open and the text cut there."""
    n = draw(st.one_of(st.integers(MAX_DEPTH - 5, MAX_DEPTH + 1), st.integers(1, 2 * MAX_DEPTH)))
    wrappers = draw(st.lists(st.sampled_from(["[", '{"[": ']), min_size=n, max_size=n))
    opened = "".join(wrappers) + json.dumps(draw(JSON_VALUES))
    # a last string: an item of the innermost array, or a key of the innermost object
    last = json.dumps(draw(BRACKET_TEXT) + "[" * draw(st.integers(0, 2 * MAX_DEPTH)))
    closing = "".join("]" if w == "[" else "}" for w in reversed(wrappers))
    colon = "" if wrappers[-1] == "[" else ": 0"
    cut = draw(st.integers(1, len(last) - 1))  # inside the string, maybe inside an escape
    return opened + ", " + last + colon + closing, opened + ", " + last[:cut]


@given(nested_texts(), st.sampled_from(["", "\n"]))
@settings(max_examples=300, deadline=None)
def test_depth_scan_agrees_with_json_and_skips_strings_closed_or_open(texts, end):
    closed, cut = texts
    too_deep = json_depth(closed) > MAX_DEPTH
    assert inputs._too_deep(closed + end) is too_deep
    assert inputs._too_deep(cut + end) is too_deep


# The JSONL decoder reads lines with orjson where json reads them alike; the
# property below compares it with json alone. Numbers, bools and null name
# labels by their str(). 2**64 is the least integer that orjson reads as a
# float, 1.8446744073709552e+19, so both texts are labels of one manifest.
WIDE = str(2**64)
WIDE_AS_FLOAT = str(float(2**64))
# Arrays of each depth. A cell or an extra key's value nests one level
# inside its record and a score two: a line at the limit of MAX_DEPTH (100)
# levels and one a level past it hold a cell of DEEP[99] and DEEP[100], or
# a score of DEEP[98] and DEEP[99]. No decoder reads a line past the limit.
DEEP = {depth: "[" * depth + "]" * depth for depth in (98, 99, 100, 101, 600, 1100, 4000, 20000)}
EQUIVALENCE_MANIFESTS = [
    dict(MANIFEST, labels=["neg", "pos", WIDE, WIDE_AS_FLOAT, "1.5", "0", "True", "None"]),
    AUC_MANIFEST,
    dict(AUC_MANIFEST, labels=[WIDE_AS_FLOAT, WIDE]),
]
# JSON texts of record values: ODD_IDS, GOOD_SCORES and OTHER_VALUES (of a
# key beside the fields) may stand in a valid record, ODD_CELLS and
# ODD_SCORES make a record faulty
LABEL_LITERALS = [WIDE, WIDE_AS_FLOAT, "1.5", "0", "-0", "true", "null"]
ODD_IDS = st.one_of(  # valid sample ids but for repeats
    st.integers(-(2**70), 2**70).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(['"s\\ud800"', '"\\udc00\\ud800"', "true", "null", "[]", f"[{WIDE}]",
                     f'{{"k": {WIDE}}}', DEEP[99], DEEP[100], DEEP[600]]),
)
GOOD_SCORES = st.one_of(
    st.floats(0, 1).map(repr),
    st.sampled_from(["0", "1", "-0.0", "true", '"0.5"', "0.1" + "0" * 400, "1e-400"]),
)
ODD_CELLS = st.sampled_from([
    str(-(2**63) - 1), str(2**64 - 1), "1" + "0" * 30, "[]", f"[{WIDE}]", f'{{"k": {WIDE}}}',
    DEEP[1100], DEEP[4000], '"\\ud800"', '"Z"',
])
ODD_SCORES = st.sampled_from([
    "NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400, WIDE, "1.5", '"nan"', "null",
    "[0.5]", DEEP[98], DEEP[99], DEEP[1100], DEEP[4000],
])
OTHER_VALUES = st.sampled_from(
    ["1", WIDE, DEEP[99], DEEP[100], DEEP[101], DEEP[600], DEEP[4000], DEEP[20000]]
)


def json_object(pairs: list[tuple[str, str]]) -> str:
    return "{" + ", ".join(f"{json.dumps(key)}: {text}" for key, text in pairs) + "}"


@st.composite
def jsonl_record_lines(draw, labels: list[str], kind: str, faulty: bool, index: int) -> str:
    """The ``index``-th record line, which json reads into a valid record, or
    ``faulty`` some of the time a faulty one."""

    def cell(good, odd=ODD_CELLS):
        return draw(odd if faulty and draw(st.integers(0, 7)) == 0 else good)

    literals = [text for text in LABEL_LITERALS if str(json.loads(text)) in labels]
    label = st.sampled_from([*map(json.dumps, labels), *literals])
    pairs = [
        ("sample_id", cell(ODD_IDS if draw(st.integers(0, 3)) == 0 else st.just(f'"s{index}"'))),
        ("y", cell(label)),
        ("y_hat", cell(label)),
        ("group", cell(st.sampled_from(['"A"', '"B"']))),
    ]
    keys = [key for key in labels if draw(st.booleans()) or (kind == "auc" and key == labels[-1])]
    if faulty and draw(st.integers(0, 7)) == 0:
        keys.append(draw(st.sampled_from(labels + ["maybe"])))
    scores = [(key, cell(GOOD_SCORES, ODD_SCORES)) for key in keys]
    if scores:
        pairs.append(("scores", json_object(scores)))
    if faulty and draw(st.integers(0, 7)) == 0:
        pairs.append(("scores", draw(st.sampled_from(["null", "[0.4, 0.6]", DEEP[4000]]))))
    if draw(st.booleans()):  # a key beside the fields, or a field twice
        pairs.append(draw(st.one_of(
            st.tuples(st.just("extra"), OTHER_VALUES), st.sampled_from(pairs[:4])
        )))
    if faulty and draw(st.integers(0, 7)) == 0:
        del pairs[draw(st.integers(0, 3))]
    return json_object(pairs)


@st.composite
def jsonl_texts(draw) -> tuple[dict, str]:
    """A manifest and a JSONL text of records, and some of the time text faults,
    with line ends of one kind."""
    manifest = draw(st.sampled_from(EQUIVALENCE_MANIFESTS))
    faulty = draw(st.booleans())
    lines = []
    for index in range(draw(st.integers(2, 8))):
        record = jsonl_record_lines(manifest["labels"], manifest["utility_kind"], faulty, index)
        fault = st.one_of(
            st.sampled_from(
                ["", " ", "\t", "\x0c", "{bad", "[1, 2]", '"s"', "[" * 150, *DEEP.values()]
            ),
            record.map(lambda line: "\ufeff" + line),
            record.map(lambda line: "  " + line + "\t"),
        )
        lines.append(draw(st.one_of(record, record, record, fault) if faulty else record))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return manifest, end.join(lines) + (end if draw(st.booleans()) else "")


def _parse_outcome(path: Path) -> object:
    try:
        run = parse_run(path)
    except ParseError as exc:
        return type(exc), exc.line, str(exc)
    return run, list(run.sample_ids)


@given(jsonl_texts())
@settings(max_examples=300, deadline=None)
def test_jsonl_read_by_orjson_parses_as_read_by_json_alone(case):
    manifest, text = case
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "run.jsonl"
        with path.open("w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        (path.parent / "run.manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        # json reads some lines; which it accepts must not depend on the stack
        with recursion_limit(stack_depth() + MAX_DEPTH + 50):
            got = _parse_outcome(path)
        with recursion_limit(10_000):
            assert _parse_outcome(path) == got

        def refuse(raw):
            raise orjson.JSONDecodeError("refused", raw, 0)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(orjson, "loads", refuse)
            expected = _parse_outcome(path)
    assert got == expected


# A JSONL log is read in one pass, by slices of records._SLICE lines (256).
# The reference below is the line reader it replaced: each line decoded by
# orjson, by json where orjson rejects it, and the whole file again by json
# alone where a cell may hold an integer beyond 64 bits. The properties
# below compare the two on logs of lines on either side of the slice length.
def reference_wide_cells(columns: tuple[list, ...]) -> bool:
    """Whether orjson may read a cell otherwise than json does: an array or object
    cell, or a float of magnitude 2**63 or more (an integer outside 64 bits)."""
    for cells in columns:
        kinds = set(map(type, cells))
        if not kinds <= {str, int, float, bool, type(None)}:
            return True
        if float in kinds and any(abs(c) >= 2.0**63 for c in cells if type(c) is float):
            return True
    return False


def reference_decode_jsonl(path: Path, loads) -> tuple:
    """The line numbers, sample_id, y, y_hat and group columns and score maps of the
    records on the non-blank lines before the first faulty one, and that line's fault.

    Lines are numbered as iterating the text file yields them; a line is
    checked against MAX_DEPTH, then read by ``loads``, then by json where
    ``loads`` rejects it.
    """
    lines: list[int] = []
    columns: tuple[list, ...] = ([], [], [], [])
    maps: list[dict | None] = []
    with path.open("r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            try:
                if inputs._too_deep(raw):
                    raise ValueError
                value = loads(raw)
            except ValueError:
                if not raw.strip():
                    continue
                try:
                    value = inputs.json_value(raw)
                except ValueError as exc:
                    fault = MalformedLine(f"invalid JSON: {exc}", path=str(path), line=line_no)
                    return lines, columns, maps, fault
            fields = ("sample_id", "y", "y_hat", "group")
            if not isinstance(value, dict):
                message = "record is not a JSON object"
            elif any(name not in value for name in fields):
                message = f"missing field {next(n for n in fields if n not in value)!r}"
            elif value.get("scores") is not None and not isinstance(value["scores"], dict):
                message = "scores must be an object"
            else:
                lines.append(line_no)
                for column, name in zip(columns, fields):
                    column.append(value[name])
                maps.append(value.get("scores"))
                continue
            return lines, columns, maps, MalformedLine(message, path=str(path), line=line_no)
    return lines, columns, maps, None


def reference_parse_jsonl(path: Path) -> EvaluationRun:
    """The run of a JSONL log as the line reader read it: by orjson and json, and the
    whole file again by json alone where a cell may be wider than 64 bits."""
    lines, columns, maps, pending = reference_decode_jsonl(path, orjson.loads)
    if reference_wide_cells(columns):
        lines, columns, maps, pending = reference_decode_jsonl(path, inputs.json_value)
    manifest = _load_manifest(path)
    scores, fault = records._mapped_scores(maps, manifest.label_space.labels)
    return reference_finish_run(manifest, str(path), lines, columns, scores, fault, pending)


SLICE = records._SLICE
LINE_COUNTS = [1, 2, 7, SLICE - 1, SLICE, SLICE + 1, 2 * SLICE + 1]


def clean_line(labels: list[str], index: int, keys: set[str], null: bool) -> str:
    """The ``index``-th record line of a valid log: string cells, the scores of ``keys``
    (none: no ``scores``, or ``"scores": null``)."""
    record: dict[str, object] = {
        "sample_id": f"s{index}", "y": labels[index % 2], "y_hat": labels[index // 2 % 2],
        "group": "AB"[index % 2],
    }
    if keys or null:
        record["scores"] = {k: index % 11 / 10 for k in labels if k in keys} if keys else None
    return json.dumps(record)


def record_faults(labels: list[str], index: int) -> list[str]:
    """Lines of the ``index``-th record with a fault the line reader finds once every
    line is decoded: an unknown label or group, no scores or no positive score (an auc
    run's fault), and scores under an unknown key or out of range."""
    cells = {"sample_id": f"s{index}", "y": labels[0], "y_hat": labels[0], "group": "A"}
    return [json.dumps({**cells, **change}) for change in [
        {"y": "maybe"}, {"y_hat": "maybe"}, {"group": "Z"}, {}, {"scores": {labels[0]: 0.5}},
        {"scores": {"maybe": 0.5}}, {"scores": {labels[-1]: 1.5}}, {"scores": {}},
    ]]


@st.composite
def sliced_jsonl_texts(draw) -> tuple[dict, str]:
    """A manifest and a JSONL text of valid records, many lines long, of which a few
    lines are replaced by other records (faulty ones, some of the time), blank lines,
    text faults or copies of another line (a repeated id), with line ends of one kind."""
    manifest = draw(st.sampled_from(EQUIVALENCE_MANIFESTS))
    labels, kind = manifest["labels"], manifest["utility_kind"]
    count = draw(st.sampled_from(LINE_COUNTS))
    shapes = draw(st.lists(st.sets(st.sampled_from(labels[:2])), min_size=1, max_size=3))
    if kind == "auc":  # the positive score in each
        shapes = [keys | {labels[-1]} for keys in shapes]
    null = draw(st.booleans())
    lines = [clean_line(labels, i, shapes[i % len(shapes)], null) for i in range(count)]
    faulty = draw(st.booleans())
    edges = [i for i in (SLICE - 1, SLICE, 2 * SLICE - 1, 2 * SLICE, count - 1) if i < count]
    for _ in range(draw(st.integers(0, 4))):
        index = draw(st.one_of(st.integers(0, count - 1), st.sampled_from(edges)))
        record = jsonl_record_lines(labels, kind, faulty, index)
        blank = st.sampled_from(["", " ", "\t", "\x0c"])
        fault = st.one_of(
            st.sampled_from(["{bad", "[1, 2]", '"s"', "NaN", "[" * 150, *DEEP.values()]),
            st.sampled_from(lines),
            st.sampled_from(record_faults(labels, index)),
        )
        lines[index] = draw(st.one_of(record, record, blank, fault) if faulty else
                            st.one_of(record, blank))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return manifest, end.join(lines) + (end if draw(st.booleans()) else "")


def write_log(directory: Path, manifest: dict, text: str) -> Path:
    path = directory / "run.jsonl"
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    (directory / "run.manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return path


def _line_reader_outcome(path: Path) -> object:
    """:func:`_parse_outcome` of the reference line reader."""
    try:
        run = reference_parse_jsonl(path)
    except ParseError as exc:
        return type(exc), exc.line, str(exc)
    return run, list(run.sample_ids)


@given(sliced_jsonl_texts())
@settings(max_examples=300, deadline=None)
def test_jsonl_read_by_slices_parses_as_read_by_lines(case):
    with tempfile.TemporaryDirectory() as directory:
        path = write_log(Path(directory), *case)
        assert _parse_outcome(path) == _line_reader_outcome(path)


@pytest.mark.parametrize("count", [SLICE - 1, SLICE, SLICE + 1, 2 * SLICE + 1])
@pytest.mark.parametrize("manifest", [MANIFEST, AUC_MANIFEST], ids=["accuracy", "auc"])
def test_a_log_around_the_slice_length_is_read_by_slices_as_by_lines(tmp_path, count, manifest):
    labels = manifest["labels"]
    lines = [clean_line(labels, i, {"pos"} if i % 3 else {"neg", "pos"}, False)
             for i in range(count)]
    path = write_log(tmp_path, manifest, "\n".join(lines) + "\n")
    run = parse_run(path)
    assert len(run.sample_ids) == count
    assert (run, list(run.sample_ids)) == _line_reader_outcome(path)


# Lines that stand in for a valid record at a slice edge
EDGE_LINES = [
    ("blank line", ""),
    ("scores null", record_line("x", "neg", "neg", "A", None)[:-1] + ', "scores": null}'),
    ("invalid JSON", "{bad"),
    ("NaN score", raw_record("x", scores='{"pos": NaN}')),
    ("score above 1", raw_record("x", scores='{"pos": 1.5}')),
    ("unknown score key", raw_record("x", scores='{"maybe": 0.5}')),
    ("string score", raw_record("x", scores='{"pos": "0.5"}')),
    ("numeric id", '{"sample_id": 7, "y": "neg", "y_hat": "neg", "group": "A"}'),
    ("unknown group", record_line("x", "neg", "neg", "Z")),
    ("repeated id", record_line("s0", "neg", "neg", "A")),
    ("missing field", '{"sample_id": "x", "y": "neg", "group": "A"}'),
]


@pytest.mark.parametrize("index", [SLICE - 1, SLICE], ids=["last-of-slice-1", "first-of-slice-2"])
@pytest.mark.parametrize("case, line", EDGE_LINES, ids=[case[0] for case in EDGE_LINES])
def test_a_line_at_a_slice_edge_reads_as_by_lines(tmp_path, index, case, line):
    lines = [clean_line(MANIFEST["labels"], i, {"pos"}, False) for i in range(SLICE + 2)]
    lines[index] = line
    path = write_log(tmp_path, MANIFEST, "\n".join(lines) + "\n")
    outcome = _parse_outcome(path)
    assert outcome == _line_reader_outcome(path)
    assert isinstance(outcome[0], EvaluationRun) or outcome[1] == index + 1


def test_a_label_beyond_64_bits_is_read_as_json_reads_it(tmp_path):
    """orjson alone reads 18446744073709551616 as 1.8446744073709552e+19."""
    manifest = dict(MANIFEST, labels=["neg", WIDE])
    path = write_fixture(tmp_path, [
        record_line("s1", 2**64, 2**64, "A"), record_line("s2", "neg", "neg", "B"),
    ], manifest)
    lines, cells, maps, pending = reference_decode_jsonl(path, orjson.loads)
    scores, fault = records._mapped_scores(maps, tuple(manifest["labels"]))
    with pytest.raises(UnknownLabel, match="label '1.8446744073709552e\\+19' not in manifest"):
        reference_finish_run(_load_manifest(path), str(path), lines, cells, scores, fault, pending)
    assert [rec.true_label for rec in parse_run(path).records] == [WIDE, "neg"]
    assert _parse_outcome(path) == _line_reader_outcome(path)


def three_slices(**changes: str) -> list[str]:
    """Lines of a valid log of three slices, the last short; ``changes`` replaces the
    line at each index ``i<n>`` (a keyword per line)."""
    lines = [clean_line(["neg", "pos"], i, {"pos"}, False) for i in range(2 * SLICE + 5)]
    for key, line in changes.items():
        lines[int(key[1:])] = line
    return lines


NUMERIC = '{"sample_id": %d, "y": true, "y_hat": 1, "group": "A", "scores": {"pos": 1}}'


@pytest.mark.parametrize("lines, line_slices, json_slices", [
    (three_slices(i5=clean_line(["neg", "pos"], 5, {"pos"}, False)[:-1] + ', "path": [1]}'),
     [], []),
    (three_slices(**{f"i{i}": NUMERIC % (10_000 + i) for i in range(0, 2 * SLICE + 5, 3)}),
     [], []),
    (three_slices(i516="{bad"), [2 * SLICE + 1], []),
    (three_slices(i516=record_line("s516", "pos", "pos", "Z")), [], []),
    (three_slices(i300=record_line("s300", 2**64, "neg", "A")), [], [SLICE + 1]),
], ids=["clean, an extra key", "numeric and bool cells in every slice", "last line faulty",
        "unknown group on the last line", "a cell beyond 64 bits in slice 2"])
def test_a_log_is_read_in_one_pass_and_a_slice_again_only_where_refused(
    tmp_path, monkeypatch, lines, line_slices, json_slices
):
    """A log is opened once; a slice is decoded line by line only where one map of
    orjson refuses it, and by json only where it holds a cell beyond 64 bits."""
    path = write_fixture(tmp_path, lines, dict(MANIFEST, labels=["neg", "pos", "True", "1", WIDE]))
    manifest = _load_manifest(path)
    opened, decoded = [], []
    path_open, decode_lines = Path.open, records._decode_lines
    monkeypatch.setattr(
        Path, "open", lambda self, *args, **kw: opened.append(self) or path_open(self, *args, **kw)
    )
    monkeypatch.setattr(records, "_decode_lines", lambda raw, first, name, loads: (
        decoded.append((first, loads)) or decode_lines(raw, first, name, loads)
    ))
    with contextlib.suppress(MalformedLine, UnknownGroup):
        records._parse_jsonl(path, manifest)
    assert opened == [path]
    assert decoded == [*((first, orjson.loads) for first in line_slices),
                       *((first, records._json_line) for first in json_slices)]
    assert _parse_outcome(path) == _line_reader_outcome(path)


def test_a_file_of_another_suffix_is_no_record_format(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text(OK1 + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        parse_run(path)
    assert str(err.value) == f"{path}: unsupported record format 'txt'"
    run = make_run([("neg", "neg", "A"), ("pos", "pos", "B")])
    with pytest.raises(ParseError, match="unsupported record format 'txt'"):
        write_run(run, tmp_path / "x.TXT")
    assert [p.name for p in tmp_path.iterdir()] == ["x.txt"]  # no log and no sidecar


@pytest.mark.parametrize("name", ["run.jsonl", "run.csv"])
@pytest.mark.parametrize("case, message", [
    ("log gone", "{log}: file not found"),
    ("log and sidecar gone", "{log}: file not found"),
    ("log gone, sidecar faulty", "{log}: file not found"),
    ("sidecar gone", "{log}: manifest sidecar not found: {sidecar}"),
    ("sidecar a directory", "{sidecar}: is a directory, expected a file"),
    ("log a directory", "{log}: is a directory, expected a file"),
])
def test_a_missing_log_then_a_missing_sidecar_is_reported_first(tmp_path, name, case, message):
    """parse_run and read_log stat nothing ahead of reading, and report in the order of a
    check before it: the log, then its sidecar, then the sidecar's own fault."""
    log = write_fixture(tmp_path, ["not a record"], name=name)
    sidecar = inputs.manifest_path(log)
    if "log" in case:
        log.unlink()
    if case == "log a directory":  # beside a valid sidecar
        log.mkdir()
    if "sidecar gone" in case or "and sidecar" in case:
        sidecar.unlink()
    elif "faulty" in case:
        sidecar.write_text("{", encoding="utf-8")
    elif case == "sidecar a directory":
        sidecar.unlink()
        sidecar.mkdir()
    expected = message.format(log=log, sidecar=sidecar)
    for read in (parse_run, lambda path: records.read_log(path, inputs.log_kind(path))):
        with pytest.raises(ParseError) as err:
            read(log)
        assert str(err.value) == expected


def test_a_missing_table_is_file_not_found(tmp_path):
    for name in ("summ.csv", "t.json", "t.csv"):
        path = tmp_path / name
        reader = (parse_summaries if name == "summ.csv"
                  else lambda p: tables.read_table(p, inputs.kind(p), "gap"))
        with pytest.raises(ParseError) as err:
            reader(path)
        assert str(err.value) == f"{path}: file not found"


def test_a_run_whose_records_were_read_is_freed_without_the_cyclic_gc():
    run = make_run([("neg", "neg", "A"), ("pos", "pos", "B")])
    assert run.records[0].group == "A"
    freed = weakref.ref(run)
    enabled = gc.isenabled()
    gc.disable()  # commands run with it paused
    try:
        del run
        assert freed() is None
    finally:
        (gc.enable if enabled else gc.disable)()


def test_csv_write_of_a_lone_surrogate_id_leaves_no_file(tmp_path):
    source = write_fixture(tmp_path, [
        '{"sample_id": "a\\ud800", "y": "pos", "y_hat": "pos", "group": "A"}', OK2,
    ])
    run = parse_run(source)
    target = tmp_path / "x.csv"
    with pytest.raises(ValueError) as err:
        write_run(run, target)
    assert str(err.value) == (
        f"{target}: sample_id 'a\\ud800' holds a lone surrogate, which a CSV log cannot "
        "hold (JSONL escapes it)"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.jsonl", "run.manifest.json"]
    write_run(run, tmp_path / "x.jsonl")  # JSONL escapes the surrogate
    assert parse_run(tmp_path / "x.jsonl") == run


def test_csv_write_of_a_lone_surrogate_group_names_the_group(tmp_path):
    run = make_run([("neg", "neg", "A"), ("pos", "pos", "b\ud800")], groups=("A", "b\ud800"))
    with pytest.raises(ValueError, match="group 'b.ud800' holds a lone surrogate"):
        write_run(run, tmp_path / "x.csv")
    assert not any(tmp_path.iterdir())


ROUND_TRIP_IDS = st.text(alphabet="ab ,\"\x00\u2028\r\n\t\xe9", max_size=6)
ROUND_TRIP_GROUPS = ("A", 'b,"q"', "c d")


@st.composite
def record_runs(draw):
    """Valid runs built from rows: odd ids, partial score maps, either kind."""
    n_labels = draw(st.integers(2, 3))
    kind = "auc" if n_labels == 2 and draw(st.booleans()) else "accuracy"
    labels = ("neg", "pos", "other")[:n_labels]
    groups = ROUND_TRIP_GROUPS[: draw(st.integers(2, 3))]
    ids = draw(st.lists(ROUND_TRIP_IDS, min_size=len(groups), max_size=25, unique=True))
    scored = kind == "auc" or draw(st.booleans())
    score = st.one_of(st.floats(0.0, 1.0), st.integers(0, 8).map(lambda k: k / 8))
    records = []
    for i, sample_id in enumerate(ids):
        scores = None
        if scored:
            present = draw(st.lists(st.booleans(), min_size=n_labels, max_size=n_labels))
            if kind == "auc":
                present[-1] = True  # the positive label
            scores = {lb: draw(score) for lb, keep in zip(labels, present) if keep} or None
        records.append(
            PredictionRecord(
                sample_id=sample_id,
                true_label=draw(st.sampled_from(labels)),
                predicted_label=draw(st.sampled_from(labels)),
                group=groups[i] if i < len(groups) else draw(st.sampled_from(groups)),
                scores=scores,
            )
        )
    manifest = RunManifest(
        method="m", dataset="d", seed=0, split="test", utility_kind=kind,
        label_space=LabelSpace(labels=labels), group_space=GroupSpace(groups=groups),
    )
    return EvaluationRun.from_records(manifest, records), records


@given(record_runs())
@settings(max_examples=60, deadline=None)
def test_write_parse_reproduces_columns_rows_and_oracle(built):
    run, rows = built
    assert run.records == tuple(sorted(rows, key=lambda rec: rec.sample_id))
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("jsonl", "csv"):
            path = Path(tmp) / f"run.{fmt}"
            write_run(run, path)
            parsed = parse_run(path)
            assert parsed == run
            for name in ("sample_ids", "group", "y", "y_hat"):
                assert list(getattr(parsed, name)) == list(getattr(run, name))
            np.testing.assert_array_equal(parsed.scores, run.scores)
            assert parsed.records == run.records
            try:
                engine = metric_report(parsed)
            except (AllGroupsDegenerate, NoEvaluableClass) as exc:
                with pytest.raises(type(exc)):
                    oracle_metrics(parsed)
                continue
            oracle = oracle_metrics(parsed)
            for field in ("overall", "worst", "gap", "dp", "eqodd"):
                assert getattr(engine, field) == pytest.approx(getattr(oracle, field), abs=1e-12)
            assert sorted(engine.warnings) == sorted(oracle.warnings)


def reference_records(run: EvaluationRun, fmt: str) -> bytes:
    """A run's record file as written one record at a time.

    One ``json.dumps`` per JSONL record, with a ``scores`` object of the
    present scores in label order and none without one; a CSV row per
    record with ``repr`` of each score and a blank cell for an absent one.
    """
    labels = run.manifest.label_space.labels
    if fmt == "jsonl":
        lines = []
        for rec in run.records:
            obj = {"sample_id": rec.sample_id, "y": rec.true_label,
                   "y_hat": rec.predicted_label, "group": rec.group}
            if rec.scores:
                obj["scores"] = rec.scores
            lines.append(json.dumps(obj) + "\n")
        return "".join(lines).encode("utf-8")
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    scored = any(rec.scores for rec in run.records)
    writer.writerow(["sample_id", "y", "y_hat", "group",
                     *(f"score:{lb}" for lb in labels if scored)])
    for rec in run.records:
        cells = [rec.sample_id, rec.true_label, rec.predicted_label, rec.group]
        if scored:
            scores = rec.scores or {}
            cells += [repr(scores[lb]) if lb in scores else "" for lb in labels]
        writer.writerow(cells)
    return out.getvalue().encode("utf-8")


def assert_written_as_reference(run: EvaluationRun) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("jsonl", "csv"):
            path = Path(tmp) / f"run.{fmt}"
            write_run(run, path)
            assert path.read_bytes() == reference_records(run, fmt), fmt


@given(record_runs())
@settings(max_examples=60, deadline=None)
def test_written_bytes_equal_one_record_at_a_time(built):
    assert_written_as_reference(built[0])


ODD_LABELS = ("n eg", 'p"o\x00s', "\xe9")
ODD_GROUPS = ("A \x00", 'b,"q"', "c\xe9 d")


def _odd_run(scores=True) -> EvaluationRun:
    """Three records under names with spaces, NUL, quotes and a non-ASCII letter."""
    labels = ODD_LABELS
    manifest = RunManifest(
        method="m", dataset="d", seed=0, split="test", utility_kind="accuracy",
        label_space=LabelSpace(labels=labels), group_space=GroupSpace(groups=ODD_GROUPS),
    )
    maps = [{labels[0]: 0.25, labels[-1]: 0.75}, {labels[-1]: 1.0}, None] if scores else [None] * 3
    return EvaluationRun.from_records(manifest, [
        PredictionRecord(sample_id=f'{i}"\\\xe9', true_label=labels[i % len(labels)],
                         predicted_label=labels[-1], group=group, scores=scores_map)
        for i, (group, scores_map) in enumerate(zip(ODD_GROUPS, maps))
    ])


def _with_infinite_score() -> EvaluationRun:
    """A run built from columns, bypassing validation: one score is inf, one -inf."""
    run = _odd_run()
    scores = np.array(run.scores)  # (label, record)
    scores[1, 0], scores[0, 1] = math.inf, -math.inf
    return EvaluationRun(run.manifest, run.sample_ids, run.group, run.y, run.y_hat, scores)


def _with_scores_around_1e_4() -> EvaluationRun:
    """A run built from columns whose scores straddle 1e-4, below which repr writes an
    exponent and orjson does not: the first label's column has every score, the
    second's one alone."""
    run = _odd_run()
    scores = np.array(run.scores)  # (label, record)
    scores[0] = [math.nextafter(1e-4, 0), 1e-4, 2.5e-5]
    scores[1, 1] = 5e-324
    return EvaluationRun(run.manifest, run.sample_ids, run.group, run.y, run.y_hat, scores)


@pytest.mark.parametrize(
    "make",
    [_odd_run, lambda: _odd_run(scores=False), _with_infinite_score, _with_scores_around_1e_4],
    ids=["odd names, partial scores", "no scores", "infinite score", "scores around 1e-4"],
)
def test_written_bytes_of_runs_record_runs_does_not_draw(make):
    assert_written_as_reference(make())


def _cells(values: Sequence[float], non_finite=repr) -> list[str]:
    return [*records._score_cells(array("d", values), "s=", non_finite)]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
@settings(max_examples=300, deadline=None)
def test_score_cells_are_repr_of_every_finite_double(values):
    assert _cells(values) == _cells(values, json.dumps) == [f"s={v!r}" for v in values]


# Each side of every bound at which repr or orjson changes notation.
NOTATION_BOUNDS = [
    0.0, -0.0, 5e-324, math.nextafter(1e-4, 0), 1e-4, 0.1, 1 / 3,
    math.nextafter(1e16, 0), 1e16, 1.7976931348623157e308,
]


@pytest.mark.parametrize("value", NOTATION_BOUNDS + [-v for v in NOTATION_BOUNDS[2:]], ids=repr)
def test_score_cell_at_a_notation_bound_is_repr(value):
    """Alone, and among scores orjson writes as repr does, before and after an absent one."""
    assert _cells([value]) == [f"s={value!r}"]
    column = [0.5, value, math.nan, value, 0.25]
    assert _cells(column) == ["s=0.5", f"s={value!r}", "", f"s={value!r}", "s=0.25"]


def test_score_cells_of_a_column_longer_than_a_batch():
    """Cells that repr alone writes, absent and infinite scores land in their own rows
    wherever they fall among ``_SCORE_BATCH``-score slices."""
    batch = records._SCORE_BATCH
    n = 2 * batch + 3
    values = [(i % 97) / 97 for i in range(n)]
    for row, value in [(0, 1e-5), (batch - 1, math.inf), (batch, 1e20), (n - 2, -math.inf),
                       (n - 1, math.nan)]:
        values[row] = value
    want = ["" if v != v else f"s={json.dumps(v) if math.isinf(v) else repr(v)}" for v in values]
    assert _cells(values, json.dumps) == want
    assert _cells([]) == []


# Writes one run in each format with the columns given as JSON (scores or None) and
# prints whether orjson was loaded.
_WRITE_CHILD = """
import json, sys
from array import array
from nhfair.records import (EvaluationRun, GroupSpace, LabelSpace, RunManifest,
                            write_run)
manifest = RunManifest(method="m", dataset="d", seed=0, split="test",
                       utility_kind="accuracy", label_space=LabelSpace(labels=("a", "b")),
                       group_space=GroupSpace(groups=("g", "h")))
scores = json.loads(sys.argv[1])
codes = array("b", [0, 1])
run = EvaluationRun(manifest, ("s1", "s2"), codes, codes, codes,
                    scores and tuple(array("d", column) for column in scores))
write_run(run, "run.jsonl")
write_run(run, "run.csv")
print(json.dumps("orjson" in sys.modules))
"""


@pytest.mark.parametrize("scores, loaded", [(None, False), ([[0.25, 0.5], [0.75, 0.5]], True)],
                         ids=["unscored", "scored"])
def test_only_writing_scores_loads_orjson(tmp_path, scores, loaded):
    src = str(Path(records.__file__).parents[1])
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    child = subprocess.run(
        [sys.executable, "-c", _WRITE_CHILD, json.dumps(scores)], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True, text=True, check=False,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) is loaded
    assert parse_run(tmp_path / "run.jsonl") == parse_run(tmp_path / "run.csv")


class TestParseSummaries:
    def test_percent_values(self, tmp_path):
        path = tmp_path / "summ.csv"
        path.write_text(
            "run_id,method,adv,disadv,overall\nerm,run1,90.52%,83.76%,86.57%\n",
            encoding="utf-8",
        )
        rows = parse_summaries(path)
        assert len(rows) == 1
        assert rows[0].group_utilities == pytest.approx({"adv": 0.9052, "disadv": 0.8376})
        assert rows[0].overall == pytest.approx(0.8657)

    def test_percent_header_marker(self, tmp_path):
        path = tmp_path / "summ.csv"
        path.write_text(
            "run_id,method,adv%,disadv%,overall%\nr1,erm,90.52,83.76,86.57\n",
            encoding="utf-8",
        )
        rows = parse_summaries(path)
        assert rows[0].group_utilities["adv"] == pytest.approx(0.9052)

    def test_fraction_values(self, tmp_path):
        path = tmp_path / "summ.csv"
        path.write_text(
            "run_id,method,adv,disadv,overall\nr1,erm,0.9052,0.8376,0.8657\n",
            encoding="utf-8",
        )
        assert parse_summaries(path)[0].overall == 0.8657

    def test_out_of_range(self, tmp_path):
        path = tmp_path / "summ.csv"
        path.write_text(
            "run_id,method,adv,disadv,overall\nr1,erm,1.2,0.8,0.9\n", encoding="utf-8"
        )
        with pytest.raises(UtilityOutOfRange) as err:
            parse_summaries(path)
        assert err.value.line == 2

    def test_header_only_is_an_error_naming_the_file(self, tmp_path):
        path = tmp_path / "summ.csv"
        path.write_text("run_id,method,adv,disadv,overall\n\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            parse_summaries(path)
        assert (err.value.path, err.value.line) == (str(path), None)
        assert str(err.value) == f"{path}: summary table has a header but no rows"

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "summ.csv"
        path.write_text(
            "run_id,method,adv,disadv,overall\nr1,erm,0.9\n", encoding="utf-8"
        )
        with pytest.raises(MalformedRow) as err:
            parse_summaries(path)
        assert err.value.line == 2

    def test_optional_dp_eqodd_columns(self, tmp_path):
        path = tmp_path / "summ.csv"
        path.write_text(
            "run_id,method,adv%,disadv%,overall%,dp%,eqodd%\n"
            "r1,erm,90.52,83.76,86.57,67.20,81.91\n",
            encoding="utf-8",
        )
        row = parse_summaries(path)[0]
        assert row.dp == pytest.approx(0.672)
        assert row.eqodd == pytest.approx(0.8191)


class TestSpaces:
    def test_label_space_needs_two(self):
        with pytest.raises(ValueError):
            LabelSpace(labels=("only",))

    def test_positive_label_must_be_member(self):
        with pytest.raises(ValueError):
            LabelSpace(labels=("a", "b"), positive_label="c")

    def test_group_space_distinct(self):
        with pytest.raises(ValueError):
            GroupSpace(groups=("A", "A"))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: LabelSpace(("only",)), "label space needs at least 2 labels"),
            (lambda: GroupSpace(("A", "B", "A")), "groups must be distinct"),
            (lambda: _manifest(split="dev"),
             "split must be one of ('train', 'validation', 'test'), got 'dev'"),
            (lambda: _manifest(utility_kind="auc", label_space=LabelSpace(("a", "b", "c"))),
             "auc runs require a binary label space"),
            (lambda: _manifest()._replace(split="dev"),
             "split must be one of ('train', 'validation', 'test'), got 'dev'"),
            (lambda: LabelSpace(("a", "b"))._replace(positive_label="c"),
             "positive_label 'c' not in labels"),
        ],
        ids=["one label", "repeated groups", "split dev", "auc with three labels",
             "replaced split", "replaced positive label"],
    )
    def test_checks_keep_their_messages(self, build, message):
        """A space or manifest is checked when built, by ``_replace`` too."""
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == message

    def test_default_positive_label_is_the_last_label(self):
        space = LabelSpace(("neg", "pos"))
        assert space == (("neg", "pos"), "pos")
        assert space.size == 2


def _manifest(**changes: object) -> RunManifest:
    fields = {"method": "m", "dataset": "d", "seed": 1, "split": "test",
              "utility_kind": "accuracy", "label_space": LabelSpace(("neg", "pos")),
              "group_space": GroupSpace(("A", "B"))}
    return RunManifest(**{**fields, **changes})


@pytest.mark.parametrize("n_groups", [128, 129, 300])
@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_a_run_of_many_groups_is_read_into_the_smallest_code_type_that_holds_them(
    tmp_path, fmt, n_groups
):
    """Codes of up to 128 members are one byte; beyond that, two."""
    groups = tuple(f"g{i}" for i in range(n_groups))
    run = EvaluationRun.from_records(_manifest(group_space=GroupSpace(groups)), [
        PredictionRecord(f"s{i:03}", "neg", "pos", group) for i, group in enumerate(groups)
    ])
    assert run.group.typecode == ("b" if n_groups <= 128 else "h")
    assert list(run.group) == list(range(n_groups))
    write_run(run, tmp_path / f"run.{fmt}")
    assert parse_run(tmp_path / f"run.{fmt}") == run


def test_logs_of_the_same_labels_in_another_order_or_with_other_groups_keep_their_codes(
    tmp_path,
):
    """A label or group index is built once per distinct tuple of names in a process.
    Logs read one after another whose manifests name the same labels in another order
    (the same sorted tuple), or the same labels with other groups or the same groups in
    another order, each get the codes of their own manifest and the metric values of
    their own records."""
    rows = [  # every (group, true class) cell holds two records
        (f"s{i:02d}", y, y_hat, group)
        for i, (y, y_hat, group) in enumerate(
            [("c0", "c0", "A"), ("c0", "c1", "A"), ("c1", "c1", "A"), ("c1", "c2", "A"),
             ("c2", "c2", "A"), ("c2", "c2", "A"), ("c0", "c0", "B"), ("c0", "c0", "B"),
             ("c1", "c0", "B"), ("c1", "c1", "B"), ("c2", "c1", "B"), ("c2", "c2", "B")]
        )
    ]
    variants = [  # labels, groups, the group each record's group is renamed to
        (("c0", "c1", "c2"), ("A", "B"), {"A": "A", "B": "B"}),
        (("c2", "c0", "c1"), ("A", "B"), {"A": "A", "B": "B"}),
        (("c1", "c2", "c0"), ("A", "B"), {"A": "A", "B": "B"}),
        (("c0", "c1", "c2"), ("B", "A"), {"A": "A", "B": "B"}),
        (("c0", "c1", "c2"), ("X", "Y"), {"A": "X", "B": "Y"}),
        (("c2", "c1", "c0"), ("Y", "X"), {"A": "X", "B": "Y"}),
    ]
    base = None
    for fmt in ("jsonl", "csv"):
        for i, (labels, groups, rename) in enumerate(variants):
            # written as text, so that no code space of nhfair's writes the log
            lines = [record_line(s, y, y_hat, rename[g]) for s, y, y_hat, g in rows]
            if fmt == "csv":
                lines = ["sample_id,y,y_hat,group",
                         *(f"{s},{y},{y_hat},{rename[g]}" for s, y, y_hat, g in rows)]
            manifest = {**MANIFEST, "labels": [*labels], "groups": [*groups]}
            read = parse_run(write_fixture(tmp_path, lines, manifest, name=f"v{i}.{fmt}"))
            assert list(read.y) == [labels.index(y) for _, y, _, _ in rows], (fmt, i)
            assert list(read.y_hat) == [labels.index(p) for _, _, p, _ in rows], (fmt, i)
            assert list(read.group) == [groups.index(rename[g]) for *_, g in rows], (fmt, i)
            result, oracle = metric_report(read), oracle_metrics(read)
            assert result._replace(eqodd=None) == oracle._replace(eqodd=None), (fmt, i)
            assert result.eqodd == pytest.approx(oracle.eqodd, rel=1e-12), (fmt, i)
            base = base or result
            assert result.group_utilities == {
                rename[g]: u for g, u in base.group_utilities.items()
            }, (fmt, i)
            assert (result.overall, result.dp) == (base.overall, base.dp), (fmt, i)
            assert result.eqodd == pytest.approx(base.eqodd, rel=1e-12), (fmt, i)


def test_run_columns_are_standard_library_arrays_from_any_sequences():
    """numpy arrays of any dtype and plain lists build the same run: a tuple of ids,
    codes of the smallest signed type and one float array per label."""
    spec = CohortSpec.load(Path(__file__).parent / "data" / "cohort_binary.json")
    run = generate(spec, utility_kind="auc")
    ids, codes = list(run.sample_ids), [list(run.group), list(run.y), list(run.y_hat)]
    scores = [list(column) for column in run.scores]
    from_lists = EvaluationRun(run.manifest, ids[::-1], *(c[::-1] for c in codes),
                               [s[::-1] for s in scores])
    from_numpy = EvaluationRun(
        run.manifest, np.array(ids, dtype=object), np.array(codes[0], dtype=np.int64),
        np.array(codes[1], dtype=np.uint8), np.array(codes[2]) == 1, np.array(scores),
    )
    for built in (from_lists, from_numpy):
        assert built == run
        assert type(built.sample_ids) is tuple
        assert [c.typecode for c in (built.group, built.y, built.y_hat)] == ["b", "b", "b"]
        assert [type(c).__name__ + c.typecode for c in built.scores] == ["arrayd", "arrayd"]
    with pytest.raises(ValueError, match="column y has 3 values, expected"):
        EvaluationRun(run.manifest, ids, codes[0], [0, 1, 0], codes[2])


@pytest.mark.parametrize("column", ["two-dimensional int8", "numpy str"])
def test_a_code_column_that_is_no_one_dimensional_buffer_of_numbers_is_refused(column):
    """A (n, 2) int8 array has n rows and the byte format of a code column, so only its
    shape keeps its 2n bytes from being read as n codes; a str array is no buffer of
    numbers. Both are read item by item, and the items are no integers."""
    run = make_run([("neg", "neg", "A"), ("pos", "pos", "B"), ("pos", "neg", "A")])
    n = len(run.sample_ids)
    bad = (np.zeros((n, 2), dtype=np.int8) if column == "two-dimensional int8"
           else np.array([str(code) for code in run.group]))
    assert len(bad) == n
    with pytest.raises(TypeError):
        EvaluationRun(run.manifest, list(run.sample_ids), bad, run.y, run.y_hat)
