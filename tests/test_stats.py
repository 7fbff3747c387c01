"""Aggregation, ranking, Friedman statistic, Nemenyi CD, and cliques."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhfair.errors import (
    DegenerateMatrix,
    DuplicateSeed,
    InvalidSpec,
    MissingCell,
    ParseError,
    UnsupportedAlpha,
    UnsupportedK,
)
from nhfair.oracle import oracle_friedman
from nhfair.records import EvaluationRun, GroupSpace, LabelSpace, RunManifest
from nhfair.selection import RunResult
from nhfair.stats import (
    _Q_TABLE,
    RankMatrix,
    aggregate,
    cliques,
    friedman,
    mean_ranks,
    nemenyi_cd,
    rank_matrix,
)
from nhfair.svgplot import render_cd_plot
from nhfair.synth import CohortSpec
from nhfair.tables import ReportRow


def result(
    overall, method="m", dataset="d", seed=0, split="test", utility_kind="accuracy", warnings=()
):
    """One log's result: both groups at ``overall``, dp and eqodd 1."""
    return RunResult(
        run_id=f"{method}:{dataset}:seed{seed}:{split}",
        method=method,
        dataset=dataset,
        seed=seed,
        split=split,
        group_utilities={"A": overall, "B": overall},
        utility_kind=utility_kind,
        overall=overall,
        dp=1.0,
        eqodd=1.0,
        warnings=warnings,
    )


def cells_from_means(means: dict[str, dict[str, float]], metric="gap"):
    """means: method -> dataset -> mean."""
    out = []
    for method, per_dataset in means.items():
        for dataset, mean in per_dataset.items():
            out.append(
                ReportRow(
                    method=method, dataset=dataset, split="", utility_kind="accuracy",
                    n_seeds=5, metrics={metric: (mean, 0.0)},
                )
            )
    return out


class TestAggregate:
    def test_five_seed_mean(self):
        values = [0.865, 0.867, 0.866, 0.864, 0.8665]
        (row,) = aggregate([result(v, seed=i) for i, v in enumerate(values)])
        mean, std = row.metrics["utility"]
        assert mean * 100 == pytest.approx(86.57, abs=1e-9)
        assert row.n_seeds == 5
        expected_std = np.std(values, ddof=1)
        assert std == pytest.approx(expected_std, abs=1e-15)

    def test_single_seed_std_zero(self):
        (row,) = aggregate([result(0.9, seed=3)])
        assert row.n_seeds == 1
        assert all(std == 0.0 for _, std in row.metrics.values())

    def test_duplicate_seed(self):
        with pytest.raises(DuplicateSeed):
            aggregate([result(0.9, seed=1), result(0.8, seed=1)])

    def test_different_splits_do_not_collide(self):
        rows = aggregate([result(0.9, seed=1, split="validation"), result(0.8, seed=1)])
        assert {r.split for r in rows} == {"validation", "test"}

    def test_mixed_utility_kinds(self):
        with pytest.raises(ParseError) as caught:
            aggregate([result(0.9, seed=1), result(0.8, seed=2, utility_kind="auc")])
        assert str(caught.value) == "mixed utility kinds for method=m dataset=d"

    def test_duplicate_seed_reported_before_mixed_kinds(self):
        results = [
            result(0.9, method="a", seed=1),
            result(0.8, method="a", seed=2, utility_kind="auc"),
            result(0.8, method="b", seed=1),
            result(0.8, method="b", seed=1),
        ]
        with pytest.raises(DuplicateSeed, match=r"duplicate seed\(s\) \[1\] for method=b"):
            aggregate(results)

    def test_rows_in_table_order_with_warnings_merged_in_seed_order(self):
        results = [
            result(0.5, method="b", dataset="d1", seed=2, warnings=("w2", "w1")),
            result(0.7, method="z", dataset="d0", seed=1),
            result(0.5, method="b", dataset="d1", seed=1, warnings=("w1", "w3")),
        ]
        rows = aggregate(results)
        assert [(r.dataset, r.method) for r in rows] == [("d0", "z"), ("d1", "b")]
        assert rows[1].warnings == ("w1", "w3", "w2")  # seed 1, then seed 2
        assert aggregate(results[::-1]) == rows
        assert rows[1].utility_kind == "accuracy"
        assert list(rows[1].metrics) == ["utility", "worst", "gap", "eqodd", "dp"]


class TestRankMatrix:
    def test_single_block_lower_better(self):
        cells = cells_from_means({"m1": {"d": 3.0}, "m2": {"d": 1.0}, "m3": {"d": 2.0}})
        m = rank_matrix(cells, "gap")
        assert m.direction == "lower_better"
        assert [m.ranks[0][m.methods.index(name)] for name in ("m1", "m2", "m3")] == [3, 1, 2]

    def test_two_way_tie_gets_average_rank(self):
        cells = cells_from_means(
            {"m1": {"d": 1.0}, "m2": {"d": 1.0}, "m3": {"d": 2.0}}
        )
        m = rank_matrix(cells, "gap")
        ranks = {name: m.ranks[0][m.methods.index(name)] for name in m.methods}
        assert ranks == {"m1": 1.5, "m2": 1.5, "m3": 3.0}

    def test_missing_cell_named(self):
        cells = cells_from_means(
            {"oxonfair": {"d1": 1.0}, "erm": {"d1": 2.0, "fairface": 1.0}}
        )
        with pytest.raises(MissingCell) as err:
            rank_matrix(cells, "gap")
        assert "oxonfair" in str(err.value) and "fairface" in str(err.value)

    def test_higher_better_direction(self):
        cells = cells_from_means(
            {"m1": {"d": 0.9}, "m2": {"d": 0.8}}, metric="utility"
        )
        m = rank_matrix(cells, "utility")
        assert m.ranks[0][m.methods.index("m1")] == 1.0

    def test_rows_sum_to_k_triangle(self):
        cells = cells_from_means(
            {
                "m1": {"d1": 1.0, "d2": 5.0},
                "m2": {"d1": 1.0, "d2": 4.0},
                "m3": {"d1": 2.0, "d2": 4.0},
                "m4": {"d1": 9.0, "d2": 4.0},
            }
        )
        m = rank_matrix(cells, "gap")
        k = m.k
        for i in range(m.n_blocks):
            assert sum(m.ranks[i]) == k * (k + 1) / 2


def constant_rank_matrix(k=3, n=4):
    means = {f"m{j}": {f"d{i}": float(j) for i in range(n)} for j in range(1, k + 1)}
    return rank_matrix(cells_from_means(means), "gap")


class TestFriedman:
    def test_constant_ranks_fixture(self):
        statistic, df = friedman(constant_rank_matrix())
        assert statistic == pytest.approx(8.0, abs=1e-12)
        assert df == 2

    def test_all_tied_is_exactly_zero(self):
        means = {f"m{j}": {f"d{i}": 1.0 for i in range(4)} for j in range(3)}
        statistic, _ = friedman(rank_matrix(cells_from_means(means), "gap"))
        assert statistic == 0.0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            n = int(rng.integers(2, 9))
            means = {
                f"m{j}": {f"d{i}": float(rng.integers(0, 5)) for i in range(n)}
                for j in range(k)
            }
            m = rank_matrix(cells_from_means(means), "gap")
            statistic, _ = friedman(m)
            naive = oracle_friedman([list(map(float, row)) for row in m.ranks])
            assert statistic == pytest.approx(naive, abs=1e-10)

    def test_relabel_and_block_permutation_invariance(self):
        means = {
            "alpha": {"d1": 1.0, "d2": 3.0, "d3": 2.0},
            "beta": {"d1": 2.0, "d2": 1.0, "d3": 1.0},
            "gamma": {"d1": 5.0, "d2": 2.0, "d3": 4.0},
        }
        m1 = rank_matrix(cells_from_means(means), "gap")
        renamed = {"zz_" + k: v for k, v in means.items()}
        m2 = rank_matrix(cells_from_means(renamed), "gap")
        permuted = {
            method: {d: per[d] for d in ("d3", "d1", "d2")} for method, per in means.items()
        }
        m3 = rank_matrix(cells_from_means(permuted), "gap")
        assert friedman(m1)[0] == friedman(m2)[0] == friedman(m3)[0]

    def test_degenerate_sizes(self):
        cells = cells_from_means({"m1": {"d": 1.0}, "m2": {"d": 2.0}})
        with pytest.raises(DegenerateMatrix):
            friedman(rank_matrix(cells, "gap"))

    def test_tie_corrected_variant(self):
        means = {
            "m1": {"d1": 1.0, "d2": 1.0},
            "m2": {"d1": 1.0, "d2": 2.0},
            "m3": {"d1": 2.0, "d2": 3.0},
        }
        m = rank_matrix(cells_from_means(means), "gap")
        classical, _ = friedman(m)
        corrected, _ = friedman(m, tie_corrected=True)
        # one block has a 2-way tie: correction factor 1 - 6/(2*3*8) = 0.875
        assert corrected == pytest.approx(classical / 0.875, abs=1e-12)

    def test_tie_corrected_undefined_when_fully_tied(self):
        means = {f"m{j}": {f"d{i}": 1.0 for i in range(3)} for j in range(3)}
        m = rank_matrix(cells_from_means(means), "gap")
        with pytest.raises(DegenerateMatrix):
            friedman(m, tie_corrected=True)


class TestNemenyi:
    def test_k3_n4(self):
        assert nemenyi_cd(3, 4, 0.05) == pytest.approx(2.343701 * math.sqrt(0.5), abs=1e-9)
        assert nemenyi_cd(3, 4, 0.05) == pytest.approx(1.657, abs=1e-3)

    def test_k2_reduction(self):
        for n in (1, 4, 9, 25):
            assert nemenyi_cd(2, n, 0.05) == pytest.approx(1.959964 / math.sqrt(n), abs=1e-9)

    def test_unsupported_k(self):
        with pytest.raises(UnsupportedK):
            nemenyi_cd(25, 4, 0.05)
        with pytest.raises(UnsupportedK):
            nemenyi_cd(1, 4, 0.05)

    def test_unsupported_alpha(self):
        with pytest.raises(UnsupportedAlpha):
            nemenyi_cd(3, 4, 0.01)

    def test_monotone_in_n_and_k(self):
        for alpha in (0.05, 0.10):
            for k in range(2, 21):
                assert nemenyi_cd(k, 8, alpha) < nemenyi_cd(k, 7, alpha)
            for k in range(2, 20):
                assert nemenyi_cd(k + 1, 7, alpha) > nemenyi_cd(k, 7, alpha)

    def test_q_table_matches_integrated_studentized_range(self):
        # q_alpha(k) * sqrt(2) is the (1 - alpha) quantile of the studentized
        # range of k standard normals (infinite df), whose distribution is
        # P(R <= q) = k * integral phi(z) [Phi(z + q) - Phi(z)]^(k-1) dz.
        # Trapezoid rule on a 200,001-point grid over [-10, 10]; Newton on q.
        z = np.linspace(-10.0, 10.0, 200_001)
        h = z[1] - z[0]
        phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        cdf = 0.5 * (1.0 + np.frompyfunc(math.erf, 1, 1)(z / math.sqrt(2.0)).astype(float))

        def integral(f):
            return h * (f.sum() - 0.5 * (f[0] + f[-1]))

        def quantile(k, p):
            q = 3.0
            for _ in range(50):
                inner = np.interp(z + q, z, cdf, right=1.0) - cdf
                power = inner ** (k - 2)
                phi_shifted = np.exp(-0.5 * (z + q) ** 2) / math.sqrt(2.0 * math.pi)
                step = (k * integral(phi * power * inner) - p) / (
                    k * (k - 1) * integral(phi * phi_shifted * power)
                )
                q -= step
                if abs(step) < 1e-10:
                    return q
            raise AssertionError(f"no convergence for k={k}, p={p}")

        wrong = {}
        for alpha, row in _Q_TABLE.items():
            assert len(row) == 19
            for k, tabled in enumerate(row, start=2):
                computed = quantile(k, 1.0 - alpha) / math.sqrt(2.0)
                if abs(computed - tabled) > 1e-6:
                    wrong[(alpha, k)] = (tabled, round(computed, 6))
        assert wrong == {}


class TestCliques:
    def test_simple_pair(self):
        result = cliques({"m1": 1.0, "m2": 1.5, "m3": 3.5}, cd=1.0)
        assert result == [("m1", "m2")]

    def test_cd_spanning_everything(self):
        result = cliques({"m1": 1.0, "m2": 2.0, "m3": 3.0}, cd=10.0)
        assert result == [("m1", "m2", "m3")]

    def test_zero_cd_no_cliques(self):
        assert cliques({"m1": 1.0, "m2": 1.0, "m3": 2.0}, cd=0.0) == []

    def test_subset_suppression_and_intervals(self):
        ranks = {"a": 1.0, "b": 1.6, "c": 2.2, "d": 4.0}
        result = cliques(ranks, cd=1.3)
        assert result == [("a", "b", "c")]
        result = cliques(ranks, cd=0.7)
        assert result == [("a", "b"), ("b", "c")]
        for clique in result:
            positions = sorted("abcd".index(m) for m in clique)
            assert positions == list(range(positions[0], positions[-1] + 1))


def test_cd_plot_stacks_overlapping_clique_bars_and_reuses_free_levels():
    """Each clique is one bar from its best to its worst mean rank; a bar that
    overlaps the bar on a level goes one level lower, and one that starts after a
    level's last bar ends goes back up to that level."""
    ranks = {"a": 1.0, "b": 1.5, "c": 2.0, "d": 2.6, "e": 3.2, "f": 3.7}
    groups = cliques(ranks, cd=1.1)
    assert groups == [("a", "b", "c"), ("c", "d"), ("d", "e"), ("e", "f")]
    svg = render_cd_plot("gap", ranks, 1.1)
    bars = [
        tuple(float(line.split(f'{name}="')[1].split('"')[0]) for name in ("x1", "x2", "y1"))
        for line in svg.splitlines() if 'stroke-width="4"' in line
    ]
    left, span = 70, 800 - 2 * 70  # the rank axis runs from rank 1 to rank k

    def x_of(rank: float) -> float:
        return round(left + (rank - 1.0) / (len(ranks) - 1) * span, 2)

    assert [(x1, x2) for x1, x2, _ in bars] == [
        (x_of(ranks[members[0]]), x_of(ranks[members[-1]])) for members in groups
    ]
    top = bars[0][2]
    assert [y for _, _, y in bars] == [top, top + 5, top, top + 5]


# --- property tests ---------------------------------------------------------

@st.composite
def random_rank_inputs(draw):
    k = draw(st.integers(2, 6))
    n = draw(st.integers(2, 8))
    means = {
        f"m{j}": {f"d{i}": draw(st.integers(0, 4)) / 2.0 for i in range(n)}
        for j in range(k)
    }
    return means


@given(random_rank_inputs())
@settings(max_examples=60, deadline=None)
def test_rows_always_sum_to_triangle(means):
    m = rank_matrix(cells_from_means(means), "gap")
    for i in range(m.n_blocks):
        assert sum(m.ranks[i]) == m.k * (m.k + 1) / 2


@given(random_rank_inputs())
@settings(max_examples=60, deadline=None)
def test_friedman_zero_iff_equal_mean_ranks(means):
    m = rank_matrix(cells_from_means(means), "gap")
    statistic, _ = friedman(m)
    ranks = mean_ranks(m)
    equal = len(set(ranks.values())) == 1
    assert statistic >= -1e-9
    assert (abs(statistic) < 1e-9) == equal


@given(random_rank_inputs(), st.floats(0.0, 6.0))
@settings(max_examples=60, deadline=None)
def test_cliques_are_intervals_and_maximal(means, cd):
    m = rank_matrix(cells_from_means(means), "gap")
    ranks = mean_ranks(m)
    result = cliques(ranks, cd)
    ordered = sorted(ranks, key=lambda name: (ranks[name], name))
    for clique in result:
        assert len(clique) >= 2
        positions = sorted(ordered.index(x) for x in clique)
        assert positions == list(range(positions[0], positions[-1] + 1))
        assert ranks[ordered[positions[-1]]] - ranks[ordered[positions[0]]] < cd
    for a in result:
        for b in result:
            if a != b:
                assert not set(a) <= set(b)


def test_results_and_rows_survive_a_pickle_round_trip():
    """Forked readers send their results through a pipe pickled; a result, its group
    utilities and a table row come back equal and of their own types."""
    result = RunResult(
        run_id="m:d:seed1:test", method="m", dataset="d", seed=1, split="test",
        group_utilities={"A": 0.75, "B": 0.5}, utility_kind="auc",
        overall=0.625, dp=0.9, eqodd=0.8, warnings=("thin support",),
    )
    row = aggregate([result])[0]
    copies = [pickle.loads(pickle.dumps(v, pickle.HIGHEST_PROTOCOL)) for v in (result, row)]
    assert copies == [result, row]
    assert [*map(type, (*copies, copies[0].group_utilities))] == [
        RunResult, ReportRow, dict
    ]


def _spec_with_a_row_summing_to_1_2():
    rows = {"a": {"a": 0.7, "b": 0.5}, "b": {"a": 0.5, "b": 0.5}}
    return CohortSpec(seed=0, n_per_group={"A": 1, "B": 1},
                      class_prior={g: {"a": 0.5, "b": 0.5} for g in "AB"},
                      confusion_spec={"A": rows, "B": rows})


def _run_with_one_score_column():
    manifest = RunManifest(method="m", dataset="d", seed=0, split="test", utility_kind="auc",
                           label_space=LabelSpace(labels=("a", "b")),
                           group_space=GroupSpace(groups=("A", "B")))
    return EvaluationRun(manifest, ["s1", "s2"], [0, 1], [0, 1], [0, 1], scores=[[0.5, 0.5]])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: _spec_with_a_row_summing_to_1_2().validate(), InvalidSpec,
         "group A, label a: row does not sum to 1"),
        (_run_with_one_score_column, ValueError,
         "scores has 1 columns, expected one per label (2)"),
        (lambda: rank_matrix([], "f1"), ValueError, "unknown metric 'f1'"),
        (lambda: nemenyi_cd(3, 0), DegenerateMatrix, "need at least one block, got 0"),
        (lambda: render_cd_plot("utility", {"m": 1.0}, 0.5), ValueError,
         "need at least 2 methods to draw a CD plot"),
    ],
    ids=["row-sum", "score-columns", "unknown-metric", "no-block", "one-method"],
)
def test_library_guards_raise_their_class_and_message(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert str(raised.value) == message
