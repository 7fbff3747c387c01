"""Utopia/DTO selection, zone classification, and four-zone selection."""

from __future__ import annotations

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import point
from nhfair.errors import (
    EmptyCandidateSet,
    GroupSpaceMismatch,
    SelectionError,
)
from nhfair.oracle import oracle_select
from nhfair.selection import (
    ZONE_ORDER,
    Zone,
    ZoneTally,
    dto_select,
    fwh_select,
    utopia,
    zone_tally_table,
)


def zone_of(candidate, baseline, tolerance=0.0):
    """The zone ``fwh_select`` gives one candidate against the baseline."""
    return fwh_select([candidate], baseline, tolerance).candidate_zones[candidate.run_id]


def cloud():
    return [
        point("c1", {"g1": 0.90, "g2": 0.80}),
        point("c2", {"g1": 0.85, "g2": 0.85}),
        point("c3", {"g1": 0.95, "g2": 0.70}),
    ]


class TestUtopia:
    def test_per_coordinate_max(self):
        target = utopia(cloud())
        assert target == {"g1": 0.95, "g2": 0.85}

    def test_single_candidate(self):
        c = point("only", {"g1": 0.6, "g2": 0.7})
        assert utopia([c]) == {"g1": 0.6, "g2": 0.7}

    def test_identical_candidates(self):
        cs = [point(f"c{i}", {"g1": 0.5, "g2": 0.5}) for i in range(3)]
        assert utopia(cs) == {"g1": 0.5, "g2": 0.5}

    def test_empty_set(self):
        with pytest.raises(EmptyCandidateSet):
            utopia([])

    def test_group_mismatch(self):
        cs = [point("a", {"g1": 0.5, "g2": 0.5}), point("b", {"g1": 0.5, "gX": 0.5})]
        with pytest.raises(GroupSpaceMismatch):
            utopia(cs)


class TestDtoSelect:
    def test_three_point_cloud(self):
        best, distance = dto_select(cloud())
        assert best.run_id == "c1"
        assert distance == pytest.approx(math.sqrt(0.05**2 + 0.05**2), abs=1e-12)

    def test_single_candidate_distance_zero(self):
        best, distance = dto_select([point("only", {"g1": 0.6, "g2": 0.7})])
        assert best.run_id == "only"
        assert distance == 0.0

    def test_equidistant_tie_goes_to_higher_worst(self):
        # Both at distance sqrt(0.02) from utopia (0.9, 0.9).
        a = point("a", {"g1": 0.9, "g2": 0.8})
        b = point("b", {"g1": 0.8, "g2": 0.9})
        anchor = point("z", {"g1": 0.9, "g2": 0.9})
        best, _ = dto_select([a, b, anchor])
        assert best.run_id == "z"
        best, _ = dto_select([a, b])
        # utopia is (0.9, 0.9); a and b tie on distance and on worst (0.8),
        # so run_id breaks the tie
        assert best.run_id == "a"

    def test_worst_breaks_distance_tie(self):
        a = point("a", {"g1": 1.0, "g2": 0.80})
        b = point("b", {"g1": 0.90, "g2": 0.90})
        # utopia (1.0, 0.9): d(a) = 0.1, d(b) = 0.1; worst 0.80 vs 0.90
        best, _ = dto_select([a, b])
        assert best.run_id == "b"


class TestZoneOf:
    def test_published_pair_is_optimal(self, celeba_pair):
        erm, randaug = celeba_pair
        assert zone_of(randaug, erm) is Zone.OPTIMAL

    def test_boundary_is_optimal(self):
        base = point("base", {"g1": 0.8, "g2": 0.7})
        assert zone_of(point("c", {"g1": 0.8, "g2": 0.7}), base) is Zone.OPTIMAL

    def test_quadrants(self):
        base = point("base", {"adv": 0.9, "dis": 0.7})
        assert zone_of(point("c", {"adv": 0.91, "dis": 0.69}), base) is Zone.UNWANTED
        assert zone_of(point("c", {"adv": 0.89, "dis": 0.71}), base) is Zone.SUB_OPTIMAL
        assert zone_of(point("c", {"adv": 0.89, "dis": 0.69}), base) is Zone.DEGRADATION
        assert zone_of(point("c", {"adv": 0.91, "dis": 0.71}), base) is Zone.OPTIMAL

    def test_tolerance_band_attaches_to_pass_side(self):
        base = point("base", {"adv": 0.9, "dis": 0.7})
        cand = point("c", {"adv": 0.895, "dis": 0.71})
        assert zone_of(cand, base, tolerance=0.0) is Zone.SUB_OPTIMAL
        assert zone_of(cand, base, tolerance=0.01) is Zone.OPTIMAL

    def test_advantage_tie_notes_the_worst_group_rule(self):
        base = point("base", {"g1": 0.8, "g2": 0.8})
        result = fwh_select([point("c", {"g1": 0.85, "g2": 0.75})], base)
        assert result.rationale.endswith(
            "; baseline group utilities are tied; mixed candidates classified by the "
            "worst-group rule"
        )
        # first group in order is the worst-group fallback; it improved
        assert result.candidate_zones["c"] is Zone.SUB_OPTIMAL

    def test_three_groups(self):
        base = point("base", {"g1": 0.9, "g2": 0.8, "g3": 0.7})
        allup = point("c", {"g1": 0.91, "g2": 0.81, "g3": 0.71})
        alldown = point("c", {"g1": 0.89, "g2": 0.79, "g3": 0.69})
        worst_up = point("c", {"g1": 0.89, "g2": 0.79, "g3": 0.75})
        worst_down = point("c", {"g1": 0.95, "g2": 0.85, "g3": 0.65})
        assert zone_of(allup, base) is Zone.OPTIMAL
        assert zone_of(alldown, base) is Zone.DEGRADATION
        assert zone_of(worst_up, base) is Zone.SUB_OPTIMAL
        assert zone_of(worst_down, base) is Zone.UNWANTED

    def test_mismatch(self):
        with pytest.raises(GroupSpaceMismatch):
            zone_of(point("c", {"g1": 0.5, "gX": 0.5}), point("b", {"g1": 0.5, "g2": 0.5}))


class TestFwhSelect:
    def test_min_gap_wins_in_optimal(self):
        base = point("erm", {"adv": 0.905, "dis": 0.837})
        small_gap = point("a", {"adv": 0.906, "dis": 0.847})   # gap 0.059
        large_gap = point("b", {"adv": 0.916, "dis": 0.848})   # gap 0.068
        result = fwh_select([large_gap, small_gap], base)
        assert result.zone is Zone.OPTIMAL
        assert result.selected.run_id == "a"

    def test_priority_order_beats_smaller_gap(self):
        base = point("erm", {"adv": 0.9, "dis": 0.7})
        sub = point("sub", {"adv": 0.88, "dis": 0.72})   # SubOptimal, gap 0.16
        deg = point("deg", {"adv": 0.71, "dis": 0.69})   # Degradation, gap 0.02
        result = fwh_select([deg, sub], base)
        assert result.zone is Zone.SUB_OPTIMAL
        assert result.selected.run_id == "sub"

    def test_degradation_picks_closest_to_baseline(self):
        base = point("erm", {"adv": 0.9, "dis": 0.7})
        near = point("near", {"adv": 0.89, "dis": 0.69})
        far = point("far", {"adv": 0.75, "dis": 0.55})
        result = fwh_select([far, near], base)
        assert result.zone is Zone.DEGRADATION
        assert result.selected.run_id == "near"
        assert result.tally[Zone.DEGRADATION] == 2

    def test_tie_note_comes_from_the_zones_not_from_warnings(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("fwh_select must leave the process-wide warning state alone")

        monkeypatch.setattr(warnings, "warn", forbidden)
        monkeypatch.setattr(warnings, "catch_warnings", forbidden)
        base = point("erm", {"g1": 0.8, "g2": 0.8})
        result = fwh_select([point("mixed", {"g1": 0.85, "g2": 0.75})], base)
        assert result.rationale == (
            "Optimal empty; selected smallest-gap candidate in the SubOptimal zone; "
            "baseline group utilities are tied; mixed candidates classified by the "
            "worst-group rule"
        )
        result = fwh_select([point("up", {"g1": 0.85, "g2": 0.85})], base)
        assert result.rationale == "selected smallest-gap candidate in the Optimal zone"

    def test_all_unwanted_selects_nothing(self):
        base = point("erm", {"adv": 0.9, "dis": 0.7})
        bad = point("bad", {"adv": 0.95, "dis": 0.65})
        result = fwh_select([bad], base)
        assert result.selected is None
        assert result.zone is None
        assert result.tally_string == "0|0|0|1"
        assert "Unwanted" in result.rationale

    def test_tally_counts_all_candidates(self):
        base = point("erm", {"adv": 0.9, "dis": 0.7})
        cs = [
            point("o", {"adv": 0.91, "dis": 0.71}),
            point("s", {"adv": 0.89, "dis": 0.71}),
            point("d", {"adv": 0.89, "dis": 0.69}),
            point("u", {"adv": 0.91, "dis": 0.69}),
        ]
        result = fwh_select(cs, base)
        assert result.tally_string == "1|1|1|1"
        assert sum(result.tally.values()) == 4
        assert result.candidate_zones["u"] is Zone.UNWANTED

    def test_baseline_against_itself_is_optimal(self):
        base = point("erm", {"adv": 0.9, "dis": 0.7})
        clone = point("erm-clone", {"adv": 0.9, "dis": 0.7})
        bad = point("bad", {"adv": 0.95, "dis": 0.65})
        result = fwh_select([clone, bad], base)
        assert result.selected.run_id == "erm-clone"
        assert result.zone is Zone.OPTIMAL

    def test_gap_tie_broken_by_overall_then_run_id(self):
        base = point("erm", {"adv": 0.8, "dis": 0.6})
        a = point("a", {"adv": 0.85, "dis": 0.65}, overall=0.75)
        b = point("b", {"adv": 0.85, "dis": 0.65}, overall=0.80)
        result = fwh_select([a, b], base)
        assert result.selected.run_id == "b"
        c = point("c", {"adv": 0.85, "dis": 0.65}, overall=0.80)
        result = fwh_select([c, b], base)
        assert result.selected.run_id == "b"


class TestZoneTally:
    def test_all_optimal(self):
        base = point("erm", {"adv": 0.9, "dis": 0.7})
        results = {
            f"d{i}": fwh_select([point("c", {"adv": 0.91, "dis": 0.71})], base)
            for i in range(7)
        }
        tally = zone_tally_table(results)
        assert tally.text == "7|0|0|0"

    def test_mixed_zones(self):
        base = point("erm", {"adv": 0.9, "dis": 0.7})
        opt = fwh_select([point("c", {"adv": 0.91, "dis": 0.71})], base)
        sub = fwh_select([point("c", {"adv": 0.89, "dis": 0.71})], base)
        deg = fwh_select([point("c", {"adv": 0.89, "dis": 0.69})], base)
        results = {
            "d1": opt, "d2": opt, "d3": opt, "d4": opt,
            "d5": sub, "d6": deg, "d7": deg,
        }
        assert zone_tally_table(results).text == "4|1|2|0"

    def test_dataset_without_selection_is_omitted(self):
        base = point("erm", {"adv": 0.9, "dis": 0.7})
        opt = fwh_select([point("c", {"adv": 0.91, "dis": 0.71})], base)
        none = fwh_select([point("c", {"adv": 0.91, "dis": 0.69})], base)
        tally = zone_tally_table({"d1": opt, "d2": none})
        assert tally.text == "1|0|0|0"
        assert tally.omitted_datasets == ("d2",)

    def test_str_is_the_text(self):
        counts = dict(zip(ZONE_ORDER, (3, 0, 12, 1)))
        assert str(ZoneTally(counts=counts)) == "3|0|12|1"


# --- property tests ---------------------------------------------------------

grid_util = st.integers(0, 100).map(lambda v: v / 100.0)


@st.composite
def candidate_clouds(draw, max_size=20):
    n = draw(st.integers(1, max_size))
    return [
        point(f"c{i:02d}", {"g1": draw(grid_util), "g2": draw(grid_util)}) for i in range(n)
    ]


@given(candidate_clouds())
@settings(max_examples=60, deadline=None)
def test_dominated_candidate_never_changes_dto(cs):
    best_before, _ = dto_select(cs)
    anchor = cs[0]
    dominated = point(
        "zzz-dominated",
        {
            "g1": max(anchor.group_utilities["g1"] - 0.25, 0.0),
            "g2": max(anchor.group_utilities["g2"] - 0.25, 0.0),
        },
    )
    if (
        dominated.group_utilities["g1"] >= anchor.group_utilities["g1"]
        or dominated.group_utilities["g2"] >= anchor.group_utilities["g2"]
    ):
        return  # not strictly dominated (anchor already at 0)
    best_after, _ = dto_select(cs + [dominated])
    assert best_after.run_id == best_before.run_id


@given(candidate_clouds(), st.sampled_from([1.0, 0.5, 0.25]))
@settings(max_examples=60, deadline=None)
def test_dto_invariant_under_power_of_two_scaling(cs, scale):
    best_before, _ = dto_select(cs)
    scaled = [
        point(
            c.run_id,
            {g: u * scale for g, u in c.group_utilities.items()},
            overall=c.overall * scale,
        )
        for c in cs
    ]
    best_after, _ = dto_select(scaled)
    assert best_after.run_id == best_before.run_id


@given(candidate_clouds(max_size=12), st.sampled_from([0.0, 0.01]))
@settings(max_examples=60, deadline=None)
def test_selected_candidate_matches_claimed_zone(cs, tolerance):
    baseline = point("base", {"g1": 0.6, "g2": 0.55})
    result = fwh_select(cs, baseline, tolerance=tolerance)
    expected = oracle_select(cs, baseline, tolerance)
    assert result.candidate_zones == expected.candidate_zones
    if result.selected is not None:
        assert expected.candidate_zones[result.selected.run_id] is result.zone
    assert sum(result.tally.values()) == len(cs)


def test_zone_partition_tiles_the_plane():
    baseline = point("base", {"adv": 0.8, "dis": 0.6})
    tolerance = 0.01
    grid = {
        f"c{i:02d}-{j:02d}": (0.7 + i * 0.005, 0.5 + j * 0.005)
        for i in range(41)
        for j in range(41)
    }
    candidates = [point(run_id, {"adv": adv, "dis": dis}) for run_id, (adv, dis) in grid.items()]
    zones = fwh_select(candidates, baseline, tolerance).candidate_zones
    for run_id, (adv, dis) in grid.items():
        adv_ok = adv >= 0.8 - tolerance
        dis_ok = dis >= 0.6 - tolerance
        expected = {
            (True, True): Zone.OPTIMAL,
            (False, True): Zone.SUB_OPTIMAL,
            (False, False): Zone.DEGRADATION,
            (True, False): Zone.UNWANTED,
        }[(adv_ok, dis_ok)]
        assert zones[run_id] is expected


def test_an_empty_candidate_set_is_refused_by_both_selections():
    baseline = point("base", {"g1": 0.6, "g2": 0.55})
    with pytest.raises(EmptyCandidateSet, match="^dto selection needs at least one candidate$"):
        dto_select([])
    with pytest.raises(EmptyCandidateSet, match="^selection needs at least one candidate$"):
        fwh_select([], baseline)


def test_a_negative_tolerance_is_refused():
    baseline = point("base", {"g1": 0.6, "g2": 0.55})
    with pytest.raises(ValueError, match="^tolerance must be >= 0$"):
        fwh_select(cloud()[:1], baseline, tolerance=-0.1)


def test_fwh_select_refuses_a_repeated_run_id_naming_it():
    baseline = point("base", {"g1": 0.6, "g2": 0.55})
    candidates = [*cloud(), point("c2", {"g1": 0.7, "g2": 0.7})]
    with pytest.raises(SelectionError) as err:
        fwh_select(candidates, baseline)
    assert str(err.value) == "duplicate candidate run_id(s): c2"
