import ast
import importlib
import inspect
import random
from array import array
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tile_oracle import (
    FlipUnavailableError,
    apply_flip,
    available_flips,
    extremal_tiling,
    opposite,
    orientation_by_vertices,
    orientation_of,
    tile_route_graph,
    tiling_from_heights,
    tiling_from_tiles,
    tiling_of_orientation,
    validate,
)
from zonotiling import (
    NonGenericHeightError,
    make_config,
    sigma_h,
    standard_config,
    tiling_to_svg,
)
from zonotiling.core import circuit_for, colex_pairs, colex_triples, num_triples
from zonotiling.flipgraph import FlipGraph
from zonotiling.secondary import _census
from zonotiling.tiling import key_offsets


def chord_offsets(cfg, heights):
    """Oracle for the regular-tiling construction: solve each 2x2 chord
    system independently and collect the strictly-above points."""
    heights = [Fraction(h) for h in heights]
    tiles = []
    for j in range(2, cfg.n + 1):
        for i in range(1, j):
            ai, aj = cfg.coord(i), cfg.coord(j)
            # line p*x + q through (ai, h_i), (aj, h_j) by Cramer
            det = ai - aj
            p = (heights[i - 1] - heights[j - 1]) / det
            q = (ai * heights[j - 1] - aj * heights[i - 1]) / det
            above = [
                m
                for m in range(1, cfg.n + 1)
                if m not in (i, j) and heights[m - 1] > p * cfg.coord(m) + q
            ]
            tiles.append((above, (i, j)))
    return tiles


class TestFromHeights:
    def test_two_points_single_tile(self):
        cfg = make_config([0, 1])
        t = tiling_from_heights(cfg, (0, 5))
        assert t == tiling_from_tiles(2, [([], (1, 2))])

    def test_three_point_fixture(self):
        cfg = make_config([0, 1, 2])
        t = tiling_from_heights(cfg, (0, 1, 4))
        expect = tiling_from_tiles(3, chord_offsets(cfg, (0, 1, 4)))
        assert t == expect
        assert t == tiling_from_tiles(3, [([3], (1, 2)), ([], (1, 3)), ([1], (2, 3))])
        assert orientation_of(t) == sigma_h(cfg, (0, 1, 4))

    def test_degenerate_heights_rejected(self):
        cfg = make_config([0, 1, 2])
        with pytest.raises(NonGenericHeightError) as exc:
            tiling_from_heights(cfg, (0, 1, 2))
        assert exc.value.triple == (1, 2, 3)

    @given(
        st.lists(st.fractions(-20, 20, max_denominator=6), min_size=5, max_size=5, unique=True),
        st.lists(st.fractions(-40, 40, max_denominator=7), min_size=5, max_size=5),
        st.sampled_from(colex_triples(5)),
    )
    def test_round_trip_and_oracles(self, coords, heights, triple):
        cfg = make_config(sorted(coords))
        try:
            sig = sigma_h(cfg, heights)
        except NonGenericHeightError:
            with pytest.raises(NonGenericHeightError):
                tiling_from_heights(cfg, heights)
        else:
            t = tiling_from_heights(cfg, heights)
            assert t == tiling_from_tiles(5, chord_offsets(cfg, heights))
            assert orientation_of(t) == sig
            assert orientation_by_vertices(t) == sig
            assert validate(cfg, t).ok
        # lift point q onto the chord through points p and r
        p, q, r = triple
        a = cfg.coords
        flat = list(heights)
        flat[q - 1] = flat[p - 1] + (flat[r - 1] - flat[p - 1]) * (a[q - 1] - a[p - 1]) / (
            a[r - 1] - a[p - 1]
        )
        for build in (sigma_h, tiling_from_heights):
            with pytest.raises(NonGenericHeightError) as exc:
                build(cfg, flat)
            assert circuit_for(cfg, *exc.value.triple).dot(flat) == 0


class TestExtremal:
    def test_three_point_census(self):
        cfg = make_config([0, 1, 2])
        assert extremal_tiling(cfg, "min").offset_size_census() == (1, 2)
        assert extremal_tiling(cfg, "max").offset_size_census() == (2, 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_census_signature(self, n):
        cfg = standard_config(n)
        assert extremal_tiling(cfg, "min").offset_size_census() == tuple(
            ell + 1 for ell in range(n - 1)
        )
        assert extremal_tiling(cfg, "max").offset_size_census() == tuple(
            n - 1 - ell for ell in range(n - 1)
        )

    def test_orientations_fully_opposed(self):
        cfg = standard_config(5)
        mn = orientation_of(extremal_tiling(cfg, "min"))
        mx = orientation_of(extremal_tiling(cfg, "max"))
        assert mn.bits == 0
        assert mx == mn.negated()
        assert mx.inversions() == 10

    def test_n2_min_equals_max(self):
        cfg = make_config([0, 1])
        assert extremal_tiling(cfg, "min") == extremal_tiling(cfg, "max")

    def test_bad_which(self):
        with pytest.raises(ValueError):
            extremal_tiling(standard_config(3), "middle")


class TestOrientation:
    def test_negative_fixture(self):
        t = tiling_from_tiles(3, [([], (1, 2)), ([2], (1, 3)), ([], (2, 3))])
        assert list(orientation_of(t).signs()) == [-1]
        assert list(orientation_by_vertices(t).signs()) == [-1]

    def test_fast_rule_matches_vertex_rule_everywhere(self):
        tilings = tile_route_graph(standard_config(4))[3]
        for t in tilings:
            assert orientation_of(t) == orientation_by_vertices(t)
        assert len(tilings) == 8

    def test_corrupt_tiling_detected(self):
        t = tiling_from_tiles(3, [([], (1, 2)), ([], (1, 3)), ([], (2, 3))])
        with pytest.raises(ValueError, match="corrupt"):
            orientation_by_vertices(t)

    @pytest.mark.parametrize("n", [3, 5, 8, 9])
    def test_key_rebuilds_the_tiling_along_a_flip_walk(self, n):
        # n = 9 needs two bytes per offset
        rng = random.Random(n)
        t = extremal_tiling(standard_config(n), "min")
        assert tiling_of_orientation(n, 0) == t
        keys = []
        for _ in range(60):
            t = apply_flip(t, rng.choice(available_flips(t)))
            keys.append(orientation_of(t).bits)
            assert tiling_of_orientation(n, keys[-1]) == t
        # the census of the walk's keys alone, as a graph without edges
        self.assert_census_matches(
            FlipGraph(standard_config(n), keys, array("i"), b"", array("i", [0] * (len(keys) + 1)))
        )

    @pytest.mark.parametrize("n", [3, 4, 8, 9])
    def test_any_key_reads_back(self, n):
        # orientation_of reads bit q of the {p, r} offset, which only the
        # bit of (p, q, r) toggles, so even a key that orients no tiling
        # reads back
        rng = random.Random(n)
        count = num_triples(n)
        for key in (0, (1 << count) - 1, *(rng.getrandbits(count) for _ in range(50))):
            assert orientation_of(tiling_of_orientation(n, key)).bits == key

    @pytest.mark.parametrize("key", [-1, 1 << 10])
    def test_key_out_of_range(self, key):
        with pytest.raises(ValueError, match="10 circuits"):
            key_offsets(5, key)

    @staticmethod
    def assert_census_matches(graph):
        # byte s of a node's census row counts its tiles of offset size below s
        n = graph.n
        census = _census(graph)
        assert len(census) == n * len(graph)
        for v, key in enumerate(graph.keys):
            sizes = [mask.bit_count() for mask in tiling_of_orientation(n, key).offsets]
            assert list(census[v * n:(v + 1) * n]) == [sum(z < s for z in sizes) for s in range(n)]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_offset_sizes_read_off_every_key(self, graphs, n):
        self.assert_census_matches(graphs(n))


@pytest.mark.slow
def test_offset_sizes_read_off_every_key_n7(graphs):
    TestOrientation.assert_census_matches(graphs(7))


class TestFlips:
    def test_no_flips_for_two_points(self):
        assert available_flips(extremal_tiling(make_config([0, 1]), "min")) == []

    def test_three_point_brute_force(self):
        # only two valid tilings exist; each admits exactly the one flip
        # towards the other
        cfg = make_config([0, 1, 2])
        mn = extremal_tiling(cfg, "min")
        mx = extremal_tiling(cfg, "max")
        moves = available_flips(mn)
        assert len(moves) == 1 and moves[0].raising and moves[0].level == 1
        assert apply_flip(mn, moves[0]) == mx
        back = available_flips(mx)
        assert len(back) == 1 and not back[0].raising
        assert apply_flip(mx, back[0]) == mn

    def test_flip_toggles_one_orientation_bit(self):
        cfg = standard_config(5)
        rng = random.Random(3)
        t = extremal_tiling(cfg, "min")
        for _ in range(60):
            moves = available_flips(t)
            mv = moves[rng.randrange(len(moves))]
            s = apply_flip(t, mv)
            diff = orientation_of(t).bits ^ orientation_of(s).bits
            assert diff.bit_count() == 1
            assert validate(cfg, s).ok
            changed = [
                pair
                for pair, a, b in zip(colex_pairs(cfg.n), t.offsets, s.offsets)
                if a != b
            ]
            assert len(changed) == 3
            t = s

    def test_flip_involution(self):
        cfg = standard_config(4)
        t = extremal_tiling(cfg, "min")
        for mv in available_flips(t):
            s = apply_flip(t, mv)
            reverse = [m for m in available_flips(s) if m.triple == mv.triple]
            assert len(reverse) == 1
            assert apply_flip(s, reverse[0]) == t

    def test_unavailable_flip_rejected(self):
        cfg = standard_config(4)
        mn = extremal_tiling(cfg, "min")
        mv = available_flips(mn)[0]
        other = apply_flip(mn, mv)
        with pytest.raises(FlipUnavailableError):
            apply_flip(other, mv)

    def test_levels_within_range(self):
        cfg = standard_config(6)
        for mv in available_flips(extremal_tiling(cfg, "min")):
            assert 1 <= mv.level <= 4


class TestOpposite:
    def test_involution_and_extremes(self):
        cfg = standard_config(5)
        mn = extremal_tiling(cfg, "min")
        mx = extremal_tiling(cfg, "max")
        assert opposite(mn) == mx
        assert opposite(opposite(mn)) == mn

    def test_three_point_fixture(self):
        t = tiling_from_tiles(3, [([], (1, 2)), ([2], (1, 3)), ([], (2, 3))])
        expect = tiling_from_tiles(3, [([3], (1, 2)), ([], (1, 3)), ([1], (2, 3))])
        assert opposite(t) == expect

    def test_census_reversal_and_orientation_negation(self):
        cfg = standard_config(5)
        t = tiling_from_heights(cfg, (3, -1, 0, 8, 23))
        op = opposite(t)
        assert op.offset_size_census() == t.offset_size_census()[::-1]
        assert orientation_of(op) == orientation_of(t).negated()
        assert validate(cfg, op).ok


class TestValidate:
    def test_sound_construction_passes(self):
        cfg = standard_config(4)
        rep = validate(cfg, tiling_from_heights(cfg, (0, 3, 1, 10)))
        assert rep.ok and not rep.failures()

    def test_duplicate_pair_fails(self):
        cfg = make_config([0, 1, 2])
        rep = validate(cfg, [([], (1, 2)), ([3], (1, 2)), ([], (2, 3))])
        names = {c.name for c in rep.failures()}
        assert "pair-uniqueness" in names

    def test_vertex_count_value(self):
        cfg = standard_config(4)
        t = tiling_from_heights(cfg, (0, 3, 1, 10))
        assert len(t.vertex_masks()) == 11

    def test_offset_meeting_pair_fails(self):
        cfg = make_config([0, 1, 2])
        rep = validate(cfg, [([1], (1, 2)), ([2], (1, 3)), ([], (2, 3))])
        assert "offset-disjoint" in {c.name for c in rep.failures()}

    @pytest.mark.parametrize("bad", [(0, 2), (1, 5), (2, 1)])
    def test_pair_outside_range_fails_without_raising(self, bad):
        cfg = make_config([0, 1, 2])
        rep = validate(cfg, [(0, bad), (0, (1, 3)), (0, (2, 3))])
        assert [c.name for c in rep.checks] == [
            "pair-uniqueness",
            "offset-disjoint",
            "area-conservation",
            "vertex-count",
            "orientation-consistency",
        ]
        [uniqueness] = [c for c in rep.failures() if c.name == "pair-uniqueness"]
        assert f"outside 1 <= i < j <= 3: [{bad}]" in uniqueness.detail
        assert "missing [(1, 2)]" in uniqueness.detail

    def test_orientation_ambiguity_fails(self):
        cfg = make_config([0, 1, 2])
        rep = validate(cfg, [([], (1, 2)), ([], (1, 3)), ([], (2, 3))])
        assert "orientation-consistency" in {c.name for c in rep.failures()}


class TestSerialization:
    def test_duplicate_tile_rejected(self):
        with pytest.raises(ValueError, match="more than once"):
            tiling_from_tiles(3, [([], (1, 2)), ([], (1, 2)), ([], (2, 3))])

    def test_missing_tile_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            tiling_from_tiles(3, [([], (1, 2))])

    def test_svg_single_parallelogram(self):
        cfg = make_config([0, 1])
        svg = tiling_to_svg(cfg, key_offsets(2, 0))
        assert svg.count("<polygon") == 1
        assert svg.startswith("<svg")


def _imported_modules(path):
    """Every module a file imports from, each imported name traced to where it is defined."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module
            source = importlib.import_module(node.module)
            for alias in node.names:
                defined = inspect.getmodule(getattr(source, alias.name))
                yield node.module if defined is None else defined.__name__


@pytest.mark.parametrize("oracle", ["tile_oracle.py", "full_tableau_oracle.py", "fm_oracle.py"])
def test_oracles_import_nothing_from_the_key_route(oracle):
    # a reference that shared code with the route it checks would check nothing
    key_route = {f"zonotiling.{m}" for m in ("flipgraph", "hypertri", "regularity", "secondary")}
    imported = set(_imported_modules(Path(__file__).with_name(oracle)))
    assert not imported & key_route
