import hashlib
import json
import random
from array import array
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from component_labels import component_labels
from strategies import configurations
from tile_oracle import tiling_from_tiles, tiling_of_orientation, vert_k
from zonotiling import cli, secondary
from zonotiling import (
    enumerate_tilings,
    diameter_report,
    equivalence_classes,
    graph_diameter,
    make_config,
    modified_potential,
    potential,
    regular_set,
    skeleton,
    standard_config,
)
from zonotiling.core import Finding, integer_coords, key_store
from zonotiling.flipgraph import FlipGraph
from zonotiling.secondary import _vert_k_distinct, _vert_k_ids, potential_between


class TestVertK:
    def test_fixture(self):
        cfg = make_config([0, 1, 2])
        t = tiling_from_tiles(3, [([], (1, 2)), ([2], (1, 3)), ([], (2, 3))])
        assert vert_k(cfg, t, 1) == (0, 2, 0)
        assert vert_k(cfg, t, 0) == (0, 0, 0)  # both size-0 tiles have empty offset

    def test_out_of_range_level_gives_zero_vector(self):
        cfg = standard_config(4)
        t = tiling_of_orientation(4, enumerate_tilings(cfg).keys[3])
        assert vert_k(cfg, t, 9) == (0, 0, 0, 0)

    def test_integer_valued_on_integer_coords(self, graphs):
        cfg = standard_config(5)
        for key in graphs(5).keys[:10]:
            t = tiling_of_orientation(5, key)
            for k in range(4):
                assert all(v.denominator == 1 for v in vert_k(cfg, t, k))

    def test_transport(self, graphs):
        # vert_k moves across an edge exactly when the edge level equals k
        cfg = standard_config(5)
        g = graphs(5)
        tilings = [tiling_of_orientation(5, key) for key in g.keys]
        vecs = {k: [vert_k(cfg, t, k) for t in tilings] for k in range(1, 4)}
        for u, v, level in g.undirected_edges():
            for k in range(1, 4):
                changed = vecs[k][u] != vecs[k][v]
                assert changed == (level == k)


class TestIntegerVertK:
    """diameter_report compares vert_k through ids of packed integer vectors."""

    @staticmethod
    def assert_ids_match_fractions(g, nodes):
        """At every level, two of the nodes share an id exactly when the tile
        route's Fraction vectors are equal."""
        n = g.n
        ids = _vert_k_ids(g, nodes)
        tilings = [tiling_of_orientation(n, g.keys[v]) for v in nodes]
        for k in range(1, n - 1):
            pairs = {
                (vert_k(g.config, t, k), ids[v * (n - 2) + k - 1]) for v, t in zip(nodes, tilings)
            }
            assert len(pairs) == len({vec for vec, _ in pairs}) == len({i for _, i in pairs})

    @classmethod
    def check(cls, cfg):
        g = enumerate_tilings(cfg)
        regs = regular_set(g).nodes
        scale, coords = integer_coords(cfg)
        assert scale == lcm(*(a.denominator for a in cfg.coords))
        assert coords == tuple(int(a * scale) for a in cfg.coords)
        cls.assert_ids_match_fractions(g, range(len(g)))
        ids = _vert_k_ids(g, ())
        rng = random.Random(len(g))
        for k in range(1, cfg.n - 1):
            fractions = [vert_k(cfg, tiling_of_orientation(cfg.n, key), k) for key in g.keys]
            integers = ids[k - 1::cfg.n - 2]
            shuffled = list(range(len(g)))
            rng.shuffle(shuffled)
            partitions = [
                skeleton(g, k, "sigma_k", regs).classes,  # vert_k distinct
                equivalence_classes(g, {k - 1, k} - {0}),  # repeats across classes
                equivalence_classes(g, {k + 1}),  # not constant on a class
                [tuple(shuffled[i:i + 3]) for i in range(0, len(g), 3)],
            ]
            for classes in partitions:
                per_class = [
                    (len({fractions[v] for v in members}), len({integers[v] for v in members}))
                    for members in classes
                ]
                assert all(a == b for a, b in per_class)
                constant = all(a == 1 for a, _ in per_class)
                distinct = len({fractions[members[0]] for members in classes}) == len(classes)
                assert _vert_k_distinct(g, classes, k) == (constant and distinct)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @settings(max_examples=6)
    @given(data=st.data())
    def test_same_verdicts_as_fractions(self, n, data):
        self.check(data.draw(configurations(n)))

    @settings(max_examples=2)
    @given(configurations(6))
    def test_same_verdicts_as_fractions_n6(self, cfg):
        self.check(cfg)


    def test_same_ids_as_fractions_on_a_seeded_n7_sample(self):
        # every hypothesis draw at n = 7 would enumerate about 24,000 tilings;
        # one seeded configuration and node sample covers the wider fields
        rng = random.Random(7)
        pool = sorted({Fraction(a, d) for a in range(-30, 31) for d in range(1, 5)})
        g = enumerate_tilings(make_config(sorted(rng.sample(pool, 7))))
        self.assert_ids_match_fractions(g, sorted(rng.sample(range(len(g)), 3000)))


class TestEquivalenceClasses:
    def test_no_deleted_levels_single_class(self, graphs):
        part = equivalence_classes(graphs(5), frozenset())
        assert len(part) == 1
        assert part[0] == tuple(range(62))

    def test_all_levels_deleted_singletons(self, graphs):
        part = equivalence_classes(graphs(4), {1, 2})
        assert len(part) == 8

    def test_sigma1_classes_are_cube_vertices(self, graphs, regulars):
        part = equivalence_classes(graphs(5), {1}, regulars(5))
        assert len(part) == 8  # 2^(n-2)

    def test_restriction_drops_nothing_when_all_regular(self, graphs, regulars):
        g = graphs(5)
        full = equivalence_classes(g, {2})
        restricted = equivalence_classes(g, {2}, regulars(5))
        assert full == restricted


class TestSkeleton:
    def test_sigma1_n5_is_a_three_cube(self, graphs, regulars):
        sk = skeleton(graphs(5), 1, "sigma_k", regulars(5))
        assert len(sk) == 8
        assert sk.degree_multiset() == (3,) * 8
        assert sk.edge_count() == 12
        assert graph_diameter(sk.adj)[0] == 3

    def test_sigma2_n5_diameter(self, graphs, regulars):
        sk = skeleton(graphs(5), 2, "sigma_k", regulars(5))
        assert graph_diameter(sk.adj)[0] == 4

    def test_sum_skeleton_n5_k2_diameter(self, graphs, regulars):
        sk = skeleton(graphs(5), 2, "sigma_k_plus_prev", regulars(5))
        assert graph_diameter(sk.adj)[0] == 7

    def test_k1_sum_skeleton_equals_sigma1(self, graphs, regulars):
        a = skeleton(graphs(5), 1, "sigma_k", regulars(5))
        b = skeleton(graphs(5), 1, "sigma_k_plus_prev", regulars(5))
        assert a.classes == b.classes
        assert a.adj == b.adj

    def test_regular_modes_need_regular_set(self, graphs):
        with pytest.raises(ValueError, match="regular node set"):
            skeleton(graphs(4), 1, "sigma_k")

    def test_unknown_mode(self, graphs):
        with pytest.raises(ValueError, match="unknown skeleton mode"):
            skeleton(graphs(4), 1, "sigma")

    @pytest.mark.parametrize("k", [-1, 0, 4, 5])
    @pytest.mark.parametrize(
        "mode", ["sigma_k", "sigma_k_plus_prev", "lifting_all", "reduced_all"]
    )
    def test_level_out_of_range(self, graphs, regulars, mode, k):
        # flips have levels 1..n-2 only; elsewhere a skeleton would be meaningless
        with pytest.raises(ValueError, match=r"level k=-?\d is outside 1\.\.3"):
            skeleton(graphs(5), k, mode, regulars(5))

    def test_component_map_consistent(self, graphs, regulars):
        sk = skeleton(graphs(5), 2, "sigma_k", regulars(5))
        for idx, members in enumerate(sk.classes):
            for v in members:
                assert sk.component_of[v] == idx

    @pytest.mark.parametrize("seed", range(3))
    def test_restricted_classes_against_node_order(self, graphs, seed):
        # a node set that drops many components' smallest members, which can
        # move a class: classes are ordered by their own smallest member
        g = graphs(6)
        keep = frozenset(random.Random(seed).sample(range(len(g)), len(g) // 2))
        for k in range(1, 5):
            for mode in ("sigma_k", "sigma_k_plus_prev"):
                sk = skeleton(g, k, mode, keep)
                labels = component_labels(g, sk.deleted_levels)
                groups = {}
                for v in sorted(keep):
                    groups.setdefault(labels[v], []).append(v)
                assert sk.classes == tuple(map(tuple, groups.values()))
                assert equivalence_classes(g, sk.deleted_levels, keep) == sk.classes
                index = {label: c for c, label in enumerate(groups)}
                assert list(sk.component_of) == [index.get(label, -1) for label in labels]

    @pytest.mark.parametrize("seed", range(3))
    def test_minus_one_marks_components_without_kept_members(self, graphs, seed):
        # a node reads -1 exactly when no member of its component is kept
        g = graphs(6)
        keep = frozenset(random.Random(seed).sample(range(len(g)), len(g) // 8))
        dropped = 0
        for k in range(1, 5):
            for mode in ("sigma_k", "sigma_k_plus_prev"):
                sk = skeleton(g, k, mode, keep)
                labels = component_labels(g, sk.deleted_levels)
                kept = {labels[v] for v in keep}
                missing = [v for v in range(len(g)) if sk.component_of[v] < 0]
                assert missing == [v for v in range(len(g)) if labels[v] not in kept]
                dropped += len(missing)
        assert dropped

    def test_unrestricted_classes_are_the_stored_partition(self, graphs):
        # no copy: the classes view the labelling's own members and starts
        g = graphs(5)
        for k in range(1, 4):
            for mode in ("lifting_all", "reduced_all"):
                sk = skeleton(g, k, mode)
                _, members, starts = g.labellings[sk.deleted_levels]
                assert sk.classes.values is members and sk.classes.offsets is starts

    def test_flip_inside_a_class_is_a_finding(self):
        # edges 0-1 and 1-2 at level 2 make one 1-class, which the level-1
        # edge 0-2 would join to itself
        g = FlipGraph(standard_config(3), key_store(3, [0, 1, 2]), array("i", [1, 2, 0, 2, 1, 0]),
                      bytes([2, 1, 2, 2, 2, 1]), array("i", [0, 2, 4, 6]))
        with pytest.raises(Finding, match="joins two members of one class"):
            skeleton(g, 1, "reduced_all")

    def test_built_from_the_labelling_pass(self, regulars, monkeypatch):
        # every mode on a fresh graph with no second pass over the edges,
        # against class adjacency read off every deleted-level edge
        g = enumerate_tilings(standard_config(5))
        edges = list(g.undirected_edges())

        def no_edge_pass(self):
            raise AssertionError("skeleton walked the edges again")

        monkeypatch.setattr(FlipGraph, "undirected_edges", no_edge_pass)
        for k in range(1, 4):
            for mode in ("sigma_k", "sigma_k_plus_prev", "lifting_all", "reduced_all"):
                sk = skeleton(g, k, mode, regulars(5))
                expected = [set() for _ in sk.classes]
                for u, v, level in edges:
                    cu, cv = sk.component_of[u], sk.component_of[v]
                    if level in sk.deleted_levels and min(cu, cv) >= 0:
                        expected[cu].add(cv)
                        expected[cv].add(cu)
                assert sk.adj == tuple(tuple(sorted(nbrs)) for nbrs in expected)

    @pytest.mark.parametrize("stray", [62, 99, -1])
    def test_stray_regular_id_refused(self, graphs, regulars, stray):
        # n = 5 has ids 0..61; a stray id must not pass as a regular node
        g = graphs(5)
        regs = regulars(5) | {stray}
        for mode in ("sigma_k", "sigma_k_plus_prev"):
            with pytest.raises(ValueError, match=f"node id {stray} is outside 0..61"):
                skeleton(g, 1, mode, regs)
        with pytest.raises(ValueError, match=f"node id {stray} is outside 0..61"):
            equivalence_classes(g, {1}, regs)
        with pytest.raises(ValueError, match=f"node id {stray} is outside 0..61"):
            diameter_report(g, 1, frozenset({stray}))

    def test_dot_export(self, graphs, regulars):
        sk = skeleton(graphs(4), 1, "sigma_k", regulars(4))
        dot = sk.to_dot()
        assert dot.startswith("graph skeleton {") and "--" in dot


class TestPotential:
    def test_self_potential_zero(self, graphs):
        g = graphs(5)
        for ref in (0, 13, 61):
            for k in (1, 2, 3):
                assert potential(g, ref, k).values[ref] == 0

    def test_lipschitz_exact_bound(self, graphs):
        g = graphs(5)
        rng = random.Random(0)
        refs = rng.sample(range(len(g)), 10)
        for ref in refs:
            for k in (1, 2, 3):
                rep = potential(g, ref, k)
                assert rep.max_edge_delta == 1
                for level, delta in rep.max_edge_delta_by_level:
                    assert delta == (1 if level in (k - 1, k) else 0)

    def test_modified_only_moves_at_level_k(self, graphs):
        g = graphs(5)
        for ref in (0, 30):
            for k in (1, 2, 3):
                rep = modified_potential(g, ref, k)
                assert rep.max_edge_delta == 1
                for level, delta in rep.max_edge_delta_by_level:
                    assert delta == (1 if level == k else 0)

    def test_modified_constant_on_k_classes(self, graphs):
        g = graphs(5)
        for k in (1, 2, 3):
            labels = component_labels(g, {k})
            rep = modified_potential(g, 0, k)
            by_class = {}
            for v, lab in enumerate(labels):
                by_class.setdefault(lab, set()).add(rep.values[v])
            assert all(len(vals) == 1 for vals in by_class.values())

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_min_to_max_closed_form(self, graphs, n):
        g = graphs(n)
        for k in range(1, n - 1):
            expected = 2 * k * (n - k) - n
            for thresholds in ("definition", "shifted"):
                got = abs(potential_between(g, g.min_id, g.max_id, k, thresholds))
                assert got == expected

    def test_modified_min_to_max_closed_form(self, graphs):
        g = graphs(5)
        for k in (1, 2, 3):
            rep = modified_potential(g, g.min_id, k)
            assert abs(rep.values[g.max_id]) == k * (5 - k - 1)

    @staticmethod
    def _reference_potential(ref_tiling, tiling, k, thresholds):
        """The potential's definition written out on sets of pair ranks."""
        hi = k if thresholds == "definition" else tiling.n - k - 1

        def sides(t):
            sizes = [offset.bit_count() for offset in t.offsets]
            plus = {r for r, size in enumerate(sizes) if size >= hi}
            minus = {r for r, size in enumerate(sizes) if size <= k - 2}
            return plus, minus

        (rp, rm), (p, m) = sides(ref_tiling), sides(tiling)
        return len(rp - p) - len(p - rp) - len(rm - m) + len(m - rm)

    @pytest.mark.parametrize("points", [[1, 2, 3, 4, 5], ["-3", "-5/2", "1/3", "4", "11/2"]])
    def test_between_matches_full_potential(self, points):
        g = enumerate_tilings(make_config(points))
        tilings = [tiling_of_orientation(5, key) for key in g.keys]
        for ref in (g.min_id, 3, g.max_id):
            for k in range(g.n + 1):
                for thresholds in ("definition", "shifted"):
                    values = potential(g, ref, k, thresholds).values
                    for v in range(len(g)):
                        expected = self._reference_potential(tilings[ref], tilings[v], k, thresholds)
                        assert values[v] == expected
                        assert potential_between(g, ref, v, k, thresholds) == expected

    def test_bad_thresholds(self, graphs):
        with pytest.raises(ValueError):
            potential(graphs(4), 0, 1, thresholds="proof")
        with pytest.raises(ValueError):
            potential_between(graphs(4), 0, 1, 1, thresholds="proof")

    def test_bad_thresholds_refused_before_the_census(self):
        g = enumerate_tilings(standard_config(5))
        for report in (potential, modified_potential):
            with pytest.raises(ValueError, match="thresholds must be"):
                report(g, 0, 1, thresholds="proof")
        with pytest.raises(ValueError, match="thresholds must be"):
            potential_between(g, 0, 1, 1, thresholds="proof")
        assert g.derived == {}

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_census_matches_the_tilings(self, graphs, n):
        g = enumerate_tilings(standard_config(n))
        census = secondary._census(g)
        assert len(census) == n * len(g)
        for v, key in enumerate(graphs(n).keys):
            counts = tiling_of_orientation(n, key).offset_size_census()
            assert list(census[v * n:(v + 1) * n]) == [sum(counts[:s]) for s in range(n)]

    def test_census_read_once_per_graph(self, decoded_keys):
        # every report and potential_between read one stored census, which
        # decodes each key once
        g = enumerate_tilings(standard_config(5))
        for k in (1, 2, 3):
            for thresholds in ("definition", "shifted"):
                potential(g, 0, k, thresholds)
                modified_potential(g, 5, k, thresholds)
                potential_between(g, g.min_id, g.max_id, k, thresholds)
        assert decoded_keys == g.keys


class TestDiameterReport:
    def test_n5_k1_record(self, graphs, regulars):
        rep = diameter_report(graphs(5), 1, regulars(5))
        assert rep["sigma_k"] == {
            "classes": 8,
            "diameter": 3,
            "formula": 3,
            "match": True,
        }
        assert rep["duality_ok"] and rep["vertk_distinct_ok"]
        assert rep["restriction_agreement"]
        assert rep["potential_min_to_max"]["match_definition"]
        assert rep["potential_min_to_max"]["match_shifted"]

    def test_n6_k2_diameter(self, graphs, regulars):
        rep = diameter_report(graphs(6), 2, regulars(6))
        assert rep["sigma_k"]["diameter"] == 6 == rep["sigma_k"]["formula"]
        assert rep["sigma_k_plus_prev"]["diameter"] == 10

    def test_plain_set_of_regular_nodes(self, graphs, regulars):
        # a fresh graph, so the labellings are computed, not reused
        g = enumerate_tilings(standard_config(6))
        regs = regulars(6)
        for k in range(1, 5):
            assert diameter_report(g, k, set(regs)) == diameter_report(graphs(6), k, regs)

    def test_duality_explicit(self, graphs, regulars):
        result = diameter_report(graphs(5), 1, regulars(5))["duality"]
        assert result == {
            "classes_equal": True,
            "degrees_equal": True,
            "diameters_equal": True,
            "isomorphic_via_opposite": True,
        }
        # the report shares its sigma_k skeleton with the duality comparison
        for n in (5, 6):
            for k in range(1, n - 1):
                rep = diameter_report(graphs(n), k, regulars(n))
                sk = skeleton(graphs(n), k, "sigma_k", regulars(n))
                diam, _ = graph_diameter(sk.adj)
                assert rep["duality"] == secondary._duality(graphs(n), sk, diam, regulars(n))

    @pytest.mark.parametrize("k", [-1, 0, 4, 5])
    def test_level_out_of_range(self, graphs, regulars, k):
        with pytest.raises(ValueError, match=r"outside 1\.\.3"):
            diameter_report(graphs(5), k, regulars(5))

    def test_opposite_node_key_complement(self, graphs):
        # the half-turn image is the mirror id, on every node
        for n in range(2, 7):
            g = graphs(n)
            full = (1 << comb(n, 3)) - 1
            for v in range(len(g)):
                assert g.keys[g.opposite_node(v)] == g.keys[v] ^ full

    def test_opposite_pair_adjacent_in_sigma1(self, graphs, regulars):
        # a fully reversed pair of tilings whose level-1 classes are neighbours
        g = graphs(5)
        sk = skeleton(g, 1, "sigma_k", regulars(5))
        hits = []
        for v in range(len(g)):
            w = g.opposite_node(v)
            cv, cw = sk.component_of[v], sk.component_of[w]
            if min(cv, cw) >= 0 and cv != cw and cw in sk.adj[cv]:
                hits.append((v, w))
        assert hits


def induced_partition(g, nodes, k):
    """The components of the subgraph induced on the nodes, its level-k edges
    removed, by a plain BFS: sorted tuples in order of smallest member."""
    seen = set()
    parts = []
    for start in sorted(nodes):
        if start not in seen:
            seen.add(start)
            part = [start]
            for u in part:
                for v, level in zip(g.adj[u], g.levels[u]):
                    if level != k and v in nodes and v not in seen:
                        seen.add(v)
                        part.append(v)
            parts.append(tuple(sorted(part)))
    return parts


class TestRestrictionAgreement:
    """``_restriction_agrees`` against the induced subgraph's partition."""

    @staticmethod
    def verdict(g, nodes, k):
        """The check's verdict, asserted to be whether the k-classes restricted
        to the nodes are the induced subgraph's components."""
        classes = equivalence_classes(g, {k}, nodes)
        agrees = secondary._restriction_agrees(g, classes, k, nodes)
        assert agrees == (list(classes) == induced_partition(g, nodes, k))
        return agrees

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @settings(max_examples=20)
    @given(data=st.data())
    def test_matches_the_induced_partition(self, graphs, n, data):
        g = graphs(n)
        k = data.draw(st.integers(1, n - 2))
        keep = data.draw(st.floats(0.3, 1.0))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        self.verdict(g, frozenset(v for v in range(len(g)) if rng.random() < keep), k)

    def test_both_verdicts_occur(self, graphs, regulars):
        verdicts = {self.verdict(graphs(6), regulars(6), k) for k in range(1, 5)}
        rng = random.Random(6)
        for _ in range(10):
            nodes = frozenset(v for v in range(len(graphs(5))) if rng.random() < 0.6)
            verdicts |= {self.verdict(graphs(5), nodes, k) for k in range(1, 4)}
        assert verdicts == {True, False}


@pytest.mark.slow
def test_sigma_k_diameters_n7(tmp_path):
    # the classify command, one LP per half-turn pair with the mirror node
    # taking the negated witness, byte for byte as recorded at a_i = i; its
    # census is the reference for the diameters route
    assert cli.main(["classify", "--n", "7", "--out", str(tmp_path)]) == 0
    artifact = (tmp_path / "classify_n7.json").read_bytes()
    assert hashlib.sha256(artifact).hexdigest() == (
        "17d21ace9c3788fc5200961cee15b146cfc096c81713c0c744210bceeeaed86c"
    )
    certs = json.loads(artifact)["certificates"]
    regs = frozenset(v for v, cert in enumerate(certs) if cert["regular"])
    g = enumerate_tilings(standard_config(7))
    assert len(certs) == len(g)
    assert regular_set(g).nodes == regs  # the diameters route, against the LP certificates
    for k in range(1, 6):
        sk = skeleton(g, k, "sigma_k", regs)
        assert graph_diameter(sk.adj)[0] == k * (7 - k - 1)
