import random
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tile_oracle import (
    Tiling,
    apply_flip,
    available_flips,
    cross_section,
    extremal_tiling,
    level_vertex_masks,
    orientation_of,
    tiling_of_orientation,
)
from zonotiling import (
    enumerate_tilings,
    hypertri_diameters,
    make_config,
    reduced_cross_section,
    strongly_separated,
)
from zonotiling import core, flipgraph, hypertri, secondary
from zonotiling.core import full_mask, mask_from, standard_config
from zonotiling.hypertri import (
    StrongSeparationError,
    column_slices,
    key_slices,
    satisfies_triple_condition,
    slice_masks,
)
from zonotiling.flipgraph import components_excluding_levels
from zonotiling.secondary import equivalence_classes, skeleton


def node_tiling(g, v):
    """The tile route's Tiling of node v, decoded from its key."""
    return tiling_of_orientation(g.n, g.keys[v])


small_sets = st.frozensets(st.integers(1, 8), max_size=5)


class TestStrongSeparation:
    def test_fixtures(self):
        assert not strongly_separated({1, 3}, {2, 4})
        assert strongly_separated({1, 2}, {1, 3})
        assert strongly_separated({2, 5}, {2, 5})

    @given(small_sets, small_sets)
    def test_symmetry(self, a, b):
        assert strongly_separated(a, b) == strongly_separated(b, a)

    @given(small_sets, small_sets)
    def test_containment_always_separated(self, a, b):
        if a <= b or b <= a:
            assert strongly_separated(a, b)

    @given(small_sets, small_sets)
    def test_matches_set_arithmetic(self, a, b):
        d1, d2 = a - b, b - a
        expected = (
            not d1
            or not d2
            or max(d1) < min(d2)
            or max(d2) < min(d1)
        )
        assert strongly_separated(a, b) == expected

    def test_mask_arguments(self):
        assert strongly_separated(mask_from({1, 2}), mask_from({2, 3}))


class TestCrossSection:
    def test_trivial_levels(self, graphs):
        t = node_tiling(graphs(4), 5)
        assert cross_section(t, 0).vertices == ((),)
        assert cross_section(t, 4).vertices == ((1, 2, 3, 4),)

    def test_level_out_of_range(self, graphs):
        with pytest.raises(ValueError):
            cross_section(node_tiling(graphs(4), 0), 5)

    def test_lifting_fixture_present_n4(self, graphs):
        paths = {cross_section(tiling_of_orientation(4, key), 2).vertices for key in graphs(4).keys}
        assert ((1, 2), (1, 3), (1, 4), (3, 4)) in paths

    def test_non_lifting_path_never_occurs_n4(self, graphs):
        # {1,3} and {2,4} are not strongly separated, so this monotone path
        # cannot be a slice of any tiling
        paths = {cross_section(tiling_of_orientation(4, key), 2).vertices for key in graphs(4).keys}
        assert ((1, 2), (1, 3), (1, 4), (2, 4), (3, 4)) not in paths

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_paths_well_formed_everywhere(self, graphs, n):
        for key in graphs(n).keys:
            t = tiling_of_orientation(n, key)
            total = 0
            for k in range(n + 1):
                path = cross_section(t, k)
                total += len(path)
                if path.vertices:
                    assert path.vertices[0] == tuple(range(1, k + 1))
                    assert path.vertices[-1] == tuple(range(n - k + 1, n + 1))
                for a, b in zip(path.vertices, path.vertices[1:]):
                    gone = set(a) - set(b)
                    new = set(b) - set(a)
                    assert len(gone) == len(new) == 1
                    assert gone.pop() < new.pop()
            assert total == comb(n, 2) + n + 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_vertex_sets_pairwise_separated(self, graphs, n):
        for key in graphs(n).keys:
            t = tiling_of_orientation(n, key)
            verts = sorted(t.vertex_masks())
            for i, a in enumerate(verts):
                for b in verts[i + 1 :]:
                    assert strongly_separated(a, b)

    def test_incomparable_pair_raises(self):
        # a corrupt tile set whose slice holds the non-separated {1,3}, {2,4}
        broken = Tiling(
            4,
            tuple(
                mask_from(off)
                for off in [(), (3,), (), (4,), (1,), (1, 2)]
            ),
        )
        with pytest.raises(ValueError, match="not strongly separated"):
            cross_section(broken, 2)


class TestReducedPaths:
    def test_figure_slice_reduction(self, k_class):
        # the slice 12-13-34-35-45 occurs at n=5; its level-1 class keeps
        # {3,5} (the lower-flip toggle) and drops {3,4} (the upper-flip one)
        cfg = make_config([-2, -1, 0, 1, 2])
        g = enumerate_tilings(cfg)
        target = ((1, 2), (1, 3), (3, 4), (3, 5), (4, 5))
        nodes = [
            v for v in range(len(g)) if cross_section(node_tiling(g, v), 2).vertices == target
        ]
        assert nodes
        for v in nodes:
            reduced = reduced_cross_section(g, k_class(g, v, 1), 1)
            assert reduced.vertices == ((1, 2), (1, 3), (3, 5), (4, 5))
            assert reduced.reduced

    def test_already_reduced_slice_unchanged(self, graphs, k_class):
        for n in (4, 5):
            g = graphs(n)
            for k in range(1, n - 1):
                for v in range(len(g)):
                    slice_path = cross_section(node_tiling(g, v), k + 1)
                    if satisfies_triple_condition(slice_path):
                        assert (
                            reduced_cross_section(g, k_class(g, v, k), k).vertices
                            == slice_path.vertices
                        )

    @pytest.mark.parametrize("n", [4, 5])
    def test_constant_on_classes_and_injective(self, graphs, k_class, n):
        g = graphs(n)
        for k in range(1, n - 1):
            labels = components_excluding_levels(g, {k})
            by_class = {}
            for v in range(len(g)):
                path = reduced_cross_section(g, k_class(g, v, k), k)
                assert satisfies_triple_condition(path)
                by_class.setdefault(labels[v], set()).add(path.vertices)
            assert all(len(paths) == 1 for paths in by_class.values())
            distinct = {paths.pop() for paths in by_class.values()}
            assert len(distinct) == len(by_class)

    @pytest.mark.parametrize(
        "points", [[1, 2, 3, 4], [1, 2, 3, 4, 5], [-2, -1, 0, 1, 2]]
    )
    def test_class_definition_and_half_turn_mirror(self, k_class, points):
        # Two reductions of a slice are fixed on a class.  The k-class's
        # reduced path is built here a second way: the size-(k+1) sets seen
        # anywhere in the class minus those toggled by a flip inside it.  The
        # other reduction, the meet of the k-class's level-k slices, must be
        # the complement of the half-turn image's reduced path.
        g = enumerate_tilings(make_config(points))
        n = g.n
        full = (1 << n) - 1
        for k in range(1, n - 1):
            labels = components_excluding_levels(g, {k})
            seen, toggled, level_k_meet = {}, {}, {}
            for u in range(len(g)):
                c = labels[u]
                upper = level_vertex_masks(node_tiling(g, u), k + 1)
                lower = level_vertex_masks(node_tiling(g, u), k)
                seen[c] = seen.get(c, frozenset()) | upper
                level_k_meet[c] = level_k_meet.get(c, lower) & lower
                for w, level in zip(g.adj[u], g.levels[u]):
                    if level != k:
                        toggled[c] = toggled.get(c, frozenset()) | (
                            upper ^ level_vertex_masks(node_tiling(g, w), k + 1)
                        )
            for v in range(len(g)):
                c = labels[v]
                reduced = reduced_cross_section(g, k_class(g, v, k), k).vertex_masks()
                assert set(reduced) == seen[c] - toggled.get(c, frozenset())
                w = g.opposite_node(v)
                image = reduced_cross_section(g, k_class(g, w, n - 1 - k), n - 1 - k)
                assert {full ^ m for m in image.vertex_masks()} == level_k_meet[c]

    def test_reduced_is_subsequence_of_slice(self, graphs, k_class):
        g = graphs(5)
        for v in range(0, len(g), 7):
            for k in (1, 2, 3):
                slice_verts = cross_section(node_tiling(g, v), k + 1).vertices
                reduced = reduced_cross_section(g, k_class(g, v, k), k).vertices
                it = iter(slice_verts)
                assert all(s in it for s in reduced)

    @pytest.mark.parametrize("points", [[1, 2, 3, 4, 5], [-2, -1, 0, 1, 2]])
    def test_reads_exactly_the_members(self, points, monkeypatch, decoded_keys):
        # each member's key once, no key decoded to tiles, and no component labelling
        g = enumerate_tilings(make_config(points))
        classes = {k: equivalence_classes(g, {k}) for k in range(1, g.n - 1)}
        stored = dict(g.labellings)
        read = []
        real_slices = hypertri.column_slices

        def counted_slices(n, keys, level):
            read.extend(keys)
            return real_slices(n, keys, level)

        def no_labelling(*args, **kwargs):
            raise AssertionError("reduced_cross_section labelled components")

        monkeypatch.setattr(hypertri, "column_slices", counted_slices)
        for module in (flipgraph, secondary, hypertri):
            monkeypatch.setattr(
                module, "components_excluding_levels", no_labelling, raising=False
            )
        for k, members_of_k in classes.items():
            for members in members_of_k:
                read.clear()
                reduced_cross_section(g, members, k)
                assert read == [g.keys[v] for v in members]
        assert g.labellings == stored
        assert decoded_keys == []

    @pytest.mark.parametrize(
        "members,k,message",
        [
            ((), 1, "at least one member"),
            ((-1,), 1, r"node id -1 is outside 0\.\.61"),
            ((0, 62), 1, r"node id 62 is outside 0\.\.61"),
            ((0,), 0, r"level k=0 is outside 1\.\.3"),
            ((0,), 4, r"level k=4 is outside 1\.\.3"),
        ],
        ids=["empty", "negative", "past_end", "level_0", "level_4"],
    )
    def test_bad_input_refused(self, graphs, members, k, message):
        with pytest.raises(ValueError, match=message):
            reduced_cross_section(graphs(5), members, k)

    def test_json_flags_reduced(self, graphs, k_class):
        data = reduced_cross_section(graphs(4), k_class(graphs(4), 0, 1), 1).to_json()
        assert data["reduced"] is True
        assert data["k"] == 2


class TestHypertriDiameters:
    @pytest.mark.parametrize("n", [4, 5])
    def test_full_records(self, graphs, n):
        g = graphs(n)
        for k in range(1, n - 1):
            rec = hypertri_diameters(g, k)
            assert rec["lifting"]["match"], rec
            assert rec["reduced"]["match"], rec
            assert rec["lifting"]["formula"] == 2 * k * (n - k) - n
            assert rec["reduced"]["formula"] == k * (n - k - 1)
            assert rec["path_quotient_equal"]
            assert rec["reduced_quotient_equal"]
            assert rec["lifting_single_vertex_ok"]
            assert rec["reduced_path_changes_ok"]
            assert rec["findings"] == []

    def test_slice_toggle_counts(self, graphs):
        g = graphs(5)
        k = 2
        slices = [level_vertex_masks(node_tiling(g, v), k) for v in range(len(g))]
        for u, v, level in g.undirected_edges():
            delta = len(slices[u] ^ slices[v])
            assert delta == (1 if level in (k - 1, k) else 0)

    @pytest.mark.parametrize("k", [-1, 0, 4, 5])
    def test_level_out_of_range(self, graphs, k):
        with pytest.raises(ValueError, match=r"outside 1\.\.3"):
            hypertri_diameters(graphs(5), k)

    def test_reads_each_slice_once(self, graphs, monkeypatch):
        g = graphs(5)
        k = 2
        calls = {"cross": 0, "reduced": 0}
        read = []
        passed = []
        real_slices = hypertri.column_slices
        real_reduced = hypertri._reduced_path

        def counted_slices(n, keys, level):
            if level == k:
                read.extend(keys)
            return real_slices(n, keys, level)

        def counted_cross(tiling, level):
            calls["cross"] += 1
            return cross_section(tiling, level)

        def counted_reduced(common, level, n):
            calls["reduced"] += 1
            passed.append(common)
            return real_reduced(common, level, n)

        monkeypatch.setattr(hypertri, "column_slices", counted_slices)
        monkeypatch.setattr(hypertri, "cross_section", counted_cross, raising=False)
        monkeypatch.setattr(hypertri, "_reduced_path", counted_reduced)
        rec = hypertri_diameters(g, k)
        assert rec["findings"] == []
        # every key read exactly once, in node order
        assert read == g.keys
        assert calls == {"cross": 0, "reduced": rec["reduced"]["classes"]}
        # each meet is over a whole class, and equals the meet of its tiles' slices
        classes = skeleton(g, k, "reduced_all").classes
        assert passed == [
            frozenset.intersection(*(level_vertex_masks(node_tiling(g, v), k + 1) for v in members))
            for members in classes
        ]

    def test_builds_no_tiling(self, graphs, decoded_keys):
        g = graphs(5)
        for k in range(1, g.n - 1):
            assert hypertri_diameters(g, k)["findings"] == []
        assert decoded_keys == []


class TestKeySlices:
    """Slices read off the orientation key against the tiles' vertex sets."""

    @staticmethod
    def assert_key_route_matches(n, key, tiling):
        for k in range(n):
            lower, upper = slice_masks(n, k, key_slices(n, key, k))
            assert lower == level_vertex_masks(tiling, k)
            assert upper == level_vertex_masks(tiling, k + 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_every_node_and_level(self, graphs, n):
        g = graphs(n)
        for v in range(len(g)):
            self.assert_key_route_matches(n, g.keys[v], node_tiling(g, v))

    @staticmethod
    def assert_column_route_matches(g):
        # one column_slices pass over every key per level, read in step
        n = g.n
        passes = [column_slices(n, g.keys, k) for k in range(n)]
        count = 0
        for v, words in enumerate(zip(*passes)):
            tiling = node_tiling(g, v)
            for k, word in enumerate(words):
                lower, upper = slice_masks(n, k, word)
                assert lower == level_vertex_masks(tiling, k)
                assert upper == level_vertex_masks(tiling, k + 1)
            count += 1
        assert count == len(g)
        assert all(next(words, None) is None for words in passes)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_every_key_at_once_in_small_chunks(self, graphs, monkeypatch, n):
        # chunks of 3 keys, so most chunks start and end mid-list
        monkeypatch.setattr(core, "_KEY_CHUNK", 3)
        self.assert_column_route_matches(graphs(n))

    def test_extremal_slices(self):
        # key 0 orients every circuit +1, so no vertex meets a triple in its
        # middle point alone: the slices hold the prefix-plus-suffix sets
        n = 5
        lower, upper = slice_masks(n, 2, key_slices(n, 0, 2))
        assert lower == {mask_from(s) for s in [(1, 2), (1, 5), (4, 5)]}
        assert upper == {mask_from(s) for s in [(1, 2, 3), (1, 2, 5), (1, 4, 5), (3, 4, 5)]}

    def test_word_layout(self):
        n, k = 6, 2
        word = key_slices(n, 0, k)
        assert word >> (comb(n, k) + comb(n, k + 1)) == 0
        low = full_mask(comb(n, k))
        assert slice_masks(n, k, word & low)[1] == frozenset()
        assert slice_masks(n, k, word & ~low)[0] == frozenset()

    @pytest.mark.slow
    def test_every_node_and_level_n7(self, graphs):
        self.assert_column_route_matches(graphs(7))

    @pytest.mark.slow
    def test_flip_walk_n8(self):
        n = 8
        rng = random.Random(8)
        t = extremal_tiling(standard_config(n), "min")
        for _ in range(3000):
            t = apply_flip(t, rng.choice(available_flips(t)))
            self.assert_key_route_matches(n, orientation_of(t).bits, t)


def _slice_word(n, k, masks):
    """The column_slices word whose level-k bits mark exactly the given masks."""
    subsets = hypertri._slice_tables(n, k)[1]
    return sum(1 << subsets.index(m) for m in masks)


def _replace_slices(monkeypatch, graph, k, replacement, upper=None):
    """Make the level-k slice of each node v in replacement read replacement[v],
    and the level-(k+1) slice of each node v in upper read upper[v]."""
    real = hypertri.column_slices
    lower = full_mask(comb(graph.n, k))
    ids = {key: v for v, key in enumerate(graph.keys)}
    upper = upper or {}

    def fake(n, keys, level):
        for key, word in zip(keys, real(n, keys, level)):
            v = ids.get(key)
            if level == k and v in replacement:
                word = word & ~lower | _slice_word(n, k, replacement[v])
            if level == k and v in upper:
                word = word & lower | _slice_word(n, k, upper[v])
            yield word

    monkeypatch.setattr(hypertri, "column_slices", fake)


def per_edge_record(graph, k):
    """The hypertri_diameters record with its toggle check redone edge by
    edge, on the slices ``column_slices`` reads: the flag, and the first
    failing edge's finding in its place among the findings."""
    record = hypertri_diameters(graph, k)
    lower = full_mask(comb(graph.n, k))
    slices = [word & lower for word in hypertri.column_slices(graph.n, graph.keys, k)]
    failing = None
    for u, v, level in graph.undirected_edges():
        delta = (slices[u] ^ slices[v]).bit_count()
        if delta != (1 if level in (k - 1, k) else 0):
            failing = f"edge ({u}, {v}) at level {level} changes {delta} slice vertices"
            break
    findings = [f for f in record["findings"] if not f.startswith("edge (")]
    if failing is not None:
        # after the two quotient findings, before the reduced-path one
        findings.insert(sum(not f.startswith("level-") for f in findings), failing)
    return record | {"lifting_single_vertex_ok": failing is None, "findings": findings}


class TestLiftingQuotientCheck:
    """hypertri_diameters against slices corrupted behind its back (n = 5)."""

    K = 2

    def test_non_separated_slice_raises(self, graphs, monkeypatch):
        g = graphs(5)
        bad = frozenset({mask_from({1, 3}), mask_from({2, 4})})
        _replace_slices(monkeypatch, g, self.K, {7: bad})
        with pytest.raises(StrongSeparationError):
            hypertri_diameters(g, self.K)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_swapped_slices_split_a_class(self, graphs, monkeypatch, k):
        # the swapped slices are still valid paths and as many as before,
        # but no longer constant on the larger class
        g = graphs(5)
        classes = skeleton(g, k, "lifting_all").classes
        big = next(c for c in classes if len(c) > 1)
        other = next(c for c in classes if c != big)
        a, b = big[0], other[0]
        _replace_slices(
            monkeypatch,
            g,
            k,
            {
                a: level_vertex_masks(node_tiling(g, b), k),
                b: level_vertex_masks(node_tiling(g, a), k),
            },
        )
        rec = hypertri_diameters(g, k)
        assert rec == per_edge_record(g, k)
        assert rec["path_quotient_equal"] is False
        assert "equal-path grouping differs from the simultaneous quotient" in rec["findings"]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_two_classes_sharing_a_slice(self, graphs, monkeypatch, k):
        # still constant on every class, but one distinct slice short
        g = graphs(5)
        first, second = skeleton(g, k, "lifting_all").classes[:2]
        shared = level_vertex_masks(node_tiling(g, second[0]), k)
        _replace_slices(monkeypatch, g, k, {v: shared for v in first})
        rec = hypertri_diameters(g, k)
        assert rec == per_edge_record(g, k)
        assert rec["path_quotient_equal"] is False
        assert "equal-path grouping differs from the simultaneous quotient" in rec["findings"]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_flip_toggling_two_slice_vertices(self, graphs, monkeypatch, k):
        # node 0's first edge is the first one checked; give node 0 a valid
        # slice two vertices away from its neighbour's
        g = graphs(5)
        w, level = g.adj[0][0], g.levels[0][0]
        target = level_vertex_masks(node_tiling(g, w), k)
        slices = (level_vertex_masks(node_tiling(g, v), k) for v in range(len(g)))
        far = next(s for s in slices if len(s ^ target) == 2)
        _replace_slices(monkeypatch, g, k, {0: far})
        rec = hypertri_diameters(g, k)
        assert rec == per_edge_record(g, k)
        assert rec["lifting_single_vertex_ok"] is False
        assert f"edge (0, {w}) at level {level} changes 2 slice vertices" in rec["findings"]


class TestReducedPathCheck:
    """hypertri_diameters against level-(k+1) slices corrupted behind its back (n = 5)."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_adjacent_classes_sharing_a_meet(self, graphs, monkeypatch, k):
        # every member of class 0 reads the reduced path of a neighbouring class
        g = graphs(5)
        reduced = skeleton(g, k, "reduced_all")
        b = reduced.adj[0][0]
        shared = reduced_cross_section(g, reduced.classes[b], k).vertex_masks()
        _replace_slices(monkeypatch, g, k, {}, upper={v: shared for v in reduced.classes[0]})
        rec = hypertri_diameters(g, k)
        assert rec["reduced_path_changes_ok"] is False
        assert rec["reduced_quotient_equal"] is False
        assert (
            f"level-{k} flips between classes 0 and {b} leave the reduced path unchanged"
            in rec["findings"]
        )


class TestToggleRoutes:
    """The toggle check per lifting-class pair against one edge at a time."""

    @pytest.mark.parametrize("points", [None, ["-2", "1/3", "3", "13/3", "6", "17/2"]])
    @pytest.mark.parametrize("n", [5, 6])
    def test_class_pairs_match_the_edge_scan(self, graphs, points, n):
        g = graphs(n) if points is None else enumerate_tilings(make_config(points[:n]))
        for k in range(1, n - 1):
            rec = hypertri_diameters(g, k)
            assert rec["lifting_single_vertex_ok"]
            assert rec == per_edge_record(g, k)

    def test_pairs_are_read_not_edges(self, graphs, monkeypatch):
        # with every check passing, no edge is scanned
        g = graphs(6)

        def no_scan(graph):
            raise AssertionError("edges scanned")

        monkeypatch.setattr(flipgraph.FlipGraph, "undirected_edges", no_scan)
        for k in range(1, 5):
            assert hypertri_diameters(g, k)["findings"] == []

    @pytest.mark.parametrize("n,k", [(5, 1), (5, 2), (5, 3), (6, 2), (6, 3)])
    def test_first_and_last_classes_swap_slices(self, graphs, monkeypatch, n, k):
        # whole classes swap their slices: still constant per class and
        # distinct, so only the class pairs can see it, and the edge scan
        # then names the first failing edge
        g = graphs(n)
        first, *_, last = skeleton(g, k, "lifting_all").classes
        a, b = (level_vertex_masks(node_tiling(g, members[0]), k) for members in (first, last))
        _replace_slices(monkeypatch, g, k, {v: b for v in first} | {v: a for v in last})
        rec = hypertri_diameters(g, k)
        assert rec["path_quotient_equal"] is True
        assert rec["lifting_single_vertex_ok"] is False
        assert rec == per_edge_record(g, k)
        assert sum(f.startswith("edge (") for f in rec["findings"]) == 1

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_reduced_path_faults_keep_the_class_pairs(self, graphs, monkeypatch, k):
        # level-(k+1) faults leave the level-k slices, and so the toggles, intact
        g = graphs(5)
        reduced = skeleton(g, k, "reduced_all")
        shared = reduced_cross_section(g, reduced.classes[reduced.adj[0][0]], k).vertex_masks()
        _replace_slices(monkeypatch, g, k, {}, upper={v: shared for v in reduced.classes[0]})
        rec = hypertri_diameters(g, k)
        assert rec["lifting_single_vertex_ok"] is True
        assert rec == per_edge_record(g, k)
