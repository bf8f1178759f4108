import random
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zonotiling import (
    cross_section,
    hypertri_diameters,
    make_config,
    reduced_cross_section,
    strongly_separated,
)
from zonotiling import hypertri
from zonotiling.core import full_mask, mask_from, standard_config
from zonotiling.hypertri import (
    StrongSeparationError,
    key_slices,
    level_vertex_masks,
    satisfies_triple_condition,
    slice_masks,
)
from zonotiling.flipgraph import components_excluding_levels
from zonotiling.secondary import equivalence_classes, skeleton
from zonotiling.tiling import (
    Tiling,
    apply_flip,
    available_flips,
    extremal_tiling,
    orientation_of,
)


small_sets = st.frozensets(st.integers(1, 8), max_size=5)


def k_class(graph, node, k):
    """The node's k-class, as the partition code holds it."""
    return next(c for c in equivalence_classes(graph, {k}) if node in c)


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
        t = graphs(4).tiling(5)
        assert cross_section(t, 0).vertices == ((),)
        assert cross_section(t, 4).vertices == ((1, 2, 3, 4),)

    def test_level_out_of_range(self, graphs):
        with pytest.raises(ValueError):
            cross_section(graphs(4).tiling(0), 5)

    def test_lifting_fixture_present_n4(self, graphs):
        paths = {cross_section(t, 2).vertices for t in map(graphs(4).tiling, range(len(graphs(4))))}
        assert ((1, 2), (1, 3), (1, 4), (3, 4)) in paths

    def test_non_lifting_path_never_occurs_n4(self, graphs):
        # {1,3} and {2,4} are not strongly separated, so this monotone path
        # cannot be a slice of any tiling
        paths = {cross_section(t, 2).vertices for t in map(graphs(4).tiling, range(len(graphs(4))))}
        assert ((1, 2), (1, 3), (1, 4), (2, 4), (3, 4)) not in paths

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_paths_well_formed_everywhere(self, graphs, n):
        for t in map(graphs(n).tiling, range(len(graphs(n)))):
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
        for t in map(graphs(n).tiling, range(len(graphs(n)))):
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
        with pytest.raises(StrongSeparationError):
            cross_section(broken, 2)


class TestReducedPaths:
    def test_figure_slice_reduction(self, graphs):
        # the slice 12-13-34-35-45 occurs at n=5; its level-1 class keeps
        # {3,5} (the lower-flip toggle) and drops {3,4} (the upper-flip one)
        cfg = make_config([-2, -1, 0, 1, 2])
        from zonotiling import enumerate_tilings

        g = enumerate_tilings(cfg)
        target = ((1, 2), (1, 3), (3, 4), (3, 5), (4, 5))
        nodes = [
            v for v in range(len(g)) if cross_section(g.tiling(v), 2).vertices == target
        ]
        assert nodes
        for v in nodes:
            reduced = reduced_cross_section(g, k_class(g, v, 1), 1)
            assert reduced.vertices == ((1, 2), (1, 3), (3, 5), (4, 5))
            assert reduced.reduced

    def test_already_reduced_slice_unchanged(self, graphs):
        for n in (4, 5):
            g = graphs(n)
            for k in range(1, n - 1):
                for v in range(len(g)):
                    slice_path = cross_section(g.tiling(v), k + 1)
                    if satisfies_triple_condition(slice_path):
                        assert (
                            reduced_cross_section(g, k_class(g, v, k), k).vertices
                            == slice_path.vertices
                        )

    @pytest.mark.parametrize("n", [4, 5])
    def test_constant_on_classes_and_injective(self, graphs, n):
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
    def test_class_definition_and_half_turn_mirror(self, points):
        # Two reductions of a slice are fixed on a class.  The k-class's
        # reduced path is built here a second way: the size-(k+1) sets seen
        # anywhere in the class minus those toggled by a flip inside it.  The
        # other reduction, the meet of the k-class's level-k slices, must be
        # the complement of the half-turn image's reduced path.
        from zonotiling import enumerate_tilings

        g = enumerate_tilings(make_config(points))
        n = g.n
        full = (1 << n) - 1
        for k in range(1, n - 1):
            labels = components_excluding_levels(g, {k})
            seen, toggled, level_k_meet = {}, {}, {}
            for u in range(len(g)):
                c = labels[u]
                upper = level_vertex_masks(g.tiling(u), k + 1)
                lower = level_vertex_masks(g.tiling(u), k)
                seen[c] = seen.get(c, frozenset()) | upper
                level_k_meet[c] = level_k_meet.get(c, lower) & lower
                for w, level in zip(g.adj[u], g.levels[u]):
                    if level != k:
                        toggled[c] = toggled.get(c, frozenset()) | (
                            upper ^ level_vertex_masks(g.tiling(w), k + 1)
                        )
            for v in range(len(g)):
                c = labels[v]
                reduced = reduced_cross_section(g, k_class(g, v, k), k).vertex_masks()
                assert set(reduced) == seen[c] - toggled.get(c, frozenset())
                w = g.opposite_node(v)
                image = reduced_cross_section(g, k_class(g, w, n - 1 - k), n - 1 - k)
                assert {full ^ m for m in image.vertex_masks()} == level_k_meet[c]

    def test_reduced_is_subsequence_of_slice(self, graphs):
        g = graphs(5)
        for v in range(0, len(g), 7):
            for k in (1, 2, 3):
                slice_verts = cross_section(g.tiling(v), k + 1).vertices
                reduced = reduced_cross_section(g, k_class(g, v, k), k).vertices
                it = iter(slice_verts)
                assert all(s in it for s in reduced)

    @pytest.mark.parametrize("points", [[1, 2, 3, 4, 5], [-2, -1, 0, 1, 2]])
    def test_reads_exactly_the_members(self, points, monkeypatch):
        # each member's key once, no tiling, and no component labelling
        from zonotiling import enumerate_tilings, flipgraph, secondary

        g = enumerate_tilings(make_config(points))
        classes = {k: equivalence_classes(g, {k}) for k in range(1, g.n - 1)}
        stored = dict(g.labellings)
        read = []
        real_slices = hypertri.key_slices

        def counted_slices(n, key, level):
            read.append(key)
            return real_slices(n, key, level)

        def no_labelling(*args, **kwargs):
            raise AssertionError("reduced_cross_section labelled components")

        def no_tiling(*args, **kwargs):
            raise AssertionError("reduced_cross_section built a Tiling")

        monkeypatch.setattr(hypertri, "key_slices", counted_slices)
        monkeypatch.setattr(Tiling, "__init__", no_tiling)
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

    def test_json_flags_reduced(self, graphs):
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
        slices = [level_vertex_masks(t, k) for t in map(g.tiling, range(len(g)))]
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
        calls = {"slice": 0, "cross": 0, "reduced": 0}
        passed = []
        real_slices = hypertri.key_slices
        real_reduced = hypertri._reduced_path

        def counted_slices(n, key, level):
            calls["slice"] += level == k
            return real_slices(n, key, level)

        def counted_cross(tiling, level):
            calls["cross"] += 1
            return cross_section(tiling, level)

        def counted_reduced(common, level, n):
            calls["reduced"] += 1
            passed.append(common)
            return real_reduced(common, level, n)

        monkeypatch.setattr(hypertri, "key_slices", counted_slices)
        monkeypatch.setattr(hypertri, "cross_section", counted_cross)
        monkeypatch.setattr(hypertri, "_reduced_path", counted_reduced)
        rec = hypertri_diameters(g, k)
        assert rec["findings"] == []
        assert calls == {"slice": len(g), "cross": 0, "reduced": rec["reduced"]["classes"]}
        # each meet is over a whole class, and equals the meet of its tiles' slices
        classes = skeleton(g, k, "reduced_all").classes
        assert passed == [
            frozenset.intersection(*(level_vertex_masks(g.tiling(v), k + 1) for v in members))
            for members in classes
        ]

    def test_builds_no_tiling(self, graphs, monkeypatch):
        g = graphs(5)

        def refuse(*args, **kwargs):
            raise AssertionError("hypertri_diameters built a Tiling")

        monkeypatch.setattr(Tiling, "__init__", refuse)
        for k in range(1, g.n - 1):
            assert hypertri_diameters(g, k)["findings"] == []


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
            self.assert_key_route_matches(n, g.keys[v], g.tiling(v))

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
        g = graphs(7)
        for v in range(len(g)):
            self.assert_key_route_matches(7, g.keys[v], g.tiling(v))

    @pytest.mark.slow
    def test_flip_walk_n8(self):
        n = 8
        rng = random.Random(8)
        t = extremal_tiling(standard_config(n), "min")
        for _ in range(3000):
            t = apply_flip(t, rng.choice(available_flips(t)))
            self.assert_key_route_matches(n, orientation_of(t).bits, t)


def _slice_word(n, k, masks):
    """The key_slices word whose level-k bits mark exactly the given masks."""
    subsets = hypertri._slice_tables(n, k)[3]
    return sum(1 << subsets.index(m) for m in masks)


def _replace_slices(monkeypatch, graph, k, replacement):
    """Make the level-k slice of each node v in replacement read replacement[v]."""
    real = hypertri.key_slices
    lower = full_mask(comb(graph.n, k))

    def fake(n, key, level):
        word = real(n, key, level)
        v = graph.index.get(key)
        if level == k and v in replacement:
            return word & ~lower | _slice_word(n, k, replacement[v])
        return word

    monkeypatch.setattr(hypertri, "key_slices", fake)


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
            {a: level_vertex_masks(g.tiling(b), k), b: level_vertex_masks(g.tiling(a), k)},
        )
        rec = hypertri_diameters(g, k)
        assert rec["path_quotient_equal"] is False
        assert "equal-path grouping differs from the simultaneous quotient" in rec["findings"]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_two_classes_sharing_a_slice(self, graphs, monkeypatch, k):
        # still constant on every class, but one distinct slice short
        g = graphs(5)
        first, second = skeleton(g, k, "lifting_all").classes[:2]
        shared = level_vertex_masks(g.tiling(second[0]), k)
        _replace_slices(monkeypatch, g, k, {v: shared for v in first})
        rec = hypertri_diameters(g, k)
        assert rec["path_quotient_equal"] is False
        assert "equal-path grouping differs from the simultaneous quotient" in rec["findings"]
