import random
from array import array
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from full_bfs_oracle import full_bfs_graph
from strategies import configurations
from tile_oracle import (
    FlipMove,
    apply_flip,
    available_flips,
    extremal_tiling,
    flip_along,
    orientation_of,
    tile_route_graph,
    tiling_of_orientation,
)
from zonotiling import (
    diameter,
    distance,
    enumerate_tilings,
    expected_level_census,
    graph_diameter,
    graph_to_dot,
    graph_to_json,
    level_census,
    make_config,
    max_chain_through,
    modified_potential,
    potential,
    regular_set,
    sample_chain,
    skeleton,
    standard_config,
)
from zonotiling import cli, core, flipgraph
from zonotiling.core import Finding, colex_triples, triple_rank
from zonotiling.flipgraph import (
    EnumerationCapError,
    bfs_distances,
    component_pairs,
    column_flips,
    components_excluding_levels,
    key_flips,
)
from zonotiling.secondary import potential_between


def reference_diameter(adj):
    """One BFS per source: max eccentricity, ties to the smallest source,
    then to the smallest farthest node."""
    best = None
    for s in range(len(adj)):
        dist = bfs_distances(adj, s)
        ecc = max(dist)
        far = dist.index(ecc)
        if best is None or ecc > best[0]:
            best = (ecc, s, far)
    return best[0], (best[1], best[2])


def random_connected_graph(rng, size):
    """A random spanning tree plus extra edges, node ids shuffled."""
    edges = {(rng.randrange(v), v) for v in range(1, size)}
    for _ in range(rng.randrange(2 * size)):
        u, v = rng.randrange(size), rng.randrange(size)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    perm = list(range(size))
    rng.shuffle(perm)
    adj = [[] for _ in range(size)]
    for u, v in edges:
        adj[perm[u]].append(perm[v])
        adj[perm[v]].append(perm[u])
    return [sorted(nbrs) for nbrs in adj]


@pytest.mark.parametrize("n,count", [(2, 1), (3, 2), (4, 8), (5, 62)])
def test_node_counts(graphs, n, count):
    assert len(graphs(n)) == count


class TestMemoryRefusal:
    """An n whose graph would not fit is refused before enumeration starts."""

    @pytest.fixture(autouse=True)
    def no_enumeration(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(flipgraph, "column_flips", refuse)

    def test_n9_refused_on_a_7gb_machine(self, monkeypatch):
        monkeypatch.setattr(flipgraph, "_physical_memory", lambda: 7 * 10**9)
        with pytest.raises(EnumerationCapError, match=r"17\.1 GB.*7\.0 GB"):
            enumerate_tilings(standard_config(9))

    def test_n8_fits_a_7gb_machine(self, monkeypatch):
        monkeypatch.setattr(flipgraph, "_physical_memory", lambda: 7 * 10**9)
        with pytest.raises(AssertionError, match="enumeration started"):
            enumerate_tilings(standard_config(8))

    def test_n11_refused_without_a_count(self):
        with pytest.raises(EnumerationCapError, match="no tiling count"):
            enumerate_tilings(standard_config(11))

    def test_unknown_memory_refuses_only_beyond_the_counts(self, monkeypatch):
        monkeypatch.setattr(flipgraph, "_physical_memory", lambda: None)
        with pytest.raises(AssertionError, match="enumeration started"):
            enumerate_tilings(standard_config(10))


def test_keys_match_orientations_and_min_max(graphs):
    g = graphs(5)
    assert g.min_id == 0
    assert g.keys[0] == 0
    assert g.keys[g.max_id] == (1 << 10) - 1
    for v in (0, 5, 30, 61):
        assert orientation_of(tiling_of_orientation(5, g.keys[v])).bits == g.keys[v]


def test_edges_symmetric_with_complementary_directions(graphs):
    g = graphs(5)
    directed = {}
    for u, nbrs in enumerate(g.adj):
        assert len(g.levels[u]) == len(nbrs)
        for v, level in zip(nbrs, g.levels[u]):
            directed[(u, v)] = (level, g.keys[v] > g.keys[u])
    for (u, v), (level, raising) in directed.items():
        assert directed[(v, u)] == (level, not raising)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_raising_edges_lead_to_later_ids(graphs, n):
    # sample_chain and max_chain_through read a flip's direction off the ids
    g = graphs(n)
    for u, nbrs in enumerate(g.adj):
        for v in nbrs:
            assert (v > u) == (g.keys[v] > g.keys[u])


@pytest.mark.parametrize(
    "points",
    [None, ["0", "1/2", "2", "7/3", "5", "11/2"]],
    ids=["standard", "rational"],
)
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_edges_agree_with_flip_along(points, n):
    # every stored edge against the tile-based flip it must come from:
    # one key bit apart, with the level and direction of that circuit's flip
    config = standard_config(n) if points is None else make_config(points[:n])
    g = enumerate_tilings(config)
    triples = colex_triples(n)
    for u, nbrs in enumerate(g.adj):
        for v, level in zip(nbrs, g.levels[u]):
            bit = g.keys[u] ^ g.keys[v]
            assert bit.bit_count() == 1
            move = flip_along(tiling_of_orientation(n, g.keys[u]), *triples[bit.bit_length() - 1])
            assert move is not None
            assert move.level == level
            assert move.raising == (g.keys[v] > g.keys[u])
    ranks = [key.bit_count() for key in g.keys]
    assert ranks == sorted(ranks)


@pytest.mark.parametrize(
    "points",
    [None, ["0", "1/2", "2", "7/3", "5", "11/2", "10969/1994"]],
    ids=["standard", "rational"],
)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, pytest.param(7, marks=pytest.mark.slow)])
def test_key_view_matches_tile_route(points, n):
    config = standard_config(n) if points is None else make_config(points[:n])
    g = enumerate_tilings(config)
    keys, adj, levels, tilings = tile_route_graph(config)
    assert g.keys == keys
    assert [list(nbrs) for nbrs in g.adj] == adj
    assert list(g.levels) == levels
    assert [tiling_of_orientation(n, key) for key in g.keys] == tilings
    assert tilings[0] == extremal_tiling(config, "min")
    assert tilings[g.max_id] == extremal_tiling(config, "max")
    for key in keys:
        assert orientation_of(tiling_of_orientation(n, key)).bits == key


def tile_flips(tiling):
    """(key bit, level) of every available flip, read off the tiles."""
    return [(1 << triple_rank(*move.triple), move.level) for move in available_flips(tiling)]


def key_route_flips(n, key):
    bits, levels = key_flips(n, key)
    return list(zip(bits, levels))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_key_flips_match_the_tiles_at_every_node(graphs, n):
    for key in graphs(n).keys:
        assert key_route_flips(n, key) == tile_flips(tiling_of_orientation(n, key))


@pytest.mark.parametrize("n,steps", [(7, 3000), (8, 3000)])
def test_key_flips_match_the_tiles_along_random_walks(n, steps):
    # the walk itself runs on tiles, so it leans on no part of the key route
    rng = random.Random(n)
    tiling = extremal_tiling(standard_config(n), "min")
    for _ in range(steps):
        moves = available_flips(tiling)
        key = orientation_of(tiling).bits
        assert key_route_flips(n, key) == tile_flips(tiling)
        tiling = apply_flip(tiling, moves[rng.randrange(len(moves))])


class TestColumnFlips:
    """The flip kernel on many keys at once, in chunks that end mid-layer."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(core, "_KEY_CHUNK", 3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_enumeration_matches_the_tile_route(self, n):
        config = standard_config(n)
        g = enumerate_tilings(config)
        keys, adj, levels, _ = tile_route_graph(config)
        assert g.keys == keys
        assert [list(nbrs) for nbrs in g.adj] == adj
        assert list(g.levels) == levels

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_every_key_at_once(self, graphs, n):
        keys = graphs(n).keys
        flips = [list(zip(bits, levels)) for bits, levels in column_flips(n, keys)]
        assert flips == [tile_flips(tiling_of_orientation(n, key)) for key in keys]

    def test_one_call_per_layer(self, monkeypatch):
        # C(6,3) = 20: the BFS reads layers 0 .. 10, each whole and once
        layers = []
        real = flipgraph.column_flips

        def spy(n, keys):
            layers.append(list(keys))
            return real(n, keys)

        monkeypatch.setattr(flipgraph, "column_flips", spy)
        g = enumerate_tilings(standard_config(6))
        first_half = [key for key in g.keys if key.bit_count() <= 10]
        assert [key for layer in layers for key in layer] == first_half
        assert [{key.bit_count() for key in layer} for layer in layers] == [{d} for d in range(11)]


def test_enumeration_builds_no_tiling_or_flip_move(monkeypatch, decoded_keys):
    def refuse(*args, **kwargs):
        raise AssertionError("enumeration built a FlipMove")

    monkeypatch.setattr(FlipMove, "__init__", refuse)
    assert len(enumerate_tilings(standard_config(6))) == 908
    assert decoded_keys == []


@pytest.mark.slow
def test_full_enumeration_n8():
    g = enumerate_tilings(standard_config(8))
    assert len(g) == 1_232_944
    assert g.edge_count() == 5_295_168
    # ids run through the inversion-count layers, each in sorted key order
    assert g.keys == sorted(g.keys, key=lambda key: (key.bit_count(), key))
    # the half-turn identity the second half is built from, on every node:
    # the complement key has the same flips, at levels n - 1 - l, and the
    # mirrored node holds exactly those
    full = (1 << comb(8, 3)) - 1
    last = len(g) - 1
    half = g.keys[: (len(g) + 1) // 2]
    flips = column_flips(8, half)
    image_flips = column_flips(8, [key ^ full for key in half])
    for u, key in enumerate(half):
        bits, levels = next(flips)
        assert [g.keys[w] for w in g.adj[u]] == [key ^ bit for bit in bits]
        assert g.levels[u] == levels
        image_bits, image_levels = next(image_flips)
        assert image_bits == bits
        assert list(image_levels) == [7 - level for level in levels]
        v = last - u
        assert g.keys[v] == key ^ full
        assert [g.keys[w] for w in g.adj[v]] == [(key ^ full) ^ bit for bit in bits]
        assert g.levels[v] == image_levels


def test_deterministic_node_numbering():
    a = enumerate_tilings(standard_config(5))
    b = enumerate_tilings(standard_config(5))
    assert a.keys == b.keys
    assert a == b  # keys and the three adjacency arrays


def test_non_integer_coordinates_same_graph_size(graphs):
    g = enumerate_tilings(make_config(["-7/2", "-1/3", 0, "2/5", 9]))
    assert len(g) == len(graphs(5)) == 62


class TestHalfTurnEnumeration:
    """The half-BFS-and-mirror enumeration against a plain BFS over every layer."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_graph_equals_the_full_bfs(self, graphs, n):
        g = graphs(n)
        keys, adj, levels = full_bfs_graph(standard_config(n))
        assert g.keys == keys
        assert [list(nbrs) for nbrs in g.adj] == adj
        assert list(g.levels) == levels

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_every_node_reads_its_flips_off_its_key(self, graphs, n):
        g = graphs(n)
        flips = column_flips(n, g.keys)
        for v, key in enumerate(g.keys):
            bits, levels = next(flips)
            assert [g.keys[w] for w in g.adj[v]] == [key ^ bit for bit in bits]
            assert g.levels[v] == levels

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_adjacency_is_three_flat_arrays(self, graphs, n):
        # no per-node object: node v's views are its slice of the flat arrays,
        # and equal the full BFS's lists, node by node
        g = graphs(n)
        _, adj, levels = full_bfs_graph(standard_config(n))
        assert (g.nbr_ids.typecode, g.offsets.typecode, type(g.nbr_levels)) == ("i", "i", bytes)
        assert len(g.offsets) == len(g) + 1 and g.offsets[-1] == len(g.nbr_ids) == len(g.nbr_levels)
        assert len(g.adj) == len(g.levels) == len(g)
        for v in range(len(g)):
            a, b = g.offsets[v], g.offsets[v + 1]
            assert list(g.adj[v]) == list(g.nbr_ids[a:b]) == adj[v]
            assert g.levels[v] == g.nbr_levels[a:b] == levels[v]
        with pytest.raises(IndexError):  # a negative id would read another node's slice
            g.adj[-1]
        if len(g.nbr_ids):
            with pytest.raises(TypeError):
                g.adj[len(g) - 1][0] = 0


class TestDistance:
    def test_self_distance(self, graphs):
        assert distance(graphs(4), 3, 3) == 0

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_min_to_max(self, graphs, n):
        g = graphs(n)
        assert distance(g, g.min_id, g.max_id) == comb(n, 3)

    def test_symmetry_sampled(self, graphs):
        g = graphs(5)
        for u, v in [(0, 61), (5, 17), (30, 44), (2, 2)]:
            assert distance(g, u, v) == distance(g, v, u)

    def test_rank_identity(self, graphs):
        # dist(min, T) + dist(T, max) = C(n,3): the flip graph is graded
        for n in (4, 5, 6):
            g = graphs(n)
            from_min = bfs_distances(g.adj, g.min_id)
            from_max = bfs_distances(g.adj, g.max_id)
            for v in range(len(g)):
                assert from_min[v] == g.keys[v].bit_count()
                assert from_min[v] + from_max[v] == comb(n, 3)


def _render(argv):
    """``cmd_render`` on the options that ``main`` resolves from argv."""
    ns = cli.build_parser().parse_args(argv)
    cli.cmd_render(cli._resolve(ns), ns)


@pytest.mark.parametrize("bad", ["negative", "past_end"])
@pytest.mark.parametrize(
    "call",
    [
        lambda g, x: distance(g, x, 0),
        lambda g, x: distance(g, 0, x),
        lambda g, x: potential(g, x, 1),
        lambda g, x: modified_potential(g, x, 1),
        lambda g, x: potential_between(g, x, 0, 1),
        lambda g, x: potential_between(g, 0, x, 1),
        lambda g, x: max_chain_through(g, x),
        lambda g, x: max_chain_through(g, x, regular_nodes=set(range(len(g)))),
        lambda g, x: _render(["render", f"--n={g.n}", f"--tiling={x}"]),
        lambda g, x: g.opposite_node(x),
    ],
    ids=[
        "distance-from", "distance-to", "potential", "modified_potential",
        "potential_between-reference", "potential_between-node",
        "max_chain_through", "max_chain_through-regular",
        "render", "opposite_node",
    ],
)
def test_node_ids_outside_the_graph_are_refused(graphs, call, bad):
    # a negative id must not wrap around to the last nodes
    g = graphs(4)
    node = -1 if bad == "negative" else len(g)
    with pytest.raises(ValueError, match=rf"node id {node} is outside 0\.\.7"):
        call(g, node)


class TestDiameter:
    def test_single_node(self):
        assert graph_diameter([[]]) == (0, (0, 0))

    def test_path_graph(self):
        m = 7
        adj = [[v for v in (u - 1, u + 1) if 0 <= v <= m] for u in range(m + 1)]
        assert graph_diameter(adj) == (m, (0, m))

    def test_full_graph_n4(self, graphs):
        value, (u, v) = graph_diameter(graphs(4).adj)
        assert value == 4

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="disconnected"):
            graph_diameter([[1], [0], []])

    def test_random_graphs_match_reference(self):
        rng = random.Random(2020)
        for _ in range(200):
            adj = random_connected_graph(rng, rng.randint(1, 40))
            assert graph_diameter(adj) == reference_diameter(adj)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_skeletons_match_reference(self, graphs, regulars, n):
        g = graphs(n)
        adj = g.adj
        assert graph_diameter(adj) == reference_diameter(adj)
        for k in range(1, n - 1):
            for mode in ("sigma_k", "sigma_k_plus_prev", "lifting_all", "reduced_all"):
                sk = skeleton(g, k, mode, regulars(n))
                assert graph_diameter(sk.adj) == reference_diameter(sk.adj)

    @pytest.mark.parametrize("batch", [1, 2, 3, 7])
    def test_source_batches_match_reference(self, graphs, monkeypatch, batch):
        monkeypatch.setattr(flipgraph, "_SOURCE_BATCH", batch)
        rng = random.Random(batch)
        samples = [graphs(4).adj, graphs(5).adj]
        samples += [random_connected_graph(rng, rng.randint(1, 30)) for _ in range(50)]
        for adj in samples:
            assert graph_diameter(adj) == reference_diameter(adj)

    def test_disconnected_in_a_later_batch_rejected(self, monkeypatch):
        monkeypatch.setattr(flipgraph, "_SOURCE_BATCH", 2)
        with pytest.raises(ValueError, match="disconnected"):
            graph_diameter([[1], [0, 2], [1], []])

    @pytest.mark.slow
    def test_full_graph_n7(self):
        value, _ = diameter(enumerate_tilings(standard_config(7)))
        assert value == comb(7, 3) == 35


class TestChains:
    def test_census_fixture_n4(self, graphs):
        g = graphs(4)
        for seed in range(6):
            chain = sample_chain(g, seed)
            assert len(chain.levels) == 4
            assert level_census(chain, 4) == (2, 2) == expected_level_census(4)

    def test_census_fixture_n5(self, graphs):
        chain = sample_chain(graphs(5), 11)
        assert level_census(chain, 5) == (3, 4, 3)
        assert sum(level_census(chain, 5)) == 10

    def test_deterministic_per_seed(self, graphs):
        g = graphs(5)
        assert sample_chain(g, 7) == sample_chain(g, 7)
        assert sample_chain(g, 7) != sample_chain(g, 8)

    def test_trivial_chain_n2(self, graphs):
        chain = sample_chain(graphs(2), 0)
        assert chain.nodes == (0,) and chain.levels == ()

    def test_every_raising_walk_completes_n4(self, graphs):
        # exhaustive: no greedy raising walk can get stuck
        g = graphs(4)
        stack = [(g.min_id, ())]
        complete = 0
        while stack:
            node, levels = stack.pop()
            raising = [
                (v, level)
                for v, level in zip(g.adj[node], g.levels[node])
                if g.keys[v] > g.keys[node]
            ]
            if not raising:
                assert node == g.max_id
                assert len(levels) == 4
                census = [0, 0]
                for lv in levels:
                    census[lv - 1] += 1
                assert tuple(census) == (2, 2)
                complete += 1
            for v, level in raising:
                stack.append((v, levels + (level,)))
        # the n=4 flip graph is an 8-cycle, so exactly two monotone walks
        assert complete == 2

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_every_chain_census_by_extremal_dp(self, graphs, n):
        # min and max possible level-k step counts over ALL monotone walks,
        # by dynamic programming up the rank order; both must pin k(n-k-1)
        g = graphs(n)
        order = sorted(range(len(g)), key=lambda v: g.keys[v].bit_count())
        expected = expected_level_census(n)
        for k in range(1, n - 1):
            lo = [None] * len(g)
            hi = [None] * len(g)
            lo[g.min_id] = hi[g.min_id] = 0
            for v in order:
                if v == g.min_id:
                    continue
                steps = [
                    (lo[w] + (level == k), hi[w] + (level == k))
                    for w, level in zip(g.adj[v], g.levels[v])
                    if g.keys[w] < g.keys[v] and lo[w] is not None
                ]
                lo[v] = min(s[0] for s in steps)
                hi[v] = max(s[1] for s in steps)
            assert lo[g.max_id] == hi[g.max_id] == expected[k - 1]


class TestMaxChainThrough:
    def test_through_each_node_n4(self, graphs):
        g = graphs(4)
        for v in range(len(g)):
            chain = max_chain_through(g, v)
            assert chain.nodes[0] == g.min_id
            assert chain.nodes[-1] == g.max_id
            assert v in chain.nodes
            assert len(chain.levels) == 4
            assert level_census(chain, 4) == expected_level_census(4)

    def test_regular_restriction(self, graphs, regulars):
        g = graphs(5)
        regs = regulars(5)
        chain = max_chain_through(g, 31, regular_nodes=regs)
        assert set(chain.nodes) <= regs
        assert len(chain.levels) == 10

    def test_outside_allowed_set_rejected(self, graphs):
        with pytest.raises(ValueError):
            max_chain_through(graphs(4), 3, regular_nodes=frozenset({0}))

    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("restricted", [False, True], ids=["all", "regular"])
    def test_through_every_node(self, graphs, regulars, n, restricted):
        g = graphs(n)
        allowed = regulars(n) if restricted else frozenset(range(len(g)))
        for v in sorted(allowed):
            chain = max_chain_through(g, v, regular_nodes=allowed if restricted else None)
            assert (chain.nodes[0], chain.nodes[-1]) == (g.min_id, g.max_id)
            assert len(chain) == len(chain.nodes) - 1 == comb(n, 3)
            assert v in chain.nodes
            assert set(chain.nodes) <= allowed
            for a, b, level in zip(chain.nodes, chain.nodes[1:], chain.levels):
                assert b > a  # every step raises
                assert level == g.levels[a][list(g.adj[a]).index(b)]

    def test_no_chain_is_a_finding(self, graphs):
        # the set holds the node but not the maximum, so no chain ends there
        g = graphs(5)
        with pytest.raises(Finding, match="no monotone chain through node 3"):
            max_chain_through(g, 3, regular_nodes=frozenset(range(g.max_id)))


class TestComponents:
    def test_no_deletion_is_connected(self, graphs):
        labels = components_excluding_levels(graphs(5), ())
        assert set(labels) == {0}

    def test_deleting_every_level_isolates(self, graphs):
        labels = components_excluding_levels(graphs(4), {1, 2})
        assert list(labels) == list(range(8))

    def test_labelling_is_stored_once(self, graphs, regulars):
        g = graphs(5)
        labels = components_excluding_levels(g, [2])
        assert components_excluding_levels(g, {2}) is labels
        within = components_excluding_levels(g, {2}, within=regulars(5))
        assert components_excluding_levels(g, (2,), frozenset(set(regulars(5)))) is within

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_within_matches_induced_subgraph(self, graphs, regulars, k):
        g, allowed = graphs(6), regulars(6)
        assert len(g) - len(allowed) == 20
        expected = [-1] * len(g)
        for start in sorted(allowed):
            if expected[start] >= 0:
                continue
            expected[start] = start
            stack = [start]
            while stack:
                u = stack.pop()
                for v, level in zip(g.adj[u], g.levels[u]):
                    if level != k and v in allowed and expected[v] < 0:
                        expected[v] = start
                        stack.append(v)
        plain = components_excluding_levels(g, {k})
        labels = components_excluding_levels(g, {k}, within=allowed)
        assert list(labels) == expected
        assert -1 not in plain
        assert all(labels[v] == -1 for v in range(len(g)) if v not in allowed)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_labels_and_pairs_match_union_find(self, graphs, n):
        # an independent union-find over the kept edges, for every level set
        g = graphs(n)
        edges = list(g.undirected_edges())
        for size in range(n - 1):
            for deleted in combinations(range(1, n - 1), size):
                parent = list(range(len(g)))

                def find(v):
                    while parent[v] != v:
                        parent[v] = parent[parent[v]]
                        v = parent[v]
                    return v

                for u, v, level in edges:
                    if level not in deleted:
                        ru, rv = find(u), find(v)
                        parent[max(ru, rv)] = min(ru, rv)  # the root is the smallest id
                expected = [find(v) for v in range(len(g))]
                crossings = {
                    tuple(sorted((expected[u], expected[v])))
                    for u, v, level in edges
                    if level in deleted
                }
                assert list(components_excluding_levels(g, deleted)) == expected
                assert sorted(component_pairs(g, deleted)) == sorted(crossings)

    @pytest.mark.parametrize("stray", [-1, 62])
    def test_within_outside_the_graph_refused(self, graphs, stray):
        # -1 would wrap to the last node, and 62 is past the end of n = 5
        with pytest.raises(ValueError, match=r"node id .* is outside 0\.\.61"):
            components_excluding_levels(graphs(5), {1}, within={0, stray})


class TestHalfTurnLabellings:
    """Labellings built from their stored half-turn twin against a fresh BFS."""

    RATIONAL = ["0", "1/2", "2", "7/3", "5", "11/2", "10969/1994"]

    @staticmethod
    def assert_derived_equals_bfs(g, deleted, within):
        banned = frozenset(deleted)
        twin_levels = frozenset(g.n - 1 - level for level in banned)
        twin_within = None if within is None else frozenset(len(g) - 1 - v for v in within)
        twin = flipgraph._bfs_labelling(g, twin_levels, twin_within)
        derived = flipgraph._mirrored_labelling(g, twin)
        labels, pairs, members, starts = flipgraph._bfs_labelling(g, banned, within)
        assert derived[0] == labels and derived[0].typecode == "i"
        assert set(derived[1]) == set(pairs)
        assert derived[2] == members
        assert derived[3] == starts

    @staticmethod
    def withins(g, config):
        # None, the regular set (closed under the half-turn), and a drawn set
        # that is not closed under it
        drawn = frozenset(random.Random(len(g)).sample(range(len(g)), (len(g) + 1) // 2))
        if len(g) > 1:
            assert {len(g) - 1 - v for v in drawn} != drawn
        return [None, regular_set(enumerate_tilings(config)).nodes, drawn]

    @pytest.mark.parametrize("points", [None, RATIONAL], ids=["standard", "rational"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_every_level_set_and_node_set(self, graphs, points, n):
        g = graphs(n)
        config = standard_config(n) if points is None else make_config(points[:n])
        for within in self.withins(g, config):
            for size in range(n - 1):
                for deleted in combinations(range(1, n - 1), size):
                    self.assert_derived_equals_bfs(g, deleted, within)

    def test_skeleton_level_sets_n7(self, graphs):
        g = graphs(7)
        drawn = frozenset(random.Random(7).sample(range(len(g)), len(g) // 2))
        for within in (None, drawn):
            for k in range(1, 6):
                for deleted in ({k}, {k - 1, k} - {0}):
                    self.assert_derived_equals_bfs(g, deleted, within)

    def test_stored_twin_is_read_not_searched(self, graphs, monkeypatch):
        # through the public call: the second of a twin pair takes no BFS
        base = graphs(6)
        g = flipgraph.FlipGraph(base.config, base.keys, base.nbr_ids, base.nbr_levels, base.offsets)
        searched = []
        real = flipgraph._bfs_labelling

        def counted(graph, banned, within):
            searched.append(banned)
            return real(graph, banned, within)

        monkeypatch.setattr(flipgraph, "_bfs_labelling", counted)
        drawn = frozenset(range(0, len(g), 3))
        image = frozenset(len(g) - 1 - v for v in drawn)
        components_excluding_levels(g, {1, 2}, within=drawn)
        second = components_excluding_levels(g, {3, 4}, within=image)
        assert searched == [frozenset({1, 2})]
        stored = g.labellings[(frozenset({3, 4}), image)]
        fresh = real(g, frozenset({3, 4}), image)
        assert second is stored[0]
        assert stored[0] == fresh[0] and set(stored[1]) == set(fresh[1])
        assert stored[2:] == fresh[2:]

    def test_skeleton_sweep_n7_labels_three_times(self, graphs, monkeypatch):
        # {1}<->{5}, {2}<->{4}, {1,2}<->{4,5}, {2,3}<->{3,4}: 4 of 9 are
        # images, and {2}, {3} are merged from the stored {1,2}, {2,3}
        base = graphs(7)
        g = flipgraph.FlipGraph(base.config, base.keys, base.nbr_ids, base.nbr_levels, base.offsets)
        searched = []
        real = flipgraph._bfs_labelling

        def counted(graph, banned, within):
            searched.append(sorted(banned))
            return real(graph, banned, within)

        monkeypatch.setattr(flipgraph, "_bfs_labelling", counted)
        for k in range(1, 6):
            for mode in ("lifting_all", "reduced_all"):
                skeleton(g, k, mode)
        assert searched == [[1], [1, 2], [2, 3]]
        assert len(g.labellings) == 9


class TestMergedLabellings:
    """Labellings merged from a stored one of more deleted levels, against a fresh BFS."""

    @staticmethod
    def assert_every_merge_equals_bfs(g, within):
        levels = sorted(set(g.nbr_levels))
        bfs = {
            frozenset(deleted): flipgraph._bfs_labelling(g, frozenset(deleted), within)
            for size in range(len(levels) + 1)
            for deleted in combinations(levels, size)
        }
        for finer, stored in bfs.items():
            for banned, fresh in bfs.items():
                if banned < finer:
                    merged = flipgraph._merged_labelling(g, stored, finer - banned)
                    assert merged[0] == fresh[0] and merged[0].typecode == "i"
                    assert merged[2] == fresh[2] and merged[3] == fresh[3]
                    # each pair with its level, self-pairs (c, c) included
                    assert set(merged[1]) == set(fresh[1])

    @pytest.mark.parametrize("n", [4, 5, 6])
    @settings(max_examples=5)
    @given(data=st.data())
    def test_every_finer_level_set(self, n, data):
        # a_i = i or a drawn configuration: the graph is the same, the regular set moves
        g = enumerate_tilings(data.draw(st.one_of(st.just(standard_config(n)), configurations(n))))
        for within in (None, regular_set(g).nodes):
            self.assert_every_merge_equals_bfs(g, within)

    def test_self_pairs_survive_a_merge(self):
        # edges 0-1 and 1-2 at level 2 join one {1}-class, which the level-1
        # edge 0-2 would join to itself: merged from {1,2}, the pair (0, 0)
        # at level 1 is kept, and the skeleton still reports it
        g = flipgraph.FlipGraph(
            standard_config(3), [0, 1, 2], array("i", [1, 2, 0, 2, 1, 0]),
            bytes([2, 1, 2, 2, 2, 1]), array("i", [0, 2, 4, 6]),
        )
        self.assert_every_merge_equals_bfs(g, None)
        components_excluding_levels(g, {1, 2})
        assert set(component_pairs(g, {1})) == {(0, 0)}
        with pytest.raises(Finding, match="joins two members of one class"):
            skeleton(g, 1, "reduced_all")

    @staticmethod
    def searches(monkeypatch):
        searched = []
        real = flipgraph._bfs_labelling

        def counted(graph, banned, within):
            searched.append((sorted(banned), within is not None))
            return real(graph, banned, within)

        monkeypatch.setattr(flipgraph, "_bfs_labelling", counted)
        return searched

    def test_stored_superset_is_merged_not_searched(self, graphs, monkeypatch):
        base = graphs(6)
        g = flipgraph.FlipGraph(base.config, base.keys, base.nbr_ids, base.nbr_levels, base.offsets)
        searched = self.searches(monkeypatch)
        components_excluding_levels(g, {1, 2, 3})
        components_excluding_levels(g, {1, 2})
        components_excluding_levels(g, {2})
        # a labelling within a node set is merged only from one on that set
        components_excluding_levels(g, {2}, within=frozenset(range(0, len(g), 2)))
        assert searched == [([1, 2, 3], False), ([2], True)]

    def test_skeleton_sweep_n6(self, graphs, monkeypatch):
        # requests {1}, {1}, {1,2}, {2}, {2,3}, {3}, {3,4}, {4}: {2} and {3}
        # are merged, and {3,4}, {4} are the images of {1,2}, {1}
        base = graphs(6)
        g = flipgraph.FlipGraph(base.config, base.keys, base.nbr_ids, base.nbr_levels, base.offsets)
        searched = self.searches(monkeypatch)
        for k in range(1, 5):
            for mode in ("lifting_all", "reduced_all"):
                skeleton(g, k, mode)
        assert searched == [([1], False), ([1, 2], False), ([2, 3], False)]

    def test_hypertri_n6_k3_runs_one_bfs(self, monkeypatch, capsys):
        # lifting {2,3} by BFS, reduced {3} merged from it
        searched = self.searches(monkeypatch)
        assert cli.main(["hypertri", "--n", "6", "--k", "3", "--strict"]) == 0
        assert searched == [([2, 3], False)]

    def test_diameters_n6_runs_five_bfs(self, monkeypatch, capsys):
        # per k: {k-1,k}, then {k} merged from it, the dual sigma_(5-k), and
        # {k} within the regular set; the images of stored twins take no BFS
        searched = self.searches(monkeypatch)
        assert cli.main(["diameters", "--n", "6", "--all", "--strict"]) == 0
        assert searched == [
            ([1], False), ([1], True), ([1, 2], False), ([2], True), ([2, 3], False)
        ]


class TestExports:
    def test_json_shape(self, graphs):
        # nodes and edges are iterators, read as the artifact is written
        data = graph_to_json(graphs(4))
        data["nodes"], data["edges"] = list(data["nodes"]), list(data["edges"])
        assert data["n"] == 4
        assert len(data["nodes"]) == 8
        assert all(len(e) == 3 for e in data["edges"])
        assert data["nodes"][0] == "0"
        assert sorted(e[2] for e in data["edges"]) == [1, 1, 1, 1, 2, 2, 2, 2]

    def test_dot_labels(self, graphs):
        dot = graph_to_dot(graphs(3))
        assert 'label="level=1"' in dot
        assert dot.startswith("graph flips {")
