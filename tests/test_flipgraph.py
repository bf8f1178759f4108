import random
from math import comb

import pytest

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
    orientation_of,
    potential,
    sample_chain,
    skeleton,
    standard_config,
)
from zonotiling import flipgraph
from zonotiling.core import colex_triples, triple_rank
from zonotiling.flipgraph import (
    EnumerationCapError,
    bfs_distances,
    components_excluding_levels,
    key_flips,
)
from zonotiling.secondary import potential_between
from zonotiling.tiling import (
    FlipMove,
    Tiling,
    apply_flip,
    available_flips,
    extremal_tiling,
    flip_along,
    tiling_of_orientation,
)


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


def test_cap_enforced():
    with pytest.raises(EnumerationCapError):
        enumerate_tilings(standard_config(5), cap=4)


class TestMemoryRefusal:
    """An n whose graph would not fit is refused before enumeration starts."""

    @pytest.fixture(autouse=True)
    def no_enumeration(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(flipgraph, "key_flips", refuse)

    def test_n9_refused_on_a_7gb_machine(self, monkeypatch):
        monkeypatch.setattr(flipgraph, "_physical_memory", lambda: 7 * 10**9)
        with pytest.raises(EnumerationCapError, match=r"39\.1 GB.*7\.0 GB"):
            enumerate_tilings(standard_config(9), cap=20)

    def test_n8_fits_a_7gb_machine(self, monkeypatch):
        monkeypatch.setattr(flipgraph, "_physical_memory", lambda: 7 * 10**9)
        with pytest.raises(AssertionError, match="enumeration started"):
            enumerate_tilings(standard_config(8))

    def test_n11_refused_without_a_count(self):
        with pytest.raises(EnumerationCapError, match="no tiling count"):
            enumerate_tilings(standard_config(11), cap=20)

    def test_cap_checked_first(self, monkeypatch):
        monkeypatch.setattr(flipgraph, "_physical_memory", lambda: 10**15)
        with pytest.raises(EnumerationCapError, match="enumeration cap 8"):
            enumerate_tilings(standard_config(9))

    def test_unknown_memory_refuses_only_beyond_the_counts(self, monkeypatch):
        monkeypatch.setattr(flipgraph, "_physical_memory", lambda: None)
        with pytest.raises(AssertionError, match="enumeration started"):
            enumerate_tilings(standard_config(10), cap=20)


def test_keys_match_orientations_and_min_max(graphs):
    g = graphs(5)
    assert g.min_id == 0
    assert g.keys[0] == 0
    assert g.keys[g.max_id] == (1 << 10) - 1
    for v in (0, 5, 30, 61):
        assert orientation_of(g.tiling(v)).bits == g.keys[v]


def test_edges_symmetric_with_complementary_directions(graphs):
    g = graphs(5)
    directed = {}
    for u, nbrs in enumerate(g.adj):
        assert len(g.levels[u]) == len(nbrs)
        for v, level in zip(nbrs, g.levels[u]):
            directed[(u, v)] = (level, g.keys[v] > g.keys[u])
    for (u, v), (level, raising) in directed.items():
        assert directed[(v, u)] == (level, not raising)


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
            move = flip_along(g.tiling(u), *triples[bit.bit_length() - 1])
            assert move is not None
            assert move.level == level
            assert move.raising == (g.keys[v] > g.keys[u])
    ranks = [key.bit_count() for key in g.keys]
    assert ranks == sorted(ranks)


def tile_route_graph(config):
    """Breadth-first search over Tilings with available_flips and apply_flip.

    Layers are numbered in sorted key order and neighbours listed in flip
    order, as enumerate_tilings promises.  Returns keys, adj, levels and
    the Tiling of every node.
    """
    start = extremal_tiling(config, "min")
    tilings = {orientation_of(start).bits: start}
    out = {}  # key -> [(neighbour key, level)]
    order = []
    layer = list(tilings)
    while layer:
        order += layer
        found = {}
        for key in layer:
            tiling = tilings[key]
            out[key] = []
            for move in available_flips(tiling):
                nxt = apply_flip(tiling, move)
                nkey = orientation_of(nxt).bits
                out[key].append((nkey, move.level))
                if nkey not in tilings:
                    found[nkey] = nxt
        tilings.update(found)
        layer = sorted(found)
    index = {key: v for v, key in enumerate(order)}
    adj = [[index[nkey] for nkey, _ in out[key]] for key in order]
    levels = [bytes(level for _, level in out[key]) for key in order]
    return order, adj, levels, [tilings[key] for key in order]


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
    assert g.adj == adj
    assert g.levels == levels
    assert [g.tiling(v) for v in range(len(g))] == tilings
    assert g.tiling(0) == extremal_tiling(config, "min")
    assert g.tiling(g.max_id) == extremal_tiling(config, "max")
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


def test_enumeration_builds_no_tiling_or_flip_move(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumeration built a Tiling or a FlipMove")

    monkeypatch.setattr(Tiling, "__init__", refuse)
    monkeypatch.setattr(FlipMove, "__init__", refuse)
    assert len(enumerate_tilings(standard_config(6))) == 908


@pytest.mark.slow
def test_full_enumeration_n8():
    g = enumerate_tilings(standard_config(8))
    assert len(g) == 1_232_944
    assert g.edge_count() == 5_295_168
    # ids run through the inversion-count layers, each in sorted key order
    assert g.keys == sorted(g.keys, key=lambda key: (key.bit_count(), key))


def test_deterministic_node_numbering():
    a = enumerate_tilings(standard_config(5))
    b = enumerate_tilings(standard_config(5))
    assert a.keys == b.keys
    assert a.adj == b.adj
    assert a.levels == b.levels


def test_non_integer_coordinates_same_graph_size(graphs):
    g = enumerate_tilings(make_config(["-7/2", "-1/3", 0, "2/5", 9]))
    assert len(g) == len(graphs(5)) == 62


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
        lambda g, x: g.tiling(x),
        lambda g, x: g.opposite_node(x),
    ],
    ids=[
        "distance-from", "distance-to", "potential", "modified_potential",
        "potential_between-reference", "potential_between-node",
        "max_chain_through", "max_chain_through-regular",
        "tiling", "opposite_node",
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


class TestComponents:
    def test_no_deletion_is_connected(self, graphs):
        labels = components_excluding_levels(graphs(5), ())
        assert set(labels) == {0}

    def test_deleting_every_level_isolates(self, graphs):
        labels = components_excluding_levels(graphs(4), {1, 2})
        assert labels == list(range(8))

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
        assert labels == expected
        assert -1 not in plain
        assert all(labels[v] == -1 for v in range(len(g)) if v not in allowed)


class TestExports:
    def test_json_shape(self, graphs):
        data = graph_to_json(graphs(4))
        assert data["n"] == 4
        assert len(data["nodes"]) == 8
        assert all(len(e) == 3 for e in data["edges"])
        assert data["nodes"][0] == "0"
        assert sorted(e[2] for e in data["edges"]) == [1, 1, 1, 1, 2, 2, 2, 2]

    def test_dot_labels(self, graphs):
        dot = graph_to_dot(graphs(3))
        assert 'label="level=1"' in dot
        assert dot.startswith("graph flips {")
