"""Exhaustive flip-graph enumeration, distances, diameters, and chains.

A node is stored only as its tiling's orientation bitvector, its key
(tilings inject into orientation vectors, and a flip toggles exactly one
bit, so neighbour keys come from a single XOR); ``tiling.key_offsets``
decodes a key to its tile offsets where a report needs them.  Enumeration is
breadth-first from the minimal tiling, key 0, with every layer processed in
sorted key order, so node ids are sorted by (inversion count, key) and stable
across runs.  The BFS stops at the middle layer: the half-turn (below) gives
every later node's key, neighbours and levels from its mirror node's.

Enumeration never builds a tiling: ``column_flips`` reads the flips and
their levels off a whole BFS layer of keys at once.  A key is a rank-3
signotope, and a circuit flips exactly when toggling it keeps the signs of
every 4-subset monotone (Felsner and Weil, "Sweeps, arrangements and
signotopes", 2001).  With c12, c23, c34 the sign changes between the
neighbouring triples abc, abd, acd, bcd of a 4-subset a < b < c < d, a flip
at position 1 is blocked by ~c12 & (c23 | c34), at 2 by ~(c12 | c23), at 3
by ~(c23 | c34) and at 4 by ~c34 & (c12 | c23).  The rules are the same
for every node, so they run on columns (``core.key_columns``): one int per
circuit holding that circuit's sign for a chunk of nodes, one byte each,
and each 4-subset's test covers the whole chunk in a few big-int
operations.

A raising edge adds one inversion (one circuit toggled from +1 to -1), so
it runs toward the larger key and a later id, and maximal chains are the
length-C(n,3) raising walks from the minimal to the maximal tiling;
``max_chain_through`` finds one through a node from two ``bfs_distances``
sweeps, from the minimum and from the maximum.  The half-turn complements
the key, which reverses both the inversion count and the key order, so the
image of node v is node len(graph) - 1 - v and no key-to-id map outlives
enumeration.  It is a graph automorphism that keeps the flipped circuit and
sends flip level l to n - 1 - l.

Quotient skeletons rest on ``components_excluding_levels``, which labels and
stores each level set's components, their partition and the pairs
deleted-level edges join, once per graph, building a labelling from its
stored half-turn twin (levels n - 1 - l) without a BFS, and on
``graph_diameter``, a bit-parallel multi-source BFS.
"""

from __future__ import annotations

import os
import random
from array import array
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, compress
from math import comb
from typing import Collection, Iterable, Iterator, Sequence

from .core import (
    Finding,
    PointConfig,
    colex_triples,
    key_columns,
    node_rows,
    num_triples,
    triple_rank,
)


class EnumerationCapError(ValueError):
    """The requested n's flip graph would not fit in memory, or its size is unknown."""


# Number of tilings for n = 1 .. 10 (OEIS A006245), and the bytes a graph
# takes per node, measured at n = 8 (about 430 MB for 1,232,944 nodes).
_TILING_COUNTS = (1, 1, 2, 8, 62, 908, 24_698, 1_232_944, 112_018_190, 18_410_581_880)
_BYTES_PER_NODE = 430_000_000 / 1_232_944


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def _check_memory(n: int) -> None:
    """Refuse an n whose flip graph would not fit in physical memory."""
    if n > len(_TILING_COUNTS):
        raise EnumerationCapError(
            f"n={n}: no tiling count is known above n={len(_TILING_COUNTS)}, "
            "so the flip graph's memory cannot be estimated"
        )
    estimate = _TILING_COUNTS[n - 1] * _BYTES_PER_NODE
    memory = _physical_memory()
    if memory is not None and estimate > memory:
        raise EnumerationCapError(
            f"n={n} has {_TILING_COUNTS[n - 1]:,} tilings; their flip graph needs "
            f"about {estimate / 1e9:,.1f} GB, more than the {memory / 1e9:,.1f} GB "
            "of physical memory"
        )


@dataclass
class FlipGraph:
    """The graph of all fine tilings with level-labelled flip edges.

    Node ids are sorted by (inversion count, key).  Raising flips lead to
    later ids, and the half-turn image of node v is len(graph) - 1 - v.
    """

    config: PointConfig
    keys: list[int]  # orientation key of each node
    adj: list[list[int]]  # neighbour ids
    levels: list[bytes]  # levels[u][i] is the flip level of the edge to adj[u][i]
    labellings: dict = field(default_factory=dict, repr=False, compare=False)
    # per-node data that several reports read, each computed once per graph
    derived: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.config.n

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def min_id(self) -> int:
        return 0

    @property
    def max_id(self) -> int:
        return len(self) - 1

    def opposite_node(self, node: int) -> int:
        """Node of the half-turn image, whose key is the bitwise complement.

        Complementing reverses the (inversion count, key) order of the ids,
        so the image is the mirror id.
        """
        check_node(self, node)
        return len(self) - 1 - node

    def undirected_edges(self) -> Iterator[tuple[int, int, int]]:
        """Each flip edge once as (u, v, level) with u < v."""
        levels = self.levels
        for u, nbrs in enumerate(self.adj):
            for v, level in zip(nbrs, levels[u]):
                if u < v:
                    yield (u, v, level)

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2


# ---------------------------------------------------------------------------
# flips read off the orientation key

@lru_cache(maxsize=None)
def _flip_tables(n: int):
    """The 4-subsets and per-circuit level terms of ``column_flips``, once per n.

    Each 4-subset a < b < c < d is the colex ranks of its triples in the
    order abc, abd, acd, bcd.  For the circuit (p, q, r), ``outer`` holds the
    ranks of the triples {x, p, r} with x outside [p, r], and ``inner``
    those of {p, x, r} with x strictly between p and r, other than q.
    """
    subsets = tuple(
        (triple_rank(a, b, c), triple_rank(a, b, d), triple_rank(a, c, d), triple_rank(b, c, d))
        for a, b, c, d in combinations(range(1, n + 1), 4)
    )
    circuits = []
    for p, q, r in colex_triples(n):
        outer = tuple(
            triple_rank(*sorted((x, p, r))) for x in range(1, n + 1) if x < p or x > r
        )
        inner = tuple(triple_rank(p, x, r) for x in range(p + 1, r) if x != q)
        circuits.append((outer, inner))
    return subsets, tuple(circuits)


def column_flips(n: int, keys: Sequence[int]) -> Iterator[tuple[list[int], bytes]]:
    """The flips of the tilings with orientation keys ``keys``, from the keys alone.

    Yields, per key in order, the key bit each flip toggles, in colex
    circuit order, and the level of each.  A key is a rank-3 signotope: on
    every 4-subset a < b < c < d its signs on abc, abd, acd, bcd change at
    most once.  A circuit flips exactly when toggling it keeps every
    4-subset monotone (Felsner and Weil, "Sweeps, arrangements and
    signotopes", 2001).  With c12, c23, c34 the sign changes between
    neighbouring positions of a monotone 4-subset, toggling position
      1 (abc) is blocked by  ~c12 & (c23 | c34),
      2 (abd) is blocked by  ~(c12 | c23),
      3 (acd) is blocked by  ~(c23 | c34),
      4 (bcd) is blocked by  ~c34 & (c12 | c23),
    and a circuit flips when none of its positions is blocked.  The flip
    along (p, q, r) has level |A| + 1 for the offset A of its {p, r} tile
    without q: the x outside [p, r] with {x, p, r} oriented +1, and the x
    strictly between p and r, other than q, with {p, x, r} oriented -1.
    Every key must orient a tiling; for n < 4 every circuit flips.

    The rules run on ``core.key_columns``, one byte per key: each 4-subset
    is a few big-int operations for a whole chunk of keys, the blocked
    positions are ORed per circuit, and a circuit's level column is a sum
    of columns, which stays below n in every byte.  Each circuit's column
    reads its level where it flips and 0 where it is blocked; turned into
    one row per key (``core.node_rows``), the non-zero bytes of a row are
    the key's levels, and their positions its flipped bits.
    """
    subsets, circuits = _flip_tables(n)
    count = len(circuits)
    bits = [1 << c for c in range(count)]
    for size, ones, x in key_columns(keys, count):
        blocked = [0] * count
        for r1, r2, r3, r4 in subsets:
            c12 = x[r1] ^ x[r2]
            c23 = x[r2] ^ x[r3]
            c34 = x[r3] ^ x[r4]
            blocked[r1] |= (ones ^ c12) & (c23 | c34)
            blocked[r2] |= ones ^ (c12 | c23)
            blocked[r3] |= ones ^ (c23 | c34)
            blocked[r4] |= (ones ^ c34) & (c12 | c23)
        # 1 + |outer| - (outer triples oriented -1) + (inner ones oriented -1):
        # no byte borrows, since the outer sum is at most |outer| in each byte
        levels = [
            ((1 + len(outer)) * ones + sum([x[i] for i in inner]) - sum([x[o] for o in outer]))
            & ~(blocked[c] * 0xFF)
            for c, (outer, inner) in enumerate(circuits)
        ]
        rows = node_rows(levels, size)
        for j in range(size):
            row = rows[j * count:(j + 1) * count]
            yield list(compress(bits, row)), row.replace(b"\0", b"")


def key_flips(n: int, key: int) -> tuple[list[int], bytes]:
    """The flips of one key and their levels: ``column_flips`` on [key]."""
    return next(column_flips(n, [key]))


def enumerate_tilings(config: PointConfig) -> FlipGraph:
    """Layer BFS over the first half of the tilings, the rest by the half-turn.

    Layer d holds the keys of d inversions, d = 0 .. C(n,3).  The BFS runs
    from the minimal tiling through the middle layer, the last d with
    2d <= C(n,3), reading each layer's flips and levels off its keys with
    one ``column_flips`` call; no tiling is built.  The half-turn
    complements keys and sends layer d to layer C(n,3) - d, so the node
    count follows from the layer sizes and every later node v is the image
    of u = len - 1 - v: its key is keys[u] complemented, its neighbours are
    the images of u's, in the same circuit order, and each level l reads
    n - 1 - l.  An n whose graph would not fit in physical memory
    (``_check_memory``) is refused before anything is allocated.
    """
    _check_memory(config.n)
    n = config.n
    depth_max = num_triples(n)  # inversions of the maximal tiling
    full = (1 << depth_max) - 1  # its key: every circuit -1
    keys = [0]  # the minimal tiling orients every circuit +1
    index = {0: 0}
    adj: list[list[int]] = []
    levels: list[bytes] = []

    # A flip moves the inversion count by one and every tiling but the
    # minimal one has a lowering flip: a node's lowering neighbours are
    # numbered already and its raising ones lie in the next layer.  Each
    # layer's ids are consecutive, and its neighbours' ids are known once
    # the next layer is numbered.
    start = 0
    while True:
        pending: list[list[int]] = []  # neighbour keys of each node in the layer
        layer = keys[start:]
        for ukey, (bits, node_levels) in zip(layer, column_flips(n, layer)):
            pending.append([ukey ^ bit for bit in bits])
            levels.append(node_levels)
        if 2 * (keys[start].bit_count() + 1) > depth_max:
            break  # this is the middle layer
        start = len(keys)
        for vkey in sorted({vkey for vkeys in pending for vkey in vkeys if vkey not in index}):
            index[vkey] = len(keys)
            keys.append(vkey)
        adj.extend([index[vkey] for vkey in vkeys] for vkeys in pending)

    # The layer after the middle one is the image of the middle layer when
    # C(n,3) is odd, and of the one before it when C(n,3) is even, so only
    # an even C(n,3) has a middle layer that is its own image.
    half = len(keys)
    size = half + start if depth_max % 2 == 0 else 2 * half
    ids = list(index.values())  # ids[v] is v, the int the adjacency holds
    ids.extend(range(half, size))
    mirror = ids[::-1]  # mirror[v] is v's half-turn image, size - 1 - v
    adj.extend(
        [index[vkey] if vkey in index else mirror[index[vkey ^ full]] for vkey in vkeys]
        for vkeys in pending
    )
    del index, pending, ids
    flip_level = bytes.maketrans(bytes(range(n)), bytes(range(n - 1, -1, -1)))
    for u in mirror[half:]:
        keys.append(keys[u] ^ full)
        adj.append([mirror[w] for w in adj[u]])
        levels.append(levels[u].translate(flip_level))
    return FlipGraph(config, keys, adj, levels)


def check_node(graph: FlipGraph, node: int) -> None:
    """Refuse a node id outside 0..len(graph)-1 (a negative id would wrap)."""
    if not 0 <= node < len(graph):
        raise ValueError(f"node id {node} is outside 0..{len(graph) - 1}")


def check_nodes(graph: FlipGraph, nodes: Collection[int] | None) -> None:
    """Refuse a node set holding an id outside the graph, by its least and greatest ids."""
    if nodes:
        check_node(graph, min(nodes))
        check_node(graph, max(nodes))


# ---------------------------------------------------------------------------
# BFS distances and diameters

def bfs_distances(adj: Sequence[Sequence[int]], source: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = du + 1
                queue.append(v)
    return dist


def distance(graph: FlipGraph, u: int, v: int) -> int:
    """Edge distance in the unlabelled flip graph."""
    check_node(graph, u)
    check_node(graph, v)
    dist = bfs_distances(graph.adj, u)
    if dist[v] < 0:
        raise ValueError("nodes are not connected")
    return dist[v]


# Sources per sweep; each per-node bitset array stays within V * _SOURCE_BATCH bits.
_SOURCE_BATCH = 4096


def graph_diameter(adj: Sequence[Sequence[int]]) -> tuple[int, tuple[int, int]]:
    """All-pairs BFS diameter with a deterministic witness pair.

    Multi-source BFS (Then et al., "The More the Merrier", VLDB 2014): each
    node holds a Python-int bitset of the batch's sources that have reached
    it.  The witness is the smallest source of maximum eccentricity, then the
    smallest node at that distance from it.
    """
    size = len(adj)
    if not size:
        raise ValueError("empty graph has no diameter")
    best = (-1, -1, -1)  # (eccentricity, source, farthest node)
    for first in range(0, size, _SOURCE_BATCH):
        width = min(_SOURCE_BATCH, size - first)
        full = (1 << width) - 1
        seen = [0] * size
        for i in range(width):
            seen[first + i] = 1 << i
        frontier = seen[:]
        depth = 0
        while True:
            # each node not yet reached by every source pulls from its neighbours
            reached = [0] * size
            for v, bits in enumerate(seen):
                if bits != full:
                    new = 0
                    for u in adj[v]:
                        new |= frontier[u]
                    new &= ~bits
                    if new:
                        reached[v] = new
                        seen[v] = bits | new
            if not any(reached):
                break
            frontier = reached
            depth += 1
        if any(bits != full for bits in seen):
            raise ValueError("graph is disconnected")
        if depth > best[0]:
            # the last frontier holds exactly the sources of eccentricity depth
            low = min(bits & -bits for bits in frontier if bits)
            far = next(v for v, bits in enumerate(frontier) if bits & low)
            best = (depth, first + low.bit_length() - 1, far)
    return best[0], (best[1], best[2])


def diameter(graph: FlipGraph) -> tuple[int, tuple[int, int]]:
    return graph_diameter(graph.adj)


# ---------------------------------------------------------------------------
# components after deleting flip levels (k-equivalence machinery)

def components_excluding_levels(
    graph: FlipGraph,
    deleted_levels: Iterable[int],
    within: frozenset[int] | set[int] | None = None,
) -> array:
    """Component label per node of the graph minus edges at deleted levels.

    With ``within`` given, only the subgraph induced on those nodes is
    labelled, and every other node reads -1; a node id in ``within`` outside
    the graph raises ValueError.  Labels are canonical: the label of a
    component is the smallest node id it contains, so partitions compare
    across calls.  Beside the labels, an ``array('i')``, each labelling
    keeps the pairs of labels a <= b that deleted-level edges join, each
    stored once as the int a * len(graph) + b (an edge inside component c
    gives (c, c)), which ``component_pairs`` decodes; and the partition:
    every component's sorted members, one after another, in
    ``components``' order.  Each labelling is computed once per graph and
    stored on it, so every call with the same levels and node set returns
    the same array; callers must not mutate it.

    The half-turn maps the graph minus levels L, induced on W, onto the
    graph minus {n-1-l}, induced on {len-1-v}.  When that twin is stored
    already, the labelling is its image (``_mirrored_labelling``); otherwise
    one BFS labels the nodes (``_bfs_labelling``).
    """
    key = _labelling_key(deleted_levels, within)
    stored = graph.labellings.get(key)
    if stored is None:
        banned, within = key
        check_nodes(graph, within)
        last = len(graph) - 1
        twin_key = _labelling_key(
            [graph.n - 1 - level for level in banned],
            None if within is None else [last - v for v in within],
        )
        twin = graph.labellings.get(twin_key)
        if twin is None:
            stored = _bfs_labelling(graph, banned, within)
        else:
            stored = _mirrored_labelling(len(graph), twin)
        graph.labellings[key] = stored
    return stored[0]


def _bfs_labelling(graph: FlipGraph, banned: frozenset[int], within: frozenset[int] | None):
    """Labels, pairs, members and starts of one labelling, by one BFS pass.

    The BFS records each deleted-level edge whose other end is already
    labelled, in this component or an earlier one, as a pair.
    """
    adj = graph.adj
    levels = graph.levels
    size = len(adj)
    # nodes outside ``within`` read -2 until the BFS over the -1 nodes ends
    labels = [-1 if within is None else -2] * size
    if within:
        for v in within:
            labels[v] = -1
    pairs: set[int] = set()
    members = array("i")
    starts = array("i", [0])
    for start in range(size):
        if labels[start] != -1:
            continue
        labels[start] = start
        component = [start]
        for u in component:  # the list grows into the BFS queue
            for v, level in zip(adj[u], levels[u]):
                if level in banned:
                    if labels[v] >= 0:  # in this component or an earlier one
                        pairs.add(labels[v] * size + start)
                elif labels[v] == -1:
                    labels[v] = start
                    component.append(v)
        component.sort()
        members.extend(component)
        starts.append(len(members))
    if within is not None:
        labels = [max(label, -1) for label in labels]
    pairs = array("q", pairs)  # frees the set before the labels are packed
    return array("i", labels), pairs, members, starts


def _mirrored_labelling(size: int, twin):
    """The half-turn image of a stored labelling, in the same four parts.

    Twin component C becomes {size-1-v : v in C}, labelled size-1-max(C):
    its members reversed and mirrored, with the components re-sorted by
    label, that is by descending max(C).
    """
    twin_labels, twin_pairs, twin_members, twin_starts = twin
    last = size - 1
    count = len(twin_members)
    # twin members from a to b become image[count - b : count - a], in order
    image = array("i", [last - v for v in reversed(twin_members)])
    bounds = list(zip(twin_starts, twin_starts[1:]))
    bounds.sort(key=lambda bound: twin_members[bound[1] - 1], reverse=True)
    relabel = [-1] * (size + 1)  # its last entry keeps label -1 at -1
    members = array("i")
    starts = array("i", [0])
    for a, b in bounds:
        relabel[twin_members[a]] = last - twin_members[b - 1]
        members.extend(image[count - b : count - a])
        starts.append(len(members))
    labels = array("i", [relabel[label] for label in reversed(twin_labels)])
    pairs = set()
    for pair in twin_pairs:
        a, b = divmod(pair, size)
        a, b = relabel[a], relabel[b]
        pairs.add(a * size + b if a <= b else b * size + a)
    return labels, array("q", pairs), members, starts


def _labelling_key(deleted_levels: Iterable[int], within: Iterable[int] | None):
    return frozenset(deleted_levels), None if within is None else frozenset(within)


def _stored(graph: FlipGraph, deleted_levels: Iterable[int], within: Iterable[int] | None):
    """The stored labelling of these levels and node set, computed on first use."""
    key = _labelling_key(deleted_levels, within)
    if key not in graph.labellings:
        components_excluding_levels(graph, key[0], within)
    return graph.labellings[key]


def component_pairs(graph: FlipGraph, deleted_levels: Iterable[int]) -> Iterator[tuple[int, int]]:
    """The label pairs a <= b that deleted-level edges join in the whole graph's labelling."""
    size = len(graph)
    return (divmod(pair, size) for pair in _stored(graph, deleted_levels, None)[1])


def components(
    graph: FlipGraph,
    deleted_levels: Iterable[int],
    within: frozenset[int] | set[int] | None = None,
) -> Iterator[array]:
    """The components of ``components_excluding_levels``, each as an array of
    its node ids in increasing order, ordered by smallest member (its label).

    Read off the partition stored with the labelling, so no node is visited
    again.
    """
    _, _, members, starts = _stored(graph, deleted_levels, within)
    return (members[a:b] for a, b in zip(starts, starts[1:]))


# ---------------------------------------------------------------------------
# maximal chains

@dataclass(frozen=True)
class Chain:
    """A raising walk from the minimal to the maximal tiling."""

    nodes: tuple[int, ...]
    levels: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.levels)


def level_census(chain: Chain, n: int) -> tuple[int, ...]:
    """Counts of chain flips at each level k = 1 .. n-2."""
    census = [0] * (n - 2)
    for level in chain.levels:
        census[level - 1] += 1
    return tuple(census)


def expected_level_census(n: int) -> tuple[int, ...]:
    """Every maximal chain carries k(n-k-1) flips at level k."""
    return tuple(k * (n - k - 1) for k in range(1, n - 1))


def sample_chain(graph: FlipGraph, seed: int) -> Chain:
    """Seeded uniform raising walk from the minimal tiling.

    Gradedness makes any such walk reach the maximal tiling in exactly
    C(n,3) steps; getting stuck earlier would falsify it and raises a
    Finding.
    """
    rng = random.Random(seed)
    target = comb(graph.n, 3)
    node = graph.min_id
    nodes = [node]
    levels = []
    for _ in range(target):
        raising = [
            (v, level)
            for v, level in zip(graph.adj[node], graph.levels[node])
            if v > node
        ]
        if not raising:
            raise Finding(
                f"raising walk stuck at node {node} after {len(levels)} steps"
            )
        v, level = raising[rng.randrange(len(raising))]
        nodes.append(v)
        levels.append(level)
        node = v
    if node != graph.max_id:
        raise Finding("raising walk of full length did not end at the maximum")
    return Chain(tuple(nodes), tuple(levels))


def max_chain_through(
    graph: FlipGraph,
    node: int,
    regular_nodes: frozenset[int] | set[int] | None = None,
) -> Chain:
    """A maximal chain from minimum to maximum passing through the node.

    With regular_nodes given, every chain node must belong to that set, and
    distances run on the subgraph it induces.  A flip moves the inversion
    count by one, so a node lies on a chain exactly when its distances from
    the minimum and from the maximum sum to C(n,3); from the node, the chain
    steps each way to the first neighbour, in ``adj`` order, one closer to
    that end.  Absence of a chain raises a Finding.
    """
    check_node(graph, node)
    adj = graph.adj
    if regular_nodes is not None:
        if node not in regular_nodes:
            raise ValueError(f"node {node} is outside the allowed node set")
        inside = regular_nodes.__contains__
        adj = [list(filter(inside, nbrs)) if inside(v) else [] for v, nbrs in enumerate(adj)]
    ends = (graph.min_id, graph.max_id)
    down, up = (bfs_distances(adj, end) for end in ends)
    if min(down[node], up[node]) < 0 or down[node] + up[node] != num_triples(graph.n):
        raise Finding(f"no monotone chain through node {node} within the allowed set")

    halves = []
    for dist, end in zip((down, up), ends):
        nodes = []
        levels = []
        v = node
        while v != end:
            v, level = next(
                (w, level)
                for w, level in zip(graph.adj[v], graph.levels[v])
                if dist[w] == dist[v] - 1
            )
            nodes.append(v)
            levels.append(level)
        halves.append((nodes, levels))
    (down_nodes, down_levels), (up_nodes, up_levels) = halves
    nodes = tuple(reversed(down_nodes)) + (node,) + tuple(up_nodes)
    levels = tuple(reversed(down_levels)) + tuple(up_levels)
    return Chain(nodes, levels)


# ---------------------------------------------------------------------------
# exports

def graph_to_json(graph: FlipGraph) -> dict:
    """The graph's JSON artifact: each key in hex, each edge as (u, v, level).

    Nodes and edges are iterators, read as the artifact is written.
    """
    width = max(1, (num_triples(graph.n) + 3) // 4)
    return graph.config.to_json() | {
        "nodes": map(f"{{:0{width}x}}".format, graph.keys),
        "edges": graph.undirected_edges(),
    }


def graph_to_dot(graph: FlipGraph, name: str = "flips") -> str:
    lines = [f"graph {name} {{"]
    for u in range(len(graph)):
        lines.append(f'  {u} [label="{u}"];')
    for u, v, level in graph.undirected_edges():
        lines.append(f'  {u} -- {v} [label="level={level}"];')
    lines.append("}")
    return "\n".join(lines)
