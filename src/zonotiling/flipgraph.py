"""Exhaustive flip-graph enumeration, distances, diameters, and chains.

A node is stored only as its tiling's orientation bitvector, its key
(tilings inject into orientation vectors, and a flip toggles exactly one
bit, so neighbour keys come from a single XOR).  ``FlipGraph.tiling(v)``
derives the Tiling from the key on demand: the flip along (p, q, r) toggles
q in the {p, r} offset, p in {q, r} and r in {p, q}, so the offsets are the
minimal tiling's XOR one such toggle per set bit.  Enumeration is
breadth-first from the minimal tiling, key 0, with every layer processed in
sorted key order, which makes node ids stable across runs.

Enumeration never builds a tiling: ``key_flips`` reads a node's flips and
their levels off its key.  The key is a rank-3 signotope, and a circuit
flips exactly when toggling it keeps the signs of every 4-subset monotone
(Felsner and Weil, "Sweeps, arrangements and signotopes", 2001).  With
c12, c23, c34 the sign changes between the neighbouring triples abc, abd,
acd, bcd of a 4-subset a < b < c < d, a flip at position 1 is blocked by
~c12 & (c23 | c34), at 2 by ~(c12 | c23), at 3 by ~(c23 | c34) and at 4 by
~c34 & (c12 | c23); byte tables gather the key into one C(n,4)-bit word
per position, so each test covers every 4-subset at once.

A raising edge adds one inversion (one circuit toggled from +1 to -1), so
it runs toward the larger key, node ids are in inversion-count order, and
maximal chains are the length-C(n,3) raising walks from the minimal to the
maximal tiling.

Quotient skeletons rest on ``components_excluding_levels``, which labels and
stores each level set's components once per graph, and ``graph_diameter``, a
bit-parallel multi-source BFS.
"""

from __future__ import annotations

import os
import random
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Sequence

from .core import (
    Finding,
    PointConfig,
    byte_tables,
    colex_triples,
    full_mask,
    num_triples,
    triple_rank,
)
from .tiling import Tiling, tiling_of_orientation


class EnumerationCapError(ValueError):
    """Requested configuration exceeds the enumeration cap or the memory."""


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
    """The graph of all fine tilings with level-labelled flip edges."""

    config: PointConfig
    keys: list[int]  # orientation key of each node
    index: dict[int, int]
    adj: list[list[int]]  # neighbour ids
    levels: list[bytes]  # levels[u][i] is the flip level of the edge to adj[u][i]
    labellings: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.config.n

    def __len__(self) -> int:
        return len(self.keys)

    def tiling(self, node: int) -> Tiling:
        """The node's tiling, rebuilt from its orientation key."""
        check_node(self, node)
        return tiling_of_orientation(self.n, self.keys[node])

    @property
    def min_id(self) -> int:
        return 0

    @property
    def max_id(self) -> int:
        return self.index[full_mask(num_triples(self.n))]

    def opposite_node(self, node: int) -> int:
        """Node of the half-turn image; its key is the bitwise complement."""
        check_node(self, node)
        return self.index[self.keys[node] ^ full_mask(num_triples(self.n))]

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
    """Byte tables and per-circuit masks for ``key_flips``, built once per n.

    The Q = C(n,4) 4-subsets a < b < c < d are numbered s = 0 .. Q-1, and
    bit i*Q + s of a *position word* stands for the triple at position i of
    subset s, in the order abc, abd, acd, bcd.  A circuit's *image* marks
    every position it holds, and ``gather`` maps each key byte to the OR of
    its set bits' images.  For the circuit (p, q, r), ``outer`` holds the
    key bits of the triples {x, p, r} with x outside [p, r], and ``span``
    those of every triple {x, p, r} with x other than q.
    """
    triples = colex_triples(n)
    count = comb(n, 4)
    images = [0] * len(triples)
    for s, (a, b, c, d) in enumerate(combinations(range(1, n + 1), 4)):
        for i, triple in enumerate(((a, b, c), (a, b, d), (a, c, d), (b, c, d))):
            images[triple_rank(*triple)] |= 1 << (i * count + s)
    circuits = []
    for (p, q, r), image in zip(triples, images):
        outer = inner = 0
        for x in range(1, n + 1):
            if x < p or x > r:
                outer |= 1 << triple_rank(*sorted((x, p, r)))
            elif p < x < r and x != q:
                inner |= 1 << triple_rank(p, x, r)
        circuits.append((1 << triple_rank(p, q, r), image, outer, outer | inner))
    return byte_tables(images), count, tuple(circuits)


def key_flips(n: int, key: int) -> tuple[list[int], bytes]:
    """The flips of the tiling with orientation key ``key``, from the key alone.

    Returns the key bit each flip toggles, in colex circuit order, and the
    level of each.  The key is a rank-3 signotope: on every 4-subset
    a < b < c < d its signs on abc, abd, acd, bcd change at most once.  A
    circuit flips exactly when toggling it keeps every 4-subset monotone
    (Felsner and Weil, "Sweeps, arrangements and signotopes", 2001).  With
    c12, c23, c34 the sign changes between neighbouring positions of a
    monotone 4-subset, toggling position
      1 (abc) is blocked by  ~c12 & (c23 | c34),
      2 (abd) is blocked by  ~(c12 | c23),
      3 (acd) is blocked by  ~(c23 | c34),
      4 (bcd) is blocked by  ~c34 & (c12 | c23),
    evaluated for all 4-subsets at once on Q-bit words, Q = C(n,4); a
    circuit flips when none of its positions is blocked.  The flip along
    (p, q, r) has level |A| + 1 for the offset A of its {p, r} tile without
    q: the x outside [p, r] with {x, p, r} oriented +1, and the x strictly
    between p and r, other than q, with {p, x, r} oriented -1.  The key
    must orient a tiling; for n < 4 every circuit flips.
    """
    gather, count, circuits = _flip_tables(n)
    words = 0
    for table, byte in zip(gather, key.to_bytes(len(gather), "little")):
        words |= table[byte]
    low = (1 << count) - 1
    change = words ^ (words >> count)
    c12 = change & low
    c23 = change >> count & low
    c34 = change >> 2 * count & low
    blocked = (
        ~c12 & (c23 | c34)
        | (low & ~(c12 | c23)) << count
        | (low & ~(c23 | c34)) << 2 * count
        | (~c34 & (c12 | c23)) << 3 * count
    )
    bits = []
    levels = []
    for bit, image, outer, span in circuits:
        if not blocked & image:
            bits.append(bit)
            levels.append(((key ^ outer) & span).bit_count() + 1)
    return bits, bytes(levels)


def enumerate_tilings(config: PointConfig, cap: int = 8) -> FlipGraph:
    """BFS over all tilings from the minimal one, deduped by orientation key.

    Each node's flips and levels come from ``key_flips``; no tiling is built.
    An n above ``cap``, or one whose graph would not fit in physical memory
    (``_check_memory``), is refused before anything is allocated.
    """
    if config.n > cap:
        raise EnumerationCapError(
            f"n={config.n} exceeds the enumeration cap {cap}"
        )
    _check_memory(config.n)
    n = config.n
    keys = [0]  # the minimal tiling orients every circuit +1
    index = {0: 0}
    adj: list[list[int]] = []
    levels: list[bytes] = []

    # A flip moves the inversion count by one and every tiling but the
    # minimal one has a lowering flip, so layer d holds the keys of d
    # inversions: a node's lowering neighbours are numbered already and its
    # raising ones are new.  Each layer's ids are consecutive, and its
    # neighbours' ids are known once the next layer is numbered.
    start = 0
    while start < len(keys):
        pending: list[list[int]] = []  # neighbour keys of each node in the layer
        discovered: set[int] = set()
        for ukey in keys[start:]:
            bits, node_levels = key_flips(n, ukey)
            vkeys = [ukey ^ bit for bit in bits]
            discovered.update([vkey for vkey in vkeys if vkey > ukey])
            pending.append(vkeys)
            levels.append(node_levels)
        start = len(keys)
        for vkey in sorted(discovered):
            index[vkey] = len(keys)
            keys.append(vkey)
        adj.extend([index[vkey] for vkey in vkeys] for vkeys in pending)

    return FlipGraph(config, keys, index, adj, levels)


def check_node(graph: FlipGraph, node: int) -> None:
    """Refuse a node id outside 0..len(graph)-1 (a negative id would wrap)."""
    if not 0 <= node < len(graph):
        raise ValueError(f"node id {node} is outside 0..{len(graph) - 1}")


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
) -> list[int]:
    """Component label per node of the graph minus edges at deleted levels.

    With ``within`` given, only the subgraph induced on those nodes is
    labelled, and every other node reads -1.  Labels are canonical: the
    label of a component is the smallest node id it contains, so partitions
    compare across calls.  Each labelling is computed once per graph and
    stored on it, so every call with the same levels and node set returns
    the same list; callers must not mutate it.
    """
    banned = frozenset(deleted_levels)
    key = (banned, None if within is None else frozenset(within))
    labels = graph.labellings.get(key)
    if labels is not None:
        return labels
    adj = graph.adj
    levels = graph.levels
    allowed = range(len(adj)) if within is None else within
    labels = [-1] * len(adj)
    for start in range(len(adj)):
        if labels[start] >= 0 or start not in allowed:
            continue
        labels[start] = start
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v, level in zip(adj[u], levels[u]):
                if labels[v] < 0 and level not in banned and v in allowed:
                    labels[v] = start
                    queue.append(v)
    graph.labellings[key] = labels
    return labels


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
    keys = graph.keys
    node = graph.min_id
    nodes = [node]
    levels = []
    for _ in range(target):
        raising = [
            (v, level)
            for v, level in zip(graph.adj[node], graph.levels[node])
            if keys[v] > keys[node]
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

    With regular_nodes given, every chain node must belong to that set.
    Raising edges only add inversions and node ids are in inversion-count
    order, so reachability is one DAG sweep each way over the ids; absence
    of a chain raises a Finding.
    """
    check_node(graph, node)
    allowed = (lambda v: True) if regular_nodes is None else (lambda v: v in regular_nodes)
    if not allowed(node):
        raise ValueError(f"node {node} is outside the allowed node set")
    keys = graph.keys

    def steps(v: int, up: bool) -> Iterator[tuple[int, int]]:
        """Flips out of v toward the maximum (up) or the minimum, within the set."""
        for w, level in zip(graph.adj[v], graph.levels[v]):
            if (keys[w] > keys[v]) == up and allowed(w):
                yield w, level

    reach_down = [False] * len(graph)
    for v in range(len(graph)):
        if allowed(v):
            reach_down[v] = v == graph.min_id or any(
                reach_down[w] for w, _level in steps(v, up=False)
            )
    reach_up = [False] * len(graph)
    for v in reversed(range(len(graph))):
        if allowed(v):
            reach_up[v] = v == graph.max_id or any(
                reach_up[w] for w, _level in steps(v, up=True)
            )
    if not (reach_down[node] and reach_up[node]):
        raise Finding(f"no monotone chain through node {node} within the allowed set")

    def walk(up: bool, reach: list[bool], end: int) -> tuple[list[int], list[int]]:
        """Greedy walk from the node to the end, along flips whose target reaches it."""
        nodes = []
        levels = []
        v = node
        while v != end:
            v, level = next((w, level) for w, level in steps(v, up) if reach[w])
            nodes.append(v)
            levels.append(level)
        return nodes, levels

    down_nodes, down_levels = walk(False, reach_down, graph.min_id)
    up_nodes, up_levels = walk(True, reach_up, graph.max_id)
    nodes = tuple(reversed(down_nodes)) + (node,) + tuple(up_nodes)
    levels = tuple(reversed(down_levels)) + tuple(up_levels)
    return Chain(nodes, levels)


# ---------------------------------------------------------------------------
# exports

def graph_to_json(graph: FlipGraph) -> dict:
    width = max(1, (num_triples(graph.n) + 3) // 4)
    return {
        "n": graph.n,
        "points": [str(a) for a in graph.config.coords],
        "nodes": [format(k, f"0{width}x") for k in graph.keys],
        "edges": [[u, v, level] for u, v, level in graph.undirected_edges()],
    }


def graph_to_dot(graph: FlipGraph, name: str = "flips") -> str:
    lines = [f"graph {name} {{"]
    for u in range(len(graph)):
        lines.append(f'  {u} [label="{u}"];')
    for u, v, level in graph.undirected_edges():
        lines.append(f'  {u} -- {v} [label="level={level}"];')
    lines.append("}")
    return "\n".join(lines)
