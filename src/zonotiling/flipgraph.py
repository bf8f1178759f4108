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

The graph is held in compressed sparse row (CSR) form: one ``array('i')``
of neighbour ids, one ``bytes`` of their flip levels aligned with it, and
``len + 1`` node offsets, so node v's neighbours, in circuit order, are the
slice between offsets v and v + 1.  ``graph.adj[v]`` and ``graph.levels[v]``
are read-only views of that slice; the hot loops (enumeration, the
labelling BFS, ``undirected_edges``, ``sample_chain``, ``regular_set``'s
probes and the potentials' edge audit) read the flat arrays directly.

Quotient skeletons rest on ``components_excluding_levels``, which labels and
stores each level set's components, their partition and the pairs
deleted-level edges join, tagged with the edge's level, once per graph, and
on ``graph_diameter``, a bit-parallel multi-source BFS.  A labelling is the
half-turn image of its stored twin (levels n - 1 - l) when there is one,
else is merged from a stored labelling of more deleted levels on the same
node set, and only failing both is a BFS run.
"""

from __future__ import annotations

import os
import random
import sys
from array import array
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations, compress, repeat
from math import comb
from operator import floordiv, sub
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
# takes per node, measured at n = 8: the peak RSS of a fresh
# ``enumerate --n 8 --out DIR``, 196.1 MiB, less 16.8 MiB for the interpreter
# and imports, is about 188 MB for 1,232,944 nodes.
_TILING_COUNTS = (1, 1, 2, 8, 62, 908, 24_698, 1_232_944, 112_018_190, 18_410_581_880)
_BYTES_PER_NODE = 188_000_000 / 1_232_944


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


class _Rows:
    """Node v's slice of a flat per-edge sequence, for v = 0 .. len - 1."""

    __slots__ = ("values", "offsets")

    def __init__(self, values, offsets: array):
        self.values = values
        self.offsets = offsets

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, v: int):
        if v < 0:
            raise IndexError(f"node id {v} is negative")
        return self.values[self.offsets[v]:self.offsets[v + 1]]


@dataclass
class FlipGraph:
    """The graph of all fine tilings with level-labelled flip edges.

    Node ids are sorted by (inversion count, key).  Raising flips lead to
    later ids, and the half-turn image of node v is len(graph) - 1 - v.
    Node v's neighbours are ``nbr_ids[offsets[v]:offsets[v + 1]]``, in
    circuit order, with their flip levels at the same places of
    ``nbr_levels``; ``adj[v]`` and ``levels[v]`` are read-only views of them.
    """

    config: PointConfig
    keys: list[int]  # orientation key of each node
    nbr_ids: array  # typecode 'i'
    nbr_levels: bytes
    offsets: array  # typecode 'i', len(keys) + 1 entries
    labellings: dict = field(default_factory=dict, repr=False, compare=False)
    # per-node data that several reports read, each computed once per graph
    derived: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.adj = _Rows(memoryview(self.nbr_ids).toreadonly(), self.offsets)
        self.levels = _Rows(self.nbr_levels, self.offsets)

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
        for u, v, level in zip(self.sources(), self.nbr_ids, self.nbr_levels):
            if u < v:
                yield u, v, level

    def sources(self, values: Sequence | None = None) -> Iterator:
        """Node u, or values[u], once for each of u's neighbours, aligned with ``nbr_ids``."""
        offsets = self.offsets
        nodes = range(len(self)) if values is None else values
        return chain.from_iterable(map(repeat, nodes, map(sub, offsets[1:], offsets)))

    def edge_count(self) -> int:
        return len(self.nbr_ids) // 2


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
    nbr_ids = array("i")
    nbr_levels = bytearray()
    offsets = array("i", [0])

    # A flip moves the inversion count by one and every tiling but the
    # minimal one has a lowering flip: a node's lowering neighbours are
    # numbered already and its raising ones lie in the next layer.  Each
    # layer's ids are consecutive, and its neighbours' ids are known once
    # the next layer is numbered.
    start = 0
    while True:
        pending: list[int] = []  # neighbour keys of the layer's nodes, one after another
        layer = keys[start:]
        for ukey, (bits, node_levels) in zip(layer, column_flips(n, layer)):
            pending += map(ukey.__xor__, bits)
            nbr_levels += node_levels
            offsets.append(len(nbr_levels))
        if 2 * (keys[start].bit_count() + 1) > depth_max:
            break  # this is the middle layer
        start = len(keys)
        for vkey in sorted(set(pending).difference(index)):
            index[vkey] = len(keys)
            keys.append(vkey)
        nbr_ids.extend(map(index.__getitem__, pending))

    # The layer after the middle one is the image of the middle layer when
    # C(n,3) is odd, and of the one before it when C(n,3) is even, so only
    # an even C(n,3) has a middle layer that is its own image.
    half = len(keys)
    last = (half + start if depth_max % 2 == 0 else 2 * half) - 1
    nbr_ids.extend([index[vkey] if vkey in index else last - index[vkey ^ full] for vkey in pending])
    del index, pending
    # node v >= half is the image of u = last - v, block by block from u = last - half down
    images = _mirror_ids(nbr_ids, last)
    image_levels = nbr_levels.translate(bytes.maketrans(bytes(range(n)), bytes(range(n)[::-1])))
    for u in range(last - half, -1, -1):
        a, b = offsets[u], offsets[u + 1]
        keys.append(keys[u] ^ full)
        nbr_ids.extend(images[a:b])
        nbr_levels += image_levels[a:b]
        offsets.append(len(nbr_levels))
    return FlipGraph(config, keys, nbr_ids, bytes(nbr_levels), offsets)


def _mirror_ids(ids: array, last: int) -> array:
    """last - v for each v in ``ids``, by one subtraction of the array read as
    one int: no 32-bit field borrows from the next, since every v <= last."""
    order = sys.byteorder
    tops = int.from_bytes(array("i", [last]) * len(ids), order)
    image = array("i")
    image.frombytes((tops - int.from_bytes(ids, order)).to_bytes(len(ids) * ids.itemsize, order))
    return image


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
    keeps the pairs of labels a <= b that deleted-level edges join, with
    the edge's level l, each stored once as the int (a * len + b) * n + l,
    in increasing order (an edge inside component c gives (c, c)), which
    ``component_pairs`` decodes; and the partition: every component's
    sorted members, one after another, in ``components``' order.  Each
    labelling is computed once per graph and stored on it, so every call
    with the same levels and node set returns the same array; callers must
    not mutate it.

    The half-turn maps the graph minus levels L, induced on W, onto the
    graph minus {n-1-l}, induced on {len-1-v}.  When that twin is stored
    already, the labelling is its image (``_mirrored_labelling``); else,
    when a labelling of more levels on W is stored, the least of them is
    merged (``_merged_labelling``); else one BFS labels the nodes
    (``_bfs_labelling``).
    """
    key = _labelling_key(deleted_levels, within)
    stored = graph.labellings.get(key)
    if stored is None:
        banned, within = key
        check_nodes(graph, within)
        last = len(graph) - 1
        twin = graph.labellings.get(_labelling_key(
            [graph.n - 1 - level for level in banned],
            None if within is None else [last - v for v in within],
        ))
        finer = min(
            (levels for levels, nodes in graph.labellings if levels > banned and nodes == within),
            key=len,
            default=None,
        )
        if twin is not None:
            stored = _mirrored_labelling(graph, twin)
        elif finer is not None:
            stored = _merged_labelling(graph, graph.labellings[finer, within], finer - banned)
        else:
            stored = _bfs_labelling(graph, banned, within)
        graph.labellings[key] = stored
    return stored[0]


def _bfs_labelling(graph: FlipGraph, banned: frozenset[int], within: frozenset[int] | None):
    """Labels, pairs, members and starts of one labelling, by one BFS pass.

    The BFS records each deleted-level edge whose other end is already
    labelled, in this component or an earlier one, as a pair.
    """
    ids, levels, offsets = graph.nbr_ids, graph.nbr_levels, graph.offsets
    size, n = len(graph), graph.n
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
            a, b = offsets[u], offsets[u + 1]
            for v, level in zip(ids[a:b], levels[a:b]):
                if level in banned:
                    if labels[v] >= 0:  # in this component or an earlier one
                        pairs.add((labels[v] * size + start) * n + level)
                elif labels[v] == -1:
                    labels[v] = start
                    component.append(v)
        component.sort()
        members.extend(component)
        starts.append(len(members))
    if within is not None:
        labels = [max(label, -1) for label in labels]
    pairs = array("q", sorted(pairs))  # frees the set before the labels are packed
    return array("i", labels), pairs, members, starts


def _mirrored_labelling(graph: FlipGraph, twin):
    """The half-turn image of a stored labelling, in the same four parts.

    Twin component C becomes {size-1-v : v in C}, labelled size-1-max(C):
    its members reversed and mirrored, with the components re-sorted by
    label, that is by descending max(C); a pair at level l moves to level
    n-1-l.
    """
    twin_labels, twin_pairs, twin_members, twin_starts = twin
    size = len(graph)
    last = size - 1
    count = len(twin_members)
    # twin members from a to b become image[count - b : count - a], in order
    image = array("i", twin_members)
    image.reverse()
    image = _mirror_ids(image, last)
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
    n = graph.n
    pairs = []
    for pair in twin_pairs:
        pair, level = divmod(pair, n)
        a, b = relabel[pair // size], relabel[pair % size]
        pairs.append((a * size + b if a <= b else b * size + a) * n + n - 1 - level)
    return labels, array("q", sorted(pairs)), members, starts


def _merged_labelling(graph: FlipGraph, finer, restored: frozenset[int]):
    """A stored labelling with its edges at the levels ``restored`` put back,
    in the same four parts, without a BFS.

    Those edges join the classes that the finer labelling's pairs at their
    levels name; a union-find merges each group into one class, labelled by
    its smallest label, whose members are the sorted merge of the group's.
    A label is a member node, so the new labels relabel the pairs at the
    levels still deleted.
    """
    finer_labels, finer_pairs, finer_members, finer_starts = finer
    size, n = len(graph), graph.n
    up: dict[int, int] = {}  # a label -> a smaller one of its group

    def root(a):
        while a in up:
            up[a] = a = up.get(up[a], up[a])  # halve the path on the way
        return a

    kept = []
    for pair in finer_pairs:
        ab, level = divmod(pair, n)
        if level in restored:
            a, b = root(ab // size), root(ab % size)
            if a != b:
                up[max(a, b)] = min(a, b)
        else:
            kept.append(pair)
    labels = array("i", finer_labels)
    # each class's members by its label, in label order: a group's first
    # class holds its smallest label, its root
    groups: dict[int, array] = {}
    merged = set()
    for a, b in zip(finer_starts, finer_starts[1:]):
        run = finer_members[a:b]
        top = root(run[0])
        if top in groups:
            groups[top] += run
            merged.add(top)
            for v in run:
                labels[v] = top
        else:
            groups[top] = run
    members = array("i")
    starts = array("i", [0])
    for top, run in groups.items():
        members.extend(sorted(run) if top in merged else run)
        starts.append(len(members))
    pairs = set()
    for pair in kept:
        ab, level = divmod(pair, n)
        a, b = labels[ab // size], labels[ab % size]
        pairs.add((a * size + b if a <= b else b * size + a) * n + level)
    return labels, array("q", sorted(pairs)), members, starts


def _labelling_key(deleted_levels: Iterable[int], within: Iterable[int] | None):
    return frozenset(deleted_levels), None if within is None else frozenset(within)


def _stored(graph: FlipGraph, deleted_levels: Iterable[int], within: Iterable[int] | None):
    """The stored labelling of these levels and node set, computed on first use."""
    key = _labelling_key(deleted_levels, within)
    if key not in graph.labellings:
        components_excluding_levels(graph, key[0], within)
    return graph.labellings[key]


def component_pairs(graph: FlipGraph, deleted_levels: Iterable[int]) -> Iterator[tuple[int, int]]:
    """The label pairs a <= b that deleted-level edges join in the whole graph's labelling, each once."""
    pairs = _stored(graph, deleted_levels, None)[1]
    joined = dict.fromkeys(map(floordiv, pairs, repeat(graph.n)))  # drops the levels, each pair once
    return map(divmod, joined, repeat(len(graph)))


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
    ids, offsets = graph.nbr_ids, graph.offsets
    node = graph.min_id
    nodes = [node]
    levels = []
    for _ in range(target):
        # the places in the flat arrays of the node's raising edges
        raising = [i for i in range(offsets[node], offsets[node + 1]) if ids[i] > node]
        if not raising:
            raise Finding(
                f"raising walk stuck at node {node} after {len(levels)} steps"
            )
        i = raising[rng.randrange(len(raising))]
        node = ids[i]
        nodes.append(node)
        levels.append(graph.nbr_levels[i])
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
