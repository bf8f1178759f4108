"""Exhaustive flip-graph enumeration, diameters, and chains.

A node is stored only as its tiling's orientation bitvector, its key
(tilings inject into orientation vectors, and a flip toggles exactly one
bit, so neighbour keys come from a single XOR); ``tiling.key_offsets``
decodes a key to its tile offsets where a report needs them.  The keys are
one ``bytes`` of ceil(C(n,3) / 8)-byte words, read as ints through
``core.KeyStore``.  Enumeration is breadth-first from the minimal tiling,
key 0, with every layer processed in sorted key order, so node ids are
sorted by (inversion count, key) and stable across runs.  A flip moves
between neighbouring layers, so key-to-id maps are kept only for the layers
before and after the one being read.  The BFS stops at the middle layer:
the half-turn (below) gives every later node's key, neighbours and levels
from its mirror node's, mirrored a block of nodes at a time.

Enumeration never builds a tiling: ``tiling.column_flips`` reads the flips
and their levels off a whole BFS layer of keys at once.

A raising edge adds one inversion (one circuit toggled from +1 to -1), so
it runs toward the larger key and a later id, and maximal chains are the
length-C(n,3) raising walks from the minimal to the maximal tiling, which
``sample_chain`` draws.  The half-turn complements the key, which reverses
both the inversion count and the key order, so the image of node v is node
len(graph) - 1 - v and no key-to-id map outlives enumeration.  It is a
graph automorphism that keeps the flipped circuit and sends flip level l to
n - 1 - l.

The graph is held in compressed sparse row (CSR) form: one ``array('i')``
of neighbour ids, one ``bytes`` of their flip levels aligned with it, and
``len + 1`` node offsets, so node v's neighbours, in circuit order, are the
slice between offsets v and v + 1.  ``graph.adj[v]`` and ``graph.levels[v]``
are read-only views of that slice; the hot loops (enumeration, the
labelling BFS, ``undirected_edges``, ``sample_chain``, ``regular_set``'s
probes and the potentials' edge audit) read the flat arrays directly.

Quotient skeletons rest on ``components_excluding_levels``, which labels and
stores each level set's components over all tilings once per graph, as
their partition and the pairs deleted-level edges join, tagged with the
edge's level, with no per-node label array; and on ``graph_diameter``, a
bit-parallel multi-source BFS that holds two lists of source bitsets at a
time.  A labelling is the half-turn image of its stored twin (levels
n - 1 - l), else is merged from a stored one of more levels, each through
a map with one entry per class; a BFS labels only the two-level windows
{l, l+1} that one-level requests are merged from.
"""

from __future__ import annotations

import os
import random
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, count, groupby, repeat
from math import comb
from operator import floordiv, sub
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .core import (
    Finding,
    KeyStore,
    PointConfig,
    key_store,
    num_triples,
)
from .tiling import column_flips


class EnumerationCapError(ValueError):
    """The requested n's flip graph would not fit in memory, or its size is unknown."""


# Number of tilings for n = 1 .. 10 (OEIS A006245), and the bytes a graph
# takes per node, measured at n = 8: the peak RSS of a fresh
# ``enumerate --n 8 --out DIR``, 136.3 MiB, less 17.1 MiB for the interpreter
# and imports, is about 125 MB for 1,232,944 nodes.
_TILING_COUNTS = (1, 1, 2, 8, 62, 908, 24_698, 1_232_944, 112_018_190, 18_410_581_880)
_BYTES_PER_NODE = 125_000_000 / 1_232_944


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

    Node ids are sorted by (inversion count, key), and ``keys`` holds them
    packed in one ``bytes``.  Raising flips lead to later ids, and the
    half-turn image of node v is len(graph) - 1 - v.
    Node v's neighbours are ``nbr_ids[offsets[v]:offsets[v + 1]]``, in
    circuit order, with their flip levels at the same places of
    ``nbr_levels``; ``adj[v]`` and ``levels[v]`` are read-only views of them.
    """

    config: PointConfig
    keys: KeyStore  # orientation key of each node
    nbr_ids: array  # typecode 'i'
    nbr_levels: bytes
    offsets: array  # typecode 'i', len(keys) + 1 entries
    labellings: dict = field(default_factory=dict, repr=False, compare=False)
    # how each stored labelling was made: "BFS", "merged" or "mirrored"
    labelling_work: Counter = field(default_factory=Counter, repr=False, compare=False)
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
# enumeration

# Nodes the second half is mirrored from at a time.
_MIRROR_BLOCK = 4096


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
    layer = [0]  # the minimal tiling orients every circuit +1
    data = bytearray()  # every key so far, packed
    below: dict[int, int] = {}  # key -> id on the layer before ``layer``
    nbr_ids = array("i")
    nbr_levels = bytearray()
    offsets = array("i", [0])

    # A flip moves the inversion count by one and every tiling but the
    # minimal one has a lowering flip: a node's lowering neighbours lie in
    # the layer before and its raising ones in the next.  Each layer's ids
    # are consecutive, and its neighbours' ids are known once the next
    # layer is numbered, so key -> id maps are kept for those two layers only.
    start = 0
    while True:
        layer_keys = key_store(n, layer)
        data += layer_keys.data
        pending: list[int] = []  # neighbour keys of the layer's nodes, one after another
        for ukey, (bits, node_levels) in zip(layer, column_flips(n, layer_keys)):
            pending += map(ukey.__xor__, bits)
            nbr_levels += node_levels
            offsets.append(len(nbr_levels))
        here = start + len(layer)  # the first id after the layer
        if 2 * (layer[0].bit_count() + 1) > depth_max:
            break  # this is the middle layer
        above = sorted(set(pending).difference(below))
        index, below = below, dict(zip(layer, count(start)))
        index.update(zip(above, count(here)))
        nbr_ids.extend(map(index.__getitem__, pending))
        del index
        layer, start = above, here

    # The layer after the middle one is the image of the middle layer when
    # C(n,3) is odd, and of the one before it when C(n,3) is even, so only
    # an even C(n,3) has a middle layer that is its own image.
    half = here
    last = (half + start if depth_max % 2 == 0 else 2 * half) - 1
    index = below
    index.update(zip(layer, count(start)))
    nbr_ids.extend([index[vkey] if vkey in index else last - index[vkey ^ full] for vkey in pending])
    del index, below, pending
    # node v >= half is the image of u = last - v, a block of nodes at a
    # time, from u = last - half down
    width = layer_keys.width
    # complement[b] maps byte b of a key to byte b of its complement
    complement = [bytes(byte ^ (full >> 8 * b & 0xFF) for byte in range(256)) for b in range(width)]
    mirror_levels = bytes.maketrans(bytes(range(n)), bytes(range(n)[::-1]))
    for top in range(last - half, -1, -_MIRROR_BLOCK):
        low = max(top - _MIRROR_BLOCK + 1, 0)
        block = data[low * width:(top + 1) * width]
        image = bytearray(len(block))  # the block's keys complemented, last first
        for b in range(width):
            image[b::width] = block[b::width][::-1].translate(complement[b])
        data += image
        a = offsets[low]
        images = _mirror_ids(nbr_ids[a:offsets[top + 1]], last)
        image_levels = nbr_levels[a:offsets[top + 1]].translate(mirror_levels)
        for u in range(top, low - 1, -1):
            i, j = offsets[u] - a, offsets[u + 1] - a
            nbr_ids.extend(images[i:j])
            nbr_levels += image_levels[i:j]
            offsets.append(len(nbr_levels))
    return FlipGraph(config, KeyStore(bytes(data), width), nbr_ids, bytes(nbr_levels), offsets)


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
# diameters

# Sources per sweep; each per-node bitset array stays within V * _SOURCE_BATCH bits.
_SOURCE_BATCH = 4096


def graph_diameter(adj: Sequence[Sequence[int]]) -> tuple[int, tuple[int, int]]:
    """All-pairs BFS diameter with a deterministic witness pair.

    Multi-source BFS (Then et al., "The More the Merrier", VLDB 2014) on
    two lists per batch of sources: seen_d holds, per node, the Python-int
    bitset of the sources within distance d of it, and seen_(d+1)[v] is
    seen_d[v] ORed with seen_d[u] over v's neighbours u.  A node every
    source has reached is skipped, and holds the one int ``full``.  The
    batch's greatest eccentricity is the first d at which every node is
    full, and its sources of that eccentricity are those still missing at
    some node of seen_(d-1), the last list with a node still missing
    sources.  The witness is the smallest source of maximum eccentricity,
    then the smallest node at that distance from it.
    """
    size = len(adj)
    if not size:
        raise ValueError("empty graph has no diameter")
    if size == 1:
        return 0, (0, 0)
    best = (-1, -1, -1)  # (eccentricity, source, farthest node)
    for first in range(0, size, _SOURCE_BATCH):
        width = min(_SOURCE_BATCH, size - first)
        full = (1 << width) - 1
        seen = [0] * size
        for i in range(width):
            seen[first + i] = 1 << i
        depth = 0
        missing = True
        while missing:
            grown = []
            missing = False
            for v, bits in enumerate(seen):
                if bits != full:
                    for u in adj[v]:
                        bits |= seen[u]
                    if bits == full:
                        bits = full
                    else:
                        missing = True
                grown.append(bits)
            if grown == seen:
                raise ValueError("graph is disconnected")
            depth += 1
            if missing:
                seen = grown
        if depth > best[0]:
            low = min(bits & -bits for bits in map(full.__xor__, seen) if bits)
            far = next(v for v, bits in enumerate(seen) if not bits & low)
            best = (depth, first + low.bit_length() - 1, far)
    return best[0], (best[1], best[2])


# ---------------------------------------------------------------------------
# components after deleting flip levels (k-equivalence machinery)

def components_excluding_levels(graph: FlipGraph, deleted_levels: Iterable[int]):
    """The stored labelling of the graph minus edges at deleted levels.

    A labelling is held as (pairs, members, starts), computed once per graph
    and stored on it, keyed by its level set; callers must not mutate it.
    ``members`` lists every component's sorted members, one after another,
    and ``starts`` their offsets.  A component's label is its smallest node
    id, members[starts[c]], so partitions compare across calls, and the
    components run in label order.  ``pairs`` holds the pairs of labels
    a <= b that deleted-level edges join, with the edge's level l, each once
    as the int (a * len + b) * n + l, in increasing order (an edge inside
    component c gives (c, c)).  No per-node label array is kept.

    The half-turn maps the graph minus levels L onto the graph minus
    {n-1-l}.  A labelling is the image of its stored twin
    (``_mirrored_labelling``), else is merged from the stored labelling of
    the fewest levels L' > L (``_merged_labelling``).  Failing both, a
    request of one level l first stores its window {l, l+1} ({l-1, l} at
    the top level n-2), by the same rules, and is merged from it, so a BFS
    (``_bfs_labelling``) labels windows only.  ``graph.labelling_work``
    counts the labellings made each way.
    """
    return _stored(graph, deleted_levels)


def _stored(graph: FlipGraph, deleted_levels: Iterable[int]):
    """Pairs, members and starts of one labelling, computed on first use;
    ``components_excluding_levels`` is this read under the public name that
    perfbench's tracer times, once per skeleton."""
    banned = frozenset(deleted_levels)
    stored = graph.labellings.get(banned)
    if stored is None:
        n = graph.n
        twin = graph.labellings.get(frozenset(n - 1 - level for level in banned))
        finer = [levels for levels in graph.labellings if levels > banned]
        finer = min(finer, key=len, default=None)
        if twin is None and finer is None and len(banned) == 1 and banned < set(range(1, n - 1)):
            (level,) = banned  # a flip level, with another above or below it
            finer = frozenset({level, level + 1} if level < n - 2 else {level - 1, level})
            _stored(graph, finer)
        if twin is not None:
            stored, how = _mirrored_labelling(graph, twin), "mirrored"
        elif finer is not None:
            stored = _merged_labelling(graph, graph.labellings[finer], finer - banned)
            how = "merged"
        else:
            stored, how = _bfs_labelling(graph, banned), "BFS"
        graph.labellings[banned] = stored
        graph.labelling_work[how] += 1
    return stored


def _bfs_labelling(graph: FlipGraph, banned: frozenset[int]):
    """Pairs, members and starts of one labelling, by one BFS pass.

    The BFS records each deleted-level edge whose other end is already
    labelled, in this component or an earlier one, as a pair; its per-node
    labels are dropped on return.
    """
    ids, levels, offsets = graph.nbr_ids, graph.nbr_levels, graph.offsets
    size, n = len(graph), graph.n
    labels = [-1] * size
    pairs: set[int] = set()
    members = array("i")
    starts = array("i", [0])
    for start in range(size):
        if labels[start] >= 0:
            continue
        labels[start] = start
        component = [start]
        for u in component:  # the list grows into the BFS queue
            a, b = offsets[u], offsets[u + 1]
            for v, level in zip(ids[a:b], levels[a:b]):
                if level in banned:
                    if labels[v] >= 0:  # in this component or an earlier one
                        pairs.add((labels[v] * size + start) * n + level)
                elif labels[v] < 0:
                    labels[v] = start
                    component.append(v)
        component.sort()
        members.extend(component)
        starts.append(len(members))
    return array("q", sorted(pairs)), members, starts


def _mirrored_labelling(graph: FlipGraph, twin):
    """The half-turn image of a stored labelling, in the same three parts.

    Twin component C becomes {size-1-v : v in C}, labelled size-1-max(C):
    its members reversed and mirrored, with the components re-sorted by
    label, that is by descending max(C); a pair at level l moves to level
    n-1-l, and its labels through a map with one entry per component.
    """
    twin_pairs, twin_members, twin_starts = twin
    last = len(graph) - 1
    count = len(twin_members)
    # twin members from a to b become image[count - b : count - a], in order
    image = array("i", twin_members)
    image.reverse()
    image = _mirror_ids(image, last)
    bounds = list(zip(twin_starts, twin_starts[1:]))
    bounds.sort(key=lambda bound: twin_members[bound[1] - 1], reverse=True)
    relabel = {}
    members = array("i")
    starts = array("i", [0])
    for a, b in bounds:
        relabel[twin_members[a]] = last - twin_members[b - 1]
        members.extend(image[count - b : count - a])
        starts.append(len(members))
    levels = range(graph.n - 1, -1, -1)
    return _relabelled(twin_pairs, relabel.__getitem__, len(graph), levels), members, starts


def _merged_labelling(graph: FlipGraph, finer, restored: frozenset[int]):
    """A stored labelling with its edges at the levels ``restored`` put back,
    in the same three parts, without a BFS.

    Those edges join the classes that the finer labelling's pairs at their
    levels name; a union-find over class labels merges each group into one
    class, labelled by its smallest label, whose members are the sorted
    merge of the group's.  The pairs at the levels still deleted take their
    classes' new labels from the union-find's roots, so no step reads or
    writes a per-node label.
    """
    finer_pairs, finer_members, finer_starts = finer
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
        else:
            groups[top] = run
    members = array("i")
    starts = array("i", [0])
    for top, run in groups.items():
        members.extend(sorted(run) if top in merged else run)
        starts.append(len(members))
    return _relabelled(kept, root, size, range(n)), members, starts


def _relabelled(
    pairs: Iterable[int], relabel: Callable[[int], int], size: int, levels: range
) -> array:
    """The pairs with their labels through ``relabel`` and levels through
    ``levels``, each once, in increasing order."""
    n = len(levels)
    out = set()
    for pair in pairs:
        ab, level = divmod(pair, n)
        a, b = relabel(ab // size), relabel(ab % size)
        out.add((a * size + b if a <= b else b * size + a) * n + levels[level])
    return array("q", sorted(out))


def component_pairs(graph: FlipGraph, deleted_levels: Iterable[int]) -> Iterator[tuple[int, int]]:
    """The label pairs a <= b that deleted-level edges join in the whole graph's labelling, each once."""
    pairs = _stored(graph, deleted_levels)[0]
    # the pairs are sorted, so one pair's levels are neighbours
    joined = groupby(map(floordiv, pairs, repeat(graph.n)))
    return map(divmod, (ab for ab, _ in joined), repeat(len(graph)))


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
