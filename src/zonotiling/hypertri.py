"""Monotone-path cross-sections, strong separation, and reduced paths.

Slicing a tiling at height k collects its size-k vertex sets.  For a valid
tiling those sets are pairwise strongly separated, and the strong-separation
order (S before S' when max(S \\ S') < min(S' \\ S)) arranges them into a
monotone path from {1..k} to the top k-set, each step swapping one element
for a larger one.  A flip at level k inserts or removes exactly one size-k
vertex (the "upper" move); a flip at level k-1 likewise toggles one size-k
vertex (the "lower" move); flips at other levels leave the slice alone.

The reduced path at level k+1 is the invariant core of a k-equivalence
class: the intersection of the level-(k+1) slices over every tiling in the
class.  It satisfies the consecutive-triple condition
|A1 & A2 & A3| = (k+1) - 2 and is in bijection with the k-classes.  A class
is a sorted tuple of node ids from the partition code in ``secondary``, and
``reduced_cross_section`` reads exactly its members' slices.

No key is decoded to tile offsets for a slice: ``column_slices`` reads the
level-k and level-(k+1) slices off the orientation keys, because a subset
is a vertex exactly when no circuit forbids its trace on the circuit's
triple (the chamber-set condition, proved there).  The condition is the
same for every node, so it runs on columns of a chunk of keys at once, one
byte per node (``core.key_columns``).  ``hypertri_diameters`` checks the
slice toggles of flip edges once per pair of lifting classes, not once per
edge, when the slices are constant on the classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key, lru_cache, reduce
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Sequence

from .core import (
    Finding,
    colex_triples,
    full_mask,
    key_columns,
    mask_from,
    mask_points,
    node_rows,
)
from .flipgraph import FlipGraph, check_nodes, component_pairs
from .secondary import (
    check_level,
    diameter_entry,
    skeleton,
    sigma_k_diameter_formula,
    sum_skeleton_diameter_formula,
)


class StrongSeparationError(ValueError):
    """Two same-size sets that the separation order cannot compare."""


def strongly_separated(s1: Iterable[int] | int, s2: Iterable[int] | int) -> bool:
    """max(S1 \\ S2) < min(S2 \\ S1), or symmetrically; empty differences pass."""
    m1 = s1 if isinstance(s1, int) else mask_from(s1)
    m2 = s2 if isinstance(s2, int) else mask_from(s2)
    d1 = m1 & ~m2
    d2 = m2 & ~m1
    if d1 == 0 or d2 == 0:
        return True
    return d1.bit_length() < (d2 & -d2).bit_length() or d2.bit_length() < (d1 & -d1).bit_length()


def _separation_cmp(a: int, b: int) -> int:
    if a == b:
        return 0
    d1 = a & ~b
    d2 = b & ~a
    if d1 and d1.bit_length() < (d2 & -d2).bit_length():
        return -1
    if d2 and d2.bit_length() < (d1 & -d1).bit_length():
        return 1
    raise StrongSeparationError(
        f"sets {mask_points(a)} and {mask_points(b)} are not strongly separated"
    )


@dataclass(frozen=True)
class MonotonePath:
    """An ordered chain of k-element subsets of [n]."""

    k: int
    vertices: tuple[tuple[int, ...], ...]
    reduced: bool = False

    def __len__(self) -> int:
        return len(self.vertices)

    def vertex_masks(self) -> tuple[int, ...]:
        return tuple(mask_from(v) for v in self.vertices)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "vertices": [list(v) for v in self.vertices],
            "reduced": self.reduced,
        }


def _ordered_path(masks: Iterable[int], k: int, n: int, reduced: bool) -> MonotonePath:
    return MonotonePath(k, tuple(map(mask_points, _checked_order(masks, k, n))), reduced)


def _checked_order(masks: Iterable[int], k: int, n: int) -> list[int]:
    """The masks in the separation order, checked to step from {1..k} to the
    top k-set by single increasing exchanges; raises StrongSeparationError
    or ValueError otherwise."""
    ordered = sorted(masks, key=cmp_to_key(_separation_cmp))
    if ordered:
        start = mask_from(range(1, k + 1))
        end = mask_from(range(n - k + 1, n + 1))
        if ordered[0] != start or ordered[-1] != end:
            raise ValueError(
                f"level-{k} path does not run from {mask_points(start)} "
                f"to {mask_points(end)}"
            )
        for a, b in zip(ordered, ordered[1:]):
            gone = a & ~b
            new = b & ~a
            if gone.bit_count() != 1 or new.bit_count() != 1 or gone > new:
                raise ValueError(
                    f"step {mask_points(a)} -> {mask_points(b)} is not a "
                    "single increasing exchange"
                )
    return ordered


@lru_cache(maxsize=None)
def _slice_tables(n: int, k: int):
    """Subset order and vertex rules of ``column_slices``, once per (n, k).

    Bit i of a slice word stands for ``subsets[i]``: the k-subsets of [n]
    in bits 0 .. C(n,k)-1, then the (k+1)-subsets.  The rule of a subset is
    the colex ranks of the circuits (p, q, r) that must read -1 on it, those
    it meets in {q}, and of those that must read +1, those it meets in
    {p, r}.
    """
    subsets = tuple(
        mask_from(points)
        for size in (k, k + 1)
        for points in combinations(range(1, n + 1), size)
    )
    traces = [
        (1 << (q - 1), (1 << (p - 1)) | (1 << (r - 1))) for p, q, r in colex_triples(n)
    ]
    rules = tuple(
        (
            tuple(c for c, (middle, outer) in enumerate(traces) if s & (middle | outer) == middle),
            tuple(c for c, (middle, outer) in enumerate(traces) if s & (middle | outer) == outer),
        )
        for s in subsets
    )
    return rules, subsets


def column_slices(n: int, keys: Sequence[int], k: int) -> Iterator[int]:
    """The level-k and level-(k+1) slices of the tilings with orientation keys ``keys``.

    Yields one word per key, in order, over the k- and (k+1)-subsets of
    [n]: bit i is set when the i-th of them is a vertex, the k-subsets
    first, each size in lexicographic order (``slice_masks`` decodes it).
    A subset S of [n] is a vertex of the tiling exactly when, for every
    circuit p < q < r,

      S & {p, q, r} != {q}     if the circuit is oriented +1, and
      S & {p, q, r} != {p, r}  if it is oriented -1.

    Necessity: deleting every pseudoline but p, q and r restricts the
    tiling to a tiling of the hexagon on v_p, v_q, v_r, and a vertex S
    restricts to its vertex S & {p, q, r}.  A hexagon tiling has every
    subset of {p, q, r} as a vertex but one, the complement of its interior
    vertex: {q} when the circuit is oriented +1 and {p, r} when -1.

    Sufficiency: let S satisfy every condition and let X be any vertex.
    If S and X were not strongly separated, S \\ X and X \\ S would both be
    non-empty and interleave, so some a < b < c would have
    S & {a, b, c} = {a, c} and X & {a, b, c} = {b}, or the reverse.  In the
    first case necessity for X rules out +1 on abc, and -1 forbids {a, c}
    for S; in the reverse case X rules out -1, and +1 forbids {b} for S.
    So S is strongly separated from every vertex, and since the vertex set
    of a rhombus tiling is a maximal strongly separated collection (Leclerc
    and Zelevinsky, "Quasicommuting families of quantum Pluecker
    coordinates", 1998), S is a vertex.

    The condition runs on ``core.key_columns``, one byte per key: a
    subset's column is one AND chain over the columns of the circuits that
    must read -1 and the complements of those that must read +1.  Eight
    subset columns pack into one byte column, and each key's word is its
    row of byte columns (``core.node_rows``) read as one int.
    """
    rules, subsets = _slice_tables(n, k)
    width = (len(subsets) + 7) // 8
    for size, ones, x in key_columns(keys, comb(n, 3)):
        packed = [0] * width
        for i, (minus, plus) in enumerate(rules):
            column = ones
            for c in minus:
                column &= x[c]
            for c in plus:
                column &= ~x[c]
            packed[i >> 3] |= column << (i & 7)
        rows = node_rows(packed, size)
        for first in range(0, size * width, width):
            yield int.from_bytes(rows[first:first + width], "little")


def key_slices(n: int, key: int, k: int) -> int:
    """The slice word of one key: ``column_slices`` on [key]."""
    return next(column_slices(n, [key], k))


def slice_masks(n: int, k: int, word: int) -> tuple[frozenset[int], frozenset[int]]:
    """The level-k and level-(k+1) vertex masks marked in a ``column_slices`` word."""
    subsets = _slice_tables(n, k)[1]
    lower = comb(n, k)
    masks: tuple[list[int], list[int]] = ([], [])
    while word:
        low = word & -word
        i = low.bit_length() - 1
        masks[i >= lower].append(subsets[i])
        word ^= low
    return frozenset(masks[0]), frozenset(masks[1])


def satisfies_triple_condition(path: MonotonePath) -> bool:
    """Do all consecutive triples intersect in exactly k-2 points?"""
    masks = path.vertex_masks()
    return all(
        (a & b & c).bit_count() == path.k - 2
        for a, b, c in zip(masks, masks[1:], masks[2:])
    )


def reduced_cross_section(graph: FlipGraph, members: Sequence[int], k: int) -> MonotonePath:
    """The reduced path at level k+1 shared by one k-class, given its members.

    Intersects the level-(k+1) slices of exactly the members (a whole
    k-class, as ``equivalence_classes(graph, {k})`` holds it); the result
    must again be a monotone path whose consecutive triples intersect in
    exactly k-1 points.  A violation falsifies the construction and raises
    a Finding.  The other reduction fixed on a class, the meet of the
    k-class's level-k slices, is the complement in [n] of the reduced path
    of the half-turn image's (n-1-k)-class.  Refuses an empty class, a
    node id outside the graph and a level outside 1..n-2 with ValueError.
    """
    n = graph.n
    check_level(n, k)
    if not members:
        raise ValueError("a k-class has at least one member")
    check_nodes(graph, members)
    meet = reduce(int.__and__, column_slices(n, [graph.keys[v] for v in members], k))
    return _reduced_path(slice_masks(n, k, meet)[1], k, n)


def _reduced_path(common: Iterable[int], k: int, n: int) -> MonotonePath:
    """The level-(k+1) meet of a k-class as a checked reduced path."""
    try:
        path = _ordered_path(common, k + 1, n, reduced=True)
    except (StrongSeparationError, ValueError) as exc:
        raise Finding(f"reduced path at level {k + 1} is malformed: {exc}") from exc
    if not satisfies_triple_condition(path):
        raise Finding(
            f"reduced path triple {path.vertices} violates the "
            f"intersection-size condition at level {k + 1}"
        )
    return path


# ---------------------------------------------------------------------------
# flip-graph diameters for lifting and reduced paths

def hypertri_diameters(graph: FlipGraph, k: int) -> dict:
    """Diameters over ALL tilings plus the structural cross-checks.

    Builds the simultaneous-(k-1,k) quotient (lifting paths at level k) and
    the k-class quotient (reduced paths at level k+1) and measures both
    diameters against their closed forms.  Each node's level-k and
    level-(k+1) slices are read once off its orientation key by one
    ``column_slices`` pass over every key, as one word; no key is decoded
    to tiles.  Every distinct level-k slice must be a monotone path, the
    lifting classes must be exactly the groups of equal slices, and each
    flip edge at level k-1 or k must toggle exactly one slice vertex, any
    other edge none: checked once per pair of lifting classes that such an
    edge joins when the classes are the groups of equal slices, and edge by
    edge, for the first failing edge, otherwise.  Each k-class's reduced
    path is computed once, from the meet of its members' level-(k+1)
    slices; distinct classes must have distinct reduced paths, and the two
    ends of each reduced-skeleton edge (the class pairs a level-k flip
    joins) must differ.  Only the distinct slices and the meets are decoded
    into vertex sets.
    """
    n = graph.n
    findings: list[str] = []

    # the diameter sweeps run before the per-node slices are held
    lifting = skeleton(graph, k, "lifting_all")
    lifting_entry = diameter_entry(lifting, sum_skeleton_diameter_formula(n, k))
    reduced = skeleton(graph, k, "reduced_all")
    reduced_entry = diameter_entry(reduced, sigma_k_diameter_formula(n, k))

    # one slice word per node: its low C(n,k) bits, the level-k slice, are
    # kept per node (interned, so equal slices share one int), and the word
    # is ANDed into its k-class's meet
    lower = full_mask(comb(n, k))
    component_of = reduced.component_of
    meets = [-1] * len(reduced)
    distinct: dict[int, int] = {}  # first-seen order
    slices = []
    for v, word in enumerate(column_slices(n, graph.keys, k)):
        meets[component_of[v]] &= word
        s = word & lower
        slices.append(distinct.setdefault(s, s))

    # the lifting classes cover every node, so they equal the groups of
    # equal slices when the slice is constant on each class and there are
    # as many distinct slices as classes
    for s in distinct:
        _checked_order(slice_masks(n, k, s)[0], k, n)
    path_quotient_equal = len(distinct) == len(lifting) and all(
        len({slices[v] for v in members}) == 1 for members in lifting.classes
    )
    if not path_quotient_equal:
        findings.append("equal-path grouping differs from the simultaneous quotient")

    # reduced paths are constant per k-class by construction; they must also
    # separate distinct classes.  A path holds every vertex of its class's
    # meet, so equal meets mean equal paths.
    meets = [meet & ~lower for meet in meets]
    for meet in meets:
        _reduced_path(slice_masks(n, k, meet)[1], k, n)
    reduced_quotient_equal = len(set(meets)) == len(reduced.classes)
    if not reduced_quotient_equal:
        findings.append("distinct k-classes share a reduced path")

    # each flip edge at level k or k-1 toggles exactly one slice vertex.
    # With the slice constant on every lifting class, an edge at another
    # level lies inside one class and toggles none, and an edge at level k
    # or k-1 toggles as many as the slices of the two classes it joins
    # differ by; the lifting labelling stores those class pairs.  Only when
    # a pair fails are the edges scanned, for the first one that fails.
    lifting_single = path_quotient_equal and all(
        (slices[a] ^ slices[b]).bit_count() == 1
        for a, b in component_pairs(graph, lifting.deleted_levels)
    )
    if not lifting_single:
        lifting_single = True
        for u, v, level in graph.undirected_edges():
            delta = (slices[u] ^ slices[v]).bit_count()
            if delta != (1 if level in (k - 1, k) else 0):
                findings.append(f"edge ({u}, {v}) at level {level} changes {delta} slice vertices")
                lifting_single = False
                break

    # a level-k flip between classes changes the reduced path: adjacent
    # classes have different meets
    same = [(a, b) for a, nbrs in enumerate(reduced.adj) for b in nbrs if meets[a] == meets[b]]
    reduced_changes = not same
    findings.extend(
        f"level-{k} flips between classes {a} and {b} leave the reduced path unchanged"
        for a, b in same[:1]
    )

    return graph.config.to_json() | {
        "k": k,
        "lifting": lifting_entry,
        "reduced_level": k + 1,
        "reduced": reduced_entry,
        "path_quotient_equal": path_quotient_equal,
        "reduced_quotient_equal": reduced_quotient_equal,
        "lifting_single_vertex_ok": lifting_single,
        "reduced_path_changes_ok": reduced_changes,
        "findings": findings,
    }
