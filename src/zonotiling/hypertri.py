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

Graph nodes never build a Tiling for their slices: ``key_slices`` reads the
level-k and level-(k+1) slices off the orientation key, because a subset is
a vertex exactly when no circuit forbids its trace on the circuit's triple
(the chamber-set condition, proved there).  ``level_vertex_masks`` and
``cross_section`` read the same slices off a Tiling's tiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key, lru_cache, reduce
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from .core import (
    Finding,
    byte_tables,
    colex_triples,
    full_mask,
    mask_from,
    mask_points,
)
from .flipgraph import FlipGraph, graph_diameter
from .secondary import (
    skeleton,
    sigma_k_diameter_formula,
    sum_skeleton_diameter_formula,
)
from .tiling import Tiling


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
    return MonotonePath(k, tuple(mask_points(m) for m in ordered), reduced)


def level_vertex_masks(tiling: Tiling, k: int) -> frozenset[int]:
    """Size-k members of the tiling's vertex set, as masks."""
    return frozenset(v for v in tiling.vertex_masks() if v.bit_count() == k)


@lru_cache(maxsize=None)
def _slice_tables(n: int, k: int):
    """Byte tables and subset order for ``key_slices``, built once per (n, k).

    Bit i of a slice word stands for ``subsets[i]``: the k-subsets of [n]
    in bits 0 .. C(n,k)-1, then the (k+1)-subsets.  Key bit c, the circuit
    (p, q, r), has the image ``minus[c]``, the subsets meeting {p, q, r} in
    {p, r}, and the image ``plus[c]``, those meeting it in {q}.
    """
    subsets = tuple(
        mask_from(points)
        for size in (k, k + 1)
        for points in combinations(range(1, n + 1), size)
    )
    minus = []
    plus = []
    for p, q, r in colex_triples(n):
        outer = (1 << (p - 1)) | (1 << (r - 1))
        middle = 1 << (q - 1)
        traces = [s & (outer | middle) for s in subsets]
        minus.append(sum(1 << i for i, t in enumerate(traces) if t == outer))
        plus.append(sum(1 << i for i, t in enumerate(traces) if t == middle))
    return byte_tables(minus), byte_tables(plus), full_mask(len(minus)), subsets


def key_slices(n: int, key: int, k: int) -> int:
    """The level-k and level-(k+1) slices of the tiling with orientation key ``key``.

    Returns one word over the k- and (k+1)-subsets of [n]: bit i is set when
    the i-th of them is a vertex, the k-subsets first, each size in
    lexicographic order (``slice_masks`` decodes it).  A subset S of [n] is
    a vertex of the tiling exactly when, for every circuit p < q < r,

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

    Byte tables gather the key once for the -1 patterns and once, through
    its complement, for the +1 patterns; the slice is the complement of the
    forbidden subsets.
    """
    minus, plus, full, subsets = _slice_tables(n, k)
    width = len(minus)
    forbidden = 0
    for table, byte in zip(minus, key.to_bytes(width, "little")):
        forbidden |= table[byte]
    for table, byte in zip(plus, (key ^ full).to_bytes(width, "little")):
        forbidden |= table[byte]
    return full_mask(len(subsets)) & ~forbidden


def slice_masks(n: int, k: int, word: int) -> tuple[frozenset[int], frozenset[int]]:
    """The level-k and level-(k+1) vertex masks marked in a ``key_slices`` word."""
    subsets = _slice_tables(n, k)[3]
    lower = comb(n, k)
    masks: tuple[list[int], list[int]] = ([], [])
    while word:
        low = word & -word
        i = low.bit_length() - 1
        masks[i >= lower].append(subsets[i])
        word ^= low
    return frozenset(masks[0]), frozenset(masks[1])


def cross_section(tiling: Tiling, k: int) -> MonotonePath:
    """The tiling's level-k slice as a monotone path.

    Raises StrongSeparationError if two slice vertices are incomparable,
    which cannot happen for a valid tiling.
    """
    if not 0 <= k <= tiling.n:
        raise ValueError(f"level {k} outside 0..{tiling.n}")
    return _ordered_path(level_vertex_masks(tiling, k), k, tiling.n, reduced=False)


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
    of the half-turn image's (n-1-k)-class.
    """
    n = graph.n
    meet = reduce(int.__and__, (key_slices(n, graph.keys[v], k) for v in members))
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
    level-(k+1) slices are read once off its orientation key by
    ``key_slices``, as one word; no Tiling is built.  Every distinct level-k
    slice must be a monotone path, the lifting classes must be exactly the
    groups of equal slices, and each qualifying flip edge must toggle exactly
    one slice vertex.  Each k-class's reduced path is computed once, from
    the meet of its members' level-(k+1) slices; distinct classes must have
    distinct reduced paths, and a level-k flip between classes must change
    it.  Only the distinct slices and the meets are decoded into vertex sets.
    """
    n = graph.n
    findings: list[str] = []

    lifting = skeleton(graph, k, "lifting_all")
    lifting_diam, _ = graph_diameter(lifting.adj)
    lifting_formula = sum_skeleton_diameter_formula(n, k)

    reduced = skeleton(graph, k, "reduced_all")
    reduced_diam, _ = graph_diameter(reduced.adj)
    reduced_formula = sigma_k_diameter_formula(n, k)

    # one slice word per node: its low C(n,k) bits, the level-k slice, are
    # kept per node (interned, so equal slices share one int), and the word
    # is ANDed into its k-class's meet
    lower = full_mask(comb(n, k))
    component_of = reduced.component_of
    meets = [-1] * len(reduced)
    distinct: dict[int, int] = {}  # first-seen order
    slices = []
    for v, key in enumerate(graph.keys):
        word = key_slices(n, key, k)
        meets[component_of[v]] &= word
        s = word & lower
        slices.append(distinct.setdefault(s, s))

    # the lifting classes cover every node, so they equal the groups of
    # equal slices when the slice is constant on each class and there are
    # as many distinct slices as classes
    for s in distinct:
        _ordered_path(slice_masks(n, k, s)[0], k, n, reduced=False)
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

    # each flip edge at level k or k-1 toggles exactly one slice vertex, and
    # a level-k flip between classes changes the reduced path (at least one
    # vertex toggles; unlike the lifting slice the count is not always one)
    single_finding = change_finding = None
    for u, v, level in graph.undirected_edges():
        if single_finding is None:
            delta = (slices[u] ^ slices[v]).bit_count()
            expect = 1 if level in (k - 1, k) else 0
            if delta != expect:
                single_finding = (
                    f"edge ({u}, {v}) at level {level} changes {delta} slice vertices"
                )
        if (
            change_finding is None
            and level == k
            and meets[component_of[u]] == meets[component_of[v]]
        ):
            change_finding = (
                f"level-{k} edge ({u}, {v}) leaves the reduced path unchanged"
            )
        if single_finding is not None and change_finding is not None:
            break
    lifting_single = single_finding is None
    reduced_changes = change_finding is None
    findings.extend(f for f in (single_finding, change_finding) if f is not None)

    return {
        "n": n,
        "k": k,
        "points": [str(a) for a in graph.config.coords],
        "lifting": {
            "classes": len(lifting),
            "diameter": lifting_diam,
            "formula": lifting_formula,
            "match": lifting_diam == lifting_formula,
        },
        "reduced_level": k + 1,
        "reduced": {
            "classes": len(reduced),
            "diameter": reduced_diam,
            "formula": reduced_formula,
            "match": reduced_diam == reduced_formula,
        },
        "path_quotient_equal": path_quotient_equal,
        "reduced_quotient_equal": reduced_quotient_equal,
        "lifting_single_vertex_ok": lifting_single,
        "reduced_path_changes_ok": reduced_changes,
        "findings": findings,
    }
