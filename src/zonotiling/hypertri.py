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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key, reduce
from typing import Iterable, Sequence

from .core import Finding, mask_from, mask_points
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


def _level_slices(tiling: Tiling, k: int) -> tuple[frozenset[int], frozenset[int]]:
    """The level-k and level-(k+1) slices, from one pass over the vertices."""
    verts = tiling.vertex_masks()
    return (
        frozenset(v for v in verts if v.bit_count() == k),
        frozenset(v for v in verts if v.bit_count() == k + 1),
    )


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
    slices = (level_vertex_masks(graph.tiling(v), k + 1) for v in members)
    return _reduced_path(reduce(frozenset.intersection, slices), k, graph.n)


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
    diameters against their closed forms.  Each node's tiling is built once,
    for its level-k and level-(k+1) slices.  Every distinct level-k slice
    must be a monotone path, the lifting classes must be exactly the groups
    of equal slices, and each qualifying flip edge must toggle exactly one
    slice vertex.  Each k-class's reduced path is computed once, from its
    members' level-(k+1) slices; distinct classes must have distinct reduced
    paths, and a level-k flip between classes must change it.
    """
    n = graph.n
    findings: list[str] = []

    lifting = skeleton(graph, k, "lifting_all")
    lifting_diam, _ = graph_diameter(lifting.adj)
    lifting_formula = sum_skeleton_diameter_formula(n, k)

    reduced = skeleton(graph, k, "reduced_all")
    reduced_diam, _ = graph_diameter(reduced.adj)
    reduced_formula = sigma_k_diameter_formula(n, k)

    # every node's level-k and level-(k+1) slices from one tiling; equal
    # slices are interned, so a node holds references, not vertex sets
    distinct: dict[frozenset[int], frozenset[int]] = {}  # first-seen order
    uppers: dict[frozenset[int], frozenset[int]] = {}
    slices = []
    upper = []
    for v in range(len(graph)):
        lower, above = _level_slices(graph.tiling(v), k)
        slices.append(distinct.setdefault(lower, lower))
        upper.append(uppers.setdefault(above, above))

    # the lifting classes cover every node, so they equal the groups of
    # equal slices when the slice is constant on each class and there are
    # as many distinct slices as classes
    for s in distinct:
        _ordered_path(s, k, n, reduced=False)
    path_quotient_equal = len(distinct) == len(lifting) and all(
        len({slices[v] for v in members}) == 1 for members in lifting.classes
    )
    if not path_quotient_equal:
        findings.append("equal-path grouping differs from the simultaneous quotient")

    # reduced paths are constant per k-class by construction; they must also
    # separate distinct classes
    reduced_masks = []
    for members in reduced.classes:
        common = reduce(frozenset.intersection, {upper[v] for v in members})
        reduced_masks.append(frozenset(_reduced_path(common, k, n).vertex_masks()))
    reduced_quotient_equal = len(set(reduced_masks)) == len(reduced.classes)
    if not reduced_quotient_equal:
        findings.append("distinct k-classes share a reduced path")

    # each flip edge at level k or k-1 toggles exactly one slice vertex
    lifting_single = True
    for u, v, level in graph.undirected_edges():
        delta = len(slices[u] ^ slices[v])
        expect = 1 if level in (k - 1, k) else 0
        if delta != expect:
            lifting_single = False
            findings.append(
                f"edge ({u}, {v}) at level {level} changes {delta} slice vertices"
            )
            break

    # a level-k flip between classes changes the reduced path (at least one
    # vertex toggles; unlike the lifting slice the count is not always one)
    reduced_changes = True
    for u, v, level in graph.undirected_edges():
        if level != k:
            continue
        cu = reduced.component_of[u]
        cv = reduced.component_of[v]
        if not reduced_masks[cu] ^ reduced_masks[cv]:
            reduced_changes = False
            findings.append(
                f"level-{k} edge ({u}, {v}) leaves the reduced path unchanged"
            )
            break

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
