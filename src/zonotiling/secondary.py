"""Vertex vectors, equivalence quotients, skeletons, and potentials.

The level-k vertex vector of a tiling sums area * indicator(A) over its
offset-size-k tiles; tilings connected by flips avoiding level k share this
vector, and those equivalence classes are the vertices of the k-th quotient
skeleton.  Four skeleton modes cover the experiments:

  sigma_k           k-classes restricted to regular tilings, level-k edges
  sigma_k_plus_prev simultaneous (k-1, k)-classes restricted to regular
                    tilings, edges at levels k-1 and k
  reduced_all       k-classes over all tilings, level-k edges
  lifting_all       simultaneous classes over all tilings, same edge levels

Classes are always computed over the full flip graph first (connectivity
through irregular tilings counts), then intersected with the regular node
set where the mode asks for it.  A skeleton holds no copy of them: its
classes are a view of the partition the labelling stores (one filtered copy
on the regular set), and its class adjacency, any qualifying flip between
the underlying components, is read in one pass off the labelling's pairs.
The level-k potential of a tiling against a reference is a signed
symmetric-difference count over the sets of basis pairs sitting at offset
size >= k (positive side) and <= k-2 (negative side); it moves by at most
one along any flip edge.  Since |R \\ S| - |S \\ R| = |R| - |S| for
any finite sets, each side's count is a difference of two set sizes, read
off the offset-size census.  Every node's census is one sum of table
entries over its decoded offsets (``key_offsets``), computed once per graph
and stored on it, n bytes per node.

The level-k vertex vector ``vert_k`` of a tiling sums, over its
offset-size-k tiles, the tile's area times its offset's indicator.
``diameter_report`` compares it across classes once per k, but decodes each
node's key to its offsets once per graph: a table packs every tile's area
into one int, in the fields of its offset size and offset members, so a
node's vectors at all levels are one sum, and each level's slice of it is
kept once, with a small id per node and level.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain, count
from operator import eq, getitem
from typing import Collection, Iterable, Sequence

from .core import Finding, PointConfig, colex_pairs, integer_coords
from .flipgraph import (
    FlipGraph,
    _Rows,
    _stored,
    check_node,
    check_nodes,
    component_pairs,
    components_excluding_levels,
    graph_diameter,
)
from .tiling import key_offsets


def _vert_k_tables(config: PointConfig) -> tuple[list[list[int]], int]:
    """Per pair and offset mask, the tile's share of every ``vert_k``, packed in one int.

    On the integer coordinates, the tile of the pair (i, j) with offset A
    adds its area a_j - a_i to entry m of ``vert_|A|`` for each m in A.  Its
    table entry holds that area in the field of (|A|, m), for each m in A:
    ``width`` bits at shift width * (n |A| + m).  A field sums the areas of
    distinct tiles, so it stays below 2 ** width, the total area's bit
    length, and no sum carries into the next field.  Masks that meet their
    own pair get entries that no tiling reads.
    """
    n = config.n
    _, coords = integer_coords(config)
    areas = [coords[j - 1] - coords[i - 1] for i, j in colex_pairs(n)]
    width = sum(areas).bit_length()
    unit = [
        sum(1 << width * (n * mask.bit_count() + m) for m in range(n) if mask >> m & 1)
        for mask in range(1 << n)
    ]
    return [[area * u for u in unit] for area in areas], width


def _vert_k_ids(graph: FlipGraph, nodes: Iterable[int]) -> array:
    """Ids of the nodes' ``vert_k`` on the integer coordinates, for k = 1 .. n-2.

    Entry v * (n - 2) + k - 1 is the id of node v's vector at level k, and
    equal ids mean equal vectors.  A node's key is decoded on the first call
    that names it, and one sum of table entries gives every level at once;
    the ids and one copy of each distinct packed vector are stored on the
    graph, so later calls read them.
    """
    n = graph.n
    stored = graph.derived.get("vert_k")
    if stored is None:
        stored = graph.derived["vert_k"] = (
            array("i", [-1]) * (len(graph) * (n - 2)), {}, *_vert_k_tables(graph.config)
        )
    ids, distinct, tables, width = stored
    field = width * n  # bits of one level's vector
    ones = (1 << field) - 1
    for v in nodes:
        if ids[v * (n - 2)] < 0:
            packed = sum(map(getitem, tables, key_offsets(n, graph.keys[v])))
            for k in range(1, n - 1):
                vector = (packed >> field * k) & ones
                ids[v * (n - 2) + k - 1] = distinct.setdefault(vector, len(distinct))
    return ids


# ---------------------------------------------------------------------------
# equivalence classes and quotient skeletons

class Partition(_Rows):
    """Classes as rows of one flat ``members`` array, with ``starts`` as offsets
    (as a stored labelling holds them): each row is read as a tuple, and a
    partition equals any sequence of equal rows, such as a tuple of tuples."""

    __slots__ = ()

    def __getitem__(self, c):
        if isinstance(c, slice):
            return tuple(map(self.__getitem__, range(len(self))[c]))
        return tuple(super().__getitem__(c))

    def __eq__(self, other) -> bool:
        if isinstance(other, Partition):
            return self.values == other.values and self.offsets == other.offsets
        return len(self) == len(other) and all(map(eq, self, other))


def equivalence_classes(
    graph: FlipGraph,
    deleted_levels: Sequence[int] | frozenset[int],
    regular_nodes: Collection[int] | None = None,
) -> Partition:
    """Components of the flip graph minus edges at the deleted levels.

    Each class is a sorted tuple of node ids, and the classes are ordered by
    smallest member.  Connectivity always runs over all tilings; with
    regular_nodes given the resulting classes are intersected with that set
    and empty intersections are dropped.  Without it they are the stored
    partition itself, else one filtered copy of its members.
    """
    check_nodes(graph, regular_nodes)
    classes = Partition(*_stored(graph, deleted_levels)[1:])
    if regular_nodes is None:
        return classes
    members, starts = classes.values, classes.offsets
    contains = regular_nodes.__contains__
    runs = [array("i", filter(contains, members[a:b])) for a, b in zip(starts, starts[1:])]
    members, starts = array("i"), array("i", [0])
    # a component's smallest member may be dropped, which can move its class
    for run in sorted(filter(None, runs)):
        members += run
        starts.append(len(members))
    return Partition(members, starts)


_SKELETON_MODES = ("sigma_k", "sigma_k_plus_prev", "lifting_all", "reduced_all")


@dataclass(frozen=True)
class QuotientSkeleton:
    """Quotient flip graph: classes as nodes, class-crossing flips as edges.

    ``classes`` views the labelling's members array (over all tilings) or
    one filtered copy of it (on the regular ones); ``component_of`` maps a
    node to its component's class, -1 where the component keeps no member.
    It is built by walking the labelling's partition, which holds no
    per-node label.
    """

    mode: str
    k: int
    deleted_levels: frozenset[int]
    classes: Partition
    component_of: array  # typecode 'i'
    adj: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.classes)

    def degree_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(len(nbrs) for nbrs in self.adj))

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    def to_dot(self, name: str = "skeleton") -> str:
        lines = [f"graph {name} {{"]
        for c in range(len(self.classes)):
            lines.append(f'  {c} [label="{c}"];')
        for u, nbrs in enumerate(self.adj):
            for v in nbrs:
                if u < v:
                    lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines)


def skeleton(
    graph: FlipGraph,
    k: int,
    mode: str,
    regular_nodes: frozenset[int] | None = None,
) -> QuotientSkeleton:
    """Build one of the four quotient skeletons at level k."""
    if mode not in _SKELETON_MODES:
        raise ValueError(f"unknown skeleton mode {mode!r}")
    check_level(graph.n, k)
    deleted = frozenset({k} if mode in ("sigma_k", "reduced_all") else {k - 1, k} - {0})
    restricted = mode in ("sigma_k", "sigma_k_plus_prev")
    if restricted and regular_nodes is None:
        raise ValueError(f"mode {mode!r} needs the regular node set")
    check_nodes(graph, regular_nodes)

    _, members, starts = components_excluding_levels(graph, deleted)
    classes = equivalence_classes(graph, deleted, regular_nodes if restricted else None)
    # each node's component, walking the partition; over the regular
    # tilings, a component's class is the one of its first regular member
    component_of = array("i", [0]) * len(graph)
    for c, a, b in zip(count(), starts, starts[1:]):
        for v in members[a:b]:
            component_of[v] = c
    if restricted:
        class_of = array("i", [-1]) * (len(starts) - 1)
        for c, first in enumerate(map(classes.values.__getitem__, classes.offsets[:-1])):
            class_of[component_of[first]] = c
        component_of = array("i", map(class_of.__getitem__, component_of))

    # the labelling recorded each pair of components a deleted-level edge
    # joins, by their labels, which are member nodes, in increasing order:
    # over all tilings, where class order is label order, each class's
    # neighbours arrive in increasing order
    rows: list[list[int]] = [[] for _ in range(len(classes))]
    for a, b in component_pairs(graph, deleted):
        ca, cb = component_of[a], component_of[b]
        if ca < 0 or cb < 0:
            continue
        if ca == cb:
            raise Finding(
                f"an edge at deleted levels {sorted(deleted)} inside component {a} "
                "joins two members of one class"
            )
        rows[ca].append(cb)
        rows[cb].append(ca)
    adj = tuple(map(tuple, map(sorted, rows) if restricted else rows))
    return QuotientSkeleton(mode, k, deleted, classes, component_of, adj)


# ---------------------------------------------------------------------------
# potentials

@dataclass(frozen=True)
class PotentialReport:
    """Per-node potential values against a reference, with edge audit."""

    kind: str  # "full" or "modified"
    reference: int
    k: int
    thresholds: str  # "definition" or "shifted"
    values: tuple[int, ...]
    max_edge_delta: int
    max_edge_delta_by_level: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "reference": self.reference,
            "k": self.k,
            "thresholds": self.thresholds,
            "values": self.values,
            "max_edge_delta": self.max_edge_delta,
            "max_edge_delta_by_level": [list(x) for x in self.max_edge_delta_by_level],
        }


def _census(graph: FlipGraph) -> bytes:
    """Every node's cumulative offset-size census, read off the keys once per graph.

    Byte v * n + s counts node v's tiles of offset size below s, for
    s = 0 .. n-1; the last counts every tile.  A tile of offset size z adds
    1 << 8 s to its node's row for every s in z+1 .. n-1, so the row is one
    sum of table entries, indexed by offset mask, and no byte carries while
    C(n,2) < 256.
    """
    census = graph.derived.get("census")
    if census is None:
        n = graph.n
        table = [sum(1 << 8 * s for s in range(mask.bit_count() + 1, n)) for mask in range(1 << n)]
        census = graph.derived["census"] = b"".join(
            sum(map(table.__getitem__, key_offsets(n, key))).to_bytes(n, "little")
            for key in graph.keys
        )
    return census


def _below(graph: FlipGraph, k: int, thresholds: str, modified: bool) -> Sequence[int]:
    """Per node, its tiles below the high threshold (offset size k, or n-k-1 if
    shifted) plus, unless the potential is the modified one, those below k-1.

    A side, the tiles at size >= the threshold less (unless modified) those
    at size <= k-2, is the node's tile count less this count, and every
    tiling has C(n,2) tiles; so a node's potential against the reference,
    the reference's side less the node's, is this count less the reference's.
    """
    if thresholds == "definition":
        hi = k
    elif thresholds == "shifted":
        hi = graph.n - k - 1
    else:
        raise ValueError("thresholds must be 'definition' or 'shifted'")
    census = _census(graph)
    width = graph.n
    high = census[min(max(hi, 0), width - 1)::width]
    if modified:
        return high
    low = census[min(max(k - 1, 0), width - 1)::width]
    return [a + b for a, b in zip(high, low)]


def _potential_report(
    graph: FlipGraph, reference: int, k: int, thresholds: str, modified: bool
) -> PotentialReport:
    check_node(graph, reference)
    below = _below(graph, k, thresholds, modified)
    own = below[reference]
    values = tuple(count - own for count in below)
    # every edge twice, once from each end, with the same delta
    best = [-1] * graph.n  # the largest delta at each level, -1 at a level with no edge
    for value, v, level in zip(graph.sources(values), graph.nbr_ids, graph.nbr_levels):
        delta = abs(value - values[v])
        if delta > best[level]:
            best[level] = delta
    by_level = tuple((level, delta) for level, delta in enumerate(best) if delta >= 0)
    return PotentialReport(
        "modified" if modified else "full",
        reference,
        k,
        thresholds,
        values,
        max(best + [0]),
        by_level,
    )


def potential(
    graph: FlipGraph, reference: int, k: int, thresholds: str = "definition"
) -> PotentialReport:
    """Level-k potential of every node against the reference tiling."""
    return _potential_report(graph, reference, k, thresholds, modified=False)


def modified_potential(
    graph: FlipGraph, reference: int, k: int, thresholds: str = "definition"
) -> PotentialReport:
    """Positive-side-only potential; moves only across level-k edges."""
    return _potential_report(graph, reference, k, thresholds, modified=True)


def potential_between(
    graph: FlipGraph, reference: int, node: int, k: int, thresholds: str = "definition"
) -> int:
    """Level-k potential of one node against the reference tiling."""
    check_node(graph, reference)
    check_node(graph, node)
    below = _below(graph, k, thresholds, False)
    return below[node] - below[reference]


# ---------------------------------------------------------------------------
# duality and the per-(n, k) diameter report

def _skeleton_iso_via_opposite(
    graph: FlipGraph,
    left: QuotientSkeleton,
    right: QuotientSkeleton,
) -> bool:
    """Does the half-turn involution induce a graph isomorphism left -> right?"""
    if len(left) != len(right):
        return False
    mapping = [-1] * len(left)
    last = len(graph) - 1  # the half-turn maps id v to last - v
    for idx, members in enumerate(left.classes):
        images = {right.component_of[last - v] for v in members}
        if len(images) != 1 or min(images) < 0:
            return False
        mapping[idx] = images.pop()
    if sorted(mapping) != list(range(len(right))):
        return False
    for u, nbrs in enumerate(left.adj):
        mapped = tuple(sorted(mapping[v] for v in nbrs))
        if mapped != right.adj[mapping[u]]:
            return False
    return True


def _duality(
    graph: FlipGraph,
    left: QuotientSkeleton,
    diam_left: int,
    regular_nodes: frozenset[int],
) -> dict:
    """Compare a sigma_k skeleton with sigma_(n-1-k) under the involution."""
    right = skeleton(graph, graph.n - 1 - left.k, "sigma_k", regular_nodes)
    diam_right, _ = graph_diameter(right.adj)
    return {
        "classes_equal": len(left) == len(right),
        "degrees_equal": left.degree_multiset() == right.degree_multiset(),
        "diameters_equal": diam_left == diam_right,
        "isomorphic_via_opposite": _skeleton_iso_via_opposite(graph, left, right),
    }


def sigma_k_diameter_formula(n: int, k: int) -> int:
    return k * (n - k - 1)


def sum_skeleton_diameter_formula(n: int, k: int) -> int:
    return 2 * k * (n - k) - n


def diameter_entry(quotient: QuotientSkeleton, formula: int) -> dict:
    """A skeleton's class count and diameter, against the diameter's closed form."""
    diam, _ = graph_diameter(quotient.adj)
    return {
        "classes": len(quotient), "diameter": diam, "formula": formula, "match": diam == formula
    }


def check_level(n: int, k: int) -> None:
    """Refuse a level outside 1..n-2, where the quotient skeletons live."""
    if not 1 <= k <= n - 2:
        raise ValueError(f"level k={k} is outside 1..{n - 2}")


def _vert_k_distinct(
    graph: FlipGraph, classes: Sequence[tuple[int, ...]], k: int
) -> bool:
    """Is vert_k constant on every class, and different between classes?

    Compares ``vert_k`` on the integer coordinates, through the ids of
    ``_vert_k_ids``: one positive scale moves no equality between vectors.
    """
    ids = _vert_k_ids(graph, chain.from_iterable(classes))
    stride = graph.n - 2
    values = set()
    for members in classes:
        vals = {ids[v * stride + k - 1] for v in members}
        if len(vals) != 1:
            return False
        values |= vals
    return len(values) == len(classes)


def _restriction_agrees(
    graph: FlipGraph, classes: Partition, k: int, regular_nodes: Collection[int]
) -> bool:
    """Does every sigma_k class stay connected without its irregular tilings?

    The components of the regular tilings under flips off level k refine
    the k-classes restricted to them, so the two partitions agree exactly
    when one BFS per class, from its first member, over regular tilings and
    along flips off level k, reaches every member.  Disagreement means some
    k-class is glued together only through irregular tilings.
    """
    ids, levels, offsets = graph.nbr_ids, graph.nbr_levels, graph.offsets
    for members in classes:
        reached = {members[0]}
        queue = [members[0]]
        for u in queue:  # the list grows into the BFS queue
            a, b = offsets[u], offsets[u + 1]
            for v, level in zip(ids[a:b], levels[a:b]):
                if level != k and v not in reached and v in regular_nodes:
                    reached.add(v)
                    queue.append(v)
        if len(queue) != len(members):
            return False
    return True


def diameter_report(
    graph: FlipGraph, k: int, regular_nodes: frozenset[int] | set[int]
) -> dict:
    """Everything measured about sigma_k and sigma_k + sigma_(k-1) at one k."""
    n = graph.n
    # levels {k-1, k} first, so that the labelling of {k} is merged from theirs
    sums = diameter_entry(
        skeleton(graph, k, "sigma_k_plus_prev", regular_nodes),
        sum_skeleton_diameter_formula(n, k),
    )
    sk = skeleton(graph, k, "sigma_k", regular_nodes)
    sigma = diameter_entry(sk, sigma_k_diameter_formula(n, k))
    sum_formula = sums["formula"]

    duality = _duality(graph, sk, sigma["diameter"], regular_nodes)

    distinct_ok = _vert_k_distinct(graph, sk.classes, k)

    pot_def = potential_between(graph, graph.min_id, graph.max_id, k, "definition")
    pot_shift = potential_between(graph, graph.min_id, graph.max_id, k, "shifted")

    return graph.config.to_json() | {
        "k": k,
        "sigma_k": sigma,
        "sigma_k_plus_prev": sums,
        "duality_ok": all(duality.values()),
        "duality": duality,
        "vertk_distinct_ok": distinct_ok,
        "restriction_agreement": _restriction_agrees(graph, sk.classes, k, regular_nodes),
        "potential_min_to_max": {
            "definition": abs(pot_def),
            "shifted": abs(pot_shift),
            "formula": sum_formula,
            "match_definition": abs(pot_def) == sum_formula,
            "match_shifted": abs(pot_shift) == sum_formula,
        },
    }
