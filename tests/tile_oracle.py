"""The tile route: tilings as offsets, and flips, orientations, heights,
validation and slices read off tiles.

Test-only reference for the key route in ``zonotiling``, which holds a
tiling only as its orientation key and reads flips (``flipgraph.column_flips``),
slices (``hypertri.column_slices``), offset sizes and ``vert_k`` off keys.  Here
a ``Tiling`` is its pair-indexed offsets, and every function works on those
offsets or on the vertex set they span.  It imports nothing but
``zonotiling.core`` and ``zonotiling.tiling``'s key decoder, so the tests
compare two routes that share no code past the offsets of a key.
"""

from collections import Counter, namedtuple
from dataclasses import dataclass
from fractions import Fraction

from zonotiling.core import (
    NonGenericHeightError,
    OrientationVector,
    as_heights,
    colex_pairs,
    colex_triples,
    full_mask,
    mask_from,
    mask_points,
    num_pairs,
    pair_rank,
)
from zonotiling.tiling import key_offsets


@dataclass(frozen=True)
class Tiling:
    """A fine zonotopal tiling: one offset bitmask per colex-ranked pair."""

    n: int
    offsets: tuple[int, ...]

    def offset_mask(self, i, j):
        return self.offsets[pair_rank(i, j)]

    def offset_size_census(self):
        """Number of tiles at each offset size 0 .. n-2."""
        census = [0] * (self.n - 1)
        for mask in self.offsets:
            census[mask.bit_count()] += 1
        return tuple(census)

    def vertex_masks(self):
        """All vertices of the tiling as subset masks: A <= S <= A|B per tile."""
        return _vertex_set(zip(self.offsets, colex_pairs(self.n)))


def _vertex_set(tiles):
    """Vertices of (offset mask, pair) tiles as subset masks: A <= S <= A|B."""
    verts = set()
    for mask, (i, j) in tiles:
        bi = 1 << (i - 1)
        bj = 1 << (j - 1)
        verts.update((mask, mask | bi, mask | bj, mask | bi | bj))
    return frozenset(verts)


def tiling_from_tiles(n, tiles):
    """Assemble a Tiling from (offset, pair) items; every pair exactly once."""
    offsets = [None] * num_pairs(n)
    for raw_offset, (i, j) in tiles:
        if not 1 <= i < j <= n:
            raise ValueError(f"bad basis pair ({i}, {j})")
        mask = raw_offset if isinstance(raw_offset, int) else mask_from(raw_offset)
        rank = pair_rank(i, j)
        if offsets[rank] is not None:
            raise ValueError(f"basis pair ({i}, {j}) occurs more than once")
        if mask & ((1 << (i - 1)) | (1 << (j - 1))):
            raise ValueError(f"offset of tile ({i}, {j}) meets its own pair")
        if mask >> n:
            raise ValueError(f"offset of tile ({i}, {j}) is not a subset of [n]")
        offsets[rank] = mask
    missing = [colex_pairs(n)[r] for r, m in enumerate(offsets) if m is None]
    if missing:
        raise ValueError(f"missing tiles for pairs {missing}")
    return Tiling(n, tuple(offsets))


def tiling_from_heights(config, heights):
    """Project the upper boundary of the lifted zonotope for heights h.

    For each pair i < j the offset collects the points lying strictly above
    the chord through (a_i, h_i) and (a_j, h_j), that is the m with
    h_m (a_j - a_i) > h_i (a_j - a_m) + h_j (a_m - a_i); a point exactly on
    a chord means h is not generic and raises NonGenericHeightError.
    """
    h = as_heights(config, heights)
    a = config.coords
    offsets = []
    for i, j in colex_pairs(config.n):
        ai, aj, hi, hj = a[i - 1], a[j - 1], h[i - 1], h[j - 1]
        mask = 0
        for m in range(config.n):
            if m in (i - 1, j - 1):
                continue
            above = h[m] * (aj - ai) - hi * (aj - a[m]) - hj * (a[m] - ai)
            if above == 0:
                raise NonGenericHeightError(tuple(sorted((i, m + 1, j))))
            mask |= (above > 0) << m
        offsets.append(mask)
    return Tiling(config.n, tuple(offsets))


def extremal_tiling(config, which):
    """The minimal or maximal tiling: the projection of the convex heights
    a_i^2, which puts every point outside a chord's span above it, or of the
    concave heights -a_i^2."""
    if which not in ("min", "max"):
        raise ValueError("which must be 'min' or 'max'")
    sign = 1 if which == "min" else -1
    return tiling_from_heights(config, [sign * a * a for a in config.coords])


def orientation_of(tiling):
    """Circuit signs read off the offsets: +1 iff q misses the {p, r} tile."""
    signs = []
    for p, q, r in colex_triples(tiling.n):
        mask = tiling.offset_mask(p, r)
        signs.append(-1 if (mask >> (q - 1)) & 1 else 1)
    return OrientationVector.from_signs(signs)


def tiling_of_orientation(n, key):
    """The tiling with orientation key ``key``: the inverse of orientation_of."""
    return Tiling(n, key_offsets(n, key))


def vert_k(config, tiling, k):
    """Sum of tile area times offset indicator over offset-size-k tiles."""
    out = [Fraction(0)] * config.n
    for (i, j), mask in zip(colex_pairs(tiling.n), tiling.offsets):
        if mask.bit_count() != k:
            continue
        area = config.coord(j) - config.coord(i)
        for m in mask_points(mask):
            out[m - 1] += area
    return tuple(out)


class FlipUnavailableError(ValueError):
    """The requested flip pattern is not present in the tiling."""


@dataclass(frozen=True)
class FlipMove:
    """A flip along one circuit: triple (p, q, r), offset A(F), raising or not."""

    triple: tuple[int, int, int]
    offset: int  # bitmask of A(F)
    raising: bool

    @property
    def level(self) -> int:
        return self.offset.bit_count() + 1


def flip_along(tiling: Tiling, p: int, q: int, r: int) -> FlipMove | None:
    """The unique candidate flip along circuit (p, q, r), if available.

    The offset A of the B = {p, r} tile pins everything down: when q is
    outside A the tiling shows the +1 local patch
        {A+p | {q,r}},  {A+r | {p,q}},  {A | {p,r}}
    and the flip (raising) installs the -1 patch
        {A | {q,r}},  {A | {p,q}},  {A+q | {p,r}};
    when q lies in A the roles are reversed (lowering).
    """
    bp, bq, br = 1 << (p - 1), 1 << (q - 1), 1 << (r - 1)
    a_pr = tiling.offset_mask(p, r)
    if a_pr & bq:
        base = a_pr & ~bq
        if tiling.offset_mask(q, r) == base and tiling.offset_mask(p, q) == base:
            return FlipMove((p, q, r), base, raising=False)
    else:
        base = a_pr
        if tiling.offset_mask(q, r) == base | bp and tiling.offset_mask(p, q) == base | br:
            return FlipMove((p, q, r), base, raising=True)
    return None


def available_flips(tiling: Tiling) -> list[FlipMove]:
    """All available flips, at most one per circuit, in colex circuit order."""
    moves = (flip_along(tiling, *triple) for triple in colex_triples(tiling.n))
    return [move for move in moves if move is not None]


def apply_flip(tiling: Tiling, move: FlipMove) -> Tiling:
    """Exchange the three-tile patch named by the move; one circuit toggles."""
    p, q, r = move.triple
    if flip_along(tiling, p, q, r) != move:
        raise FlipUnavailableError(f"flip {move} not available in this tiling")
    bp, bq, br = 1 << (p - 1), 1 << (q - 1), 1 << (r - 1)
    base = move.offset
    offsets = list(tiling.offsets)
    if move.raising:
        offsets[pair_rank(q, r)] = base
        offsets[pair_rank(p, q)] = base
        offsets[pair_rank(p, r)] = base | bq
    else:
        offsets[pair_rank(q, r)] = base | bp
        offsets[pair_rank(p, q)] = base | br
        offsets[pair_rank(p, r)] = base
    return Tiling(tiling.n, tuple(offsets))


def opposite(tiling: Tiling) -> Tiling:
    """The half-turn involution: each tile's offset becomes [n] \\ (A | B).

    Negates every circuit orientation and swaps offset size ell with
    n-2-ell, so flips at level ell correspond to flips at level n-1-ell.
    """
    full = full_mask(tiling.n)
    return Tiling(tiling.n, tuple(
        full & ~(mask | (1 << (i - 1)) | (1 << (j - 1)))
        for (i, j), mask in zip(colex_pairs(tiling.n), tiling.offsets)
    ))


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


def _circuit_witnesses(verts: frozenset[int], p: int, q: int, r: int) -> tuple[bool, bool]:
    """Is some vertex a positive witness (p and r, not q), and some a negative one (q alone)?"""
    bp, bq, br = 1 << (p - 1), 1 << (q - 1), 1 << (r - 1)
    support = bp | bq | br
    pos = any(v & support == bp | br for v in verts)
    neg = any(v & support == bq for v in verts)
    return pos, neg


def orientation_by_vertices(tiling: Tiling) -> OrientationVector:
    """Circuit signs via the vertex-set definition.

    A vertex S orients (p, q, r) positively when it contains p and r but not
    q, negatively when it contains q but neither p nor r.  Exactly one kind
    of witness must occur per circuit; anything else marks a corrupt tiling.
    """
    verts = tiling.vertex_masks()
    signs = []
    for p, q, r in colex_triples(tiling.n):
        pos, neg = _circuit_witnesses(verts, p, q, r)
        if pos == neg:
            kind = "both" if pos else "no"
            raise ValueError(
                f"corrupt tiling: {kind} orientation witnesses for circuit {(p, q, r)}"
            )
        signs.append(1 if pos else -1)
    return OrientationVector.from_signs(signs)


CheckResult = namedtuple("CheckResult", "name ok detail")


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.ok)


def validate(config, tiling) -> ValidationReport:
    """Structural audit: pair uniqueness, area, vertex count, orientation.

    Accepts either a Tiling or a raw iterable of (offset, pair) items, so
    malformed tile multisets can be diagnosed instead of rejected upfront.
    """
    n = config.n
    if isinstance(tiling, Tiling):
        items = list(zip(tiling.offsets, colex_pairs(n)))
    else:
        items = [(m if isinstance(m, int) else mask_from(m), (i, j)) for m, (i, j) in tiling]

    # a pair outside 1 <= i < j <= n fails here and sits out the other checks
    outside = [pair for _, pair in items if not 1 <= pair[0] < pair[1] <= n]
    items = [(mask, pair) for mask, pair in items if 1 <= pair[0] < pair[1] <= n]
    seen = Counter(pair for _, pair in items)
    dups = [pair for pair, count in seen.items() if count > 1]
    missing = [pair for pair in colex_pairs(n) if pair not in seen]
    problems = [
        f"{label} {pairs}"
        for label, pairs in (
            ("duplicated", dups),
            ("missing", missing),
            (f"outside 1 <= i < j <= {n}:", outside),
        )
        if pairs
    ]
    disjoint_bad = [
        (i, j) for mask, (i, j) in items if mask & ((1 << (i - 1)) | (1 << (j - 1))) or mask >> n
    ]
    total = sum(config.coord(j) - config.coord(i) for _, (i, j) in items)
    expected = sum(config.coord(j) - config.coord(i) for i, j in colex_pairs(n))
    verts = _vertex_set(items)
    want = num_pairs(n) + n + 1
    bad_circuits = [c for c in colex_triples(n) if sum(_circuit_witnesses(verts, *c)) != 1]
    return ValidationReport((
        CheckResult(
            "pair-uniqueness", not problems,
            "; ".join(problems) or "each basis pair occurs exactly once",
        ),
        CheckResult(
            "offset-disjoint", not disjoint_bad,
            f"bad tiles {disjoint_bad}" if disjoint_bad else "offsets avoid their own pair",
        ),
        CheckResult(
            "area-conservation", total == expected,
            f"tile area sum {total} vs zonotope area {expected}",
        ),
        CheckResult("vertex-count", len(verts) == want, f"{len(verts)} vertices, expected {want}"),
        CheckResult(
            "orientation-consistency", not bad_circuits,
            f"ambiguous or unoriented circuits {bad_circuits}"
            if bad_circuits else "every circuit oriented one way",
        ),
    ))


def level_vertex_masks(tiling: Tiling, k: int) -> frozenset[int]:
    """Size-k members of the tiling's vertex set, as masks."""
    return frozenset(v for v in tiling.vertex_masks() if v.bit_count() == k)


@dataclass(frozen=True)
class Slice:
    """A level-k slice in strong-separation order, read like a ``MonotonePath``."""

    k: int
    vertices: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.vertices)

    def vertex_masks(self) -> tuple[int, ...]:
        return tuple(mask_from(v) for v in self.vertices)


def cross_section(tiling: Tiling, k: int) -> Slice:
    """The tiling's level-k slice, ordered by strong separation.

    Of two strongly separated k-sets the earlier one has the smaller sum, so
    the slice is sorted by sum and every pair is checked; a pair that is not
    strongly separated, which no valid tiling has, raises ValueError.
    """
    if not 0 <= k <= tiling.n:
        raise ValueError(f"level {k} outside 0..{tiling.n}")
    path = sorted((mask_points(m) for m in level_vertex_masks(tiling, k)), key=sum)
    for i, a in enumerate(path):
        for b in path[i + 1:]:
            if max(set(a) - set(b)) > min(set(b) - set(a)):
                raise ValueError(f"sets {a} and {b} are not strongly separated")
    return Slice(k, tuple(path))
