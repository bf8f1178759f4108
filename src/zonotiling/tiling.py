"""Tiles, tilings, regular tilings from heights, orientation keys, and SVG.

A fine tiling of the zonotope of n lifted vectors uses exactly one
parallelogram tile per basis pair B = {i, j}: the tile with offset set A is
anchored at (sum_{m in A} a_m, |A|) and spanned by v_i and v_j.  A tiling is
therefore stored as a pair-indexed tuple of offset bitmasks, which keeps
values immutable and hashable.

Orientation convention.  For the circuit p < q < r, the tiling orients the
circuit +1 exactly when q is missing from the offset of the B = {p, r} tile.
The minimal tiling (convex heights, offset-size census ell+1) orients every
circuit +1; the maximal tiling (concave heights, census n-1-ell) orients
every circuit -1.  A *raising* flip toggles one circuit from +1 to -1, i.e.
walks from the minimal toward the maximal tiling and increases the
inversion count of the orientation vector by one.

A tiling is fixed by its orientation key.  Whatever its offset A, the flip
along (p, q, r) toggles q in the {p, r} offset, p in the {q, r} offset and r
in the {p, q} offset, so ``tiling_of_orientation`` rebuilds the offsets as
the minimal tiling's XOR that toggle for every set bit of the key.  Each
set bit's toggle changes the minimal tiling's sizes of the {p, r}, {q, r}
and {p, q} offsets by +1, -1 and -1, so ``offset_sizes`` reads the sizes
alone off the key, without a tiling.

No stage flips or validates a Tiling; ``tests/tile_oracle.py`` keeps the
tile-based flips and audit as the reference for the key route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add
from typing import Iterable, Iterator, Sequence

from .core import (
    HeightVector,
    NonGenericHeightError,
    OrientationVector,
    PointConfig,
    as_heights,
    byte_tables,
    colex_pairs,
    colex_triples,
    full_mask,
    integer_coords,
    mask_from,
    mask_points,
    num_pairs,
    pair_rank,
)


@dataclass(frozen=True)
class Tile:
    """A single parallelogram: offset set A and basis pair B = (i, j)."""

    offset: frozenset[int]
    pair: tuple[int, int]

    def to_json(self) -> dict:
        return {"A": sorted(self.offset), "B": list(self.pair)}


@dataclass(frozen=True)
class Tiling:
    """A fine zonotopal tiling: one offset bitmask per colex-ranked pair."""

    n: int
    offsets: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.offsets) != num_pairs(self.n):
            raise ValueError("need exactly one offset per basis pair")

    def offset_mask(self, i: int, j: int) -> int:
        return self.offsets[pair_rank(i, j)]

    def tiles(self) -> Iterator[Tile]:
        for (i, j), mask in zip(colex_pairs(self.n), self.offsets):
            yield Tile(frozenset(mask_points(mask)), (i, j))

    def offset_size_census(self) -> tuple[int, ...]:
        """Number of tiles at each offset size 0 .. n-2."""
        census = [0] * (self.n - 1)
        for mask in self.offsets:
            census[mask.bit_count()] += 1
        return tuple(census)

    def vertex_masks(self) -> frozenset[int]:
        """All vertices of the tiling as subset masks: A <= S <= A|B per tile."""
        return _vertex_set(zip(self.offsets, colex_pairs(self.n)))

    def to_json(self) -> dict:
        tiles = sorted(self.tiles(), key=lambda t: t.pair)
        return {"n": self.n, "tiles": [t.to_json() for t in tiles]}

    @classmethod
    def from_json(cls, data: dict) -> "Tiling":
        tiles = [(t["A"], tuple(t["B"])) for t in data["tiles"]]
        return tiling_from_tiles(data["n"], tiles)


def _vertex_set(tiles: Iterable[tuple[int, tuple[int, int]]]) -> frozenset[int]:
    """Vertices of (offset mask, pair) tiles as subset masks: A <= S <= A|B."""
    verts = set()
    add = verts.add
    for mask, (i, j) in tiles:
        bi = 1 << (i - 1)
        bj = 1 << (j - 1)
        add(mask)
        add(mask | bi)
        add(mask | bj)
        add(mask | bi | bj)
    return frozenset(verts)


def tiling_from_tiles(n: int, tiles: Iterable[tuple[Iterable[int], tuple[int, int]]]) -> Tiling:
    """Assemble a Tiling from (offset, pair) items; every pair exactly once."""
    offsets: list[int | None] = [None] * num_pairs(n)
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
    return Tiling(n, tuple(offsets))  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# regular tilings from height vectors

def tiling_from_heights(config: PointConfig, heights: Sequence[int | str | Fraction]) -> Tiling:
    """Project the upper boundary of the lifted zonotope for heights h.

    For each pair i < j the offset collects the points lying strictly above
    the chord through (a_i, h_i) and (a_j, h_j); a point exactly on a chord
    means h is not generic and raises NonGenericHeightError.  The resulting
    tiling satisfies orientation_of(result) == sigma_h(config, h).

    Point m lies above the chord exactly when
    h_m (a_j - a_i) > h_i (a_j - a_m) + h_j (a_m - a_i), since a_j > a_i.
    Scaling the coordinates and the heights by positive integers keeps the
    sign of both sides' difference, so the test runs on integers.
    """
    h = as_heights(config, heights)
    hscale = lcm(*(x.denominator for x in h))
    hs = [x.numerator * (hscale // x.denominator) for x in h]
    _, a = integer_coords(config)
    n = config.n
    offsets = []
    for i, j in colex_pairs(n):
        ai, aj = a[i - 1], a[j - 1]
        hi, hj = hs[i - 1], hs[j - 1]
        span = aj - ai
        # above(m) = h_m*span - (h_i*(a_j - a_m) + h_j*(a_m - a_i)), expanded
        tilt = hi - hj
        base = hj * ai - hi * aj
        mask = 0
        for m in range(n):
            if m == i - 1 or m == j - 1:
                continue
            above = hs[m] * span + tilt * a[m] + base
            if above == 0:
                raise NonGenericHeightError(tuple(sorted((i, m + 1, j))))
            if above > 0:
                mask |= 1 << m
        offsets.append(mask)
    return Tiling(n, tuple(offsets))


def extremal_heights(config: PointConfig, which: str) -> HeightVector:
    """Height vectors certifying the extremal tilings: +-a_i^2."""
    if which == "min":
        return tuple(a * a for a in config.coords)
    if which == "max":
        return tuple(-a * a for a in config.coords)
    raise ValueError("which must be 'min' or 'max'")


def extremal_tiling(config: PointConfig, which: str) -> Tiling:
    """The minimal (census ell+1) or maximal (census n-1-ell) tiling.

    Convex heights a_i^2 put every point outside a chord's span strictly
    above it, so the pair (i, j) gets offset [n] \\ [i..j]; that produces
    the ell+1 offset-size census identifying the minimal tiling.  The census
    is asserted so a convention drift would fail loudly.
    """
    tiling = tiling_from_heights(config, extremal_heights(config, which))
    census = tiling.offset_size_census()
    n = config.n
    if which == "min":
        expected = tuple(ell + 1 for ell in range(n - 1))
    else:
        expected = tuple(n - 1 - ell for ell in range(n - 1))
    if census != expected:
        raise AssertionError(f"extremal census mismatch: {census} != {expected}")
    return tiling


# ---------------------------------------------------------------------------
# orientation

def orientation_of(tiling: Tiling) -> OrientationVector:
    """Circuit signs read off the offsets: +1 iff q misses the {p, r} tile."""
    signs = []
    for p, q, r in colex_triples(tiling.n):
        mask = tiling.offset_mask(p, r)
        signs.append(-1 if (mask >> (q - 1)) & 1 else 1)
    return OrientationVector.from_signs(signs)


@lru_cache(maxsize=None)
def _toggle_tables(n: int) -> tuple[int, tuple[tuple[int, ...], ...], int, int]:
    """Packed offsets of the minimal tiling, and per key byte the XOR of its bits' toggles.

    Offsets are packed little-endian, ``width`` bytes per pair in colex
    order.  The minimal tiling gives the pair (i, j) the offset [n] \\ [i..j].
    """
    width = (n + 7) // 8
    shift = 8 * width
    packed = 0
    for rank, (i, j) in enumerate(colex_pairs(n)):
        packed |= (full_mask(n) ^ full_mask(j) ^ full_mask(i - 1)) << (shift * rank)
    toggles = [
        (1 << (q - 1) << (shift * pair_rank(p, r)))
        | (1 << (p - 1) << (shift * pair_rank(q, r)))
        | (1 << (r - 1) << (shift * pair_rank(p, q)))
        for p, q, r in colex_triples(n)
    ]
    # distinct circuits toggle distinct offset bits, so OR-ing toggles XORs them
    return packed, byte_tables(toggles), width, len(toggles)


def tiling_of_orientation(n: int, bits: int) -> Tiling:
    """The tiling with orientation key ``bits``: the inverse of orientation_of.

    Starts from the minimal tiling (key 0) and XORs in, a key byte at a
    time, the offset toggles of every set bit.  A key that orients no tiling
    yields offsets that form no tiling.
    """
    packed, tables, width, count = _toggle_tables(n)
    if bits < 0 or bits >> count:
        raise ValueError(f"key {bits:#x} does not fit {count} circuits")
    for table in tables:
        packed ^= table[bits & 255]
        bits >>= 8
    raw = packed.to_bytes(width * num_pairs(n), "little")
    if width == 1:  # n <= 8: one byte per offset
        return Tiling(n, tuple(raw))
    return Tiling(
        n, tuple(int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width))
    )


@lru_cache(maxsize=None)
def _size_tables(n: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Packed offset sizes of the minimal tiling, and per key byte the sum of its bits' changes.

    Sizes are packed little-endian, one byte per pair in colex order.  Point
    m is in the offset of the pair (i, j) when m < i and {m, i, j} is
    oriented +1, when m > j and {i, j, m} is, or when i < m < j and
    {i, m, j} is oriented -1.  The minimal tiling orients every circuit +1,
    so its size is n - (j - i + 1), and setting the bit of (p, q, r) adds 1
    to the size of (p, r) and takes 1 from those of (q, r) and (p, q).
    """
    base = sum((n - (j - i + 1)) << (8 * rank) for rank, (i, j) in enumerate(colex_pairs(n)))
    changes = [
        (1 << 8 * pair_rank(p, r)) - (1 << 8 * pair_rank(q, r)) - (1 << 8 * pair_rank(p, q))
        for p, q, r in colex_triples(n)
    ]
    return base, byte_tables(changes, add)


def offset_sizes(n: int, bits: int) -> bytes:
    """The offset size of each pair's tile, in colex order, read off the key alone.

    Each size is n - (j - i + 1) + popcount(key & P_ij) - popcount(key & M_ij),
    with P_ij the circuits (i, m, j) and M_ij the circuits (m, i, j), m < i,
    and (i, j, m), m > j; byte tables add up the changes of a key byte's
    bits, so every size comes out of one packed sum.
    """
    packed, tables = _size_tables(n)
    for table, byte in zip(tables, bits.to_bytes(len(tables), "little")):
        packed += table[byte]
    return packed.to_bytes(num_pairs(n), "little")


# ---------------------------------------------------------------------------
# SVG rendering (presentation only; coordinates leave the exact layer here)

_LEVEL_FILLS = (
    "#cfe8ff", "#ffe3c2", "#d8f5d0", "#f5d0e8", "#fff3b0",
    "#d0ecf5", "#e8d5ff", "#ffd5d0", "#d5ffe8", "#f0e0c0",
)


def tiling_to_svg(config: PointConfig, tiling: Tiling, scale: float = 40.0) -> str:
    """Draw each tile as the parallelogram anchored at (sum_A a_m, |A|)."""
    polygons = []
    xs: list[float] = []
    ys: list[float] = []
    for (i, j), mask in zip(colex_pairs(config.n), tiling.offsets):
        ax = float(sum(config.coord(m) for m in mask_points(mask)))
        ay = float(mask.bit_count())
        vi = (float(config.coord(i)), 1.0)
        vj = (float(config.coord(j)), 1.0)
        corners = [
            (ax, ay),
            (ax + vi[0], ay + vi[1]),
            (ax + vi[0] + vj[0], ay + vi[1] + vj[1]),
            (ax + vj[0], ay + vj[1]),
        ]
        xs.extend(c[0] for c in corners)
        ys.extend(c[1] for c in corners)
        polygons.append((corners, mask.bit_count(), (i, j)))

    pad = 0.5
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    width = (x1 - x0) * scale
    height = (y1 - y0) * scale

    def sx(x: float) -> float:
        return (x - x0) * scale

    def sy(y: float) -> float:
        return (y1 - y) * scale  # flip: svg y axis points down

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.2f} {height:.2f}">'
    ]
    for corners, level, pair in polygons:
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in corners)
        fill = _LEVEL_FILLS[level % len(_LEVEL_FILLS)]
        parts.append(
            f'<polygon points="{pts}" fill="{fill}" stroke="black" '
            f'stroke-width="1"><title>B={pair}</title></polygon>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
