"""Orientation keys decoded to tile offsets, and SVG.

A fine tiling of the zonotope of n lifted vectors uses exactly one
parallelogram tile per basis pair B = {i, j}: the tile with offset set A is
anchored at (sum_{m in A} a_m, |A|) and spanned by v_i and v_j.  The package
holds a tiling only as its orientation key; ``key_offsets`` decodes a key to
the pair-indexed offset bitmasks.

Orientation convention.  For the circuit p < q < r, the tiling orients the
circuit +1 exactly when q is missing from the offset of the B = {p, r} tile.
The minimal tiling (convex heights, offset-size census ell+1) orients every
circuit +1, so its key is 0; the maximal tiling (concave heights, census
n-1-ell) orients every circuit -1, so its key has all C(n,3) bits set.  A
*raising* flip toggles one circuit from +1 to -1, i.e. walks from the
minimal toward the maximal tiling and increases the inversion count of the
orientation vector by one.

A tiling is fixed by its orientation key.  Whatever its offset A, the flip
along (p, q, r) toggles q in the {p, r} offset, p in the {q, r} offset and r
in the {p, q} offset, so ``key_offsets`` rebuilds the offsets as the minimal
tiling's XOR that toggle for every set bit of the key.  Every offset size
the package reads, in the potentials' census and in ``vert_k``, is a
popcount of these decoded offsets.

``tests/tile_oracle.py`` keeps the tile route, a ``Tiling`` of offsets with
its flips, heights, orientations and audit, as the reference for the key
route.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .core import (
    PointConfig,
    byte_tables,
    colex_pairs,
    colex_triples,
    full_mask,
    mask_points,
    num_pairs,
    pair_rank,
)


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


def key_offsets(n: int, bits: int) -> tuple[int, ...]:
    """Each pair's offset mask, in colex order, of the tiling with orientation key ``bits``.

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
        return tuple(raw)
    return tuple(int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width))


# ---------------------------------------------------------------------------
# SVG rendering (presentation only; coordinates leave the exact layer here)

_LEVEL_FILLS = (
    "#cfe8ff", "#ffe3c2", "#d8f5d0", "#f5d0e8", "#fff3b0",
    "#d0ecf5", "#e8d5ff", "#ffd5d0", "#d5ffe8", "#f0e0c0",
)


def tiling_to_svg(config: PointConfig, offsets: Sequence[int], scale: float = 40.0) -> str:
    """Draw each tile, given its offset per pair in colex order, as the
    parallelogram anchored at (sum_A a_m, |A|)."""
    polygons = []
    xs: list[float] = []
    ys: list[float] = []
    for (i, j), mask in zip(colex_pairs(config.n), offsets):
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
