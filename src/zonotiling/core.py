"""Exact rational point configurations, circuits, and orientation maps.

The engine works over n distinct rational points a_1 < ... < a_n on a line,
lifted to the plane vectors v_i = (a_i, 1).  Because the points are distinct,
every minimal linear dependence among the lifted vectors involves exactly
three of them: for p < q < r the coefficients

    alpha = (a_r - a_q,  a_p - a_r,  a_q - a_p)      at positions p, q, r

are (+, -, +), sum to zero, and satisfy sum(alpha_i * a_i) = 0.  A circuit
stores this normalized dependence, so circuits compare and serialize
identically across runs.  Downstream code identifies a tiling by the vector
of its circuit orientation signs.

All arithmetic is exact (fractions.Fraction); no floats appear anywhere in
the combinatorial layer.  Subsets of [n] travel as bitmasks where bit m-1
encodes membership of the 1-based point m.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, lcm
from operator import or_
from typing import Callable, Iterable, Iterator, Sequence

Rational = Fraction
HeightVector = tuple[Fraction, ...]


class Finding(RuntimeError):
    """An empirical observation contradicting an expected structural fact.

    Raised instead of a plain assertion so callers (CLI, experiment
    drivers) can record the event as a finding rather than crash.
    """


class NonGenericHeightError(ValueError):
    """A height vector lies on the dependence hyperplane of some circuit."""

    def __init__(self, triple: tuple[int, int, int]):
        self.triple = triple
        super().__init__(
            f"height vector is not generic: <h, alpha> = 0 on circuit {triple}"
        )


# ---------------------------------------------------------------------------
# rationals

def to_rational(value: int | str | Fraction) -> Fraction:
    """Coerce ints, Fractions, and 'p/q' / 'p' strings to an exact rational.

    Floats are rejected on purpose: every quantity in the engine must be
    exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"coordinate {text!r} has a zero denominator") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_rational(value: Fraction) -> str:
    """Render a rational as 'p/q', or plain 'p' for integers."""
    return str(value)


# ---------------------------------------------------------------------------
# bitmask subsets of [n]  (bit m-1  <=>  point m)

def mask_from(points: Iterable[int]) -> int:
    mask = 0
    for m in points:
        mask |= 1 << (m - 1)
    return mask


def mask_points(mask: int) -> tuple[int, ...]:
    """Members of a subset mask in increasing order, 1-based."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def full_mask(n: int) -> int:
    return (1 << n) - 1


def byte_tables(
    images: Sequence[int], combine: Callable[[int, int], int] = or_
) -> tuple[tuple[int, ...], ...]:
    """Per byte of a bitvector, the OR (or ``combine``) of the images of its set bits.

    Bit b of the input maps to ``images[b]``; table ``i`` covers bits
    8i .. 8i+7, so the image of a whole bitvector is the OR of one table
    entry per byte (the sum, with ``combine=add``).
    """
    tables = []
    for first in range(0, len(images), 8):
        chunk = images[first:first + 8]
        table = [0] * (1 << len(chunk))
        for byte in range(1, len(table)):
            low = byte & -byte
            table[byte] = combine(table[byte ^ low], chunk[low.bit_length() - 1])
        tables.append(tuple(table))
    return tuple(tables)


# ---------------------------------------------------------------------------
# bit-sliced keys: one byte per key, one int per key bit

# Keys per chunk of ``key_columns``; each column of a chunk takes this many bytes.
_KEY_CHUNK = 4096

# _BIT_PLANES[t] maps a byte to its bit t
_BIT_PLANES = tuple(bytes(byte >> t & 1 for byte in range(256)) for t in range(8))


def key_columns(keys: Sequence[int], count: int) -> Iterator[tuple[int, int, list[int]]]:
    """The low ``count`` bits of the keys, transposed a chunk of keys at a time.

    Yields (size, ones, columns) per chunk of at most ``_KEY_CHUNK`` keys,
    in order.  Column c holds bit c of the chunk's j-th key in its byte j,
    and ``ones`` holds 1 in each of the chunk's ``size`` bytes, so
    ``ones ^ column`` is the byte-wise complement, and a sum of fewer than
    256 columns keeps every byte's count inside its byte.  A boolean
    formula on columns thus evaluates for every key of the chunk at once.
    """
    width = (count + 7) // 8
    for first in range(0, len(keys), _KEY_CHUNK):
        chunk = keys[first:first + _KEY_CHUNK]
        data = b"".join([key.to_bytes(width, "little") for key in chunk])
        rows = [data[byte::width] for byte in range(width)]  # byte b of every key
        columns = [
            int.from_bytes(rows[c >> 3].translate(_BIT_PLANES[c & 7]), "little")
            for c in range(count)
        ]
        yield len(chunk), int.from_bytes(b"\1" * len(chunk), "little"), columns


def node_rows(columns: Sequence[int], size: int) -> bytes:
    """Byte columns of ``size`` keys back as one row of len(columns) bytes per key.

    Byte j of column c lands at j * len(columns) + c; every byte of a
    column must be below 256.
    """
    stride = len(columns)
    rows = bytearray(size * stride)
    for c, column in enumerate(columns):
        rows[c::stride] = column.to_bytes(size, "little")
    return bytes(rows)


# ---------------------------------------------------------------------------
# colexicographic pair/triple indexing

@lru_cache(maxsize=None)
def colex_pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for j in range(2, n + 1) for i in range(1, j))


@lru_cache(maxsize=None)
def colex_triples(n: int) -> tuple[tuple[int, int, int], ...]:
    return tuple(
        (p, q, r)
        for r in range(3, n + 1)
        for q in range(2, r)
        for p in range(1, q)
    )


def pair_rank(i: int, j: int) -> int:
    """Colex rank of the pair i < j among all pairs, 0-based."""
    return (j - 1) * (j - 2) // 2 + (i - 1)


def triple_rank(p: int, q: int, r: int) -> int:
    """Colex rank of the triple p < q < r among all triples, 0-based."""
    return comb(r - 1, 3) + comb(q - 1, 2) + (p - 1)


def num_pairs(n: int) -> int:
    return comb(n, 2)


def num_triples(n: int) -> int:
    return comb(n, 3)


# ---------------------------------------------------------------------------
# point configurations

@dataclass(frozen=True)
class PointConfig:
    """n strictly increasing exact rational coordinates on a line."""

    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coords) < 2:
            raise ValueError("a point configuration needs at least 2 points")
        for a, b in zip(self.coords, self.coords[1:]):
            if a == b:
                raise ValueError(f"duplicate coordinate {a}: points must be distinct")
            if a > b:
                raise ValueError("coordinates must be strictly increasing")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The coordinates' hash, taken once: the tables cached per
        configuration are looked up by it for every LP."""
        return hash(self.coords)

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def lift(self) -> tuple[tuple[Fraction, int], ...]:
        """Lifted vectors v_i = (a_i, 1)."""
        return tuple((a, 1) for a in self.coords)

    def coord(self, i: int) -> Fraction:
        """Coordinate of the 1-based point i."""
        return self.coords[i - 1]

    def to_json(self) -> dict:
        """The header every JSON artifact but the oracle's carries."""
        return {"n": self.n, "points": [format_rational(a) for a in self.coords]}


def make_config(coords: Iterable[int | str | Fraction]) -> PointConfig:
    """Build a PointConfig from ints, Fractions, or 'p/q' strings."""
    return PointConfig(tuple(to_rational(c) for c in coords))


def standard_config(n: int) -> PointConfig:
    """The default configuration a_i = i."""
    return make_config(range(1, n + 1))


@lru_cache(maxsize=None)
def integer_coords(config: PointConfig) -> tuple[int, tuple[int, ...]]:
    """(scale, coordinates times scale), scale the lcm of their denominators.

    Every integer computation on a configuration runs on these coordinates.
    """
    scale = lcm(*(a.denominator for a in config.coords))
    return scale, tuple(a.numerator * (scale // a.denominator) for a in config.coords)


# ---------------------------------------------------------------------------
# circuits

@dataclass(frozen=True)
class Circuit:
    """Signed minimal dependence on the lifted vectors v_p, v_q, v_r.

    The positive part is {p, r}, the negative part {q}, and alpha holds the
    dependence coefficients at positions (p, q, r).
    """

    p: int
    q: int
    r: int
    alpha: tuple[Fraction, Fraction, Fraction]

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.p, self.q, self.r)

    @property
    def positive(self) -> tuple[int, int]:
        return (self.p, self.r)

    @property
    def negative(self) -> tuple[int]:
        return (self.q,)

    @property
    def rank(self) -> int:
        return triple_rank(self.p, self.q, self.r)

    def dot(self, heights: Sequence[Fraction]) -> Fraction:
        """<h, alpha(C)> for a full-length height vector."""
        ap, aq, ar = self.alpha
        return ap * heights[self.p - 1] + aq * heights[self.q - 1] + ar * heights[self.r - 1]


@lru_cache(maxsize=None)
def circuits(config: PointConfig) -> tuple[Circuit, ...]:
    """All circuits of the configuration in colexicographic triple order."""
    out = []
    for p, q, r in colex_triples(config.n):
        out.append(circuit_for(config, p, q, r))
    return tuple(out)


def circuit_for(config: PointConfig, p: int, q: int, r: int) -> Circuit:
    a = config.coords
    alpha = (a[r - 1] - a[q - 1], a[p - 1] - a[r - 1], a[q - 1] - a[p - 1])
    return Circuit(p, q, r, alpha)


# ---------------------------------------------------------------------------
# orientation vectors

@dataclass(frozen=True)
class OrientationVector:
    """One sign per circuit, packed into an integer bitvector.

    Bit c (colex rank of the circuit) is set iff the circuit is oriented
    -1.  The minimal tiling orients every circuit +1, so its vector is the
    all-zero word and ``inversions()`` counts the flips away from it.
    """

    count: int
    bits: int

    def __post_init__(self) -> None:
        if self.bits < 0 or self.bits >> self.count:
            raise ValueError("orientation bits out of range for circuit count")

    @classmethod
    def from_signs(cls, signs: Iterable[int]) -> "OrientationVector":
        bits = 0
        count = 0
        for s in signs:
            if s == -1:
                bits |= 1 << count
            elif s != 1:
                raise ValueError(f"orientation sign must be +1 or -1, got {s}")
            count += 1
        return cls(count, bits)

    def sign(self, rank: int) -> int:
        if not 0 <= rank < self.count:
            raise IndexError("circuit rank out of range")
        return -1 if (self.bits >> rank) & 1 else 1

    def signs(self) -> Iterator[int]:
        for c in range(self.count):
            yield -1 if (self.bits >> c) & 1 else 1

    def negated(self) -> "OrientationVector":
        return OrientationVector(self.count, self.bits ^ full_mask(self.count))

    def inversions(self) -> int:
        """Number of circuits oriented -1 (distance rank from the minimum)."""
        return self.bits.bit_count()

    def to_hex(self) -> str:
        width = max(1, (self.count + 3) // 4)
        return format(self.bits, f"0{width}x")

    def __len__(self) -> int:
        return self.count


def sigma_h(config: PointConfig, heights: Sequence[int | str | Fraction]) -> OrientationVector:
    """Orientation sign of every circuit under a generic height vector.

    The sign on circuit C is the sign of <h, alpha(C)>.  Raises
    NonGenericHeightError naming the offending circuit if some dot product
    vanishes.
    """
    h = as_heights(config, heights)
    signs = []
    for c in circuits(config):
        d = c.dot(h)
        if d == 0:
            raise NonGenericHeightError(c.triple)
        signs.append(1 if d > 0 else -1)
    return OrientationVector.from_signs(signs)


def as_heights(config: PointConfig, heights: Sequence[int | str | Fraction]) -> HeightVector:
    if len(heights) != config.n:
        raise ValueError(f"expected {config.n} heights, got {len(heights)}")
    return tuple(to_rational(x) for x in heights)
