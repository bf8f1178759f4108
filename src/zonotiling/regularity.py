"""Exact regularity classification with height-vector certificates.

A tiling is regular when some height vector h realizes every circuit sign:
sign <h, alpha(C)> = sigma_T(C) for all circuits.  The sign system is
invariant under h -> h + c*1 + d*a, so we gauge-fix h_1 = h_2 = 0, box the
remaining heights into [-1, 1], and maximize the uniform slack t subject to

    sigma_T(C) * <h, alpha(C)>  >=  t        for every circuit,
    t <= 1.

The tiling is regular exactly when the optimum is positive; the optimal h
is the witness, and before the verdict is returned ``_realizes`` checks on
integers that it gives every circuit a nonzero sign equal to the circuit's
bit of the tiling's orientation key.  Strict-inequality feasibility leaves
no room for rounding, so the solver is an exact simplex.  Writing
h = w+ - w- with w+, w- in [0, 1] makes the origin a basic feasible point,
so no feasibility phase is needed.

The simplex works on integers only.  Each constraint row is scaled by a
positive integer so that its entries are integral.  Pivoting is
fraction-free (Bareiss): after every pivot the tableau equals
det(B) * B^-1 [A | b] for the current basis B, each update divides exactly
by the previous pivot, and no rational is formed until the optimum is read
off.  The tableau is condensed to the non-basic columns plus b,
m x (nv + 1), instead of also carrying the m columns of the basic
variables, which are always det(B) times a unit vector.  A pivot on row l
and non-basic column s swaps the entering and leaving variables, and column
s takes the leaving variable's column, -T[i][s] off the pivot row and det on
it.

Each tableau column is packed into one Python int of m signed fields, W
bits apart: C_j = sum_r T[r][j] << (r * W).  Packing is linear, so a pivot
updates a whole column with one big-int expression,
(piv * C_j - p_j * C_s) // det with p_j = T[l][j], whose field l is 0 and
gets p_j back, since the pivot row does not change; column s becomes -C_s
with det in field l.  That is nv + 1 updates per pivot, however many rows
there are.  The division is exact on the packed int because it is exact on
every field: the packed numerator is det times the packed quotient, whatever
carries its fields make on the way.  Only the results must fit.  Every
tableau entry is, up to sign, a minor of [A | b] with at most
min(m, nv + 1) rows, so by Hadamard's inequality it is bounded by the
product of the min(m, nv + 1) largest row norms, each taken as at least 1
so that zero rows and short LPs cannot shrink the bound.  W is that bound's
bit length plus 2: one bit for the sign and one to spare, so every field
holds |v| < 2^(W-2).  The objective row stays a list of ints.

The ratio test reads every row at once, with masks over the fields (SWAR).
Adding the bias TOPS = sum_r 2^(W-1) << (r * W), the top bit of every
field, turns each field v into v + 2^(W-1), which the spare bit keeps
strictly between 2^(W-2) and 3 * 2^(W-2); so the fields of a biased column
are its entries' biased values, and no mask step below borrows from or
carries into a neighbouring field.  With ONES the lowest bit of every field
and LOW = TOPS - ONES its low W - 1 bits:

    ((C_s + TOPS) - ONES) & TOPS   has field r's top bit set iff T[r][s] > 0,
    z = (C_b + TOPS) ^ TOPS        holds b_r in field r (b is never negative),
    (z | ((z & LOW) + LOW)) & TOPS has field r's top bit set iff b_r != 0.

Single fields are read back by shifting and masking the biased column.  The
pivot rules are those of the unpacked tableau: Bland's entering rule on the
*original* variable index of each non-basic column, then the least ratio
b_r / T[r][s] over the rows with T[r][s] > 0, ties to the lowest basis
index.  When some such row has b_r = 0 every least ratio is 0, so the
leaving row is the lowest basis index among those rows, read off the masks
alone; otherwise the candidates' ratios are compared exactly by
cross-multiplication.  Positive row scaling changes neither B^-1 b nor the
reduced costs' signs, and the masks and fields read exactly what the
unpacked tableau holds, so the pivots, the optimal vertex, the witness and
the slack are exactly those of the uncondensed tableau over the unscaled
rows.

The slack LP's columns are built per key from tables made once per
configuration (``_slack_lp``).  Only the w+_i columns depend on the key;
on the circuit rows w-_i is their negation, t is the constant scale and b
is 0, and the bound rows are constants.  The structure gives a tighter
bound than the generic one, the same for every key, so one field width
serves every tiling of a configuration.

Negating the heights swaps upper and lower faces, so the half-turn image of
a tiling, whose key is the complement, has the same verdict, certified by
the negated witness.  Its slack LP is this one with every w+_i swapped with
its w-_i, so the optimum is the same and (-h, t) is an optimal point of it.
``graph_certificates`` therefore solves one LP per half-turn pair, 454 at
n = 6 and 12,349 at n = 7 on a_i = i, and gives the mirror node the
negated witness and the same slack; ``_mirror`` checks on integers that the
negated heights realize the mirror's key when the LP is solved.  That this
is also the optimum the mirror's own simplex run reaches is checked, not
proven: the tests compare every certificate with its own LP at n <= 6, and
pin the n = 7 artifact.

``regular_set`` decides the regular nodes of a whole flip graph with few LPs.
A flip toggles one circuit, so a certified neighbour's witness pushed just
across that circuit's hyperplane often certifies the node, once an exact
integer sign check accepts it; the LP decides the rest, and every verdict
decides the half-turn image too.  A node whose LP verdict the graph stores
already, say after ``graph_certificates``, takes it and is not probed.

Each node's slack LP is solved at most once per graph, which stores the
verdict of each first-half id whose LP was solved, in integers: (h, det,
value) with h None when irregular.  A probe's witness is never stored, so
``graph_certificates`` gives the same bytes whichever pass ran first.  Each
pass counts in an ``LpWork`` the LPs it solved, those it read back, and the
solved ones' simplex pivots.  ``graph_certificates`` formats each node's
JSON entry straight from the stored integers as the artifact is written,
every rational as the gcd-reduced p/q (or p) that ``str(Fraction)``
gives, with no ``Fraction`` per node; only ``classify_orientation`` turns
a verdict into a ``RegularityCertificate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, prod
from operator import add
from typing import Iterator, NamedTuple, Sequence

from .core import (
    HeightVector,
    PointConfig,
    byte_tables,
    colex_triples,
    format_rational,
    integer_coords,
)


class SimplexError(RuntimeError):
    pass


def _pack(values: Sequence[int], width: int) -> int:
    """One int holding values[i] in the signed field i of the given width."""
    return sum(v << (i * width) for i, v in enumerate(values))


def _maximize(
    obj: list[int], cols: list[int], m: int, width: int
) -> tuple[list[int], int, int, int] | None:
    """Maximize c.x subject to A.x <= b, x >= 0 on integer data, b >= 0.

    ``cols[j]`` is column j of the m x (nv + 1) matrix [A | b], packed by
    ``_pack`` into m fields ``width`` bits wide, which must hold every
    tableau entry with a bit to spare (see the module docstring); ``obj``
    is c followed by 0, as a list.  ``cols`` and ``obj`` are updated in
    place.  Returns None when the LP is unbounded, otherwise
    (x, value, det, pivots) with the optimum at x_i = x[i] / det,
    c.x = value / det, after ``pivots`` pivots.

    Each pivot finds the rows with a positive entry in column s, and among
    them those with b = 0, with the two masks of the module docstring; it
    reads single fields only for the pivot row, and for the candidates'
    ratios when no candidate has b = 0.  It then updates each column with
    one exact big-int Bareiss step.  Bland's entering rule plus a
    lowest-basis-index tie break keeps the walk finite and deterministic;
    the masks and fields read exactly what the unpacked tableau holds, so
    the pivots are those of the unpacked tableau.
    """
    nv = len(obj) - 1
    ones = ((1 << (m * width)) - 1) // ((1 << width) - 1)  # lowest bit of every field
    tops = ones << (width - 1)  # top bit of every field, and the bias
    low = tops - ones
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    nonbasic = list(range(nv))  # original variable index of each column
    basis = list(range(nv, nv + m))  # slack r starts basic in row r
    det = 1
    pivots = 0
    while True:
        s = -1
        for j in range(nv):
            if obj[j] > 0 and (s < 0 or nonbasic[j] < nonbasic[s]):
                s = j
        if s < 0:
            break
        pcol = cols[s]
        biased = pcol + tops
        positive = (biased - ones) & tops
        if not positive:
            return None
        rhs = cols[nv] + tops
        z = rhs ^ tops
        degenerate = positive & ~(z | ((z & low) + low))
        leave = -1
        if degenerate:
            # every least ratio is 0: the lowest basis index among them leaves
            while degenerate:
                bit = degenerate & -degenerate
                degenerate ^= bit
                r = bit.bit_length() // width - 1
                if leave < 0 or basis[r] < basis[leave]:
                    leave = r
            shift = leave * width
            piv = (biased >> shift & mask) - half
        else:
            while positive:
                bit = positive & -positive
                positive ^= bit
                r = bit.bit_length() // width - 1
                shift = r * width
                a = (biased >> shift & mask) - half
                b = (rhs >> shift & mask) - half
                if leave < 0:
                    leave, piv, pb = r, a, b
                else:
                    diff = b * piv - pb * a
                    if diff < 0 or (diff == 0 and basis[r] < basis[leave]):
                        leave, piv, pb = r, a, b
            shift = leave * width
        a = obj[s]
        for j in range(nv + 1):
            if j != s:
                col = cols[j]
                p = ((col + tops) >> shift & mask) - half
                if p:
                    cols[j] = (piv * col - p * pcol) // det + (p << shift)
                    obj[j] = (piv * obj[j] - a * p) // det
                elif piv != det:
                    cols[j] = piv * col // det
                    obj[j] = piv * obj[j] // det
        cols[s] = ((det + piv) << shift) - pcol
        obj[s] = -a
        nonbasic[s], basis[leave] = basis[leave], nonbasic[s]
        det = piv
        pivots += 1

    x = [0] * nv
    rhs = cols[nv] + tops
    for r, b in enumerate(basis):
        if b < nv:
            x[b] = (rhs >> (r * width) & mask) - half
    return x, -obj[nv], det, pivots


# ---------------------------------------------------------------------------
# regularity certificates

@dataclass(frozen=True)
class RegularityCertificate:
    regular: bool
    witness: HeightVector | None
    slack: Fraction

    def to_json(self) -> dict:
        out: dict = {"regular": self.regular}
        if self.witness is not None:
            out["h"] = [format_rational(h) for h in self.witness]
            out["slack"] = format_rational(self.slack)
        return out


_IRREGULAR = RegularityCertificate(False, None, Fraction(0))


@lru_cache(maxsize=None)
def _integer_circuits(config: PointConfig) -> tuple[tuple[int, int, int, int, int, int], ...]:
    """(p, q, r, alpha) of every circuit in rank order: points 0-based, alpha
    on the integer coordinates of ``integer_coords``."""
    _, a = integer_coords(config)
    return tuple(
        (p - 1, q - 1, r - 1, a[r - 1] - a[q - 1], a[p - 1] - a[r - 1], a[q - 1] - a[p - 1])
        for p, q, r in colex_triples(config.n)
    )


def _realizes(h: Sequence[int], key: int, table) -> bool:
    """Does h give every circuit a nonzero sign, and exactly the signs of key?"""
    for p, q, r, ap, aq, ar in table:
        d = ap * h[p] + aq * h[q] + ar * h[r]
        if d == 0 or (d < 0) != (key & 1):
            return False
        key >>= 1
    return True


class _SlackLP(NamedTuple):
    """The slack LP of one configuration, packed by columns; see ``_slack_lp``."""

    plus: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]  # per w+_i: key-0 column, byte tables
    pairs: tuple[int, ...]  # per i: the bound-row fields of w+_i and w-_i together
    t: int
    b: int
    rows: int
    width: int

    def columns(self, key: int) -> list[int]:
        """The packed columns w+_3 .. w+_n, w-_3 .. w-_n, t, b for the tiling of key."""
        data = key.to_bytes(len(self.plus[0][1]), "little") if self.plus else b""
        plus = [base + sum(map(tuple.__getitem__, tables, data)) for base, tables in self.plus]
        minus = [both - col for both, col in zip(self.pairs, plus)]
        return plus + minus + [self.t, self.b]


@lru_cache(maxsize=None)
def _slack_lp(config: PointConfig) -> _SlackLP:
    """The slack LP's packed columns, as tables built once per configuration.

    Columns are w+_i, w-_i for i = 3..n (h_i = w+_i - w-_i), then t, then
    the right-hand side b.  Rows are the circuits in rank order, on the
    scaled alpha of ``_integer_circuits``, then the bound rows w+_i, w-_i,
    t <= 1.  Circuit c's row under sign +1 holds -alpha_i in w+_i, alpha_i
    in w-_i, scale in t and 0 in b; under sign -1 (bit c of the key set) its
    w+ and w- entries are negated.  So column w+_i is its key-0 column plus
    2 * alpha_i in field c for each set bit c, summed from one byte table per
    key byte; w-_i is minus its circuit fields; t and b are the same for
    every key.

    The field width is one for every tiling of the configuration and
    tighter than the generic bound.  Every tableau entry is, up to sign, a
    minor of [A | b].  Column b is zero on the circuit rows and 1 on the nv
    bound rows, so a minor through it expands into at most nv minors of A.
    A bound row is a unit row, so expanding along it costs a factor of +-1.
    What is left is a minor of circuit rows only, and on those the column of
    w-_i is minus that of w+_i, so a nonzero one keeps at most one of each
    pair: at most k + 1 columns (h_3..h_n and t) and so at most k + 1 rows.
    With N_c = scale^2 + sum over points i >= 3 of (scale * alpha_i)^2, the
    squared norm of circuit c's row on those columns under either sign,
    Hadamard's inequality bounds every entry by
    nv * isqrt(product of the k + 1 largest N_c).  W is that bound's bit
    length plus 2, as for the generic bound.
    """
    k = config.n - 2
    nv = 2 * k + 1
    scale, _ = integer_coords(config)
    circuits = _integer_circuits(config)
    count = len(circuits)
    alphas = [[0] * k for _ in circuits]  # alphas[c][i]: alpha of point i + 3 in circuit c
    for row, (p, q, r, *alpha) in zip(alphas, circuits):
        for point, v in zip((p, q, r), alpha):
            if point >= 2:  # 0-based; h_1 = h_2 = 0 have no column
                row[point - 2] = v
    norms = sorted((scale * scale + sum(v * v for v in row) for row in alphas), reverse=True)
    width = (nv * isqrt(prod(norms[: k + 1]))).bit_length() + 2

    def bound(j: int) -> int:
        return 1 << ((count + j) * width)

    plus = []
    for i in range(k):
        column = [row[i] for row in alphas]
        base = _pack([-v for v in column], width) + bound(i)
        flips = [2 * v << (c * width) for c, v in enumerate(column)]
        plus.append((base, byte_tables(flips, add)))
    return _SlackLP(
        plus=tuple(plus),
        pairs=tuple(bound(i) + bound(k + i) for i in range(k)),
        t=_pack([scale] * count, width) + bound(2 * k),
        b=sum(bound(j) for j in range(nv)),
        rows=count + nv,
        width=width,
    )


def _certify(config: PointConfig, key: int) -> tuple[tuple[int, ...] | None, int, int, int]:
    """The slack LP of key, solved: (h, det, value, pivots).  The slack is
    value / det, det > 0, and the witness h / det, once ``_realizes`` accepts
    the integer heights h; h is None when the slack is not positive."""
    table = _integer_circuits(config)
    if key < 0 or key >> len(table):
        raise ValueError(f"key {key:#x} does not fit {len(table)} circuits")
    lp = _slack_lp(config)
    k = config.n - 2
    objective = [0] * (2 * k + 2)
    objective[2 * k] = 1  # maximize t
    solved = _maximize(objective, lp.columns(key), lp.rows, lp.width)
    if solved is None:
        raise SimplexError("slack LP ended with status unbounded")
    x, value, det, pivots = solved
    if value <= 0:
        return None, det, value, pivots
    h = (0, 0, *(x[i] - x[k + i] for i in range(k)))
    if not _realizes(h, key, table):
        raise AssertionError(f"regularity witness does not realize key {key:#x}")
    return h, det, value, pivots


def classify_orientation(config: PointConfig, key: int) -> RegularityCertificate:
    """The regularity certificate of the tiling with orientation key ``key``.

    ``key`` is a ``FlipGraph`` key: bit c is set iff the circuit of rank c
    is oriented -1.  A positive slack optimum is returned only after
    ``_realizes`` accepts its integer heights, taken before the division by
    det > 0, which moves no sign.  Raises ValueError for a key outside
    0 .. 2**C(n,3) - 1, and AssertionError for a witness that fails.
    """
    h, det, value, _ = _certify(config, key)
    if h is None:
        return _IRREGULAR
    return RegularityCertificate(True, tuple(Fraction(x, det) for x in h), Fraction(value, det))


def _mirror(h: Sequence[int], image_key: int, table) -> tuple[int, ...]:
    """The half-turn image's witness: -h, once ``_realizes`` accepts it on the image's key."""
    image = tuple(-x for x in h)
    if not _realizes(image, image_key, table):
        raise AssertionError(f"negated witness does not realize key {image_key:#x}")
    return image


class LpWork:
    """Slack LPs one pass solved, those it read back from the graph, and the
    simplex pivots of the solved ones."""

    __slots__ = ("solved", "reused", "pivots")

    def __init__(self) -> None:
        self.solved = self.reused = self.pivots = 0


def _verdict(graph, v: int, work: LpWork) -> tuple[tuple[int, ...] | None, int, int]:
    """First-half node v's LP verdict (h, det, value), solved and stored on
    the graph once; ``_mirror`` checks -h on the mirror id then, so readers
    take -h unchecked."""
    store = graph.derived.setdefault("slack_lp", {})
    verdict = store.get(v)
    if verdict is not None:
        work.reused += 1
        return verdict
    keys = graph.keys
    h, det, value, pivots = _certify(graph.config, keys[v])
    if h is not None:
        _mirror(h, keys[len(keys) - 1 - v], _integer_circuits(graph.config))
    store[v] = verdict = (h, det, value)
    work.solved += 1
    work.pivots += pivots
    return verdict


def _rational(x: int, det: int) -> str:
    """``str(Fraction(x, det))`` for det > 0, without the Fraction."""
    g = gcd(x, det)
    return str(x // g) if g == det else f"{x // g}/{det // g}"


def _entry(h, det: int, value: int, sign: int = 1) -> dict:
    """The JSON entry of an LP verdict, with witness sign * h / det and slack
    value / det, as ``RegularityCertificate.to_json`` gives it."""
    if h is None:
        return {"regular": False}
    return {
        "h": [_rational(sign * x, det) for x in h],
        "regular": True,
        "slack": _rational(value, det),
    }


def graph_certificates(graph) -> tuple[Iterator[dict], int, LpWork]:
    """Every node's certificate entry in id order, the regular count, and
    the LP work, with one LP per half-turn pair.

    The first half of the ids, through the middle one, take their LP's
    verdict; the mirror id len(graph) - 1 - v takes it with the negated
    witness.  The LPs are solved, or read from the graph, before this
    returns; each entry is formatted from the stored integers as it is read.
    """
    work = LpWork()
    size = len(graph)
    for v in range((size + 1) // 2):
        _verdict(graph, v, work)
    store = graph.derived["slack_lp"]
    regular = sum(store[min(v, size - 1 - v)][0] is not None for v in range(size))
    entries = (
        _entry(*store[v]) if 2 * v < size else _entry(*store[size - 1 - v], -1)
        for v in range(size)
    )
    return entries, regular, work


# ---------------------------------------------------------------------------
# the regular set of a flip graph

# Factors 1 + eps, as (numerator, denominator), for eps = 1/8 and then 1:
# a probe replaces h by h - (1 + eps) (<h, alpha> / <alpha, alpha>) alpha.
_PUSHES = ((9, 8), (2, 1))


@dataclass(frozen=True)
class RegularSet:
    """The regular node ids, how many verdicts each route gave, and the LP work."""

    nodes: frozenset[int]
    by_lp: int
    by_probe: int
    by_half_turn: int
    lps: LpWork = field(compare=False)  # depends on what the graph already held


def _probe(h: tuple[int, ...], circuit, key: int, table) -> tuple[int, ...] | None:
    """A witness for key from h pushed across the circuit's hyperplane, or None.

    The push is scaled by den * <alpha, alpha> > 0 to stay integral, and an
    accepted witness is divided by its content, neither of which moves a sign.
    """
    p, q, r, ap, aq, ar = circuit
    d = ap * h[p] + aq * h[q] + ar * h[r]
    norm = ap * ap + aq * aq + ar * ar
    for num, den in _PUSHES:
        g = [den * norm * x for x in h]
        g[p] -= num * d * ap
        g[q] -= num * d * aq
        g[r] -= num * d * ar
        if _realizes(g, key, table):
            content = gcd(*g)
            return tuple(x // content for x in g)
    return None


def regular_set(graph) -> RegularSet:
    """The regular nodes of an enumerated flip graph, without an LP per node.

    Walks the first half of the ids, through the middle one.  A node whose
    LP verdict the graph stores takes it; any other node is first probed
    from the witness of each certified neighbour, and when no probe passes
    the exact sign check, its LP decides it, solved at most once per graph.
    Either way its half-turn image, the mirror id len(graph) - 1 - v, which
    the walk never reaches first, gets the same verdict: sigma_h(-h) is the
    complement key, so -h certifies the image, and an image of an irregular
    node is irregular.  Every regular verdict rests on an exact integer sign
    check of a witness (``_mirror`` checks the image's, once: for an LP
    verdict when the LP is solved), every irregular one on an exact LP.
    """
    table = _integer_circuits(graph.config)
    keys, ids, offsets = graph.keys, graph.nbr_ids, graph.offsets
    stored = graph.derived.setdefault("slack_lp", {})
    witness: list[tuple[int, ...] | None] = [None] * len(keys)
    work = LpWork()
    by_probe = 0
    for v in range((len(keys) + 1) // 2):
        key = keys[v]
        image = len(keys) - 1 - v
        h = None
        if v not in stored:  # a stored verdict decides v without a probe
            for u in ids[offsets[v]:offsets[v + 1]]:
                if witness[u] is not None:
                    flipped = table[(key ^ keys[u]).bit_length() - 1]
                    h = _probe(witness[u], flipped, key, table)
                    if h is not None:
                        break
        if h is not None:
            by_probe += 1
            mirror = _mirror(h, keys[image], table)
        else:
            h = _verdict(graph, v, work)[0]
            mirror = None if h is None else tuple(-x for x in h)
        witness[v] = h
        if image != v:
            witness[image] = mirror
    nodes = frozenset(v for v, h in enumerate(witness) if h is not None)
    return RegularSet(nodes, work.solved + work.reused, by_probe, len(keys) // 2, work)
