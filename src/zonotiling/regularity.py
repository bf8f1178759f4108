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
variables, which are always det(B) times a unit vector.  A pivot on row r
and non-basic column s swaps the entering and leaving variables, and column
s takes the leaving variable's column, -T[i][s] off the pivot row and det on
it.

Each tableau row is packed into one Python int of nv + 1 signed fields,
W bits apart: row = sum_j T[i][j] << (j * W).  Packing is linear, so a
Bareiss update of a whole row is one big-int expression,
(piv * row - a * prow) // det, and the division is exact on the packed int
because it is exact on every field: the packed numerator is det times the
packed quotient, whatever carries its fields make on the way.  Only the
results must fit.  Every tableau entry is, up to sign, a minor of [A | b]
with at most min(m, nv + 1) rows, so by Hadamard's inequality it is bounded
by the product of the min(m, nv + 1) largest row norms, each taken as at
least 1 so that zero rows and short LPs cannot shrink the bound.  W is that
bound's bit length plus 2: one bit for the sign and one to spare.  A field
is read back by adding the offset sum_j 2^(W-1) << (j * W), which makes
every field nonnegative, then shifting and masking.  The objective row
stays a list of ints.

Positive row scaling changes neither B^-1 b nor the reduced costs' signs,
and the entering rule looks at the *original* variable index of each
non-basic column, so the pivots, the optimal vertex, the witness and the
slack are exactly those of the uncondensed tableau over the unscaled rows.
Packing changes no value either: every field reads back exactly, so
Bland's rule and the tie break see the same numbers and make the same
pivots as on an unpacked tableau.

The slack LP's rows are packed once per configuration from the circuits,
one row per sign, and only selected per tiling.  Its structure gives a
tighter bound than the generic one (see ``_slack_rows``), the same for
both signs of every circuit, so one field width serves every tiling of a
configuration.

Negating the heights swaps upper and lower faces, so the half-turn image of
a tiling, whose key is the complement, has the same verdict, certified by
the negated witness.  Its slack LP is this one with every w+_i swapped with
its w-_i, so the optimum is the same and (-h, t) is an optimal point of it.
``graph_certificates`` therefore solves one LP per half-turn pair, 454 at
n = 6 and 12,349 at n = 7 on a_i = i, and gives the mirror node the
negated witness and the same slack once ``_realizes`` accepts the negated
integer heights on the mirror's key.  That this is also the optimum the
mirror's own simplex run reaches is checked, not proven: the tests compare
every certificate with its own LP at n <= 6, and pin the n = 7 artifact.

``regular_set`` decides the regular nodes of a whole flip graph with few LPs.
A flip toggles one circuit, so a certified neighbour's witness pushed just
across that circuit's hyperplane often certifies the node, once an exact
integer sign check accepts it; the LP decides the rest, and every verdict
decides the half-turn image too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, prod
from typing import Sequence

from .core import HeightVector, PointConfig, colex_triples, format_rational, integer_coords


class SimplexError(RuntimeError):
    pass


def _pack(row: Sequence[int], width: int) -> int:
    """One int holding row[j] in the signed field j of the given width."""
    return sum(v << (j * width) for j, v in enumerate(row))


def _maximize(obj: list[int], rows: list[int], width: int) -> tuple[list[int], int, int] | None:
    """Maximize c.x subject to A.x <= b, x >= 0 on integer data, b >= 0.

    ``rows[r]`` is row r of A followed by b_r, packed by ``_pack`` into
    fields ``width`` bits wide, which must hold every tableau entry (see the
    module docstring); ``obj`` is c followed by 0, as a list.  ``rows`` is
    updated in place.  Returns None when the LP is unbounded, otherwise
    (x, value, det) with the optimum at x_i = x[i] / det and c.x = value / det.

    Each pivot reads column s and b of every row with one offset-shift-mask,
    in the pass that runs the ratio test, and then updates each row with one
    exact big-int Bareiss step.  Bland's entering rule plus a
    lowest-basis-index tie break keeps the walk finite and deterministic;
    fields read back exactly, so the pivots are those of the unpacked tableau.
    """
    m = len(rows)
    nv = len(obj) - 1
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    offset = sum(half << (j * width) for j in range(nv + 1))
    top = nv * width
    nonbasic = list(range(nv))  # original variable index of each column
    basis = list(range(nv, nv + m))  # slack r starts basic in row r
    det = 1
    while True:
        s = -1
        for j in range(nv):
            if obj[j] > 0 and (s < 0 or nonbasic[j] < nonbasic[s]):
                s = j
        if s < 0:
            break
        shift = s * width
        above = top - shift
        column = []
        leave = -1
        for r, row in enumerate(rows):
            fields = (row + offset) >> shift
            a = (fields & mask) - half
            column.append(a)
            if a > 0:
                b = (fields >> above) - half
                if leave < 0:
                    leave, piv, pb = r, a, b
                else:
                    diff = b * piv - pb * a
                    if diff < 0 or (diff == 0 and basis[r] < basis[leave]):
                        leave, piv, pb = r, a, b
        if leave < 0:
            return None
        prow = rows[leave]
        for i, a in enumerate(column):
            if a:
                if i != leave:
                    rows[i] = (piv * rows[i] - a * prow) // det - (a << shift)
            elif piv != det:
                rows[i] = piv * rows[i] // det
        packed = prow + offset
        a = obj[s]
        obj = [
            (piv * x - a * ((packed >> (j * width) & mask) - half)) // det
            for j, x in enumerate(obj)
        ]
        obj[s] = -a
        rows[leave] = prow + ((det - piv) << shift)
        nonbasic[s], basis[leave] = basis[leave], nonbasic[s]
        det = piv

    x = [0] * nv
    for r, b in enumerate(basis):
        if b < nv:
            x[b] = ((rows[r] + offset) >> top) - half
    return x, -obj[nv], det


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


@lru_cache(maxsize=None)
def _slack_rows(config: PointConfig) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...], int]:
    """Packed integer rows of the slack LP, built once per configuration.

    Columns are w+_i, w-_i for i = 3..n (h_i = w+_i - w-_i), then t, then
    the right-hand side.  For every circuit, in rank order, the pair holds
    its row under sign +1 and under sign -1, on the scaled alpha of
    ``_integer_circuits``; then come the bound rows w+_i, w-_i, t <= 1.

    The last item is the field width, one for every tiling of the
    configuration and tighter than the generic bound.  Every tableau entry is,
    up to sign, a minor of [A | b].  Column b is zero on the circuit rows
    and 1 on the nv bound rows, so a minor through it expands into at most
    nv minors of A.  A bound row is a unit row, so expanding along it costs
    a factor of +-1.  What is left is a minor of circuit rows only, and on
    those the column of w-_i is minus that of w+_i, so a nonzero one keeps
    at most one of each pair: at most k + 1 columns (h_3..h_n and t) and so
    at most k + 1 rows.  With N_c = scale^2 + sum over points i >= 3 of
    (scale * alpha_i)^2, the squared norm of circuit c's row on those
    columns under either sign, Hadamard's inequality bounds every entry by
    nv * isqrt(product of the k + 1 largest N_c).  W is that bound's bit
    length plus 2, as for the generic bound.
    """
    k = config.n - 2
    nv = 2 * k + 1
    scale, _ = integer_coords(config)
    circuit_rows = []
    norms = []
    for p, q, r, *alpha in _integer_circuits(config):
        row = [0] * (nv + 1)
        for point, v in zip((p, q, r), alpha):
            if point >= 2:  # 0-based; h_1 = h_2 = 0 have no column
                row[point - 2] = -v
                row[k + point - 2] = v
        row[nv - 1] = scale
        negative = [-v for v in row[: 2 * k]] + row[2 * k :]
        circuit_rows.append((row, negative))
        norms.append(scale * scale + sum(v * v for v in row[:k]))
    bounds = []
    for i in range(nv):
        row = [0] * (nv + 1)
        row[i] = row[nv] = 1
        bounds.append(row)
    norms.sort(reverse=True)
    width = (nv * isqrt(prod(norms[: k + 1]))).bit_length() + 2
    return (
        tuple((_pack(row, width), _pack(negative, width)) for row, negative in circuit_rows),
        tuple(_pack(row, width) for row in bounds),
        width,
    )


def classify_orientation(config: PointConfig, key: int) -> RegularityCertificate:
    """The regularity certificate of the tiling with orientation key ``key``.

    ``key`` is a ``FlipGraph`` key: bit c is set iff the circuit of rank c
    is oriented -1.  A positive slack optimum is returned only after
    ``_realizes`` accepts its integer heights, taken before the division by
    det > 0, which moves no sign.  Raises ValueError for a key outside
    0 .. 2**C(n,3) - 1, and AssertionError for a witness that fails.
    """
    table = _integer_circuits(config)
    if key < 0 or key >> len(table):
        raise ValueError(f"key {key:#x} does not fit {len(table)} circuits")
    circuit_rows, bounds, width = _slack_rows(config)
    rows = [pair[key >> rank & 1] for rank, pair in enumerate(circuit_rows)]
    rows.extend(bounds)
    k = config.n - 2
    objective = [0] * (2 * k + 2)
    objective[2 * k] = 1  # maximize t
    solved = _maximize(objective, rows, width)
    if solved is None:
        raise SimplexError("slack LP ended with status unbounded")
    x, value, det = solved
    if value <= 0:
        return RegularityCertificate(False, None, Fraction(0))
    h = (0, 0, *(x[i] - x[k + i] for i in range(k)))
    if not _realizes(h, key, table):
        raise AssertionError(f"regularity witness does not realize key {key:#x}")
    return RegularityCertificate(True, tuple(Fraction(v, det) for v in h), Fraction(value, det))


def _mirror(h: Sequence[int], image_key: int, table) -> tuple[int, ...]:
    """The half-turn image's witness: -h, once ``_realizes`` accepts it on the image's key."""
    image = tuple(-x for x in h)
    if not _realizes(image, image_key, table):
        raise AssertionError(f"negated witness does not realize key {image_key:#x}")
    return image


def _integer_witness(cert: RegularityCertificate) -> tuple[tuple[int, ...], int]:
    """A regular certificate's heights as integers, and the positive scale taken."""
    scale = lcm(*(x.denominator for x in cert.witness))
    return tuple(int(x * scale) for x in cert.witness), scale


def graph_certificates(graph) -> tuple[list[RegularityCertificate], int, int]:
    """Every node's certificate, with one LP per half-turn pair.

    ``classify_orientation`` decides the first half of the ids, through the
    middle one.  The mirror id len(graph) - 1 - v gets the same verdict; a
    regular one also gets the negated witness, checked by ``_mirror`` on
    integers, and the same slack.  Returns the certificates in id order and
    how many verdicts came by LP and by half-turn.
    """
    config = graph.config
    table = _integer_circuits(config)
    keys = graph.keys
    certs: list[RegularityCertificate] = [None] * len(keys)  # type: ignore[list-item]
    by_lp = by_half_turn = 0
    for v in range((len(keys) + 1) // 2):
        cert = classify_orientation(config, keys[v])
        by_lp += 1
        certs[v] = cert
        image = len(keys) - 1 - v
        if image == v:
            continue
        by_half_turn += 1
        if cert.regular:
            h, scale = _integer_witness(cert)
            witness = tuple(Fraction(x, scale) for x in _mirror(h, keys[image], table))
            cert = RegularityCertificate(True, witness, cert.slack)
        certs[image] = cert
    return certs, by_lp, by_half_turn


# ---------------------------------------------------------------------------
# the regular set of a flip graph

# Factors 1 + eps, as (numerator, denominator), for eps = 1/8 and then 1:
# a probe replaces h by h - (1 + eps) (<h, alpha> / <alpha, alpha>) alpha.
_PUSHES = ((9, 8), (2, 1))


@dataclass(frozen=True)
class RegularSet:
    """The regular node ids, and how many verdicts each route gave."""

    nodes: frozenset[int]
    by_lp: int
    by_probe: int
    by_half_turn: int


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

    Walks the first half of the ids, through the middle one.  Each node is
    first probed from the witness of each certified neighbour; when no probe
    passes the exact sign check, ``classify_orientation`` solves its LP.
    Either way its half-turn image, the mirror id len(graph) - 1 - v, which
    the walk never reaches first, gets the same verdict: sigma_h(-h) is the
    complement key, so -h certifies the image, and an image of an irregular
    node is irregular.  Every regular verdict rests on an exact integer sign
    check of a witness (``_mirror`` checks the image's), every irregular one
    on an exact LP.
    """
    config = graph.config
    table = _integer_circuits(config)
    keys = graph.keys
    witness: list[tuple[int, ...] | None] = [None] * len(keys)
    by_lp = by_probe = by_half_turn = 0
    for v in range((len(keys) + 1) // 2):
        key = keys[v]
        h = None
        for u in graph.adj[v]:
            if witness[u] is not None:
                flipped = table[(key ^ keys[u]).bit_length() - 1]
                h = _probe(witness[u], flipped, key, table)
                if h is not None:
                    by_probe += 1
                    break
        if h is None:
            by_lp += 1
            cert = classify_orientation(config, key)
            if cert.regular:
                h, _ = _integer_witness(cert)
        image = graph.opposite_node(v)
        witness[v] = h
        if image != v:
            by_half_turn += 1
            witness[image] = None if h is None else _mirror(h, keys[image], table)
    nodes = frozenset(v for v, h in enumerate(witness) if h is not None)
    return RegularSet(nodes, by_lp, by_probe, by_half_turn)
