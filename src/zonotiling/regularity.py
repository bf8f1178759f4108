"""Exact regularity classification with height-vector certificates.

A tiling is regular when some height vector h realizes every circuit sign:
sign <h, alpha(C)> = sigma_T(C) for all circuits.  The sign system is
invariant under h -> h + c*1 + d*a, so we gauge-fix h_1 = h_2 = 0, box the
remaining heights into [-1, 1], and maximize the uniform slack t subject to

    sigma_T(C) * <h, alpha(C)>  >=  t        for every circuit,
    t <= 1.

The tiling is regular exactly when the optimum is positive; the optimal h
is the witness and is verified to reproduce the tiling before the verdict
is returned.  Strict-inequality feasibility leaves no room for rounding, so
the solver is an exact simplex.  Writing h = w+ - w- with w+, w- in [0, 1]
makes the origin a basic feasible point, so no feasibility phase is needed.

The simplex works on integers only.  Each constraint row is scaled by a
positive integer so that its entries are integral; the slack LP's rows are
built once per configuration from the circuits, one row per sign, and only
selected per tiling.  Pivoting is fraction-free (Bareiss): after every pivot
the tableau equals det(B) * B^-1 [A | b] for the current basis B, each
update divides exactly by the previous pivot, and no rational is formed
until the optimum is read off.  The tableau is condensed to the non-basic
columns plus b, m x (nv + 1), instead of also carrying the m columns of the
basic variables, which are always det(B) times a unit vector.  A pivot on
row r and non-basic column s swaps the entering and leaving variables, and
column s takes the leaving variable's column, -T[i][s] off the pivot row and
det on it.

Positive row scaling changes neither B^-1 b nor the reduced costs' signs,
and the entering rule looks at the *original* variable index of each
non-basic column, so the pivots, the optimal vertex, the witness and the
slack are exactly those of the uncondensed tableau over the unscaled rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Sequence

from .core import (
    HeightVector,
    OrientationVector,
    PointConfig,
    circuits,
    format_rational,
    num_triples,
)
from .tiling import Tiling, orientation_of, tiling_from_heights

_ZERO = Fraction(0)


class SimplexError(RuntimeError):
    pass


def _maximize(obj: list[int], rows: list[list[int]]) -> tuple[list[int], int, int] | None:
    """Maximize c.x subject to A.x <= b, x >= 0 on integer data, b >= 0.

    ``rows[r]`` is row r of A followed by b_r, and ``obj`` is c followed by
    0; ``rows`` is updated in place.  Returns None when the LP is unbounded, otherwise
    (x, value, det) with the optimum at x_i = x[i] / det and c.x = value / det.
    Bland's entering rule plus a lowest-basis-index tie break keeps the walk
    finite and deterministic.
    """
    m = len(rows)
    nv = len(obj) - 1
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
        leave = -1
        for r in range(m):
            a = rows[r][s]
            if a > 0:
                if leave < 0:
                    leave = r
                else:
                    diff = rows[r][nv] * rows[leave][s] - rows[leave][nv] * a
                    if diff < 0 or (diff == 0 and basis[r] < basis[leave]):
                        leave = r
        if leave < 0:
            return None
        prow = rows[leave]
        piv = prow[s]
        for i in range(m):
            if i != leave:
                row = rows[i]
                a = row[s]
                if a:
                    row = [(piv * x - a * y) // det for x, y in zip(row, prow)]
                    row[s] = -a
                    rows[i] = row
                elif piv != det:
                    rows[i] = [piv * x // det for x in row]
        a = obj[s]
        obj = [(piv * x - a * y) // det for x, y in zip(obj, prow)]
        obj[s] = -a
        prow[s] = det
        nonbasic[s], basis[leave] = basis[leave], nonbasic[s]
        det = piv

    x = [0] * nv
    for r, b in enumerate(basis):
        if b < nv:
            x[b] = rows[r][nv]
    return x, -obj[nv], det


def simplex_max_canonical(
    objective: Sequence[Fraction | int],
    lhs: Sequence[Sequence[Fraction | int]],
    rhs: Sequence[Fraction | int],
) -> tuple[str, list[Fraction], Fraction]:
    """Maximize c.x subject to A.x <= b, x >= 0, b >= 0, exactly.

    Requires the canonical feasible origin (all b nonnegative), which the
    callers here arrange by variable splitting.  Returns (status, x, value)
    with status 'optimal' or 'unbounded'.  Each row, and the objective, is
    scaled to integers by the lcm of its denominators before pivoting.
    """
    nv = len(objective)
    rows: list[list[int]] = []
    for coeffs_in, b_in in zip(lhs, rhs, strict=True):
        if len(coeffs_in) != nv:
            raise ValueError("ragged constraint matrix")
        coeffs = [Fraction(x) for x in coeffs_in]
        b = Fraction(b_in)
        if b < 0:
            raise ValueError("canonical form needs nonnegative right-hand sides")
        scale = lcm(b.denominator, *(c.denominator for c in coeffs))
        rows.append([int(c * scale) for c in coeffs] + [int(b * scale)])

    cfr = [Fraction(c) for c in objective]
    cscale = lcm(1, *(c.denominator for c in cfr))
    solved = _maximize([int(c * cscale) for c in cfr] + [0], rows)
    if solved is None:
        return "unbounded", [], _ZERO
    x, value, det = solved
    return "optimal", [Fraction(v, det) for v in x], Fraction(value, det) / cscale


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


def classify(config: PointConfig, tiling: Tiling) -> RegularityCertificate:
    """Decide regularity by exact slack maximization; verify any witness."""
    return classify_orientation(config, orientation_of(tiling), tiling)


@lru_cache(maxsize=None)
def _slack_rows(
    config: PointConfig,
) -> tuple[tuple[tuple[tuple[int, ...], tuple[int, ...]], ...], tuple[tuple[int, ...], ...]]:
    """Integer rows of the slack LP, built once per configuration.

    Columns are w+_i, w-_i for i = 3..n (h_i = w+_i - w-_i), then t, then
    the right-hand side.  For every circuit, in rank order, the pair holds
    its row under sign +1 and under sign -1, scaled by the lcm of the
    coordinate denominators; then come the bound rows w+_i, w-_i, t <= 1.
    """
    k = config.n - 2
    nv = 2 * k + 1
    scale = lcm(*(a.denominator for a in config.coords))
    circuit_rows = []
    for c in circuits(config):
        row = [0] * (nv + 1)
        for point, coeff in zip(c.triple, c.alpha):
            if point >= 3:
                v = int(coeff * scale)
                row[point - 3] = -v
                row[k + point - 3] = v
        row[nv - 1] = scale
        negative = [-v for v in row[: 2 * k]] + row[2 * k :]
        circuit_rows.append((tuple(row), tuple(negative)))
    bounds = []
    for i in range(nv):
        row = [0] * (nv + 1)
        row[i] = row[nv] = 1
        bounds.append(tuple(row))
    return tuple(circuit_rows), tuple(bounds)


def classify_orientation(
    config: PointConfig,
    orientation: OrientationVector,
    tiling: Tiling | None = None,
) -> RegularityCertificate:
    n = config.n
    if orientation.count != num_triples(n):
        raise ValueError(
            f"orientation has {orientation.count} signs, "
            f"but n = {n} points have {num_triples(n)} circuits"
        )
    circuit_rows, bounds = _slack_rows(config)
    bits = orientation.bits
    rows = [list(pair[bits >> rank & 1]) for rank, pair in enumerate(circuit_rows)]
    rows.extend(list(row) for row in bounds)
    k = n - 2
    objective = [0] * (2 * k + 2)
    objective[2 * k] = 1  # maximize t
    solved = _maximize(objective, rows)
    if solved is None:
        raise SimplexError("slack LP ended with status unbounded")
    x, value, det = solved
    if value <= 0:
        return RegularityCertificate(False, None, _ZERO)
    witness: HeightVector = (_ZERO, _ZERO) + tuple(
        Fraction(x[i] - x[k + i], det) for i in range(k)
    )
    reproduced = tiling_from_heights(config, witness)
    if tiling is not None and reproduced != tiling:
        raise AssertionError("regularity witness does not reproduce the tiling")
    if orientation_of(reproduced) != orientation:
        raise AssertionError("regularity witness does not reproduce the orientation")
    return RegularityCertificate(True, witness, Fraction(value, det))


def classify_graph(config: PointConfig, graph) -> tuple[RegularityCertificate, ...]:
    """Certificates for every node of an enumerated flip graph."""
    return tuple(classify(config, tiling) for tiling in map(graph.tiling, range(len(graph))))


def regular_node_set(certs: Sequence[RegularityCertificate]) -> frozenset[int]:
    return frozenset(i for i, c in enumerate(certs) if c.regular)
