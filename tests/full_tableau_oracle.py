"""Full-tableau fraction-free simplex, kept as a reference solver.

Test-only reference for the exact simplex ``zonotiling.regularity._maximize``,
which tests/test_regularity.py drives from the same ``integer_lp`` rows: the
solver as it stood before the production code moved to a condensed tableau
over the non-basic columns, with each column packed into one int.  It carries
the whole m x (nv + m + 1) tableau as lists, slack identity columns
included, scales every row by the lcm of its own denominators, and pivots
with Bland's rule plus a lowest-basis-index tie break.  The production
solver must return the same (status, x, value) on every input; see
tests/test_regularity.py::TestFullTableauDifferential.  ``largest_entry``
replays the pivots on given integer rows and reports how large the tableau
grows, which the packed solver's field width must cover.
"""

from fractions import Fraction
from math import lcm
from typing import Sequence

_ZERO = Fraction(0)


def simplex_max_canonical(
    objective: Sequence[Fraction | int],
    lhs: Sequence[Sequence[Fraction | int]],
    rhs: Sequence[Fraction | int],
) -> tuple[str, list[Fraction], Fraction]:
    """Maximize c.x subject to A.x <= b, x >= 0, b >= 0, exactly.

    Requires the canonical feasible origin (all b nonnegative), which the
    callers here arrange by variable splitting.  Returns (status, x, value)
    with status 'optimal' or 'unbounded'.  Bland's entering rule plus a
    lowest-basis-index tie break keeps the walk finite and deterministic.
    """
    objective, rows, cscale = integer_lp(objective, lhs, rhs)
    solved = _solve(objective, rows)
    return read_optimum(solved and solved[:3], cscale)


def integer_lp(objective, lhs, rhs) -> tuple[list[int], list[list[int]], int]:
    """(c, rows [A_r | b_r], scale of c) on integers; each row scaled by the lcm
    of its own denominators.  Refuses ragged rows and negative b."""
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
    return [int(c * cscale) for c in cfr], rows, cscale


def read_optimum(solved, cscale: int) -> tuple[str, list[Fraction], Fraction]:
    """(status, x, value) from a solver's (x, value, det) on ``integer_lp``'s data, or None."""
    if solved is None:
        return "unbounded", [], _ZERO
    x, value, det = solved
    return "optimal", [Fraction(v, det) for v in x], Fraction(value, det) / cscale


def largest_entry(objective: Sequence[int], rows: Sequence[Sequence[int]]) -> int:
    """The largest |entry| the constraint rows of the tableau reach on the way
    to the optimum, for integer rows [A_r | b_r]; the LP must be bounded."""
    solved = _solve(list(objective), [list(row) for row in rows])
    assert solved is not None
    return solved[3]


def _solve(objective: list[int], int_rows: list[list[int]]):
    """Pivot the full tableau over integer rows [A_r | b_r] to the optimum.

    Returns None when the LP is unbounded, otherwise (x, value, det, peak)
    with the optimum at x_i = x[i] / det, c.x = value / det, and peak the
    largest |entry| of any constraint row of any tableau on the way.
    """
    m = len(int_rows)
    nv = len(objective)
    width = nv + m + 1
    rows = [
        row[:nv] + [1 if c == r else 0 for c in range(m)] + row[nv:]
        for r, row in enumerate(int_rows)
    ]
    obj = objective + [0] * m + [0]

    det = 1
    basis = list(range(nv, nv + m))
    peak = max((abs(v) for row in rows for v in row), default=0)

    while True:
        s = next((j for j in range(width - 1) if obj[j] > 0), -1)
        if s < 0:
            break
        leave = -1
        for r in range(m):
            a = rows[r][s]
            if a > 0:
                if leave < 0:
                    leave = r
                else:
                    diff = rows[r][width - 1] * rows[leave][s] - rows[leave][width - 1] * a
                    if diff < 0 or (diff == 0 and basis[r] < basis[leave]):
                        leave = r
        if leave < 0:
            return None
        piv = rows[leave][s]
        prow = rows[leave]
        for i in range(m):
            if i != leave:
                row = rows[i]
                a = row[s]
                rows[i] = [(piv * row[j] - a * prow[j]) // det for j in range(width)]
        a = obj[s]
        obj = [(piv * obj[j] - a * prow[j]) // det for j in range(width)]
        det = piv
        basis[leave] = s
        peak = max(peak, max((abs(v) for row in rows for v in row), default=0))

    x = [0] * nv
    for r, b in enumerate(basis):
        if b < nv:
            x[b] = rows[r][width - 1]
    return x, -obj[width - 1], det, peak


def slack_lp(config, orientation):
    """The regularity slack LP over Fractions, rows built per circuit.

    Variables are w+_i, w-_i for i = 3..n (h_i = w+_i - w-_i in [-1, 1]),
    then the slack t; returns (objective, lhs, rhs) for maximizing t.
    """
    from zonotiling import circuits

    k = config.n - 2
    nv = 2 * k + 1
    t_col = nv - 1
    lhs = []
    rhs = []
    for c in circuits(config):
        sign = orientation.sign(c.rank)
        row = [_ZERO] * nv
        for point, coeff in zip(c.triple, c.alpha):
            if point >= 3:
                row[point - 3] = -sign * coeff
                row[k + point - 3] = sign * coeff
        row[t_col] = Fraction(1)
        lhs.append(row)
        rhs.append(_ZERO)
    for i in range(nv):
        row = [_ZERO] * nv
        row[i] = Fraction(1)
        lhs.append(row)
        rhs.append(Fraction(1))
    objective = [_ZERO] * nv
    objective[t_col] = Fraction(1)
    return objective, lhs, rhs


def reference_certificate(config, orientation):
    """(regular, witness, slack) as the full-tableau solver decides them."""
    status, x, value = simplex_max_canonical(*slack_lp(config, orientation))
    assert status == "optimal"
    if value <= 0:
        return False, None, _ZERO
    k = config.n - 2
    return True, (_ZERO, _ZERO) + tuple(x[i] - x[k + i] for i in range(k)), value
