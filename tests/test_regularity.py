import random
from fractions import Fraction
from itertools import combinations
from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import full_tableau_oracle
from fm_oracle import strictly_feasible
from strategies import configurations
from tile_oracle import (
    circuits,
    extremal_tiling,
    orientation_of,
    tiling_from_heights,
    tiling_of_orientation,
)
from zonotiling import (
    enumerate_tilings,
    make_config,
    regular_set,
    sigma_h,
    standard_config,
)
from zonotiling import regularity


def certificate(h, det, value, pivots=None):
    """(regular, witness, slack) of a ``regularity._certify`` verdict, as Fractions."""
    if h is None:
        return False, None, Fraction(0)
    return True, tuple(Fraction(x, det) for x in h), Fraction(value, det)


def certificate_json(h, det, value, pivots=None):
    """A verdict's certificate entry, formatted from its Fractions by ``str``."""
    regular, witness, slack = certificate(h, det, value)
    if not regular:
        return {"regular": False}
    return {"h": [str(x) for x in witness], "regular": True, "slack": str(slack)}


def _field_width(rows, nv):
    """Bits per packed field for the integer rows [A_r | b_r] of an LP in nv variables:
    the Hadamard bound of the ``regularity`` module docstring, plus 2."""
    norms = sorted((max(sum(v * v for v in row), 1) for row in rows), reverse=True)
    return isqrt(prod(norms[: nv + 1])).bit_length() + 2


def _columns(rows, nv, width):
    """The nv + 1 columns of the integer rows [A_r | b_r], packed for ``regularity._maximize``."""
    return [regularity._pack([row[j] for row in rows], width) for j in range(nv + 1)]


def simplex_max_canonical(objective, lhs, rhs):
    """The full-tableau oracle's LP front end, with ``regularity._maximize`` pivoting."""
    objective, rows, cscale = full_tableau_oracle.integer_lp(objective, lhs, rhs)
    nv = len(objective)
    width = _field_width(rows, nv)
    solved = regularity._maximize(objective + [0], _columns(rows, nv, width), len(rows), width)
    return full_tableau_oracle.read_optimum(solved and solved[:3], cscale)


def brute_lp_max(c, A, b):
    """Vertex-enumeration LP oracle: try every potentially-tight subset."""
    nv = len(c)
    rows = [list(r) + [bb] for r, bb in zip(A, b)]
    rows += [
        [Fraction(1 if j == i else 0) for j in range(nv)] + [Fraction(0)]
        for i in range(nv)
    ]
    best = None
    for subset in combinations(range(len(rows)), nv):
        m = [[rows[i][j] for j in range(nv)] for i in subset]
        rhs = [rows[i][nv] for i in subset]
        x = _solve(m, rhs)
        if x is None:
            continue
        if all(xx >= 0 for xx in x) and all(
            sum(a * xx for a, xx in zip(row, x)) <= bb for row, bb in zip(A, b)
        ):
            val = sum(cc * xx for cc, xx in zip(c, x))
            if best is None or val > best:
                best = val
    return best


def _solve(m, rhs):
    nv = len(rhs)
    m = [row[:] for row in m]
    rhs = rhs[:]
    for col in range(nv):
        p = next((r for r in range(col, nv) if m[r][col] != 0), -1)
        if p < 0:
            return None
        m[col], m[p] = m[p], m[col]
        rhs[col], rhs[p] = rhs[p], rhs[col]
        inv = m[col][col]
        m[col] = [x / inv for x in m[col]]
        rhs[col] /= inv
        for r in range(nv):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
                rhs[r] -= f * rhs[col]
    return rhs


def random_lps(seed, count):
    """Small canonical LPs (c, A, b) with rational data and b >= 0."""
    rng = random.Random(seed)
    for _ in range(count):
        nv = rng.randint(1, 3)
        m = rng.randint(1, 5)
        c = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nv)]
        A = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nv)]
            for _ in range(m)
        ]
        b = [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(m)]
        yield c, A, b


class TestSimplex:
    def test_known_optimum(self):
        status, x, value = simplex_max_canonical([1, 1], [[1, 0], [0, 1]], [1, 2])
        assert (status, x, value) == ("optimal", [1, 2], 3)

    def test_fractional_vertex(self):
        status, x, value = simplex_max_canonical(
            [Fraction(1, 2), 1], [[1, 1], [1, 3]], [4, 6]
        )
        assert status == "optimal"
        assert x == [3, 1] and value == Fraction(5, 2)

    def test_unbounded(self):
        assert simplex_max_canonical([1], [[-1]], [1])[0] == "unbounded"

    def test_negative_rhs_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            simplex_max_canonical([1], [[1]], [-1])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            simplex_max_canonical([1, 1], [[1]], [1])

    def test_randomized_against_vertex_enumeration(self):
        for c, A, b in random_lps(12, 120):
            status, x, value = simplex_max_canonical(c, A, b)
            if status != "optimal":
                continue
            assert brute_lp_max(c, A, b) == value
            assert all(xx >= 0 for xx in x)
            assert all(
                sum(a * xx for a, xx in zip(row, x)) <= bb for row, bb in zip(A, b)
            )
            assert sum(cc * xx for cc, xx in zip(c, x)) == value


class TestClassify:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_extremal_tilings_regular(self, n):
        cfg = standard_config(n)
        for which in ("min", "max"):
            key = orientation_of(extremal_tiling(cfg, which)).bits
            regular, _, slack = certificate(*regularity._certify(cfg, key))
            assert regular
            if n > 2:
                assert slack > 0

    def test_witness_reproduces_tiling(self):
        cfg = standard_config(5)
        t = tiling_from_heights(cfg, (4, 0, 1, -3, 9))
        # the integer heights, before the division by det > 0, which moves no sign
        h = regularity._certify(cfg, orientation_of(t).bits)[0]
        assert h is not None
        assert tiling_from_heights(cfg, h) == t
        assert sigma_h(cfg, h) == orientation_of(t)

    def test_random_heights_always_regular(self):
        rng = random.Random(5)
        for n in (4, 5, 6):
            cfg = standard_config(n)
            done = 0
            while done < 20:
                h = [Fraction(rng.randint(-60, 60), rng.randint(1, 7)) for _ in range(n)]
                try:
                    t = tiling_from_heights(cfg, h)
                except ValueError:
                    continue
                done += 1
                h = regularity._certify(cfg, orientation_of(t).bits)[0]
                assert h is not None
                assert tiling_from_heights(cfg, h) == t

    def test_gauge_invariance(self):
        # re-heighting by c*1 + d*a builds the same tiling, hence the same verdict
        cfg = standard_config(4)
        h = (Fraction(0), Fraction(2), Fraction(-1), Fraction(5))
        c, d = Fraction(7, 3), Fraction(-2, 5)
        shifted = tuple(x + c + d * a for x, a in zip(h, cfg.coords))
        assert tiling_from_heights(cfg, h) == tiling_from_heights(cfg, shifted)

    def test_irregular_tilings_exist_at_n6(self, graphs, certificates):
        certs = certificates(6)
        irregular = [i for i, c in enumerate(certs) if c[0] is None]
        assert len(irregular) == 20
        for i in irregular:
            assert certs[i][2] <= 0

    def test_all_regular_below_n6(self, certificates):
        for n in (3, 4, 5):
            assert all(c[0] is not None for c in certificates(n))

    @pytest.mark.parametrize("key", [1 << 10, -1])
    def test_key_range_checked(self, key):
        # n = 5 has 10 circuits; a key with bit 10 set, or a negative one, is
        # refused up front instead of having its high bits ignored
        with pytest.raises(ValueError, match=rf"key {key:#x} does not fit 10 circuits"):
            regularity._certify(standard_config(5), key)

    def test_witness_sign_check_is_live(self, monkeypatch):
        # swapping w+_3 and w-_3 in a regular optimum negates h_3, which flips
        # the sign of circuit (1, 2, 3): the witness check must refuse it
        cfg = standard_config(5)
        k = cfg.n - 2
        real = regularity._maximize

        def corrupted(obj, cols, m, width):
            x, value, det, pivots = real(obj, cols, m, width)
            if value > 0:
                x[0], x[k] = x[k], x[0]
            return x, value, det, pivots

        assert regularity._certify(cfg, 0)[0][2] != 0
        monkeypatch.setattr(regularity, "_maximize", corrupted)
        with pytest.raises(AssertionError, match="does not realize"):
            regularity._certify(cfg, 0)

    def test_certificate_json(self):
        cfg = standard_config(3)
        key = orientation_of(extremal_tiling(cfg, "min")).bits
        data = regularity._entry(*regularity._certify(cfg, key)[:3])
        assert data["regular"] is True
        assert len(data["h"]) == 3
        assert all(isinstance(s, str) for s in data["h"])


class TestFullTableauDifferential:
    """The condensed, packed-row solver against the full-tableau reference solver.

    Both must agree on (status, x, value) and on every certificate, so
    neither the row scaling nor the packing may move a pivot, also on
    configurations with large denominators.
    """

    @pytest.mark.parametrize(
        "points",
        [
            ["1", "2", "3", "4", "5"],
            ["0", "1/2", "2", "7/3", "5"],
            ["-3", "-5/2", "1/3", "4", "11/2"],
        ],
    )
    def test_every_tiling_up_to_n5(self, points):
        for n in (3, 4, 5):
            cfg = make_config(points[:n])
            g = enumerate_tilings(cfg)
            for key in g.keys:
                tiling = tiling_of_orientation(n, key)
                orientation = orientation_of(tiling)
                lp = full_tableau_oracle.slack_lp(cfg, orientation)
                assert simplex_max_canonical(*lp) == full_tableau_oracle.simplex_max_canonical(*lp)
                assert certificate(*regularity._certify(cfg, orientation.bits)) == (
                    full_tableau_oracle.reference_certificate(cfg, orientation)
                )

    def test_irregular_verdicts_n6(self, graphs, certificates):
        cfg = standard_config(6)
        g = graphs(6)
        for v, cert in enumerate(certificates(6)):
            if cert[0] is None:
                tiling = tiling_of_orientation(6, g.keys[v])
                expected = full_tableau_oracle.reference_certificate(cfg, orientation_of(tiling))
                assert certificate(*cert) == expected

    @staticmethod
    def check_certificate(cfg, tiling):
        assert certificate(*regularity._certify(cfg, orientation_of(tiling).bits)) == (
            full_tableau_oracle.reference_certificate(cfg, orientation_of(tiling))
        )

    @settings(max_examples=10)
    @given(configurations(5))
    def test_every_tiling_on_drawn_configurations_n5(self, cfg):
        g = enumerate_tilings(cfg)
        for key in g.keys:
            self.check_certificate(cfg, tiling_of_orientation(5, key))

    @settings(max_examples=4)
    @given(configurations(6))
    def test_sampled_tilings_on_drawn_configurations_n6(self, cfg):
        g = enumerate_tilings(cfg)
        for v in random.Random(6).sample(range(len(g)), 60):
            self.check_certificate(cfg, tiling_of_orientation(6, g.keys[v]))

    def test_random_lps(self):
        for c, A, b in random_lps(31, 400):
            assert simplex_max_canonical(c, A, b) == full_tableau_oracle.simplex_max_canonical(
                c, A, b
            )


def _beale():
    """Beale's LP: degenerate ratio-test ties on which the textbook rule cycles."""
    c = [Fraction(3, 4), -20, Fraction(1, 2), -6]
    A = [
        [Fraction(1, 4), -8, -1, 9],
        [Fraction(1, 2), -12, Fraction(-1, 2), 3],
        [0, 0, 1, 0],
    ]
    return c, A, [0, 0, 1]


def huge_lps(seed, count):
    """Canonical LPs mixing entries above 2**64 with small ones and zeros."""
    rng = random.Random(seed)

    def entry(sign_range):
        size = rng.choice((0, 1, 3, 2**64 + 13, 2**80, 3**50))
        numerator = rng.randint(*sign_range) * size + rng.randint(0, 2)
        return Fraction(numerator, rng.choice((1, 1, 7, 2**65)))

    for _ in range(count):
        nv = rng.randint(1, 4)
        m = rng.randint(1, 5)
        c = [entry((-1, 1)) for _ in range(nv)]
        A = [[entry((-1, 1)) for _ in range(nv)] for _ in range(m)]
        b = [entry((0, 1)) for _ in range(m)]
        yield c, A, b


class TestPackedRows:
    """Packed solver (one int per tableau column) against the full-tableau
    reference on adversarial LPs."""

    @pytest.mark.parametrize(
        "lp",
        [
            # zero rows, with b = 0 and with b > 0
            ([1, 2], [[0, 0], [1, 1], [0, 0]], [0, 3, 5]),
            ([1, 1], [[0, 0]], [0]),
            ([Fraction(1, 3)], [[0], [0]], [0, 0]),
            # fewer rows than nv + 1, and no rows at all
            ([1, 1, 1, 1], [[1, 2, 3, 4], [4, 3, 2, 1]], [10, 10]),
            ([3, -1, 2], [[1, 1, 1]], [7]),
            ([-1, -2], [], []),
            # unbounded, also after a pivot
            ([1, 1], [[1, -1]], [2]),
            ([1], [], []),
            ([2, 1], [[1, 0], [-1, 1]], [4, 0]),
            # degenerate ratio-test ties
            ([1, 1], [[1, 0], [0, 1], [1, 1], [1, -1]], [0, 0, 0, 0]),
            ([1, 1], [[1, 0], [2, 0], [1, 1]], [1, 2, 1]),
            ([1, 2, 3], [[1, 1, 1], [2, 2, 2], [3, 3, 3], [1, 0, 0]], [1, 2, 3, 1]),
            _beale(),
            # coefficients above 2**64, beside small ones
            ([2**70, 1], [[2**66 + 1, 3], [1, 2**65]], [2**64 * 3, 7]),
            ([1, 1], [[Fraction(1, 2**70), 1], [1, Fraction(2**67, 3)]], [2**90, 1]),
        ],
    )
    def test_against_full_tableau(self, lp):
        assert simplex_max_canonical(*lp) == full_tableau_oracle.simplex_max_canonical(*lp)

    def test_huge_random_lps(self):
        for c, A, b in huge_lps(7, 300):
            assert simplex_max_canonical(c, A, b) == full_tableau_oracle.simplex_max_canonical(
                c, A, b
            )

    def test_beale_reaches_its_optimum(self):
        status, x, value = simplex_max_canonical(*_beale())
        assert (status, value) == ("optimal", Fraction(5, 4))

    def test_width_has_no_spare_two_bits(self):
        # max x1 + x2 s.t. c x1 + c x2 <= 2c, c x1 - c x2 <= 0 reaches a
        # tableau entry of 2c^2 = 2^41, which needs more bits than any input
        c = 2**20
        rows = [[c, c, 2 * c], [c, -c, 0]]
        width = _field_width(rows, 2)

        def solve(w):
            solved = regularity._maximize([1, 1, 0], _columns(rows, 2, w), len(rows), w)
            return solved and solved[:3]

        assert solve(width) == ([2 * c * c, 2 * c * c], 4 * c * c, 2 * c * c)
        assert simplex_max_canonical([1, 1], [r[:2] for r in rows], [2 * c, 0]) == (
            "optimal",
            [1, 1],
            2,
        )
        assert solve(width - 2) != solve(width)

    def test_zero_rows_keep_a_usable_width(self):
        # a zero row counts as norm 1, so it cannot zero the Hadamard bound
        assert _field_width([[0, 0, 0]], 2) == 3
        assert _field_width([], 3) == 3
        assert _field_width([[0, 0], [2**40, 0]], 1) == 43


class TestSlackWidth:
    """Every slack LP's tableau fits the field width ``_slack_lp`` proves.

    The pivots are replayed on the unpacked rows with the full-tableau
    reference solver, which reports the largest entry of any tableau.
    """

    @staticmethod
    def check_keys(cfg, keys):
        lp = regularity._slack_lp(cfg)
        width = lp.width
        k = cfg.n - 2
        nv = 2 * k + 1
        half = 1 << (width - 1)
        mask = (1 << width) - 1
        offset = sum(half << (r * width) for r in range(lp.rows))

        def unpack(columns):
            # the rows [A_r | b_r], read off the packed columns
            biased = [c + offset for c in columns]
            return [[(c >> (r * width) & mask) - half for c in biased] for r in range(lp.rows)]

        objective = [0] * nv
        objective[2 * k] = 1
        for key in keys:
            peak = full_tableau_oracle.largest_entry(objective, unpack(lp.columns(key)))
            assert peak < half

    @pytest.mark.parametrize("n", [3, 4, 5])
    @settings(max_examples=8)
    @given(data=st.data())
    def test_every_lp_up_to_n5(self, n, data):
        cfg = data.draw(configurations(n))
        self.check_keys(cfg, enumerate_tilings(cfg).keys)

    @settings(max_examples=4)
    @given(configurations(6))
    def test_sampled_lps_n6(self, cfg):
        keys = enumerate_tilings(cfg).keys
        self.check_keys(cfg, random.Random(6).sample(keys, 60))

    def test_pinned_widths(self):
        cfg = make_config(["0", "1/3", "2", "7/3", "5", "11/2", "10969/1994"])
        assert regularity._slack_lp(cfg).width == 99
        assert regularity._slack_lp(standard_config(7)).width == 23


class TestSlackColumns:
    """Every slack LP as ``_slack_lp`` packs it by columns, solved by
    ``_maximize``, against the full-tableau reference on the same LP built
    row by row from ``circuits``: the same (status, x, value)."""

    @staticmethod
    def check_nodes(cfg, g, nodes):
        lp = regularity._slack_lp(cfg)
        k = cfg.n - 2
        for v in nodes:
            objective = [0] * (2 * k + 2)
            objective[2 * k] = 1
            solved = regularity._maximize(objective, lp.columns(g.keys[v]), lp.rows, lp.width)
            tiling = tiling_of_orientation(cfg.n, g.keys[v])
            reference = full_tableau_oracle.slack_lp(cfg, orientation_of(tiling))
            assert full_tableau_oracle.read_optimum(solved and solved[:3], 1) == (
                full_tableau_oracle.simplex_max_canonical(*reference)
            )

    @settings(max_examples=10)
    @given(configurations(5))
    def test_every_lp_on_drawn_configurations_n5(self, cfg):
        g = enumerate_tilings(cfg)
        self.check_nodes(cfg, g, range(len(g)))

    @settings(max_examples=4)
    @given(configurations(6))
    def test_sampled_lps_on_drawn_configurations_n6(self, cfg):
        g = enumerate_tilings(cfg)
        self.check_nodes(cfg, g, random.Random(6).sample(range(len(g)), 60))


class TestFourierMotzkinCrossCheck:
    """The strict sign system is solved by two independent routes."""

    @staticmethod
    def rows_for(config, orientation):
        rows = []
        for c in circuits(config):
            s = orientation.sign(c.rank)
            row = [Fraction(0)] * (config.n - 2)
            for point, coeff in zip(c.triple, c.alpha):
                if point >= 3:
                    row[point - 3] = s * coeff
            rows.append(row)
        return rows

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_exhaustive_small(self, graphs, certificates, n):
        cfg = standard_config(n)
        g = graphs(n)
        for v, cert in enumerate(certificates(n)):
            tiling = tiling_of_orientation(n, g.keys[v])
            fm = strictly_feasible(self.rows_for(cfg, orientation_of(tiling)))
            assert fm == (cert[0] is not None)

    def test_all_n6(self, graphs, certificates):
        cfg = standard_config(6)
        g = graphs(6)
        for v, cert in enumerate(certificates(6)):
            tiling = tiling_of_orientation(6, g.keys[v])
            fm = strictly_feasible(self.rows_for(cfg, orientation_of(tiling)))
            assert fm == (cert[0] is not None)


class TestRegularSet:
    """regular_set (probes, half-turn images, LP fallback) against one LP per node."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_equals_the_lp_census(self, graphs, regulars, n):
        assert regular_set(graphs(n)).nodes == regulars(n)

    @staticmethod
    def check_against_lps(cfg):
        g = enumerate_tilings(cfg)
        lp = {v for v, key in enumerate(g.keys) if regularity._certify(cfg, key)[0] is not None}
        assert {g.opposite_node(v) for v in lp} == lp  # the half-turn keeps the LP census
        assert regular_set(g).nodes == lp

    @settings(max_examples=15)
    @given(configurations(5))
    def test_equals_the_lp_census_n5(self, cfg):
        self.check_against_lps(cfg)

    @settings(max_examples=4)
    @given(configurations(6))
    def test_equals_the_lp_census_n6(self, cfg):
        self.check_against_lps(cfg)

    def test_closed_under_the_half_turn(self, graphs, regulars):
        g = graphs(6)
        assert {g.opposite_node(v) for v in regulars(6)} == regulars(6)
        nodes = regular_set(g).nodes
        assert {g.opposite_node(v) for v in nodes} == nodes

    def test_fewer_lps_than_nodes_n6(self, monkeypatch):
        # a fresh graph, so no LP's certificate is stored on it yet
        g = enumerate_tilings(standard_config(6))
        solved = []
        real = regularity._certify

        def counted(config, key):
            solved.append(key)
            return real(config, key)

        monkeypatch.setattr(regularity, "_certify", counted)
        result = regular_set(g)
        assert len(solved) == result.by_lp == result.lps.solved < len(g)
        assert len(set(solved)) == len(solved)
        assert result.by_lp + result.by_probe + result.by_half_turn == len(g)
        assert result.by_half_turn == len(g) // 2

    @pytest.mark.parametrize(
        "n,counts", [(2, (1, 1, 0, 0)), (3, (2, 1, 0, 1)), (6, (888, 99, 355, 454))]
    )
    def test_verdict_routes(self, n, counts):
        # (regular nodes, by_lp, by_probe, by_half_turn) on a_i = i, on a
        # fresh graph: a node with a stored certificate is not probed
        result = regular_set(enumerate_tilings(standard_config(n)))
        assert (len(result.nodes), result.by_lp, result.by_probe, result.by_half_turn) == counts

    def test_stored_certificates_are_read_before_probing(self, monkeypatch):
        g = enumerate_tilings(standard_config(6))
        fresh = regular_set(enumerate_tilings(standard_config(6)))
        # a second walk reads the 99 LPs of the first and probes the rest
        regular_set(g)
        again = regular_set(g)
        assert again == fresh
        assert (again.lps.solved, again.lps.reused) == (0, 99)
        # after graph_certificates every first-half node's certificate is stored
        regularity.graph_certificates(g)

        def refuse(*args):
            raise AssertionError("probed a node whose certificate is stored")

        monkeypatch.setattr(regularity, "_probe", refuse)
        result = regular_set(g)
        assert result.nodes == fresh.nodes
        assert (result.by_lp, result.by_probe, result.by_half_turn) == (454, 0, 454)
        assert (result.lps.solved, result.lps.reused, result.lps.pivots) == (0, 454, 0)

    def test_probe_witnesses_check_exactly(self, monkeypatch):
        # every accepted probe reproduces its node's key under sigma_h, on a
        # fresh graph, where no certificate is stored to skip the probes
        g = enumerate_tilings(standard_config(5))
        cfg = standard_config(5)
        accepted = []
        real = regularity._probe

        def recorded(h, circuit, key, table):
            found = real(h, circuit, key, table)
            if found is not None:
                accepted.append((found, key))
            return found

        monkeypatch.setattr(regularity, "_probe", recorded)
        result = regular_set(g)
        assert len(accepted) == result.by_probe > 0
        for h, key in accepted:
            assert sigma_h(cfg, h).bits == key

    def test_sign_check_refuses_a_zero_sign(self):
        # heights affine in a_i put every point on every chord: all signs 0
        cfg = standard_config(4)
        table = regularity._integer_circuits(cfg)
        minimal = tuple(int(a * a) for a in cfg.coords)
        assert regularity._realizes(minimal, 0, table)
        assert not regularity._realizes(minimal, 1, table)
        for key in (0, 0b1111):
            assert not regularity._realizes((0, 0, 0, 0), key, table)
            assert not regularity._realizes((1, 2, 3, 4), key, table)


class TestGraphCertificates:
    """graph_certificates (one LP per half-turn pair) against one LP per node."""

    @staticmethod
    def check_against_lps(g, expected):
        entries, regular, work = regularity.graph_certificates(g)
        # one verdict by LP per half-turn pair, the middle id included
        assert work.solved + work.reused == (len(g) + 1) // 2
        assert list(entries) == [certificate_json(*c) for c in expected]
        assert regular == sum(c[0] is not None for c in expected)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_equals_one_lp_per_node(self, graphs, certificates, n):
        self.check_against_lps(graphs(n), certificates(n))

    @staticmethod
    def check_drawn(cfg):
        g = enumerate_tilings(cfg)
        TestGraphCertificates.check_against_lps(
            g, [regularity._certify(cfg, key) for key in g.keys]
        )

    @settings(max_examples=10)
    @given(st.integers(3, 5).flatmap(configurations))
    def test_equals_one_lp_per_node_on_drawn_configurations(self, cfg):
        self.check_drawn(cfg)

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
    def test_rationals_are_formatted_as_fractions(self, x, det):
        assert regularity._rational(x, det) == str(Fraction(x, det))

    @settings(max_examples=3)
    @given(configurations(6))
    def test_equals_one_lp_per_node_on_drawn_configurations_n6(self, cfg):
        self.check_drawn(cfg)

    def test_classify_solves_one_lp_per_pair(self, graphs, monkeypatch, capsys):
        from zonotiling.cli import main

        solved = []
        real = regularity._maximize

        def counted(obj, cols, m, width):
            solved.append(m)
            return real(obj, cols, m, width)

        monkeypatch.setattr(regularity, "_maximize", counted)
        assert main(["classify", "--n", "6"]) == 0
        assert len(solved) == 454 == (len(graphs(6)) + 1) // 2
        assert "verdicts: 454 by LP, 454 by half-turn" in capsys.readouterr().out

    def test_mirror_check_is_live(self):
        # -h realizes the complement key only: on any other key it is refused
        cfg = standard_config(5)
        table = regularity._integer_circuits(cfg)
        h = regularity._certify(cfg, 0)[0]
        assert regularity._mirror(h, 0b1111111111, table) == tuple(-x for x in h)
        for key in (0, 0b1111111110):
            with pytest.raises(AssertionError, match="negated witness does not realize"):
                regularity._mirror(h, key, table)


@pytest.mark.slow
def test_regular_set_n7(graphs):
    result = regular_set(graphs(7))
    assert (len(result.nodes), len(graphs(7))) == (22_408, 24_698)


@pytest.mark.slow
def test_completeness_10k_random_heights_n6(graphs, certificates):
    # every height-built tiling must land in the classified-regular set
    g = graphs(6)
    regular_keys = {
        g.keys[v] for v, cert in enumerate(certificates(6)) if cert[0] is not None
    }
    cfg = standard_config(6)
    rng = random.Random(123)
    done = 0
    while done < 10_000:
        h = [Fraction(rng.randint(-200, 200), rng.randint(1, 11)) for _ in range(6)]
        try:
            t = tiling_from_heights(cfg, h)
        except ValueError:
            continue
        done += 1
        assert orientation_of(t).bits in regular_keys
