from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zonotiling import (
    NonGenericHeightError,
    OrientationVector,
    circuits,
    make_config,
    sigma_h,
    standard_config,
    to_rational,
)
from zonotiling.core import (
    colex_pairs,
    colex_triples,
    pair_rank,
    triple_rank,
)


def cramer_alpha(a_p, a_q, a_r):
    """Independent route to the dependence coefficients.

    Fix alpha_q = a_p - a_r and solve the 2x2 system
        alpha_p * a_p + alpha_r * a_r = -alpha_q * a_q
        alpha_p       + alpha_r       = -alpha_q
    by Cramer's rule.
    """
    aq = a_p - a_r
    det = a_p - a_r
    b1 = -aq * a_q
    b2 = -aq
    ap = (b1 - b2 * a_r) / det
    ar = (b2 * a_p - b1) / det
    return (ap, aq, ar)


class TestMakeConfig:
    def test_basic(self):
        cfg = make_config([-1, 0, 1, 2])
        assert cfg.n == 4
        assert cfg.lift[0] == (Fraction(-1), 1)

    def test_two_points_no_circuits(self):
        cfg = make_config([0, 1])
        assert circuits(cfg) == ()

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            make_config([0, 0, 1])

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            make_config([1, 0, 2])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            make_config([3])

    def test_string_and_fraction_coords(self):
        cfg = make_config(["-1/2", 0, Fraction(3, 4)])
        assert cfg.coords == (Fraction(-1, 2), Fraction(0), Fraction(3, 4))

    def test_json_round_trip(self):
        cfg = make_config(["-1", "0", "1/2", "2"])
        assert make_config(cfg.to_json()["points"]) == cfg

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            to_rational(0.5)

    def test_zero_denominator_names_the_coordinate(self):
        with pytest.raises(ValueError, match="'3/0' has a zero denominator"):
            make_config(["1", "2", " 3/0"])


class TestCircuits:
    def test_single_circuit_alpha(self):
        (c,) = circuits(make_config([0, 1, 2]))
        assert c.triple == (1, 2, 3)
        assert c.positive == (1, 3)
        assert c.negative == (2,)
        assert c.alpha == (1, -2, 1)

    def test_known_alpha_for_wider_circuit(self):
        cfg = make_config([-1, 0, 1, 2])
        by_triple = {c.triple: c for c in circuits(cfg)}
        assert by_triple[(1, 2, 4)].alpha == (2, -3, 1)

    def test_cramer_cross_check(self):
        cfg = make_config(["-3/2", "-1/3", 0, 2, "7/2"])
        for c in circuits(cfg):
            coords = [cfg.coord(i) for i in c.triple]
            assert c.alpha == cramer_alpha(*coords)

    @given(
        st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=6),
            min_size=3,
            max_size=6,
            unique=True,
        )
    )
    def test_alpha_invariants(self, coords):
        cfg = make_config(sorted(coords))
        for c in circuits(cfg):
            ap, aq, ar = c.alpha
            assert ap > 0 and ar > 0 and aq < 0
            assert ap + aq + ar == 0
            assert (
                ap * cfg.coord(c.p) + aq * cfg.coord(c.q) + ar * cfg.coord(c.r) == 0
            )

    def test_colex_order_and_ranks(self):
        cfg = standard_config(6)
        cs = circuits(cfg)
        assert [c.triple for c in cs] == list(colex_triples(6))
        for rank, c in enumerate(cs):
            assert triple_rank(*c.triple) == rank
        for rank, (i, j) in enumerate(colex_pairs(6)):
            assert pair_rank(i, j) == rank

    def test_count(self):
        assert len(circuits(standard_config(7))) == 35


class TestSigmaH:
    def test_fixtures(self):
        cfg = make_config([0, 1, 2])
        assert list(sigma_h(cfg, (0, 0, 1)).signs()) == [1]
        assert list(sigma_h(cfg, (1, 0, 0)).signs()) == [1]
        assert list(sigma_h(cfg, (0, 1, 0)).signs()) == [-1]

    def test_non_generic_reports_circuit(self):
        cfg = make_config([0, 1, 2])
        with pytest.raises(NonGenericHeightError) as exc:
            sigma_h(cfg, (0, 1, 2))
        assert exc.value.triple == (1, 2, 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sigma_h(make_config([0, 1, 2]), (0, 1))

    @given(
        st.lists(st.integers(-30, 30), min_size=4, max_size=4),
        st.fractions(min_value="1/5", max_value=9, max_denominator=5),
    )
    def test_positive_scaling_invariance(self, heights, lam):
        cfg = standard_config(4)
        try:
            base = sigma_h(cfg, heights)
        except NonGenericHeightError:
            return
        scaled = sigma_h(cfg, [lam * h for h in map(Fraction, heights)])
        assert scaled == base

    @given(st.lists(st.integers(-30, 30), min_size=5, max_size=5))
    def test_negation(self, heights):
        cfg = standard_config(5)
        try:
            base = sigma_h(cfg, heights)
        except NonGenericHeightError:
            return
        assert sigma_h(cfg, [-h for h in heights]) == base.negated()


class TestOrientationVector:
    def test_round_trip(self):
        signs = [1, -1, -1, 1, -1]
        vec = OrientationVector.from_signs(signs)
        assert list(vec.signs()) == signs
        assert vec.inversions() == 3
        assert len(vec) == 5

    def test_negated(self):
        vec = OrientationVector.from_signs([1, -1, 1])
        assert list(vec.negated().signs()) == [-1, 1, -1]

    def test_hex_width(self):
        assert OrientationVector(10, 0).to_hex() == "000"
        assert OrientationVector(0, 0).to_hex() == "0"

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            OrientationVector.from_signs([1, 0])

    def test_bits_out_of_range(self):
        with pytest.raises(ValueError):
            OrientationVector(2, 8)
