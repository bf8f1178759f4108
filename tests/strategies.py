"""Hypothesis strategies shared by the test modules."""

from fractions import Fraction

from hypothesis import strategies as st

from zonotiling import make_config


def _points(start, gaps):
    points = [Fraction(start)]
    for gap in gaps:
        points.append(points[-1] + gap)
    return points


def configurations(n):
    """Rational configurations: random spacings, a_i = i^2, near-degenerate
    gaps, and gaps with large prime denominators such as 1/997."""
    spacing = st.fractions(min_value=Fraction(1, 7), max_value=6, max_denominator=7)
    tiny = st.integers(100, 1000).map(lambda d: Fraction(1, d))
    prime = st.sampled_from([983, 991, 997])
    large = st.builds(Fraction, st.integers(1, 2000), prime)
    start = st.integers(-3, 3)

    def gaps(*kinds):
        return st.lists(st.one_of(*kinds), min_size=n - 1, max_size=n - 1)

    return st.one_of(
        st.builds(_points, start, gaps(spacing)),
        start.map(lambda s: [s + i * i for i in range(1, n + 1)]),
        st.builds(_points, start, gaps(tiny, spacing)),
        st.builds(_points, start, gaps(large, tiny)),
    ).map(make_config)
