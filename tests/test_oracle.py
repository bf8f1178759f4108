import pytest

from zonotiling import oracle
from zonotiling.oracle import (
    ORACLE_MAX_N,
    commutation_census,
    reduced_word_count,
    reduced_word_count_formula,
)


def test_word_counts_match_hook_formula():
    # independent arithmetic check on the weak-order chain count
    assert reduced_word_count_formula(3) == 2
    assert reduced_word_count_formula(4) == 16
    assert reduced_word_count_formula(5) == 768
    for n in (2, 3, 4, 5):
        assert commutation_census(n).reduced_words == reduced_word_count_formula(n)


@pytest.mark.parametrize("n", range(2, 9))
def test_weak_order_chains_match_hook_formula(n):
    assert reduced_word_count(n) == reduced_word_count_formula(n)


@pytest.mark.parametrize(
    "n,classes",
    [(2, 1), (3, 2), (4, 8), (5, 62)],
)
def test_commutation_class_counts(n, classes):
    assert commutation_census(n).commutation_classes == classes


def test_rejects_tiny_n():
    with pytest.raises(ValueError):
        commutation_census(1)


def test_refuses_above_the_limit_before_building_a_word(monkeypatch):
    # n = 9 would walk 112,018,190 commutation classes
    def no_walk(n):
        raise AssertionError("the walk started")

    monkeypatch.setattr(oracle, "commutation_class_count", no_walk)
    monkeypatch.setattr(oracle, "reduced_word_count", no_walk)
    assert ORACLE_MAX_N == 8
    with pytest.raises(ValueError, match=r"limit 8: .* 112,018,190 at n = 9"):
        commutation_census(9)


def test_commutation_classes_n6():
    result = commutation_census(6)
    assert result.reduced_words == reduced_word_count_formula(6)
    assert result.commutation_classes == 908


@pytest.mark.slow
def test_commutation_classes_n8():
    result = commutation_census(8)
    assert result.reduced_words == reduced_word_count_formula(8)
    assert result.commutation_classes == 1232944
