import pytest

from zonotiling import oracle
from zonotiling.oracle import (
    ORACLE_MAX_N,
    apply_word,
    commutation_census,
    reduced_word_count_formula,
    staircase_word,
)


def test_staircase_word_sorts_the_longest_element():
    for n in (2, 3, 4, 5, 6):
        word = staircase_word(n)
        assert len(word) == n * (n - 1) // 2
        assert apply_word(n, word) == tuple(range(n, 0, -1))


def test_word_counts_match_hook_formula():
    # independent arithmetic check on the closure size
    assert reduced_word_count_formula(3) == 2
    assert reduced_word_count_formula(4) == 16
    assert reduced_word_count_formula(5) == 768
    for n in (2, 3, 4, 5):
        assert commutation_census(n).reduced_words == reduced_word_count_formula(n)


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
    # n = 7 would close over every one of 1,100,742,656 reduced words
    def no_words(n):
        raise AssertionError("a word was built")

    monkeypatch.setattr(oracle, "staircase_word", no_words)
    assert ORACLE_MAX_N == 6
    with pytest.raises(ValueError, match=r"limit 6: .* 1,100,742,656 reduced words"):
        commutation_census(7)


@pytest.mark.slow
def test_commutation_classes_n6():
    result = commutation_census(6)
    assert result.reduced_words == reduced_word_count_formula(6)
    assert result.commutation_classes == 908
