"""Independent tiling-count oracle via reduced words of the longest permutation.

The number of fine zonotopal tilings on n distinct points equals the number
of commutation classes of reduced words of the longest element w0 of S_n.
This module counts those classes purely on words over the adjacent
transpositions s_0 .. s_(n-2), by a depth-first walk that visits only the
lexicographically least word of each class (Anisimov-Knuth, "Inhomogeneous
sorting", 1979).  The reduced words themselves are counted by a separate
route: maximal chains of the weak order, summed over descents from w0.

Nothing here touches tiles, flips, or orientation vectors; the two counting
routes share no code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb, factorial


# Largest n the walk runs for: it visits one word per commutation class,
# 1,232,944 at n = 8 (about 50 s) against 112,018,190 at n = 9.
ORACLE_MAX_N = 8


@dataclass(frozen=True)
class OracleCount:
    n: int
    reduced_words: int
    commutation_classes: int


def reduced_word_count_formula(n: int) -> int:
    """Hook-product count of reduced words of the longest element of S_n."""
    length = comb(n, 2)
    denom = 1
    for i in range(1, n):
        denom *= (2 * i - 1) ** (n - i)
    return factorial(length) // denom


def reduced_word_count(n: int) -> int:
    """Reduced words of w0 as maximal chains of the weak order on S_n.

    A reduced word of w ends in s_a exactly when a is a descent of w, so the
    count of w is the sum over its descents of the count of w s_a.
    """

    @cache
    def count(perm: tuple[int, ...]) -> int:
        descents = [a for a in range(n - 1) if perm[a] > perm[a + 1]]
        if not descents:
            return 1  # the identity
        return sum(
            count(perm[:a] + (perm[a + 1], perm[a]) + perm[a + 2 :]) for a in descents
        )

    return count(tuple(range(n - 1, -1, -1)))


def commutation_class_count(n: int) -> int:
    """Commutation classes of reduced words of w0, one lexicographic normal form each.

    A word is least in its class exactly when it has no factor b u a with
    a < b and a commuting with b and with every letter of u.  Every prefix of
    such a word is again least in its class, so the walk appends a letter a
    only when it lengthens the word and no letter b > a is met scanning back
    through the letters that commute with a.  Memory is O(C(n, 2)).
    """
    length = comb(n, 2)
    perm = list(range(n))  # the word's permutation; s_a swaps positions a, a + 1
    word: list[int] = []

    def least_with(a: int) -> bool:
        for b in reversed(word):
            if abs(b - a) < 2:
                return True  # the first letter that does not commute with a
            if b > a:
                return False
        return True

    def walk() -> int:
        if len(word) == length:
            return 1
        total = 0
        for a in range(n - 1):
            if perm[a] < perm[a + 1] and least_with(a):  # s_a lengthens the word
                perm[a], perm[a + 1] = perm[a + 1], perm[a]
                word.append(a)
                total += walk()
                word.pop()
                perm[a], perm[a + 1] = perm[a + 1], perm[a]
        return total

    return walk()


def commutation_census(n: int) -> OracleCount:
    """Count reduced words of the longest element and their commutation classes.

    n above ORACLE_MAX_N is refused before the walk starts.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if n > ORACLE_MAX_N:
        raise ValueError(
            f"n={n} exceeds the oracle limit {ORACLE_MAX_N}: the walk visits one "
            "word per commutation class, already 112,018,190 at n = 9"
        )
    return OracleCount(n, reduced_word_count(n), commutation_class_count(n))
