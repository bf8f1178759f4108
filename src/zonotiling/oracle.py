"""Independent tiling-count oracle via reduced words of the longest permutation.

The number of fine zonotopal tilings on n distinct points equals the number
of commutation classes of reduced words of the longest element of S_n.  This
module computes that count purely by word rewriting - breadth-first closure
under commutation moves (swap adjacent letters that differ by at least 2)
and braid moves (aba <-> bab for adjacent letters), starting from the
staircase word.  Commutation moves also feed a union-find, whose root count
is the number of commutation classes.

Nothing here touches tiles, flips, or orientation vectors; the two counting
routes share no code.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import comb, factorial


# Largest n the closure runs for: 292,864 reduced words at n = 6, against
# 1,100,742,656 at n = 7.
ORACLE_MAX_N = 6


@dataclass(frozen=True)
class OracleCount:
    n: int
    reduced_words: int
    commutation_classes: int


def staircase_word(n: int) -> bytes:
    """The reduced word s1 s2 s1 s3 s2 s1 ... of the longest element of S_n."""
    letters = []
    for j in range(1, n):
        letters.extend(range(j, 0, -1))
    return bytes(letters)


def apply_word(n: int, word: bytes) -> tuple[int, ...]:
    """Right-to-left action of a word of adjacent transpositions on identity."""
    perm = list(range(1, n + 1))
    for s in word:
        perm[s - 1], perm[s] = perm[s], perm[s - 1]
    return tuple(perm)


def reduced_word_count_formula(n: int) -> int:
    """Hook-product count of reduced words of the longest element of S_n."""
    length = comb(n, 2)
    denom = 1
    for i in range(1, n):
        denom *= (2 * i - 1) ** (n - i)
    return factorial(length) // denom


class _UnionFind:
    def __init__(self) -> None:
        self.parent: list[int] = []
        self.size: list[int] = []

    def add(self) -> int:
        self.parent.append(len(self.parent))
        self.size.append(1)
        return len(self.parent) - 1

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        if self.size[rx] < self.size[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        self.size[rx] += self.size[ry]


def commutation_census(n: int) -> OracleCount:
    """Count reduced words of the longest element and their commutation classes.

    Closure under commutation and braid moves reaches every reduced word;
    only commutation edges merge union-find components.  The closure holds
    every reduced word, so n above ORACLE_MAX_N is refused before any is built.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if n > ORACLE_MAX_N:
        raise ValueError(
            f"n={n} exceeds the oracle limit {ORACLE_MAX_N}: the closure would hold "
            f"{reduced_word_count_formula(n):,} reduced words"
        )
    start = staircase_word(n)
    expected_longest = tuple(range(n, 0, -1))
    if apply_word(n, start) != expected_longest:
        raise AssertionError("staircase word does not produce the longest element")

    uf = _UnionFind()
    index: dict[bytes, int] = {start: uf.add()}
    queue = deque([start])
    length = len(start)
    while queue:
        word = queue.popleft()
        wi = index[word]
        for pos in range(length - 1):
            a = word[pos]
            b = word[pos + 1]
            gap = a - b
            if gap >= 2 or gap <= -2:
                swapped = word[:pos] + bytes((b, a)) + word[pos + 2 :]
                si = index.get(swapped)
                if si is None:
                    si = uf.add()
                    index[swapped] = si
                    queue.append(swapped)
                uf.union(wi, si)
            elif pos + 2 < length and word[pos + 2] == a and (gap == 1 or gap == -1):
                braided = word[:pos] + bytes((b, a, b)) + word[pos + 3 :]
                if braided not in index:
                    index[braided] = uf.add()
                    queue.append(braided)
    classes = len({uf.find(i) for i in range(len(uf.parent))})
    return OracleCount(n, len(index), classes)
