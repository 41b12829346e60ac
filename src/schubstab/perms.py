"""Symmetric-group elements in one-line notation, their lengths, and the
rank gate that every rank refusal of the package goes through.

A permutation w of {1..n} is stored as the tuple (w(1), ..., w(n)) and
composition is functional: (p * q)(i) = p(q(i)).  The length of w is the
number of inversions, i.e. pairs (i, j) with i < j and w(i) > w(j), which
equals the length of any reduced word for w in the adjacent transpositions
s_1, ..., s_{n-1}.

Enumeration order used throughout the package (and in certificate output):
length ascending, then one-line notation lexicographically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class Permutation:
    """Permutation of {1..n} in one-line notation (a tuple of ints)."""

    word: tuple[int, ...]

    def __post_init__(self) -> None:
        word = tuple(self.word)
        object.__setattr__(self, "word", word)
        n = len(word)
        if n == 0:
            raise ValueError("rank must be at least 1")
        if any(type(v) is not int for v in word):
            raise TypeError(f"permutation entries must be ints: {word!r}")
        if sorted(word) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {word!r}")

    @staticmethod
    def identity(n: int) -> "Permutation":
        if n < 1:
            raise ValueError("rank must be at least 1")
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def simple(j: int, n: int) -> "Permutation":
        """The adjacent transposition s_j swapping j and j+1, for 1 <= j < n."""
        if type(j) is not int:
            raise TypeError(f"simple reflection index {j!r} must be an int")
        if not 1 <= j <= n - 1:
            raise ValueError(f"simple reflection index {j} out of range for rank {n}")
        word = list(range(1, n + 1))
        word[j - 1], word[j] = word[j], word[j - 1]
        return Permutation(tuple(word))

    @staticmethod
    def longest(n: int) -> "Permutation":
        """The order-reversing permutation (n, n-1, ..., 1)."""
        if n < 1:
            raise ValueError("rank must be at least 1")
        return Permutation(tuple(range(n, 0, -1)))

    @property
    def n(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        """Image of i (1-indexed)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} out of range for rank {self.n}")
        return self.word[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Functional composition: (p * q)(i) = p(q(i))."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} vs {other.n}")
        return Permutation(tuple(self.word[v - 1] for v in other.word))

    def inverse(self) -> "Permutation":
        out = [0] * self.n
        for i, v in enumerate(self.word):
            out[v - 1] = i + 1
        return Permutation(tuple(out))

    def inversions(self) -> frozenset[tuple[int, int]]:
        """All pairs (i, j) with i < j and w(i) > w(j)."""
        w = self.word
        return frozenset(
            (i + 1, j + 1)
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if w[i] > w[j]
        )

    def length(self) -> int:
        """Number of inversions, counted on the first call and kept on the
        instance (outside the dataclass fields, so ==, hash and repr ignore it)."""
        try:
            return self.__dict__["_length"]
        except KeyError:
            pass
        w = self.word
        n = len(w)
        count = sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])
        object.__setattr__(self, "_length", count)
        return count

    def left_descents(self) -> list[int]:
        """Values a with length(s_a * w) < length(w), ascending.

        a is a left descent exactly when a appears after a+1 in the one-line
        word, i.e. w^{-1}(a) > w^{-1}(a+1).
        """
        pos = {v: i for i, v in enumerate(self.word)}
        return [a for a in range(1, self.n) if pos[a] > pos[a + 1]]

    def to_json(self) -> list[int]:
        return list(self.word)

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.word) + "]"


def check_rank(n: int, limit: int, what: str) -> None:
    """The rank gate of `what`: ValueError unless n is an int (not a bool)
    with 1 <= n <= limit."""
    if type(n) is not int or not 1 <= n <= limit:
        raise ValueError(f"rank {n} is outside 1..{limit} for {what}")


def check_count(value: int, what: str, least: int = 1) -> None:
    """The gate of a count such as trials, a bound or a power: TypeError
    unless value is an int (not a bool), ValueError below least."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an int, not {value!r}")
    if value < least:
        raise ValueError(f"{what} must be at least {least}")


def sort_key(w: Permutation) -> tuple[int, tuple[int, ...]]:
    """Canonical ordering key: length first, then one-line word."""
    return (w.length(), w.word)


# The largest rank any caller admits: double_schubert_expansion, at
# MAX_DOUBLE_SCHUBERT_RANK, and `verify demazure`, whose certificate walks
# this group.  `verify demazure --n 7 --json` (20 trials, 5 040 permutations
# each) takes 0.9 s at a 35 MiB peak on a 2-core Xeon container under
# Python 3.11.7; rank 11 would build 39 916 800 permutations.
MAX_ENUMERATED_RANK = 7


# One entry per rank, at most MAX_ENUMERATED_RANK: check_rank raises above it.
@lru_cache(maxsize=None)
def symmetric_group(n: int) -> tuple[Permutation, ...]:
    """All n! permutations of {1..n}, length ascending then lexicographic.
    Ranks beyond MAX_ENUMERATED_RANK are refused before any is built."""
    check_rank(n, MAX_ENUMERATED_RANK, "enumerating the symmetric group")
    perms = [Permutation(p) for p in itertools.permutations(range(1, n + 1))]
    perms.sort(key=sort_key)
    return tuple(perms)
