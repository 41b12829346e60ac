"""Symmetric-group elements in one-line notation, their lengths, and the
rank gate that every rank refusal of the package goes through.

A permutation w of {1..n} is stored as the tuple (w(1), ..., w(n)) and
composition is functional: (p * q)(i) = p(q(i)).  The length of w is the
number of inversions, i.e. pairs (i, j) with i < j and w(i) > w(j), which
equals the length of any reduced word for w in the adjacent transpositions
s_1, ..., s_{n-1}.

A word from outside the package is checked once, by Permutation(word).
Every permutation the package forms from valid ones (a product, an
inverse, a simple reflection, the identity, the longest element, an
element of the group) is wrapped by Permutation._trusted unchecked, so a
product costs one tuple and one hash; and group_by_word(n) maps one-line
words to the group's own elements, so a walk on words builds none.

Enumeration order used throughout the package (and in certificate output):
length ascending, then one-line notation lexicographically.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


class Permutation:
    """Permutation of {1..n} in one-line notation (a tuple of ints).

    Permutation(word) validates word; Permutation._trusted(word) wraps a
    word this package built from valid ones and checks nothing.  Both end
    in _trusted, the one construction point, which keeps the word and its
    hash, hash((word,)).  Immutable; the length is counted on the first
    call of length() and kept."""

    __slots__ = ("word", "_hash", "_length")

    def __new__(cls, word) -> "Permutation":
        word = tuple(word)
        n = len(word)
        if n == 0:
            raise ValueError("rank must be at least 1")
        if any(type(v) is not int for v in word):
            raise TypeError(f"permutation entries must be ints: {word!r}")
        if sorted(word) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {word!r}")
        return cls._trusted(word)

    @classmethod
    def _trusted(cls, word: tuple[int, ...]) -> "Permutation":
        """Wrap a tuple holding 1..len(word) once each.  Nothing is checked."""
        p = object.__new__(cls)
        _set_word(p, word)
        _set_hash(p, hash((word,)))
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    def __delattr__(self, name):
        raise AttributeError("Permutation is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.word == other.word
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Permutation(word={self.word!r})"

    # A pickle or a copy is rebuilt through the validating constructor.
    def __reduce__(self):
        return (Permutation, (self.word,))

    @staticmethod
    def identity(n: int) -> "Permutation":
        if n < 1:
            raise ValueError("rank must be at least 1")
        return Permutation._trusted(tuple(range(1, n + 1)))

    @staticmethod
    def simple(j: int, n: int) -> "Permutation":
        """The adjacent transposition s_j swapping j and j+1, for 1 <= j < n."""
        if type(j) is not int:
            raise TypeError(f"simple reflection index {j!r} must be an int")
        if not 1 <= j <= n - 1:
            raise ValueError(f"simple reflection index {j} out of range for rank {n}")
        word = list(range(1, n + 1))
        word[j - 1], word[j] = word[j], word[j - 1]
        return Permutation._trusted(tuple(word))

    @staticmethod
    def longest(n: int) -> "Permutation":
        """The order-reversing permutation (n, n-1, ..., 1)."""
        if n < 1:
            raise ValueError("rank must be at least 1")
        return Permutation._trusted(tuple(range(n, 0, -1)))

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
        p, q = self.word, other.word
        if len(p) != len(q):
            raise ValueError(f"rank mismatch: {len(p)} vs {len(q)}")
        return Permutation._trusted(tuple([p[v - 1] for v in q]))

    def inverse(self) -> "Permutation":
        out = [0] * self.n
        for i, v in enumerate(self.word):
            out[v - 1] = i + 1
        return Permutation._trusted(tuple(out))

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
        """Number of inversions, counted on the first call and kept."""
        try:
            return self._length
        except AttributeError:
            pass
        w = self.word
        n = len(w)
        count = sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])
        _set_length(self, count)
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


# The slots are written through their descriptors, past __setattr__.
_set_word = Permutation.word.__set__
_set_hash = Permutation._hash.__set__
_set_length = Permutation._length.__set__


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


def check_seed(seed: int) -> None:
    """The gate of a certificate's seed: TypeError unless seed is an int
    (not a bool), so that the seed a certificate echoes replays it."""
    if type(seed) is not int:
        raise TypeError(f"seed must be an int, not {seed!r}")


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
    perms = [Permutation._trusted(p) for p in itertools.permutations(range(1, n + 1))]
    perms.sort(key=sort_key)
    return tuple(perms)


# One entry per rank, at most MAX_ENUMERATED_RANK: symmetric_group raises
# above it.
@lru_cache(maxsize=None)
def group_by_word(n: int) -> dict[tuple[int, ...], Permutation]:
    """The elements of symmetric_group(n) keyed by their one-line words, so
    a word the caller built is looked up instead of wrapped."""
    return {w.word: w for w in symmetric_group(n)}
