"""Exact sparse polynomials over Q with a symmetric-group action on the
x-variables and divided-difference operators.

A Poly lives in Q[x_1..x_nx, y_1..y_ny].  Terms map exponent tuples of
length nx + ny (x-block first) to nonzero `fractions.Fraction`
coefficients, so `==` is exact polynomial identity.  Most of the package
works in the pure-x ring (ny = 0); the y-block exists for two-alphabet
polynomials and is inert under the group action and the operators.

The divided-difference operator of index j sends f to
(f - s_j f) / (x_j - x_{j+1}), where s_j swaps x_j and x_{j+1}.  It is
computed monomial by monomial, with no subtraction and no division: if a
monomial has exponents p > q on x_j, x_{j+1}, its image is the sum over
k = 0..p-q-1 of the monomial with those exponents replaced by
(p-1-k, q+k); if p < q, it is minus the image of the monomial with p and q
swapped; if p = q, it is 0 (Macdonald, Notes on Schubert Polynomials,
1991, ch. II).

`Poly(nx, ny, terms)` and every named constructor validate their input:
exponent tuples of width nx + ny, no negative exponent, coefficients
converted by `as_fraction` (a float is refused) and zeros dropped.  Results
the module computes itself (sums, negatives, products, the x-action,
divided differences and the two-alphabet moves) are built already in that
form and wrapped by `Poly._trusted`, which checks nothing.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .perms import (
    Permutation,
    canonical_reduced_word,
    longest_reduced_word_count,
    reduced_words,
    symmetric_group,
)

Exponent = tuple[int, ...]
Scalar = Union[int, Fraction]


def as_fraction(value: Union[Scalar, str]) -> Fraction:
    """Fraction(value) for an int, Fraction or "p/q" string; TypeError on a float."""
    if isinstance(value, float):
        raise TypeError(f"float {value!r} is not exact; give an int, Fraction or 'p/q'")
    return Fraction(value)


def _accumulate(
    acc: dict[Exponent, Fraction], terms: Iterable[tuple[Exponent, Fraction]]
) -> dict[Exponent, Fraction]:
    """Add nonzero terms into acc in place, dropping keys whose sum is zero."""
    for k, v in terms:
        if k in acc:
            s = acc[k] + v
            if s:
                acc[k] = s
            else:
                del acc[k]
        else:
            acc[k] = v
    return acc


class Poly:
    """Immutable sparse polynomial with Fraction coefficients."""

    __slots__ = ("nx", "ny", "terms")

    def __init__(self, nx: int, ny: int, terms: Mapping[Exponent, Scalar]):
        if nx < 0 or ny < 0:
            raise ValueError("variable counts must be nonnegative")
        clean: dict[Exponent, Fraction] = {}
        width = nx + ny
        for exp, c in terms.items():
            exp = tuple(exp)
            if len(exp) != width:
                raise ValueError(f"exponent {exp} has {len(exp)} slots, ring has {width}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            c = as_fraction(c)
            if c:
                clean[exp] = c
        object.__setattr__(self, "nx", nx)
        object.__setattr__(self, "ny", ny)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, nx: int, ny: int, terms: dict[Exponent, Fraction]) -> "Poly":
        """Wrap terms this module built: tuple keys of width nx + ny with
        nonnegative entries, nonzero Fraction values.  Nothing is checked."""
        p = object.__new__(cls)
        object.__setattr__(p, "nx", nx)
        object.__setattr__(p, "ny", ny)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # ------------------------------------------------------- constructors

    @staticmethod
    def zero(nx: int, ny: int = 0) -> "Poly":
        return Poly(nx, ny, {})

    @staticmethod
    def const(value: Scalar, nx: int, ny: int = 0) -> "Poly":
        return Poly(nx, ny, {(0,) * (nx + ny): value})

    @staticmethod
    def one(nx: int, ny: int = 0) -> "Poly":
        return Poly.const(1, nx, ny)

    @staticmethod
    def x(i: int, nx: int, ny: int = 0) -> "Poly":
        """The variable x_i (1-indexed)."""
        if not 1 <= i <= nx:
            raise ValueError(f"x-index {i} out of range for {nx} x-variables")
        exp = [0] * (nx + ny)
        exp[i - 1] = 1
        return Poly(nx, ny, {tuple(exp): Fraction(1)})

    @staticmethod
    def y(i: int, nx: int, ny: int) -> "Poly":
        """The variable y_i (1-indexed)."""
        if not 1 <= i <= ny:
            raise ValueError(f"y-index {i} out of range for {ny} y-variables")
        exp = [0] * (nx + ny)
        exp[nx + i - 1] = 1
        return Poly(nx, ny, {tuple(exp): Fraction(1)})

    @staticmethod
    def monomial(exp: Iterable[int], coeff: Scalar, nx: int, ny: int = 0) -> "Poly":
        return Poly(nx, ny, {tuple(exp): coeff})

    # -------------------------------------------------------- ring queries

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exp: Iterable[int]) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

    def total_degree(self) -> int:
        """Max total degree of a term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def items_sorted(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in graded lexicographic order (total degree, then exponents)."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    # ---------------------------------------------------------- arithmetic

    def _check_ring(self, other: "Poly") -> None:
        if self.nx != other.nx or self.ny != other.ny:
            raise ValueError(
                f"ring mismatch: ({self.nx},{self.ny}) vs ({other.nx},{other.ny})"
            )

    def __add__(self, other: Union["Poly", Scalar]) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other, self.nx, self.ny)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_ring(other)
        out = _accumulate(dict(self.terms), other.terms.items())
        return Poly._trusted(self.nx, self.ny, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.nx, self.ny, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Union["Poly", Scalar]) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other, self.nx, self.ny)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Poly":
        return Poly.const(other, self.nx, self.ny) - self

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Poly._trusted(self.nx, self.ny, {})
            return Poly._trusted(self.nx, self.ny, {e: c * v for e, v in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_ring(other)
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                if key in out:
                    out[key] += c1 * c2
                else:
                    out[key] = c1 * c2
        return Poly._trusted(self.nx, self.ny, {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        out = Poly.one(self.nx, self.ny)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other, self.nx, self.ny)
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.nx, self.ny) == (other.nx, other.ny) and self.terms == other.terms

    __hash__ = None  # mutable dict inside; polynomials are not dict keys

    # ------------------------------------------------------------- display

    def _var_name(self, slot: int) -> str:
        if slot < self.nx:
            return f"x{slot + 1}"
        return f"y{slot - self.nx + 1}"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        ordered = sorted(self.terms.items(), key=lambda kv: (-sum(kv[0]), kv[0]))
        for exp, c in ordered:
            factors = []
            for slot, e in enumerate(exp):
                if e == 1:
                    factors.append(self._var_name(slot))
                elif e > 1:
                    factors.append(f"{self._var_name(slot)}^{e}")
            body = "*".join(factors)
            if not body:
                piece = str(abs(c))
            elif abs(c) == 1:
                piece = body
            else:
                piece = f"{abs(c)}*{body}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, piece))
        first_sign, first_piece = parts[0]
        text = ("-" if first_sign == "-" else "") + first_piece
        for sign, piece in parts[1:]:
            text += f" {sign} {piece}"
        return text

    def __repr__(self) -> str:
        return f"Poly({self})"

    def to_json(self) -> dict:
        """Schema: {"nvars": k, "terms": [{"exp": [...], "num": "...", "den": "..."}]}."""
        return {
            "nvars": self.nx + self.ny,
            "terms": [
                {
                    "exp": list(exp),
                    "num": str(c.numerator),
                    "den": str(c.denominator),
                }
                for exp, c in self.items_sorted()
            ],
        }


# ------------------------------------------------------------ group action


def permute_x(w: Permutation, f: Poly) -> Poly:
    """Act on the x-variables: x_i -> x_{w(i)}; y-variables are fixed."""
    if w.n != f.nx:
        raise ValueError(f"rank mismatch: permutation of {w.n}, polynomial has {f.nx} x-variables")
    out: dict[Exponent, Fraction] = {}
    for exp, c in f.terms.items():
        moved = [0] * f.nx
        for i in range(f.nx):
            moved[w.word[i] - 1] = exp[i]
        out[tuple(moved) + exp[f.nx :]] = c
    return Poly._trusted(f.nx, f.ny, out)


def is_symmetric(f: Poly) -> bool:
    """True when f is invariant under every permutation of the x-variables."""
    return all(
        permute_x(Permutation.simple(j, f.nx), f) == f for j in range(1, f.nx)
    )


def divided_difference(j: int, f: Poly) -> Poly:
    """(f - s_j f) / (x_j - x_{j+1}), by the monomial formula.

    Write a monomial as x_j^p x_{j+1}^q r, with r free of x_j and x_{j+1}.
    For p > q its image is the sum of x_j^(p-1-k) x_{j+1}^(q+k) r over
    k = 0..p-q-1; for p < q it is minus the image of x_j^q x_{j+1}^p r; for
    p = q it is 0.  The y-variables sit in r and are inert.
    """
    if not 1 <= j <= f.nx - 1:
        raise ValueError(f"operator index {j} out of range for {f.nx} x-variables")
    slot = j - 1  # 0-based slot of x_j; x_{j+1} is the next one
    out: dict[Exponent, Fraction] = {}
    for exp, c in f.terms.items():
        p, q = exp[slot], exp[slot + 1]
        if p == q:
            continue
        if p < q:
            p, q, c = q, p, -c
        head, tail = exp[:slot], exp[slot + 2 :]
        _accumulate(out, ((head + (p - 1 - k, q + k) + tail, c) for k in range(p - q)))
    return Poly._trusted(f.nx, f.ny, out)


def demazure(w: Permutation, f: Poly) -> Poly:
    """Composite divided difference along any reduced word of w.

    The operators satisfy the braid relations, so the result does not depend
    on the chosen word; the canonical (lex-smallest) one is used.
    """
    if w.n != f.nx:
        raise ValueError(f"rank mismatch: permutation of {w.n}, polynomial has {f.nx} x-variables")
    out = f
    for a in reversed(canonical_reduced_word(w)):
        out = divided_difference(a, out)
    return out


# ----------------------------------------------------- two-alphabet moves


def _require_pure_x(f: Poly) -> None:
    if f.ny != 0:
        raise ValueError("expected a polynomial in the x-variables only")


def widen_with_y(f: Poly, ny: int) -> Poly:
    """Embed Q[x] into Q[x, y_1..y_ny]."""
    _require_pure_x(f)
    pad = (0,) * ny
    return Poly._trusted(f.nx, ny, {exp + pad: c for exp, c in f.terms.items()})


def x_to_neg_y(f: Poly, nx: int) -> Poly:
    """Send a pure-x polynomial f(x_1..x_k) to f(-y_1..-y_k) in Q[x_1..x_nx, y]."""
    _require_pure_x(f)
    out: dict[Exponent, Fraction] = {}
    pad = (0,) * nx
    for exp, c in f.terms.items():
        sign = -1 if sum(exp) % 2 else 1
        out[pad + exp] = sign * c
    return Poly._trusted(nx, f.nx, out)


def specialize_y_to_x(f: Poly) -> Poly:
    """Ring map y_i -> x_i; requires equal numbers of x- and y-variables."""
    if f.ny != f.nx:
        raise ValueError(f"need matching alphabets, got {f.nx} x- and {f.ny} y-variables")
    n = f.nx
    moved = ((tuple(exp[i] + exp[n + i] for i in range(n)), c) for exp, c in f.terms.items())
    return Poly._trusted(n, 0, _accumulate({}, moved))


def set_y_to_zero(f: Poly) -> Poly:
    """Ring map y_i -> 0, landing in the pure-x ring."""
    n, m = f.nx, f.ny
    out = {
        exp[:n]: c for exp, c in f.terms.items() if not any(exp[n:])
    }
    return Poly(n, 0, out)


def negate_x(f: Poly) -> Poly:
    """Ring map x_i -> -x_i (y-variables fixed)."""
    out = {}
    for exp, c in f.terms.items():
        sign = -1 if sum(exp[: f.nx]) % 2 else 1
        out[exp] = sign * c
    return Poly._trusted(f.nx, f.ny, out)


# -------------------------------------------------- randomness, checking


def random_poly(
    rng: random.Random,
    nx: int,
    ny: int = 0,
    max_degree: int = 6,
    n_terms: int = 6,
    coeff_bound: int = 9,
) -> Poly:
    """Random sparse polynomial; deterministic for a seeded rng."""
    width = nx + ny
    terms: dict[Exponent, Fraction] = {}
    for _ in range(n_terms):
        d = rng.randint(0, max_degree)
        exp = [0] * width
        for _ in range(d):
            exp[rng.randrange(width)] += 1
        num = rng.randint(-coeff_bound, coeff_bound)
        if num == 0:
            num = 1
        den = rng.randint(1, 3)
        key = tuple(exp)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(num, den)
    return Poly(nx, ny, terms)


# verify_demazure_relations walks every reduced word of every permutation;
# the longest one has 768 words at n = 5 and 292 864 at n = 6.
MAX_LONGEST_WORDS = 10_000


def demazure_word_count(n: int) -> int:
    """Number of reduced words of the longest permutation of rank n.

    This is the one gate of verify_demazure_relations, run before any work.
    Raises ValueError for n < 2, which has no relation to check, and beyond
    MAX_LONGEST_WORDS.  The count grows with the rank, so ranks are tried
    upwards and the first one over the limit refuses: a huge n never
    reaches the factorial of n(n-1)/2.
    """
    if n < 2:
        raise ValueError("need at least two variables")
    count = 1
    for k in range(2, n + 1):
        count = longest_reduced_word_count(k)
        if count > MAX_LONGEST_WORDS:
            raise ValueError(
                f"rank {n} has at least {count} reduced words for its longest "
                f"permutation, beyond the limit of {MAX_LONGEST_WORDS}"
            )
    return count


class _SuffixTable(dict):
    """Composites of divided differences along words, for one polynomial f.

    The entry of the empty word is f, and the entry of (a,) + tail is
    divided_difference(a, self[tail]): rightmost letter first, the way
    reduced_words builds its words from those of shorter permutations.
    Entries are computed on first lookup.
    """

    def __init__(self, f: Poly):
        super().__init__({(): f})

    def __missing__(self, word: tuple[int, ...]) -> Poly:
        out = self[word] = divided_difference(word[0], self[word[1:]])
        return out


def verify_demazure_relations(n: int, trials: int, seed: int) -> dict:
    """Certificate that the divided differences satisfy their algebra.

    Checks, on `trials` seeded random polynomials in n variables:
    square vanishing, the braid and commuting relations, the twisted
    Leibniz rule, and independence of demazure(w, -) from the choice of
    reduced word for every w in the rank-n group.

    Every composite is read from one suffix table per trial polynomial, so
    each distinct word suffix is applied once: d_j d_j f, both sides of the
    braid and commuting relations, d_j f and d_j g in the Leibniz rule, and
    every reduced word's composite.  Only d_j(fg) is applied outside a
    table.  Tables are keyed by words, never by permutations: a permutation
    key would give every reduced word of w one value, which is the claim
    under test.  Ranks below 2, and ranks whose longest permutation has
    more than MAX_LONGEST_WORDS reduced words, are refused with ValueError
    by demazure_word_count before any work.
    """
    demazure_word_count(n)
    rng = random.Random(seed)
    tables = [_SuffixTable(random_poly(rng, n)) for _ in range(trials)]
    violations: list[dict] = []
    counts = {
        "square_zero": 0,
        "braid": 0,
        "commuting": 0,
        "leibniz": 0,
        "reduced_word_independence": 0,
    }

    for t, table in enumerate(tables):
        for j in range(1, n):
            counts["square_zero"] += 1
            if not table[(j, j)].is_zero:
                violations.append({"relation": "square_zero", "j": j, "trial": t})
        for j in range(1, n - 1):
            counts["braid"] += 1
            if table[(j, j + 1, j)] != table[(j + 1, j, j + 1)]:
                violations.append({"relation": "braid", "j": j, "trial": t})
        for i in range(1, n):
            for j in range(i + 2, n):
                counts["commuting"] += 1
                if table[(i, j)] != table[(j, i)]:
                    violations.append({"relation": "commuting", "pair": [i, j], "trial": t})

    for t, f_table in enumerate(tables):
        g_table = tables[(t + 1) % len(tables)]
        f, g = f_table[()], g_table[()]
        for j in range(1, n):
            counts["leibniz"] += 1
            lhs = divided_difference(j, f * g)
            rhs = f_table[(j,)] * g + permute_x(Permutation.simple(j, n), f) * g_table[(j,)]
            if lhs != rhs:
                violations.append({"relation": "leibniz", "j": j, "trial": t})

    for w in symmetric_group(n):
        words = reduced_words(w)
        if len(words) < 2:
            continue
        for t, table in enumerate(tables):
            counts["reduced_word_independence"] += 1
            base = table[words[0]]
            for letters in words[1:]:
                if table[letters] != base:
                    violations.append(
                        {
                            "relation": "reduced_word_independence",
                            "w": w.to_json(),
                            "word": list(letters),
                            "trial": t,
                        }
                    )
    return {
        "check": "demazure_relations",
        "n": n,
        "trials": trials,
        "seed": seed,
        "relations": counts,
        "violations": violations,
    }
