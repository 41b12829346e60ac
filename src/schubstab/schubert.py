"""Schubert and double Schubert polynomials, inversion products, and the
Cauchy formula that joins them.

Each family is built by one walk up the weak order (Macdonald, Notes on
Schubert Polynomials, 1991).  The rank-n seed sits at the longest element
w_0: the staircase monomial x_1^{n-1} x_2^{n-2} ... x_{n-1}, or the product
of (x_i - y_j) over i + j <= n for two alphabets.  Below it S_w = d_i
S_{w s_i} at the first ascent i of w, so each polynomial costs one divided
difference given its parent, and the walk applies a different reduced word
of w^{-1} w_0 to the seed for each w.  That is sound by the braid relations,
which verify_demazure_relations certifies on its own inputs, keyed by words;
keying generation by permutation is fine, as generation is not the claim
under test.  delta_w walks down to the identity the same way.

The single polynomials form a free basis of Q[x_1..x_n] over the symmetric
polynomials.  Products are read over that basis in the bimodule layer, by
the equivariant Monk rule (bimodule.right_multiply); this module expands
nothing.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import itemgetter
from typing import Callable, Mapping

from .perms import Permutation, check_rank, group_by_word
from .poly import (
    Poly,
    divided_difference,
    negate_x,
    permute_x,
    specialize_y_to_x,
    sum_of_products,
    widen_with_y,
    x_to_y,
)


# `schubert --n 10` takes at most 1.3 s (w = 1,10,2,9,3,8,4,7,5,6 and
# 1,6,2,10,3,9,4,8,5,7 are the slowest of six rank-10 words tried) on a 2-core
# Xeon container under Python 3.11.7; w = 1,7,2,11,3,10,4,9,5,8,6 at rank 11
# takes 10 s.
MAX_SCHUBERT_RANK = 10
# `schubert --double --json` at rank 7 takes 1.8 to 2.1 s on the same host at
# 213 MiB peak RSS for w = 7,6,5,4,3,2,1: its polynomial is the 484 912-term
# seed, computed in 0.4 to 0.5 s, and the JSON writer writes its 128.8 MB
# document in the rest, holding it once, in pieces.  w = 6,7,4,5,2,3,1 takes
# 1.7 to 2.1 s at 141 MiB and 1,5,2,7,3,6,4 1.7 s at 140 MiB; the walk's
# cached ancestors are up to 71 MiB of that.  Rank 8 ran past 65 s with
# Fraction coefficients and was not timed again.
MAX_DOUBLE_SCHUBERT_RANK = 7


# One entry per rank, at most MAX_SCHUBERT_RANK: check_rank raises above it,
# and lru_cache keeps no call that raised.
@lru_cache(maxsize=None)
def staircase(n: int) -> Poly:
    """x_1^{n-1} x_2^{n-2} ... x_{n-1}, the seed of every rank-n Schubert polynomial."""
    check_rank(n, MAX_SCHUBERT_RANK, "Schubert polynomials")
    exp = tuple(n - i for i in range(1, n + 1))
    return Poly.monomial(exp, 1, n)


def _walk(w: Permutation, seed: Callable[[int], Poly], family: Callable[[Permutation], Poly]) -> Poly:
    """family(w) from its parent: d_i family(w s_i) at the first ascent i of
    w, and the seed at w_0, the only permutation without one.  The seed is
    taken first, so its rank check runs before the walk goes any deeper."""
    top = seed(w.n)
    for i in range(1, w.n):
        if w.word[i - 1] < w.word[i]:
            return divided_difference(i, family(w * Permutation.simple(i, w.n)))
    return top


# Keys: permutations of rank at most MAX_SCHUBERT_RANK, as staircase raises
# above it, and with each w every ancestor on its walk.
@lru_cache(maxsize=None)
def schubert_poly(w: Permutation) -> Poly:
    return _walk(w, staircase, schubert_poly)


# Keys: permutations of rank at most MAX_SCHUBERT_RANK, checked before the
# walk, which is at most 45 calls deep, and with each w every one on its walk.
@lru_cache(maxsize=None)
def delta_w(w: Permutation) -> Poly:
    """Product of (x_i - x_j) over the inversions of w.

    For the longest element this is the full Vandermonde determinant; for
    the identity it is 1.  At the first descent i of w, the inversions of w
    are those of w s_i with positions i and i+1 swapped, plus (i, i+1); so
    delta_w(w) = s_i(delta_w(w s_i)) * (x_i - x_{i+1}).
    """
    check_rank(w.n, MAX_SCHUBERT_RANK, "inversion products")
    n = w.n
    for i in range(1, n):
        if w.word[i - 1] > w.word[i]:
            s = Permutation.simple(i, n)
            return permute_x(s, delta_w(w * s)) * (Poly.x(i, n) - Poly.x(i + 1, n))
    return Poly.one(n)


# One entry per rank, at most MAX_DOUBLE_SCHUBERT_RANK.
@lru_cache(maxsize=None)
def double_delta(n: int) -> Poly:
    """Product of (x_i - y_j) over i + j <= n, inside Q[x_1..x_n, y_1..y_n]:
    the seed of every double Schubert polynomial, so it checks the rank.

    Row i, the product over j <= m = n - i, is written out as the sum over
    k of (-1)^k x_i^(m-k) e_k(y_1..y_m), 2^m terms, and the rows are
    multiplied shortest first."""
    check_rank(n, MAX_DOUBLE_SCHUBERT_RANK, "double Schubert polynomials")
    out = Poly.one(n, n)
    for i in range(n - 1, 0, -1):
        m = n - i
        row = {}
        for k in range(m + 1):
            for ys in combinations(range(n, n + m), k):
                exp = [0] * (2 * n)
                exp[i - 1] = m - k
                for slot in ys:
                    exp[slot] = 1
                row[tuple(exp)] = (-1) ** k
        out = out * Poly(n, n, row)
    return out


# Keys: permutations of rank at most MAX_DOUBLE_SCHUBERT_RANK, as double_delta
# raises above it, and with each w every ancestor on its walk.
@lru_cache(maxsize=None)
def double_schubert(w: Permutation) -> Poly:
    return _walk(w, double_delta, double_schubert)


# Keys: permutations of rank at most MAX_ENUMERATED_RANK, the v of the
# Cauchy tables, which enumerate the group first: at most 5 040 polynomials,
# each held once however many S_w carry it.
@lru_cache(maxsize=None)
def _negated_schubert(v: Permutation) -> Poly:
    """schubert_v(-x), the one copy every S_w with a coordinate S_v(-x) holds."""
    return negate_x(schubert_poly(v))


def cauchy_coefficients(w: Permutation) -> dict[Permutation, Poly]:
    """The coefficients of the Cauchy formula
    double_schubert(w)(x; y) = sum of schubert_u(x) schubert_v(-y) over the
    factorizations w = v^{-1} u with length(v) + length(u) = length(w)
    (Macdonald, Notes on Schubert Polynomials, 1991), as {u: schubert_v(-x)}
    in enumeration order of v; v = e gives coefficient 1 at u = w.

    Those u are the lower interval of w in the left weak order (Bjorner and
    Brenti, Combinatorics of Coxeter Groups, 2005, ch. 3), walked level by
    level from u = w, v = e on one-line words: a left descent a of u is a
    value a that sits right of a + 1, and s_a u, s_a v swap the values a
    and a + 1 in both words, keeping u = v w and adding one to length(v).
    Level k holds the v of length k, listed by word.  Each word is looked
    up in group_by_word(n), so no permutation is built, and each coefficient
    is the shared _negated_schubert(v)."""
    n = w.n
    by_word = group_by_word(n)
    out = {}
    level = {w.word: tuple(range(1, n + 1))}
    while level:
        below = {}
        for u, v in sorted(level.items(), key=itemgetter(1)):
            out[by_word[u]] = _negated_schubert(by_word[v])
            for a in range(1, n):
                i, j = u.index(a), u.index(a + 1)
                if i > j and (su := _swapped(u, i, j)) not in below:
                    below[su] = _swapped(v, v.index(a), v.index(a + 1))
        level = below
    return out


def _swapped(word: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    """word with the entries at positions i and j exchanged."""
    out = list(word)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def cauchy_sum(coefficients: Mapping[Permutation, Poly], n: int) -> Poly:
    """The sum of schubert_u(x) * c_u(y) over {u: c_u} with every c_u in
    Q[x_1..x_n], moved verbatim to the y-alphabet: on cauchy_coefficients(w)
    it is double_schubert(w)."""
    return sum_of_products(
        ((widen_with_y(schubert_poly(u), n), x_to_y(c, n)) for u, c in coefficients.items()), n, n
    )


def double_schubert_expansion(w: Permutation) -> Poly:
    """Rebuild the two-alphabet polynomial from single ones: the Cauchy sum
    of w's coefficients."""
    return cauchy_sum(cauchy_coefficients(w), w.n)


def specialization_check(w: Permutation, w_prime: Permutation) -> Poly:
    """The two-alphabet polynomial of w evaluated at x -> w'(x), y -> x.

    Concretely: permute the x-alphabet of double_schubert(w) by w', then
    identify y_i with x_i.  For length(w') <= length(w) this collapses to
    (-1)^{length(w)} delta_w(w.inverse()) when w' = w and to zero otherwise;
    callers verify exactly that.  (The inverse matters: already for
    w = (2,3,1) the value is (x1-x2)(x1-x3), the inversion product of
    w^{-1} = (3,1,2), not of w.  The two agree on involutions.)
    """
    if w.n != w_prime.n:
        raise ValueError(f"rank mismatch: {w.n} vs {w_prime.n}")
    if w_prime.length() > w.length():
        raise ValueError("identity regime needs length(w') <= length(w)")
    return specialize_y_to_x(permute_x(w_prime, double_schubert(w)))
