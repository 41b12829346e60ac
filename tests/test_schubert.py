"""Schubert layer: frozen low-rank polynomials and structural identities.

The rank-3 table (1, x1, x1+x2, x1 x2, x1^2, x1^2 x2) is standard and easy
to recompute by hand from the divided-difference recursion; it is frozen
here literally.  Rank-4 sweeps live in the acceptance suite.
"""

import random

import pytest

import schubstab.bimodule as bimodule_module
import schubstab.schubert as schubert_module
from schubstab.perms import Permutation, symmetric_group
from schubstab.poly import (
    Poly,
    random_poly,
    specialize_y_to_x,
    sum_of_products,
    widen_with_y,
)
from schubstab.schubert import (
    delta_w,
    double_delta,
    double_schubert,
    double_schubert_expansion,
    schubert_poly,
    specialization_check,
    staircase,
)
from test_poly import demazure, set_y_to_zero, total_degree, y
from test_schubert_oracle import expand, fixed_by_every_swap


def x(i, n):
    return Poly.x(i, n)


def perm(*word):
    return Permutation(tuple(word))


# -------------------------------------------------------------- seeds


def test_staircase():
    assert staircase(1) == Poly.one(1)
    assert staircase(2) == x(1, 2)
    assert staircase(3) == x(1, 3) ** 2 * x(2, 3)
    with pytest.raises(ValueError):
        staircase(0)


def test_delta_w():
    assert delta_w(Permutation.identity(3)) == Poly.one(3)
    assert delta_w(perm(2, 1)) == x(1, 2) - x(2, 2)
    # Longest element: the full Vandermonde product over {(1,2),(1,3),(2,3)}.
    vdm = (x(1, 3) - x(2, 3)) * (x(1, 3) - x(3, 3)) * (x(2, 3) - x(3, 3))
    assert delta_w(Permutation.longest(3)) == vdm


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_delta_w_matches_the_product_of_its_inversions(n):
    for w in symmetric_group(n):
        want = Poly.one(n)
        for i, j in w.inversions():
            want = want * (x(i, n) - x(j, n))
        assert delta_w(w) == want


def test_double_delta():
    assert double_delta(1) == Poly.one(1, 1)
    assert double_delta(2) == Poly.x(1, 2, 2) - y(1, 2, 2)
    x1, x2 = Poly.x(1, 3, 3), Poly.x(2, 3, 3)
    y1, y2 = y(1, 3, 3), y(2, 3, 3)
    assert double_delta(3) == (x1 - y1) * (x1 - y2) * (x2 - y1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_double_delta_matches_the_product_of_its_binomials(n):
    want = Poly.one(n, n)
    for i in range(1, n + 1):
        for j in range(1, n + 1 - i):
            want = want * (Poly.x(i, n, n) - y(j, n, n))
    assert double_delta(n) == want


# ------------------------------------------------------ single alphabet


RANK3_TABLE = {
    (1, 2, 3): lambda: Poly.one(3),
    (2, 1, 3): lambda: x(1, 3),
    (1, 3, 2): lambda: x(1, 3) + x(2, 3),
    (2, 3, 1): lambda: x(1, 3) * x(2, 3),
    (3, 1, 2): lambda: x(1, 3) ** 2,
    (3, 2, 1): lambda: x(1, 3) ** 2 * x(2, 3),
}


def test_schubert_poly_rank3_table():
    for word, expected in RANK3_TABLE.items():
        assert schubert_poly(perm(*word)) == expected()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_walk_matches_the_divided_difference_chain(n):
    # The oracle applies the whole chain of w^{-1} w_0 to each seed along the
    # lex-smallest reduced word, and shares nothing between permutations.
    w0 = Permutation.longest(n)
    for w in symmetric_group(n):
        u = w.inverse() * w0
        assert schubert_poly(w) == demazure(u, staircase(n))
        assert double_schubert(w) == demazure(u, double_delta(n))


def test_schubert_poly_identity_and_longest():
    for n in (1, 2, 3, 4):
        assert schubert_poly(Permutation.identity(n)) == Poly.one(n)
        assert schubert_poly(Permutation.longest(n)) == staircase(n)


def test_schubert_poly_nonnegative_integer_coefficients_rank4():
    for w in symmetric_group(4):
        f = schubert_poly(w)
        assert not f.is_zero
        assert {sum(e) for e in f.terms} == {w.length()}
        assert total_degree(f) == w.length()
        for c in f.terms.values():
            assert c.denominator == 1 and c > 0


def test_schubert_poly_stable_under_rank_inclusion():
    # Appending a fixed point does not change the polynomial (widened).
    for w in symmetric_group(3):
        wider = Permutation(w.word + (4,))
        narrow = schubert_poly(w)
        widened = Poly(4, 0, {e + (0,): c for e, c in narrow.terms.items()})
        assert schubert_poly(wider) == widened


# ------------------------------------------------------- two alphabets


def test_double_schubert_rank2():
    assert double_schubert(Permutation.identity(2)) == Poly.one(2, 2)
    assert double_schubert(perm(2, 1)) == Poly.x(1, 2, 2) - y(1, 2, 2)


def test_double_schubert_rank3_spot():
    expected = (
        Poly.x(1, 3, 3) + Poly.x(2, 3, 3) - y(1, 3, 3) - y(2, 3, 3)
    )
    assert double_schubert(perm(1, 3, 2)) == expected


def test_double_schubert_y_zero_recovers_single():
    for n in (2, 3):
        for w in symmetric_group(n):
            assert set_y_to_zero(double_schubert(w)) == schubert_poly(w)


def test_double_schubert_expansion_rank3():
    for w in symmetric_group(3):
        assert double_schubert_expansion(w) == double_schubert(w)


def test_double_schubert_expansion_rank2_by_hand():
    # s_1 factors as (v,u) in {(e,s_1),(s_1,e)}: x1 from the first, -y1 from
    # the second.
    assert double_schubert_expansion(perm(2, 1)) == Poly.x(1, 2, 2) - y(1, 2, 2)


# -------------------------------------------------------- specialization


def test_equal_alphabets_collapse_rank3():
    for u in symmetric_group(3):
        collapsed = specialize_y_to_x(double_schubert(u))
        if u == Permutation.identity(u.n):
            assert collapsed == Poly.one(3)
        else:
            assert collapsed.is_zero


def test_specialization_check_rank2_frozen():
    s1 = perm(2, 1)
    e = Permutation.identity(2)
    assert specialization_check(s1, e).is_zero
    assert specialization_check(s1, s1) == x(2, 2) - x(1, 2)
    assert specialization_check(e, e) == Poly.one(2)
    with pytest.raises(ValueError):
        specialization_check(s1, Permutation.identity(3))


def test_specialization_check_rank3_sweep():
    for w in symmetric_group(3):
        sign = -1 if w.length() % 2 else 1
        for w_prime in symmetric_group(3):
            if w_prime.length() > w.length():
                continue
            got = specialization_check(w, w_prime)
            if w_prime == w:
                assert got == sign * delta_w(w.inverse())
            else:
                assert got.is_zero


def test_specialization_diagonal_needs_the_inverse():
    # The distinguishing case: w = (2,3,1) has delta_w = (x1-x3)(x2-x3) but
    # the specialization equals (x1-x2)(x1-x3) = delta of the inverse.
    w = perm(2, 3, 1)
    got = specialization_check(w, w)
    assert got == delta_w(w.inverse())
    assert got != delta_w(w)


# ------------------------------------------------------------ expansion


def test_expand_frozen_rank2():
    e = Permutation.identity(2)
    s1 = perm(2, 1)
    assert expand(Poly.one(2)) == {e: Poly.one(2)}
    assert expand(x(2, 2)) == {
        e: x(1, 2) + x(2, 2),
        s1: Poly.const(-1, 2),
    }
    assert expand(x(1, 2) ** 2) == {
        s1: x(1, 2) + x(2, 2),
        e: -(x(1, 2) * x(2, 2)),
    }


def test_expand_schubert_basis_is_dual_to_itself():
    for w in symmetric_group(3):
        assert expand(schubert_poly(w)) == {w: Poly.one(3)}


def test_expand_round_trip_random():
    rng = random.Random(7)
    for n, deg in ((2, 6), (3, 4)):
        for _ in range(6):
            f = random_poly(rng, n, max_degree=deg, n_terms=5)
            coeffs = expand(f)
            rebuilt = Poly.zero(n)
            for w, c in coeffs.items():
                assert fixed_by_every_swap(c)
                assert not c.is_zero
                rebuilt = rebuilt + c * schubert_poly(w)
            assert rebuilt == f


def test_expansion_caches_stay_within_their_bounds():
    """x1^d at rank 3 adds exponent keys at every degree d, which no rank
    limit bounds: the product table keeps at most its size bound, and each
    expansion still sums back to x1^d."""
    table = bimodule_module._schubert_times_monomial
    for d in range(1, 41):
        g = x(1, 3) ** d
        coeffs = expand(g)
        assert sum_of_products(((c, schubert_poly(w)) for w, c in coeffs.items()), 3) == g
        info = table.cache_info()
        assert info.maxsize == 1024 and info.currsize <= info.maxsize


def test_expand_rejects_y_variables():
    with pytest.raises(ValueError, match="right factor must be an x-polynomial"):
        expand(double_delta(2))


def test_ranks_beyond_budget_are_refused_before_any_work(monkeypatch):
    def boom(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(schubert_module, "divided_difference", boom)
    with pytest.raises(ValueError, match="rank 11 is outside 1..10 for Schubert"):
        schubert_poly(Permutation.identity(11))
    with pytest.raises(ValueError, match="rank 8 is outside 1..7 for double Schubert"):
        double_schubert(Permutation.identity(8))


def test_deep_ranks_are_refused_not_recursed(monkeypatch):
    # At rank 60 the identity and w_0 are 1770 steps apart: a walk between
    # them before the rank check would end in RecursionError.
    def boom(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(schubert_module, "divided_difference", boom)
    e = Permutation.identity(60)
    with pytest.raises(ValueError, match="rank 60 is outside 1..10 for Schubert"):
        schubert_poly(e)
    with pytest.raises(ValueError, match="rank 60 is outside 1..7 for double Schubert"):
        double_schubert(e)
    with pytest.raises(ValueError, match="rank 60 is outside 1..10 for inversion products"):
        delta_w(Permutation.longest(60))
