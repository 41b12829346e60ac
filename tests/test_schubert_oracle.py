"""An independent route to the Schubert-basis expansion, used as an oracle.

The package reads an expansion off the right action: the coordinates of
right_multiply(1 (x) schubert_e, f) are f's symmetric coefficients, and
its product table fills them by the equivariant Monk rule.  This module
keeps a second, unrelated route: within one degree d, the products
m_lam * schubert(w) (monomial symmetric times Schubert,
length(w) + |lam| = d) form a basis of the degree-d polynomials, so the
symmetric coefficients are the unique solution of a square linear system
over Q, solved here by Gaussian elimination on Fraction.  It is slow and
lives only in the tests.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubstab.bimodule import BimoduleElement, right_multiply
from schubstab.perms import Permutation, symmetric_group
from schubstab.poly import Exponent, Poly, permute_x, random_poly
from schubstab.schubert import schubert_poly
from test_poly import total_degree


def expand(f: Poly) -> dict[Permutation, Poly]:
    """f over the Schubert basis, read off the right action: the
    coordinates of right_multiply(1 (x) schubert_e, f)."""
    one = BimoduleElement(f.nx, {Permutation.identity(f.nx): Poly.one(f.nx)})
    return right_multiply(one, f).coords


def fixed_by_every_swap(f: Poly) -> bool:
    """f is symmetric: every adjacent swap s_j of the x-variables fixes it."""
    return all(permute_x(Permutation.simple(j, f.nx), f) == f for j in range(1, f.nx))


# ----------------------------------------------------------------- oracle


def _partitions_at_most(d: int, parts: int) -> list[tuple[int, ...]]:
    """Weakly decreasing positive tuples with at most `parts` parts, sum d."""
    if d == 0:
        return [()]
    out = []

    def rec(remaining: int, cap: int, room: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        if room == 0:
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, room - 1, prefix + (part,))

    rec(d, d, parts, ())
    return out


def monomial_symmetric(lam: tuple[int, ...], n: int) -> Poly:
    """Sum of the distinct monomials with exponent multiset lam (padded to n)."""
    if len(lam) > n:
        raise ValueError("partition has more parts than variables")
    padded = tuple(lam) + (0,) * (n - len(lam))
    exps = set(itertools.permutations(padded))
    return Poly(n, 0, {e: Fraction(1) for e in exps})


def _monomials_of_degree(n: int, d: int) -> list[Exponent]:
    out = []

    def rec(slots: int, remaining: int, prefix: tuple[int, ...]) -> None:
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining + 1):
            rec(slots - 1, remaining - e, prefix + (e,))

    rec(n, d, ())
    return sorted(out)


def _solve_unique(matrix: list[list[Fraction]], rhs: list[list[Fraction]]) -> list[list[Fraction]]:
    """Solve a square exact linear system with a unique solution, for
    several right-hand sides at once (rhs[r] is row r of all of them)."""
    m = len(matrix)
    if any(len(row) != m for row in matrix) or len(rhs) != m:
        raise RuntimeError("linear system is not square")
    a = [list(row) + list(rhs[i]) for i, row in enumerate(matrix)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if a[r][col]), None)
        if pivot is None:
            raise RuntimeError("singular linear system; expansion basis failed")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        support = [(c, p) for c, p in enumerate(a[col]) if p]
        for r in range(m):
            if r != col and a[r][col]:
                factor, row = a[r][col], a[r]
                for c, p in support:
                    row[c] -= factor * p
    return [a[r][m:] for r in range(m)]


def expand_by_linear_solve(polys: list[Poly]) -> list[dict[Permutation, Poly]]:
    """The Schubert-basis expansions of polynomials of one rank n.

    For each degree d present, one elimination solves the degree-d
    components of all of them together.
    """
    n = polys[0].nx
    outs: list[dict[Permutation, Poly]] = [{} for _ in polys]
    for d in sorted({sum(exp) for f in polys for exp in f.terms}):
        unknowns: list[tuple[Permutation, tuple[int, ...]]] = []
        columns: list[Poly] = []
        for w in symmetric_group(n):
            ell = w.length()
            if ell > d:
                continue
            sw = schubert_poly(w)
            for lam in _partitions_at_most(d - ell, n):
                unknowns.append((w, lam))
                columns.append(monomial_symmetric(lam, n) * sw)
        rows = _monomials_of_degree(n, d)
        index = {exp: r for r, exp in enumerate(rows)}
        assert len(rows) == len(unknowns), "expansion basis has the wrong size"
        matrix = [[Fraction(0)] * len(unknowns) for _ in rows]
        for k, colpoly in enumerate(columns):
            for exp, c in colpoly.terms.items():
                matrix[index[exp]][k] = c
        rhs = [[Fraction(0)] * len(polys) for _ in rows]
        for j, f in enumerate(polys):
            for exp, c in f.terms.items():
                if sum(exp) == d:
                    rhs[index[exp]][j] = c
        for (w, lam), solution in zip(unknowns, _solve_unique(matrix, rhs)):
            for out, coeff in zip(outs, solution):
                if coeff:
                    out[w] = out.get(w, Poly.zero(n)) + coeff * monomial_symmetric(lam, n)
    return [{w: c for w, c in out.items() if not c.is_zero} for out in outs]


def x(i, n):
    return Poly.x(i, n)


# ------------------------------------------------------------------ tests


def test_monomial_symmetric():
    assert monomial_symmetric((), 2) == Poly.one(2)
    assert monomial_symmetric((1,), 2) == x(1, 2) + x(2, 2)
    assert monomial_symmetric((1, 1), 2) == x(1, 2) * x(2, 2)
    assert monomial_symmetric((2, 1), 2) == x(1, 2) ** 2 * x(2, 2) + x(1, 2) * x(2, 2) ** 2
    with pytest.raises(ValueError):
        monomial_symmetric((1, 1, 1), 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_duality_matches_solver_on_schubert_times_variable(n):
    """Every schubert(u) * x_k at rank n, as one right factor of 1 (x) schubert_e."""
    inputs = [
        (u, k, schubert_poly(u) * x(k, n))
        for u in symmetric_group(n)
        for k in range(1, n + 1)
    ]
    assert len(inputs) == len(symmetric_group(n)) * n
    expected = expand_by_linear_solve([f for _, _, f in inputs])
    for (u, k, f), want in zip(inputs, expected):
        assert expand(f) == want, (u, k)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_duality_matches_solver_on_random_polys(n):
    """Seeded random inputs with Fraction coefficients (denominators 1 to 3)."""
    rng = random.Random(20 + n)
    inputs = [random_poly(rng, n, max_degree=5, n_terms=5) for _ in range(8)]
    assert any(c.denominator != 1 for f in inputs for c in f.terms.values())
    for f, want in zip(inputs, expand_by_linear_solve(inputs)):
        assert expand(f) == want, f


def test_duality_matches_solver_on_zero_and_constants():
    for n in (1, 2, 3, 4):
        zero, third = Poly.zero(n), Poly.const(Fraction(1, 3), n)
        assert expand_by_linear_solve([zero, third]) == [{}, {Permutation.identity(n): third}]
        assert expand(zero) == {}
        assert expand(third) == {Permutation.identity(n): third}


_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=4)


@st.composite
def _polys(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    exps = st.tuples(*[st.integers(min_value=0, max_value=4)] * n)
    terms = draw(st.dictionaries(exps, _coeffs, max_size=5))
    return Poly(n, 0, terms)


@settings(max_examples=60, deadline=None)
@given(_polys())
def test_expansion_properties(f):
    coeffs = expand(f)
    degree = total_degree(f)
    rebuilt = Poly.zero(f.nx)
    for w, c in coeffs.items():
        assert not c.is_zero
        assert fixed_by_every_swap(c)
        assert w.length() <= degree
        rebuilt = rebuilt + c * schubert_poly(w)
    assert rebuilt == f
