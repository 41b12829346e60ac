"""The y -> x specialization and the specialization check, as test oracles.

The package reads F_w(S_w') from its nil-Hecke recursion.  These are the
second route: the two-alphabet polynomial of w', with its x-alphabet moved
by w and y_i identified with x_i.  The identification is built on the
public Poly constructor and its exponent-tuple terms, not on packed keys.
"""

from schubstab.perms import Permutation
from schubstab.poly import Poly, permute_x
from schubstab.schubert import double_schubert


def specialize_y_to_x(f: Poly) -> Poly:
    """Ring map y_i -> x_i; requires equal numbers of x- and y-variables."""
    if f.ny != f.nx:
        raise ValueError(f"need matching alphabets, got {f.nx} x- and {f.ny} y-variables")
    n = f.nx
    out = {}
    for exp, c in f.terms.items():
        key = tuple(a + b for a, b in zip(exp[:n], exp[n:]))
        out[key] = out.get(key, 0) + c
    return Poly(n, 0, out)


def specialization_check(w: Permutation, w_prime: Permutation) -> Poly:
    """The two-alphabet polynomial of w evaluated at x -> w'(x), y -> x.

    For length(w') <= length(w) this is (-1)^{length(w)} delta_w(w^{-1})
    when w' = w and zero otherwise; the callers check exactly that.  (The
    inverse matters: already for w = (2,3,1) the value is (x1-x2)(x1-x3),
    the inversion product of w^{-1} = (3,1,2), not of w.  The two agree on
    involutions.)
    """
    if w.n != w_prime.n:
        raise ValueError(f"rank mismatch: {w.n} vs {w_prime.n}")
    if w_prime.length() > w.length():
        raise ValueError("identity regime needs length(w') <= length(w)")
    return specialize_y_to_x(permute_x(w_prime, double_schubert(w)))

