"""The coinvariant-style bimodule R (x)_{R^{S_n}} R in left coordinates,
its S_w basis, the evaluation maps F_w, and the length filtration.

Elements are stored as left-module coordinates over the free basis
{1 (x) schubert_u}: a map from permutations u to pure-x polynomials.  The
distinguished elements

    S_w = 1 (x) schubert_w
        + sum over additive factorizations w = v^{-1} u with length(u) <
          length(w) of schubert_v(-x) (x) schubert_u

are unitriangular over that basis in length order, so they form a free
basis too; Gamma_j is the span of the S_w with length(w) >= j.  The right
action multiplies the right factor: right_multiply reads each
(1 (x) schubert_u) * x^m over the left basis from one cached table, filled
by the equivariant Monk rule for S_u * x_k and the unitriangular change of
basis, so no polynomial is expanded over the Schubert basis.  No
certificate forms a product: Gamma_j is the common kernel of the F_w with
length(w) < j, and that kernel is closed under the right action, so the
closure certificates are derived from the unitriangularity and
injectivity certificates (verify_bimodule_closure); right_multiply and the
S-basis coordinates stay as the oracle the tests check that derivation
against.

The evaluation map F_w sends f (x) g to g(x_{w(1)}, ..., x_{w(n)}) * f,
i.e. it permutes the right factor's variables by w and multiplies.  The
identity this module certifies:

    F_w(S_{w'}) = (-1)^{length(w)} * delta(w^{-1}) when w' = w,
                  0 for every other w' with length(w') >= length(w),

where delta is the inversion product.  Note the inverse: already for
w = (2,3,1) the value is the inversion product of (3,1,2); the two
orientations agree on involutions.  Consequently the F_w matrix over any
downward-closed length range is triangular with nonzero diagonal, which is
the injectivity input the filtration argument needs.

The matrix is built by the nil-Hecke descent recursion (Kostant and
Kumar, "The nil Hecke ring and cohomology of G/P for a Kac-Moody group G",
Adv. Math. 1986; Billey, "Kostant polynomials and the cohomology ring for
G/B", Duke Math. J. 1999), not by one evaluation per entry.  The divided
difference d_i is linear over the symmetric polynomials, so 1 (x) d_i is
well defined on the bimodule; it sends S_u to S_{u s_i} when
u s_i < u, and

    F_w((1 (x) d_i) m) = (F_w(m) - F_{w s_i}(m)) / (x_{w(i)} - x_{w(i+1)}).

So the column of S_v follows from the column of its parent u = v s_i at
the first ascent i of v, the walk that builds the Schubert polynomials.
Columns are sparse: each keeps only its nonzero entries, and an entry is
divided only where one of its two parent entries is stored.  Both lie in
the parent's cut, as length(w s_i) <= length(u), so an entry with neither
stored is zero.  Within the cut only the diagonal is nonzero, so each
column below the top costs one division.
The walk starts from the top column, of S_{w0}, certified by the Cauchy
identity: S_{w0}(x; y) is the product of (x_i - y_j) over i + j <= n
(Macdonald, Notes on Schubert Polynomials, 1991), and the stored
coordinates of S_{w0}, moved to the y-alphabet beside the schubert_u(x),
are checked to sum to it.  F_w is a ring map on that two-alphabet
polynomial, x_i -> x_{w(i)} and y_j -> x_j, so F_w(S_{w0}) is the product
of x_{w(i)} - x_j over i + j <= n, zero unless w = w0.  No certificate
evaluates f_map, the definition; it stays as the tests' oracle.  The
certificate assumes nothing it checks: the Cauchy identity and every
step's (1 (x) d_i) S_u = S_v are compared on the stored coordinates, and
every division is exact or raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterator, Mapping

from .perms import Permutation, check_rank, sort_key, symmetric_group
from .poly import Exponent, Poly, divide_exact, permute_x, sum_of_products
from .schubert import (
    cauchy_coefficients,
    cauchy_sum,
    delta_w,
    double_delta,
    schubert_poly,
)


class BimoduleElement:
    """Left-basis coordinates over {1 (x) schubert_u}; zero coords dropped."""

    __slots__ = ("n", "coords")

    def __init__(self, n: int, coords: Mapping[Permutation, Poly]):
        if n < 1:
            raise ValueError("rank must be at least 1")
        clean: dict[Permutation, Poly] = {}
        for u, c in coords.items():
            if u.n != n:
                raise ValueError(f"coordinate permutation rank {u.n} != {n}")
            if c.ny != 0 or c.nx != n:
                raise ValueError("coordinates must be x-polynomials of matching rank")
            if not c.is_zero:
                clean[u] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coords", clean)

    def __setattr__(self, name, value):
        raise AttributeError("BimoduleElement is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.coords

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BimoduleElement):
            return NotImplemented
        return self.n == other.n and self.coords == other.coords

    __hash__ = None

    def __str__(self) -> str:
        if not self.coords:
            return "0"
        bits = [
            f"({c})*[1(x)S_{u}]"
            for u, c in sorted(self.coords.items(), key=lambda kv: sort_key(kv[0]))
        ]
        return " + ".join(bits)

    __repr__ = __str__


# Keys: permutations of rank at most MAX_SOERGEL_RANK from the certificates,
# which check it first.  A direct call is bounded by MAX_ENUMERATED_RANK,
# which symmetric_group checks before building anything.
@lru_cache(maxsize=None)
def s_element(w: Permutation) -> BimoduleElement:
    """The basis element S_w in left coordinates: the Cauchy coefficients of
    w, coordinate[u] = schubert_v(-x) for each additive factorization
    w = v^{-1} u; v = e gives coordinate[w] = 1."""
    return BimoduleElement(w.n, cauchy_coefficients(w))


def f_map(w: Permutation, elem: BimoduleElement) -> Poly:
    """Evaluation against the w-twisted diagonal: sum of
    coordinate[u] * permute_x(w, schubert_u), added up in one sum of products."""
    if w.n != elem.n:
        raise ValueError(f"rank mismatch: {w.n} vs {elem.n}")
    return sum_of_products(
        ((c, permute_x(w, schubert_poly(u))) for u, c in elem.coords.items()), elem.n
    )


def _monk_covers(u: Permutation, k: int) -> list[tuple[int, Permutation]]:
    """The terms of the Monk rule at x_k: (sign, u t_ab) over the covers
    length(u t_ab) = length(u) + 1 with k in {a, b}, a < b, in order of the
    other index, signed + when it is greater than k.  Swapping positions
    a < b adds one inversion exactly when u(a) < u(b) and no position
    between them holds a value between the two."""
    word = u.word
    out = []
    for other in range(1, u.n + 1):
        a, b = min(other, k), max(other, k)
        lo, hi = word[a - 1], word[b - 1]
        if lo < hi and not any(lo < word[m] < hi for m in range(a, b - 1)):
            swapped = list(word)
            swapped[a - 1], swapped[b - 1] = hi, lo
            out.append((1 if other > k else -1, Permutation._trusted(tuple(swapped))))
    return out


# Keys: a permutation and the exponents of one term of a right factor, whose
# degree nothing bounds.  right_multiply, whose callers are the benchmark's
# closure round and the tests, reaches n! * n of them on every S_w * x_k at
# rank n, 719 over ranks 1..5; the size bound drops the least recently used
# key beyond 1024.
@lru_cache(maxsize=1024)
def _schubert_times_monomial(u: Permutation, exp: Exponent) -> tuple[tuple[Permutation, Poly], ...]:
    """(1 (x) schubert_u) * x^exp over the left basis: (t, c_t) pairs in
    group order, with schubert_u * x^exp = sum of c_t * schubert_t and every
    c_t symmetric.

    exp = 0 gives u alone.  exp = e_k follows from the equivariant Monk rule
    (Kostant and Kumar, Adv. Math. 1986; Monk, Proc. London Math. Soc. 1959,
    for one alphabet): S_u * x_k = x_{u(k)} S_u plus the signed S_{u t} of
    _monk_covers(u, k).  Both sides have the same F_v for every v, as F_v is
    left-linear with F_v(m * x_k) = x_{v(k)} F_v(m) and the localisations
    F_v(S_w) satisfy the equivariant Chevalley formula; the F_v are jointly
    injective (verify_triangular_injectivity), so the sides are equal.  S_u
    is 1 (x) schubert_u plus c_{u'} (x) schubert_{u'} over shorter u', so the
    entry is S_u * x_k minus each c_{u'} times the entry (u', e_k), and the
    recursion ends at the identity.  Any other exp peels off its first
    variable x_k: the sum of c_t times the entry (t, e_k) over the entry
    (u, exp - e_k).
    """
    n = u.n
    k = next((i for i, e in enumerate(exp, 1) if e), None)
    if k is None:
        return ((u, Poly.one(n)),)
    e_k = tuple(int(i == k) for i in range(1, n + 1))
    pairs: dict[Permutation, list[tuple[Poly, Poly]]] = {}

    def add(scale: Poly, entries) -> None:
        for v, c in entries:
            pairs.setdefault(v, []).append((scale, c))

    if exp != e_k:
        rest = tuple(e - (i == k) for i, e in enumerate(exp, 1))
        for t, c in _schubert_times_monomial(u, rest):
            add(c, _schubert_times_monomial(t, e_k))
    else:
        coords = s_element(u).coords
        add(Poly.x(u.word[k - 1], n), coords.items())
        for sign, t in _monk_covers(u, k):
            add(Poly.const(sign, n), s_element(t).coords.items())
        for shorter, c in coords.items():
            if shorter != u:
                add(-c, _schubert_times_monomial(shorter, e_k))
    sums = {v: sum_of_products(p, n) for v, p in pairs.items()}
    return tuple((v, sums[v]) for v in sorted(sums, key=sort_key) if not sums[v].is_zero)


def right_multiply(elem: BimoduleElement, g: Poly) -> BimoduleElement:
    """The right R-action in left coordinates.

    Each schubert_u * x^m, for a term a x^m of g, is read over the Schubert
    basis from the product table, whose symmetric coefficients then slide
    across the tensor to the left; the new coordinate at t is one sum of
    products of a * coordinate[u] with those coefficients.
    """
    if g.ny != 0 or g.nx != elem.n:
        raise ValueError("right factor must be an x-polynomial of matching rank")
    pairs: dict[Permutation, list[tuple[Poly, Poly]]] = {}
    for exp, a in g.terms.items():
        for u, c in elem.coords.items():
            scaled = c if a == 1 else c * a
            for t, sym in _schubert_times_monomial(u, exp):
                pairs.setdefault(t, []).append((scaled, sym))
    return BimoduleElement(elem.n, {t: sum_of_products(p, elem.n) for t, p in pairs.items()})


def s_basis_coordinates(elem: BimoduleElement) -> dict[Permutation, Poly]:
    """Coordinates of elem over the {S_w} basis, by back-substitution.

    Working down from the longest permutations, the residual coordinate at
    w is untouched by any S_u with length(u) <= length(w), u != w, so it is
    the S_w-coefficient; subtract and continue.  The subtractions are kept
    as pending products -c * S_w[u] per u and summed with elem's coordinate
    at u once, when u is reached, and a u with neither is skipped.  S_w has
    coordinate 1 at w itself, so that product would cancel the residual at
    w; one pending at a u already passed is what the triangular order
    forbids, and must sum to zero.  The group is listed in sort_key order,
    so reversing it walks down from the longest permutations.
    """
    n = elem.n
    one = Poly.one(n)
    pending: dict[Permutation, list[tuple[Poly, Poly]]] = {}
    out: dict[Permutation, Poly] = {}
    for w in reversed(symmetric_group(n)):
        terms = pending.pop(w, [])
        if w in elem.coords:
            terms.append((elem.coords[w], one))
        elif not terms:
            continue
        c = sum_of_products(terms, n)
        if c.is_zero:
            continue
        out[w] = c
        minus_c = -c
        for u, sc in s_element(w).coords.items():
            if u != w:
                pending.setdefault(u, []).append((minus_c, sc))
    if any(not sum_of_products(p, n).is_zero for p in pending.values()):
        raise RuntimeError("back-substitution left a residual; this is a bug")
    return out


def membership_in_gamma(elem: BimoduleElement, j: int) -> tuple[bool, dict[Permutation, Poly]]:
    """Whether elem lies in Gamma_j (S-coordinates vanish below length j).

    Returns the verdict together with the S-basis coordinates as witness.
    """
    witness = s_basis_coordinates(elem)
    ok = all(w.length() >= j for w in witness)
    return ok, witness


# ------------------------------------------------------------ certificates

# `verify soergel --n 6 --json`, which emits all four kinds of certificate
# (286 006 F-matrix pairs over 720 S_w; closure is derived, not computed),
# takes 0.8 to 1.2 s at 39 MiB peak RSS for the whole process on a 2-core
# Xeon container under Python 3.11.7, whose speed drifts; building the S_w
# by cauchy_coefficients is 0.10 to 0.16 s of it.  Rank 7 (5 040 S_w,
# 13 755 080 pairs) was not run; its S_w alone take 4.6 s at 61 MiB.
MAX_SOERGEL_RANK = 6
check_soergel_rank = partial(check_rank, limit=MAX_SOERGEL_RANK, what="filtration certificates")


def _cauchy_holds(n: int) -> bool:
    """The stored coordinates of S_{w0} are the Cauchy product: their Cauchy
    sum is double_delta(n)."""
    return cauchy_sum(s_element(Permutation.longest(n)).coords, n) == double_delta(n)


def _top_entry(w: Permutation) -> Poly:
    """F_w(S_{w0}), the product of x_{w(i)} - x_j over i + j <= n: zero as
    soon as some w(i) <= n - i, which leaves only w = w0."""
    n = w.n
    if any(w.word[i - 1] <= n - i for i in range(1, n)):
        return Poly.zero(n)
    out = Poly.one(n)
    for i in range(1, n):
        for j in range(1, n - i + 1):
            out = out * (Poly.x(w.word[i - 1], n) - Poly.x(j, n))
    return out


def f_matrix_columns(n: int) -> Iterator[tuple[Permutation, int | None, dict[Permutation, Poly]]]:
    """The nonzero F-matrix entries F_w(S_v) with length(w) <= length(v),
    one column per v, longest v first, by the descent recursion (module
    docstring).

    Yields (v, i, column), where column maps w to F_w(S_v) for the w with
    length(w) <= length(v) at which that entry is nonzero; every absent w
    of the cut is a proven zero.  At w0, i is None and the entries are the
    nonzero values of _top_entry, which is only w0's; the column holds only
    if S_{w0} is the Cauchy product, which the caller checks by
    _cauchy_holds(n).  Every other column is divided out of its parent
    u = v s_i at the first ascent i of v, which is longer and so already
    built.  An entry at w needs F_w(S_u) and F_{w s_i}(S_u), and both lie
    in u's cut, as length(w s_i) <= length(v) + 1 = length(u); so it is
    divided only when w or w s_i is stored in u's column, and otherwise
    both parent entries are zero, and so is it.  The column of S_v holds
    only if (1 (x) d_i) S_u = S_v, which the caller checks by
    _descent_step_holds(v, i).
    """
    perms = symmetric_group(n)
    w0, zero = perms[-1], Poly.zero(n)
    columns = {w0: {w: f for w in perms if not (f := _top_entry(w)).is_zero}}
    yield w0, None, columns[w0]
    for v in reversed(perms[:-1]):
        i = next(i for i in range(1, n) if v.word[i - 1] < v.word[i])
        s = Permutation.simple(i, n)
        parent = columns[v * s]
        lv = v.length()
        column = columns[v] = {}
        for u in parent:
            us = u * s
            for w, ws in ((u, us), (us, u)):
                if w.length() <= lv:
                    f = parent.get(w, zero) - parent.get(ws, zero)
                    if not (f := divide_exact(f, w.word[i - 1], w.word[i])).is_zero:
                        column[w] = f
        yield v, i, column


def _descent_step_holds(v: Permutation, i: int) -> bool:
    """(1 (x) d_i) S_{v s_i} = S_v, compared on stored coordinates: d_i
    sends schubert_t to schubert_{t s_i} when t(i) > t(i+1) and to zero
    otherwise, so each such t is relabelled t s_i and the rest dropped."""
    s = Permutation.simple(i, v.n)
    image = {
        t * s: c for t, c in s_element(v * s).coords.items() if t.word[i - 1] > t.word[i]
    }
    return BimoduleElement(v.n, image) == s_element(v)


def verify_filtration_identity(n: int) -> dict:
    """Check F_w(S_{w'}) over all pairs with length(w') >= length(w).

    Expected value: (-1)^{length(w)} * delta_w(w.inverse()) on the diagonal,
    zero off it.  The entries come from f_matrix_columns, whose columns
    store only nonzero entries and prove every absent one zero; so `pairs`
    counts the whole cut from the lengths, and each column's stored entries
    and its diagonal, "0" when absent, are checked in group order.  A
    column whose derivation fails is named by w' alone, and its entries
    are still checked: {"w_prime": w', "descent": i} when
    _descent_step_holds(w', i) fails, and {"w_prime": w0, "cauchy": False}
    when _cauchy_holds(n) does.
    """
    check_soergel_rank(n)
    lengths = [w.length() for w in symmetric_group(n)]
    # The group is in length order, so the last index of a length counts
    # every w no longer than it.
    within = {length: k for k, length in enumerate(lengths, 1)}
    zero = Poly.zero(n)
    violations: list[dict] = []
    for w_prime, i, column in f_matrix_columns(n):
        if i is None:
            if not _cauchy_holds(n):
                violations.append({"w_prime": w_prime.to_json(), "cauchy": False})
        elif not _descent_step_holds(w_prime, i):
            violations.append({"w_prime": w_prime.to_json(), "descent": i})
        sign = -1 if w_prime.length() % 2 else 1
        expected_diag = sign * delta_w(w_prime.inverse())
        for w in sorted(column.keys() | {w_prime}, key=sort_key):
            got = column.get(w, zero)
            expected = expected_diag if w == w_prime else zero
            if got != expected:
                violations.append(
                    {
                        "w": w.to_json(),
                        "w_prime": w_prime.to_json(),
                        "got": str(got),
                        "expected": str(expected),
                    }
                )
    return {
        "check": "filtration_identity",
        "n": n,
        "pairs": sum(within[length] for length in lengths),
        "violations": violations,
    }


def verify_unitriangular(n: int) -> dict:
    """S_w over the left basis, read from s_element(w).coords: coordinate 1 at
    u = w, none at other u with length(u) >= length(w); "0" marks an absent
    one.  Only the stored coordinates and w itself can break that, so those
    are checked, in group order, though `entries` counts the whole matrix."""
    check_soergel_rank(n)
    perms = symmetric_group(n)
    violations: list[dict] = []
    for w in perms:
        coords = s_element(w).coords
        for u in sorted(coords.keys() | {w}, key=sort_key):
            val = coords.get(u, 0)
            if u.length() >= w.length() and val != (1 if u == w else 0):
                violations.append({"w": w.to_json(), "u": u.to_json(), "got": str(val)})
    return {
        "check": "s_basis_unitriangular",
        "n": n,
        "entries": len(perms) ** 2,
        "violations": violations,
    }


def verify_bimodule_closure(unitriangular: dict, injectivity: dict) -> list[dict]:
    """Right multiplication by each variable keeps Gamma_j inside Gamma_j,
    given the `unitriangular` and `injectivity` certificates of one rank:
    one certificate per level j = 0..length(w0)+1, and no product formed.

    Let K_j be the common kernel of the F_w with length(w) < j (for j = 0,
    the whole module).  Localisation (Goresky, Kottwitz and MacPherson,
    Invent. Math. 1998) makes Gamma_j = K_j, and K_j is closed:
    1. Gamma_j is in K_j.  Each F_w is left-linear, and the filtration
       identity, whose violations injectivity carries, makes
       F_w(S_{w'}) = 0 whenever length(w) < j <= length(w').
    2. K_j is in Gamma_j.  Unitriangularity makes the S_w a free left
       basis; write m in K_j over it.  By step 1 its part over the S_{w'}
       with length(w') < j lies in K_j too.  On those S_{w'}, ordered by
       decreasing length, the F_w with length(w) < j form a square block,
       triangular by the identity, whose diagonal +-delta(w^{-1}) is
       nonzero by injectivity; Q[x] is a domain, so that part is zero.
    3. K_j is a right submodule.  F_w(f (x) h g) = (hg)(x_{w(1)}, ...,
       x_{w(n)}) f by the definition of F_w (Kostant and Kumar, Adv. Math.
       1986), so F_w(m g) = g(x_{w(1)}, ..., x_{w(n)}) F_w(m), and
       F_w(m) = 0 gives F_w(m g) = 0.
    So each level covers the `products` S_w * x_k with length(w) >= j.  It
    is clean exactly when both cited certificates are; otherwise it is
    unproven, not refuted, and names each unclean certificate with its
    violation count.  Certificates of different ranks raise ValueError.
    """
    n = unitriangular["n"]
    if injectivity["n"] != n:
        raise ValueError(f"rank mismatch: certificates at n={n} and n={injectivity['n']}")
    cited = [(c["check"], len(c["violations"])) for c in (unitriangular, injectivity)]
    lengths = [w.length() for w in symmetric_group(n)]
    return [
        {
            "check": "filtration_right_closure",
            "n": n,
            "j": j,
            "products": n * sum(1 for length in lengths if length >= j),
            "violations": [
                {"kind": "unproven", "cites": check, "violations": count}
                for check, count in cited
                if count
            ],
        }
        for j in range(max(lengths) + 2)
    ]


def verify_triangular_injectivity(identity: dict) -> dict:
    """The F-matrix over S_n has nonzero determinant, given its `identity` certificate.

    Order rows F_w and columns S_{w'} by decreasing length.  Every entry
    left of the diagonal has length(w') >= length(w), so the filtration
    identity certificate checks that it is zero, and that the diagonal
    entry is (-1)^{length(w)} delta(w^{-1}).  The matrix is therefore
    triangular, its determinant is the product of the diagonal, and the
    unconstrained entries right of it are never evaluated.  As w -> w^{-1}
    permutes S_n, that product is (-1)^{sum length(w)} times the product of
    all delta(w), each a product of nonzero linear forms x_i - x_j; Q[x] is
    a domain, so the determinant is nonzero.  The certificate keeps the
    identity's violations, without recomputing them, and adds checks of
    those two facts.
    """
    n = identity["n"]
    perms = symmetric_group(n)
    violations = list(identity["violations"])
    if {w.inverse() for w in perms} != set(perms):
        violations.append({"kind": "inverse_not_a_bijection"})
    for w in perms:
        if delta_w(w).is_zero:
            violations.append({"w": w.to_json(), "kind": "zero_delta"})
    return {
        "check": "f_matrix_triangular_injectivity",
        "n": n,
        "matrix_size": len(perms),
        "determinant_nonzero": not violations,
        "violations": violations,
    }


# ------------------------------------------------------------ degree table


@dataclass(frozen=True)
class GraphTwistEntry:
    """Per-permutation degree data of the filtration quotient line bundle."""

    w: Permutation
    inversion_set: tuple[tuple[int, int], ...]
    delta: Poly
    degrees: tuple[int, ...]

    def payload(self) -> dict:
        """The row's JSON object, with delta left a Poly, which the CLI's JSON
        writer renders as its to_json."""
        return {
            "w": self.w.to_json(),
            "inversions": [list(p) for p in self.inversion_set],
            "delta": self.delta,
            "degrees": list(self.degrees),
        }


# `table graph-twists --n 6 --json` takes 0.49 to 0.55 s on the same host, at
# 54 MiB peak RSS.  In process, building the table takes 0.15 s and the CLI's
# JSON writer 0.26 s for the 26 MB document.  Rank 7 ran past 65 s with
# Fraction coefficients and was not timed again.
MAX_GRAPH_TWIST_RANK = 6


def graph_twist_table(n: int) -> list[GraphTwistEntry]:
    """Inversion products and their per-variable degrees, one row per w.

    degrees[i] is the degree of x_{i+1} in the inversion product, i.e. the
    number of inversion pairs containing i+1; the degrees sum to twice the
    length.  Ranks beyond MAX_GRAPH_TWIST_RANK are refused first.
    """
    check_rank(n, MAX_GRAPH_TWIST_RANK, "graph-twist tables")
    table = []
    for w in symmetric_group(n):
        inv = tuple(sorted(w.inversions()))
        delta = delta_w(w)
        degrees = tuple(
            sum(1 for pair in inv if i in pair) for i in range(1, n + 1)
        )
        table.append(GraphTwistEntry(w, inv, delta, degrees))
    return table
