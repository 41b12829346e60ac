"""Bimodule layer: S-basis structure, evaluation maps, filtration closure.

The rank-2 cases are frozen by hand (S_{s1} has coordinates {s1: 1, e: -x1},
its F-image under s1 is x2 - x1, and so on); rank-3 checks are exhaustive.
Rank-4 sweeps are in the acceptance suite.
"""

import json
import math
import random
from fractions import Fraction

import pytest

import schubstab.bimodule as bimodule_module
from schubstab.bimodule import (
    MAX_GRAPH_TWIST_RANK,
    MAX_SOERGEL_RANK,
    BimoduleElement,
    f_matrix_columns,
    graph_twist_table,
    membership_in_gamma,
    right_multiply,
    s_basis_coordinates,
    s_element,
    verify_bimodule_closure,
    verify_filtration_identity,
    verify_triangular_injectivity,
    verify_unitriangular,
)
from schubstab.perms import Permutation, symmetric_group
from schubstab.poly import Poly, permute_x, random_poly, sum_of_products
from schubstab.schubert import delta_w, schubert_poly
from test_cli import json_text
from test_schubert_oracle import expand_by_linear_solve
from test_specialization_oracle import specialization_check


def x(i, n):
    return Poly.x(i, n)


def perm(*word):
    return Permutation(tuple(word))


def left_multiply(elem, f):
    """The left R-action: every coordinate times f, the oracle the left-linear
    checks multiply by."""
    return BimoduleElement(elem.n, {u: c * f for u, c in elem.coords.items()})


def add(a, b):
    """The sum of two elements of one rank, coordinate by coordinate."""
    coords = dict(a.coords)
    for u, c in b.coords.items():
        coords[u] = coords[u] + c if u in coords else c
    return BimoduleElement(a.n, coords)


def f_map(w, elem):
    """F_w by its definition, evaluation against the w-twisted diagonal:
    the sum of coordinate[u] * permute_x(w, schubert_u)."""
    if w.n != elem.n:
        raise ValueError(f"rank mismatch: {w.n} vs {elem.n}")
    return sum_of_products(
        ((c, permute_x(w, schubert_poly(u))) for u, c in elem.coords.items()), elem.n
    )


def oracle_qualifying_pairs(n):
    perms = symmetric_group(n)
    return sum(
        1 for w in perms for wp in perms if wp.length() >= w.length()
    )


# ----------------------------------------------------------- construction


def test_element_normalization_and_validation():
    e = Permutation.identity(2)
    elem = BimoduleElement(2, {e: Poly.zero(2), perm(2, 1): Poly.one(2)})
    assert list(elem.coords) == [perm(2, 1)]
    assert BimoduleElement(2, {}).is_zero
    with pytest.raises(ValueError):
        BimoduleElement(2, {Permutation.identity(3): Poly.one(2)})
    with pytest.raises(ValueError):
        BimoduleElement(2, {e: Poly.one(3)})


def test_s_element_frozen():
    e2 = Permutation.identity(2)
    s1 = perm(2, 1)
    assert s_element(Permutation.identity(1)).coords == {Permutation.identity(1): Poly.one(1)}
    se = s_element(e2)
    assert se.coords == {e2: Poly.one(2)}
    ss1 = s_element(s1)
    assert ss1.coords[s1] == Poly.one(2)
    assert ss1.coords[e2] == -x(1, 2)
    assert len(ss1.coords) == 2
    # In rank 2 the longest element is s1 itself.
    assert s_element(Permutation.longest(2)) == ss1


def test_s_element_rank3_spot():
    # S_{(2,3,1)}: additive factorizations give e -> schubert((3,1,2))(-x)
    # = x1^2 and s2 -> schubert(s1)(-x) = -x1.
    w = perm(2, 3, 1)
    sw = s_element(w)
    assert sw.coords[w] == Poly.one(3)
    assert sw.coords[Permutation.identity(3)] == x(1, 3) ** 2
    assert sw.coords[perm(1, 3, 2)] == -x(1, 3)
    assert len(sw.coords) == 3


# ------------------------------------------------------------- evaluation


def test_f_map_frozen():
    e = Permutation.identity(2)
    s1 = perm(2, 1)
    assert f_map(e, s_element(e)) == Poly.one(2)
    assert f_map(s1, s_element(s1)) == x(2, 2) - x(1, 2)
    assert f_map(e, s_element(s1)).is_zero
    with pytest.raises(ValueError):
        f_map(Permutation.identity(3), s_element(s1))


def test_f_map_is_left_linear():
    rng = random.Random(3)
    s1 = perm(2, 1)
    for _ in range(5):
        f = random_poly(rng, 2, max_degree=3, n_terms=3)
        elem = left_multiply(s_element(s1), f)
        assert f_map(s1, elem) == f * f_map(s1, s_element(s1))


def test_f_map_matches_specialization_rank3():
    # Both sides compute the same twisted evaluation of the two-alphabet
    # polynomial of w', whenever the specialization regime applies.
    for n, want_pairs in ((3, 23), (4, 341)):
        pairs = 0
        for w_prime in symmetric_group(n):
            for w in symmetric_group(n):
                if w.length() > w_prime.length():
                    continue
                pairs += 1
                assert f_map(w, s_element(w_prime)) == specialization_check(w_prime, w)
        assert pairs == want_pairs == oracle_qualifying_pairs(n)


def test_filtration_identity_certificates():
    cert1 = verify_filtration_identity(1)
    assert (cert1["pairs"], cert1["violations"]) == (1, [])
    cert2 = verify_filtration_identity(2)
    assert (cert2["pairs"], cert2["violations"]) == (3, [])
    cert3 = verify_filtration_identity(3)
    assert cert3["pairs"] == oracle_qualifying_pairs(3) == 23
    assert cert3["violations"] == []
    assert cert3["check"] == "filtration_identity"


def test_f_map_diagonal_uses_inverse_orientation():
    # Distinguishing non-involution: the diagonal value at w = (2,3,1) is
    # the inversion product of its inverse.
    w = perm(2, 3, 1)
    got = f_map(w, s_element(w))
    assert got == delta_w(w.inverse())
    assert got != delta_w(w)


# ------------------------------------------------------- change of basis


def test_change_of_basis_frozen():
    e1 = Permutation.identity(1)
    assert s_element(e1).coords == {e1: Poly.one(1)}
    e, s1 = Permutation.identity(2), perm(2, 1)
    assert s_element(e).coords == {e: Poly.one(2)}
    assert s_element(s1).coords == {e: -x(1, 2), s1: Poly.one(2)}


def test_unitriangular_certificates():
    for n in (1, 2, 3):
        cert = verify_unitriangular(n)
        assert cert["violations"] == []
        assert cert["entries"] == math.factorial(n) ** 2
    for w in symmetric_group(3):
        assert s_element(w).coords[w] == Poly.one(3)


def _unitriangular_oracle(n):
    """The unitriangularity violations read off the full n! x n! matrix of
    coordinates, an absent one as Poly.zero."""
    one = Poly.one(n)
    out = []
    for w in symmetric_group(n):
        elem = bimodule_module.s_element(w)
        for u in symmetric_group(n):
            val = elem.coords.get(u, Poly.zero(n))
            bad = val != one if u == w else u.length() >= w.length() and not val.is_zero
            if bad:
                out.append({"w": w.to_json(), "u": u.to_json(), "got": str(val)})
    return out


@pytest.mark.parametrize(
    "fault, u, got",
    [
        ("wrong diagonal", (2, 3, 1), "2"),
        ("absent diagonal", (2, 3, 1), "0"),
        ("extra long coordinate", (3, 1, 2), "x1"),
    ],
)
def test_unitriangular_names_a_planted_entry(monkeypatch, fault, u, got):
    bad, u = perm(2, 3, 1), Permutation(u)
    real = s_element

    def planted(w):
        elem = real(w)
        if w != bad:
            return elem
        coords = dict(elem.coords)
        if fault == "wrong diagonal":
            coords[u] = Poly.const(2, 3)
        elif fault == "absent diagonal":
            del coords[u]
        else:
            coords[u] = x(1, 3)
        return BimoduleElement(3, coords)

    monkeypatch.setattr(bimodule_module, "s_element", planted)
    cert = verify_unitriangular(3)
    assert cert["violations"] == [{"w": [2, 3, 1], "u": list(u.word), "got": got}]
    assert cert["violations"] == _unitriangular_oracle(3)


# ------------------------------------------------------------ right action


def test_right_multiply_frozen():
    e = Permutation.identity(2)
    s1 = perm(2, 1)
    one_elem = BimoduleElement(2, {e: Poly.one(2)})
    assert right_multiply(one_elem, Poly.one(2)) == one_elem
    assert right_multiply(one_elem, x(1, 2)) == BimoduleElement(2, {s1: Poly.one(2)})
    assert right_multiply(one_elem, x(2, 2)) == BimoduleElement(
        2, {e: x(1, 2) + x(2, 2), s1: Poly.const(-1, 2)}
    )
    with pytest.raises(ValueError):
        right_multiply(one_elem, Poly.one(3))


def test_left_right_actions_commute():
    rng = random.Random(17)
    for n in (2, 3):
        perms = symmetric_group(n)
        for _ in range(4):
            coords = {
                perms[rng.randrange(len(perms))]: random_poly(rng, n, max_degree=2, n_terms=2)
                for _ in range(2)
            }
            elem = BimoduleElement(n, coords)
            f = random_poly(rng, n, max_degree=2, n_terms=2)
            g = random_poly(rng, n, max_degree=2, n_terms=2)
            assert right_multiply(left_multiply(elem, f), g) == left_multiply(right_multiply(elem, g), f)


def test_right_action_is_associative_on_products():
    e = Permutation.identity(2)
    elem = BimoduleElement(2, {e: Poly.one(2)})
    g, h = x(1, 2), x(2, 2)
    assert right_multiply(right_multiply(elem, g), h) == right_multiply(elem, g * h)


def _right_multiply_oracle(elem, g):
    """Every schubert_u * g expanded by the linear-solve oracle, with no
    product table."""
    us = list(elem.coords)
    expansions = expand_by_linear_solve([schubert_poly(u) * g for u in us])
    out = BimoduleElement(elem.n, {})
    for u, expansion in zip(us, expansions):
        out = add(out, left_multiply(BimoduleElement(elem.n, expansion), elem.coords[u]))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_product_table_equals_direct_expansion_for_every_variable(n):
    inputs = [(u, k) for u in symmetric_group(n) for k in range(1, n + 1)]
    expected = expand_by_linear_solve([schubert_poly(u) * x(k, n) for u, k in inputs])
    for (u, k), want in zip(inputs, expected):
        one = BimoduleElement(n, {u: Poly.one(n)})
        assert right_multiply(one, x(k, n)) == BimoduleElement(n, want), (u, k)


def test_product_table_is_linear_over_a_multi_term_factor():
    n = 4
    g = x(1, n) * x(3, n) - Fraction(2, 3) * x(2, n) ** 2 + 5
    perms = symmetric_group(n)
    for u, want in zip(perms, expand_by_linear_solve([schubert_poly(u) * g for u in perms])):
        one = BimoduleElement(n, {u: Poly.one(n)})
        assert right_multiply(one, g) == BimoduleElement(n, want), u
    rng = random.Random(29)
    elem = BimoduleElement(
        n, {u: random_poly(rng, n, max_degree=2, n_terms=2) for u in perms[::5]}
    )
    assert right_multiply(elem, g) == _right_multiply_oracle(elem, g)


def _brute_force_covers(w, k):
    """Every w t_ab with k in {a, b} and length one more than w's, signed
    + exactly when the other index is greater than k, by the lengths."""
    n = w.n
    out = []
    for other in range(1, n + 1):
        if other == k:
            continue
        word = list(range(1, n + 1))
        word[k - 1], word[other - 1] = other, k
        t = w * Permutation(tuple(word))
        if t.length() == w.length() + 1:
            out.append((1 if other > k else -1, t))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_monk_covers_match_brute_force(n):
    for w in symmetric_group(n):
        for k in range(1, n + 1):
            assert bimodule_module._monk_covers(w, k) == _brute_force_covers(w, k), (w, k)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_product_witness_is_the_monk_rule(n):
    """The S-basis witness of S_w * x_k is x_{w(k)} at w and the signed
    covers, each +-1: the closed form the benchmark's closure check rebuilds."""
    for w in symmetric_group(n):
        for k in range(1, n + 1):
            ok, witness = membership_in_gamma(right_multiply(s_element(w), x(k, n)), w.length())
            want = {w: x(w.word[k - 1], n)}
            want.update((t, Poly.const(sign, n)) for sign, t in _brute_force_covers(w, k))
            assert ok and witness == want, (w, k)


# ------------------------------------------------------------- filtration


def test_s_basis_coordinates_round_trip():
    rng = random.Random(41)
    for n in (2, 3):
        perms = symmetric_group(n)
        for _ in range(4):
            coords = {
                perms[rng.randrange(len(perms))]: random_poly(rng, n, max_degree=3, n_terms=3)
                for _ in range(3)
            }
            elem = BimoduleElement(n, coords)
            sc = s_basis_coordinates(elem)
            rebuilt = BimoduleElement(n, {})
            for w, c in sc.items():
                rebuilt = add(rebuilt, left_multiply(s_element(w), c))
            assert rebuilt == elem


def test_back_substitution_sums_only_where_something_is_pending(monkeypatch):
    n = 4
    elem = right_multiply(s_element(perm(2, 1, 4, 3)), x(2, n))
    expected = s_basis_coordinates(elem)  # also warms the caches
    sizes = []
    real = bimodule_module.sum_of_products

    def counting(pairs, nx, ny=0):
        pairs = list(pairs)
        sizes.append(len(pairs))
        return real(pairs, nx, ny)

    monkeypatch.setattr(bimodule_module, "sum_of_products", counting)
    assert s_basis_coordinates(elem) == expected
    reached = set(elem.coords).union(*(set(s_element(w).coords) - {w} for w in expected))
    assert 0 not in sizes
    assert len(sizes) == len(reached) < len(symmetric_group(n))


def test_back_substitution_refuses_a_coordinate_longer_than_its_element(monkeypatch):
    bad = perm(2, 1, 3)
    real = s_element

    def corrupted(w):
        elem = real(w)
        if w != bad:
            return elem
        return BimoduleElement(3, {**elem.coords, Permutation.longest(3): x(1, 3)})

    monkeypatch.setattr(bimodule_module, "s_element", corrupted)
    with pytest.raises(RuntimeError, match="back-substitution left a residual"):
        s_basis_coordinates(BimoduleElement(3, {bad: Poly.one(3)}))


def test_membership_frozen():
    w0 = Permutation.longest(3)
    ok, witness = membership_in_gamma(s_element(w0), w0.length())
    assert ok and list(witness) == [w0]
    ok, _ = membership_in_gamma(s_element(Permutation.identity(2)), 1)
    assert not ok
    s1 = perm(2, 1)
    ok, _ = membership_in_gamma(right_multiply(s_element(s1), x(2, 2)), 1)
    assert ok


def derived_closure(n):
    """The closure certificates of rank n, derived as verify soergel derives them."""
    injectivity = verify_triangular_injectivity(verify_filtration_identity(n))
    return verify_bimodule_closure(verify_unitriangular(n), injectivity)


def test_bimodule_closure_certificates():
    assert derived_closure(2)[1]["violations"] == []
    certs = derived_closure(3)
    assert [cert["j"] for cert in certs] == [0, 1, 2, 3, 4]
    assert certs[2]["violations"] == []
    assert certs[2]["products"] == 3 * 3  # three generators of length >= 2
    assert certs[0]["violations"] == []


def test_bimodule_closure_certificates_rank4():
    certs = derived_closure(4)
    assert [cert["j"] for cert in certs] == list(range(8))
    for cert in certs:
        assert cert["violations"] == [], (cert["j"], cert["violations"][:3])
    # 4 variables times the 24 + 23 + 20 + 15 + 9 + 4 + 1 + 0 generators.
    assert sum(cert["products"] for cert in certs) == 384


def test_closure_rejects_certificates_of_different_ranks():
    injectivity = verify_triangular_injectivity(verify_filtration_identity(3))
    with pytest.raises(ValueError, match="rank mismatch"):
        verify_bimodule_closure(verify_unitriangular(2), injectivity)


def test_no_certificate_forms_a_product(monkeypatch, capsys):
    """verify soergel at the top admitted rank reaches none of the product
    route: right_multiply, the S-basis coordinates, membership_in_gamma and
    the product table all raise here."""
    from schubstab import cli

    def boom(*args):
        raise AssertionError("a certificate formed a product")

    for module, name in (
        (bimodule_module, "right_multiply"),
        (bimodule_module, "s_basis_coordinates"),
        (bimodule_module, "membership_in_gamma"),
        (bimodule_module, "_schubert_times_monomial"),
    ):
        monkeypatch.setattr(module, name, boom)
    assert cli.main(["verify", "soergel", "--n", str(MAX_SOERGEL_RANK), "--json"]) == 0
    certs = json.loads(capsys.readouterr().out)["certificates"]
    levels = Permutation.longest(MAX_SOERGEL_RANK).length() + 2
    assert sum(cert["check"] == "filtration_right_closure" for cert in certs) == levels


def test_no_certificate_evaluates_f_map(capsys):
    """The F-matrix is built without the definition of F_w: f_map is the
    tests' oracle and not in the package, and the certificates are clean."""
    from schubstab import cli

    assert not hasattr(bimodule_module, "f_map")
    for n in range(1, 6):
        cert = verify_filtration_identity(n)
        assert (cert["pairs"], cert["violations"]) == (oracle_qualifying_pairs(n), []), n
    assert cli.main(["verify", "soergel", "--n", "4", "--json"]) == 0
    for cert in json.loads(capsys.readouterr().out)["certificates"]:
        assert cert["violations"] == [], cert["check"]


def _closure_oracle(n):
    """Per-level closure certificates: every generator's product formed
    again at each level and tested by membership_in_gamma."""
    top = Permutation.longest(n).length()
    certs = []
    for j in range(top + 2):
        generators = [w for w in symmetric_group(n) if w.length() >= j]
        violations = [
            {"w": w.to_json(), "variable": k}
            for w in generators
            for k in range(1, n + 1)
            if not membership_in_gamma(
                bimodule_module.right_multiply(s_element(w), x(k, n)), j
            )[0]
        ]
        certs.append(
            {
                "check": "filtration_right_closure",
                "n": n,
                "j": j,
                "products": len(generators) * n,
                "violations": violations,
            }
        )
    return certs


@pytest.mark.parametrize("n", [2, 3, 4])
def test_derived_closure_equals_the_computed_oracle(n):
    assert derived_closure(n) == _closure_oracle(n)


def _plant_diagonal(monkeypatch):
    bad = perm(2, 3, 1)
    _plant_in_column(monkeypatch, bad, bad, lambda got: got + 1)


def _plant_long_coordinate(monkeypatch):
    real = s_element

    def planted(w):
        elem = real(w)
        if w != perm(2, 3, 1):
            return elem
        return BimoduleElement(3, {**elem.coords, perm(3, 1, 2): x(1, 3)})

    monkeypatch.setattr(bimodule_module, "s_element", planted)


def _plant_top_coordinate(monkeypatch):
    """x1 added to the coordinate of S_{w0} at e, at rank 3.  No descent step
    reads that coordinate, as e has no descent, and unitriangularity checks
    no coordinate shorter than its element."""
    w0, e = Permutation.longest(3), Permutation.identity(3)
    real = s_element

    def planted(w):
        elem = real(w)
        if w != w0:
            return elem
        return BimoduleElement(3, {**elem.coords, e: elem.coords[e] + x(1, 3)})

    monkeypatch.setattr(bimodule_module, "s_element", planted)


@pytest.mark.parametrize(
    "plant, cited",
    [
        # A wrong diagonal entry fails the identity, which injectivity carries.
        (_plant_diagonal, {"f_matrix_triangular_injectivity": 1}),
        # An extra long coordinate of S_{(2,3,1)} fails unitriangularity, and
        # the descent step that divides S_{(2,3,1)} out of S_{w0}.
        (_plant_long_coordinate, {"s_basis_unitriangular": 1, "f_matrix_triangular_injectivity": 1}),
        # A wrong short coordinate of S_{w0} fails only the Cauchy comparison.
        (_plant_top_coordinate, {"f_matrix_triangular_injectivity": 1}),
    ],
    ids=["identity", "unitriangularity", "cauchy"],
)
def test_a_cited_fault_leaves_every_closure_level_unproven(monkeypatch, capsys, plant, cited):
    from schubstab import cli

    plant(monkeypatch)
    assert cli.main(["verify", "soergel", "--n", "3", "--json"]) == 1
    certs = json.loads(capsys.readouterr().out)["certificates"]
    closure = [cert for cert in certs if cert["check"] == "filtration_right_closure"]
    assert [cert["j"] for cert in closure] == [0, 1, 2, 3, 4]
    unproven = [
        {"kind": "unproven", "cites": check, "violations": count}
        for check, count in cited.items()
    ]
    for cert in closure:
        assert sorted(cert["violations"], key=str) == sorted(unproven, key=str)
    for cert in certs:
        if cert["check"] in cited:
            assert len(cert["violations"]) == cited[cert["check"]]


# -------------------------------------------- the lemma closure rests on


def _random_element(rng, n, j0):
    """A seeded random combination, in left coordinates, of one S_w of
    length j0 and some longer ones: an element of Gamma_{j0} and not of
    Gamma_{j0 + 1}."""
    at_j0 = [w for w in symmetric_group(n) if w.length() == j0]
    longer = [w for w in symmetric_group(n) if w.length() > j0 and rng.random() < 0.5]
    total = BimoduleElement(n, {})
    for w in [rng.choice(at_j0), *longer]:
        c = random_poly(rng, n, max_degree=2, n_terms=2) + 1
        total = add(total, left_multiply(s_element(w), c))
    return total


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gamma_is_the_common_kernel_and_f_twists_the_right_action(n):
    """Checked on the product route: membership_in_gamma(m, j) holds exactly
    when F_w(m) = 0 for every length(w) < j, and F_w(m x_k) = x_{w(k)} F_w(m)."""
    rng = random.Random(100 + n)
    perms = symmetric_group(n)
    top = perms[-1].length()
    for trial in range(4):
        m = _random_element(rng, n, rng.randrange(top + 1))
        images = {w: f_map(w, m) for w in perms}
        for j in range(top + 2):
            in_kernel = all(images[w].is_zero for w in perms if w.length() < j)
            assert membership_in_gamma(m, j)[0] == in_kernel, (trial, j)
        for k in range(1, n + 1):
            product = right_multiply(m, x(k, n))
            for w in perms:
                assert f_map(w, product) == x(w.word[k - 1], n) * images[w], (trial, k, w)


def test_triangular_injectivity_certificates():
    for n in (2, 3, 4):
        cert = verify_triangular_injectivity(verify_filtration_identity(n))
        assert cert["violations"] == []
        assert cert["determinant_nonzero"] is True
        assert cert["matrix_size"] == math.factorial(n)


def test_ranks_beyond_budget_are_refused_before_any_work(monkeypatch):
    def boom(*args):
        raise AssertionError("work started")

    for name in ("symmetric_group", "s_element", "delta_w", "double_delta"):
        monkeypatch.setattr(bimodule_module, name, boom)
    admitted = f"1..{MAX_SOERGEL_RANK}"
    for check in (verify_filtration_identity, verify_unitriangular):
        for n in (0, MAX_SOERGEL_RANK + 1):
            with pytest.raises(ValueError, match=f"rank {n} is outside {admitted} for filtration"):
                check(n)
    for n in (0, MAX_GRAPH_TWIST_RANK + 1):
        with pytest.raises(ValueError, match=f"rank {n} is outside 1..6 for graph-twist"):
            graph_twist_table(n)


def _plant_in_column(monkeypatch, w_prime, w, fault):
    """Replace F_w(S_{w'}) by fault(F_w(S_{w'})) where the recursion hands its
    column to the certificate, reading an absent entry as the zero the
    recursion proved it; the columns the recursion divides on are left as
    they are."""
    real = bimodule_module.f_matrix_columns

    def planted(n):
        for v, i, column in real(n):
            if v == w_prime:
                column = {**column, w: fault(column.get(w, Poly.zero(n)))}
            yield v, i, column

    monkeypatch.setattr(bimodule_module, "f_matrix_columns", planted)


def test_certificates_name_a_wrong_diagonal_entry(monkeypatch):
    bad = perm(2, 3, 1)
    _plant_in_column(monkeypatch, bad, bad, lambda got: got + 1)
    identity = verify_filtration_identity(3)
    assert [(v["w"], v["w_prime"]) for v in identity["violations"]] == [([2, 3, 1], [2, 3, 1])]
    cert = verify_triangular_injectivity(identity)
    assert [v["w"] for v in cert["violations"]] == [[2, 3, 1]]
    assert cert["determinant_nonzero"] is False


def test_certificates_name_a_nonzero_off_diagonal_entry(monkeypatch):
    # The recursion stores no entry at (2,1,3) in the column of (2,3,1): it
    # proved that slot zero, and the plant puts x1 there.
    w, w_prime = perm(2, 1, 3), perm(2, 3, 1)
    _plant_in_column(monkeypatch, w_prime, w, lambda got: got + x(1, 3))
    identity = verify_filtration_identity(3)
    assert identity["pairs"] == oracle_qualifying_pairs(3)
    assert identity["violations"] == [
        {"w": [2, 1, 3], "w_prime": [2, 3, 1], "got": "x1", "expected": "0"}
    ]
    assert verify_triangular_injectivity(identity)["determinant_nonzero"] is False


def test_certificates_name_a_missing_diagonal_entry(monkeypatch):
    bad = perm(2, 3, 1)
    real = bimodule_module.f_matrix_columns

    def planted(n):
        for v, i, column in real(n):
            if v == bad:
                column = {w: f for w, f in column.items() if w != bad}
            yield v, i, column

    monkeypatch.setattr(bimodule_module, "f_matrix_columns", planted)
    identity = verify_filtration_identity(3)
    assert identity["pairs"] == oracle_qualifying_pairs(3)
    assert identity["violations"] == [
        {"w": [2, 3, 1], "w_prime": [2, 3, 1], "got": "0", "expected": str(delta_w(bad.inverse()))}
    ]
    cert = verify_triangular_injectivity(identity)
    assert cert["violations"] == identity["violations"]
    assert cert["determinant_nonzero"] is False


# --------------------------------------------------- the descent recursion


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_recursion_equals_f_map_on_every_qualifying_pair(n):
    """Every qualifying pair, stored or not, against the f_map oracle: a
    stored entry is nonzero and inside its column's cut, and an absent one
    is zero."""
    perms = symmetric_group(n)
    pairs = 0
    for v, i, column in f_matrix_columns(n):
        elem = s_element(v)
        for w, got in column.items():
            assert w.length() <= v.length() and not got.is_zero, (w, v)
        for w in perms:
            if w.length() > v.length():
                break
            pairs += 1
            assert column.get(w, Poly.zero(n)) == f_map(w, elem), (w, v)
    assert pairs == oracle_qualifying_pairs(n)


def test_sparse_columns_are_the_nonzero_part_of_the_dense_recursion(monkeypatch):
    """The skipping rule holds for any top column, not only the true one,
    whose columns are diagonal.  With the division replaced by the bare
    difference, so that any top column is admissible, a seeded sparse top
    column is walked down both ways: every sparse column is the nonzero part
    of the dense recursion over its whole cut."""
    n = 4
    perms = symmetric_group(n)
    zero = Poly.zero(n)
    rng = random.Random(4)
    top = {w: Poly.const(rng.randrange(1, 4), n) for w in rng.sample(perms, 6)}
    monkeypatch.setattr(bimodule_module, "_top_entry", lambda w: top.get(w, zero))
    monkeypatch.setattr(bimodule_module, "divide_exact", lambda f, a, b: f)
    dense = {perms[-1]: {w: top.get(w, zero) for w in perms}}
    stored = 0
    for v, i, column in f_matrix_columns(n):
        if i is not None:
            s = Permutation.simple(i, n)
            parent = dense[v * s]
            dense[v] = {w: parent[w] - parent[w * s] for w in perms if w.length() <= v.length()}
        assert column == {w: f for w, f in dense[v].items() if not f.is_zero}, v
        stored += len(column) - (v in column)
    assert stored > 0


def test_recursion_visits_no_zero_entry(monkeypatch):
    """At the top admitted rank the recursion divides once per column below
    w0 and forms at most three products per column: a dense walk over the
    cut would do hundreds of thousands of each."""
    n = MAX_SOERGEL_RANK
    counts = {"divide": 0, "mul": 0}
    real_divide, real_mul = bimodule_module.divide_exact, Permutation.__mul__

    def divide(*args):
        counts["divide"] += 1
        return real_divide(*args)

    def mul(p, q):
        counts["mul"] += 1
        return real_mul(p, q)

    monkeypatch.setattr(bimodule_module, "divide_exact", divide)
    monkeypatch.setattr(Permutation, "__mul__", mul)
    columns = sum(1 for _ in f_matrix_columns(n))
    assert columns == math.factorial(n)
    assert counts["divide"] == math.factorial(n) - 1
    assert counts["mul"] <= 3 * math.factorial(n)


def test_descent_step_names_a_planted_coordinate(monkeypatch):
    # S_{(2,3,1)} is divided out of S_{w0} at i = 1.  Its coordinate at e
    # has no descent at 2, so the step from it to its child (2,1,3) still
    # holds, and only (2,3,1) is named; its F-entries stay right, since the
    # recursion reads no coordinate below w0.
    bad = perm(2, 3, 1)
    real = s_element

    def planted(w):
        elem = real(w)
        if w != bad:
            return elem
        e = Permutation.identity(3)
        return BimoduleElement(3, {**elem.coords, e: elem.coords[e] + x(2, 3)})

    monkeypatch.setattr(bimodule_module, "s_element", planted)
    identity = verify_filtration_identity(3)
    assert identity["violations"] == [{"w_prime": [2, 3, 1], "descent": 1}]
    assert identity["pairs"] == oracle_qualifying_pairs(3)
    assert verify_triangular_injectivity(identity)["determinant_nonzero"] is False


def test_cauchy_check_names_a_planted_top_coordinate(monkeypatch):
    # The recursion's entries stay right, since they are read off the
    # Cauchy product; only the comparison with it sees the plant.
    _plant_top_coordinate(monkeypatch)
    identity = verify_filtration_identity(3)
    assert identity["violations"] == [{"w_prime": [3, 2, 1], "cauchy": False}]
    assert identity["pairs"] == oracle_qualifying_pairs(3)
    # The f_map oracle, over every qualifying pair of the planted elements,
    # finds wrong entries in the column of w0 and nowhere else.
    perms = symmetric_group(3)
    wrong_columns = set()
    for v in perms:
        sign = -1 if v.length() % 2 else 1
        for w in perms:
            if w.length() > v.length():
                continue
            expected = sign * delta_w(v.inverse()) if w == v else Poly.zero(3)
            if f_map(w, bimodule_module.s_element(v)) != expected:
                wrong_columns.add(v.word)
    assert wrong_columns == {(3, 2, 1)}
    injectivity = verify_triangular_injectivity(identity)
    assert injectivity["determinant_nonzero"] is False
    assert injectivity["violations"] == identity["violations"]


def test_cauchy_check_names_a_wrong_reference_product(monkeypatch):
    # The elements are intact, so every entry is right; only the comparison
    # with the product fails.
    real = bimodule_module.double_delta
    monkeypatch.setattr(bimodule_module, "double_delta", lambda n: real(n) + 1)
    identity = verify_filtration_identity(3)
    assert identity["violations"] == [{"w_prime": [3, 2, 1], "cauchy": False}]
    assert identity["pairs"] == oracle_qualifying_pairs(3)


def test_division_by_a_linear_form_is_exact_or_raises(monkeypatch):
    real = bimodule_module.divide_exact

    def off_by_one(f, a, b):
        return real(f + 1, a, b)

    monkeypatch.setattr(bimodule_module, "divide_exact", off_by_one)
    with pytest.raises(ArithmeticError, match="does not divide"):
        verify_filtration_identity(3)


# ------------------------------------------------------------ degree table


def test_graph_twist_table_rank2_frozen():
    table = graph_twist_table(2)
    assert [entry.w.word for entry in table] == [(1, 2), (2, 1)]
    assert table[0].degrees == (0, 0)
    assert table[1].degrees == (1, 1)
    assert table[1].delta == x(1, 2) - x(2, 2)
    assert table[1].inversion_set == ((1, 2),)


def test_graph_twist_table_invariants():
    for n in (2, 3, 4):
        for entry in graph_twist_table(n):
            assert sum(entry.degrees) == 2 * entry.w.length()
            for i in range(1, n + 1):
                assert entry.degrees[i - 1] == max(e[i - 1] for e in entry.delta.terms)
        w0_entry = [t for t in graph_twist_table(n) if t.w == Permutation.longest(n)][0]
        assert w0_entry.degrees == tuple([n - 1] * n)


def test_graph_twist_table_json():
    blob = [json.loads(json_text(entry.payload())) for entry in graph_twist_table(2)]
    assert blob[1]["delta"] == (x(1, 2) - x(2, 2)).to_json()
    assert blob[1]["w"] == [2, 1]
    assert blob[1]["degrees"] == [1, 1]
    assert blob[1]["inversions"] == [[1, 2]]
