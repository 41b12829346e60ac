"""Bimodule layer: S-basis structure, evaluation maps, filtration closure.

The rank-2 cases are frozen by hand (S_{s1} has coordinates {s1: 1, e: -x1},
its F-image under s1 is x2 - x1, and so on); rank-3 checks are exhaustive.
Rank-4 sweeps are in the acceptance suite.
"""

import math
import random

import pytest

from schubstab.bimodule import (
    BimoduleElement,
    change_of_basis_matrix,
    f_map,
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
from schubstab.poly import Poly, random_poly
from schubstab.schubert import delta_w, schubert_poly, specialization_check


def x(i, n):
    return Poly.x(i, n)


def perm(*word):
    return Permutation(tuple(word))


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
    assert ss1.coordinate(s1) == Poly.one(2)
    assert ss1.coordinate(e2) == -x(1, 2)
    assert len(ss1.coords) == 2
    # In rank 2 the longest element is s1 itself.
    assert s_element(Permutation.longest(2)) == ss1


def test_s_element_rank3_spot():
    # S_{(2,3,1)}: additive factorizations give e -> schubert((3,1,2))(-x)
    # = x1^2 and s2 -> schubert(s1)(-x) = -x1.
    w = perm(2, 3, 1)
    sw = s_element(w)
    assert sw.coordinate(w) == Poly.one(3)
    assert sw.coordinate(Permutation.identity(3)) == x(1, 3) ** 2
    assert sw.coordinate(perm(1, 3, 2)) == -x(1, 3)
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
        elem = s_element(s1).left_multiply(f)
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
    perms1, m1 = change_of_basis_matrix(1)
    assert m1 == [[Poly.one(1)]]
    perms2, m2 = change_of_basis_matrix(2)
    assert [w.word for w in perms2] == [(1, 2), (2, 1)]
    assert m2[0] == [Poly.one(2), Poly.zero(2)]
    assert m2[1] == [-x(1, 2), Poly.one(2)]


def test_unitriangular_certificates():
    for n in (1, 2, 3):
        cert = verify_unitriangular(n)
        assert cert["violations"] == []
    perms3, m3 = change_of_basis_matrix(3)
    for i in range(6):
        assert m3[i][i] == Poly.one(3)


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
            assert right_multiply(elem.left_multiply(f), g) == right_multiply(elem, g).left_multiply(f)


def test_right_action_is_associative_on_products():
    e = Permutation.identity(2)
    elem = BimoduleElement(2, {e: Poly.one(2)})
    g, h = x(1, 2), x(2, 2)
    assert right_multiply(right_multiply(elem, g), h) == right_multiply(elem, g * h)


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
                rebuilt = rebuilt + s_element(w).left_multiply(c)
            assert rebuilt == elem


def test_membership_frozen():
    w0 = Permutation.longest(3)
    ok, witness = membership_in_gamma(s_element(w0), w0.length())
    assert ok and list(witness) == [w0]
    ok, _ = membership_in_gamma(s_element(Permutation.identity(2)), 1)
    assert not ok
    s1 = perm(2, 1)
    ok, _ = membership_in_gamma(right_multiply(s_element(s1), x(2, 2)), 1)
    assert ok


def test_bimodule_closure_certificates():
    assert verify_bimodule_closure(2, 1)["violations"] == []
    cert = verify_bimodule_closure(3, 2)
    assert cert["violations"] == []
    assert cert["products"] == 3 * 3  # three generators of length >= 2
    assert verify_bimodule_closure(3, 0)["violations"] == []


def test_bimodule_closure_certificates_rank4():
    products = 0
    for j in range(8):
        cert = verify_bimodule_closure(4, j)
        assert cert["violations"] == [], (j, cert["violations"][:3])
        products += cert["products"]
    # 4 variables times the 24 + 23 + 20 + 15 + 9 + 4 + 1 + 0 generators.
    assert products == 384


def test_triangular_injectivity_certificates():
    for n in (2, 3, 4):
        cert = verify_triangular_injectivity(n)
        assert cert["violations"] == []
        assert cert["determinant_nonzero"] is True
        assert cert["matrix_size"] == math.factorial(n)


def test_certificates_name_a_wrong_diagonal_entry(monkeypatch):
    bad = perm(2, 3, 1)
    real_f_map = f_map

    def corrupted(w, elem):
        got = real_f_map(w, elem)
        return got + 1 if w == bad and elem == s_element(bad) else got

    monkeypatch.setattr("schubstab.bimodule.f_map", corrupted)
    identity = verify_filtration_identity(3)
    assert [(v["w"], v["w_prime"]) for v in identity["violations"]] == [([2, 3, 1], [2, 3, 1])]
    cert = verify_triangular_injectivity(3)
    assert [v["w"] for v in cert["violations"]] == [[2, 3, 1]]
    assert cert["determinant_nonzero"] is False


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
    blob = [entry.to_json() for entry in graph_twist_table(2)]
    assert blob[1]["w"] == [2, 1]
    assert blob[1]["degrees"] == [1, 1]
    assert blob[1]["inversions"] == [[1, 2]]
