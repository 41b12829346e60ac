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
    f_map,
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
from schubstab.cli import _json_text
from schubstab.perms import Permutation, symmetric_group
from schubstab.poly import Poly, random_poly
from schubstab.schubert import (
    delta_w,
    expand_in_schubert_basis,
    schubert_poly,
    specialization_check,
)


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
    """Every schubert_u * g expanded directly, with no product table."""
    out = BimoduleElement(elem.n, {})
    for u, c in elem.coords.items():
        expanded = BimoduleElement(elem.n, expand_in_schubert_basis(schubert_poly(u) * g))
        out = add(out, left_multiply(expanded, c))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_product_table_equals_direct_expansion_for_every_variable(n):
    for u in symmetric_group(n):
        one = BimoduleElement(n, {u: Poly.one(n)})
        for k in range(1, n + 1):
            g = x(k, n)
            want = BimoduleElement(n, expand_in_schubert_basis(schubert_poly(u) * g))
            assert right_multiply(one, g) == want, (u, k)


def test_product_table_is_linear_over_a_multi_term_factor():
    n = 4
    g = x(1, n) * x(3, n) - Fraction(2, 3) * x(2, n) ** 2 + 5
    for u in symmetric_group(n):
        one = BimoduleElement(n, {u: Poly.one(n)})
        want = BimoduleElement(n, expand_in_schubert_basis(schubert_poly(u) * g))
        assert right_multiply(one, g) == want, u
    rng = random.Random(29)
    elem = BimoduleElement(
        n, {u: random_poly(rng, n, max_degree=2, n_terms=2) for u in symmetric_group(n)[::5]}
    )
    assert right_multiply(elem, g) == _right_multiply_oracle(elem, g)


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


def test_bimodule_closure_certificates():
    assert verify_bimodule_closure(2)[1]["violations"] == []
    certs = verify_bimodule_closure(3)
    assert [cert["j"] for cert in certs] == [0, 1, 2, 3, 4]
    assert certs[2]["violations"] == []
    assert certs[2]["products"] == 3 * 3  # three generators of length >= 2
    assert certs[0]["violations"] == []


def test_bimodule_closure_certificates_rank4():
    certs = verify_bimodule_closure(4)
    assert [cert["j"] for cert in certs] == list(range(8))
    for cert in certs:
        assert cert["violations"] == [], (cert["j"], cert["violations"][:3])
    # 4 variables times the 24 + 23 + 20 + 15 + 9 + 4 + 1 + 0 generators.
    assert sum(cert["products"] for cert in certs) == 384


def test_closure_forms_each_product_once(monkeypatch):
    real_multiply, real_coordinates = right_multiply, s_basis_coordinates
    products, expansions = [], []

    def multiply(elem, g):
        products.append((elem, g))
        return real_multiply(elem, g)

    def coordinates(elem):
        expansions.append(elem)
        return real_coordinates(elem)

    monkeypatch.setattr(bimodule_module, "right_multiply", multiply)
    monkeypatch.setattr(bimodule_module, "s_basis_coordinates", coordinates)
    verify_bimodule_closure(4)
    # One product per (w, k): 24 permutations times 4 variables.
    assert len(products) == len(expansions) == 96
    wanted = [(s_element(w), x(k, 4)) for w in symmetric_group(4) for k in range(1, 5)]
    assert all(pair in products for pair in wanted)


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


@pytest.mark.parametrize(
    "w, k, levels",
    [
        # S_{w0} x_2 gains the S-coordinate of s_2, of length 1: named at
        # levels 2 and 3, the levels above 1 where S_{w0} is a generator.
        ((3, 2, 1), 2, [2, 3]),
        ((2, 3, 1), 3, [2]),
    ],
)
def test_closure_names_a_planted_product_at_the_oracle_levels(monkeypatch, w, k, levels):
    """S_w x_k gains a short S-coordinate; S_{w0} x_1 is planted as zero,
    which lies in every Gamma_j and must never be named."""
    w, w0 = Permutation(w), Permutation.longest(3)
    real = right_multiply

    def faulty(elem, g):
        if elem == s_element(w0) and g == x(1, 3):
            return BimoduleElement(3, {})
        out = real(elem, g)
        return add(out, s_element(perm(1, 3, 2))) if elem == s_element(w) and g == x(k, 3) else out

    monkeypatch.setattr(bimodule_module, "right_multiply", faulty)
    certs = verify_bimodule_closure(3)
    assert certs == _closure_oracle(3)
    assert [cert["j"] for cert in certs if cert["violations"]] == levels
    for j in levels:
        assert certs[j]["violations"] == [{"w": list(w.word), "variable": k}]


def test_triangular_injectivity_certificates():
    for n in (2, 3, 4):
        cert = verify_triangular_injectivity(verify_filtration_identity(n))
        assert cert["violations"] == []
        assert cert["determinant_nonzero"] is True
        assert cert["matrix_size"] == math.factorial(n)


def test_ranks_beyond_budget_are_refused_before_any_work(monkeypatch):
    def boom(*args):
        raise AssertionError("work started")

    for name in ("symmetric_group", "s_element", "right_multiply", "delta_w"):
        monkeypatch.setattr(bimodule_module, name, boom)
    for check in (verify_filtration_identity, verify_unitriangular, verify_bimodule_closure):
        for n in (0, MAX_SOERGEL_RANK + 1):
            with pytest.raises(ValueError, match=f"rank {n} is outside 1..5 for filtration"):
                check(n)
    for n in (0, MAX_GRAPH_TWIST_RANK + 1):
        with pytest.raises(ValueError, match=f"rank {n} is outside 1..6 for graph-twist"):
            graph_twist_table(n)


def _plant_in_column(monkeypatch, w_prime, w, fault):
    """Replace F_w(S_{w'}) by fault(F_w(S_{w'})) where the recursion hands its
    column to the certificate; the columns the recursion divides on are
    left as they are."""
    real = bimodule_module.f_matrix_columns

    def planted(n):
        for v, i, column in real(n):
            if v == w_prime:
                column = {**column, w: fault(column[w])}
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
    w, w_prime = perm(2, 1, 3), perm(2, 3, 1)
    _plant_in_column(monkeypatch, w_prime, w, lambda got: got + x(1, 3))
    identity = verify_filtration_identity(3)
    assert identity["pairs"] == oracle_qualifying_pairs(3)
    assert identity["violations"] == [
        {"w": [2, 1, 3], "w_prime": [2, 3, 1], "got": "x1", "expected": "0"}
    ]
    assert verify_triangular_injectivity(identity)["determinant_nonzero"] is False


# --------------------------------------------------- the descent recursion


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_recursion_equals_f_map_on_every_qualifying_pair(n):
    pairs = 0
    for v, i, column in f_matrix_columns(n):
        assert list(column) == [w for w in symmetric_group(n) if w.length() <= v.length()]
        for w, got in column.items():
            pairs += 1
            assert got == f_map(w, s_element(v)), (w, v)
    assert pairs == oracle_qualifying_pairs(n)


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
    blob = [json.loads(_json_text(entry.payload())) for entry in graph_twist_table(2)]
    assert blob[1]["delta"] == (x(1, 2) - x(2, 2)).to_json()
    assert blob[1]["w"] == [2, 1]
    assert blob[1]["degrees"] == [1, 1]
    assert blob[1]["inversions"] == [[1, 2]]
