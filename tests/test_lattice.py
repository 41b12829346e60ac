"""Charge lattice: constructors, central charges, and transformation laws.

The float oracle recomputes Z with complex() arithmetic; the structural
oracle for twisting is the line-bundle group law, which pins twist on a
spanning set of the lattice (the {0,1}-multidegree classes form a basis:
their component matrix is a subset zeta matrix, which is unitriangular).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubstab.lattice import (
    ChargeParams,
    ExactComplex,
    LatticeVector,
    central_charge,
    isogeny_pullback,
    isogeny_pushforward,
    random_lattice_vector,
    rank_deg,
    subsets,
    support_constant,
    twist,
    v_of_line_bundle,
    v_of_point,
    vector_from_rank_deg,
    verify_charge_transforms,
)

F = Fraction


def charge_oracle(p, vec):
    """Recompute Z in floating point, independently of ExactComplex."""
    z = complex(p.b, p.a)
    total = 0j
    for s in range(vec.n + 1):
        level = sum(
            (float(v) for key, v in vec.components.items() if len(key) == s), 0.0
        )
        total += -((-1) ** s) * z**s * level
    return total


class TestExactComplex:
    def test_arithmetic(self):
        u = ExactComplex.of(1, 2)
        v = ExactComplex.of(F(1, 3), -1)
        assert u + v == ExactComplex.of(F(4, 3), 1)
        assert u * v == ExactComplex.of(F(1, 3) + 2, F(2, 3) - 1)
        assert u - u == ExactComplex.of(0)
        assert (u - u).is_zero
        assert -v == ExactComplex.of(F(-1, 3), 1)

    def test_abs_squared(self):
        assert ExactComplex.of(3, 4).abs_squared() == 25


class TestLatticeVector:
    def test_zero_components_dropped(self):
        v = LatticeVector(2, {frozenset({1}): 0, frozenset(): 3})
        assert v.components == {frozenset(): F(3)}

    def test_bad_subset_rejected(self):
        with pytest.raises(ValueError):
            LatticeVector(2, {frozenset({3}): 1})

    def test_addition_and_scaling(self):
        v = LatticeVector(2, {frozenset({1}): 2})
        w = LatticeVector(2, {frozenset({1}): -2, frozenset({2}): 1})
        assert (v + w).components == {frozenset({2}): F(1)}
        assert v.scale(F(1, 2)).component({1}) == F(1)
        assert (v - v).is_zero

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            LatticeVector(1, {}) + LatticeVector(2, {})

    def test_sup_norm(self):
        v = LatticeVector(2, {frozenset({1}): -7, frozenset(): 3})
        assert v.sup_norm() == 7
        assert LatticeVector(2, {}).sup_norm() == 0

    def test_json_sorted_nonzero_only(self):
        v = LatticeVector(
            2, {frozenset({2}): F(3), frozenset({1, 2}): 0, frozenset(): F(-1, 2)}
        )
        assert v.to_json() == {
            "n": 2,
            "components": [
                {"subset": [], "value": "-1/2"},
                {"subset": [2], "value": "3"},
            ],
        }


class TestConstructors:
    def test_structure_sheaf_is_indicator_of_full_set(self):
        for n in (1, 2, 3):
            v = v_of_line_bundle([0] * n)
            assert v.components == {frozenset(range(1, n + 1)): F(1)}

    def test_line_bundle_rank1(self):
        v = v_of_line_bundle([5])
        assert rank_deg(v) == (F(1), F(5))

    def test_line_bundle_rank2_all_ones(self):
        v = v_of_line_bundle([1, 1])
        assert all(v.component(s) == 1 for s in subsets(2))

    def test_point_class(self):
        v = v_of_point(3)
        assert v.component(()) == 1
        assert sum(1 for _ in v.components) == 1

    def test_rank_deg_round_trip(self):
        v = vector_from_rank_deg(2, -3)
        assert rank_deg(v) == (F(2), F(-3))
        with pytest.raises(ValueError):
            rank_deg(v_of_point(2))


class TestCentralCharge:
    def test_rank1_formula(self):
        p = ChargeParams(F(1), F(0), 1)
        z = central_charge(p, vector_from_rank_deg(1, 0))
        assert z == ExactComplex.of(0, 1)
        z = central_charge(p, vector_from_rank_deg(1, 1))
        assert z == ExactComplex.of(-1, 1)

    def test_rank1_general(self):
        p = ChargeParams(F(2, 3), F(-1, 5), 1)
        r, d = F(4), F(7)
        z = central_charge(p, vector_from_rank_deg(r, d))
        assert z == ExactComplex(p.b * r - d, p.a * r)

    def test_point_charge_is_minus_one(self):
        for n in (1, 2, 3):
            p = ChargeParams(F(5, 2), F(-3), n)
            assert central_charge(p, v_of_point(n)) == ExactComplex.of(-1)

    def test_structure_sheaf_rank2(self):
        p = ChargeParams(F(1), F(0), 2)
        z = central_charge(p, v_of_line_bundle([0, 0]))
        assert z == ExactComplex.of(1)

    def test_against_float_oracle(self):
        rng = random.Random(7)
        for n in (1, 2, 3):
            p = ChargeParams(F(rng.randint(1, 5), rng.randint(1, 5)), F(rng.randint(-5, 5)), n)
            for _ in range(25):
                v = random_lattice_vector(rng, n)
                z = central_charge(p, v)
                assert abs(complex(z.re, z.im) - charge_oracle(p, v)) < 1e-6

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_equals_defining_sum(self, data):
        """Z(v) = sum_s -(-1)^s (b+ia)^s L_s, powers by repeated products."""
        rationals = st.builds(F, st.integers(-50, 50), st.integers(1, 20))
        n = data.draw(st.integers(1, 4))
        a = data.draw(st.builds(F, st.integers(1, 50), st.integers(1, 20)))
        b = data.draw(rationals)
        values = data.draw(st.lists(rationals, min_size=2**n, max_size=2**n))
        vec = LatticeVector(n, dict(zip(subsets(n), values)))
        expected = ExactComplex.of(0)
        power = ExactComplex.of(1)
        for s in range(n + 1):
            level = sum((v for key, v in vec.components.items() if len(key) == s), F(0))
            expected = expected + power * (-((-1) ** s) * level)
            power = power * ExactComplex(b, a)
        assert central_charge(ChargeParams(a, b, n), vec) == expected

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            central_charge(ChargeParams(F(1), F(0), 2), v_of_point(1))


class TestTwist:
    def test_rank1_twist_shifts_degree(self):
        v = vector_from_rank_deg(3, 2)
        assert rank_deg(twist(v, [1])) == (F(3), F(5))
        assert rank_deg(twist(v, [-1])) == (F(3), F(-1))

    def test_line_bundle_group_law(self):
        rng = random.Random(11)
        for n in (1, 2, 3):
            for _ in range(10):
                c = [rng.randint(-4, 4) for _ in range(n)]
                cp = [rng.randint(-4, 4) for _ in range(n)]
                lhs = twist(v_of_line_bundle(c), cp)
                rhs = v_of_line_bundle([x + y for x, y in zip(c, cp)])
                assert lhs == rhs

    def test_twists_compose_additively(self):
        rng = random.Random(13)
        for n in (1, 2, 3):
            for _ in range(10):
                v = random_lattice_vector(rng, n)
                c = [rng.randint(-3, 3) for _ in range(n)]
                cp = [rng.randint(-3, 3) for _ in range(n)]
                assert twist(twist(v, c), cp) == twist(
                    v, [x + y for x, y in zip(c, cp)]
                )

    def test_twist_by_zero_is_identity(self):
        rng = random.Random(17)
        v = random_lattice_vector(rng, 3)
        assert twist(v, [0, 0, 0]) == v

    def test_point_class_is_twist_invariant(self):
        assert twist(v_of_point(2), [5, -7]) == v_of_point(2)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            twist(v_of_point(2), [1])


class TestIsogenies:
    def test_rank1_examples(self):
        v = vector_from_rank_deg(1, 1)
        assert rank_deg(isogeny_pullback(2, v)) == (F(1), F(4))
        assert rank_deg(isogeny_pushforward(2, v)) == (F(4), F(1))

    def test_composition_multiplicative(self):
        rng = random.Random(19)
        v = random_lattice_vector(rng, 2)
        assert isogeny_pullback(2, isogeny_pullback(3, v)) == isogeny_pullback(6, v)
        assert isogeny_pushforward(2, isogeny_pushforward(3, v)) == isogeny_pushforward(6, v)

    def test_push_pull_scales_by_degree_power(self):
        rng = random.Random(23)
        for n in (1, 2):
            v = random_lattice_vector(rng, n)
            assert isogeny_pushforward(2, isogeny_pullback(2, v)) == v.scale(4**n)

    def test_degree_must_be_positive(self):
        with pytest.raises(ValueError):
            isogeny_pullback(0, v_of_point(1))


class TestChargeTransforms:
    def test_certificate_clean_small_ranks(self):
        for n in (1, 2, 3):
            p = ChargeParams(F(3, 2), F(-1, 3), n)
            cert = verify_charge_transforms(p, 2, trials=20, seed=5)
            assert cert["check"] == "charge_transforms"
            assert cert["violations"] == []
            assert cert["trials"] == 20

    def test_certificate_deterministic(self):
        p = ChargeParams(F(1), F(2), 2)
        a = verify_charge_transforms(p, 3, trials=10, seed=99)
        b = verify_charge_transforms(p, 3, trials=10, seed=99)
        assert a == b

    def test_twist_shift_identity_explicit(self):
        p = ChargeParams(F(1), F(0), 1)
        p_shift = ChargeParams(F(1), F(1), 1)
        v = vector_from_rank_deg(2, 5)
        assert central_charge(p, twist(v, [-1])) == central_charge(p_shift, v)


class TestSupportConstant:
    def test_point_gives_one(self):
        p = ChargeParams(F(7, 3), F(-2), 2)
        assert support_constant(p, [v_of_point(2)]) == 1

    def test_rank1_structure_sheaf(self):
        p = ChargeParams(F(1), F(0), 1)
        assert support_constant(p, [vector_from_rank_deg(1, 0)]) == 1

    def test_minimum_over_classes(self):
        p = ChargeParams(F(1), F(0), 1)
        classes = [vector_from_rank_deg(1, 0), vector_from_rank_deg(0, 3)]
        # |Z|^2 / norm^2 = 1 and 9/9 = 1; add a small one
        classes.append(vector_from_rank_deg(0, 1).scale(2))
        got = support_constant(p, classes)
        assert got == 1
        classes.append(vector_from_rank_deg(4, 2))
        # Z = -2 + 4i, |Z|^2 = 20, norm 4 -> 20/16
        assert support_constant(p, classes) == 1

    def test_vanishing_charge_returns_none(self):
        p = ChargeParams(F(1), F(0), 2)
        v = LatticeVector(2, {frozenset({1}): 1, frozenset({2}): -1})
        assert not v.is_zero
        assert central_charge(p, v).is_zero
        assert support_constant(p, [v_of_point(2), v]) is None

    def test_errors(self):
        p = ChargeParams(F(1), F(0), 1)
        with pytest.raises(ValueError):
            support_constant(p, [])
        with pytest.raises(ValueError):
            support_constant(p, [LatticeVector(1, {})])


class TestParams:
    def test_a_must_be_positive(self):
        with pytest.raises(ValueError):
            ChargeParams(F(0), F(1), 1)
        with pytest.raises(ValueError):
            ChargeParams(F(-1), F(1), 1)
