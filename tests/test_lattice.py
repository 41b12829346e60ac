"""Charge lattice: constructors, central charges, and transformation laws.

The float oracle recomputes Z with complex() arithmetic; the structural
oracle for twisting is the line-bundle group law, which pins twist on a
spanning set of the lattice (the {0,1}-multidegree classes form a basis:
their component matrix is a subset zeta matrix, which is unitriangular).
A second twist oracle is the defining sum over pairs of disjoint subsets,
O(3^n), which the package's O(n 2^n) subset-sum transform must equal.
The integer representation (numerators over one reduced denominator) is
checked against oracles that work on tuples of Fractions indexed by mask.
"""

import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubstab import lattice
from schubstab.lattice import (
    MAX_LATTICE_RANK,
    ChargeParams,
    ExactComplex,
    LatticeVector,
    central_charge,
    isogeny_pullback,
    isogeny_pushforward,
    random_lattice_vector,
    twist,
    v_of_line_bundle,
    vector_from_rank_deg,
    verify_charge_transforms,
)
from schubstab.poly import Poly, as_fraction, divided_difference
from schubstab.stability import scan_class_count

F = Fraction


FLOAT_ENTRY_POINTS = {
    "Poly": lambda v: Poly(1, 0, {(1,): v}),
    "Poly.const": lambda v: Poly.const(v, 1),
    "Poly.monomial": lambda v: Poly.monomial((1,), v, 1),
    "LatticeVector": lambda v: LatticeVector(1, {(): v}),
    "twist": lambda v: twist(point(2), [v, 1]),
    "v_of_line_bundle": lambda v: v_of_line_bundle([v, 1]),
    "vector_from_rank_deg": lambda v: vector_from_rank_deg(1, v),
    "ChargeParams": lambda v: ChargeParams(v, 0, 1),
    "ExactComplex": lambda v: ExactComplex(1, v),
}


@pytest.mark.parametrize("name", sorted(FLOAT_ENTRY_POINTS))
def test_entry_points_refuse_floats_and_keep_exact_input(name):
    build = FLOAT_ENTRY_POINTS[name]
    with pytest.raises(TypeError, match="float 0.1 is not exact"):
        build(0.1)
    assert build("1/2") == build(F(1, 2))
    assert build(3) == build(F(3))


BOOL_ENTRY_POINTS = {
    **FLOAT_ENTRY_POINTS,
    "as_fraction": as_fraction,
    "Poly.x": lambda v: Poly.x(v, 2),
    "divided_difference": lambda v: divided_difference(v, Poly.x(1, 2)),
}


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("name", sorted(BOOL_ENTRY_POINTS))
def test_entry_points_refuse_bools(name, value):
    # A bool is an int to Python, so without a check True reads as 1.
    with pytest.raises(TypeError, match=repr(value)):
        BOOL_ENTRY_POINTS[name](value)


def all_subsets(n):
    """Subsets of {1..n} as tuples, by size, then elements."""
    items = range(1, n + 1)
    return [combo for size in range(n + 1) for combo in itertools.combinations(items, size)]


def values(vec):
    """The components of vec as Fractions, indexed by mask."""
    return tuple(F(x, vec.den) for x in vec.nums)


def component(vec, subset):
    return F(vec.nums[sum(1 << (i - 1) for i in set(subset))], vec.den)


def combine(*terms):
    """The sum of c * vec over the (c, vec) terms, all of one rank: int
    numerators over a common denominator, put in normal form by
    LatticeVector._reduced."""
    n = terms[0][1].n
    scaled = [(F(c) / vec.den, vec.nums) for c, vec in terms]
    den = math.lcm(*(c.denominator for c, _ in scaled))
    nums = [0] * 2**n
    for c, vec_nums in scaled:
        k = c.numerator * (den // c.denominator)
        nums = [s + k * x for s, x in zip(nums, vec_nums)]
    return LatticeVector._reduced(n, nums, den)


def point(n):
    """The class of a skyscraper: 1 at the empty subset, 0 elsewhere."""
    return LatticeVector(n, {(): 1})


def rank_deg(vec):
    if vec.n != 1:
        raise ValueError("rank/degree view only exists at n = 1")
    d, r = values(vec)
    return r, d


def charge_oracle(p, vec):
    """Recompute Z in floating point, independently of ExactComplex."""
    z = complex(p.b, p.a)
    total = 0j
    for s in range(vec.n + 1):
        level = sum(
            (float(component(vec, key)) for key in all_subsets(vec.n) if len(key) == s), 0.0
        )
        total += -((-1) ** s) * z**s * level
    return total


def charge_from_levels(a, b, levels):
    """Z = sum_s -(-1)^s (b+ia)^s L_s from the level sums L_s, on (re, im)
    pairs of Fractions, powers by repeated products."""
    re, im = F(0), F(0)
    power_re, power_im = F(1), F(0)
    for s, level in enumerate(levels):
        c = -((-1) ** s) * level
        re, im = re + power_re * c, im + power_im * c
        power_re, power_im = power_re * b - power_im * a, power_re * a + power_im * b
    return ExactComplex(re, im)


def charge_by_defining_sum(a, b, vec):
    """Z(v) from the components of vec, by the defining sum."""
    return charge_from_levels(
        a,
        b,
        [
            sum((component(vec, key) for key in all_subsets(vec.n) if len(key) == s), F(0))
            for s in range(vec.n + 1)
        ],
    )


def twist_oracle(vec, c):
    """new[S] = sum over T disjoint from S of (prod_{i in T} c_i) * old[S u T],
    summed term by term over every pair (S, T)."""
    n = vec.n
    out = {}
    for s in all_subsets(n):
        rest = [i for i in range(1, n + 1) if i not in s]
        total = F(0)
        for size in range(len(rest) + 1):
            for combo in itertools.combinations(rest, size):
                prod = F(1)
                for i in combo:
                    prod *= F(c[i - 1])
                total += prod * component(vec, set(s) | set(combo))
        out[s] = total
    return LatticeVector(n, out)


def oracle_twist(values, c):
    """The subset-sum transform on a tuple of Fractions indexed by mask."""
    out = list(values)
    for i, degree in enumerate(c):
        bit = 1 << i
        for mask in range(len(out)):
            if not mask & bit:
                out[mask] += F(degree) * out[mask | bit]
    return tuple(out)


def oracle_isogeny(values, factor):
    """Each component times factor(|S|), by mask, in Fractions."""
    return tuple(v * F(factor(mask.bit_count())) for mask, v in enumerate(values))


def oracle_charge(a, b, values):
    """Z from a tuple of Fractions indexed by mask, by the defining sum."""
    levels = [F(0)] * ((len(values) - 1).bit_length() + 1)
    for mask, v in enumerate(values):
        levels[mask.bit_count()] += v
    return charge_from_levels(a, b, levels)


def assert_normal_form(vec):
    assert type(vec.den) is int and vec.den > 0
    assert all(type(x) is int for x in vec.nums) and len(vec.nums) == 2**vec.n
    assert math.gcd(vec.den, *vec.nums) == 1


def assert_kernels_match_oracles(p, m, vec):
    """The integer charge and both isogenies agree with the Fraction
    oracles on vec."""
    n, x = vec.n, values(vec)
    re, im, den = lattice._charge_numerators(p, vec)
    assert ExactComplex(F(re, den), F(im, den)) == oracle_charge(p.a, p.b, x)
    pulled, pushed = isogeny_pullback(m, vec), isogeny_pushforward(m, vec)
    assert values(pulled) == oracle_isogeny(x, lambda s: m ** (2 * (n - s)))
    assert values(pushed) == oracle_isogeny(x, lambda s: m ** (2 * s))
    assert_normal_form(pulled)
    assert_normal_form(pushed)


def randint_draws(rng, n):
    """The numerators random_lattice_vector must give: rng.randint(-10, 10)
    per subset, in display order (by size, then elements)."""
    nums = [0] * 2**n
    for subset in all_subsets(n):
        nums[sum(1 << (i - 1) for i in subset)] = rng.randint(-10, 10)
    return tuple(nums)


class TestExactComplex:
    def test_parts_are_fractions(self):
        z = ExactComplex(2, F(1, 3))
        assert type(z.re) is Fraction and type(z.im) is Fraction
        assert z == ExactComplex(F(2), F(1, 3))


class TestLatticeVector:
    def test_zero_components_dropped(self):
        v = LatticeVector(2, {frozenset({1}): 0, frozenset(): 3})
        assert v.to_json()["components"] == [{"subset": [], "value": "3"}]
        assert v == LatticeVector(2, {(): 3})
        assert str(v) == "({}:3)"

    def test_bad_subset_rejected(self):
        with pytest.raises(ValueError):
            LatticeVector(2, {frozenset({3}): 1})
        with pytest.raises(ValueError):
            LatticeVector(2, {(0,): 1})
        with pytest.raises(ValueError, match=r"subset \[True\] not within 1..2"):
            LatticeVector(2, {(True,): 1})

    def test_subset_given_twice_rejected(self):
        with pytest.raises(ValueError, match=r"subset \[1, 2\] given twice"):
            LatticeVector(2, {(1, 2): 1, (2, 1): 2})
        with pytest.raises(ValueError, match=r"subset \[1, 2\] given twice"):
            LatticeVector(2, {(1, 2): 5, (2, 1): 0})
        with pytest.raises(ValueError, match=r"subset \[\] given twice"):
            LatticeVector(1, {(): 1, frozenset(): 1})

    def test_values_indexed_by_bitmask(self):
        v = LatticeVector(3, {(): 1, (1,): 2, (2,): 3, (1, 3): 4, (1, 2, 3): 5})
        assert (v.nums, v.den) == ((1, 2, 3, 0, 0, 4, 0, 5), 1)
        assert all(type(x) is int for x in v.nums)
        assert str(v) == "({}:1; {1}:2; {2}:3; {1,3}:4; {1,2,3}:5)"
        assert [c["subset"] for c in v.to_json()["components"]] == [[], [1], [2], [1, 3], [1, 2, 3]]

    def test_addition_and_scaling(self):
        v = LatticeVector(2, {frozenset({1}): 2})
        w = LatticeVector(2, {frozenset({1}): -2, frozenset({2}): 1})
        assert combine((1, v), (1, w)).to_json()["components"] == [{"subset": [2], "value": "1"}]
        assert component(combine((F(1, 2), v)), {1}) == F(1)
        assert not any(combine((1, v), (-1, v)).nums)

    def test_rank_mismatch(self):
        assert LatticeVector(1, {}) != LatticeVector(2, {})

    def test_rank_budget(self):
        big = MAX_LATTICE_RANK + 1
        refusal = f"is outside 1..{MAX_LATTICE_RANK} for charge lattices"
        for build in (
            lambda: LatticeVector(big, {}),
            lambda: LatticeVector(40, {}),
            lambda: ChargeParams(F(1), F(0), big),
            lambda: ChargeParams(F(1), F(0), True),
            lambda: point(big),
            lambda: v_of_line_bundle([0] * big),
            lambda: random_lattice_vector(random.Random(0), big),
            lambda: scan_class_count(big, 1),
            lambda: scan_class_count(30, 1),
        ):
            with pytest.raises(ValueError, match=refusal):
                build()
        assert point(MAX_LATTICE_RANK).nums[0] == 1
        with pytest.raises(ValueError, match=f"rank 0 {refusal}"):
            LatticeVector(0, {})

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
            assert v.to_json()["components"] == [{"subset": list(range(1, n + 1)), "value": "1"}]

    def test_line_bundle_rank1(self):
        v = v_of_line_bundle([5])
        assert rank_deg(v) == (F(1), F(5))

    def test_line_bundle_rank2_all_ones(self):
        v = v_of_line_bundle([1, 1])
        assert all(component(v, s) == 1 for s in all_subsets(2))

    def test_point_class(self):
        v = point(3)
        assert component(v, ()) == 1
        assert len(v.to_json()["components"]) == 1

    def test_rank_deg_round_trip(self):
        v = vector_from_rank_deg(2, -3)
        assert rank_deg(v) == (F(2), F(-3))
        with pytest.raises(ValueError):
            rank_deg(point(2))


class TestIntegerRepresentation:
    """LatticeVector stores int numerators over one reduced denominator;
    every operation must agree with Fraction arithmetic on the values."""

    def test_normal_form(self):
        v = LatticeVector(2, {(): F(1, 2), (1,): F(-1, 3), (1, 2): 4})
        assert (v.nums, v.den) == ((3, -2, 0, 24), 6)
        assert values(v) == (F(1, 2), F(-1, 3), 0, 4)
        assert combine((F(1, 2), combine((2, v)))) == v
        six, zero = combine((6, v)), combine((1, v), (-1, v))
        assert (six.nums, six.den) == ((3, -2, 0, 24), 1)
        assert (zero.nums, zero.den) == ((0, 0, 0, 0), 1)
        assert (combine((0, v)).nums, combine((0, v)).den) == ((0, 0, 0, 0), 1)
        half = LatticeVector(1, {(): F(1, 2), (1,): F(1, 2)})
        whole = combine((1, half), (1, half))
        assert (whole.nums, whole.den) == ((1, 1), 1)
        for vec in (v, combine((2, v)), zero, whole, v_of_line_bundle([F(2, 3), F(-3, 4)])):
            assert_normal_form(vec)

    def test_values_are_a_view(self):
        v = vector_from_rank_deg(F(2, 3), 5)
        assert (v.nums, v.den) == ((15, 2), 3)
        with pytest.raises(AttributeError):
            v.nums = (1, 1)
        with pytest.raises(AttributeError):
            v.values = (1, 1)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_operations_match_fraction_oracle(self, data):
        rationals = st.builds(F, st.integers(-30, 30), st.integers(1, 12))
        n = data.draw(st.integers(1, 4))
        size = 2**n
        xs = data.draw(st.lists(rationals, min_size=size, max_size=size))
        ys = data.draw(st.lists(rationals, min_size=size, max_size=size))
        u = LatticeVector(n, dict(zip(all_subsets(n), xs)))
        w = LatticeVector(n, dict(zip(all_subsets(n), ys)))
        c = data.draw(rationals)
        degrees = data.draw(st.lists(rationals, min_size=n, max_size=n))
        m = data.draw(st.integers(1, 4))
        a = data.draw(st.builds(F, st.integers(1, 30), st.integers(1, 12)))
        b = data.draw(rationals)
        x, y = values(u), values(w)
        results = [
            (combine((1, u), (1, w)), tuple(map(operator.add, x, y))),
            (combine((1, u), (-1, w)), tuple(map(operator.sub, x, y))),
            (combine((c, u)), tuple(v * c for v in x)),
            (twist(u, degrees), oracle_twist(x, degrees)),
            (isogeny_pullback(m, u), oracle_isogeny(x, lambda s: m ** (2 * (n - s)))),
            (isogeny_pushforward(m, u), oracle_isogeny(x, lambda s: m ** (2 * s))),
            (v_of_line_bundle(degrees), oracle_twist((0,) * (size - 1) + (1,), degrees)),
        ]
        for vec, expected in results:
            assert values(vec) == expected
            assert_normal_form(vec)
        p = ChargeParams(a, b, n)
        assert central_charge(p, u) == oracle_charge(a, b, x)
        # Z and every transform are linear, which the stacked certificate
        # of verify_charge_transforms relies on.
        mixed = combine((c, u), (1, w))
        for transform in (
            lambda v: twist(v, degrees),
            lambda v: isogeny_pullback(m, v),
            lambda v: isogeny_pushforward(m, v),
        ):
            assert transform(mixed) == combine((c, transform(u)), (1, transform(w)))
        zu, zw = central_charge(p, u), central_charge(p, w)
        assert central_charge(p, mixed) == ExactComplex(c * zu.re + zw.re, c * zu.im + zw.im)


    @pytest.mark.parametrize("n", range(1, 9))
    def test_kernels_match_oracles_on_basis_vectors(self, n):
        p = ChargeParams(F(3, 2), F(-1, 3), n)
        for subset in all_subsets(n):
            assert_kernels_match_oracles(p, 3, LatticeVector(n, {subset: 1}))

    def test_kernels_match_oracles_at_rank_12(self):
        n = MAX_LATTICE_RANK
        rng = random.Random(29)
        for p, m in ((ChargeParams(F(3, 2), F(-1, 3), n), 2), (ChargeParams(F(5), F(7, 4), n), 3)):
            vec = combine(
                (F(1, 7), random_lattice_vector(rng, n)), (F(2, 3), random_lattice_vector(rng, n))
            )
            assert vec.den != 1
            assert_kernels_match_oracles(p, m, vec)


class TestDraws:
    """random_lattice_vector draws by getrandbits the values, and leaves the
    generator in the state, that randint per subset would."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_draws_equal_randint(self, n):
        for seed in range(100):
            fast, slow = random.Random(seed), random.Random(seed)
            for _ in range(3):
                v = random_lattice_vector(fast, n)
                assert (v.nums, v.den) == (randint_draws(slow, n), 1)
            assert fast.getstate() == slow.getstate()

    def test_draws_equal_randint_at_rank_12(self):
        for seed in (0, 1, 2):
            fast, slow = random.Random(seed), random.Random(seed)
            assert random_lattice_vector(fast, 12).nums == randint_draws(slow, 12)
            assert fast.getstate() == slow.getstate()


class TestCentralCharge:
    def test_rank1_formula(self):
        p = ChargeParams(F(1), F(0), 1)
        z = central_charge(p, vector_from_rank_deg(1, 0))
        assert z == ExactComplex(0, 1)
        z = central_charge(p, vector_from_rank_deg(1, 1))
        assert z == ExactComplex(-1, 1)

    def test_rank1_general(self):
        p = ChargeParams(F(2, 3), F(-1, 5), 1)
        r, d = F(4), F(7)
        z = central_charge(p, vector_from_rank_deg(r, d))
        assert z == ExactComplex(p.b * r - d, p.a * r)

    def test_point_charge_is_minus_one(self):
        for n in (1, 2, 3):
            p = ChargeParams(F(5, 2), F(-3), n)
            assert central_charge(p, point(n)) == ExactComplex(-1, 0)

    def test_structure_sheaf_rank2(self):
        p = ChargeParams(F(1), F(0), 2)
        z = central_charge(p, v_of_line_bundle([0, 0]))
        assert z == ExactComplex(1, 0)

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
        rationals = st.builds(F, st.integers(-50, 50), st.integers(1, 20))
        n = data.draw(st.integers(1, 4))
        a = data.draw(st.builds(F, st.integers(1, 50), st.integers(1, 20)))
        b = data.draw(rationals)
        values = data.draw(st.lists(rationals, min_size=2**n, max_size=2**n))
        vec = LatticeVector(n, dict(zip(all_subsets(n), values)))
        assert central_charge(ChargeParams(a, b, n), vec) == charge_by_defining_sum(a, b, vec)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            central_charge(ChargeParams(F(1), F(0), 2), point(1))


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
        assert twist(point(2), [5, -7]) == point(2)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            twist(point(2), [1])

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_defining_sum(self, data):
        rationals = st.builds(F, st.integers(-20, 20), st.integers(1, 6))
        n = data.draw(st.integers(1, 4))
        values = data.draw(st.lists(rationals, min_size=2**n, max_size=2**n))
        c = data.draw(st.lists(rationals, min_size=n, max_size=n))
        vec = LatticeVector(n, dict(zip(all_subsets(n), values)))
        assert twist(vec, c) == twist_oracle(vec, c)


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
            assert isogeny_pushforward(2, isogeny_pullback(2, v)) == combine((4**n, v))

    def test_degree_must_be_positive(self):
        with pytest.raises(ValueError):
            isogeny_pullback(0, point(1))

    def test_isogeny_degree_must_be_an_int(self):
        v = point(2)
        for isogeny in (isogeny_pullback, isogeny_pushforward):
            for m in (F(3, 2), F(2), "2", 2.0, True):
                with pytest.raises(TypeError, match="isogeny degree must be an int"):
                    isogeny(m, v)


def _per_trial_certificate(p, m, trials, seed):
    """verify_charge_transforms with one check per trial: each trial's three
    laws compared as ExactComplex charges through central_charge, calling
    the transforms by their module-level names so that a planted fault
    reaches this oracle too."""
    rng = random.Random(seed)
    n, msq = p.n, m * m
    laws = [
        ("isogeny_pullback", lambda v: lattice.isogeny_pullback(m, v),
         ChargeParams(p.a / msq, p.b / msq, n), m ** (2 * n)),
        ("isogeny_pushforward", lambda v: lattice.isogeny_pushforward(m, v),
         ChargeParams(p.a * msq, p.b * msq, n), 1),
        ("twist_shift", lambda v: lattice.twist(v, [-1] * n), ChargeParams(p.a, p.b + 1, n), 1),
    ]
    violations = []
    for t in range(trials):
        v = lattice.random_lattice_vector(rng, n)
        for name, transform, reference, factor in laws:
            got = central_charge(p, transform(v))
            z = central_charge(reference, v)
            expected = ExactComplex(z.re * factor, z.im * factor)
            if got != expected:
                violations.append({
                    "identity": name,
                    "trial": t,
                    "vector": v.to_json(),
                    "got": got.to_json(),
                    "expected": expected.to_json(),
                })
    return {
        "check": "charge_transforms",
        "params": {"n": n, "a": str(p.a), "b": str(p.b), "m": m},
        "trials": trials,
        "seed": seed,
        "identities": [name for name, *_ in laws],
        "violations": violations,
    }


def _planted(real, subset, change):
    """real, with the component of its result at subset replaced by
    change(that component): a linear fault when change is."""

    def broken(*call):
        out = real(*call)
        value = component(out, subset)
        return combine((1, out), (1, LatticeVector(out.n, {subset: change(value) - value})))

    return broken


# (m, b, trials, seed): every m in 1..3, integer and non-integer b, and
# 1, 7 and 100 trials, over several seeds.
STACK_CASES = [
    (1, F(0), 1, 0), (1, F(-5, 2), 100, 1), (2, F(1), 7, 2), (2, F(-1, 3), 100, 3),
    (3, F(-1), 100, 4), (3, F(7, 2), 7, 5), (2, F(3), 1, 6),
]


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

    @pytest.mark.parametrize(
        "target, identity, subset",
        [
            ("isogeny_pushforward", "isogeny_pushforward", (1, 2)),
            ("twist", "twist_shift", (1, 3)),
            ("isogeny_pullback", "isogeny_pullback", (2,)),
        ],
    )
    def test_certificate_names_a_broken_transform(self, monkeypatch, target, identity, subset):
        """A transform that halves its result at one subset is named at
        exactly the trials where that entry is nonzero, with the two
        charges the defining sum gives, and the other identities stay clean.
        The expected charge is factor * Z^{a', b'}(v), the reference side
        the certificate reads from v's shared level sums."""
        n, m, trials, seed = 3, 3, 40, 2
        p = ChargeParams(F(1, 2), F(-1), n)
        real = getattr(lattice, target)
        args = {
            "isogeny_pullback": lambda v: (m, v),
            "isogeny_pushforward": lambda v: (m, v),
            "twist": lambda v: (v, [-1] * n),
        }[target]
        a, b, factor = {
            "isogeny_pullback": (p.a / m**2, p.b / m**2, m ** (2 * n)),
            "isogeny_pushforward": (p.a * m**2, p.b * m**2, 1),
            "twist": (p.a, p.b + 1, 1),
        }[target]

        broken = _planted(real, subset, lambda x: x / 2)
        rng = random.Random(seed)
        vectors = [random_lattice_vector(rng, n) for _ in range(trials)]
        expected_trials = [t for t, v in enumerate(vectors) if component(real(*args(v)), subset)]
        assert 0 < len(expected_trials) < trials

        monkeypatch.setattr(lattice, target, broken)
        cert = verify_charge_transforms(p, m, trials, seed)
        assert {v["identity"] for v in cert["violations"]} == {identity}
        assert [v["trial"] for v in cert["violations"]] == expected_trials
        for v in cert["violations"]:
            vec = vectors[v["trial"]]
            assert v["vector"] == vec.to_json()
            assert v["got"] == charge_by_defining_sum(p.a, p.b, broken(*args(vec))).to_json()
            reference = charge_by_defining_sum(a, b, vec)
            assert v["expected"] == ExactComplex(reference.re * factor, reference.im * factor).to_json()

    @pytest.mark.parametrize(
        "plant", [(), ("pushforward",), ("twist",), ("pushforward", "twist")],
        ids=["clean", "pushforward", "twist", "both"],
    )
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 12])
    def test_stacked_certificate_matches_the_per_trial_one(self, monkeypatch, n, plant):
        """The certificate checked on one stacked class equals, whole, the
        one that checks every trial on its own: clean, with pushforward
        halved at {1}, with twist negated at {2..n}, a mask of size n - 1,
        and with both, so that violations interleave by trial, then law.
        Rank 12 runs one case of 3 trials."""
        cases = STACK_CASES if n < 12 else [(2, F(-1, 2), 3, 9)]
        if "pushforward" in plant:
            monkeypatch.setattr(lattice, "isogeny_pushforward", _planted(
                isogeny_pushforward, (1,), lambda x: x / 2))
        if "twist" in plant:
            monkeypatch.setattr(lattice, "twist", _planted(
                twist, tuple(range(2, n + 1)), operator.neg))
        named = 0
        for m, b, trials, seed in cases:
            p = ChargeParams(F(1, 2), b, n)
            cert = verify_charge_transforms(p, m, trials, seed)
            assert cert == _per_trial_certificate(p, m, trials, seed)
            named += len(cert["violations"])
        assert (named == 0) == (not plant)

    def test_one_unit_fault_in_the_last_trial_is_named_there(self, monkeypatch):
        """A twist one unit wrong at the empty set, by the input's component
        at {1, 3}, which is 0 in every trial but the last and -1 there.  The
        stacked class twist sees first is sum_t 2^(W t) v_t, so its top
        lane carries the -1 with the bias taken off, and the certificate
        names the last trial alone."""
        n, m, trials, seed, subset = 3, 2, 100, 11, (1, 3)
        mask = 0b101
        p = ChargeParams(F(1, 2), F(-1), n)
        real_draw = lattice.random_lattice_vector
        drawn, seen = [], []

        def draw(rng, n):
            nums = list(real_draw(rng, n).nums)
            nums[mask] = -1 if len(drawn) == trials - 1 else 0
            drawn.append(LatticeVector(n, {s: nums[sum(1 << (i - 1) for i in s)] for s in all_subsets(n)}))
            return drawn[-1]

        def broken(v, c):
            seen.append(v)
            return combine((1, twist(v, c)), (1, LatticeVector(n, {(): component(v, subset)})))

        monkeypatch.setattr(lattice, "random_lattice_vector", draw)
        monkeypatch.setattr(lattice, "twist", broken)
        cert = verify_charge_transforms(p, m, trials, seed)

        width = 8 * lattice._lane_bytes(p, lattice._charge_laws(p, m))
        assert seen[0].den == 1
        assert seen[0].nums == tuple(
            sum(v.nums[k] << (width * t) for t, v in enumerate(drawn)) for k in range(2**n)
        )
        assert seen[0].nums[mask] == -(1 << (width * (trials - 1)))
        last = drawn[-1]
        got = central_charge(p, broken(last, [-1] * n))
        expected = central_charge(ChargeParams(p.a, p.b + 1, n), last)
        # Z puts -1 on the empty set, so the -1 there moves Z by +1.
        assert (got.re - expected.re, got.im - expected.im) == (1, 0)
        assert cert["violations"] == [{
            "identity": "twist_shift",
            "trial": trials - 1,
            "vector": last.to_json(),
            "got": got.to_json(),
            "expected": expected.to_json(),
        }]

    def test_a_fault_seen_only_on_the_stacked_class_raises(self, monkeypatch):
        """A pullback that is right on every class with components in
        [-10, 10], and one unit off on any other, fails on the stacked class
        and on no trial: it is not linear, and the certificate raises."""

        def broken(m, v):
            out = isogeny_pullback(m, v)
            return out if max(map(abs, v.nums)) <= 10 else combine((1, out), (1, point(v.n)))

        monkeypatch.setattr(lattice, "isogeny_pullback", broken)
        with pytest.raises(RuntimeError, match="isogeny_pullback fails on the stacked class"):
            verify_charge_transforms(ChargeParams(F(1), F(0), 3), 2, 20, seed=0)

    @pytest.mark.parametrize("n, m, b", [(1, 1, F(0)), (3, 3, F(-1)), (4, 2, F(5, 3)), (12, 2, F(0))])
    def test_lane_is_the_least_above_every_correct_side(self, n, m, b):
        """On the trial that makes a law's reference side largest, each
        component +-10 by the sign of its level's numerator, both
        cross-multiplied sides are below 2^(W-1), and some law's side needs
        the lane's last byte."""
        p = ChargeParams(F(1, 2), b, n)
        laws = lattice._charge_laws(p, m)
        width = 8 * lattice._lane_bytes(p, laws)
        largest = 0
        for k, (_, _, reference, _) in enumerate(laws):
            for part in reference.coefficients[:2]:
                signs = [1 if x >= 0 else -1 for x in part]
                v = LatticeVector(n, {s: 10 * signs[len(s)] for s in all_subsets(n)})
                got, expected = lattice._law_sides(p, laws, v)[k]
                for side in (got[0] * expected[2], got[1] * expected[2],
                             expected[0] * got[2], expected[1] * got[2]):
                    largest = max(largest, abs(side))
        assert largest < 1 << (width - 1)
        assert width == 8 or largest >= 1 << (width - 9)

    @pytest.mark.parametrize(
        "m, trials, error",
        [(F(3, 2), 10, TypeError), (F(2), 10, TypeError), (0, 10, ValueError),
         (2, 0, ValueError), (2, -4, ValueError), (2, True, TypeError), (True, 10, TypeError)],
    )
    def test_bad_degree_or_trials_refused_before_any_trial(self, monkeypatch, m, trials, error):
        def started(*args):
            raise AssertionError("a trial started")

        monkeypatch.setattr(lattice, "random_lattice_vector", started)
        with pytest.raises(error):
            verify_charge_transforms(ChargeParams(F(1), F(0), 2), m, trials, seed=0)

    def test_trials_beyond_the_component_limit_refused_before_any_trial(self, monkeypatch):
        """trials * 2^n up to MAX_CHARGE_COMPONENTS is admitted, one trial
        more is refused before the first draw; the default rank-12 run of
        100 trials is within the limit."""
        assert 100 * 2**MAX_LATTICE_RANK <= lattice.MAX_CHARGE_COMPONENTS
        monkeypatch.setattr(lattice, "MAX_CHARGE_COMPONENTS", 64)
        p = ChargeParams(F(1), F(0), 2)
        assert verify_charge_transforms(p, 2, 16, seed=0)["violations"] == []

        def started(*args):
            raise AssertionError("a trial started")

        monkeypatch.setattr(lattice, "random_lattice_vector", started)
        with pytest.raises(ValueError, match="17 trials of 4 components exceed the limit of 64"):
            verify_charge_transforms(p, 2, 17, seed=0)

    def test_lanes_beyond_the_byte_limit_refused_before_any_trial(self, monkeypatch):
        """trials * 2^n * lane bytes up to MAX_CHARGE_LANE_BYTES is admitted,
        one trial more is refused before the first draw; the rank-12 runs
        the README times, 128 trials with the defaults and 100 at m = 3,
        a = 1/2, b = -1, are within the limit."""
        for m, a, b, trials in [(2, F(1), F(0), 128), (3, F(1, 2), F(-1), 100)]:
            p = ChargeParams(a, b, MAX_LATTICE_RANK)
            laws, lane = lattice.check_charge_trials(p, m, trials)
            assert lane == lattice._lane_bytes(p, laws)
        p = ChargeParams(F(1), F(0), 2)
        lane = lattice._lane_bytes(p, lattice._charge_laws(p, 2))
        monkeypatch.setattr(lattice, "MAX_CHARGE_LANE_BYTES", 16 * 4 * lane)
        assert verify_charge_transforms(p, 2, 16, seed=0)["violations"] == []

        def started(*args):
            raise AssertionError("a trial started")

        monkeypatch.setattr(lattice, "random_lattice_vector", started)
        message = f"17 trials of 4 components in lanes of {lane} bytes exceed the limit of {64 * lane}"
        with pytest.raises(ValueError, match=message):
            verify_charge_transforms(p, 2, 17, seed=0)

    @pytest.mark.parametrize("seed", [None, True, 2.5, "x", F(2)])
    def test_seed_must_be_an_int(self, monkeypatch, seed):
        """A seed that is not an int would give a certificate that its
        echoed seed cannot replay, so it is refused before any trial."""

        def started(*args):
            raise AssertionError("a trial started")

        monkeypatch.setattr(lattice, "random_lattice_vector", started)
        with pytest.raises(TypeError, match="seed must be an int"):
            verify_charge_transforms(ChargeParams(F(1), F(0), 2), 2, 10, seed)

    def test_twist_shift_identity_explicit(self):
        p = ChargeParams(F(1), F(0), 1)
        p_shift = ChargeParams(F(1), F(1), 1)
        v = vector_from_rank_deg(2, 5)
        assert central_charge(p, twist(v, [-1])) == central_charge(p_shift, v)


class TestParams:
    def test_coefficients_do_not_enter_equality(self):
        p = ChargeParams(F(1, 2), F(-1, 3), 2)
        assert p == ChargeParams(F(2, 4), F(-2, 6), 2)
        assert hash(p) == hash(ChargeParams(F(1, 2), F(-1, 3), 2))
        assert repr(p) == "ChargeParams(a=Fraction(1, 2), b=Fraction(-1, 3), n=2)"

    def test_coefficients_over_common_denominator(self):
        re, im, den = ChargeParams(F(1, 2), F(-1, 3), 2).coefficients
        assert den == 36
        # -(-1)^s (b+ia)^s at b = -1/3, a = 1/2: -1, b + ia, -(b^2 - a^2) - 2abi
        assert [F(x, den) for x in re] == [-1, F(-1, 3), F(1, 4) - F(1, 9)]
        assert [F(x, den) for x in im] == [0, F(1, 2), F(1, 3)]

    def test_a_must_be_positive(self):
        with pytest.raises(ValueError):
            ChargeParams(F(0), F(1), 1)
        with pytest.raises(ValueError):
            ChargeParams(F(-1), F(1), 1)
