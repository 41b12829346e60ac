"""The numerical charge lattice of an n-fold product of elliptic curves,
with exact central charges and their transformation laws.

A class is recorded through its 2^n pairings against the squarefree
monomials in the fiber classes H_1, ..., H_n (H_i^2 = 0): the component at
a subset S of {1..n} is the pairing of prod_{i in S} H_i against the
complementary-degree Chern piece.  This is all the information the central
charges

    Z(v) = sum_{s=0}^{n} -(-1)^s (b + ia)^s * (sum over |S| = s of v[S])

consume, with a > 0 and b exact rationals.  Z is a linear functional.
ChargeParams computes the level coefficients -(-1)^s (b + ia)^s once, as
integer real and imaginary numerators over one positive common
denominator.  Each level sum of a class is an int over the class's
denominator: the sum of the numerators that one gather, built once per
rank and level, picks out (_level_sums).  So a charge is two integer dot
products of the n + 1 level sums with those numerators
(_charge_numerators), and no loop in Python runs over the 2^n
components; central_charge makes the two Fractions of the result and
nothing else, and ExactComplex only carries them.  The
shadow scans in stability.py order integer-scaled charges by the same
strip test and ray order that PhasePoint applies to those Fractions.
Everything here is Fraction or int arithmetic; there is no floating point
in any code path, and every entry point refuses a float with TypeError
(poly.as_fraction).

A LatticeVector stores its components the way poly.Poly stores a
polynomial: nums is a tuple of 2^n ints over one denominator den > 0, with
gcd(den, *nums) = 1 (den = 1 for the zero class), so `==` compares
(n, den, nums) and a class with integer components never touches a
Fraction.  The component at S is nums[mask] / den for the bitmask of S,
where bit i - 1 stands for H_i (so nums[0] is the empty subset and
nums[2^n - 1] the full one).  The level of a mask is its bit count.
values and component() are read-only Fraction views.  Output lists
components in display order instead, by subset size and then by sorted
elements, skipping zeros; the same order fixes the draw order of
random_lattice_vector and the cell order of the box scan.

Transformation laws implemented and certified exactly:
  * twisting by a line bundle with multidegree c redistributes components
    along supersets (twist group law: twists compose additively); it is
    the subset-sum transform, n * 2^(n-1) integer products,
  * multiplication-by-m isogenies, m a positive int, scale the component
    at S by m^{2(n-|S|)} under pullback and by m^{2|S|} under pushforward.

verify_charge_transforms certifies each law on seeded random classes.  Z
and every transform are linear, so it checks all its trials at once: the
trials are stacked into one integer class, sum_t 2^(W t) v_t, whose
components are built from a byte buffer by int.from_bytes (_stack), and
each law is one comparison on that class.  Only a law that fails there
is checked again trial by trial, to name the failing trials.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from typing import Iterable, Mapping, Sequence, Union

from .perms import check_count, check_rank, check_seed
from .poly import as_fraction

Scalar = Union[int, Fraction]

# A class has 2^n components and a twist costs n * 2^(n-1) integer
# operations.  `verify charges` draws 2^n components per trial and checks
# its trials on one stacked class, whose components hold a lane of bytes
# per trial.  At rank 12 its default 100 trials (a = 1, b = 0, m = 2) take
# 0.21 to 0.23 s as a whole process, at 30 MiB peak RSS, on a 2-core Xeon
# container under Python 3.11.7, and rank 40 would not fit in memory.  The
# limit stays at 12 so that the ranks the commands accept, and their
# refusal of rank 13, do not change.
MAX_LATTICE_RANK = 12


check_lattice_rank = partial(check_rank, limit=MAX_LATTICE_RANK, what="charge lattices")


@dataclass(frozen=True)
class ExactComplex:
    """Complex number with exact rational parts."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        if not isinstance(self.re, Fraction):
            object.__setattr__(self, "re", as_fraction(self.re))
        if not isinstance(self.im, Fraction):
            object.__setattr__(self, "im", as_fraction(self.im))

    def to_json(self) -> dict:
        return {"re": str(self.re), "im": str(self.im)}

    def __str__(self) -> str:
        return f"{self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i"


@dataclass(frozen=True)
class ChargeParams:
    """The (a, b) parameters of a central charge, a > 0, plus the rank,
    1 <= n <= MAX_LATTICE_RANK.

    coefficients is (re, im, den): the level coefficient -(-1)^s (b+ia)^s
    is (re[s] + i im[s]) / den for s = 0..n, with int numerators and
    den > 0.  With q the lcm of the denominators of a and b, den = q^n.
    """

    a: Fraction
    b: Fraction
    n: int
    coefficients: tuple[tuple[int, ...], tuple[int, ...], int] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "a", as_fraction(self.a))
        object.__setattr__(self, "b", as_fraction(self.b))
        if self.a <= 0:
            raise ValueError("parameter a must be positive")
        check_lattice_rank(self.n)
        q = math.lcm(self.a.denominator, self.b.denominator)
        big_a, big_b = int(self.a * q), int(self.b * q)
        re_nums, im_nums = [], []
        re, im = 1, 0  # (q b + i q a)^s
        for s in range(self.n + 1):
            scale = (1 if s % 2 else -1) * q ** (self.n - s)  # -(-1)^s q^(n-s)
            re_nums.append(scale * re)
            im_nums.append(scale * im)
            re, im = re * big_b - im * big_a, re * big_a + im * big_b
        object.__setattr__(
            self, "coefficients", (tuple(re_nums), tuple(im_nums), q**self.n)
        )


def _elements(mask: int) -> list[int]:
    """The subset of {1..n} that a bitmask stands for, sorted."""
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


@lru_cache(maxsize=None)
def _display_order(n: int) -> tuple[int, ...]:
    """All 2^n subset masks sorted by size, then by elements.  The cache
    holds one entry per rank, so at most MAX_LATTICE_RANK."""
    return tuple(
        sum(1 << (i - 1) for i in combo)
        for size in range(n + 1)
        for combo in itertools.combinations(range(1, n + 1), size)
    )


def _mask(n: int, key: Iterable[int]) -> int:
    elements = set(key)
    if not all(type(i) is int and 1 <= i <= n for i in elements):
        raise ValueError(f"subset {sorted(elements)} not within 1..{n}")
    return sum(1 << (i - 1) for i in elements)


@lru_cache(maxsize=None)
def _levels(n: int) -> tuple[int, ...]:
    """The level (bit count) of each of the 2^n masks; one entry per rank."""
    return tuple(mask.bit_count() for mask in range(1 << n))


@lru_cache(maxsize=None)
def _level_getters(n: int) -> tuple[operator.itemgetter, ...]:
    """For s = 0..n, a getter of the tuple of numerators at the level-s
    masks.  Levels 0 and n hold one mask each, so theirs take a one-item
    slice, which is still a tuple.  One entry per rank."""
    by_level: list[list[int]] = [[] for _ in range(n + 1)]
    for mask, level in enumerate(_levels(n)):
        by_level[level].append(mask)
    return tuple(
        operator.itemgetter(*masks)
        if len(masks) > 1
        else operator.itemgetter(slice(masks[0], masks[0] + 1))
        for masks in by_level
    )


@lru_cache(maxsize=None)
def _from_display(n: int) -> operator.itemgetter:
    """The getter that puts 2^n values listed in display order at their
    masks: item mask of its result is the value at mask.  One entry per
    rank."""
    position = [0] * (1 << n)
    for k, mask in enumerate(_display_order(n)):
        position[mask] = k
    return operator.itemgetter(*position)


class LatticeVector:
    """Exact rationals on the subsets of {1..n}: nums[mask] / den is the
    component at the subset of mask (see the module docstring)."""

    __slots__ = ("n", "nums", "den")

    def __init__(self, n: int, components: Mapping[Iterable[int], Scalar]):
        check_lattice_rank(n)
        values = [Fraction(0)] * (1 << n)
        given: set[int] = set()
        for key, value in components.items():
            mask = _mask(n, key)
            if mask in given:
                raise ValueError(f"subset {_elements(mask)} given twice")
            given.add(mask)
            values[mask] = as_fraction(value)
        # Over the lcm of reduced denominators the numerators share no
        # factor with it, so this is already in normal form.
        den = math.lcm(*(v.denominator for v in values))
        self._fill(n, tuple(v.numerator * (den // v.denominator) for v in values), den)

    def _fill(self, n: int, nums: tuple[int, ...], den: int) -> None:
        put = object.__setattr__
        put(self, "n", n)
        put(self, "nums", nums)
        put(self, "den", den)

    @classmethod
    def _trusted(cls, n: int, nums: tuple[int, ...], den: int) -> "LatticeVector":
        """Wrap 2^n ints over a den > 0 sharing no factor with them, built
        in this module.  Nothing is checked."""
        vec = object.__new__(cls)
        vec._fill(n, nums, den)
        return vec

    @classmethod
    def _reduced(cls, n: int, nums: Sequence[int], den: int) -> "LatticeVector":
        """Like _trusted, after cancelling the content nums share with den."""
        if den != 1:
            g = math.gcd(den, *nums)
            if g != 1:
                nums = [x // g for x in nums]
                den //= g
        return cls._trusted(n, tuple(nums), den)

    def __setattr__(self, name, value):
        raise AttributeError("LatticeVector is immutable")

    @property
    def values(self) -> tuple[Fraction, ...]:
        """Read-only view: the components as Fractions, by mask."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    def component(self, s: Iterable[int]) -> Fraction:
        return Fraction(self.nums[_mask(self.n, s)], self.den)

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    def _combine(self, other: "LatticeVector", op) -> "LatticeVector":
        """self op other, for op add or sub."""
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} vs {other.n}")
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return LatticeVector._reduced(
            self.n, [op(x * a, y * b) for x, y in zip(self.nums, other.nums)], den
        )

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        return self._combine(other, operator.add)

    def __neg__(self) -> "LatticeVector":
        return LatticeVector._trusted(self.n, tuple(-x for x in self.nums), self.den)

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        return self._combine(other, operator.sub)

    def scale(self, c: Scalar) -> "LatticeVector":
        c = as_fraction(c)
        p = c.numerator
        return LatticeVector._reduced(self.n, [x * p for x in self.nums], self.den * c.denominator)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatticeVector):
            return NotImplemented
        return self.n == other.n and self.den == other.den and self.nums == other.nums

    __hash__ = None

    def _shown(self) -> list[tuple[int, Fraction]]:
        """(mask, component) for the nonzero components, in display order."""
        return [
            (m, Fraction(self.nums[m], self.den)) for m in _display_order(self.n) if self.nums[m]
        ]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "components": [
                {"subset": _elements(m), "value": str(value)} for m, value in self._shown()
            ],
        }

    def __str__(self) -> str:
        bits = [f"{{{','.join(map(str, _elements(m)))}}}:{value}" for m, value in self._shown()]
        return "(" + "; ".join(bits) + ")" if bits else "(0)"


def _from_masks(n: int, masks: Iterable[int], values: Iterable[int]) -> LatticeVector:
    """The class with each int value at its mask and 0 elsewhere; n is trusted."""
    nums = [0] * (1 << n)
    for mask, value in zip(masks, values):
        nums[mask] = value
    return LatticeVector._trusted(n, tuple(nums), 1)


# ------------------------------------------------------------ constructors


def v_of_line_bundle(c: Sequence[Scalar]) -> LatticeVector:
    """Class of the line bundle with multidegree c: component at S is the
    product of c_i over i outside S.

    With c_i = p_i / q_i that is, over the denominator prod q_i, the
    product of p_i over i outside S times the product of q_i over i in S;
    adding element i + 1 doubles the masks, the new half (bit i set) taking
    q_i and the old half p_i.
    """
    n = len(c)
    check_lattice_rank(n)
    nums, den = [1], 1
    for degree in map(as_fraction, c):
        p, q = degree.numerator, degree.denominator
        nums = [x * p for x in nums] + [x * q for x in nums]
        den *= q
    return LatticeVector._reduced(n, nums, den)


def v_of_point(n: int) -> LatticeVector:
    """Class of a skyscraper: 1 at the empty subset, 0 elsewhere."""
    return LatticeVector(n, {(): 1})


def vector_from_rank_deg(r: Scalar, d: Scalar) -> LatticeVector:
    """Rank-1-curve convenience: the class with rank r and degree d."""
    return LatticeVector(1, {(): d, (1,): r})


def rank_deg(vec: LatticeVector) -> tuple[Fraction, Fraction]:
    if vec.n != 1:
        raise ValueError("rank/degree view only exists at n = 1")
    d, r = vec.values
    return r, d


# ------------------------------------------------------------- the charge


def _level_sums(vec: LatticeVector) -> list[int]:
    """The int sum of vec.nums over each level s = 0..n."""
    nums = vec.nums
    return [sum(get(nums)) for get in _level_getters(vec.n)]


def _level_charge(p: ChargeParams, sums: Sequence[int], den: int) -> tuple[int, int, int]:
    """Z of the class whose level sums are sums / den, as (re, im, den) in
    the form _charge_numerators gives."""
    re_nums, im_nums, coefficient_den = p.coefficients
    return (
        sum(map(operator.mul, sums, re_nums)),
        sum(map(operator.mul, sums, im_nums)),
        den * coefficient_den,
    )


def _charge_numerators(p: ChargeParams, vec: LatticeVector) -> tuple[int, int, int]:
    """Z(vec) as (re, im, den) with Z = (re + i im) / den and den > 0, not
    reduced: den is vec.den times the denominator of p.coefficients.

    Each level sum of vec.nums is an int, so Z is two integer dot products
    of the level sums with p.coefficients.
    """
    if p.n != vec.n:
        raise ValueError(f"rank mismatch: params {p.n}, vector {vec.n}")
    return _level_charge(p, _level_sums(vec), vec.den)


def _exact(re: int, im: int, den: int) -> ExactComplex:
    """(re + i im) / den, as _charge_numerators gives it."""
    return ExactComplex(Fraction(re, den), Fraction(im, den))


def central_charge(p: ChargeParams, vec: LatticeVector) -> ExactComplex:
    """Z(v) = sum_s -(-1)^s (b+ia)^s * (level-s component sum)."""
    return _exact(*_charge_numerators(p, vec))


def twist(vec: LatticeVector, c: Sequence[Scalar]) -> LatticeVector:
    """Tensor by the line bundle of multidegree c at the class level.

    new[S] = sum over T disjoint from S of (prod_{i in T} c_i) * old[S u T].
    That is one subset-sum step per nonzero c_i, so n * 2^(n-1) integer
    products in all.  With c_i = p/q the step puts q * out[S] + p * out[S u {i}]
    at every S without i and q * out[S u {i}] at S u {i}, and multiplies the
    denominator by q.  Twists compose additively in c.
    """
    if len(c) != vec.n:
        raise ValueError(f"rank mismatch: twist degree {len(c)}, vector {vec.n}")
    out = list(vec.nums)
    den = vec.den
    for i, degree in enumerate(c):
        if type(degree) is not int:
            degree = as_fraction(degree)
        if not degree:
            continue
        p, q = degree.numerator, degree.denominator
        bit = 1 << i
        for mask in range(len(out)):
            if not mask & bit:
                if q == 1:
                    out[mask] += p * out[mask | bit]
                else:
                    high = out[mask | bit]
                    out[mask] = q * out[mask] + p * high
                    out[mask | bit] = q * high
        den *= q
    return LatticeVector._reduced(vec.n, out, den)


def _scale_levels(vec: LatticeVector, factors: Sequence[int]) -> LatticeVector:
    """vec with the component at each mask times the int factors[level]."""
    nums = tuple(map(operator.mul, vec.nums, map(factors.__getitem__, _levels(vec.n))))
    return LatticeVector._reduced(vec.n, nums, vec.den)


def isogeny_pullback(m: int, vec: LatticeVector) -> LatticeVector:
    """Multiplication-by-m pullback: scale component at S by m^{2(n-|S|)}."""
    check_count(m, "isogeny degree")
    n = vec.n
    return _scale_levels(vec, [m ** (2 * (n - s)) for s in range(n + 1)])


def isogeny_pushforward(m: int, vec: LatticeVector) -> LatticeVector:
    """Multiplication-by-m pushforward: scale component at S by m^{2|S|}."""
    check_count(m, "isogeny degree")
    return _scale_levels(vec, [m ** (2 * s) for s in range(vec.n + 1)])


# ----------------------------------------------------------- verification

# The largest size of a component random_lattice_vector draws.
_DRAW_BOUND = 10


def random_lattice_vector(rng: random.Random, n: int) -> LatticeVector:
    """Integer components uniform in [-10, 10] over all 2^n subsets, drawn
    in display order.

    Each component is the rejection step rng.randint(-10, 10) takes: draw
    r = rng.getrandbits(5) until r < 21, and give r - 10.  So every seed
    gives the vectors, and leaves rng in the state, that a randint per
    mask in display order would.  One per-rank gather puts the draws at
    their masks.
    """
    check_lattice_rank(n)
    getrandbits = rng.getrandbits
    draws = []
    for _ in range(1 << n):
        r = getrandbits(5)
        while r >= 21:
            r = getrandbits(5)
        draws.append(r - 10)
    return LatticeVector._trusted(n, _from_display(n)(draws), 1)


def _charge_laws(p: ChargeParams, m: int) -> tuple:
    """The laws verify_charge_transforms certifies, in certificate order, as
    (identity, transform, reference, factor): Z^p(transform(v)) equals
    factor * Z^reference(v).  Each transform calls its module-level name,
    so a broken one is named."""
    n = p.n
    msq = m * m
    minus_one = [-1] * n
    return (
        ("isogeny_pullback", lambda v: isogeny_pullback(m, v),
         ChargeParams(p.a / msq, p.b / msq, n), m ** (2 * n)),
        ("isogeny_pushforward", lambda v: isogeny_pushforward(m, v),
         ChargeParams(p.a * msq, p.b * msq, n), 1),
        ("twist_shift", lambda v: twist(v, minus_one), ChargeParams(p.a, p.b + 1, n), 1),
    )


def _law_sides(p: ChargeParams, laws: Sequence[tuple], vec: LatticeVector) -> list[tuple]:
    """For each law, its (got, expected) sides at vec, each (re, im, den):
    got is _charge_numerators of the transformed class, expected is factor
    times the reference charge from vec's level sums, taken once."""
    sums = _level_sums(vec)
    sides = []
    for _, transform, reference, factor in laws:
        re, im, den = _level_charge(reference, sums, vec.den)
        sides.append((_charge_numerators(p, transform(vec)), (re * factor, im * factor, den)))
    return sides


def _holds(got: tuple[int, int, int], expected: tuple[int, int, int]) -> bool:
    """The two charges are equal, by integer cross products."""
    re, im, den = got
    re_expected, im_expected, den_expected = expected
    return re * den_expected == re_expected * den and im * den_expected == im_expected * den


def _lane_bytes(p: ChargeParams, laws: Sequence[tuple]) -> int:
    """Bytes per trial lane of the stacked class: the least whole number of
    bytes, W / 8, for which 2^(W-1) exceeds every cross-multiplied side a
    correct trial can reach.

    A drawn component is at most _DRAW_BOUND in size, so the level-s sum of
    a trial is at most _DRAW_BOUND * C(n, s).  On a correct trial both
    cross-multiplied sides of a law equal factor * den_p * (the dot product
    of the trial's level sums with the reference numerators), den_p being
    the denominator of p.coefficients.  The bound takes the larger of the
    two numerators at each level.
    """
    n = p.n
    den_p = p.coefficients[2]
    bound = 0
    for _, _, reference, factor in laws:
        re, im, _ = reference.coefficients
        dot = sum(math.comb(n, s) * max(abs(x), abs(y)) for s, (x, y) in enumerate(zip(re, im)))
        bound = max(bound, _DRAW_BOUND * factor * den_p * dot)
    return (bound.bit_length() + 8) // 8


def _stack(vectors: Sequence[LatticeVector], lane: int) -> LatticeVector:
    """sum_t 2^(W t) vectors[t] for W = 8 * lane, over integer classes with
    components in [-_DRAW_BOUND, _DRAW_BOUND].

    Each component is one int.from_bytes of a little-endian buffer that
    holds component + _DRAW_BOUND, a byte, at the start of lane t for
    trial t, written for all components at once by a strided slice; the
    bias, _DRAW_BOUND at the start of every lane, is then taken off.
    """
    n, trials = vectors[0].n, len(vectors)
    stride = lane * trials
    lanes = bytearray(stride << n)
    bias = _DRAW_BOUND.__add__
    for t, v in enumerate(vectors):
        lanes[t * lane :: stride] = bytes(map(bias, v.nums))
    offset = int.from_bytes((bytes([_DRAW_BOUND]) + bytes(lane - 1)) * trials, "little")
    view = memoryview(lanes)
    return LatticeVector._trusted(
        n,
        tuple(
            int.from_bytes(view[start : start + stride], "little") - offset
            for start in range(0, len(lanes), stride)
        ),
        1,
    )


def verify_charge_transforms(p: ChargeParams, m: int, trials: int, seed: int) -> dict:
    """Certify the pullback, pushforward, and twist-shift identities.

    For seeded random vectors v:
      Z^{a,b}(pullback_m v)    = m^{2n} * Z^{a/m^2, b/m^2}(v)
      Z^{a,b}(pushforward_m v) = Z^{m^2 a, m^2 b}(v)
      Z^{a,b}(twist(v, -1))    = Z^{a, b+1}(v)
    Each left side applies the transform, by its module-level name, and
    takes the charge of the class it returns; each right side dots the
    class's level sums, taken once, with the reference parameters
    (_law_sides).  Both sides are compared as cross-multiplied integer
    numerators; only a violation's two charges are made into Fractions.

    The trials v_0, ..., v_{T-1} are drawn one by one by
    random_lattice_vector and checked at once, on the stacked class
    V = sum_t 2^(W t) v_t (_stack): trial t sits in the base-2^W digit t of
    every component, which is Kronecker substitution, and V has den 1.
    Only a law that fails on V is checked again on each trial; its
    violations name the failing trials, in order of trial, then law, each
    with its own vector and two charges.

    Both sides of a law are linear in v when its transform is, so the
    law's error on V, got - expected, is sum_t 2^(W t) e_t for the trials'
    errors e_t.  A law that fails on some trial can hold on V only if,
    over a common denominator of the e_t, the first nonzero e_t is a
    nonzero multiple of 2^W that the later trials cancel exactly: that is
    the one case a failing trial goes unseen.  W is chosen so that
    2^(W-1) exceeds every cross-multiplied side a correct trial can reach
    (_lane_bytes), so such an error is larger than twice any correct side.
    A law that fails on V and on no trial has a transform that is not
    linear, and raises RuntimeError.

    An m, trials or seed that is not an int (a bool included) raises
    TypeError, and m < 1 or trials < 1 ValueError, before any trial.
    """
    check_count(m, "isogeny degree")
    check_count(trials, "trials")
    check_seed(seed)
    rng = random.Random(seed)
    n = p.n
    laws = _charge_laws(p, m)
    vectors = [random_lattice_vector(rng, n) for _ in range(trials)]
    stacked = _stack(vectors, _lane_bytes(p, laws))
    failing = [
        law
        for law, (got, expected) in zip(laws, _law_sides(p, laws, stacked))
        if not _holds(got, expected)
    ]
    violations: list[dict] = []
    if failing:
        named = set()
        for t, v in enumerate(vectors):
            for (name, *_), (got, expected) in zip(failing, _law_sides(p, failing, v)):
                if not _holds(got, expected):
                    named.add(name)
                    violations.append(
                        {
                            "identity": name,
                            "trial": t,
                            "vector": v.to_json(),
                            "got": _exact(*got).to_json(),
                            "expected": _exact(*expected).to_json(),
                        }
                    )
        for name, *_ in failing:
            if name not in named:
                raise RuntimeError(
                    f"{name} fails on the stacked class and on no trial: its transform is not linear"
                )
    return {
        "check": "charge_transforms",
        "params": {"n": n, "a": str(p.a), "b": str(p.b), "m": m},
        "trials": trials,
        "seed": seed,
        "identities": [name for name, *_ in laws],
        "violations": violations,
    }
