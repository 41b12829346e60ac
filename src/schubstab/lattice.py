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
denominator.  central_charge clears the denominators of a class to their
lcm D, sums each level in integers, and takes two integer dot products
with those numerators, so a charge costs two Fraction normalisations and
no Fraction sum.  The shadow scans in stability.py compare phases of its
integer-scaled values by cross products.  Everything here is Fraction or
int arithmetic; there is no floating point in any code path, and every
entry point refuses a float with TypeError (poly.as_fraction).

A LatticeVector stores its components densely: values is a tuple of 2^n
Fractions, and the component at S sits at the bitmask of S, where bit
i - 1 stands for H_i (so values[0] is the empty subset and
values[2^n - 1] the full one).  The level of a mask is its bit count.
Output lists components in display order instead, by subset size and then
by sorted elements, skipping zeros; the same order fixes the draw order of
random_lattice_vector and the cell order of the box scan.

Transformation laws implemented and certified exactly:
  * twisting by a line bundle with multidegree c redistributes components
    along supersets (twist group law: twists compose additively); it is
    the subset-sum transform, n * 2^(n-1) products,
  * multiplication-by-m isogenies scale the component at S by
    m^{2(n-|S|)} under pullback and by m^{2|S|} under pushforward.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence, Union

from .poly import as_fraction

Scalar = Union[int, Fraction]

# A class has 2^n components and a twist costs n * 2^(n-1) Fraction
# products, so `verify charges` grows about 4.3x per rank: at rank 12 its
# default 100 trials (a = 1, b = 0, m = 2) take 14 to 16 s on a 2-core Xeon
# container under Python 3.11.7, rank 14 would take minutes, and rank 40
# would not fit in memory.
MAX_LATTICE_RANK = 12


def _check_rank(n: int) -> None:
    if n < 1:
        raise ValueError("rank must be at least 1")
    if n > MAX_LATTICE_RANK:
        raise ValueError(
            f"rank {n} exceeds the limit of {MAX_LATTICE_RANK} "
            f"(a class has 2^{n} components)"
        )


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

    @staticmethod
    def of(re: Scalar, im: Scalar = 0) -> "ExactComplex":
        return ExactComplex(re, im)

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __add__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.re, -self.im)

    def __mul__(self, other: Union["ExactComplex", Scalar]) -> "ExactComplex":
        if isinstance(other, (int, Fraction)):
            return ExactComplex(self.re * other, self.im * other)
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def abs_squared(self) -> Fraction:
        return self.re * self.re + self.im * self.im

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
        _check_rank(self.n)
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
    if not all(isinstance(i, int) and 1 <= i <= n for i in elements):
        raise ValueError(f"subset {sorted(elements)} not within 1..{n}")
    return sum(1 << (i - 1) for i in elements)


class LatticeVector:
    """Exact rationals on the subsets of {1..n}: values[mask] is the
    component at the subset of mask (see the module docstring)."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, components: Mapping[Iterable[int], Scalar]):
        _check_rank(n)
        values = [Fraction(0)] * (1 << n)
        given: set[int] = set()
        for key, value in components.items():
            mask = _mask(n, key)
            if mask in given:
                raise ValueError(f"subset {_elements(mask)} given twice")
            given.add(mask)
            values[mask] = as_fraction(value)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", tuple(values))

    @classmethod
    def _trusted(cls, n: int, values: tuple[Fraction, ...]) -> "LatticeVector":
        """Wrap 2^n Fractions this module built.  Nothing is checked."""
        vec = object.__new__(cls)
        object.__setattr__(vec, "n", n)
        object.__setattr__(vec, "values", values)
        return vec

    def __setattr__(self, name, value):
        raise AttributeError("LatticeVector is immutable")

    def component(self, s: Iterable[int]) -> Fraction:
        return self.values[_mask(self.n, s)]

    @property
    def is_zero(self) -> bool:
        return not any(self.values)

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} vs {other.n}")
        return LatticeVector._trusted(self.n, tuple(map(operator.add, self.values, other.values)))

    def __neg__(self) -> "LatticeVector":
        return LatticeVector._trusted(self.n, tuple(-v for v in self.values))

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        return self + (-other)

    def scale(self, c: Scalar) -> "LatticeVector":
        c = as_fraction(c)
        return LatticeVector._trusted(self.n, tuple(v * c for v in self.values))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatticeVector):
            return NotImplemented
        return self.n == other.n and self.values == other.values

    __hash__ = None

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "components": [
                {"subset": _elements(m), "value": str(self.values[m])}
                for m in _display_order(self.n)
                if self.values[m]
            ],
        }

    def __str__(self) -> str:
        bits = [
            f"{{{','.join(map(str, _elements(m)))}}}:{self.values[m]}"
            for m in _display_order(self.n)
            if self.values[m]
        ]
        return "(" + "; ".join(bits) + ")" if bits else "(0)"


def _from_masks(n: int, masks: Iterable[int], values: Iterable[Scalar]) -> LatticeVector:
    """The class with each value at its mask and 0 elsewhere; n is trusted."""
    dense = [Fraction(0)] * (1 << n)
    for mask, value in zip(masks, values):
        dense[mask] = Fraction(value)
    return LatticeVector._trusted(n, tuple(dense))


# ------------------------------------------------------------ constructors


def v_of_line_bundle(c: Sequence[Scalar]) -> LatticeVector:
    """Class of the line bundle with multidegree c: component at S is the
    product of c_i over i outside S."""
    n = len(c)
    _check_rank(n)
    degrees = [as_fraction(x) for x in c]
    values = []
    for mask in range(1 << n):
        prod = Fraction(1)
        for i, degree in enumerate(degrees):
            if not mask >> i & 1:
                prod *= degree
        values.append(prod)
    return LatticeVector._trusted(n, tuple(values))


def v_of_point(n: int) -> LatticeVector:
    """Class of a skyscraper: 1 at the empty subset, 0 elsewhere."""
    return LatticeVector(n, {(): 1})


def vector_from_rank_deg(r: Scalar, d: Scalar) -> LatticeVector:
    """Rank-1-curve convenience: the class with rank r and degree d."""
    return LatticeVector._trusted(1, (as_fraction(d), as_fraction(r)))


def rank_deg(vec: LatticeVector) -> tuple[Fraction, Fraction]:
    if vec.n != 1:
        raise ValueError("rank/degree view only exists at n = 1")
    d, r = vec.values
    return r, d


# ------------------------------------------------------------- the charge


def central_charge(p: ChargeParams, vec: LatticeVector) -> ExactComplex:
    """Z(v) = sum_s -(-1)^s (b+ia)^s * (level-s component sum).

    Over D = lcm of the component denominators each level sum is an int,
    so Z is two integer dot products with p.coefficients over D * den.
    """
    if p.n != vec.n:
        raise ValueError(f"rank mismatch: params {p.n}, vector {vec.n}")
    ratios = [v.as_integer_ratio() for v in vec.values]
    common = math.lcm(*(d for _, d in ratios))
    levels = [0] * (vec.n + 1)
    for mask, (num, d) in enumerate(ratios):
        if num:
            levels[mask.bit_count()] += num * (common // d)
    re_nums, im_nums, coefficient_den = p.coefficients
    den = common * coefficient_den
    return ExactComplex(
        Fraction(sum(map(operator.mul, levels, re_nums)), den),
        Fraction(sum(map(operator.mul, levels, im_nums)), den),
    )


def twist(vec: LatticeVector, c: Sequence[Scalar]) -> LatticeVector:
    """Tensor by the line bundle of multidegree c at the class level.

    new[S] = sum over T disjoint from S of (prod_{i in T} c_i) * old[S u T].
    That is one subset-sum step per nonzero c_i, adding c_i * out[S u {i}]
    into out[S] for every S without i, so n * 2^(n-1) products in all.
    Twists compose additively in c.
    """
    if len(c) != vec.n:
        raise ValueError(f"rank mismatch: twist degree {len(c)}, vector {vec.n}")
    out = list(vec.values)
    for i, degree in enumerate(map(as_fraction, c)):
        if degree:
            bit = 1 << i
            for mask in range(len(out)):
                if not mask & bit:
                    out[mask] += degree * out[mask | bit]
    return LatticeVector._trusted(vec.n, tuple(out))


def isogeny_pullback(m: int, vec: LatticeVector) -> LatticeVector:
    """Multiplication-by-m pullback: scale component at S by m^{2(n-|S|)}."""
    if m < 1:
        raise ValueError("isogeny degree must be positive")
    n = vec.n
    factors = [Fraction(m) ** (2 * (n - s)) for s in range(n + 1)]
    return LatticeVector._trusted(
        n, tuple(v * factors[mask.bit_count()] for mask, v in enumerate(vec.values))
    )


def isogeny_pushforward(m: int, vec: LatticeVector) -> LatticeVector:
    """Multiplication-by-m pushforward: scale component at S by m^{2|S|}."""
    if m < 1:
        raise ValueError("isogeny degree must be positive")
    factors = [Fraction(m) ** (2 * s) for s in range(vec.n + 1)]
    return LatticeVector._trusted(
        vec.n, tuple(v * factors[mask.bit_count()] for mask, v in enumerate(vec.values))
    )


# ----------------------------------------------------------- verification


def random_lattice_vector(rng: random.Random, n: int) -> LatticeVector:
    """Integer components uniform in [-10, 10] over all 2^n subsets, drawn
    in display order."""
    _check_rank(n)
    masks = _display_order(n)
    return _from_masks(n, masks, [rng.randint(-10, 10) for _ in masks])


def verify_charge_transforms(p: ChargeParams, m: int, trials: int, seed: int) -> dict:
    """Certify the pullback, pushforward, and twist-shift identities.

    For seeded random vectors v:
      Z^{a,b}(pullback_m v)    = m^{2n} * Z^{a/m^2, b/m^2}(v)
      Z^{a,b}(pushforward_m v) = Z^{m^2 a, m^2 b}(v)
      Z^{a,b}(twist(v, -1))    = Z^{a, b+1}(v)
    """
    if m < 1:
        raise ValueError("isogeny degree must be positive")
    rng = random.Random(seed)
    n = p.n
    msq = Fraction(m) ** 2
    scaled_down = ChargeParams(p.a / msq, p.b / msq, n)
    scaled_up = ChargeParams(p.a * msq, p.b * msq, n)
    shifted = ChargeParams(p.a, p.b + 1, n)
    minus_one = [-1] * n
    factor = Fraction(m) ** (2 * n)
    violations: list[dict] = []
    for t in range(trials):
        v = random_lattice_vector(rng, n)
        checks = [
            (
                "isogeny_pullback",
                central_charge(p, isogeny_pullback(m, v)),
                central_charge(scaled_down, v) * factor,
            ),
            (
                "isogeny_pushforward",
                central_charge(p, isogeny_pushforward(m, v)),
                central_charge(scaled_up, v),
            ),
            (
                "twist_shift",
                central_charge(p, twist(v, minus_one)),
                central_charge(shifted, v),
            ),
        ]
        for name, got, expected in checks:
            if got != expected:
                violations.append(
                    {
                        "identity": name,
                        "trial": t,
                        "vector": v.to_json(),
                        "got": got.to_json(),
                        "expected": expected.to_json(),
                    }
                )
    return {
        "check": "charge_transforms",
        "params": {"n": n, "a": str(p.a), "b": str(p.b), "m": m},
        "trials": trials,
        "seed": seed,
        "identities": ["isogeny_pullback", "isogeny_pushforward", "twist_shift"],
        "violations": violations,
    }

