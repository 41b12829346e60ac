"""The numerical charge lattice of an n-fold product of elliptic curves,
with exact central charges and their transformation laws.

A class is recorded through its 2^n pairings against the squarefree
monomials in the fiber classes H_1, ..., H_n (H_i^2 = 0): the component at
a subset S of {1..n} is the pairing of prod_{i in S} H_i against the
complementary-degree Chern piece.  This is all the information the central
charges

    Z(v) = sum_{s=0}^{n} -(-1)^s (b + ia)^s * (sum over |S| = s of v[S])

consume, with a > 0 and b exact rationals.  Z is a linear functional:
the level coefficients -(-1)^s (b + ia)^s are computed once per parameter
set, so a charge is a sum of level sums times those coefficients, and the
shadow scans in stability.py compare phases of its integer-scaled values
by cross products.  Everything here is Fraction or int arithmetic; there
is no floating point in any code path.

Transformation laws implemented and certified exactly:
  * twisting by a line bundle with multidegree c redistributes components
    along supersets (twist group law: twists compose additively),
  * multiplication-by-m isogenies scale the component at S by
    m^{2(n-|S|)} under pullback and by m^{2|S|} under pushforward.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]
Subset = frozenset[int]


@dataclass(frozen=True)
class ExactComplex:
    """Complex number with exact rational parts."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    @staticmethod
    def of(re: Scalar, im: Scalar = 0) -> "ExactComplex":
        return ExactComplex(Fraction(re), Fraction(im))

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
    """The (a, b) parameters of a central charge, a > 0, plus the rank."""

    a: Fraction
    b: Fraction
    n: int

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.a <= 0:
            raise ValueError("parameter a must be positive")
        if self.n < 1:
            raise ValueError("rank must be at least 1")


@lru_cache(maxsize=None)
def subsets(n: int) -> tuple[Subset, ...]:
    """All subsets of {1..n}, sorted by size then elements."""
    items = list(range(1, n + 1))
    out = []
    for size in range(n + 1):
        for combo in itertools.combinations(items, size):
            out.append(frozenset(combo))
    return tuple(out)


class LatticeVector:
    """Sparse map from subsets of {1..n} to exact rationals."""

    __slots__ = ("n", "components")

    def __init__(self, n: int, components: Mapping[Iterable[int], Scalar]):
        if n < 1:
            raise ValueError("rank must be at least 1")
        clean: dict[Subset, Fraction] = {}
        for key, value in components.items():
            s = frozenset(key)
            if not all(isinstance(i, int) and 1 <= i <= n for i in s):
                raise ValueError(f"subset {sorted(s)} not within 1..{n}")
            value = Fraction(value)
            if value:
                clean[s] = value
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "components", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LatticeVector is immutable")

    def component(self, s: Iterable[int]) -> Fraction:
        return self.components.get(frozenset(s), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self.components

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} vs {other.n}")
        out = dict(self.components)
        for s, v in other.components.items():
            out[s] = out.get(s, Fraction(0)) + v
        return LatticeVector(self.n, out)

    def __neg__(self) -> "LatticeVector":
        return LatticeVector(self.n, {s: -v for s, v in self.components.items()})

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        return self + (-other)

    def scale(self, c: Scalar) -> "LatticeVector":
        return LatticeVector(self.n, {s: v * Fraction(c) for s, v in self.components.items()})

    def sup_norm(self) -> Fraction:
        if not self.components:
            return Fraction(0)
        return max(abs(v) for v in self.components.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatticeVector):
            return NotImplemented
        return self.n == other.n and self.components == other.components

    __hash__ = None

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "components": [
                {"subset": sorted(s), "value": str(self.components[s])}
                for s in sorted(self.components, key=lambda s: (len(s), sorted(s)))
            ],
        }

    def __str__(self) -> str:
        bits = [
            f"{{{','.join(map(str, sorted(s)))}}}:{v}"
            for s, v in sorted(self.components.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
        ]
        return "(" + "; ".join(bits) + ")" if bits else "(0)"


# ------------------------------------------------------------ constructors


def v_of_line_bundle(c: Sequence[Scalar]) -> LatticeVector:
    """Class of the line bundle with multidegree c: component at S is the
    product of c_i over i outside S."""
    n = len(c)
    comps: dict[Subset, Fraction] = {}
    for s in subsets(n):
        prod = Fraction(1)
        for i in range(1, n + 1):
            if i not in s:
                prod *= Fraction(c[i - 1])
        comps[s] = prod
    return LatticeVector(n, comps)


def v_of_point(n: int) -> LatticeVector:
    """Class of a skyscraper: 1 at the empty subset, 0 elsewhere."""
    return LatticeVector(n, {frozenset(): Fraction(1)})


def vector_from_rank_deg(r: Scalar, d: Scalar) -> LatticeVector:
    """Rank-1-curve convenience: the class with rank r and degree d."""
    return LatticeVector(1, {frozenset({1}): Fraction(r), frozenset(): Fraction(d)})


def rank_deg(vec: LatticeVector) -> tuple[Fraction, Fraction]:
    if vec.n != 1:
        raise ValueError("rank/degree view only exists at n = 1")
    return vec.component({1}), vec.component(())


# ------------------------------------------------------------- the charge


@lru_cache(maxsize=256)
def _level_coefficients(p: ChargeParams) -> tuple[tuple[Fraction, Fraction], ...]:
    """(re, im) of -(-1)^s (b+ia)^s for s = 0..n, the coefficients of Z."""
    out = []
    re, im = Fraction(1), Fraction(0)
    for s in range(p.n + 1):
        sign = 1 if s % 2 else -1  # -(-1)^s
        out.append((sign * re, sign * im))
        re, im = re * p.b - im * p.a, re * p.a + im * p.b
    return tuple(out)


def central_charge(p: ChargeParams, vec: LatticeVector) -> ExactComplex:
    """Z(v) = sum_s -(-1)^s (b+ia)^s * (level-s component sum)."""
    if p.n != vec.n:
        raise ValueError(f"rank mismatch: params {p.n}, vector {vec.n}")
    levels = [Fraction(0)] * (vec.n + 1)
    for s, v in vec.components.items():
        levels[len(s)] += v
    re = im = Fraction(0)
    for level, (c_re, c_im) in zip(levels, _level_coefficients(p)):
        if level:
            re += level * c_re
            im += level * c_im
    return ExactComplex(re, im)


def twist(vec: LatticeVector, c: Sequence[Scalar]) -> LatticeVector:
    """Tensor by the line bundle of multidegree c at the class level.

    new[S] = sum over T disjoint from S of (prod_{i in T} c_i) * old[S u T].
    Twists compose additively in c.
    """
    if len(c) != vec.n:
        raise ValueError(f"rank mismatch: twist degree {len(c)}, vector {vec.n}")
    n = vec.n
    out: dict[Subset, Fraction] = {}
    for s in subsets(n):
        rest = [i for i in range(1, n + 1) if i not in s]
        total = Fraction(0)
        for size in range(len(rest) + 1):
            for combo in itertools.combinations(rest, size):
                prod = Fraction(1)
                for i in combo:
                    prod *= Fraction(c[i - 1])
                total += prod * vec.component(s | frozenset(combo))
        if total:
            out[s] = total
    return LatticeVector(n, out)


def isogeny_pullback(m: int, vec: LatticeVector) -> LatticeVector:
    """Multiplication-by-m pullback: scale component at S by m^{2(n-|S|)}."""
    if m < 1:
        raise ValueError("isogeny degree must be positive")
    n = vec.n
    return LatticeVector(
        n, {s: v * Fraction(m) ** (2 * (n - len(s))) for s, v in vec.components.items()}
    )


def isogeny_pushforward(m: int, vec: LatticeVector) -> LatticeVector:
    """Multiplication-by-m pushforward: scale component at S by m^{2|S|}."""
    if m < 1:
        raise ValueError("isogeny degree must be positive")
    return LatticeVector(
        vec.n, {s: v * Fraction(m) ** (2 * len(s)) for s, v in vec.components.items()}
    )


# ----------------------------------------------------------- verification


def random_lattice_vector(rng: random.Random, n: int) -> LatticeVector:
    """Integer components uniform in [-10, 10] over all 2^n subsets."""
    return LatticeVector(n, {s: rng.randint(-10, 10) for s in subsets(n)})


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


def support_constant(p: ChargeParams, classes: Sequence[LatticeVector]) -> Fraction | None:
    """min |Z(v)|^2 / sup-norm(v)^2 over the given classes, exactly.

    Returns None when some class has Z = 0 (no positive constant exists for
    that set).  The constant depends on the chosen norm; this uses the
    sup-norm on components.
    """
    if not classes:
        raise ValueError("need at least one class")
    best: Fraction | None = None
    for vec in classes:
        if vec.is_zero:
            raise ValueError("classes must be nonzero")
        z = central_charge(p, vec)
        if z.is_zero:
            return None
        ratio = z.abs_squared() / vec.sup_norm() ** 2
        if best is None or ratio < best:
            best = ratio
    return best
