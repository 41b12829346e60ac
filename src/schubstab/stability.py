"""Exact phase arithmetic and desk-scale stability checks.

Phases are never evaluated transcendentally.  A nonzero charge z with
Im z > 0, or Im z = 0 and Re z < 0, determines theta in (0, 1] on the ray
R_{>0} e^{i pi theta}; two such rays are compared by the sign of the cross
product Re(z1)Im(z2) - Re(z2)Im(z1), with the negative real axis maximal.
A homological shift k moves the phase into (k, k+1], so phase points order
lexicographically by shift and then by ray.  _strip and _phase_below are
the one strip test and the one ray order: they hold for Fraction parts and
for integer multiples alike, so PhasePoint applies them to its charge and
the shadow scans to integer-scaled charges.

Three families of checks live here:
  * Harder-Narasimhan filtrations of split sheaves on the projective line,
    where the filtration really is slope regrouping and is therefore
    computable.
  * The "shadow" scan: twisting down by the ample generator must not raise
    the phase of any class in the strip.  This is a necessary
    central-charge consequence of the categorical twist inequality, not
    the inequality itself, and its certificates say so.
  * A small certificate calculus for twist/shift facts "sigma tensor O(t)
    stays at or below sigma[k]".  Composition adds twists and shifts;
    lowering the twist of a known fact is the monotone weakening step.
    The chain goal (a_j, j, strict) is derivable exactly when a_j <= j*N.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import total_ordering
from typing import Sequence

from .lattice import (
    ChargeParams,
    ExactComplex,
    LatticeVector,
    Scalar,
    _charge_numerators,
    _display_order,
    _from_masks,
    central_charge,
    check_lattice_rank,
    twist,
    vector_from_rank_deg,
)
from .perms import check_count


def _strip(x: Scalar, y: Scalar) -> bool:
    """Whether the charge x + iy lies on a ray with theta in (0, 1].  x and
    y are the parts of a charge or any common positive multiple of them, as
    Fractions or ints."""
    return y > 0 or (y == 0 and x < 0)


def _phase_below(x1: Scalar, y1: Scalar, x2: Scalar, y2: Scalar) -> bool:
    """Whether the strip charge x1 + iy1 has a smaller theta than x2 + iy2,
    phase one (the negative real axis) maximal; exact for Fractions or ints."""
    if y1 == 0:
        return False
    if y2 == 0:
        return True
    return x1 * y2 - x2 * y1 > 0


def in_strip(z: ExactComplex) -> bool:
    """Whether z lies on a ray with theta in (0, 1]."""
    return _strip(z.re, z.im)


@total_ordering
@dataclass(frozen=True)
class PhasePoint:
    """A phase shift + theta with theta in (0, 1], compared exactly."""

    charge: ExactComplex
    shift: int = 0

    def __post_init__(self):
        if not in_strip(self.charge):
            raise ValueError(f"charge {self.charge} is outside the strip 0 < phase <= 1")

    @property
    def is_phase_one(self) -> bool:
        return self.charge.im == 0

    def _ray(self) -> tuple[int, int]:
        """Primitive integer vector on the ray of the charge."""
        if self.is_phase_one:
            return (-1, 0)
        re, im = self.charge.re, self.charge.im
        scale = re.denominator * im.denominator
        a, b = int(re * scale), int(im * scale)
        g = math.gcd(a, b)
        return (a // g, b // g)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhasePoint):
            return NotImplemented
        return self.shift == other.shift and self._ray() == other._ray()

    def __lt__(self, other: "PhasePoint") -> bool:
        if not isinstance(other, PhasePoint):
            return NotImplemented
        if self.shift != other.shift:
            return self.shift < other.shift
        z, w = self.charge, other.charge
        return _phase_below(z.re, z.im, w.re, w.im)

    def __hash__(self) -> int:
        return hash((self.shift, self._ray()))

    def to_json(self) -> dict:
        return {
            "re": str(self.charge.re),
            "im": str(self.charge.im),
            "shift": self.shift,
        }

    def __str__(self) -> str:
        a, b = self._ray()
        return f"phase(shift={self.shift}, ray=({a},{b}))"


def phase(z: ExactComplex) -> PhasePoint:
    """Ordering key for theta in (0, 1]; rejects charges off the strip."""
    return PhasePoint(z, 0)


# ------------------------------------------------- HN on the rational curve


@dataclass(frozen=True)
class SplitSheafP1:
    """Direct sum of line bundles O(d_i) and torsion sheaves of given lengths."""

    bundle_degrees: tuple[int, ...] = ()
    torsion_lengths: tuple[int, ...] = ()

    def __post_init__(self):
        degs, tors = self.bundle_degrees, self.torsion_lengths
        if not all(type(d) is int for d in degs):
            raise ValueError("bundle degrees must be integers")
        if not all(type(t) is int and t >= 1 for t in tors):
            raise ValueError("torsion lengths must be positive integers")
        object.__setattr__(self, "bundle_degrees", tuple(sorted(degs, reverse=True)))
        object.__setattr__(self, "torsion_lengths", tuple(sorted(tors, reverse=True)))

    @property
    def is_zero(self) -> bool:
        return not self.bundle_degrees and not self.torsion_lengths

    def to_json(self) -> dict:
        return {
            "bundle_degrees": list(self.bundle_degrees),
            "torsion_lengths": list(self.torsion_lengths),
        }

    def __str__(self) -> str:
        bits = [f"O({d})" for d in self.bundle_degrees]
        bits += [f"T({t})" for t in self.torsion_lengths]
        return " + ".join(bits) if bits else "0"


def hn_split_p1(
    sheaf: SplitSheafP1, p: ChargeParams
) -> list[tuple[SplitSheafP1, PhasePoint]]:
    """HN factors of a split sheaf, top (largest phase) first.

    Torsion is semistable of phase 1 and forms the top factor; bundle
    summands of equal degree form one semistable factor each, ordered by
    decreasing degree.  Degree order is phase order for every valid (a, b):
    the cross product of the two charges reduces to a * (d2 r1 - d1 r2).
    """
    if p.n != 1:
        raise ValueError("split-sheaf HN lives on a curve (n = 1)")
    if sheaf.is_zero:
        raise ValueError("the zero sheaf has no HN filtration")
    factors: list[tuple[SplitSheafP1, PhasePoint]] = []
    if sheaf.torsion_lengths:
        z = central_charge(p, vector_from_rank_deg(0, sum(sheaf.torsion_lengths)))
        factors.append((SplitSheafP1((), sheaf.torsion_lengths), PhasePoint(z)))
    for d in sorted(set(sheaf.bundle_degrees), reverse=True):
        k = sheaf.bundle_degrees.count(d)
        z = central_charge(p, vector_from_rank_deg(k, k * d))
        factors.append((SplitSheafP1((d,) * k, ()), PhasePoint(z)))
    return factors


def hn_factors_to_json(factors: list[tuple[SplitSheafP1, PhasePoint]]) -> list[dict]:
    return [
        {"factor": sheaf.to_json(), "phase": point.to_json()}
        for sheaf, point in factors
    ]


# ------------------------------------------------------------- shadow scan


MAX_SCAN_CLASSES = 100_000


def scan_class_count(n: int, bound: int) -> int:
    """Number of classes bayer_shadow_scan tries at rank n and this bound.

    Raises ValueError for a rank outside 1..MAX_LATTICE_RANK, a bound
    below 1 and a count beyond MAX_SCAN_CLASSES, and TypeError for a bound
    that is not an int (a bool included), so a caller can refuse a scan
    before starting it.
    """
    check_lattice_rank(n)
    check_count(bound, "bound")
    side = 2 * bound + 1
    classes = bound * side + bound if n == 1 else side ** (2**n)
    if classes > MAX_SCAN_CLASSES:
        raise ValueError(
            f"scan of {classes} classes exceeds the limit of {MAX_SCAN_CLASSES}"
        )
    return classes


def _integer_charge_rows(
    p: ChargeParams, cells: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """Rows (Re Z, Im Z, Re Z', Im Z') over the cells (subset masks),
    Z' = Z(twist(., -1)).

    Both functionals are linear in the class, so their values on the basis
    vectors determine them.  A basis vector and its twist by -1 have
    integer components, so every value is a numerator over the one positive
    denominator of p.coefficients; dropping it keeps every ray and the sign
    of every cross product.
    """
    minus_one = [-1] * p.n
    rows: list[list[int]] = [[], [], [], []]
    for cell in cells:
        basis = _from_masks(p.n, (cell,), (1,))
        re, im, den = _charge_numerators(p, basis)
        twisted_re, twisted_im, twisted_den = _charge_numerators(p, twist(basis, minus_one))
        if den != p.coefficients[2] or twisted_den != den:
            raise RuntimeError("expected integer basis classes; this is a bug")
        for row, value in zip(rows, (re, im, twisted_re, twisted_im)):
            row.append(value)
    return tuple(map(tuple, rows))


def _dot(row: tuple[int, ...], values: tuple[int, ...]) -> int:
    return sum(map(operator.mul, row, values))


def _exact_phases(p: ChargeParams, vec: LatticeVector) -> tuple[PhasePoint, PhasePoint]:
    """Phases of vec and of twist(vec, -1) by the exact charge route."""
    z_before = central_charge(p, vec)
    z_after = central_charge(p, twist(vec, [-1] * p.n))
    if not (in_strip(z_before) and in_strip(z_after)):
        raise RuntimeError(f"integer strip test disagrees with the exact charges at {vec}")
    return phase(z_before), phase(z_after)


def bayer_shadow_scan(p: ChargeParams, bound: int) -> dict:
    """Check that twisting by the dual ample class never raises the phase.

    This is a class-level shadow of the categorical twist inequality: the
    certificate carries shadow = true because agreeing charges prove
    nothing about the categories, only disagreeing ones would refute.

    n = 1 is the rigorous regime: every (r, d) with r in [1, bound] and
    |d| <= bound, plus torsion classes (0, d), is in the strip, and the
    phase must drop strictly except on torsion, where it is fixed.  For
    n >= 2 every component vector in the box [-bound, bound]^(2^n) is
    tried, and vectors leaving the strip (before or after the twist) are
    skipped rather than counted against the check.

    Z and Z(twist(., -1)) are linear, so the integer-scaled parts
    (x1, y1, x2, y2) of both charges are four rows built once from the
    charge numerators of the basis vectors.  The scan walks the classes in
    lines along one coordinate, d on the curve and the last cell for
    n >= 2 (itertools.product order): four dot products give the parts at
    the start of a line, and each step adds that coordinate's column of
    the rows, four integer additions per class.  _strip and _phase_below
    test and order the integer-scaled charges.  Each finding is rebuilt through central_charge and
    PhasePoint for its report; a RuntimeError is raised if that disagrees
    with the integer verdict.

    The class count grows like bound^(2^n); beyond MAX_SCAN_CLASSES the
    scan is refused with a ValueError before any class is tried.
    """
    n = p.n
    scan_class_count(n, bound)
    cells = _display_order(n)
    rows = _integer_charge_rows(p, cells)
    span = range(-bound, bound + 1)
    scanned = 0
    skipped = 0
    violations: list[dict] = []
    if n == 1:
        # cells are the masks (0, 1): a class (r, d) has values (d, r), so a
        # step of d adds the first column.  Every class here is in the strip:
        # Im Z = a*r > 0, and torsion has Z = -d.
        sx1, sy1, sx2, sy2 = (row[0] for row in rows)
        for r in range(1, bound + 1):
            x1, y1, x2, y2 = [_dot(row, (-bound, r)) for row in rows]
            for d in span:
                scanned += 1
                if not _phase_below(x2, y2, x1, y1):
                    before, after = _exact_phases(p, vector_from_rank_deg(r, d))
                    if after < before:
                        raise RuntimeError(f"integer phase order disagrees at {(r, d)}")
                    violations.append(
                        {
                            "piece": [r, d],
                            "kind": "phase_did_not_drop",
                            "before": before.to_json(),
                            "after": after.to_json(),
                        }
                    )
                x1 += sx1
                y1 += sy1
                x2 += sx2
                y2 += sy2
        # The torsion class (0, d) is d times the first column.
        x1, y1, x2, y2 = sx1, sy1, sx2, sy2
        for d in range(1, bound + 1):
            scanned += 1
            if _phase_below(x1, y1, x2, y2) or _phase_below(x2, y2, x1, y1):
                before, after = _exact_phases(p, vector_from_rank_deg(0, d))
                if after == before:
                    raise RuntimeError(f"integer torsion phase disagrees at {(0, d)}")
                violations.append(
                    {
                        "piece": [0, d],
                        "kind": "torsion_phase_moved",
                        "before": before.to_json(),
                        "after": after.to_json(),
                    }
                )
            x1 += sx1
            y1 += sy1
            x2 += sx2
            y2 += sy2
    else:
        sx1, sy1, sx2, sy2 = (row[-1] for row in rows)
        for prefix in itertools.product(span, repeat=len(cells) - 1):
            x1, y1, x2, y2 = [_dot(row, (*prefix, -bound)) for row in rows]
            for v in span:
                if _strip(x1, y1) and _strip(x2, y2):
                    scanned += 1
                    if _phase_below(x1, y1, x2, y2):
                        vec = _from_masks(n, cells, (*prefix, v))
                        before, after = _exact_phases(p, vec)
                        if not before < after:
                            raise RuntimeError(f"integer phase order disagrees at {vec}")
                        violations.append(
                            {
                                "vector": vec.to_json(),
                                "kind": "phase_rose",
                                "before": before.to_json(),
                                "after": after.to_json(),
                            }
                        )
                else:
                    skipped += 1
                x1 += sx1
                y1 += sy1
                x2 += sx2
                y2 += sy2
    return {
        "check": "bayer_shadow",
        "params": {"n": n, "a": str(p.a), "b": str(p.b), "bound": bound},
        "scanned": scanned,
        "skipped": skipped,
        "violations": violations,
        "shadow": True,
    }


# ------------------------------------------------------ twist-chain calculus


@dataclass(frozen=True)
class RelationFact:
    """The fact that an object twisted t times sits at or below shift k.

    strict records whether the comparison is known to be strict somewhere
    along the derivation; composing chains adds twists and shifts and ORs
    strictness.
    """

    twist: int
    shift: int
    strict: bool

    def __post_init__(self):
        if self.twist < 0 or self.shift < 0:
            raise ValueError("twist and shift must be non-negative")

    def to_json(self) -> dict:
        return {"twist": self.twist, "shift": self.shift, "strict": self.strict}

    def __str__(self) -> str:
        rel = "<" if self.strict else "<="
        return f"O({self.twist}) {rel} [{self.shift}]"


IDENTITY_FACT = RelationFact(0, 0, False)


def restriction_fact(big_n: int) -> RelationFact:
    """The restriction axiom: N twists stay strictly under one shift."""
    if big_n < 1:
        raise ValueError("N must be positive")
    return RelationFact(big_n, 1, True)


def compose_relations(f1: RelationFact, f2: RelationFact) -> RelationFact:
    """Transitive chaining: twists and shifts add, strictness ORs."""
    return RelationFact(f1.twist + f2.twist, f1.shift + f2.shift, f1.strict or f2.strict)


def weaken_twist(fact: RelationFact) -> RelationFact:
    """Lower the twist by one, keeping shift and strictness.

    Sound because one more monotone twist step chains below the given
    fact; the twist cannot be weakened below zero.
    """
    if fact.twist == 0:
        raise ValueError("cannot weaken a twist of zero")
    return RelationFact(fact.twist - 1, fact.shift, fact.strict)


# A reachable goal (a_j, j) is j restriction steps and j*N - a_j
# weakenings, each recorded in the certificate, and nothing else bounds N.
# At this limit `derive chain --adegrees 1 --N 100000` takes 0.43 s, and
# with --json 0.9-1.0 s at 131 MiB for 17.8 MB of output (whole process,
# 2-core Xeon, Python 3.11.7).
MAX_CHAIN_STEPS = 100_000


def derive_twist_chain(a_degrees: Sequence[int], big_n: int) -> list[dict]:
    """Derive the goal (a_j, j, strict) for each j, or refuse.

    Shift j is only reachable by composing the restriction axiom j times,
    which caps the twist at j*N; weakening then lowers the twist one step
    at a time.  So the goal is derivable exactly when a_j <= j*N, and when
    it is not, the certificate names the obstruction instead of asserting.
    Raises ValueError before any step when the reachable goals take more
    than MAX_CHAIN_STEPS steps in all.
    """
    if type(big_n) is not int or big_n < 1:
        raise ValueError(f"N must be a positive integer, got {big_n}")
    total = 0
    for j, a in enumerate(a_degrees, start=1):
        if type(a) is not int or a < 1:
            raise ValueError(f"a_{j} must be a positive integer, got {a}")
        if a <= j * big_n:
            total += j + j * big_n - a
    if total > MAX_CHAIN_STEPS:
        raise ValueError(f"chain of {total} steps exceeds the limit of {MAX_CHAIN_STEPS}")
    certificates: list[dict] = []
    for j, a in enumerate(a_degrees, start=1):
        goal = {"twist": a, "shift": j, "strict": True}
        entry: dict = {
            "check": "twist_chain",
            "params": {"j": j, "a": a, "N": big_n},
            "goal": goal,
        }
        cap = j * big_n
        if a > cap:
            entry["achievable"] = False
            entry["word"] = []
            entry["steps"] = []
            entry["violations"] = [
                {
                    "kind": "unreachable_goal",
                    "reason": f"requested twist {a} exceeds {j}*{big_n} = {cap}",
                }
            ]
            certificates.append(entry)
            continue
        fact = IDENTITY_FACT
        word: list[str] = []
        steps: list[dict] = []
        for _ in range(j):
            fact = compose_relations(fact, restriction_fact(big_n))
            word.append("restriction")
            steps.append({"rule": "restriction", "fact": fact.to_json()})
        for _ in range(cap - a):
            fact = weaken_twist(fact)
            word.append("weaken")
            steps.append({"rule": "weaken", "fact": fact.to_json()})
        entry["achievable"] = True
        entry["word"] = word
        entry["steps"] = steps
        entry["fact"] = fact.to_json()
        entry["violations"] = []
        if (fact.twist, fact.shift, fact.strict) != (a, j, True):
            entry["violations"].append(
                {"kind": "derivation_missed_goal", "fact": fact.to_json()}
            )
        certificates.append(entry)
    return certificates


def replay_twist_chain(entry: dict) -> RelationFact:
    """Re-run a chain certificate's word and return the final fact.

    Raises if the word is ill-formed or any recorded intermediate fact
    disagrees with the replay.
    """
    big_n = entry["params"]["N"]
    fact = IDENTITY_FACT
    for letter, step in zip(entry["word"], entry["steps"], strict=True):
        if letter != step["rule"]:
            raise ValueError("word and steps disagree")
        if letter == "restriction":
            fact = compose_relations(fact, restriction_fact(big_n))
        elif letter == "weaken":
            fact = weaken_twist(fact)
        else:
            raise ValueError(f"unknown rule {letter!r}")
        if fact.to_json() != step["fact"]:
            raise ValueError(f"recorded fact diverges at step {step}")
    return fact
