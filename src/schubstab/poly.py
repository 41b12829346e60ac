"""Exact sparse polynomials over Q with a symmetric-group action on the
x-variables and divided-difference operators.

A Poly lives in Q[x_1..x_nx, y_1..y_ny].  It stores integer numerators
over one positive denominator shared by all its terms, with the two
reduced by their gcd (the zero polynomial has denominator 1), so `==` is
exact polynomial identity and an integer polynomial never touches a
`Fraction`.  Each exponent vector is packed into one int: nx + ny fields
of equal width, x_1 in the most significant field and y_ny in the least,
so the key of a product term is the sum of its factors' keys, and the
x-action, the divided differences and the two-alphabet moves read and
write fields by shift and mask (Monagan and Pearce, "Polynomial division
using dynamic arrays, heaps, and packed exponent vectors", CASC 2007).

A field must never carry into its neighbour.  Every Poly keeps an upper
bound on its exponents; a product, and the y -> x specialization, which
adds fields, first check the bound of their result and repack into wider
fields when it does not fit.  The width is _FIELD_BITS unless an exponent
needs more, so no exponent is refused for its size.  The package reads
terms only in packed form; `Fraction` and exponent tuples appear only at
the edge: `as_fraction`, `__str__` and `to_json`, which walk the terms in
`_graded` order, and `terms`, a read-only mapping of exponent tuples to
Fractions unpacked afresh on each read, which the package reads only for
the few terms of a right factor in `bimodule.right_multiply`.  The CLI's
JSON writer takes the same walk with form makers of its own, so each
distinct half of an exponent key is rendered as JSON text once and no term
builds an exponent tuple.

Most of the package works in the pure-x ring (ny = 0); the y-block exists
for two-alphabet polynomials, and to tag the trials that
verify_demazure_relations stacks into one polynomial, and is inert under
the group action and the operators.

The divided-difference operator of index j sends f to
(f - s_j f) / (x_j - x_{j+1}), where s_j swaps x_j and x_{j+1}.  It is
computed monomial by monomial, with no subtraction and no division: if a
monomial has exponents p > q on x_j, x_{j+1}, its image is the sum over
k = 0..p-q-1 of the monomial with those exponents replaced by
(p-1-k, q+k); if p < q, it is minus the image of the monomial with p and q
swapped; if p = q, it is 0 (Macdonald, Notes on Schubert Polynomials,
1991, ch. II).

`Poly(nx, ny, terms)` and every named constructor validate their input:
exponent tuples of width nx + ny whose entries are nonnegative ints (any
other type, a float, a Fraction or a bool, is refused with TypeError),
coefficients converted by `as_fraction` (a float or a bool is refused)
and zeros dropped.  Results the module computes itself are built already
in normal form and wrapped by `Poly._trusted`, which checks nothing, or by
`Poly._reduced`, which only drops zero terms and cancels the common
content of numerators and denominator.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterator, Mapping
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Union

from .perms import (
    MAX_ENUMERATED_RANK,
    Permutation,
    check_count,
    check_rank,
    check_seed,
    symmetric_group,
)

Exponent = tuple[int, ...]
Scalar = Union[int, Fraction]

# Bits per exponent field, unless an exponent needs more.  Six bits hold
# every exponent the certificates and the benchmark reach, so their
# products never repack.
_FIELD_BITS = 6


def as_fraction(value: Union[Scalar, str]) -> Fraction:
    """Fraction(value) for an int, Fraction or "p/q" string; TypeError on a
    float or a bool."""
    if isinstance(value, float):
        raise TypeError(f"float {value!r} is not exact; give an int, Fraction or 'p/q'")
    if isinstance(value, bool):
        raise TypeError(f"bool {value!r} is not a number; give an int, Fraction or 'p/q'")
    return Fraction(value)


def _is_scalar(value: object) -> bool:
    """Whether value is an int or Fraction operand; a bool is neither."""
    return isinstance(value, (int, Fraction)) and type(value) is not bool


def _width_for(top: int) -> int:
    """Field width in bits that holds every exponent up to top."""
    return max(_FIELD_BITS, top.bit_length())


def _pack(exp: Iterable[int], bits: int) -> int:
    key = 0
    for e in exp:
        key = (key << bits) | e
    return key


def _unpack(key: int, slots: int, bits: int) -> Exponent:
    mask = (1 << bits) - 1
    return tuple([(key >> s) & mask for s in range(bits * (slots - 1), -1, -bits)])


def _low_bits(slots: int, bits: int) -> int:
    """The lowest bit of each of the `slots` least significant fields: the
    parity of a key's degree there is the parity of its popcount under this."""
    return sum(1 << (bits * s) for s in range(slots))


def _tuples(slots: int) -> Callable[[Exponent], Exponent]:
    """The form maker of _graded that leaves each half as its exponent
    tuple."""
    return tuple


def _unpack_halves(
    keys: Iterable[int], slots: int, bits: int, form: Callable[[Exponent], object]
) -> tuple[dict[int, int], dict[int, object]]:
    """Each key of `slots` fields mapped to its degree, and to form of its
    exponents; the keys are unpacked together, one field at a time."""
    keys = list(keys)
    mask = (1 << bits) - 1
    fields = [[(k >> s) & mask for k in keys] for s in range(bits * (slots - 1), -1, -bits)]
    exps = list(zip(*fields)) if slots else [()] * len(keys)
    return dict(zip(keys, map(sum, exps))), dict(zip(keys, map(form, exps)))


def _accumulate(acc: dict[int, int], terms: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Add terms into acc in place; a key may end up with value 0."""
    get = acc.get
    for k, v in terms:
        acc[k] = get(k, 0) + v
    return acc


class Poly:
    """Immutable sparse polynomial: integer numerators over a shared
    denominator, keyed by packed exponents (see the module docstring)."""

    __slots__ = ("nx", "ny", "_num", "_den", "_bits", "_top")

    def __init__(self, nx: int, ny: int, terms: Mapping[Exponent, Scalar]):
        if nx < 0 or ny < 0:
            raise ValueError("variable counts must be nonnegative")
        clean: dict[Exponent, Fraction] = {}
        width = nx + ny
        for exp, c in terms.items():
            exp = tuple(exp)
            if len(exp) != width:
                raise ValueError(f"exponent {exp} has {len(exp)} slots, ring has {width}")
            if any(type(e) is not int for e in exp):
                raise TypeError(f"exponent {exp!r} must hold ints")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            c = as_fraction(c)
            if c:
                clean[exp] = c
        # Over the lcm of reduced denominators the numerators share no
        # factor with it, so this is already in normal form.
        den = lcm(*(c.denominator for c in clean.values()))
        top = max((max(exp, default=0) for exp in clean), default=0)
        bits = _width_for(top)
        num = {_pack(exp, bits): c.numerator * (den // c.denominator) for exp, c in clean.items()}
        self._fill(nx, ny, num, den, bits, top)

    def _fill(self, nx: int, ny: int, num: dict[int, int], den: int, bits: int, top: int) -> None:
        put = object.__setattr__
        put(self, "nx", nx)
        put(self, "ny", ny)
        put(self, "_num", num)
        put(self, "_den", den)
        put(self, "_bits", bits)
        put(self, "_top", top)

    @classmethod
    def _trusted(cls, nx: int, ny: int, num: dict[int, int], den: int, bits: int, top: int) -> "Poly":
        """Wrap terms this module built: nonzero numerators keyed by exponents
        packed `bits` wide, all at most top < 2**bits, over a positive den
        sharing no factor with them (1 when num is empty).  Nothing is checked."""
        p = object.__new__(cls)
        p._fill(nx, ny, num, den, bits, top)
        return p

    @classmethod
    def _reduced(cls, nx: int, ny: int, num: dict[int, int], den: int, bits: int, top: int) -> "Poly":
        """Like _trusted, after dropping zero numerators and cancelling the
        content they share with den."""
        if 0 in num.values():
            num = {k: v for k, v in num.items() if v}
        if den != 1:
            g = gcd(den, *num.values()) if num else den
            if g != 1:
                num = {k: v // g for k, v in num.items()}
                den //= g
        return cls._trusted(nx, ny, num, den, bits, top)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def _at(self, bits: int) -> dict[int, int]:
        """The numerators keyed at field width bits >= self._bits."""
        if bits == self._bits:
            return self._num
        slots, old = self.nx + self.ny, self._bits
        return {_pack(_unpack(k, slots, old), bits): c for k, c in self._num.items()}

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        """Read-only mapping of exponent tuples to nonzero Fraction
        coefficients, in the order of the packed terms, unpacked afresh on
        each read."""
        slots, bits, den = self.nx + self.ny, self._bits, self._den
        return MappingProxyType(
            {_unpack(k, slots, bits): Fraction(c, den) for k, c in self._num.items()}
        )

    # ------------------------------------------------------- constructors

    @staticmethod
    def zero(nx: int, ny: int = 0) -> "Poly":
        return Poly(nx, ny, {})

    @staticmethod
    def const(value: Scalar, nx: int, ny: int = 0) -> "Poly":
        return Poly(nx, ny, {(0,) * (nx + ny): value})

    @staticmethod
    def one(nx: int, ny: int = 0) -> "Poly":
        return Poly.const(1, nx, ny)

    @staticmethod
    def x(i: int, nx: int, ny: int = 0) -> "Poly":
        """The variable x_i (1-indexed)."""
        if type(i) is not int:
            raise TypeError(f"x-index {i!r} must be an int")
        if not 1 <= i <= nx:
            raise ValueError(f"x-index {i} out of range for {nx} x-variables")
        exp = [0] * (nx + ny)
        exp[i - 1] = 1
        return Poly(nx, ny, {tuple(exp): Fraction(1)})

    @staticmethod
    def monomial(exp: Iterable[int], coeff: Scalar, nx: int, ny: int = 0) -> "Poly":
        return Poly(nx, ny, {tuple(exp): coeff})

    # -------------------------------------------------------- ring queries

    @property
    def is_zero(self) -> bool:
        return not self._num

    def _graded(
        self,
        descending: bool = False,
        high: Callable[[int], Callable[[Exponent], object]] = _tuples,
        low: Callable[[int], Callable[[Exponent], object]] = _tuples,
    ) -> Iterator[tuple[object, object, int]]:
        """(high form, low form, numerator) per term, by total degree,
        ascending or descending, then by exponents ascending.  Within one
        degree the exponents compare as their keys do, x_1 being the top
        field, so each term sorts by one int: its signed degree above its
        key.  A key is read as a high half, its first ceil((nx + ny) / 2)
        fields, and a low half, the rest; each distinct half is unpacked
        once however many terms share it, and its form is made by
        high(its size) or low(its size), so no term builds its own exponent
        tuple.  By default the forms are the halves' exponent tuples, and a
        term's exponents are high + low."""
        slots, bits = self.nx + self.ny, self._bits
        low_slots = slots // 2
        high_slots = slots - low_slots
        cut = bits * low_slots
        low_mask = (1 << cut) - 1
        num = self._num
        high_degree, high_form = _unpack_halves(
            {k >> cut for k in num}, high_slots, bits, high(high_slots)
        )
        low_degree, low_form = _unpack_halves(
            {k & low_mask for k in num}, low_slots, bits, low(low_slots)
        )
        width = bits * slots
        sign = -1 if descending else 1
        order = [
            (sign * (high_degree[k >> cut] + low_degree[k & low_mask])) << width | k for k in num
        ]
        order.sort()
        key_mask = (1 << width) - 1
        for k in order:
            k &= key_mask
            yield high_form[k >> cut], low_form[k & low_mask], num[k]

    # ---------------------------------------------------------- arithmetic

    def _check_ring(self, other: "Poly") -> None:
        if self.nx != other.nx or self.ny != other.ny:
            raise ValueError(
                f"ring mismatch: ({self.nx},{self.ny}) vs ({other.nx},{other.ny})"
            )

    def _combine(self, other: Union["Poly", Scalar], sign: int) -> "Poly":
        """self + sign * other."""
        if not isinstance(other, Poly):
            if not _is_scalar(other):
                return NotImplemented
            other = Poly.const(other, self.nx, self.ny)
        self._check_ring(other)
        bits = max(self._bits, other._bits)
        den = lcm(self._den, other._den)
        scale = den // self._den
        out = dict(self._at(bits)) if scale == 1 else {k: v * scale for k, v in self._at(bits).items()}
        scale = sign * den // other._den
        _accumulate(out, ((k, v * scale) for k, v in other._at(bits).items()))
        return Poly._reduced(self.nx, self.ny, out, den, bits, max(self._top, other._top))

    def __add__(self, other: Union["Poly", Scalar]) -> "Poly":
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        out = {k: -v for k, v in self._num.items()}
        return Poly._trusted(self.nx, self.ny, out, self._den, self._bits, self._top)

    def __sub__(self, other: Union["Poly", Scalar]) -> "Poly":
        return self._combine(other, -1)

    def __rsub__(self, other: Scalar) -> "Poly":
        return Poly.const(other, self.nx, self.ny) - self

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if isinstance(other, Poly):
            return sum_of_products(((self, other),), self.nx, self.ny)
        if not _is_scalar(other):
            return NotImplemented
        if not other:
            return Poly._trusted(self.nx, self.ny, {}, 1, self._bits, self._top)
        out = {k: v * other.numerator for k, v in self._num.items()}
        return Poly._reduced(
            self.nx, self.ny, out, self._den * other.denominator, self._bits, self._top
        )

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        check_count(k, "power", least=0)
        out = Poly.one(self.nx, self.ny)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, Poly):
            if not _is_scalar(other):
                return NotImplemented
            other = Poly.const(other, self.nx, self.ny)
        if (self.nx, self.ny, self._den, len(self._num)) != (
            other.nx, other.ny, other._den, len(other._num)
        ):
            return False
        bits = max(self._bits, other._bits)
        return self._at(bits) == other._at(bits)

    __hash__ = None  # mutable dict inside; polynomials are not dict keys

    # ------------------------------------------------------------- display

    def _var_name(self, slot: int) -> str:
        if slot < self.nx:
            return f"x{slot + 1}"
        return f"y{slot - self.nx + 1}"

    def __str__(self) -> str:
        if not self._num:
            return "0"
        parts = []
        for high, low, c in self._graded(descending=True):
            exp = high + low
            c = Fraction(c, self._den)
            factors = []
            for slot, e in enumerate(exp):
                if e == 1:
                    factors.append(self._var_name(slot))
                elif e > 1:
                    factors.append(f"{self._var_name(slot)}^{e}")
            body = "*".join(factors)
            if not body:
                piece = str(abs(c))
            elif abs(c) == 1:
                piece = body
            else:
                piece = f"{abs(c)}*{body}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, piece))
        first_sign, first_piece = parts[0]
        text = ("-" if first_sign == "-" else "") + first_piece
        for sign, piece in parts[1:]:
            text += f" {sign} {piece}"
        return text

    def __repr__(self) -> str:
        return f"Poly({self})"

    def _json_terms(
        self,
        high: Callable[[int], Callable[[Exponent], object]] = _tuples,
        low: Callable[[int], Callable[[Exponent], object]] = _tuples,
    ) -> Iterator[tuple[object, object, str, str]]:
        """(high form, low form, numerator, denominator) per term, in the
        order and with the form makers of _graded, the coefficient reduced
        by its own gcd and both parts as decimal strings: the terms of
        to_json, and of the CLI's JSON writer, whose forms render each half's
        exponents as JSON text."""
        den = self._den
        if den == 1:
            for h, l, c in self._graded(False, high, low):
                yield h, l, str(c), "1"
        else:
            for h, l, c in self._graded(False, high, low):
                g = gcd(c, den)
                yield h, l, str(c // g), str(den // g)

    def to_json(self) -> dict:
        """Schema: {"nvars": k, "terms": [{"exp": [...], "num": "...", "den": "..."}]}."""
        terms = [
            {"exp": list(h + l), "num": num, "den": den} for h, l, num, den in self._json_terms()
        ]
        return {"nvars": self.nx + self.ny, "terms": terms}


def sum_of_products(pairs: Iterable[tuple[Poly, Poly]], nx: int, ny: int = 0) -> Poly:
    """The sum of a * b over pairs of polynomials in Q[x_1..x_nx, y_1..y_ny].

    Every product is added into one dict of numerators over the lcm of the
    pairs' denominators, in fields wide enough for every product's
    exponents (the sum of its factors' bounds), so no intermediate
    polynomial is built and no field carries into the next.  One pass over
    the pairs checks their rings and finds the bound, the width and the
    denominator.
    """
    pairs = list(pairs)
    top, bits, den = 0, _FIELD_BITS, 1
    for a, b in pairs:
        if a.nx != nx or a.ny != ny or b.nx != nx or b.ny != ny:
            p = b if a.nx == nx and a.ny == ny else a
            raise ValueError(f"ring mismatch: ({nx},{ny}) vs ({p.nx},{p.ny})")
        if a._top + b._top > top:
            top = a._top + b._top
        if a._bits > bits or b._bits > bits:
            bits = max(a._bits, b._bits)
        d = a._den * b._den
        if d != 1:
            den = lcm(den, d)
    bits = max(bits, _width_for(top))
    acc: dict[int, int] = {}
    get = acc.get
    for a, b in pairs:
        scale = den // (a._den * b._den)
        b_num = b._at(bits)
        for k1, c1 in a._at(bits).items():
            c1 *= scale
            for k2, c2 in b_num.items():
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
    return Poly._reduced(nx, ny, acc, den, bits, top)


# ------------------------------------------------------------ group action


def permute_x(w: Permutation, f: Poly) -> Poly:
    """Act on the x-variables: x_i -> x_{w(i)}; y-variables are fixed."""
    if w.n != f.nx:
        raise ValueError(f"rank mismatch: permutation of {w.n}, polynomial has {f.nx} x-variables")
    bits, slots = f._bits, f.nx + f.ny
    mask = (1 << bits) - 1
    # x_i sits at shift bits * (slots - i); its exponent moves to x_{w(i)}.
    moves = [
        (bits * (slots - i), bits * (slots - v))
        for i, v in enumerate(w.word, start=1)
        if v != i
    ]
    if not moves:
        return f
    keep = ~sum(mask << src for src, _ in moves)
    out = {}
    for key, c in f._num.items():
        moved = key & keep
        for src, dst in moves:
            moved |= ((key >> src) & mask) << dst
        out[moved] = c
    return Poly._trusted(f.nx, f.ny, out, f._den, bits, f._top)


def _adjacent_fields(j: int, f: Poly) -> tuple[int, int]:
    """Shifts of the fields of x_j and x_{j+1} in f's keys."""
    hi = f._bits * (f.nx + f.ny - j)
    return hi, hi - f._bits


def divided_difference(j: int, f: Poly) -> Poly:
    """(f - s_j f) / (x_j - x_{j+1}), by the monomial formula.

    Write a monomial as x_j^p x_{j+1}^q r, with r free of x_j and x_{j+1}.
    For p > q its image is the sum of x_j^(p-1-k) x_{j+1}^(q+k) r over
    k = 0..p-q-1; for p < q it is minus the image of x_j^q x_{j+1}^p r; for
    p = q it is 0.  The y-variables sit in r and are inert.  No exponent
    grows, so the fields keep their width.  A zero f, once the index is
    checked, is its own image.
    """
    if type(j) is not int:
        raise TypeError(f"operator index {j!r} must be an int")
    if not 1 <= j <= f.nx - 1:
        raise ValueError(f"operator index {j} out of range for {f.nx} x-variables")
    if not f._num:
        return f
    hi, lo = _adjacent_fields(j, f)
    mask = (1 << f._bits) - 1
    clear = ~((mask << hi) | (mask << lo))
    step = (1 << lo) - (1 << hi)  # one unit of exponent from x_j to x_{j+1}
    out: dict[int, int] = {}
    get = out.get
    for key, c in f._num.items():
        p, q = (key >> hi) & mask, (key >> lo) & mask
        if p == q:
            continue
        if p < q:
            p, q, c = q, p, -c
        k = (key & clear) + ((p - 1) << hi) + (q << lo)
        for _ in range(p - q):
            out[k] = get(k, 0) + c
            k += step
    return Poly._reduced(f.nx, f.ny, out, f._den, f._bits, f._top)


def divide_exact(f: Poly, a: int, b: int) -> Poly:
    """f / (x_a - x_b) for a != b; ArithmeticError when it leaves a remainder.

    Long division with x_a leading.  The terms are taken in falling degree
    p of x_a: each one c x_a^p r with p > 0 puts c x_a^(p-1) r into the
    quotient and hands c x_a^(p-1) x_b r down to degree p - 1, so what is
    left at degree 0 is the remainder.  A handed-down exponent of x_b can
    reach twice f's bound before it cancels, so the fields are first
    widened to hold that.  An exact quotient keeps f's bound, its
    denominator and, by Gauss's lemma, its content.
    """
    if a == b or not (1 <= a <= f.nx and 1 <= b <= f.nx):
        raise ValueError(f"need two distinct x-indices in 1..{f.nx}, got {a} and {b}")
    if not f._num:
        return f
    bits = max(f._bits, _width_for(2 * f._top))
    slots = f.nx + f.ny
    shift_a, unit_b = bits * (slots - a), 1 << (bits * (slots - b))
    unit_a, mask = 1 << shift_a, (1 << bits) - 1
    by_degree: dict[int, dict[int, int]] = {}
    for key, c in f._at(bits).items():
        by_degree.setdefault((key >> shift_a) & mask, {})[key] = c
    quotient: dict[int, int] = {}
    for p in range(max(by_degree), 0, -1):
        lower = by_degree.setdefault(p - 1, {})
        get = lower.get
        for key, c in by_degree.pop(p, {}).items():
            if c:
                key -= unit_a
                quotient[key] = c
                key += unit_b
                lower[key] = get(key, 0) + c
    if any(by_degree[0].values()):
        raise ArithmeticError(f"x{a} - x{b} does not divide {f}")
    return Poly._trusted(f.nx, f.ny, quotient, f._den, bits, f._top)


# ----------------------------------------------------- two-alphabet moves


def _require_pure_x(f: Poly) -> None:
    if f.ny != 0:
        raise ValueError("expected a polynomial in the x-variables only")


def widen_with_y(f: Poly, ny: int) -> Poly:
    """Embed Q[x] into Q[x, y_1..y_ny]: ny zero fields below each key."""
    _require_pure_x(f)
    shift = f._bits * ny
    out = {k << shift: c for k, c in f._num.items()}
    return Poly._trusted(f.nx, ny, out, f._den, f._bits, f._top)


def x_to_y(f: Poly, nx: int) -> Poly:
    """Send a pure-x polynomial f(x_1..x_k) to f(y_1..y_k) in Q[x_1..x_nx, y].

    The y-block is the least significant one, so every key stays as it is."""
    _require_pure_x(f)
    return Poly._trusted(nx, f.nx, f._num, f._den, f._bits, f._top)


def specialize_y_to_x(f: Poly) -> Poly:
    """Ring map y_i -> x_i; requires equal numbers of x- and y-variables.

    The x-block shifted down plus the y-block adds the fields pairwise, in
    fields first widened to hold twice the exponent bound."""
    if f.ny != f.nx:
        raise ValueError(f"need matching alphabets, got {f.nx} x- and {f.ny} y-variables")
    n, top = f.nx, 2 * f._top
    bits = max(f._bits, _width_for(top))
    shift = bits * n
    low = (1 << shift) - 1
    moved = (((k >> shift) + (k & low), c) for k, c in f._at(bits).items())
    return Poly._reduced(n, 0, _accumulate({}, moved), f._den, bits, top)


def negate_x(f: Poly) -> Poly:
    """Ring map x_i -> -x_i (y-variables fixed)."""
    odd = _low_bits(f.nx, f._bits) << (f._bits * f.ny)
    out = {k: -c if (k & odd).bit_count() & 1 else c for k, c in f._num.items()}
    return Poly._trusted(f.nx, f.ny, out, f._den, f._bits, f._top)


# -------------------------------------------------- randomness, checking


def random_poly(
    rng: random.Random,
    nx: int,
    ny: int = 0,
    max_degree: int = 6,
    n_terms: int = 6,
    coeff_bound: int = 9,
) -> Poly:
    """Random sparse polynomial; deterministic for a seeded rng."""
    width = nx + ny
    terms: dict[Exponent, Fraction] = {}
    for _ in range(n_terms):
        d = rng.randint(0, max_degree)
        exp = [0] * width
        for _ in range(d):
            exp[rng.randrange(width)] += 1
        num = rng.randint(-coeff_bound, coeff_bound)
        if num == 0:
            num = 1
        den = rng.randint(1, 3)
        key = tuple(exp)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(num, den)
    return Poly(nx, ny, terms)


def check_demazure_rank(n: int) -> None:
    """The gate of verify_demazure_relations: n < 2 has no relation to
    check, and the certificate walks symmetric_group(n), whose limit binds."""
    if n < 2:
        raise ValueError("need at least two variables")
    check_rank(n, MAX_ENUMERATED_RANK, "divided-difference relations")


class _SuffixTable(dict):
    """Composites of divided differences along words, for one polynomial f.

    The entry of the empty word is f, and the entry of (a,) + tail is
    divided_difference(a, self[tail]): rightmost letter first, so a word
    (a,) + first(v) of w = s_a v costs one divided difference once the
    first word of v is in the table.  Entries are computed on first lookup.
    When f stacks many polynomials, each tagged by a power of an inert
    y-variable (see verify_demazure_relations), each entry stacks their
    composites along its word, at the cost of one divided difference of
    the stack.
    """

    def __init__(self, f: Poly):
        super().__init__({(): f})

    def __missing__(self, word: tuple[int, ...]) -> Poly:
        out = self[word] = divided_difference(word[0], self[word[1:]])
        return out


def _descent_words(n: int) -> Iterator[tuple[Permutation, list[tuple[int, ...]], bool]]:
    """Per w of rank n, in symmetric_group order: the words (a,) + first(s_a w)
    over the left descents a of w, ascending, and whether w has two or more
    reduced words.

    first(w) is the lexicographically first reduced word of w, which is
    (min descent,) + first(s_min w), so it is built in one pass up the
    group with no word enumerated.  Every reduced word of w is (a,) + t
    with t a reduced word of s_a w, and the words listed here are those
    with t = first(s_a w), first(w) first.  w has two or more reduced words
    when it has two or more descents, or one descent a and s_a w has two or
    more.
    """
    first: dict[tuple[int, ...], tuple[int, ...]] = {}
    several: dict[tuple[int, ...], bool] = {}
    for w in symmetric_group(n):
        # Keyed by one-line words: s_a w swaps the values a and a + 1.
        below = [
            (a, tuple(a + 1 if v == a else a if v == a + 1 else v for v in w.word))
            for a in w.left_descents()
        ]
        words = [(a,) + first[v] for a, v in below]
        first[w.word] = words[0] if words else ()
        several[w.word] = len(below) > 1 or any(several[v] for _, v in below)
        yield w, words, several[w.word]


def _stack(polys: list[Poly], top: int) -> Poly:
    """sum_t y_1^t polys[t] in Q[x_1..x_n, y_1], the pure-x polys of rank n
    over the lcm of their denominators, with exponent bound top."""
    bits = _width_for(top)
    den = lcm(*(f._den for f in polys))
    num = {}
    for t, f in enumerate(polys):
        scale = den // f._den
        for k, c in f._at(bits).items():
            num[(k << bits) | t] = c * scale
    return Poly._reduced(polys[0].nx, 1, num, den, bits, top)


def _slices(f: Poly, trials: int, plain_top: int) -> tuple[list[Poly], list[Poly]]:
    """Per trial t of a stack f = sum_t y_1^t f_t: y_1^t f_t, and f_t with
    exponent bound plain_top, both in f's ring."""
    mask = (1 << f._bits) - 1
    tagged: list[dict[int, int]] = [{} for _ in range(trials)]
    plain: list[dict[int, int]] = [{} for _ in range(trials)]
    for k, c in f._num.items():
        t = k & mask
        tagged[t][k] = c
        plain[t][k - t] = c
    nx, ny, den, bits = f.nx, f.ny, f._den, f._bits
    return (
        [Poly._reduced(nx, ny, p, den, bits, f._top) for p in tagged],
        [Poly._reduced(nx, ny, p, den, bits, plain_top) for p in plain],
    )


def _tags(f: Poly) -> set[int]:
    """The y_1-exponents of f's terms: the trials at which the stack f is
    nonzero."""
    mask = (1 << f._bits) - 1
    return {k & mask for k in f._num}


def _failing(a: Poly, b: Poly) -> set[int]:
    """The trials at which the stacks a and b differ."""
    return set() if a == b else _tags(a - b)


def _by_trial(checks: list[tuple[dict, set[int]]]) -> list[dict]:
    """The violations of checks, (record, failing trials) pairs, ordered by
    trial and then by check, each record with its trial appended."""
    bad = sorted((t, i) for i, (_, tags) in enumerate(checks) for t in tags)
    return [{**checks[i][0], "trial": t} for t, i in bad]


def verify_demazure_relations(n: int, trials: int, seed: int) -> dict:
    """Certificate that the divided differences satisfy their algebra.

    Checks, on `trials` seeded random polynomials in n variables:
    square vanishing, the braid and commuting relations, the twisted
    Leibniz rule, and, for every w in the rank-n group, that the composite
    of divided differences along a reduced word of w is the same for every
    reduced word.

    Reduced-word independence is proved by induction on length.  For each
    w, in length order, and each left descent a other than the least, the
    composite along (a,) + first(s_a w) is compared with the one along
    first(w), the lexicographically first reduced word of w.  If every
    shorter permutation passed, every reduced word (a,) + t of w has the
    composite d_a applied to that of s_a w, so a clean pass proves the
    claim for every reduced word.  A violation names w, the trial and the
    word (a,) + first(s_a w) that disagrees with first(w): two reduced
    words of w that give different composites.  Against comparing every
    reduced word with the first, the violations are a subsequence of that
    check's, empty exactly when it is, and in each trial they name every
    shortest w that it names; above those, where a shorter permutation
    already failed, they may name fewer words.  The count of
    reduced_word_independence is the number of w with two or more reduced
    words, times trials.

    The trials are checked at once, as one stack F = sum_t y_1^t f_t in
    Q[x_1..x_n, y_1]: y_1 is inert under the x-action and the operators,
    so every composite of F is the stack of the trials' composites, and
    the trials at which a relation fails are the y_1-exponents left in the
    difference of its two sides.  Violations come in the order of a pass
    trial by trial: the square-zero, braid and commuting checks by trial,
    then the Leibniz checks by trial, then, per w, its words by trial;
    within one trial, in the order of the checks.  Failing trials are
    sorted, never read in the order of a set.  Every composite is read
    from one suffix table of F, so each distinct word is applied once:
    d_j d_j F, both sides of the braid and commuting relations, d_j F in
    the Leibniz rule, and n!(n-1)/2 reduced-word composites, one per
    (w, left descent).  The Leibniz rule d_j(f g) = d_j f g + s_j f d_j g,
    with g_t = f_{t+1 mod trials}, applies d_j once to the stack of the
    f_t g_t and compares it with one sum of products, each pairing the
    tagged y_1^t f_t, y_1^t d_j f_t or s_j of y_1^t f_t with the untagged
    g_t or d_j g_t: a tagged factor must meet an untagged one, since tags
    add under multiplication.  The table is keyed by words, never by
    permutations: a permutation key would give every reduced word of w one
    value, which is the claim under test.  No reduced word is listed, so
    the certificate makes n!(n-1)/2 + 2(n-1) divided differences whatever
    `trials` is, and the rank is bounded by the group the certificate
    walks: check_demazure_rank refuses n < 2 and n > MAX_ENUMERATED_RANK
    with ValueError before any work, as check_count refuses trials below 1
    (ValueError) or not an int (TypeError) and check_seed a seed that is
    not an int (TypeError).
    """
    check_demazure_rank(n)
    check_count(trials, "trials")
    check_seed(seed)
    rng = random.Random(seed)
    polys = [random_poly(rng, n) for _ in range(trials)]
    # Divided differences and s_j raise no exponent, so plain_top bounds
    # the x-exponents of every entry and top the whole stack's.
    plain_top = max(f._top for f in polys)
    top = max(plain_top, trials - 1)
    table = _SuffixTable(_stack(polys, top))
    counts = {
        "square_zero": trials * (n - 1),
        "braid": trials * (n - 2),
        "commuting": trials * (n - 2) * (n - 3) // 2,
        "leibniz": trials * (n - 1),
        "reduced_word_independence": 0,
    }

    checks = [({"relation": "square_zero", "j": j}, _tags(table[(j, j)])) for j in range(1, n)]
    checks += [
        ({"relation": "braid", "j": j}, _failing(table[(j, j + 1, j)], table[(j + 1, j, j + 1)]))
        for j in range(1, n - 1)
    ]
    checks += [
        ({"relation": "commuting", "pair": [i, j]}, _failing(table[(i, j)], table[(j, i)]))
        for i in range(1, n)
        for j in range(i + 2, n)
    ]
    violations = _by_trial(checks)

    following = [(t + 1) % trials for t in range(trials)]
    f_tagged, f_plain = _slices(table[()], trials, plain_top)
    fg = sum_of_products(zip(f_tagged, (f_plain[u] for u in following)), n, 1)
    checks = []
    for j in range(1, n):
        d_tagged, d_plain = _slices(table[(j,)], trials, plain_top)
        s_j = Permutation.simple(j, n)
        pairs = []
        for t, u in enumerate(following):
            pairs += ((d_tagged[t], f_plain[u]), (permute_x(s_j, f_tagged[t]), d_plain[u]))
        rhs = sum_of_products(pairs, n, 1)
        checks.append(({"relation": "leibniz", "j": j}, _failing(divided_difference(j, fg), rhs)))
    violations += _by_trial(checks)

    for w, words, several in _descent_words(n):
        if not several:
            continue
        counts["reduced_word_independence"] += trials
        base = table[words[0]]
        checks = []
        for letters in words[1:]:
            if table[letters] != base:
                record = {"relation": "reduced_word_independence", "w": w.to_json()}
                checks.append(({**record, "word": list(letters)}, _tags(table[letters] - base)))
        if checks:
            violations += _by_trial(checks)
    return {
        "check": "demazure_relations",
        "n": n,
        "trials": trials,
        "seed": seed,
        "relations": counts,
        "violations": violations,
    }
