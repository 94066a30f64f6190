"""Exact scalars: arbitrary-precision rationals and cyclotomic extensions Q(zeta_n).

Every structure document declares a single field up front, either Q or
Q(zeta_n) (``Cyclotomic``).  A cyclotomic value is a polynomial in zeta_n of
degree below phi(n), reduced modulo the n-th
cyclotomic polynomial Phi_n, which is irreducible over Q, so every nonzero
element is invertible.  It is stored as phi(n) ``int`` numerators over one
positive ``int`` denominator, gcd-normalised (zero is (0, ..., 0)/1), so each
value has exactly one representation and every equality test downstream is a
comparison of integer tuples.

A rational value has one canonical form over both fields: an ``int`` when it
is integral, else a ``fractions.Fraction`` in lowest terms (``rational``,
``canonical``).  ``FieldSpec`` returns it from ``one``, ``zero``, ``parse``
and ``invert``, and the element constructors store it, so over Q(zeta_n) an
element's ``Cyclotomic`` coefficients all have a nonzero zeta part.  Equal
ints, Fractions and Cyclotomics compare and hash alike, and
``FieldSpec.format`` prints a rational over Q(zeta_n) in the list form, so
the form never shows in output; it only keeps the common rational products,
the +-1 of a group-like table above all, on ``int`` arithmetic.  A
``Cyclotomic`` times, plus or minus a rational scales or shifts its
numerators directly (times +-1 it comes back as itself or its negation,
without arithmetic), and arithmetic between two ``Cyclotomic`` values
returns a ``Cyclotomic`` even when the result is rational.

Reduction modulo Phi_n is one integer fold, ``_fold``, which adds the
numerator of each zeta^k, phi(n) <= k < max(n, 2 phi(n) - 1), times its
reduced integer row (``_fold_rows``) into the low degrees.  The constructor
clears denominators with one lcm and calls ``reduce_mod_cyclotomic``, which
applies zeta^n = 1 and folds; multiply convolves the numerators and folds.
Add, subtract and negate stay below degree phi(n) and only renormalise the
gcd.  Inversion is an extended Euclid by pseudo-remainders on the
numerators, so no arithmetic operation forms a ``Fraction``.

Input bounds: a field's order is at most ``MAX_CYCLOTOMIC_ORDER``; a
rational in scalar text is written in ASCII digits, and its numerator and
its denominator have at most ``MAX_RATIONAL_DIGITS`` digits each.  Both
raise ``ScalarError``, which the CLI reports as an input error.  Add,
subtract and multiply cost O(phi(n)^2) integer operations.  Inversion costs
far more, as its integers grow with phi(n): a value with phi(n) one-digit
coefficients inverted in 0.1 ms at phi(n) = 8, 0.02 s at 100, 0.3 s at 210
and 5-9 s at 400 (2-core Xeon, Python 3.11).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm, prod
from typing import Union


class ScalarError(ValueError):
    """Malformed scalar text, zero division, or field mismatch."""


MAX_CYCLOTOMIC_ORDER = 1000
MAX_RATIONAL_DIGITS = 1000

_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?\Z", re.ASCII)  # \d: ASCII digits only


def _poly_trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _prime_divisors(n: int) -> list:
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def _times_xd_minus_one(poly, d):
    out = [-c for c in poly] + [0] * d
    for i, c in enumerate(poly):
        out[i + d] += c
    return out


def _div_xd_minus_one(poly, d):
    """Exact quotient by the monic x^d - 1: from p = q x^d - q, q_i = q_{i-d} - p_i."""
    size = len(poly) - d
    out = []
    for i in range(size):
        out.append((out[i - d] if i >= d else 0) - poly[i])
    if any(poly[i] != out[i - d] for i in range(size, len(poly))):
        raise ScalarError("polynomial division left a remainder")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Integer coefficients of Phi_n, little-endian, from the Moebius product
    Phi_n = prod_{d | n} (x^d - 1)^mu(n/d): multiply the mu = +1 factors, then
    divide exactly by the mu = -1 ones."""
    if n < 1:
        raise ScalarError("cyclotomic order must be >= 1")
    primes = _prime_divisors(n)
    poly = [1]
    divide_by = []
    for k in range(len(primes) + 1):
        for chosen in combinations(primes, k):
            d = n // prod(chosen)
            if k % 2:
                divide_by.append(d)
            else:
                poly = _times_xd_minus_one(poly, d)
    for d in divide_by:
        poly = _div_xd_minus_one(poly, d)
    return tuple(poly)


def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


@lru_cache(maxsize=None)
def _fold_rows(n: int) -> tuple:
    """zeta_n^k for phi(n) <= k < max(n, 2 phi(n) - 1), reduced mod Phi_n, as
    sparse integer rows ((i, c), ...) over the degrees i < phi(n): every
    degree a product, or a polynomial reduced by zeta^n = 1, reaches."""
    modulus = cyclotomic_polynomial(n)
    phi = len(modulus) - 1
    base = [-c for c in modulus[:phi]]  # zeta^phi, since Phi_n is monic
    row = base
    rows = []
    for _ in range(max(n, 2 * phi - 1) - phi):
        rows.append(tuple((i, c) for i, c in enumerate(row) if c))
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [r + top * b for r, b in zip(row, base)]
    return tuple(rows)


def _fold(num: list, n: int) -> None:
    """Fold the integer numerators of degree phi(n) and up, in place, into
    the degrees below phi(n) with ``_fold_rows(n)``, and drop them."""
    rows = _fold_rows(n)
    phi = euler_phi(n)
    for k in range(phi, len(num)):
        c = num[k]
        if c:
            for i, r in rows[k - phi]:
                num[i] += c * r
    del num[phi:]


def reduce_mod_cyclotomic(num, n: int) -> list:
    """Integer numerators of a polynomial in zeta_n, of any length, reduced
    modulo Phi_n: zeta^n = 1 takes them below degree n, then ``_fold`` below
    phi(n).  Returns exactly phi(n) numerators."""
    phi = euler_phi(n)  # an order below 1 raises here
    work = list(num[:n])
    for k in range(n, len(num)):
        work[k % n] += num[k]
    work += [0] * (phi - len(work))
    _fold(work, n)
    return work


def _from_parts(order: int, num: tuple, den: int) -> "Cyclotomic":
    """Wrap numerators and a denominator that are already canonical."""
    value = object.__new__(Cyclotomic)
    value.order = order
    value.num = num
    value.den = den
    return value


def _normalised(order: int, num: list, den: int) -> "Cyclotomic":
    if den == 1:
        return _from_parts(order, tuple(num), 1)
    g = gcd(den, *num)  # den > 0, so g >= 1; all-zero numerators give g = den
    if g != 1:
        num = [c // g for c in num]
        den //= g
    return _from_parts(order, tuple(num), den)


class Cyclotomic:
    """An element of Q(zeta_n): phi(n) int numerators over one positive int
    denominator, reduced modulo Phi_n and gcd-normalised."""

    __slots__ = ("order", "num", "den")

    def __new__(cls, order: int, coeffs=()):
        """sum_k coeffs[k] zeta^k, for any number of ints and Fractions."""
        den = lcm(*(c.denominator for c in coeffs))
        num = [c.numerator * (den // c.denominator) for c in coeffs]
        return _normalised(order, reduce_mod_cyclotomic(num, order), den)

    @property
    def coeffs(self) -> tuple:
        """The phi(n) power-basis coefficients as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def _coerce(self, other):
        """other when it is a Cyclotomic of this order, None when it is no
        Cyclotomic; another order raises."""
        if isinstance(other, Cyclotomic):
            if other.order != self.order:
                raise ScalarError(
                    f"mixed cyclotomic orders {self.order} and {other.order}"
                )
            return other
        return None

    def _combine(self, other, sign: int):
        """self + sign * other over the least common denominator."""
        da, db = self.den, other.den
        if da == db:
            num = [a + sign * b for a, b in zip(self.num, other.num)]
            return _normalised(self.order, num, da)
        g = gcd(da, db)
        fa, fb = db // g, sign * (da // g)
        num = [a * fa + b * fb for a, b in zip(self.num, other.num)]
        return _normalised(self.order, num, da * (db // g))

    def _shifted(self, value):
        """self + value for a rational value: only the zeta^0 numerator moves.
        An int keeps the gcd of the denominator and the numerators at 1."""
        p, q = value.numerator, value.denominator
        num, den = self.num, self.den
        if q == 1:
            return _from_parts(self.order, (num[0] + p * den,) + num[1:], den)
        shifted = [num[0] * q + p * den] + [c * q for c in num[1:]]
        return _normalised(self.order, shifted, den * q)

    def _scaled(self, value):
        """self * value for a rational value p/q in one pass over the
        numerators; only a q above 1 costs a gcd over them, and times 1 or -1,
        the most common factor, it is self or its negation, with no
        arithmetic.  The result is gcd-normalised: p/g is prime to den/g and
        to q, and gcd(q, num) divides q but no prime of den, since
        gcd(den, num) = 1."""
        p, q = value.numerator, value.denominator
        if q == 1 and (p == 1 or p == -1):
            return self if p == 1 else -self
        g = gcd(p, self.den)  # p = 0 gives g = den: the zero (0, ..., 0)/1
        num, den = self.num, self.den // g * q
        if q != 1:
            h = gcd(q, *num)
            if h != 1:
                num = [c // h for c in num]
                den //= h
        p //= g
        return _from_parts(self.order, tuple(c * p for c in num), den)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._shifted(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._shifted(-other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return (-self)._shifted(other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        phi = len(self.num)
        out = [0] * (2 * phi - 1)
        right = [(j, b) for j, b in enumerate(other.num) if b]
        if not right:
            return other
        top = 0  # the highest degree of a nonzero numerator of self
        for i, a in enumerate(self.num):
            if a:
                top = i
                for j, b in right:
                    out[i + j] += a * b
        if top + right[-1][0] >= phi:  # the convolution reaches degree phi
            _fold(out, self.order)
        else:
            del out[phi:]
        return _normalised(self.order, out, self.den * other.den)

    __rmul__ = __mul__

    def __neg__(self):
        return _from_parts(self.order, tuple(-c for c in self.num), self.den)

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            # canonical: with no zeta terms, num[0]/den is already in lowest terms
            return (
                self.num[0] == other.numerator
                and self.den == other.denominator
                and not any(self.num[1:])
            )
        if isinstance(other, Cyclotomic):
            return (
                self.order == other.order
                and self.num == other.num
                and self.den == other.den
            )
        return NotImplemented

    def __hash__(self):
        if any(self.num[1:]):
            return hash((self.order, self.num, self.den))
        return hash(Fraction(self.num[0], self.den))  # as the rational it equals

    def inverse(self) -> "Cyclotomic":
        """Extended Euclid against Phi_n by pseudo-remainders on the integer
        numerators (Knuth, TAOCP vol. 2, 4.6.1); Phi_n is irreducible, so
        any nonzero value inverts.  Each step scales r0 and s0 by lead(r1)^k,
        k = deg r0 - deg r1 + 1, so the division by r1 stays in the integers,
        and divides the new pair (rem, s) by the gcd of all their
        coefficients.  At a constant r1 = c, s1 num = c (mod Phi_n), so the
        inverse of num / den is den s1 / c."""
        if not self:
            raise ScalarError("zero has no inverse")
        # invariants: r0 = s0 * num (mod Phi_n), r1 = s1 * num (mod Phi_n)
        r0, r1 = list(cyclotomic_polynomial(self.order)), _poly_trim(list(self.num))
        s0, s1 = [0], [1]
        while len(r1) > 1:
            lead, steps = r1[-1], len(r0) - len(r1) + 1
            scale = lead**steps
            rem = [c * scale for c in r0]
            s = [c * scale for c in s0] + [0] * (steps + len(s1) - 1 - len(s0))
            for i in range(steps - 1, -1, -1):
                f = rem[i + len(r1) - 1] // lead  # exact, as r0 was scaled
                for j, c in enumerate(r1):
                    rem[i + j] -= f * c
                for j, c in enumerate(s1):
                    s[i + j] -= f * c
            rem = _poly_trim(rem[: len(r1) - 1])
            if not rem:
                raise ScalarError("element shares a factor with the modulus")
            g = gcd(*rem, *s)
            r0, r1, s0, s1 = r1, [c // g for c in rem], s1, _poly_trim([c // g for c in s])
        sign = 1 if r1[0] > 0 else -1
        num = [sign * self.den * a for a in s1]
        return _normalised(self.order, num + [0] * (len(self.num) - len(num)), sign * r1[0])

    def __repr__(self):
        return f"Cyclotomic({self.order}, {list(self.coeffs)})"


Scalar = Union[int, Fraction, Cyclotomic]


def echo(text: str) -> str:
    """``text`` as an error message echoes it: whole up to 60 characters,
    else its first 60 and "...", so a one-line message stays short whatever
    the input."""
    return text if len(text) <= 60 else text[:60] + "..."


def rational(value):
    """The canonical form of a rational: its numerator when the denominator
    is 1, else the value itself."""
    return value.numerator if value.denominator == 1 else value


def canonical(value):
    """The form an element stores a scalar in: a Fraction, or a Cyclotomic
    whose zeta part is zero, as its ``rational`` form; any other value as it
    is.  A Cyclotomic is gcd-normalised, so num[0] / den is in lowest terms."""
    if type(value) is Fraction:
        return rational(value)
    if type(value) is Cyclotomic and not any(value.num[1:]):
        num, den = value.num[0], value.den
        return num if den == 1 else Fraction(num, den)
    return value


def parse_rational(text: str) -> Union[int, Fraction]:
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ScalarError(f"invalid rational {echo(repr(text))}")
    num, _, den = text.partition("/")
    if max(len(num.lstrip("-")), len(den)) > MAX_RATIONAL_DIGITS:
        raise ScalarError(
            f"rational with more than {MAX_RATIONAL_DIGITS} digits"
            " in its numerator or denominator"
        )
    if den:
        if int(den) == 0:
            raise ScalarError(f"invalid scalar {echo(repr(text))}: zero denominator")
        return rational(Fraction(int(num), int(den)))
    return int(num)


class FieldSpec:
    """The single scalar field of a structure document: Q or Q(zeta_n)."""

    def __init__(self, kind: str, order: int | None = None):
        if kind == "rational":
            if order is not None:
                raise ScalarError("rational field takes no order")
        elif kind == "cyclotomic":
            if isinstance(order, bool) or not isinstance(order, int) or order < 1:
                raise ScalarError("cyclotomic field needs a positive integer order")
            if order > MAX_CYCLOTOMIC_ORDER:
                raise ScalarError(
                    f"cyclotomic order {echo(str(order))}"
                    f" exceeds the maximum {MAX_CYCLOTOMIC_ORDER}"
                )
            cyclotomic_polynomial(order)
        else:
            raise ScalarError(f"unknown field kind {echo(repr(kind))}")
        self.kind = kind
        self.order = order

    @staticmethod
    def rational() -> "FieldSpec":
        return FieldSpec("rational")

    @staticmethod
    def cyclotomic(order: int) -> "FieldSpec":
        return FieldSpec("cyclotomic", order)

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.kind == other.kind
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.kind, self.order))

    def __repr__(self):
        if self.kind == "rational":
            return "FieldSpec.rational()"
        return f"FieldSpec.cyclotomic({self.order})"

    def zero(self) -> Scalar:
        return 0

    def one(self) -> Scalar:
        return 1

    def invert(self, value: Scalar) -> Scalar:
        if isinstance(value, Cyclotomic):
            return canonical(value.inverse())
        if value == 0:
            raise ScalarError("zero has no inverse")
        return rational(Fraction(value.denominator, value.numerator))

    def parse(self, text: str) -> Scalar:
        """Parse the canonical text encoding; cyclotomic documents also accept
        a bare rational as a degree-0 element.  A rational value comes back in
        its canonical rational form over either field."""
        if not isinstance(text, str):
            raise ScalarError(f"scalar must be a string, got {echo(repr(text))}")
        text = text.strip()
        if self.kind == "rational" or not text.startswith("["):
            return parse_rational(text)
        if not text.endswith("]"):
            raise ScalarError(f"unterminated coefficient list {echo(repr(text))}")
        body = text[1:-1].strip()
        parts = [p for p in body.split(",")] if body else []
        coeffs = [parse_rational(p) for p in parts]
        if len(coeffs) > euler_phi(self.order):
            raise ScalarError(
                f"coefficient list {echo(repr(text))} longer than phi({self.order})"
            )
        return canonical(Cyclotomic(self.order, coeffs))

    def format(self, value: Scalar) -> str:
        """Canonical text encoding; bit-exact round trip with parse."""
        if self.kind == "rational":
            return str(value)
        if not isinstance(value, Cyclotomic):  # a rational, in its canonical form
            return f"[{value}" + ", 0" * (euler_phi(self.order) - 1) + "]"
        return "[" + ", ".join(str(c) for c in value.coeffs) + "]"

    def to_json(self) -> dict:
        if self.kind == "rational":
            return {"kind": "rational"}
        return {"kind": "cyclotomic", "order": self.order}

    @staticmethod
    def from_json(data) -> "FieldSpec":
        if not isinstance(data, dict) or "kind" not in data:
            raise ScalarError(f"invalid field spec {echo(repr(data))}")
        kind = data["kind"]
        extra = set(data) - {"kind", "order"}
        if extra:
            raise ScalarError(f"unknown field spec keys {echo(str(sorted(extra)))}")
        return FieldSpec(kind, data.get("order"))
