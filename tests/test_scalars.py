from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qhsa.scalars
from qhsa.scalars import (
    MAX_CYCLOTOMIC_ORDER,
    MAX_RATIONAL_DIGITS,
    Cyclotomic,
    FieldSpec,
    ScalarError,
    canonical,
    cyclotomic_polynomial,
    euler_phi,
    parse_rational,
)

F = Fraction


def poly(*coeffs):
    return tuple(F(c) for c in coeffs)


def test_cyclotomic_polynomials_match_known_tables():
    # classical values, little-endian
    assert cyclotomic_polynomial(1) == poly(-1, 1)
    assert cyclotomic_polynomial(2) == poly(1, 1)
    assert cyclotomic_polynomial(3) == poly(1, 1, 1)
    assert cyclotomic_polynomial(4) == poly(1, 0, 1)
    assert cyclotomic_polynomial(5) == poly(1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == poly(1, -1, 1)
    assert cyclotomic_polynomial(8) == poly(1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(9) == poly(1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(12) == poly(1, 0, -1, 0, 1)
    assert euler_phi(12) == 4


def test_rational_arithmetic_examples():
    assert F(1, 2) + F(1, 3) == F(5, 6)
    assert F(0) * F(17, 3) == 0


def test_zeta4_squares_to_minus_one():
    z = Cyclotomic(4, [0, 1])
    assert z * z == Cyclotomic(4, [-1])
    assert z * z == -1


def test_cyclotomic_reduce():
    # zeta_3^3 = 1 under Phi_3 = x^2 + x + 1
    assert Cyclotomic(3, [0, 0, 0, 1]) == 1
    # zeta_4^2 = -1 under Phi_4 = x^2 + 1
    assert Cyclotomic(4, [0, 0, 1]) == -1
    # constants are fixed points for any order
    assert Cyclotomic(5, [7]) == 7
    # zeta^0 + ... + zeta^(2n): each full cycle of n-th roots sums to 0
    for n in DIFFERENTIAL_ORDERS:
        assert Cyclotomic(n, [1] * (2 * n + 1)) == (3 if n == 1 else 1)


def test_inversion_examples():
    field = FieldSpec.rational()
    assert field.invert(F(2, 3)) == F(3, 2)
    with pytest.raises(ScalarError):
        field.invert(F(0))

    c4 = FieldSpec.cyclotomic(4)
    one_plus_i = Cyclotomic(4, [1, 1])
    inv = c4.invert(one_plus_i)
    assert inv == Cyclotomic(4, [F(1, 2), F(-1, 2)])
    assert one_plus_i * inv == 1
    with pytest.raises(ScalarError):
        c4.invert(Cyclotomic(4, []))


def test_rationals_are_ints_when_integral():
    # canonical form over Q: an int when integral, else a Fraction in lowest terms
    field = FieldSpec.rational()
    assert field.invert(3) == F(1, 3) and type(field.invert(3)) is F
    assert field.invert(-1) == -1 and type(field.invert(-1)) is int
    assert field.parse("4/2") == 2
    assert all(type(field.parse(text)) is int for text in ("0", "-7", "4/2"))
    assert type(field.from_fraction(F(6, 3))) is int
    assert type(field.from_int(True)) is int
    for text in ("0", "-7", "6/4", "-1/3"):
        assert field.format(field.parse(text)) == field.format(F(text))


def test_cyclotomic_fields_return_the_rational_form():
    c8 = FieldSpec.cyclotomic(8)
    assert (c8.zero(), c8.one(), c8.from_int(True), c8.from_fraction(F(6, 4))) == (0, 1, 1, F(3, 2))
    assert [type(v) for v in (c8.zero(), c8.one(), c8.from_int(True))] == [int] * 3
    assert type(c8.invert(-1)) is int and c8.invert(F(2, 3)) == F(3, 2)
    assert type(c8.invert(Cyclotomic(8, [0, 0, 0, 0, 2]))) is F  # zeta^4 = -1
    assert type(c8.invert(Cyclotomic(8, [0, 1]))) is Cyclotomic


def test_a_rational_cyclotomic_hashes_as_its_rational():
    assert {Cyclotomic(5, [7]), 7} == {7}
    assert len({Cyclotomic(8, [F(1, 2)]), F(1, 2), Cyclotomic(4, [0, 0, F(1, 2)]), F(-1, 2)}) == 2
    assert hash(Cyclotomic(1, [3])) == hash(3) and hash(Cyclotomic(4, [0, 1])) != hash(0)


def test_mixed_orders_rejected():
    with pytest.raises(ScalarError):
        Cyclotomic(4, [0, 1]) + Cyclotomic(3, [0, 1])


def test_text_encoding_round_trip():
    field = FieldSpec.rational()
    for text in ("0", "1", "-1", "5/6", "-22/7"):
        value = field.parse(text)
        assert field.format(value) == text

    c4 = FieldSpec.cyclotomic(4)
    for text in ("[0, 1]", "[1/2, -1/2]", "[-3, 0]"):
        value = c4.parse(text)
        assert c4.format(value) == text
    # bare rationals are accepted into a cyclotomic document as constants
    assert c4.parse("7") == 7
    assert c4.format(c4.parse("7")) == "[7, 0]"


def test_parse_errors():
    field = FieldSpec.rational()
    # digits are ASCII only: int() would read these as 3 and 3/4
    for bad in ("1/0", "1.5", "x", "", "1/-2", "1 / 2", "\u0663", "\uff13/\uff14", "1/\u0663"):
        with pytest.raises(ScalarError):
            field.parse(bad)
    c4 = FieldSpec.cyclotomic(4)
    with pytest.raises(ScalarError):
        c4.parse("[\u0663, 1]")
    with pytest.raises(ScalarError):
        c4.parse("[1, 2, 3]")  # longer than phi(4) = 2
    with pytest.raises(ScalarError):
        c4.parse("[1, 1/0]")
    with pytest.raises(ScalarError):
        parse_rational("2/0")


def test_field_spec_validation():
    with pytest.raises(ScalarError):
        FieldSpec("cyclotomic")
    with pytest.raises(ScalarError):
        FieldSpec("rational", order=3)
    with pytest.raises(ScalarError):
        FieldSpec("real")
    assert FieldSpec.from_json({"kind": "cyclotomic", "order": 4}) == FieldSpec.cyclotomic(4)
    with pytest.raises(ScalarError):
        FieldSpec.from_json({"kind": "rational", "extra": 1})


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def cyclo4(draw_coeffs):
    return Cyclotomic(4, list(draw_coeffs))


cyclotomics = st.lists(rationals, min_size=0, max_size=2).map(cyclo4)


@settings(max_examples=60, deadline=None)
@given(cyclotomics, cyclotomics, cyclotomics)
def test_cyclotomic_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if a:
        assert a * a.inverse() == 1


@settings(max_examples=60, deadline=None)
@given(cyclotomics, cyclotomics)
def test_cyclotomic_canonical_form_unique(a, b):
    # equal values have bit-identical canonical representations
    if a == b:
        assert a.coeffs == b.coeffs
        assert FieldSpec.cyclotomic(4).format(a) == FieldSpec.cyclotomic(4).format(b)
    assert len(a.coeffs) == euler_phi(4)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=30))
def test_zeta_powers_cycle(order, k):
    z = Cyclotomic(order, [0, 1])
    acc = Cyclotomic(order, [1])
    for _ in range(k):
        acc = acc * z
    assert acc == Cyclotomic(order, [0] * (k % order) + [1]) == Cyclotomic(order, [0] * k + [1])


# -- differential test against plain Fraction reduction ----------------------------


def oracle_reduce(coeffs, n):
    """Long division by Phi_n in Fraction arithmetic, one coefficient at a time."""
    modulus = oracle_phi(n)
    deg = len(modulus) - 1
    work = [F(c) for c in coeffs] + [F(0)] * deg
    for i in range(len(work) - 1, deg - 1, -1):
        q = work[i] / modulus[-1]
        for j, c in enumerate(modulus):
            work[i - deg + j] -= q * c
    return tuple(work[:deg])


@lru_cache(maxsize=None)
def oracle_phi(n):
    """Phi_n as (x^n - 1) / prod_{d | n, d < n} Phi_d, by Fraction long division."""
    poly = [F(-1)] + [F(0)] * (n - 1) + [F(1)]
    for d in range(1, n):
        if n % d == 0:
            divisor = oracle_phi(d)
            quotient = [F(0)] * (len(poly) - len(divisor) + 1)
            for i in range(len(quotient) - 1, -1, -1):
                q = poly[i + len(divisor) - 1] / divisor[-1]
                quotient[i] = q
                for j, c in enumerate(divisor):
                    poly[i + j] -= q * c
            assert not any(poly[: len(divisor) - 1])
            poly = quotient
    return tuple(poly)


def oracle_mul(a, b, n):
    out = [F(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return oracle_reduce(out, n)


def assert_canonical(x):
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert len(x.num) == euler_phi(x.order)
    assert x.den > 0
    assert gcd(x.den, *x.num) == 1
    if not any(x.num):
        assert x.den == 1


# phi = 1 (empty fold table), primes, prime powers, 12, 20, and 105, whose
# Phi_105 is the first cyclotomic polynomial with a coefficient -2
DIFFERENTIAL_ORDERS = (1, 2, 3, 5, 7, 4, 8, 9, 16, 25, 12, 20, 105)

coefficients = st.one_of(st.just(F(0)), st.integers(-3, 3).map(F), rationals)


def coefficient_lists(n):
    """Up to 2 phi(n) coefficients, the degrees a product reaches, or n + 1
    to 2n + 1 of them, which zeta^n = 1 wraps before the fold."""
    return st.one_of(
        st.lists(coefficients, max_size=2 * euler_phi(n)),
        st.lists(coefficients, min_size=n + 1, max_size=2 * n + 1),
    )


@st.composite
def operand_pairs(draw):
    n = draw(st.sampled_from(DIFFERENTIAL_ORDERS))
    raw = coefficient_lists(n)
    return n, draw(raw), draw(raw)


def test_cyclotomic_polynomial_matches_fraction_division():
    for n in list(range(1, 61)) + [105]:
        assert cyclotomic_polynomial(n) == oracle_phi(n)
        assert all(type(c) is int for c in cyclotomic_polynomial(n))
    assert -2 in cyclotomic_polynomial(105)


@settings(max_examples=150, deadline=None)
@given(operand_pairs())
def test_integer_arithmetic_agrees_with_fraction_oracle(case):
    n, raw_a, raw_b = case
    field = FieldSpec.cyclotomic(n)
    a, b = Cyclotomic(n, raw_a), Cyclotomic(n, raw_b)
    ra, rb = oracle_reduce(raw_a, n), oracle_reduce(raw_b, n)
    expected = [
        (a, ra),
        (b, rb),
        (a + b, oracle_reduce([x + y for x, y in zip(ra, rb)], n)),
        (a - b, oracle_reduce([x - y for x, y in zip(ra, rb)], n)),
        (-a, tuple(-x for x in ra)),
        (a * b, oracle_mul(ra, rb, n)),
    ]
    for value, oracle in expected:
        assert_canonical(value)
        assert value.coeffs == oracle
        assert field.format(value) == "[" + ", ".join(str(c) for c in oracle) + "]"
        assert field.parse(field.format(value)) == value
    if a:
        inverse = a.inverse()
        assert_canonical(inverse)
        assert oracle_mul(inverse.coeffs, ra, n) == oracle_reduce([1], n)
    else:
        assert (a.num, a.den) == ((0,) * euler_phi(n), 1)


rational_operands = st.one_of(
    st.sampled_from([0, 1, -1, F(1), F(-1)]), st.integers(-6, 6), rationals
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(DIFFERENTIAL_ORDERS), coefficients, rational_operands, st.data())
def test_arithmetic_with_a_rational_agrees_with_the_oracle(n, head, r, data):
    """Times, plus or minus an int or a Fraction, on either side, matches the
    oracle on the constant r and stays a canonical Cyclotomic, whatever the
    result; equal values hash alike."""
    raw = data.draw(coefficient_lists(n))
    a = Cyclotomic(n, [head] + raw)
    ra, rr = oracle_reduce([head] + raw, n), oracle_reduce([r], n)
    plus = oracle_reduce([x + y for x, y in zip(ra, rr)], n)
    minus = oracle_reduce([x - y for x, y in zip(ra, rr)], n)
    expected = [
        (a * r, oracle_mul(ra, rr, n)),
        (r * a, oracle_mul(ra, rr, n)),
        (a + r, plus),
        (r + a, plus),
        (a - r, minus),
        (r - a, tuple(-x for x in minus)),
    ]
    for value, oracle in expected:
        assert type(value) is Cyclotomic
        assert_canonical(value)
        assert value.coeffs == oracle
        if not any(oracle[1:]):
            assert value == canonical(value) and hash(value) == hash(oracle[0])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DIFFERENTIAL_ORDERS), rational_operands)
def test_a_parsed_rational_comes_back_in_the_rational_form(n, r):
    field = FieldSpec.cyclotomic(n)
    r = canonical(F(r))
    text = "[" + ", ".join([str(r)] + ["0"] * (euler_phi(n) - 1)) + "]"
    for source in (str(r), text, f"[{r}]"):
        value = field.parse(source)
        assert value == r and type(value) is type(r)
        assert field.format(value) == text


def test_arithmetic_between_cyclotomics_never_reduces(monkeypatch):
    values = [
        Cyclotomic(n, [F(k, 3), 0, -2, F(1, 2), 5, 0, 1, 7, -1][: 2 * euler_phi(n)])
        for n in (1, 2, 8, 20)
        for k in (0, 1, -4)
    ]
    calls = []
    original = qhsa.scalars.reduce_mod_cyclotomic

    def counting(coeffs, n):
        calls.append(n)
        return original(coeffs, n)

    monkeypatch.setattr(qhsa.scalars, "reduce_mod_cyclotomic", counting)
    Cyclotomic(8, [1] * 9)
    assert calls == [8]  # the construction boundary goes through the patched name
    calls.clear()
    for a in values:
        for b in values:
            if a.order == b.order:
                a * b, a + b, a - b, -a
        a * 3, a + 1, 2 - a, a * F(1, 2)
    assert calls == []


def test_times_plus_or_minus_one_does_no_arithmetic(monkeypatch):
    """x * 1 and 1 * x are x itself; x * -1 and -1 * x are -x, canonical.
    With gcd raising, only a path that does no arithmetic gets through."""
    values = [
        Cyclotomic(n, [F(k, 3), 0, -2, F(1, 2), 5, 0, 1][: 2 * euler_phi(n)])
        for n in (1, 4, 8, 20)
        for k in (0, 1, -4)
    ] + [Cyclotomic(8)]

    def no_gcd(*args):
        raise AssertionError("gcd called")

    monkeypatch.setattr(qhsa.scalars, "gcd", no_gcd)
    for x in values:
        for one in (1, F(1)):
            assert x * one is x and one * x is x
        for minus_one in (-1, F(-1)):
            for value in (x * minus_one, minus_one * x):
                assert value == -x
                assert_canonical(value)


def test_field_order_guards():
    with pytest.raises(ScalarError):
        FieldSpec("cyclotomic", True)
    with pytest.raises(ScalarError):
        FieldSpec.from_json({"kind": "cyclotomic", "order": True})
    assert FieldSpec.cyclotomic(MAX_CYCLOTOMIC_ORDER).order == MAX_CYCLOTOMIC_ORDER
    with pytest.raises(ScalarError, match="exceeds the maximum"):
        FieldSpec.cyclotomic(MAX_CYCLOTOMIC_ORDER + 1)
    # Phi_2520 (degree 576) comes from integer division of x^d - 1 factors
    assert euler_phi(2520) == 576


def test_rational_digit_cap():
    at_cap = "9" * MAX_RATIONAL_DIGITS
    assert parse_rational(f"-{at_cap}/{at_cap}") == -1
    for text in ("1" * (MAX_RATIONAL_DIGITS + 1), "1/" + "7" * 5000, "-" + "2" * 5000):
        with pytest.raises(ScalarError, match="digits"):
            parse_rational(text)
