"""Exact Gaussian-rational scalar arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hvalgebra.core import I, L
from hvalgebra.scalars import ONE, ZERO, Scalar, accumulate

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
scalars = st.builds(Scalar, rationals, rationals)
nonzero_scalars = scalars.filter(bool)


def test_construction_and_coercion():
    assert Scalar(3).re == 3 and Scalar(3).im == 0
    assert Scalar(Fraction(1, 2), -2) == Scalar.coerce(Scalar(Fraction(1, 2), -2))
    assert Scalar.coerce(7) == Scalar(7)
    assert Scalar.coerce(Fraction(-3, 4)) == Scalar(Fraction(-3, 4))
    assert ZERO.is_zero() and not ONE.is_zero()
    assert not ZERO and ONE


def test_mixed_int_and_fraction_operands():
    assert Scalar(1, 1) * 2 == Scalar(2, 2)
    assert 2 * Scalar(1, 1) == Scalar(2, 2)
    assert Scalar(3) - Fraction(1, 2) == Scalar(Fraction(5, 2))
    assert Fraction(1, 2) - Scalar(3) == Scalar(Fraction(-5, 2))
    assert Scalar(4) / 2 == Scalar(2)
    assert 1 / Scalar(0, 1) == Scalar(0, -1)


def test_complex_multiplication():
    # (1+2i)(3-i) = 3 - i + 6i + 2 = 5 + 5i
    assert Scalar(1, 2) * Scalar(3, -1) == Scalar(5, 5)
    assert Scalar(0, 1) * Scalar(0, 1) == Scalar(-1)


def test_inverse_and_division_errors():
    with pytest.raises(ZeroDivisionError, match="scalar inverse of zero"):
        ZERO.inv()
    with pytest.raises(ZeroDivisionError, match="scalar inverse of zero"):
        ONE / ZERO
    assert Scalar(1, 1).inv() == Scalar(Fraction(1, 2), Fraction(-1, 2))


def test_canonical_text():
    cases = {
        Scalar(0): "0",
        Scalar(5): "5",
        Scalar(Fraction(3, 2)): "3/2",
        Scalar(-1): "-1",
        Scalar(0, 1): "i",
        Scalar(0, -1): "-i",
        Scalar(0, 2): "2i",
        Scalar(0, Fraction(-1, 3)): "-1/3i",
        Scalar(1, -2): "1-2i",
        Scalar(Fraction(-1, 2), Fraction(1, 2)): "-1/2+1/2i",
    }
    for value, text in cases.items():
        assert str(value) == text


@given(scalars, scalars, scalars)
def test_field_addition_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + ZERO == a
    assert a + (-a) == ZERO


@given(scalars, scalars, scalars)
def test_field_multiplication_axioms(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * ONE == a
    assert a * (b + c) == a * b + a * c


@given(nonzero_scalars)
def test_multiplicative_inverse(a):
    assert a * a.inv() == ONE
    assert ONE / a == a.inv()


def _parts(x):
    # Both parts stay Fractions on every path, so hashing and text are canonical.
    assert type(x.re) is Fraction and type(x.im) is Fraction
    return x.re, x.im


_axes = {
    "real": st.builds(Scalar, rationals),
    "complex": st.builds(Scalar, rationals, rationals.filter(bool)),
}


@pytest.mark.parametrize(
    "left, right",
    [("real", "real"), ("real", "complex"), ("complex", "real"), ("complex", "complex")],
)
@given(data=st.data())
def test_ring_operations_match_the_textbook_formulas(left, right, data):
    x, y = data.draw(_axes[left]), data.draw(_axes[right])
    a, b, c, d = x.re, x.im, y.re, y.im
    assert _parts(x * y) == (a * c - b * d, a * d + b * c)
    assert _parts(x + y) == (a + c, b + d)
    assert _parts(-x) == (-a, -b)
    if x:
        norm = a * a + b * b
        assert _parts(x.inv()) == (a / norm, -b / norm)


@given(scalars)
def test_conjugation_is_involutive(a):
    assert a.conjugate().conjugate() == a
    assert not (a * a.conjugate()).im


@given(scalars, scalars, rationals)
def test_hash_consistent_with_equality(a, b, x):
    if a == b:
        assert hash(a) == hash(b)
    # a real Scalar equals, and so hashes as, the int or Fraction it holds
    for number in (x, x.numerator):
        assert Scalar(number) == number and hash(Scalar(number)) == hash(number)
    assert len({1, Scalar(1)}) == 1
    assert Scalar(Fraction(1, 2)) in {Fraction(1, 2)}
    assert {Scalar(2): "x"}.get(2) == "x"


@pytest.mark.parametrize("a, b, c", [(L(1), I(-2), L(0)), (0, 1, 2)])
def test_accumulate_removes_entries_that_cancel(a, b, c):
    acc = {a: Scalar(2), b: Scalar(1, 1)}
    accumulate(acc, {a: Scalar(-2), c: Scalar(3)})
    assert acc == {b: Scalar(1, 1), c: Scalar(3)}
    # with a factor: (1+i) + i*(-1+i) = 0 and 3 + i*3i = 0
    accumulate(acc, {b: Scalar(-1, 1), c: Scalar(0, 3), a: ONE}, Scalar(0, 1))
    assert acc == {a: Scalar(0, 1)}
    accumulate(acc, {a: ONE}, Scalar(0, -1))
    assert acc == {}
