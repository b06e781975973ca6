"""Exact arithmetic over the Gaussian rationals Q(i).

Scalar is the coefficient type of elements and maps: a complex number
whose real and imaginary parts are arbitrary-precision Fractions.  A
windowed solve holds ``plain`` numbers (int, Fraction, or Scalar only
when not real) end to end, solved bases included (``linalg``).  A
checker's residuals (the left-symmetric associator included) sum
``gaussian_integers`` values; only a nonzero coordinate becomes a Scalar.
Every operation is exact, so downstream zero tests are decisive; no
module in this package owns a tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

_REAL = Fraction(0)  # the default imaginary part, shared


class Scalar:
    """An immutable Gaussian rational re + im*i in canonical reduced form.

    Fraction keeps each part reduced with a positive denominator, so equal
    values always have identical representations and zero is unique.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=_REAL):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @classmethod
    def coerce(cls, value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        raise TypeError(f"cannot interpret {value!r} as a scalar")

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        return Scalar(other.re - self.re, other.im - self.im)

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __mul__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        return Scalar(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        d = self.re * self.re + self.im * self.im
        if not d:
            raise ZeroDivisionError("scalar inverse of zero")
        return Scalar(self.re / d, -self.im / d)

    def __truediv__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        return other * self.inv()

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    # -- equality / hashing ---------------------------------------------

    def __eq__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real value hashes as its real part, as complex does, so that
        # Scalar(x) and the int or Fraction x it equals share a hash
        return hash((self.re, self.im)) if self.im else hash(self.re)

    # -- text -----------------------------------------------------------

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return _imag_text(self.im)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{_imag_text(abs(self.im))}"

    def __repr__(self):
        return f"Scalar({str(self)!r})"


def _imag_text(value: Fraction) -> str:
    if value == 1:
        return "i"
    if value == -1:
        return "-i"
    return f"{value}i"


def coefficient_text(value: Scalar):
    """Render a coefficient for use inside a term ``coef*key``.

    Returns (negate, text), read off ``str(value)``: ``negate`` pulls a
    leading minus out of the term, ``text`` is the magnitude (None when
    the magnitude is one and the factor should be omitted entirely).  A
    text with a sign after its first character is a mixed complex
    coefficient, which is parenthesized and never split.
    """
    text = str(value)
    mag = text.removeprefix("-")
    if "+" in mag or "-" in mag:
        return False, f"({text})"
    return mag != text, None if mag == "1" else mag


def plain(value):
    """An int, Fraction or Scalar as the cheapest type that holds it exactly:
    an int, else a Fraction, else (not real) a Scalar."""
    if type(value) is Scalar:
        if value.im:
            return value
        value = value.re
    return value.numerator if value.denominator == 1 else value


def gaussian_integers(pairs) -> tuple:
    """``(key, number)`` pairs of ints, Fractions or Scalars as
    ``(den, ((key, re, im), ...))``: Gaussian-integer numerators over their
    least common denominator ``den``, every entry an int."""
    parts = []
    den = 1
    for key, value in pairs:
        re, im = (value.re, value.im) if type(value) is Scalar else (value, 0)
        den = lcm(den, re.denominator, im.denominator)
        parts.append((key, re, im))
    return den, tuple(
        (key, re.numerator * (den // re.denominator), im.numerator * (den // im.denominator))
        for key, re, im in parts
    )


def accumulate(acc: dict, terms: dict, factor=None) -> None:
    """acc += factor * terms, in place, on dicts of nonzero exact numbers.

    ``factor`` defaults to one.  An entry whose sum is zero is removed, so
    ``acc`` stays free of zeros.  Elements and elimination sum here; every
    checker residual sums in ``linmaps.gaussian_sum``'s own ``[re, im]`` pairs.
    """
    get = acc.get
    for key, value in terms.items():
        if factor is not None:
            value = factor * value
        old = get(key)
        if old is not None:
            value = old + value
        if value:
            acc[key] = value
        else:
            acc.pop(key, None)


ZERO = Scalar(0)
ONE = Scalar(1)
