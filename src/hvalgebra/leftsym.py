"""The graded left-symmetric product family and its verification suite.

For admissible parameters (alpha, beta, epsilon) the product acts on
basis symbols by (delta is the Kronecker delta on m = -n)

    L(m) * L(n) = -n(1+eps*n)/(1+eps*(m+n)) L(m+n)
                  + (m^3 - m + (eps - 1/eps) m^2)/24 * delta C1
    L(m) * I(n) = -n(1 + (1-eps*n)*alpha*delta) I(m+n)
                  + (m^2 - m + (eps*m^2 + m)*beta) * delta C2
    I(m) * L(n) = n(1+eps*n)*alpha*delta I(m+n) + n(1+eps*n)*beta*delta C2
    I(m) * I(n) = n/2 * delta C3

with the central symbols two-sided annihilators.  The coefficients are
implemented exactly as printed in the defining table; the C2 and C3
strata of the induced commutator are known not to reproduce the ambient
bracket and are therefore reported, never asserted (see
``subadjacent_residual``).  Admissibility keeps every denominator
1 + eps*(m+n) away from zero on all integer index sums.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .core import (
    C1,
    C2,
    C3,
    LIE_HV,
    LIE_W00,
    BasisKey,
    Element,
    I,
    L,
    Product,
    plain_constants,
)
from .errors import ZeroDenominator
from .linmaps import CheckReport, LinearMap, Window, collect_report, is_derivation
from .linmaps import gaussian_sum, scaled_values
from .scalars import ONE, Scalar


class LeftSymParams(namedtuple("LeftSymParams", "alpha beta epsilon")):
    __slots__ = ()

    def __new__(cls, alpha, beta, epsilon):
        coerce = Scalar.coerce
        return super().__new__(cls, coerce(alpha), coerce(beta), coerce(epsilon))

    def __str__(self):
        return f"alpha={self.alpha}, beta={self.beta}, epsilon={self.epsilon}"


def params_valid(params: LeftSymParams) -> bool:
    """Admissibility of epsilon: either Re > 0 with 1/epsilon not an
    integer, or Re = 0 with Im > 0."""
    eps = params.epsilon
    if eps.re > 0:
        inv = eps.inv()
        return bool(inv.im) or inv.re.denominator != 1
    return not eps.re and eps.im > 0


class LeftSymProduct(Product):
    """The left-symmetric product, optionally on the centerless quotient."""

    def __init__(self, params: LeftSymParams, quotient: bool = False):
        if params.epsilon.is_zero():
            raise ZeroDenominator("epsilon must be nonzero")
        self.params = params
        self.has_central = not quotient
        self.name = "leftsym" if self.has_central else "leftsym-quotient"
        self._cache = {}

    def mul_keys(self, a: BasisKey, b: BasisKey) -> Element:
        got = self._cache.get((a, b))
        if got is None:
            got = self._mul_keys(a, b)
            self._cache[(a, b)] = got
        return got

    def _mul_keys(self, a: BasisKey, b: BasisKey) -> Element:
        if a.is_central or b.is_central:
            if not self.has_central:
                raise ValueError("quotient elements must have no central support")
            return Element.zero()
        alpha, beta, eps = self.params.alpha, self.params.beta, self.params.epsilon
        m, n = a.index, b.index
        delta = m == -n
        coeffs = {}
        if a.family == "L":
            if b.family == "L":
                den = ONE + eps * (m + n)
                if not den:
                    raise ZeroDenominator(f"1 + eps*({m}+{n}) vanished")
                coeffs[L(m + n)] = -(Scalar(n) * (ONE + eps * n)) / den
                if delta and self.has_central:
                    coeffs[C1] = (
                        Scalar(Fraction(m**3 - m, 24))
                        + (eps - eps.inv()) * Fraction(m * m, 24)
                    )
            else:
                factor = ONE
                if delta:
                    factor = ONE + (ONE - eps * n) * alpha
                coeffs[I(m + n)] = Scalar(-n) * factor
                if delta and self.has_central:
                    coeffs[C2] = Scalar(m * m - m) + (eps * (m * m) + m) * beta
        elif b.family == "L":
            if delta:
                common = Scalar(n) * (ONE + eps * n)
                coeffs[I(m + n)] = common * alpha
                if self.has_central:
                    coeffs[C2] = common * beta
        else:
            if delta and self.has_central:
                coeffs[C3] = Fraction(n, 2)
        return Element(coeffs)


def is_left_symmetric(product: LeftSymProduct, window: Window) -> CheckReport:
    """Associator-symmetry check (x*y)*z - x*(y*z) = (y*x)*z - y*(x*z).

    Every counterexample carries its full residual; the central strata
    follow the printed coefficient table verbatim, so a caller that
    reports them rather than asserting them reads ``residual.noncentral()``.
    The residual is one ``linmaps.gaussian_sum`` of the four products, on
    structure constants read once per key pair as ``scaled_values``.
    """
    keys = product.window_keys(window.n_max)
    triples = (((x, y, z), "left-symmetric") for x in keys for y in keys for z in keys)
    mul = scaled_values(plain_constants(product))

    def residual(triple, _):
        x, y, z = triple
        return gaussian_sum(
            (
                (1, mul(x, y), lambda u: mul(u, z)),
                (-1, mul(y, z), lambda u: mul(x, u)),
                (-1, mul(y, x), lambda u: mul(u, z)),
                (1, mul(x, z), lambda u: mul(y, u)),
            )
        )

    return collect_report(residual, triples)


def subadjacent_residual(product: LeftSymProduct, window: Window):
    """Commutator-versus-bracket residuals ``((a, b), residual)`` for every
    ordered window pair, against the bracket with the same center."""
    bracket = LIE_HV if product.has_central else LIE_W00
    keys = product.window_keys(window.n_max)
    return tuple(
        ((a, b), product.commutator_keys(a, b) - bracket.mul_keys(a, b))
        for a in keys for b in keys
    )


class _Commutator(Product):
    """The skew product a*b - b*a induced by a product."""

    name = "commutator"

    def __init__(self, base: Product):
        self.has_central = base.has_central
        self.mul_keys = base.commutator_keys


def check_derivation_inheritance(
    d: LinearMap, product: LeftSymProduct, window: Window
) -> CheckReport:
    """A derivation of the left-symmetric product must also derive its
    commutator; this checks the conclusion directly."""
    return is_derivation(d, _Commutator(product), window)
