"""The graded left-symmetric product family and its verification suite.

For admissible parameters (alpha, beta, epsilon) the product acts on
basis symbols by (delta is the Kronecker delta on m = -n)

    L(m) * L(n) = -n(1+eps*n)/(1+eps*(m+n)) L(m+n)
                  + (m^3 - m + (eps - 1/eps) m^2)/24 * delta C1
    L(m) * I(n) = -n(1 + (1-eps*n)*alpha*delta) I(m+n)
                  + (m^2 - m + (eps*m^2 + m)*beta) * delta C2
    I(m) * L(n) = n(1+eps*n)*alpha*delta I(m+n) + n(1+eps*n)*beta*delta C2
    I(m) * I(n) = n/2 * delta C3

with the central symbols two-sided annihilators.  This table is the
code's table: ``LeftSymProduct`` builds it term for term from (alpha,
beta, epsilon) and ``core.table_keys`` evaluates it.  The C2 and C3
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
    Product,
    table_keys,
)
from .errors import ZeroDenominator
from .linmaps import CheckReport, LinearMap, Window, collect_report, is_derivation
from .linmaps import gaussian_sum, scaled_basis, scaled_values, symmetry_parts
from .scalars import ONE, Scalar


class LeftSymParams(namedtuple("LeftSymParams", "alpha beta epsilon")):
    __slots__ = ()

    def __new__(cls, alpha, beta, epsilon):
        coerce = Scalar.coerce
        return super().__new__(cls, coerce(alpha), coerce(beta), coerce(epsilon))

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make
        return cls(*iterable)

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
        alpha, beta, eps = params
        twist = (eps - eps.inv()) / 24

        def den(m, n):
            den = ONE + eps * (m + n)
            if not den:
                raise ZeroDenominator(f"1 + eps*({m}+{n}) vanished")
            return den

        # a delta factor is "... if m == -n else ...", never a zero factor
        self._table = {
            ("L", "L"): (
                ("L", lambda m, n: -(Scalar(n) * (ONE + eps * n)) / den(m, n)),
                (C1, lambda m, n: Fraction(m**3 - m, 24) + twist * (m * m)),
            ),
            ("L", "I"): (
                ("I", lambda m, n: -n * (ONE + (ONE - eps * n) * alpha) if m == -n else -n),
                (C2, lambda m, n: Scalar(m * m - m) + (eps * (m * m) + m) * beta),
            ),
            ("I", "L"): (
                ("I", lambda m, n: Scalar(n) * (ONE + eps * n) * alpha if m == -n else 0),
                (C2, lambda m, n: Scalar(n) * (ONE + eps * n) * beta),
            ),
            ("I", "I"): ((C3, lambda m, n: Fraction(n, 2)),),
        }

    def mul_keys(self, a: BasisKey, b: BasisKey) -> Element:
        return table_keys(self._table, self.has_central, a, b)


def is_left_symmetric(product: LeftSymProduct, window: Window) -> CheckReport:
    """Associator-symmetry check (x*y)*z - x*(y*z) = (y*x)*z - y*(x*z).

    Every counterexample carries its full residual; the central strata
    follow the printed coefficient table verbatim, so a caller that
    reports them rather than asserting them reads ``residual.noncentral()``.
    The residual is one ``linmaps.gaussian_sum`` of the four products, on
    structure constants read once per key pair as ``scaled_values``; for
    any product, (y, x, z) is the twin of (x, y, z) (``collect_report``).
    """
    keys = product.window_keys(window.n_max)
    triples = (((x, y, z), "left-symmetric") for x in keys for y in keys for z in keys)
    mul = scaled_values(product.mul_keys)

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

    return collect_report(residual, triples, lambda xyz, _: (xyz[1], xyz[0], xyz[2]))


def subadjacent_residual(product: LeftSymProduct, window: Window):
    """Commutator-versus-bracket residuals ``((a, b), residual)`` for every
    ordered window pair, against the bracket with the same center: the
    ``gaussian_sum`` of a*b - b*a - [a, b]."""
    mul = scaled_values(product.mul_keys)
    bracket = scaled_values((LIE_HV if product.has_central else LIE_W00).mul_keys)
    keys = product.window_keys(window.n_max)

    def residual(a, b):
        return gaussian_sum((*symmetry_parts(mul, a, b, 1), (-1, bracket(a, b), scaled_basis)))

    return tuple(((a, b), residual(a, b)) for a in keys for b in keys)


class _Commutator(Product):
    """The skew product a*b - b*a induced by a product, antisymmetric by
    construction."""

    name = "commutator"
    antisymmetric = True

    def __init__(self, base: Product):
        self.has_central = base.has_central
        self.mul_keys = base.commutator_keys


def check_derivation_inheritance(
    d: LinearMap, product: LeftSymProduct, window: Window
) -> CheckReport:
    """A derivation of the left-symmetric product must also derive its
    commutator; this checks the conclusion directly."""
    return is_derivation(d, _Commutator(product), window)
