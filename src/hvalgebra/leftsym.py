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

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    C1,
    C2,
    C3,
    AlgebraKind,
    BasisKey,
    Element,
    I,
    L,
    Product,
    bracket_keys,
)
from .errors import ZeroDenominator
from .linalg import SolutionSpace
from .linmaps import CheckReport, Counterexample, LinearMap, Window, collect_report, is_derivation
from .scalars import ONE, Scalar


@dataclass(frozen=True)
class LeftSymParams:
    alpha: Scalar
    beta: Scalar
    epsilon: Scalar

    def __post_init__(self):
        object.__setattr__(self, "alpha", Scalar.coerce(self.alpha))
        object.__setattr__(self, "beta", Scalar.coerce(self.beta))
        object.__setattr__(self, "epsilon", Scalar.coerce(self.epsilon))

    def __str__(self):
        return f"alpha={self.alpha}, beta={self.beta}, epsilon={self.epsilon}"


def params_valid(params: LeftSymParams) -> bool:
    """Admissibility of epsilon: either Re > 0 with 1/epsilon not an
    integer, or Re = 0 with Im > 0."""
    eps = params.epsilon
    if eps.re > 0:
        inv = eps.inv()
        return not (not inv.im and inv.re.denominator == 1)
    if not eps.re:
        return eps.im > 0
    return False


class LeftSymProduct(Product):
    """The left-symmetric product, optionally on the centerless quotient."""

    is_lie = False

    def __init__(self, params: LeftSymParams, quotient: bool = False):
        if params.epsilon.is_zero():
            raise ZeroDenominator("epsilon must be nonzero")
        self.params = params
        self.quotient = quotient
        self.has_central = not quotient
        self.name = "leftsym-quotient" if quotient else "leftsym"
        self._cache = {}

    def mul_keys(self, a: BasisKey, b: BasisKey) -> Element:
        got = self._cache.get((a, b))
        if got is None:
            got = self._mul_keys(a, b)
            self._cache[(a, b)] = got
        return got

    def _mul_keys(self, a: BasisKey, b: BasisKey) -> Element:
        if a.is_central or b.is_central:
            if self.quotient:
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
                if delta and not self.quotient:
                    coeffs[C1] = (
                        Scalar(Fraction(m**3 - m, 24))
                        + (eps - eps.inv()) * Fraction(m * m, 24)
                    )
            else:
                factor = ONE
                if delta:
                    factor = ONE + (ONE - eps * n) * alpha
                coeffs[I(m + n)] = Scalar(-n) * factor
                if delta and not self.quotient:
                    coeffs[C2] = Scalar(m * m - m) + (eps * (m * m) + m) * beta
        elif b.family == "L":
            if delta:
                common = Scalar(n) * (ONE + eps * n)
                coeffs[I(m + n)] = common * alpha
                if not self.quotient:
                    coeffs[C2] = common * beta
        else:
            if delta and not self.quotient:
                coeffs[C3] = Fraction(n, 2)
        return Element(coeffs)


def ls_product(params: LeftSymParams, x: Element, y: Element) -> Element:
    return LeftSymProduct(params).mul(x, y)


def ls_quotient_product(params: LeftSymParams, x: Element, y: Element) -> Element:
    return LeftSymProduct(params, quotient=True).mul(x, y)


def is_left_symmetric(params: LeftSymParams, window: Window, strata: str = "all") -> CheckReport:
    """Associator-symmetry check (x*y)*z - x*(y*z) = (y*x)*z - y*(x*z).

    With ``strata="noncentral"`` the residual is projected away from the
    central symbols before the zero test; the central strata follow the
    printed coefficient table verbatim and are reported rather than
    asserted.
    """
    if strata not in ("all", "noncentral"):
        raise ValueError("strata must be 'all' or 'noncentral'")
    product = LeftSymProduct(params)
    keys = product.window_keys(window.n_max)
    triples = ((x, y, z) for x in keys for y in keys for z in keys)

    def check(triple):
        x, y, z = triple
        ex, ey, ez = (Element.basis(k) for k in triple)
        residual = (
            product.mul(product.mul(ex, ey), ez)
            - product.mul(ex, product.mul(ey, ez))
            - product.mul(product.mul(ey, ex), ez)
            + product.mul(ey, product.mul(ex, ez))
        )
        if strata == "noncentral":
            residual = residual.noncentral()
        if residual.is_zero():
            return ()
        return (Counterexample((x, y, z), "left-symmetric", residual),)

    return collect_report(check, triples)


@dataclass(frozen=True)
class StratifiedResidual:
    """Per-pair difference between the induced commutator and the bracket,
    split into the noncentral part and the three central strata."""

    pair: tuple
    noncentral: Element
    c1: Scalar
    c2: Scalar
    c3: Scalar

    def is_zero(self) -> bool:
        return (
            self.noncentral.is_zero()
            and not self.c1
            and not self.c2
            and not self.c3
        )


def subadjacent_residual(params: LeftSymParams, window: Window):
    """Commutator-versus-bracket residuals for every ordered window pair."""
    product = LeftSymProduct(params)
    keys = product.window_keys(window.n_max)
    out = []
    for a in keys:
        for b in keys:
            residual = product.commutator_keys(a, b) - bracket_keys(
                AlgebraKind.HV, a, b
            )
            out.append(
                StratifiedResidual(
                    (a, b),
                    residual.noncentral(),
                    residual[C1],
                    residual[C2],
                    residual[C3],
                )
            )
    return tuple(out)


def check_derivation_inheritance(
    d: LinearMap, params: LeftSymParams, window: Window
) -> CheckReport:
    """A derivation of the left-symmetric product must also derive its
    commutator; this checks the conclusion directly."""

    class _Commutator(Product):
        name = "leftsym-commutator"

        def __init__(self, base):
            self.base = base
            self.has_central = base.has_central

        def mul_keys(self, a, b):
            return self.base.commutator_keys(a, b)

    return is_derivation(d, _Commutator(LeftSymProduct(params)), window)


def quotient_biderivation_space(
    params: LeftSymParams,
    window: Window,
    out_bound: int,
    n_int=None,
    degree=None,
) -> SolutionSpace:
    """Windowed biderivation space of the quotient left-symmetric product;
    the interior projection is expected to be trivial for admissible
    parameters."""
    from .bimaps import interior_projection, solve_biderivations

    product = LeftSymProduct(params, quotient=True)
    space = solve_biderivations(product, window, out_bound, degree=degree)
    if n_int is not None:
        return interior_projection(space, n_int)
    return space
