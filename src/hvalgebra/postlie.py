"""Commutative post-Lie structure checks on the full algebra.

A candidate dot-product f is a commutative post-Lie structure when, for
all x, y, z (with [.,.] the ambient bracket),

    f(x, y) = f(y, x)                                   (commutative)
    f([x, y], z) = f(x, f(y, z)) - f(y, f(x, z))        (lie-action)
    f(x, [y, z]) = [f(x, y), z] + [y, f(x, z)]          (bracket-derivation)

The residual probe isolates why the symmetric non-inner family never
supplies one: acting first with a bracket of L's lands back on an (L, L)
pair, while the nested right side lands on (L, I) pairs where the family
vanishes.
"""

from __future__ import annotations

from .core import AlgebraKind, Element, L, LIE_HV, bracket
from .bimaps import BilinearMap, Omega, ROmega
from .errors import DomainNotCovered
from .linmaps import CheckReport, Counterexample, Window, collect_report


def is_commutative_postlie(f: BilinearMap, window: Window) -> CheckReport:
    """Exhaustive check of all three identities over the window."""
    product = LIE_HV
    keys = product.window_keys(window.n_max)

    def instances():
        for i, x in enumerate(keys):
            for y in keys[i + 1 :]:
                yield (x, y, None, "commutative")
        for x in keys:
            for y in keys:
                for z in keys:
                    yield (x, y, z, "lie-action")
                    yield (x, y, z, "bracket-derivation")

    def check(instance):
        x, y, z, tag = instance
        ex, ey = Element.basis(x), Element.basis(y)
        if tag == "commutative":
            if not (f.covers(x, y) and f.covers(y, x)):
                return None
            residual = f.eval_keys(product, x, y) - f.eval_keys(product, y, x)
            inputs = (x, y)
        else:
            ez = Element.basis(z)
            inputs = (x, y, z)
            try:
                if tag == "lie-action":
                    lhs = f.eval(product, bracket(AlgebraKind.HV, ex, ey), ez)
                    rhs = f.eval(product, ex, f.eval(product, ey, ez)) - f.eval(
                        product, ey, f.eval(product, ex, ez)
                    )
                else:
                    lhs = f.eval(product, ex, bracket(AlgebraKind.HV, ey, ez))
                    rhs = bracket(
                        AlgebraKind.HV, f.eval(product, ex, ey), ez
                    ) + bracket(AlgebraKind.HV, ey, f.eval(product, ex, ez))
            except DomainNotCovered:
                return None
            residual = lhs - rhs
        if residual.is_zero():
            return ()
        return (Counterexample(inputs, tag, residual),)

    return collect_report(check, instances())


def postlie_residual(omega: Omega) -> Element:
    """Residual of the lie-action identity at (L(2), L(1), L(3)) for the
    symmetric family, computed by direct evaluation of both sides."""
    f = ROmega(omega)
    product = LIE_HV
    x, y, z = Element.basis(L(2)), Element.basis(L(1)), Element.basis(L(3))
    lhs = f.eval(product, bracket(AlgebraKind.HV, x, y), z)
    rhs = f.eval(product, x, f.eval(product, y, z)) - f.eval(
        product, y, f.eval(product, x, z)
    )
    return lhs - rhs
