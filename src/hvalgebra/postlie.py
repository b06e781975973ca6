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

from functools import lru_cache, partial

from .core import Element, L, LIE_HV, linear_extension
from .bimaps import BilinearMap, Omega, ROmega
from .linmaps import CheckReport, Window, collect_report, leibniz_residual


def _lie_action_residual(f_keys, x, y, z) -> Element:
    """f([x, y], z) - f(x, f(y, z)) + f(y, f(x, z)) at basis keys x, y, z,
    by direct evaluation of both sides from ``f_keys(a, b)``, the map on a
    pair of basis keys."""
    lhs = linear_extension(lambda k: f_keys(k, z), LIE_HV.mul_keys(x, y))
    rhs = linear_extension(lambda k: f_keys(x, k), f_keys(y, z)) - linear_extension(
        lambda k: f_keys(y, k), f_keys(x, z)
    )
    return lhs - rhs


def is_commutative_postlie(f: BilinearMap, window: Window) -> CheckReport:
    """Exhaustive check of all three identities over the window.  Each key
    pair's value is read once per call, by a cache that dies with the call."""
    product = LIE_HV
    f_keys = lru_cache(maxsize=None)(partial(f.eval_keys, product))
    keys = product.window_keys(window.n_max)

    def instances():
        for i, x in enumerate(keys):
            for y in keys[i + 1 :]:
                yield (x, y), "commutative"
        for x in keys:
            for y in keys:
                for z in keys:
                    yield (x, y, z), "lie-action"
                    yield (x, y, z), "bracket-derivation"

    def residual(inputs, tag):
        if tag == "commutative":
            x, y = inputs
            return f_keys(x, y) - f_keys(y, x)
        if tag == "lie-action":
            return _lie_action_residual(f_keys, *inputs)
        x, y, z = inputs
        return leibniz_residual(product, lambda k: f_keys(x, k), y, z)

    return collect_report(residual, instances())


def postlie_residual(omega: Omega) -> Element:
    """Residual of the lie-action identity at (L(2), L(1), L(3)) for the
    symmetric family."""
    return _lie_action_residual(
        partial(ROmega(omega).eval_keys, LIE_HV), L(2), L(1), L(3)
    )
