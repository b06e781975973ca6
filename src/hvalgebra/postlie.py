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

from functools import partial

from .core import Element, L, LIE_HV
from .bimaps import BilinearMap, Omega, ROmega
from .linmaps import (
    CheckReport,
    Window,
    collect_report,
    gaussian_sum,
    leibniz_residual,
    scaled_values,
    symmetry_parts,
)


def _scaled_readers(f: BilinearMap):
    """The bracket's constants and ``f`` on a pair of basis keys, as
    ``scaled_values`` caches."""
    return scaled_values(LIE_HV.mul_keys), scaled_values(partial(f.eval_keys, LIE_HV))


def _lie_action_residual(mul, f, x, y, z) -> Element:
    """f([x, y], z) - f(x, f(y, z)) + f(y, f(x, z)) at basis keys x, y, z,
    by direct evaluation of both sides; ``mul`` and ``f`` are the scaled
    readers of ``_scaled_readers``, and the nested values multiply as
    Gaussian integers."""
    return gaussian_sum(
        (
            (1, mul(x, y), lambda k: f(k, z)),
            (-1, f(y, z), lambda u: f(x, u)),
            (1, f(x, z), lambda u: f(y, u)),
        )
    )


def is_commutative_postlie(f: BilinearMap, window: Window) -> CheckReport:
    """Exhaustive check of all three identities over the window.  Each key
    pair's value is read once per call, by a cache that dies with the call.
    The lie-action twin of (x, y, z) is (y, x, z), the bracket-derivation
    one (x, z, y) (``collect_report``)."""
    mul, f_keys = _scaled_readers(f)
    keys = LIE_HV.window_keys(window.n_max)

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
            return gaussian_sum(symmetry_parts(f_keys, *inputs, 1))
        if tag == "lie-action":
            return _lie_action_residual(mul, f_keys, *inputs)
        x, y, z = inputs
        return leibniz_residual(mul, lambda k: f_keys(x, k), y, z)

    def twin(inputs, tag):
        if tag == "commutative":  # an unordered pair, evaluated once already
            return inputs
        x, y, z = inputs
        return (y, x, z) if tag == "lie-action" else (x, z, y)

    return collect_report(residual, instances(), twin)


def postlie_residual(omega: Omega) -> Element:
    """Residual of the lie-action identity at (L(2), L(1), L(3)) for the
    symmetric family."""
    return _lie_action_residual(*_scaled_readers(ROmega(omega)), L(2), L(1), L(3))
