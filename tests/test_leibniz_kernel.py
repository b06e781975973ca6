"""The scaled Leibniz kernel against the Element formula it replaces.

``leibniz_residual`` sums d(a*b) - d(a)*b - a*d(b) as Gaussian integers
over a common denominator.  Here it is compared, on seeded random maps
with Gaussian-rational values, with the same rule written in Element
arithmetic, for both Lie products and a left-symmetric product with a
non-real epsilon.  The biderivation check is compared the same way on
partial tables, so its skip counts are pinned as well.
"""

import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvalgebra.bimaps import TabularBilinear, is_biderivation
from hvalgebra.core import LIE_HV, LIE_W00, C1, Element, L, linear_extension
from hvalgebra.errors import DomainNotCovered
from hvalgebra.leftsym import LeftSymParams, LeftSymProduct
from hvalgebra.linmaps import (
    CentralMap,
    Window,
    collect_report,
    is_derivation,
    leibniz_residual,
    scaled_values,
)
from hvalgebra.scalars import Scalar, gaussian_integers

PRODUCTS = {
    "lie-hv": LIE_HV,
    "lie-w00": LIE_W00,
    "leftsym": LeftSymProduct(LeftSymParams(Fraction(1, 2), Fraction(-2, 3), Scalar(1, 1))),
}


def gauss(rng) -> Scalar:
    """A nonzero Gaussian rational; either part may be zero or an integer."""
    while True:
        re, im = (Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(2))
        if re or im:
            return Scalar(re, rng.choice((0, im)) if rng.random() < 0.3 else im)


def random_element(rng, keys) -> Element:
    return Element({u: gauss(rng) for u in rng.sample(keys, rng.randint(0, 3))})


def element_residual(product, d, a, b) -> Element:
    """d(a*b) - d(a)*b - a*d(b) in Element arithmetic."""
    return (
        linear_extension(d, product.mul_keys(a, b))
        - product.mul(d(a), Element.basis(b))
        - product.mul(Element.basis(a), d(b))
    )


def test_gaussian_integers_share_one_denominator():
    pairs = [(L(0), 3), (L(1), Fraction(-1, 4)), (C1, Scalar(Fraction(1, 6), Fraction(2, 3)))]
    assert gaussian_integers(pairs) == (12, ((L(0), 36, 0), (L(1), -3, 0), (C1, 2, 8)))
    assert gaussian_integers(()) == (1, ())


@pytest.mark.parametrize("name", PRODUCTS)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_kernel_matches_the_element_formula(name, seed):
    product = PRODUCTS[name]
    rng = random.Random(seed)
    # the products of window-2 keys reach index 4
    table = {k: random_element(rng, product.window_keys(4)) for k in product.window_keys(4)}
    mul = scaled_values(product.mul_keys)
    d = scaled_values(table.__getitem__)
    keys = product.window_keys(2)
    for a in keys:
        for b in keys:
            expected = element_residual(product, table.__getitem__, a, b)
            assert leibniz_residual(mul, d, a, b) == expected


def reference_biderivation(f, product, window):
    """``is_biderivation`` with the Element formula and no cache."""
    keys = product.window_keys(window.n_max)
    instances = (
        ((x, y, z), eq)
        for x in keys
        for y in keys
        for z in keys
        for eq in ("first-slot", "second-slot")
    )

    def residual(xyz, eq):
        x, y, z = xyz
        if eq == "first-slot":
            return element_residual(product, lambda k: f.eval_keys(product, k, z), x, y)
        return element_residual(product, lambda k: f.eval_keys(product, x, k), y, z)

    return collect_report(residual, instances)


@pytest.mark.parametrize("name", ["lie-hv", "lie-w00"])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_biderivation_reports_match_on_partial_tables(name, seed):
    product = PRODUCTS[name]
    rng = random.Random(seed)
    keys = product.window_keys(1)
    outputs = product.window_keys(2)
    pairs = [(a, b) for a in keys for b in keys if rng.random() < 0.8]
    table = {pair: random_element(rng, outputs) for pair in pairs}
    f = TabularBilinear(table, pairs)
    got = is_biderivation(f, product, Window(1))
    want = reference_biderivation(f, product, Window(1))
    assert (got.checked, got.skipped) == (want.checked, want.skipped)
    assert [str(c) for c in got.counterexamples] == [str(c) for c in want.counterexamples]


def test_uncovered_reads_raise_every_time():
    f = TabularBilinear({}, [])
    read = scaled_values(partial(f.eval_keys, LIE_HV))
    for _ in range(2):
        with pytest.raises(DomainNotCovered):
            read(L(0), L(1))


def test_the_quotient_refuses_central_values():
    with pytest.raises(ValueError):
        is_derivation(CentralMap({L(1): Element({C1: 1})}), LIE_W00, Window(1))
    keys = LIE_W00.window_keys(1)
    pairs = [(a, b) for a in keys for b in keys]
    f = TabularBilinear({(L(0), L(1)): Element({C1: Fraction(1, 2)})}, pairs)
    with pytest.raises(ValueError):
        is_biderivation(f, LIE_W00, Window(1))
