"""The scaled Leibniz kernel against the Element formula it replaces.

``leibniz_residual`` sums d(a*b) - d(a)*b - a*d(b) as Gaussian integers
over a common denominator.  Here it is compared, on seeded random maps
with Gaussian-rational values, with the same rule written in Element
arithmetic, for both Lie products and a left-symmetric product with a
non-real epsilon.  The biderivation, derivation and post-Lie checks are
compared the same way on partial tables, against references that
evaluate every antisymmetric twin, so their skip counts are pinned as
well.
"""

import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvalgebra.bimaps import TabularBilinear, is_biderivation
from hvalgebra.core import LIE_HV, LIE_W00, C1, Element, I, L, linear_extension
from hvalgebra.errors import DomainNotCovered
from hvalgebra.leftsym import LeftSymParams, LeftSymProduct, check_derivation_inheritance
from hvalgebra.linmaps import (
    CentralMap,
    TabularMap,
    Window,
    collect_report,
    gaussian_sum,
    is_derivation,
    leibniz_residual,
    scaled_basis,
    scaled_values,
)
from hvalgebra.postlie import is_commutative_postlie
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


def assert_same_report(got, want):
    assert (got.checked, got.skipped) == (want.checked, want.skipped)
    assert [str(c) for c in got.counterexamples] == [str(c) for c in want.counterexamples]


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
    want = reference_biderivation(f, product, Window(1))
    assert_same_report(is_biderivation(f, product, Window(1)), want)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_derivation_reports_match_on_partial_tables(seed):
    product = LIE_HV
    rng = random.Random(seed)
    # the products of window-2 keys reach index 4; about one key in eight is uncovered
    keys = product.window_keys(4)
    table = {k: random_element(rng, keys) for k in keys if rng.random() < 0.88}
    m = TabularMap(table)
    pairs = (((a, b), "leibniz") for a in product.window_keys(2) for b in product.window_keys(2))
    want = collect_report(
        lambda pair, _: element_residual(product, m.apply_key, *pair), pairs
    )
    assert_same_report(is_derivation(m, product, Window(2)), want)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_derivation_inheritance_reports_match_on_partial_tables(seed):
    # the commutator of a left-symmetric product is antisymmetric, so its
    # check evaluates one twin of each pair; the reference evaluates both
    product = PRODUCTS["leftsym"]
    rng = random.Random(seed)
    keys = product.window_keys(4)
    table = {k: random_element(rng, keys) for k in keys if rng.random() < 0.88}
    m = TabularMap(table)
    basis = Element.basis

    def commutator(u, v):
        return product.mul(u, v) - product.mul(v, u)

    def residual(pair, _):
        a, b = pair
        return (
            linear_extension(m.apply_key, commutator(basis(a), basis(b)))
            - commutator(m.apply_key(a), basis(b))
            - commutator(basis(a), m.apply_key(b))
        )

    pairs = (((a, b), "leibniz") for a in product.window_keys(2) for b in product.window_keys(2))
    want = collect_report(residual, pairs)
    assert_same_report(check_derivation_inheritance(m, product, Window(2)), want)


def reference_postlie(f, window):
    """``is_commutative_postlie`` with the Element formulas and no twins."""
    product = LIE_HV
    keys = product.window_keys(window.n_max)
    mul = product.mul
    fe = partial(f.eval, product)
    basis = Element.basis

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
        x, y, *rest = map(basis, inputs)
        if tag == "commutative":
            return fe(x, y) - fe(y, x)
        (z,) = rest
        if tag == "lie-action":
            return fe(mul(x, y), z) - fe(x, fe(y, z)) + fe(y, fe(x, z))
        return fe(x, mul(y, z)) - mul(fe(x, y), z) - mul(y, fe(x, z))

    return collect_report(residual, instances())


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_postlie_reports_match_on_partial_tables(seed):
    rng = random.Random(seed)
    # f([x, y], z) reads first arguments up to index 2; values stay in window 1
    keys = LIE_HV.window_keys(1)
    pairs = [(a, b) for a in LIE_HV.window_keys(2) for b in keys if rng.random() < 0.8]
    table = {pair: random_element(rng, keys) for pair in pairs}
    f = TabularBilinear(table, pairs)
    assert_same_report(is_commutative_postlie(f, Window(1)), reference_postlie(f, Window(1)))


def test_gaussian_sum_rescales_and_reads_empty_values():
    # L(1) gets 1/2 first and a later 1/3, so the running denominator grows
    # from 2 to 6 after an entry is stored; L(2) and the third part are empty
    table = {
        L(0): Element({L(1): Fraction(1, 2)}),
        L(1): Element({L(1): Fraction(1, 3), I(0): Scalar(Fraction(-1, 4), 1)}),
        L(2): Element.zero(),
    }
    read = scaled_values(table.__getitem__)
    first = Element({L(0): 1, L(2): Scalar(0, 3)})
    second = Element({L(1): Scalar(2, Fraction(-1, 5))})

    def scaled(element):
        return gaussian_integers(element.items())

    got = gaussian_sum(
        ((1, scaled(first), read), (-1, scaled(second), read), (1, scaled(Element.zero()), read))
    )
    want = linear_extension(table.__getitem__, first) - linear_extension(table.__getitem__, second)
    assert got == want and str(got) == str(want)
    assert gaussian_sum(((1, scaled(first), scaled_basis),)) == first
    assert gaussian_sum(()) == Element.zero()


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
