"""The graded left-symmetric product family: admissibility, values,
associator symmetry, the stratified commutator residual, and derivation
inheritance."""

from fractions import Fraction

import pytest

from hvalgebra.bimaps import interior_projection, solve_biderivations
from hvalgebra.core import C1, C2, C3, Element, I, L
from hvalgebra.errors import ZeroDenominator
from hvalgebra.leftsym import (
    LeftSymParams,
    LeftSymProduct,
    check_derivation_inheritance,
    is_left_symmetric,
    params_valid,
    subadjacent_residual,
)
from hvalgebra.linmaps import Counterexample, TabularMap, Window, is_derivation
from hvalgebra.render import render_strata_report
from hvalgebra.scalars import Scalar

EPS = Scalar(1, 1)
PLAIN = LeftSymParams(0, 0, EPS)
TWISTED = LeftSymParams(1, 2, EPS)


@pytest.mark.parametrize(
    "epsilon, valid",
    [
        (Scalar(1, 1), True),
        (Scalar(1), False),  # 1/epsilon is an integer
        (Scalar(0, 1), True),
        (Scalar(2), True),
        (Scalar(0, -1), False),  # imaginary axis, wrong half
        (Scalar(Fraction(3, 2)), True),
        (Scalar(Fraction(1, 3)), False),  # 1/epsilon = 3
        (Scalar(-1), False),
    ],
)
def test_admissibility(epsilon, valid):
    assert params_valid(LeftSymParams(0, 0, epsilon)) is valid


def test_product_values():
    prod = LeftSymProduct(PLAIN)
    assert prod.mul_keys(L(1), L(1)) == Element(
        {L(2): Scalar(Fraction(-8, 13)) + Scalar(0, 1) / 13}
    )
    assert prod.mul_keys(L(1), L(-1)) == Element(
        {L(0): Scalar(0, -1), C1: Scalar(Fraction(1, 48)) + Scalar(0, 1) / 16}
    )
    assert prod.mul_keys(I(2), I(-2)) == Element({C3: -1})
    assert prod.mul_keys(I(2), I(1)).is_zero()
    # central symbols are two-sided annihilators
    assert prod.mul_keys(L(2), C1).is_zero()
    assert prod.mul_keys(C2, I(1)).is_zero()

    twisted = LeftSymProduct(TWISTED)
    assert twisted.mul_keys(L(1), I(-1)) == Element(
        {I(0): Scalar(3, 1), C2: Scalar(4, 2)}
    )
    assert twisted.mul_keys(I(-1), L(1)) == Element(
        {I(0): Scalar(2, 1), C2: Scalar(4, 2)}
    )


def test_quotient_product_drops_central_terms():
    quot = LeftSymProduct(PLAIN, quotient=True)
    assert not quot.has_central and quot.name == "leftsym-quotient"
    assert quot.mul_keys(I(2), I(-2)).is_zero()
    assert quot.mul_keys(L(1), L(-1)) == Element({L(0): Scalar(0, -1)})
    with pytest.raises(ValueError):
        quot.mul_keys(C1, L(0))


def test_vanishing_denominators():
    with pytest.raises(ZeroDenominator):
        LeftSymProduct(LeftSymParams(0, 0, 0))
    prod = LeftSymProduct(LeftSymParams(0, 0, Scalar(Fraction(-1, 2))))
    with pytest.raises(ZeroDenominator):
        prod.mul_keys(L(1), L(1))  # 1 + eps*(1+1) = 0


@pytest.mark.parametrize(
    "params", [PLAIN, TWISTED, LeftSymParams(0, 0, Scalar(0, 1))]
)
def test_associator_symmetry(params):
    product = LeftSymProduct(params)
    report = is_left_symmetric(product, Window(3))
    assert not [c for c in report.counterexamples if c.residual.noncentral()]
    assert report.checked == 4913
    # the identity in fact holds with the central strata included
    report = is_left_symmetric(product, Window(2))
    assert report.passed


class _Perturbed(LeftSymProduct):
    """The product with one L*L constant scaled by (1+i)/2, so that the
    left-symmetric identity fails with non-real residuals."""

    def mul_keys(self, a, b):
        value = super().mul_keys(a, b)
        if (a, b) == (L(1), L(-2)):
            value = value.scaled(Scalar(Fraction(1, 2), Fraction(1, 2)))
        return value


def test_associator_residuals_match_the_element_oracle():
    product = _Perturbed(LeftSymParams(Fraction(1, 2), Scalar(0, 1), Scalar(Fraction(1, 2), 1)))
    keys = product.window_keys(2)
    report = is_left_symmetric(product, Window(2))
    assert report.checked == len(keys) ** 3 and report.skipped == 0
    # the residual written out in Element arithmetic, triple by triple
    mul, basis = product.mul, Element.basis
    expected = []
    for x in keys:
        for y in keys:
            for z in keys:
                residual = (
                    mul(mul(basis(x), basis(y)), basis(z))
                    - mul(basis(x), mul(basis(y), basis(z)))
                    - mul(mul(basis(y), basis(x)), basis(z))
                    + mul(basis(y), mul(basis(x), basis(z)))
                )
                if residual:
                    expected.append(Counterexample((x, y, z), "left-symmetric", residual))
    assert list(report.counterexamples) == expected
    coeffs = [v for c in expected for _, v in c.residual.noncentral().items()]
    assert any(v.im for v in coeffs)


def test_commutator_matches_bracket_outside_two_central_strata():
    residuals = subadjacent_residual(LeftSymProduct(PLAIN), Window(3))
    assert len(residuals) == 289
    nonzero = [r for _, r in residuals if not r.is_zero()]
    assert len(nonzero) == 18
    by_pair = dict(residuals)
    for _, r in residuals:
        assert r.noncentral().is_zero()
        assert not r[C1]
    for m in range(-3, 4):
        assert by_pair[(L(m), I(-m))][C2] == Scalar(2 * m * m)
        assert by_pair[(I(m), I(-m))][C3] == Scalar(-2 * m)
    # the two defective strata are parameter-independent
    twisted = dict(subadjacent_residual(LeftSymProduct(TWISTED), Window(3)))
    for pair, r in by_pair.items():
        assert twisted[pair][C2] == r[C2]
        assert twisted[pair][C3] == r[C3]
    # so on the quotient the commutator is exactly the quotient bracket
    quotient = LeftSymProduct(TWISTED, quotient=True)
    assert not any(r for _, r in subadjacent_residual(quotient, Window(3)))


def test_strata_report_names_a_noncentral_residual():
    residuals = subadjacent_residual(_Perturbed(PLAIN), Window(2))
    lines = render_strata_report(residuals).splitlines()
    assert lines[:2] == ["pairs checked: 169", "pairs with nonzero residual: 14"]
    assert "  (L(1), L(-2)): noncentral (-1+3i)*L(-1)" in lines
    assert "  (L(-2), L(1)): noncentral (1-3i)*L(-1)" in lines


def _grading_map(n_max):
    prod = LeftSymProduct(PLAIN)
    table = {
        k: Element.basis(k, k.index)
        for k in prod.window_keys(n_max, central=False)
    }
    table.update({k: Element.zero() for k in (C1, C2, C3)})
    return TabularMap(table)


def test_grading_map_derives_the_product_and_its_commutator():
    grading = _grading_map(6)
    report = is_derivation(grading, LeftSymProduct(PLAIN), Window(3))
    assert report.passed
    assert report.checked == 289
    assert report.skipped == 0
    for params in (PLAIN, TWISTED):
        report = check_derivation_inheritance(grading, LeftSymProduct(params), Window(3))
        assert report.passed
        assert report.skipped == 0


def test_quotient_biderivation_space_is_trivial_inside():
    quotient = LeftSymProduct(TWISTED, quotient=True)
    for degree in (-1, 0, 1):
        space = interior_projection(
            solve_biderivations(quotient, Window(2), 4, degree=degree), 1
        )
        assert space.dimension == 0
