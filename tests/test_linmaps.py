"""Linear maps: structured derivations, the axiom checker, decomposition."""

import random

import pytest

from hvalgebra.core import (
    LIE_HV,
    LIE_W00,
    AlgebraKind,
    C1,
    Element,
    I,
    L,
    basis_window,
)
from hvalgebra.errors import DomainNotCovered, NotCentral
from hvalgebra.linmaps import (
    D1,
    D2,
    D3,
    CentralMap,
    InnerAd,
    ScalarId,
    ScaledMap,
    SumMap,
    TabularMap,
    Window,
    decompose_derivation,
    is_derivation,
    tabulate,
)
from hvalgebra.scalars import Scalar


def E(key):
    return Element.basis(key)


def test_window_validation():
    assert Window(3).interior() == Window(2)
    with pytest.raises(ValueError):
        Window(0)


def test_outer_derivation_values():
    assert D1.apply_key(L(4)).is_zero()
    assert D1.apply_key(I(4)) == E(I(4))
    assert D2.apply_key(L(4)) == Element({I(4): 3})
    assert D2.apply_key(I(4)).is_zero()
    assert D3.apply_key(L(4)) == Element({I(4): 4})
    assert D3.apply_key(L(0)).is_zero()
    for d in (D1, D2, D3):
        assert d.apply_key(C1).is_zero()


def test_outer_maps_are_quotient_derivations():
    for d in (D1, D2, D3):
        report = is_derivation(d, LIE_W00, Window(4))
        assert report.passed
        assert report.checked == 18 * 18
        assert report.skipped == 0


def test_scaled_identity_is_not_a_derivation():
    report = is_derivation(ScalarId(1), LIE_HV, Window(2))
    assert not report.passed
    first = report.counterexamples[0]
    assert first.equation == "leibniz"
    # d[x,y] - [dx,y] - [x,dy] = -[x,y] for the identity map
    assert first.inputs == (L(-2), L(-1))
    assert first.residual == Element({L(-3): 1})


def test_inner_maps_are_derivations():
    x = Element({L(1): 2, I(-2): -3, C1: 1})
    report = is_derivation(InnerAd(AlgebraKind.HV, x), LIE_HV, Window(3))
    assert report.passed
    with pytest.raises(ValueError):
        InnerAd(AlgebraKind.W00, E(C1))


def test_central_map_validates_values():
    m = CentralMap({L(0): Element({C1: 1, I(0): 2})})
    assert m.apply_key(L(0)) == Element({C1: 1, I(0): 2})
    assert m.apply_key(L(5)).is_zero()
    with pytest.raises(NotCentral):
        CentralMap({L(0): E(L(0))})


def test_tabular_map_domain():
    m = TabularMap({L(1): E(I(1))}, domain=[L(1)])
    assert not m.covers(L(2))
    with pytest.raises(DomainNotCovered):
        m.apply_key(L(2))
    report = is_derivation(m, LIE_HV, Window(2))
    # every pair involving an uncovered key is skipped, not failed
    assert report.skipped > 0


def test_tabulate_and_sums():
    m = SumMap((ScaledMap(D3, Scalar(2)), D1))
    keys = basis_window(2, include_central=False)
    tab = tabulate(m, keys)
    assert tab.apply_key(L(2)) == Element({I(2): 4})
    assert tab.apply_key(I(-1)) == E(I(-1))


def _random_element(rng, n_max, skip_i0=True):
    keys = [k for k in basis_window(n_max, include_central=False)]
    coeffs = {}
    for k in rng.sample(keys, rng.randrange(1, 5)):
        if skip_i0 and k == I(0):
            continue
        coeffs[k] = Scalar(rng.randint(-6, 6), rng.randint(-3, 3))
    return Element(coeffs)


def test_decomposition_round_trip():
    rng = random.Random(11)
    window = Window(4)
    for _ in range(20):
        x = _random_element(rng, 6)
        a, b, c = (Scalar(rng.randint(-5, 5), rng.randint(-2, 2)) for _ in range(3))
        d = SumMap(
            (
                InnerAd(AlgebraKind.W00, x),
                ScaledMap(D1, a),
                ScaledMap(D2, b),
                ScaledMap(D3, c),
            )
        )
        got = decompose_derivation(d, window)
        assert got is not None
        assert got.inner == x
        assert (got.d1_coeff, got.d2_coeff, got.d3_coeff) == (a, b, c)
        # and the decomposition literally reassembles the map
        rebuilt = got.as_map()
        for key in basis_window(3, include_central=False):
            assert rebuilt.apply_key(key) == d.apply_key(key)


def test_decompose_pins_the_inner_part_mod_center():
    d = InnerAd(AlgebraKind.W00, E(I(0)))
    got = decompose_derivation(d, Window(3))
    assert got is not None
    assert got.inner.is_zero()  # ad I(0) = 0, so the witness is normalized


def test_decompose_shift_table():
    # L_n -> I_n, I_n -> 0 equals d3 - d2 exactly
    table = {}
    for n in range(-4, 5):
        table[L(n)] = E(I(n))
        table[I(n)] = Element.zero()
    d = TabularMap(table, domain=list(table))
    got = decompose_derivation(d, Window(4))
    assert got is not None
    assert got.inner.is_zero()
    assert (got.d1_coeff, got.d2_coeff, got.d3_coeff) == (
        Scalar(0),
        Scalar(-1),
        Scalar(1),
    )


def test_decompose_rejects_non_derivations():
    table = {}
    for n in range(-4, 5):
        table[L(n)] = E(L(n))
        table[I(n)] = Element.zero()
    d = TabularMap(table, domain=list(table))
    assert decompose_derivation(d, Window(4)) is None


def test_decompose_needs_coverage_and_room():
    with pytest.raises(ValueError):
        decompose_derivation(D1, Window(2))
    partial = TabularMap({L(0): Element.zero()}, domain=[L(0)])
    with pytest.raises(DomainNotCovered):
        decompose_derivation(partial, Window(3))


def test_derivation_check_is_parallel_safe():
    report1 = is_derivation(D2, LIE_W00, Window(4))
    report2 = is_derivation(D2, LIE_W00, Window(4))
    assert report1.passed and report2.passed
    assert report1.checked == report2.checked
