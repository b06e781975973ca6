"""Bracket structure constants, the centerless quotient, and elements."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvalgebra.core import (
    C1,
    C2,
    C3,
    LIE_HV,
    LIE_W00,
    AlgebraKind,
    Element,
    I,
    L,
    basis_window,
    bracket,
    bracket_keys,
    center_basis,
    project_w00,
)
from hvalgebra.errors import IndexOverflow
from hvalgebra.linmaps import adjoint
from hvalgebra.scalars import Scalar

HV = AlgebraKind.HV
W00 = AlgebraKind.W00


def E(key):
    return Element.basis(key)


def test_bracket_frozen_values():
    assert bracket_keys(HV, L(2), L(-2)) == Element({L(0): 4, C1: Scalar(1, 0) / 2})
    assert bracket_keys(HV, L(1), I(-1)) == Element({I(0): 1, C2: -2})
    assert bracket_keys(HV, I(3), I(-3)) == Element({C3: 3})
    assert bracket_keys(HV, C1, L(5)).is_zero()
    assert bracket_keys(HV, L(1), L(-1)) == Element({L(0): 2})
    assert bracket_keys(HV, L(3), L(4)) == Element({L(7): -1})
    assert bracket_keys(HV, L(2), I(5)) == Element({I(7): -5})
    assert bracket_keys(HV, I(0), I(5)).is_zero()


def test_quotient_bracket_drops_central_terms():
    assert bracket_keys(W00, L(2), L(-2)) == Element({L(0): 4})
    assert bracket_keys(W00, L(1), I(-1)) == Element({I(0): 1})
    assert bracket_keys(W00, I(3), I(-3)).is_zero()


def test_quotient_rejects_central_keys():
    with pytest.raises(ValueError):
        bracket_keys(W00, C1, L(0))
    with pytest.raises(ValueError):
        bracket(W00, E(L(1)), E(C3))


def test_kind_arguments_reject_a_product():
    cached = bracket_keys.cache_info().currsize
    calls = [
        lambda: bracket_keys(LIE_W00, C1, L(1)),
        lambda: bracket_keys(LIE_HV, L(1), L(2)),
        lambda: bracket(LIE_HV, E(L(1)), E(L(2))),
        lambda: center_basis(LIE_HV),
        lambda: adjoint(LIE_W00, E(L(1))),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="expected an AlgebraKind, got LieProduct"):
            call()
    assert bracket_keys.cache_info().currsize == cached


def test_antisymmetry_window_8():
    keys = basis_window(8, include_central=True)
    for a, b in itertools.product(keys, repeat=2):
        assert bracket_keys(HV, a, b) == -bracket_keys(HV, b, a)


def test_jacobi_window_3_both_kinds():
    for kind in (HV, W00):
        keys = basis_window(3, include_central=kind is HV)
        for a, b, c in itertools.product(keys, repeat=3):
            x, y, z = E(a), E(b), E(c)
            total = (
                bracket(kind, x, bracket(kind, y, z))
                + bracket(kind, y, bracket(kind, z, x))
                + bracket(kind, z, bracket(kind, x, y))
            )
            assert total.is_zero(), (a, b, c)


small_elements = st.dictionaries(
    st.sampled_from([L(-2), L(0), L(1), I(-1), I(2)]),
    st.builds(Scalar, st.integers(-9, 9), st.integers(-9, 9)),
    max_size=3,
).map(Element)


@settings(max_examples=50)
@given(small_elements, small_elements, st.integers(-9, 9), st.integers(-9, 9))
def test_bracket_bilinearity(x, y, a, b):
    left = bracket(HV, x.scaled(a) + y.scaled(b), x + y)
    expanded = (
        bracket(HV, x, x).scaled(a)
        + bracket(HV, x, y).scaled(a)
        + bracket(HV, y, x).scaled(b)
        + bracket(HV, y, y).scaled(b)
    )
    assert left == expanded


def test_center_annihilates():
    assert [str(c) for c in center_basis(HV)] == ["I(0)", "C1", "C2", "C3"]
    assert [str(c) for c in center_basis(W00)] == ["I(0)"]
    window = basis_window(6, include_central=True)
    for c in center_basis(HV):
        for b in window:
            assert bracket(HV, c, E(b)).is_zero()


def test_quotient_projection_is_a_homomorphism():
    assert project_w00(Element({L(0): 4, C1: Scalar(1, 0) / 2})) == Element({L(0): 4})
    assert project_w00(E(C3)).is_zero()
    keys = basis_window(6, include_central=False)
    for a, b in itertools.product(keys, repeat=2):
        full = project_w00(bracket(HV, E(a), E(b)))
        reduced = bracket(W00, project_w00(E(a)), project_w00(E(b)))
        assert full == reduced, (a, b)


def test_element_text_is_canonical():
    x = Element({L(0): 4, C1: Scalar(1, 0) / 2})
    assert str(x) == "4*L(0) + 1/2*C1"
    assert str(Element({L(3): -1})) == "-L(3)"
    assert str(Element.zero()) == "0"
    assert str(Element({I(-2): Scalar(0, 2), L(3): -1})) == "-L(3) + 2i*I(-2)"
    assert str(Element({I(0): Scalar(1, 2)})) == "(1+2i)*I(0)"


def test_element_algebra():
    x = Element({L(1): 2, C2: -1})
    y = Element({L(1): -2, I(0): 3})
    assert (x + y) == Element({C2: -1, I(0): 3})
    assert (x - x).is_zero()
    assert x.scaled(0).is_zero()
    assert (-x).scaled(-1) == x
    assert x[L(1)] == Scalar(2) and x[C3] == Scalar(0)
    assert x.noncentral() == Element({L(1): 2})
    assert x.central() == Element({C2: -1})
    assert x.has_central_support()
    # I(0) spans the algebra's center but is an ordinary basis key
    assert not y.has_central_support()


def test_basis_window_order_and_size():
    keys = basis_window(2, include_central=True)
    assert [str(k) for k in keys] == [
        "L(-2)", "L(-1)", "L(0)", "L(1)", "L(2)",
        "I(-2)", "I(-1)", "I(0)", "I(1)", "I(2)",
        "C1", "C2", "C3",
    ]
    assert len(basis_window(6, include_central=False)) == 26


def test_index_overflow_guard():
    big = 2**62
    with pytest.raises(IndexOverflow):
        bracket_keys(HV, L(big + 1), L(big))
    with pytest.raises(IndexOverflow):
        L(2**63)
