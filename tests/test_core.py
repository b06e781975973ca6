"""Bracket structure constants, the centerless quotient, and elements."""

import copy
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hvalgebra
from math import isqrt

from hvalgebra.core import (
    BasisKey,
    C1,
    C2,
    C3,
    LIE_HV,
    LIE_W00,
    Element,
    I,
    L,
    Product,
    bracket_keys,
)
from hvalgebra.errors import IndexOverflow
from hvalgebra.leftsym import LeftSymParams, LeftSymProduct
from hvalgebra.scalars import Scalar

HV = LIE_HV
W00 = LIE_W00


def E(key):
    return Element.basis(key)


def test_bracket_frozen_values():
    assert HV.mul_keys(L(2), L(-2)) == Element({L(0): 4, C1: Scalar(1, 0) / 2})
    assert HV.mul_keys(L(1), I(-1)) == Element({I(0): 1, C2: -2})
    assert HV.mul_keys(I(3), I(-3)) == Element({C3: 3})
    assert HV.mul_keys(C1, L(5)).is_zero()
    assert HV.mul_keys(L(1), L(-1)) == Element({L(0): 2})
    assert HV.mul_keys(L(3), L(4)) == Element({L(7): -1})
    assert HV.mul_keys(L(2), I(5)) == Element({I(7): -5})
    assert HV.mul_keys(I(0), I(5)).is_zero()


def test_quotient_bracket_drops_central_terms():
    assert W00.mul_keys(L(2), L(-2)) == Element({L(0): 4})
    assert W00.mul_keys(L(1), I(-1)) == Element({I(0): 1})
    assert W00.mul_keys(I(3), I(-3)).is_zero()


def test_quotient_rejects_central_keys():
    with pytest.raises(ValueError):
        W00.mul_keys(C1, L(0))
    with pytest.raises(ValueError):
        W00.mul(E(L(1)), E(C3))


@pytest.mark.parametrize(
    "product",
    [W00, LeftSymProduct(LeftSymParams(0, 0, Scalar(1, 1)), quotient=True)],
    ids=["lie-w00", "leftsym-quotient"],
)
def test_quotient_refuses_central_arguments(product):
    # on keys and on elements alike, even where the product would be zero
    message = "quotient elements must have no central support"
    for a, b in ((C1, L(0)), (I(2), C3)):
        with pytest.raises(ValueError, match=message):
            product.mul_keys(a, b)
    zero = Element.zero()
    for x, y in ((E(C1), zero), (zero, E(C2)), (E(L(1)), E(C3) + E(L(2)))):
        with pytest.raises(ValueError, match=message):
            product.mul(x, y)


def test_antisymmetry_window_8():
    keys = HV.window_keys(8)
    for a, b in itertools.product(keys, repeat=2):
        assert HV.mul_keys(a, b) == -HV.mul_keys(b, a)


def test_jacobi_window_3_both_kinds():
    for product in (HV, W00):
        keys = product.window_keys(3)
        for a, b, c in itertools.product(keys, repeat=3):
            x, y, z = E(a), E(b), E(c)
            total = (
                product.mul(x, product.mul(y, z))
                + product.mul(y, product.mul(z, x))
                + product.mul(z, product.mul(x, y))
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
    left = HV.mul(x.scaled(a) + y.scaled(b), x + y)
    expanded = (
        HV.mul(x, x).scaled(a)
        + HV.mul(x, y).scaled(a)
        + HV.mul(y, x).scaled(b)
        + HV.mul(y, y).scaled(b)
    )
    assert left == expanded


def test_center_annihilates():
    assert [str(c) for c in HV.center_basis()] == ["I(0)", "C1", "C2", "C3"]
    assert [str(c) for c in W00.center_basis()] == ["I(0)"]
    window = HV.window_keys(6)
    for c in HV.center_basis():
        for b in window:
            assert HV.mul(c, E(b)).is_zero()


def test_quotient_projection_is_a_homomorphism():
    assert Element({L(0): 4, C1: Scalar(1, 0) / 2}).noncentral() == Element({L(0): 4})
    assert E(C3).noncentral().is_zero()
    keys = HV.window_keys(6, central=False)
    for a, b in itertools.product(keys, repeat=2):
        full = HV.mul(E(a), E(b)).noncentral()
        reduced = W00.mul(E(a).noncentral(), E(b).noncentral())
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
    twice = Element({L(1): 4, C2: -2})
    assert Scalar(2) * x == twice and 2 * x == twice
    assert x * Fraction(1, 2) == Element({L(1): 1, C2: Fraction(-1, 2)})
    for op in (lambda: x * "a", lambda: x + 1, lambda: x - 1):
        with pytest.raises(TypeError):
            op()
    assert (x == 0) is False
    # membership reads the support; it must not fall back to indexing
    assert L(1) in x and C1 not in x
    assert len(x) == 2
    assert repr(x) == "<2*L(1) - C2>"


def test_base_product_has_no_rule():
    with pytest.raises(NotImplementedError):
        Product().mul_keys(L(0), L(1))


def test_basis_window_order_and_size():
    keys = HV.window_keys(2)
    assert [str(k) for k in keys] == [
        "L(-2)", "L(-1)", "L(0)", "L(1)", "L(2)",
        "I(-2)", "I(-1)", "I(0)", "I(1)", "I(2)",
        "C1", "C2", "C3",
    ]
    assert len(HV.window_keys(6, central=False)) == 26


def test_index_overflow_guard():
    big = 2**62
    with pytest.raises(IndexOverflow):
        HV.mul_keys(L(big + 1), L(big))
    with pytest.raises(IndexOverflow):
        L(2**63)


def test_bracket_keys_cache_is_bounded():
    maxsize = bracket_keys.cache_info().maxsize
    assert maxsize is not None
    # the last window has more key pairs than the cache holds
    for n_max in (2, 8, isqrt(maxsize) // 4 + 1):
        keys = HV.window_keys(n_max)
        for a in keys:
            for b in keys:
                HV.mul_keys(a, b)
        assert bracket_keys.cache_info().currsize <= maxsize
    assert len(keys) ** 2 > maxsize
    assert bracket_keys.cache_info().currsize == maxsize


def test_basis_key_contract():
    keys = [C3, I(2), L(5), C1, I(-7), L(-1)]
    assert sorted(keys) == [L(-1), L(5), I(-7), I(2), C1, C3]
    assert L(3) == BasisKey("L", 3) and hash(L(3)) == hash(BasisKey("L", 3))
    assert L(3) == (0, 3) and hash(C2) == hash((2, 2))
    assert L(4) != I(4) and I(2) != C2
    assert (str(L(-2)), repr(I(0)), str(C2)) == ("L(-2)", "I(0)", "C2")
    assert (I(-5).family, I(-5).index, I(-5).is_central) == ("I", -5, False)
    assert (C1.family, C1.index, C1.is_central) == ("C", 1, True)
    assert not hasattr(L(0), "__dict__")
    with pytest.raises(ValueError, match="unknown basis family"):
        BasisKey("K", 1)
    with pytest.raises(ValueError, match="C1, C2 and C3"):
        BasisKey("C", 4)
    with pytest.raises(IndexOverflow):
        BasisKey("I", -(2**63) - 1)
    x = Element({L(-2): Scalar(1, 3), C1: 2, I(4): -1})
    for obj in (L(-2), C3, x):
        for clone in (
            pickle.loads(pickle.dumps(obj)),
            copy.copy(obj),
            copy.deepcopy(obj),
        ):
            assert clone == obj and type(clone) is type(obj)
            assert str(clone) == str(obj)


def test_exported_names_resolve():
    for name in hvalgebra.__all__:
        assert getattr(hvalgebra, name) is not None, name
    removed = {"AlgebraKind", "bracket", "bracket_keys", "center_basis",
               "basis_window", "adjoint", "project_w00",
               "quotient_biderivation_space"}
    assert not removed & set(hvalgebra.__all__)
    assert not [name for name in removed if hasattr(hvalgebra, name)]


def test_lie_product_is_exported():
    # InnerAd, evaluate_expression, parse_linear_map_file and
    # central_annihilation all take a LieProduct
    assert "LieProduct" in hvalgebra.__all__
    assert hvalgebra.LieProduct is hvalgebra.core.LieProduct
