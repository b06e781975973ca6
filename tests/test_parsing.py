"""The text grammar: scalars, elements, expressions, omega tables, map files."""

import re
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hvalgebra.bimaps import Inner, Omega, ROmega, SumBilinear, TabularBilinear
from hvalgebra.core import C1, C2, C3, Element, I, L, LIE_HV, LIE_W00
from hvalgebra.errors import DomainNotCovered, ParseError
from hvalgebra.leftsym import LeftSymParams, LeftSymProduct
from hvalgebra.linmaps import CentralMap, SumMap, TabularMap
from hvalgebra.parsing import (
    MAX_EXPRESSION_DEPTH,
    evaluate_expression,
    parse_basis_key,
    parse_bilinear_map_file,
    parse_element,
    parse_linear_map_file,
    parse_omega,
    parse_scalar,
)
from hvalgebra.scalars import Scalar

fractions = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=97
)


@given(fractions, fractions)
def test_scalar_round_trip(re, im):
    value = Scalar(re, im)
    assert parse_scalar(f"({value})") == value


@pytest.mark.parametrize(
    "text, value",
    [
        ("3", Scalar(3)),
        ("-3/2", Scalar(Fraction(-3, 2))),
        ("i", Scalar(0, 1)),
        ("-i", Scalar(0, -1)),
        ("2i", Scalar(0, 2)),
        ("(1-2i)", Scalar(1, -2)),
        ("(-1/2+1/2i)", Scalar(Fraction(-1, 2), Fraction(1, 2))),
        ("--2", Scalar(2)),
        ("(0)", Scalar(0)),
    ],
)
def test_scalar_forms(text, value):
    assert parse_scalar(text) == value


@pytest.mark.parametrize("text", ["1/0", "3/", "(1+", "1-2i", "2 2", ""])
def test_scalar_rejects(text):
    with pytest.raises(ParseError):
        parse_scalar(text)


keys = st.one_of(
    st.integers(-4, 4).map(L),
    st.integers(-4, 4).map(I),
    st.sampled_from([C1, C2]),
)
scalars = st.builds(Scalar, fractions, fractions).filter(bool)


@given(st.dictionaries(keys, scalars, min_size=1, max_size=4))
def test_element_round_trip(coeffs):
    element = Element(coeffs)
    assert parse_element(str(element)) == element


def test_element_forms():
    assert parse_element("4*L(0) + 1/2*C1") == Element(
        {L(0): 4, C1: Scalar(Fraction(1, 2))}
    )
    assert parse_element("-L(3) + 2i*I(-2)") == Element(
        {L(3): -1, I(-2): Scalar(0, 2)}
    )
    assert parse_element("(1+2i)*I(0)") == Element({I(0): Scalar(1, 2)})
    assert parse_element("L(1) - L(1)").is_zero()


def test_basis_key_forms():
    assert parse_basis_key("L(-3)") == L(-3)
    assert parse_basis_key("I(+2)") == I(2)
    assert parse_basis_key("C2") == C2
    with pytest.raises(ParseError, match="unknown basis symbol"):
        parse_basis_key("C4")
    with pytest.raises(ParseError, match="expected an index"):
        parse_basis_key("L(x)")
    with pytest.raises(ParseError, match="trailing"):
        parse_basis_key("L(1) L(2)")


def test_error_positions():
    with pytest.raises(ParseError) as err:
        parse_element("2*L(1) + $")
    assert err.value.position == 9
    with pytest.raises(ParseError, match="zero denominator"):
        parse_scalar("1/0")


def test_a_hash_ends_the_input():
    assert parse_element("2*L(1) # note") == parse_element("2*L(1)")
    assert parse_element("L(1) #") == Element.basis(L(1))
    assert _eval("[L(1), I(2)] # + $") == _eval("[L(1), I(2)]")


def test_expression_depth_is_bounded():
    # an n-term 'o' chain is n - 1 products over a sum, a scaled term and
    # a basis symbol; each bracket adds a sum, a scaled term and itself
    ls = LeftSymProduct(LeftSymParams(0, 0, Scalar(1, 1)))
    chain = " o ".join(["L(1)"] * (MAX_EXPRESSION_DEPTH - 2))
    _eval(chain, ls_product=ls)
    with pytest.raises(ParseError, match="levels deep"):
        _eval(chain + " o L(1)", ls_product=ls)
    nest = (MAX_EXPRESSION_DEPTH - 3) // 3
    expected = Element.basis(I(1))
    for _ in range(nest):
        expected = LIE_HV.mul(Element.basis(L(1)), expected)
    assert _eval("[L(1), " * nest + "I(1)" + "]" * nest) == expected
    # one more is refused once read, two more while the parser descends
    for deeper in (nest + 1, nest + 2):
        with pytest.raises(ParseError, match="levels deep"):
            _eval("[" * deeper + "L(0)" + ", L(1)]" * deeper)


def test_an_over_long_chain_is_refused_before_it_is_multiplied_out():
    class Counting(LeftSymProduct):
        calls = 0

        def mul(self, x, y):
            Counting.calls += 1
            return super().mul(x, y)

    chain = " o ".join(["L(1)"] * (MAX_EXPRESSION_DEPTH - 1))
    with pytest.raises(ParseError, match="levels deep"):
        _eval(chain, ls_product=Counting(LeftSymParams(0, 0, Scalar(1, 1))))
    assert Counting.calls <= MAX_EXPRESSION_DEPTH - 2


def _eval(text, lie=LIE_HV, ls_product=None):
    return evaluate_expression(text, lie, ls_product)


def test_expression_evaluation():
    assert _eval("[L(2), L(-2)]") == Element({L(0): 4, C1: Scalar(Fraction(1, 2))})
    assert _eval("[L(2), L(-2)]", LIE_W00) == Element({L(0): 4})
    assert _eval("[L(1), [L(1), I(-2)]]") == Element({I(0): 2, C2: -4})
    assert _eval("3*[L(1), L(2)] - 2*L(3)") == Element({L(3): -5})
    assert _eval("2i*I(1) + [I(3), I(-3)]") == Element({I(1): Scalar(0, 2), C3: 3})


def test_dot_product_expressions():
    ls = LeftSymProduct(LeftSymParams(0, 0, Scalar(1, 1)))
    assert _eval("L(1) o L(1)", ls_product=ls) == Element(
        {L(2): Scalar(Fraction(-8, 13), Fraction(1, 13))}
    )
    # 'o' binds loosest: the right factor is the whole sum
    direct = ls.mul(Element.basis(L(1)), Element.basis(L(1)) + Element.basis(L(2)))
    assert _eval("L(1) o L(1) + L(2)", ls_product=ls) == direct
    # and associates to the left
    left = ls.mul(ls.mul(Element.basis(I(1)), Element.basis(L(-1))), Element.basis(L(0)))
    assert _eval("I(1) o L(-1) o L(0)", ls_product=ls) == left
    with pytest.raises(ValueError, match="left-symmetric"):
        _eval("L(1) o L(1)")


def test_omega_literals():
    om = parse_omega("{ -1: 2, 0: 1/3 }")
    assert om == Omega({-1: 2, 0: Fraction(1, 3)})
    assert parse_omega(str(om)) == om
    assert parse_omega("{}").is_zero()
    assert parse_omega("{ 2: (1+1i) }")[2] == Scalar(1, 1)
    with pytest.raises(ParseError, match="expected an integer offset"):
        parse_omega("{ L(1): 2 }")


def test_linear_map_file():
    text = """
    # table rows, then directives
    L(0) -> 2*L(0)
    I(1) -> 0
    @id 3
    @d3 (1+1i)
    @central L(0) -> C1 + 2*C2
    @inner L(1)
    """
    phi = parse_linear_map_file(text)
    assert isinstance(phi, SumMap)
    with pytest.raises(DomainNotCovered):
        phi.apply_key(L(2))
    # 2*L(0) + 3*L(0) + (1+i)*0 + [L(1), L(0)] + (C1 + 2*C2)
    assert phi(Element.basis(L(0))) == Element(
        {L(0): 5, L(1): 1, C1: 1, C2: 2}
    )
    # I(1): 0 + 3*I(1) + (1+i)*0 + [L(1), I(1)]
    assert phi(Element.basis(I(1))) == Element({I(1): 3, I(2): -1})


def test_linear_map_file_single_directive():
    phi = parse_linear_map_file("@central I(0) -> 2*C3")
    assert isinstance(phi, CentralMap)
    assert phi(Element.basis(I(0))) == Element({C3: 2})
    # '0' is the zero value on '@central' lines as on table lines
    assert parse_linear_map_file("@central I(0) -> 0")(Element.basis(I(0))).is_zero()
    phi = parse_linear_map_file("")
    assert isinstance(phi, TabularMap)
    with pytest.raises(DomainNotCovered):
        phi.apply_key(L(0))


def test_linear_map_file_errors():
    with pytest.raises(ParseError, match="line 2"):
        parse_linear_map_file("L(0) -> L(0)\nL(1) ->")
    with pytest.raises(ParseError, match="unknown directive"):
        parse_linear_map_file("@spin 3")
    with pytest.raises(ParseError, match="line 1"):
        parse_linear_map_file("X -> L(0)")


def test_bilinear_map_file():
    text = """
    (L(1), L(2)) -> I(3)
    (L(2), L(1)) -> I(3)
    @inner 2
    @romega { 0: 1 }
    """
    f = parse_bilinear_map_file(text)
    assert isinstance(f, SumBilinear)
    # I(3) + 2*[L(1), L(2)] + I(3)
    assert f.eval_keys(LIE_HV, L(1), L(2)) == Element({I(3): 2, L(3): -2})
    with pytest.raises(DomainNotCovered):
        f.eval_keys(LIE_HV, L(1), L(3))

    only = parse_bilinear_map_file("@romega { 1: 2 }")
    assert isinstance(only, ROmega)
    inner = parse_bilinear_map_file("@inner -1/2")
    assert isinstance(inner, Inner)
    table = parse_bilinear_map_file("(I(1), I(-1)) -> C3")
    assert isinstance(table, TabularBilinear)


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_linear_map_file, "L(1) -> I(1)\nL(1) -> I(2)\n",
         "line 2: duplicate entry for L(1)"),
        (parse_linear_map_file, "@central L(0) -> C1\n@central L(0) -> C2\n",
         "line 2: duplicate entry for L(0)"),
        (parse_bilinear_map_file, "(L(1), L(2)) -> I(3)\n(L(1), L(2)) -> I(4)\n",
         "line 2: duplicate entry for (L(1), L(2))"),
        (parse_omega, "{ 0: 1, 0: 2 }", "duplicate offset 0"),
    ],
    ids=["table", "central", "pair", "omega"],
)
def test_duplicate_entries_are_rejected(parse, text, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse(text)


def test_bilinear_map_file_errors():
    with pytest.raises(ParseError, match="empty bilinear map file"):
        parse_bilinear_map_file("# nothing here\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_bilinear_map_file("L(1), L(2) -> I(3)")


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_linear_map_file, "L(0) -> L(0)\nL(1)", "line 2: expected 'KEY -> ELEMENT'"),
        (parse_linear_map_file, "@central L(0) C1", "line 1: expected 'KEY -> ELEMENT'"),
        (parse_linear_map_file, "@spin 3", "line 1: unknown directive '@spin'"),
        (parse_linear_map_file, "X -> L(0)",
         "line 1: unknown basis symbol 'X' (at position 0)"),
        (parse_linear_map_file, "L(0) -> 2*L(x)", "line 1: expected an index (at position 4)"),
        (parse_linear_map_file, "@d1 x", "line 1: expected a number, found 'x' (at position 0)"),
        (parse_linear_map_file, "L(1) -> I(1)\nL(1) -> I(2)\n",
         "line 2: duplicate entry for L(1)"),
        (parse_linear_map_file, "@central L(0) -> C1\n@central L(0) -> C2\n",
         "line 2: duplicate entry for L(0)"),
        (parse_bilinear_map_file, "(L(1), L(2)) -> I(3)\n(L(1), L(2))",
         "line 2: expected '(KEY, KEY) -> ELEMENT'"),
        (parse_bilinear_map_file, "@central L(0) -> C1",
         "line 1: unknown directive '@central'"),
        (parse_bilinear_map_file, "L(1), L(2) -> I(3)",
         "line 1: expected '(', found 'L' (at position 0)"),
        (parse_bilinear_map_file, "(L(1), X) -> I(3)",
         "line 1: unknown basis symbol 'X' (at position 7)"),
        (parse_bilinear_map_file, "(L(1), L(2)) -> I(3) +",
         "line 1: expected a basis symbol, found 'end of input' (at position 6)"),
        (parse_bilinear_map_file, "(L(1), L(2)) -> I(3)\n(L(1), L(2)) -> I(4)\n",
         "line 2: duplicate entry for (L(1), L(2))"),
        (parse_bilinear_map_file, "(L(1), L(2)) L(3) -> I(3)",
         "line 1: unexpected trailing input 'L' (at position 13)"),
        (parse_bilinear_map_file, "@romega { 1: 2, 1: 3 }",
         "line 1: duplicate offset 1 (at position 8)"),
        (parse_bilinear_map_file, "# nothing here\n", "empty bilinear map file"),
        (parse_linear_map_file, "L(0) -> L(0)\nL(99999999999999999999) -> L(0)",
         "line 2: index 99999999999999999999 outside the signed 64-bit range"),
        (parse_linear_map_file, "L(0) -> L(0)\n@central L(1) -> L(1)\nL(1) -> 0",
         "line 2: value at L(1) is not central: L(1)"),
        (partial(parse_linear_map_file, lie=LIE_W00), "@inner C1",
         "line 1: quotient elements must have no central support"),
    ],
    ids=[
        "linear-arrow", "central-arrow", "linear-directive", "linear-key",
        "linear-value", "linear-directive-value", "linear-duplicate",
        "central-duplicate", "bilinear-arrow", "bilinear-directive",
        "bilinear-key", "bilinear-key-name", "bilinear-value",
        "bilinear-duplicate", "bilinear-trailing", "bilinear-directive-value",
        "bilinear-empty", "linear-index-overflow", "central-not-central",
        "linear-inner-quotient",
    ],
)
def test_map_file_error_messages(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message
