"""Text grammar for scalars, elements, eval expressions and map files.

Scalar literals: ``3``, ``-3/2``, ``2i``, ``i``, ``(1-2i)``.  Elements
are signed sums of terms ``[scalar *] basis`` with basis symbols
``L(n)``, ``I(n)``, ``C1``, ``C2``, ``C3``.  Eval expressions extend
elements with the bracket ``[x, y]`` and the left-symmetric product
``x o y`` (loosest binding, left associative).

Linear map files hold lines ``KEY -> ELEMENT`` plus directives
``@inner ELEMENT``, ``@d1/@d2/@d3 SCALAR``, ``@id SCALAR`` and
``@central KEY -> ELEMENT``; bilinear map files hold lines
``(KEY, KEY) -> ELEMENT`` plus ``@inner SCALAR`` and
``@romega { k: SCALAR, ... }``.  ``#`` starts a comment.  One reader
serves both kinds of map file.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .bimaps import BilinearMap, Inner, Omega, ROmega, SumBilinear, TabularBilinear
from .core import LIE_HV, BasisKey, C1, C2, C3, Element, I, L, LieProduct
from .errors import HvError, ParseError
from .linmaps import (
    D1,
    D2,
    D3,
    CentralMap,
    InnerAd,
    LinearMap,
    ScalarId,
    ScaledMap,
    SumMap,
    TabularMap,
)
from .scalars import Scalar

# The deepest expression tree parse_expression accepts.  The parser
# recurses into brackets and evaluation into every level, so deeper input
# is refused as it is read rather than left to exhaust the stack.
MAX_EXPRESSION_DEPTH = 200
_TOO_DEEP = f"expression nested more than {MAX_EXPRESSION_DEPTH} levels deep"


# One match per token, skipping whitespace; a '#' ends the input.
_TOKEN = re.compile(
    r"(?P<sym>->|[-+*/()[\]{},:])|(?P<int>\d+)|(?P<name>[^\W\d_][^\W_]*)"
    r"|(?P<end>#)|(?P<bad>\S)"
)


def _tokenize(text: str):
    tokens = []
    for match in _TOKEN.finditer(text):
        kind, token, at = match.lastgroup, match[0], match.start()
        if kind == "end":
            break
        # a name starts with a letter; \w also matches numerals such as '½'
        if kind == "bad" or (kind == "name" and not token[0].isalpha()):
            raise ParseError(f"unexpected character {token[0]!r}", at)
        tokens.append((kind, token, at))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0  # tree levels of the open brackets
        self.height = 0  # tree height of the expression part parsed last

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        token = self.tokens[self.pos]
        if token[0] != "eof":
            self.pos += 1
        return token

    def expect(self, value: str):
        kind, text, at = self.next()
        if text != value:
            raise ParseError(f"expected {value!r}, found {text or 'end of input'!r}", at)

    def fail(self, message: str):
        raise ParseError(message, self.peek()[2])

    def sign(self):
        """An optional '+' or '-': None if absent, else whether it was '-'."""
        if self.peek()[1] in ("+", "-"):
            return self.next()[1] == "-"
        return None

    def signed_int(self, what: str):
        """[sign] INT, and where the INT is; else 'expected {what}'."""
        negate = self.sign()
        kind, text, at = self.next()
        if kind != "int":
            raise ParseError(f"expected {what}", at)
        return (-int(text) if negate else int(text)), at

    # -- scalars ---------------------------------------------------------

    def rational(self) -> Fraction:
        kind, text, at = self.next()
        if kind != "int":
            raise ParseError(f"expected a number, found {text or 'end of input'!r}", at)
        value = int(text)
        if self.peek()[1] == "/":
            self.next()
            kind, dtext, dat = self.next()
            if kind != "int":
                raise ParseError("expected a denominator", dat)
            denom = int(dtext)
            if denom == 0:
                raise ParseError("zero denominator", dat)
            return Fraction(value, denom)
        return Fraction(value)

    def simple_scalar(self) -> Scalar:
        """INT [/ INT] [i]  |  i"""
        if self.peek()[1] == "i":  # only a name token reads 'i'
            self.next()
            return Scalar(0, 1)
        value = self.rational()
        if self.peek()[1] == "i":
            self.next()
            return Scalar(0, value)
        return Scalar(value)

    def signed_simple(self) -> Scalar:
        negate = False
        while (sign := self.sign()) is not None:
            negate ^= sign
        value = self.simple_scalar()
        return -value if negate else value

    def scalar(self) -> Scalar:
        """A full scalar, possibly parenthesized with two parts."""
        if self.peek()[1] == "(":
            self.next()
            value = self.signed_simple()
            negate = self.sign()
            if negate is not None:
                part = self.simple_scalar()
                value = value - part if negate else value + part
            self.expect(")")
            return value
        return self.signed_simple()

    # -- basis keys & elements --------------------------------------------

    def basis_key(self) -> BasisKey:
        kind, text, at = self.next()
        if kind != "name":
            raise ParseError(f"expected a basis symbol, found {text or 'end of input'!r}", at)
        if text in ("C1", "C2", "C3"):
            return (C1, C2, C3)[int(text[1]) - 1]
        if text in ("L", "I"):
            self.expect("(")
            index, _ = self.signed_int("an index")
            self.expect(")")
            return (L if text == "L" else I)(index)
        raise ParseError(f"unknown basis symbol {text!r}", at)

    def pair(self):
        """(KEY, KEY)"""
        self.expect("(")
        a = self.basis_key()
        self.expect(",")
        b = self.basis_key()
        self.expect(")")
        return a, b

    def terms(self, item):
        """[sign] term {sign term}, term := [scalar *] item, as (negate,
        coeff, item) triples; self.height ends as the tallest item's."""
        out = []
        height = 0
        negate = bool(self.sign())  # the first sign may be left out
        while negate is not None:
            kind, text, _ = self.peek()
            coeff = Scalar(1)
            if kind == "int" or text in ("(", "i"):  # a bare sign is the term's
                coeff = self.scalar() if text == "(" else self.simple_scalar()
                self.expect("*")
            out.append((negate, coeff, item()))
            height = max(height, self.height)
            negate = self.sign()
        self.height = height
        return out

    def element(self) -> Element:
        acc = {}
        for negate, coeff, key in self.terms(self.basis_key):
            acc[key] = acc.get(key, Scalar(0)) + (-coeff if negate else coeff)
        return Element(acc)

    # -- eval expressions ---------------------------------------------------

    def expression(self):
        """expr := additive ('o' additive)*, left associative."""
        node = self.additive()
        height = self.height
        while self.peek()[0] == "name" and self.peek()[1] == "o":
            self.next()
            node = ("dot", node, self.additive())
            height = max(height, self.height) + 1
        if height > MAX_EXPRESSION_DEPTH:
            self.fail(_TOO_DEEP)
        self.height = height
        return node

    def additive(self):
        parts = self.terms(self.atom)
        self.height += 2  # the sum and its scaled terms
        return ("sum", [(negate, ("scaled", c, node)) for negate, c, node in parts])

    def atom(self):
        if self.peek()[1] != "[":
            self.height = 1
            return ("basis", self.basis_key())
        # checked on the way down: a bracket adds a sum, a scaled term and itself
        self.nesting += 3
        if self.nesting > MAX_EXPRESSION_DEPTH:
            self.fail(_TOO_DEEP)
        self.next()
        left = self.expression()
        height = self.height
        self.expect(",")
        right = self.expression()
        self.expect("]")
        self.nesting -= 3
        self.height = max(height, self.height) + 1
        return ("bracket", left, right)

    # -- omega literals ----------------------------------------------------

    def omega(self) -> Omega:
        self.expect("{")
        table = {}
        if self.peek()[1] != "}":
            while True:
                offset, at = self.signed_int("an integer offset")
                if offset in table:
                    raise ParseError(f"duplicate offset {offset}", at)
                self.expect(":")
                table[offset] = self.scalar()
                if self.peek()[1] == ",":
                    self.next()
                    continue
                break
        self.expect("}")
        return Omega(table)


def _parse_all(text: str, rule: str):
    parser = _Parser(text)
    result = getattr(parser, rule)()
    if parser.peek()[0] != "eof":
        parser.fail(f"unexpected trailing input {parser.peek()[1]!r}")
    return result


def parse_scalar(text: str) -> Scalar:
    return _parse_all(text, "scalar")


def parse_element(text: str) -> Element:
    return _parse_all(text, "element")


def parse_basis_key(text: str) -> BasisKey:
    return _parse_all(text, "basis_key")


def parse_expression(text: str):
    return _parse_all(text, "expression")


def parse_omega(text: str) -> Omega:
    return _parse_all(text, "omega")


def evaluate_expression(node, lie: LieProduct, ls_product=None) -> Element:
    """Evaluate a parsed expression: '[x, y]' is the bracket ``lie``, and
    'o' needs a left-symmetric product."""
    tag = node[0]
    if tag == "basis":
        return Element.basis(node[1])
    if tag == "scaled":
        return evaluate_expression(node[2], lie, ls_product).scaled(node[1])
    if tag == "sum":
        out = Element.zero()
        for negate, part in node[1]:
            value = evaluate_expression(part, lie, ls_product)
            out = out - value if negate else out + value
        return out
    if tag == "bracket":
        return lie.mul(
            evaluate_expression(node[1], lie, ls_product),
            evaluate_expression(node[2], lie, ls_product),
        )
    if tag == "dot":
        if ls_product is None:
            raise ValueError(
                "the 'o' product needs left-symmetric parameters (--epsilon)"
            )
        return ls_product.mul(
            evaluate_expression(node[1], lie, ls_product),
            evaluate_expression(node[2], lie, ls_product),
        )
    raise ValueError(f"unknown expression node {tag!r}")


# ---------------------------------------------------------------------------
# Map files.
# ---------------------------------------------------------------------------


def _read_map_file(text: str, directives, argument, usage: str, checks=None):
    """The parts and entry tables of a map file.

    A line '@NAME REST' adds ``directives[NAME](REST)`` to the parts, or,
    where that entry is None, is an entry line of its own table.  A line
    'ARGUMENT -> ELEMENT' is an entry: ``argument`` reads its left side,
    '0' is the zero element, and an argument may be given once per table.
    Tables are keyed by directive name, None for plain entry lines;
    ``checks[NAME](ARGUMENT, ELEMENT)`` vets an entry of table NAME.  Any
    fault a line raises becomes a ParseError that names the line.
    """
    parts = []
    tables = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            name = None
            if line.startswith("@"):
                name, _, line = line.partition(" ")
                line = line.strip()
                if name not in directives:
                    raise ParseError(f"unknown directive {name!r}")
                if directives[name] is not None:
                    parts.append(directives[name](line))
                    continue
            arg_text, arrow, value_text = line.partition("->")
            if not arrow:
                raise ParseError(f"expected {usage!r}")
            table = tables.setdefault(name, {})
            arg = argument(arg_text.strip())
            if arg in table:
                raise ParseError(f"duplicate entry for {arg}")
            value_text = value_text.strip()
            value = Element.zero() if value_text == "0" else parse_element(value_text)
            if checks and name in checks:
                checks[name](arg, value)
            table[arg] = value
        except (HvError, ValueError) as err:
            raise ParseError(f"line {lineno}: {err}") from None
    return parts, tables


def parse_linear_map_file(text: str, lie: LieProduct = LIE_HV) -> LinearMap:
    """Build a linear map from tabular lines and directives; '@inner x' is
    ad(x) under the bracket ``lie``."""
    directives = {
        "@inner": lambda rest: InnerAd(lie, parse_element(rest)),
        "@d1": lambda rest: ScaledMap(D1, parse_scalar(rest)),
        "@d2": lambda rest: ScaledMap(D2, parse_scalar(rest)),
        "@d3": lambda rest: ScaledMap(D3, parse_scalar(rest)),
        "@id": lambda rest: ScalarId(parse_scalar(rest)),
        "@central": None,  # an entry line of its own table
    }
    checks = {"@central": CentralMap.check_value}
    parts, tables = _read_map_file(text, directives, parse_basis_key, "KEY -> ELEMENT", checks)
    if "@central" in tables:
        parts.append(CentralMap(tables["@central"]))
    if None in tables or not parts:
        parts.insert(0, TabularMap(tables.get(None, {})))
    return parts[0] if len(parts) == 1 else SumMap(parts)


def parse_bilinear_map_file(text: str) -> BilinearMap:
    """Build a bilinear map from tabular pair lines and directives."""
    directives = {
        "@inner": lambda rest: Inner(parse_scalar(rest)),
        "@romega": lambda rest: ROmega(parse_omega(rest)),
    }
    parts, tables = _read_map_file(
        text, directives, lambda arg: _parse_all(arg, "pair"), "(KEY, KEY) -> ELEMENT"
    )
    if None in tables:
        keys = {key for pair in tables[None] for key in pair}
        parts.insert(0, TabularBilinear(tables[None], [(a, b) for a in keys for b in keys]))
    if not parts:
        raise ParseError("empty bilinear map file")
    return parts[0] if len(parts) == 1 else SumBilinear(parts)
