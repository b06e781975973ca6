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
``@romega { k: SCALAR, ... }``.  ``#`` starts a comment.
"""

from __future__ import annotations

from fractions import Fraction

from .bimaps import BilinearMap, Inner, Omega, ROmega, SumBilinear, TabularBilinear
from .core import LIE_HV, BasisKey, C1, C2, C3, Element, I, L, LieProduct
from .errors import ParseError
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


def _tokenize(text: str):
    tokens = []
    pos = 0
    size = len(text)
    while pos < size:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch == "#":
            break
        if text.startswith("->", pos):
            tokens.append(("sym", "->", pos))
            pos += 2
            continue
        if ch in "+-*/()[]{},:":
            tokens.append(("sym", ch, pos))
            pos += 1
            continue
        if ch.isdigit():
            end = pos
            while end < size and text[end].isdigit():
                end += 1
            tokens.append(("int", text[pos:end], pos))
            pos = end
            continue
        if ch.isalpha():
            end = pos
            while end < size and text[end].isalnum():
                end += 1
            tokens.append(("name", text[pos:end], pos))
            pos = end
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("eof", "", size))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
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

    def at_end(self) -> bool:
        return self.peek()[0] == "eof"

    def fail(self, message: str):
        raise ParseError(message, self.peek()[2])

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
        kind, text, at = self.peek()
        if kind == "name" and text == "i":
            self.next()
            return Scalar(0, 1)
        value = self.rational()
        kind, text, _ = self.peek()
        if kind == "name" and text == "i":
            self.next()
            return Scalar(0, value)
        return Scalar(value)

    def signed_simple(self) -> Scalar:
        sign = 1
        while self.peek()[1] in ("+", "-"):
            if self.next()[1] == "-":
                sign = -sign
        value = self.simple_scalar()
        return -value if sign < 0 else value

    def scalar(self) -> Scalar:
        """A full scalar, possibly parenthesized with two parts."""
        if self.peek()[1] == "(":
            self.next()
            value = self.signed_simple()
            if self.peek()[1] in ("+", "-"):
                negate = self.next()[1] == "-"
                part = self.simple_scalar()
                value = value - part if negate else value + part
            self.expect(")")
            return value
        return self.signed_simple()

    def scalar_factor(self) -> Scalar:
        """A scalar usable inside a term (no bare leading sign)."""
        if self.peek()[1] == "(":
            return self.scalar()
        return self.simple_scalar()

    # -- basis keys & elements --------------------------------------------

    def basis_key(self) -> BasisKey:
        kind, text, at = self.next()
        if kind != "name":
            raise ParseError(f"expected a basis symbol, found {text or 'end of input'!r}", at)
        if text in ("C1", "C2", "C3"):
            return (C1, C2, C3)[int(text[1]) - 1]
        if text in ("L", "I"):
            self.expect("(")
            sign = 1
            if self.peek()[1] in ("+", "-"):
                if self.next()[1] == "-":
                    sign = -1
            kind, itext, iat = self.next()
            if kind != "int":
                raise ParseError("expected an index", iat)
            self.expect(")")
            return (L if text == "L" else I)(sign * int(itext))
        raise ParseError(f"unknown basis symbol {text!r}", at)

    def _starts_scalar(self) -> bool:
        kind, text, _ = self.peek()
        return kind == "int" or text == "(" or (kind == "name" and text == "i")

    def element_term(self):
        if self._starts_scalar():
            coeff = self.scalar_factor()
            self.expect("*")
            return coeff, self.basis_key()
        return Scalar(1), self.basis_key()

    def element(self) -> Element:
        acc = {}
        negate = False
        if self.peek()[1] in ("+", "-"):
            negate = self.next()[1] == "-"
        while True:
            coeff, key = self.element_term()
            if negate:
                coeff = -coeff
            acc[key] = acc.get(key, Scalar(0)) + coeff
            kind, text, _ = self.peek()
            if text in ("+", "-"):
                negate = self.next()[1] == "-"
                continue
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
        parts = []
        height = 0
        negate = False
        if self.peek()[1] in ("+", "-"):
            negate = self.next()[1] == "-"
        while True:
            parts.append((negate, self.atom_term()))
            height = max(height, self.height)
            kind, text, _ = self.peek()
            if text in ("+", "-"):
                negate = self.next()[1] == "-"
                continue
            self.height = height + 2  # the sum and its scaled terms
            return ("sum", parts)

    def atom_term(self):
        if self._starts_scalar():
            coeff = self.scalar_factor()
            self.expect("*")
            return ("scaled", coeff, self.atom())
        return ("scaled", Scalar(1), self.atom())

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
                sign = 1
                if self.peek()[1] in ("+", "-"):
                    if self.next()[1] == "-":
                        sign = -1
                kind, text, at = self.next()
                if kind != "int":
                    raise ParseError("expected an integer offset", at)
                offset = sign * int(text)
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
    if not parser.at_end():
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


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _no_duplicate(table, key):
    """A key (or key pair) may be given once; a second value is an error."""
    if key in table:
        raise ParseError(f"duplicate entry for {key}")


def parse_linear_map_file(text: str, lie: LieProduct = LIE_HV) -> LinearMap:
    """Build a linear map from tabular lines and directives; '@inner x' is
    ad(x) under the bracket ``lie``."""
    table = {}
    central = {}
    parts = []
    for lineno, line in _content_lines(text):
        try:
            if line.startswith("@"):
                directive, _, rest = line.partition(" ")
                rest = rest.strip()
                if directive == "@inner":
                    parts.append(InnerAd(lie, parse_element(rest)))
                elif directive in ("@d1", "@d2", "@d3"):
                    base = {"@d1": D1, "@d2": D2, "@d3": D3}[directive]
                    parts.append(ScaledMap(base, parse_scalar(rest)))
                elif directive == "@id":
                    parts.append(ScalarId(parse_scalar(rest)))
                elif directive == "@central":
                    key_text, arrow, value_text = rest.partition("->")
                    if not arrow:
                        raise ParseError("expected 'KEY -> ELEMENT'")
                    key = parse_basis_key(key_text.strip())
                    _no_duplicate(central, key)
                    central[key] = parse_element(value_text.strip())
                else:
                    raise ParseError(f"unknown directive {directive!r}")
            else:
                key_text, arrow, value_text = line.partition("->")
                if not arrow:
                    raise ParseError("expected 'KEY -> ELEMENT'")
                key = parse_basis_key(key_text.strip())
                _no_duplicate(table, key)
                value_text = value_text.strip()
                value = Element.zero() if value_text == "0" else parse_element(value_text)
                table[key] = value
        except ParseError as err:
            raise ParseError(f"line {lineno}: {err}") from None
    if central:
        parts.append(CentralMap(central))
    if table or not parts:
        parts.insert(0, TabularMap(table))
    if len(parts) == 1:
        return parts[0]
    return SumMap(parts)


def parse_bilinear_map_file(text: str) -> BilinearMap:
    """Build a bilinear map from tabular pair lines and directives."""
    table = {}
    arg_keys = set()
    parts = []
    for lineno, line in _content_lines(text):
        try:
            if line.startswith("@"):
                directive, _, rest = line.partition(" ")
                rest = rest.strip()
                if directive == "@inner":
                    parts.append(Inner(parse_scalar(rest)))
                elif directive == "@romega":
                    parts.append(ROmega(parse_omega(rest)))
                else:
                    raise ParseError(f"unknown directive {directive!r}")
            else:
                pair_text, arrow, value_text = line.partition("->")
                if not arrow:
                    raise ParseError("expected '(KEY, KEY) -> ELEMENT'")
                parser = _Parser(pair_text.strip())
                parser.expect("(")
                a = parser.basis_key()
                parser.expect(",")
                b = parser.basis_key()
                parser.expect(")")
                if not parser.at_end():
                    parser.fail("unexpected trailing input")
                _no_duplicate(table, (a, b))
                value_text = value_text.strip()
                value = Element.zero() if value_text == "0" else parse_element(value_text)
                table[(a, b)] = value
                arg_keys.update((a, b))
        except ParseError as err:
            raise ParseError(f"line {lineno}: {err}") from None
    if table:
        pairs = [(a, b) for a in arg_keys for b in arg_keys]
        parts.insert(0, TabularBilinear(table, pairs))
    if not parts:
        raise ParseError("empty bilinear map file")
    if len(parts) == 1:
        return parts[0]
    return SumBilinear(parts)
