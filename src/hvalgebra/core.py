"""Basis symbols, sparse elements, and the Lie brackets.

The algebra has basis {L(n), I(n) : n integer} together with three
central symbols C1, C2, C3, and bracket (for integer indices p, q)

    [L(p), L(q)] = (p - q) L(p+q) + (p^3 - p)/12 * delta(p, -q) C1
    [L(p), I(q)] = -q I(p+q) - (p^2 + p) * delta(p, -q) C2
    [I(p), L(q)] = p I(p+q) + (q^2 + q) * delta(p, -q) C2
    [I(p), I(q)] = p * delta(p, -q) C3

with C1, C2, C3 killing everything.  This table is the code's table:
``_LIE_TABLE`` holds these four rows term for term, and ``table_keys``
evaluates it.  An algebra is named by its product: ``LIE_HV`` is this
bracket and ``LIE_W00`` the quotient by the span of C1, C2, C3, the same
brackets with every C-term dropped (its elements must not touch the
central symbols at all).  Every product, Lie or left-symmetric, is a
``Product``: ``mul_keys`` on basis symbols, ``mul`` on elements, and
``window_keys`` for the basis symbols of an index window.  Elements hold
Scalars; a solve reads ``mul_keys`` through ``linmaps.plain_values``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import IndexOverflow
from .scalars import Scalar, accumulate, coefficient_text

_INT64_MAX = 2**63 - 1
_INT64_MIN = -(2**63)

_FAMILIES = "LIC"
_FAMILY_RANK = {family: rank for rank, family in enumerate(_FAMILIES)}


class BasisKey(tuple):
    """One basis symbol: L(n), I(n), or a central C1/C2/C3.

    A key is the tuple ``(family rank, index)``, so it orders (L before I
    before C, then by index), compares and hashes as that tuple, in C.
    """

    __slots__ = ()

    def __new__(cls, family: str, index: int):
        if family not in _FAMILY_RANK:
            raise ValueError(f"unknown basis family {family!r}")
        if family == "C":
            if index not in (1, 2, 3):
                raise ValueError("central symbols are C1, C2 and C3")
        elif not _INT64_MIN <= index <= _INT64_MAX:
            raise IndexOverflow(f"index {index} outside the signed 64-bit range")
        return super().__new__(cls, (_FAMILY_RANK[family], index))

    def __getnewargs__(self):
        return (self.family, self.index)

    @property
    def family(self) -> str:
        return _FAMILIES[self[0]]

    @property
    def index(self) -> int:
        return self[1]

    @property
    def is_central(self) -> bool:
        return self[0] == 2

    def __str__(self):
        if self.is_central:
            return f"C{self.index}"
        return f"{self.family}({self.index})"

    __repr__ = __str__


def L(n: int) -> BasisKey:
    return BasisKey("L", n)


def I(n: int) -> BasisKey:
    return BasisKey("I", n)


C1 = BasisKey("C", 1)
C2 = BasisKey("C", 2)
C3 = BasisKey("C", 3)
CENTRAL_KEYS = (C1, C2, C3)


class Element:
    """A finitely supported exact linear combination of basis symbols.

    Immutable by convention; zero coefficients are never stored, so equal
    elements have equal coefficient dicts and the zero element is unique.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for key, value in coeffs.items():
                scalar = Scalar.coerce(value)
                if scalar:
                    clean[key] = scalar
        self._coeffs = clean

    @staticmethod
    def _of(coeffs: dict) -> "Element":
        """Wrap a dict of nonzero Scalars without copying or checking it."""
        out = Element.__new__(Element)
        out._coeffs = coeffs
        return out

    @classmethod
    def zero(cls) -> "Element":
        return cls()

    @classmethod
    def basis(cls, key: BasisKey, coeff=1) -> "Element":
        return cls({key: coeff})

    # -- inspection ------------------------------------------------------

    def items(self):
        """Coefficient pairs in the canonical key order."""
        return sorted(self._coeffs.items())

    def support(self):
        return sorted(self._coeffs)

    def __getitem__(self, key: BasisKey) -> Scalar:
        return self._coeffs.get(key, Scalar(0))

    def __contains__(self, key: BasisKey) -> bool:
        return key in self._coeffs

    def __len__(self):
        return len(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self):
        return bool(self._coeffs)

    # -- vector space operations ------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        acc = dict(self._coeffs)
        accumulate(acc, other._coeffs)
        return Element._of(acc)

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Element._of({k: -v for k, v in self._coeffs.items()})

    def scaled(self, value) -> "Element":
        scalar = Scalar.coerce(value)
        if not scalar:
            return Element.zero()
        return Element._of({k: scalar * v for k, v in self._coeffs.items()})

    def __mul__(self, value):
        try:
            return self.scaled(value)
        except TypeError:
            return NotImplemented

    __rmul__ = __mul__

    # -- structure helpers ---------------------------------------------

    def restrict(self, predicate) -> "Element":
        return Element._of({k: v for k, v in self._coeffs.items() if predicate(k)})

    def noncentral(self) -> "Element":
        return self.restrict(lambda k: not k.is_central)

    def central(self) -> "Element":
        return self.restrict(lambda k: k.is_central)

    def has_central_support(self) -> bool:
        return any(k.is_central for k in self._coeffs)

    # -- equality / text -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for key, coeff in self.items():
            negate, text = coefficient_text(coeff)
            term = str(key) if text is None else f"{text}*{key}"
            if not parts:
                parts.append(f"-{term}" if negate else term)
            else:
                parts.append(f"- {term}" if negate else f"+ {term}")
        return " ".join(parts)

    def __repr__(self):
        return f"<{self}>"


def linear_extension(on_key, x: Element) -> Element:
    """The linear map with basis values ``on_key(k)``, applied to x."""
    acc = {}
    for key, coeff in x._coeffs.items():
        accumulate(acc, on_key(key)._coeffs, coeff)
    return Element._of(acc)


def bilinear_extension(on_keys, x: Element, y: Element) -> Element:
    """The bilinear map with basis values ``on_keys(a, b)``, applied to
    (x, y).  Products, brackets and bilinear maps all evaluate this way."""
    acc = {}
    for ka, ca in x._coeffs.items():
        for kb, cb in y._coeffs.items():
            base = on_keys(ka, kb)
            if base:
                accumulate(acc, base._coeffs, ca * cb)
    return Element._of(acc)


def table_keys(table, has_central: bool, a: BasisKey, b: BasisKey) -> Element:
    """a(m) * b(n) read from ``table[a.family, b.family]``, a tuple of
    ``(target, coefficient(m, n))`` terms.  A family target "L" or "I" is
    that family's key at index m+n; a central target (C1, C2, C3) counts
    only on the stratum m = -n and only when ``has_central``.  Central
    arguments give zero, and are refused on a quotient."""
    if a.is_central or b.is_central:
        if not has_central:
            raise ValueError("quotient elements must have no central support")
        return Element.zero()
    m, n = a.index, b.index
    coeffs = {}
    for target, coefficient in table[a.family, b.family]:
        if isinstance(target, str):
            value = coefficient(m, n)
            if value:
                coeffs[BasisKey(target, m + n)] = value
        elif has_central and m == -n:
            coeffs[target] = coefficient(m, n)
    return Element(coeffs)


_LIE_TABLE = {
    ("L", "L"): (("L", lambda p, q: p - q), (C1, lambda p, q: Fraction(p**3 - p, 12))),
    ("L", "I"): (("I", lambda p, q: -q), (C2, lambda p, q: -(p * p + p))),
    ("I", "L"): (("I", lambda p, q: p), (C2, lambda p, q: q * q + q)),
    ("I", "I"): ((C3, lambda p, q: p),),
}


@lru_cache(maxsize=1 << 14)
def bracket_keys(has_central: bool, a: BasisKey, b: BasisKey) -> Element:
    """Bracket of two basis symbols: the full bracket when ``has_central``,
    else the centerless quotient.  Called only by ``LieProduct``.  The
    cache is bounded, so a long-lived process does not grow it forever."""
    return table_keys(_LIE_TABLE, has_central, a, b)


class Product:
    """A bilinear product on the algebra, given by its action on basis keys.

    Concrete products implement ``mul_keys``; ``mul`` is its bilinear
    extension and ``commutator_keys`` the induced skew product a*b - b*a
    (equal to ``mul_keys`` itself for Lie products).  ``antisymmetric``
    states that a*b = -(b*a) on every key pair, so a solver skips, and a
    checker reuses, the identity instances that only negate another.
    """

    name = "?"
    has_central = True
    antisymmetric = False

    def mul_keys(self, a: BasisKey, b: BasisKey) -> Element:
        raise NotImplementedError

    def check_element(self, x: Element) -> None:
        """Reject an element the product's algebra does not contain: a
        quotient's elements have no central support."""
        if not self.has_central and x.has_central_support():
            raise ValueError("quotient elements must have no central support")

    def mul(self, x: Element, y: Element) -> Element:
        self.check_element(x)
        self.check_element(y)
        return bilinear_extension(self.mul_keys, x, y)

    def commutator_keys(self, a: BasisKey, b: BasisKey) -> Element:
        return self.mul_keys(a, b) - self.mul_keys(b, a)

    def window_keys(self, n_max: int, central: bool = True):
        """Window keys in canonical order: L(-N..N), I(-N..N), then the
        central symbols when ``central`` and the product has them."""
        keys = [L(n) for n in range(-n_max, n_max + 1)]
        keys.extend(I(n) for n in range(-n_max, n_max + 1))
        if central and self.has_central:
            keys.extend(CENTRAL_KEYS)
        return tuple(keys)

    def __str__(self):
        return self.name


class LieProduct(Product):
    """The bracket of the full algebra (``has_central``) or of its
    centerless quotient, whose elements must not touch C1, C2, C3."""

    antisymmetric = True

    def __init__(self, has_central: bool):
        self.has_central = has_central
        self.name = "lie-hv" if has_central else "lie-w00"

    def mul_keys(self, a, b):
        return bracket_keys(self.has_central, a, b)

    commutator_keys = mul_keys

    def center_basis(self):
        """Basis of the center: I(0), then C1, C2, C3 on the full bracket."""
        keys = (I(0),) + (CENTRAL_KEYS if self.has_central else ())
        return tuple(Element.basis(k) for k in keys)


LIE_HV = LieProduct(True)
LIE_W00 = LieProduct(False)
