"""Linear maps on the algebra: structured variants, derivation checking,
and exact decomposition into an inner part plus the three outer
derivations of the centerless quotient.

The three outer derivations (named d1, d2, d3 throughout the package and
its file formats) act by

    d1: L(m) -> 0,          I(m) -> I(m)
    d2: L(m) -> (m-1) I(m), I(m) -> 0
    d3: L(m) -> m I(m),     I(m) -> 0

and vanish on the central symbols.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .core import (
    LIE_HV,
    LIE_W00,
    BasisKey,
    Element,
    I,
    LieProduct,
    Product,
    linear_extension,
    plain_constants,
)
from .errors import DomainNotCovered, NotCentral
from .linalg import LinearSystem
from .parallel import run_ordered
from .scalars import Scalar, gaussian_integers, plain


class Window(namedtuple("Window", "n_max")):
    """Symmetric index window: all L(n), I(n) with |n| <= n_max."""

    __slots__ = ()

    def __new__(cls, n_max: int):
        if n_max < 1:
            raise ValueError("window radius must be at least 1")
        return super().__new__(cls, n_max)

    def interior(self) -> "Window":
        return Window(self.n_max - 1)


class Counterexample(namedtuple("Counterexample", "inputs equation residual")):
    __slots__ = ()

    def __str__(self):
        args = ", ".join(str(x) for x in self.inputs)
        return f"({args}) [{self.equation}] residual = {self.residual}"


class CheckReport(namedtuple("CheckReport", "checked skipped counterexamples")):
    """Outcome of an exhaustive identity check over a window.

    ``checked`` counts identity instances evaluated, ``skipped`` counts
    instances abandoned because a tabular map did not cover some argument.
    The check passed exactly when no counterexample was found.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def __str__(self):
        status = "passed" if self.passed else "failed"
        return (
            f"{status} (checked {self.checked}, skipped {self.skipped}, "
            f"counterexamples {len(self.counterexamples)})"
        )


def collect_report(residual, instances) -> CheckReport:
    """Evaluate a residual on every instance and fold the results into a report.

    Each instance is an ``(inputs, equation)`` pair and its residual is
    ``residual(inputs, equation)``; a nonzero one becomes a Counterexample.
    An instance whose evaluation raises DomainNotCovered counts as skipped:
    this is the one place a check decides a skip, and the one place it
    builds a Counterexample.  ``instances`` is consumed once, in order, so
    a checker can stream them from a generator.
    """

    def verdict(instance):
        inputs, equation = instance
        try:
            value = residual(inputs, equation)
        except DomainNotCovered:
            return None
        if value.is_zero():
            return ()
        return Counterexample(inputs, equation, value)

    checked = 0
    skipped = 0
    counterexamples = []
    for found in run_ordered(verdict, instances):
        if found is None:
            skipped += 1
        else:
            checked += 1
            if found:
                counterexamples.append(found)
    return CheckReport(checked, skipped, tuple(counterexamples))


def admission(shifts, out_bound: int):
    """The row-admission rule of every windowed solve, as the predicate
    ``LinearSystem.flush`` takes.

    A row at output coordinate ``w`` is fed by unknowns at index
    ``w.index - s`` for each offset ``s`` in ``shifts``, and it is an exact
    consequence of the identity only when all of them lie inside the
    output bound: ``w`` is admitted when it is central or when
    ``max(shifts) - out_bound <= w.index <= min(shifts) + out_bound``.
    """
    lo = max(shifts) - out_bound
    hi = min(shifts) + out_bound
    return lambda w: w.is_central or lo <= w.index <= hi


def scaled_values(read):
    """``read`` as a cache of ``scalars.gaussian_integers`` values.

    ``read(*keys)`` returns ``(key, number)`` pairs: a map value's
    ``items()``, or ``core.plain_constants``' structure constants.  Each
    checker makes its caches per call, so they die with the call.  An
    exception is not cached, so an uncovered argument (DomainNotCovered)
    raises on every read.
    """
    return lru_cache(maxsize=None)(lambda *keys: gaussian_integers(read(*keys)))


def gaussian_sum(parts) -> Element:
    """The sum over ``(sign, value, read)`` parts of ``sign * sum of c*read(k)``
    for each coefficient c at key k of ``value``.

    ``value`` and every ``read(k)`` are scaled values (``scaled_values``).
    All reads come first; then the products are summed as Gaussian
    integers, in ints, over the lcm of their denominators.  A Scalar is
    made only for a nonzero coordinate of the sum.
    """
    terms = []
    for sign, (cd, coeffs), read in parts:
        for k, re, im in coeffs:
            vd, v = read(k)
            terms.append((cd * vd, sign * re, sign * im, v))
    den = lcm(*[term[0] for term in terms])
    acc = {}
    get = acc.get
    for e, cr, ci, entries in terms:
        if e != den:
            m = den // e
            cr *= m
            ci *= m
        for key, re, im in entries:
            r = cr * re - ci * im
            i = cr * im + ci * re
            old = get(key)
            if old is None:
                acc[key] = [r, i]
            else:
                old[0] += r
                old[1] += i
    return Element(
        {
            key: Scalar(Fraction(r, den), Fraction(i, den))
            for key, (r, i) in acc.items()
            if r or i
        }
    )


def leibniz_residual(mul, d, a: BasisKey, b: BasisKey) -> Element:
    """d(a*b) - d(a)*b - a*d(b) at basis keys a, b.

    ``mul`` reads the structure constants and ``d`` the map on a basis
    key, both as ``scaled_values``.  Every derivation-type identity of the
    package is this rule for some ``d``; the result is zero exactly when
    the rule holds at (a, b).  Every value of ``d`` is read before any
    product, so an uncovered key is what raises.
    """
    return gaussian_sum(
        (
            (1, mul(a, b), d),
            (-1, d(a), lambda u: mul(u, b)),
            (-1, d(b), lambda u: mul(a, u)),
        )
    )


class LinearMap:
    """Base class: a linear map given by its action on basis keys."""

    def apply_key(self, key: BasisKey) -> Element:
        raise NotImplementedError

    def __call__(self, x: Element) -> Element:
        return linear_extension(self.apply_key, x)


class InnerAd(LinearMap):
    """The adjoint map y -> [x, y] of a fixed element."""

    def __init__(self, product: LieProduct, x: Element):
        product.check_element(x)
        self.product = product
        self.x = x

    def apply_key(self, key):
        return self.product.mul(self.x, Element.basis(key))

    def __str__(self):
        return f"ad({self.x})"


class OuterDerivation(LinearMap):
    """One of the three outer derivations d1, d2, d3 (zero on centrals)."""

    def __init__(self, tag: str):
        if tag not in ("d1", "d2", "d3"):
            raise ValueError("outer derivations are d1, d2 and d3")
        self.tag = tag

    def apply_key(self, key):
        if key.is_central:
            return Element.zero()
        m = key.index
        if self.tag == "d1":
            return Element.basis(key) if key.family == "I" else Element.zero()
        if key.family != "L":
            return Element.zero()
        factor = m - 1 if self.tag == "d2" else m
        return Element.basis(I(m), factor)

    def __str__(self):
        return self.tag


D1 = OuterDerivation("d1")
D2 = OuterDerivation("d2")
D3 = OuterDerivation("d3")


class ScalarId(LinearMap):
    """Scalar multiple of the identity."""

    def __init__(self, coeff):
        self.coeff = Scalar.coerce(coeff)

    def apply_key(self, key):
        return Element.basis(key, self.coeff)

    def __str__(self):
        return f"{self.coeff}*id"


class CentralMap(LinearMap):
    """A map with values in the center of the full algebra, given by a
    finite table.

    Keys missing from the table go to zero, so the map is total.
    """

    def __init__(self, table):
        central = {k for elt in LIE_HV.center_basis() for k in elt.support()}
        clean = {}
        for key, value in table.items():
            if any(k not in central for k in value.support()):
                raise NotCentral(f"value at {key} is not central: {value}")
            if value:
                clean[key] = value
        self.table = clean

    def apply_key(self, key):
        return self.table.get(key, Element.zero())

    def __str__(self):
        return "central-table"


class TabularMap(LinearMap):
    """A map recorded on the finite domain of basis keys its table names;
    a key given a zero value is covered and maps to zero."""

    def __init__(self, table):
        self.table = {k: v for k, v in table.items() if v}
        self.domain = frozenset(table)

    def apply_key(self, key):
        if key not in self.domain:
            raise DomainNotCovered(key)
        return self.table.get(key, Element.zero())

    def __str__(self):
        return f"tabular({len(self.domain)} keys)"


class ScaledMap(LinearMap):
    def __init__(self, inner: LinearMap, coeff):
        self.inner = inner
        self.coeff = Scalar.coerce(coeff)

    def apply_key(self, key):
        return self.inner.apply_key(key).scaled(self.coeff)

    def __str__(self):
        return f"{self.coeff}*({self.inner})"


class SumMap(LinearMap):
    def __init__(self, parts):
        self.parts = tuple(parts)

    def apply_key(self, key):
        out = Element.zero()
        for part in self.parts:
            out = out + part.apply_key(key)
        return out

    def __str__(self):
        return " + ".join(str(p) for p in self.parts)


def tabulate(m: LinearMap, keys) -> TabularMap:
    return TabularMap({k: m.apply_key(k) for k in keys})


def is_derivation(m: LinearMap, product: Product, window: Window) -> CheckReport:
    """Exhaustive Leibniz check of ``m`` against ``product`` on the window.

    Pairs whose product support (or arguments) escape a tabular map's
    domain are counted as skipped, never as failures.  Each key's value
    is read once per call, by a cache that dies with the call.
    """
    m_key = scaled_values(lambda k: m.apply_key(k).items())
    mul = scaled_values(plain_constants(product))
    keys = product.window_keys(window.n_max)
    pairs = (((a, b), "leibniz") for a in keys for b in keys)
    return collect_report(lambda pair, _: leibniz_residual(mul, m_key, *pair), pairs)


class Decomposition(namedtuple("Decomposition", "inner d1_coeff d2_coeff d3_coeff")):
    """d = ad(inner) + d1_coeff*d1 + d2_coeff*d2 + d3_coeff*d3 on the
    centerless quotient."""

    __slots__ = ()

    def as_map(self) -> LinearMap:
        return SumMap(
            (
                InnerAd(LIE_W00, self.inner),
                ScaledMap(D1, self.d1_coeff),
                ScaledMap(D2, self.d2_coeff),
                ScaledMap(D3, self.d3_coeff),
            )
        )

    def __str__(self):
        return (
            f"ad({self.inner}) + ({self.d1_coeff})*d1 "
            f"+ ({self.d2_coeff})*d2 + ({self.d3_coeff})*d3"
        )


def decompose_derivation(d: LinearMap, window: Window):
    """Split a quotient derivation into inner plus outer parts, exactly.

    Solves d = ad(x) + a*d1 + b*d2 + c*d3 on the interior keys
    (|n| <= n_max - 1), with x supported on |i| <= 2*n_max and its I(0)
    coefficient pinned to zero (ad I(0) vanishes, so x is only ever
    determined modulo I(0)).  Returns a Decomposition, or None when the
    system is inconsistent.  Requires n_max >= 3 so the interior is rich
    enough to pin every unknown.
    """
    n_max = window.n_max
    if n_max < 3:
        raise ValueError("decomposition needs a window radius of at least 3")
    product = LIE_W00
    x_keys = [k for k in product.window_keys(2 * n_max) if k != I(0)]
    labels = [("x", k) for k in x_keys] + [("coef", t) for t in ("d1", "d2", "d3")]
    ids = {label: n for n, label in enumerate(labels)}
    outer = {"d1": D1, "d2": D2, "d3": D3}

    # Per output coordinate: ad(x)(b0) + sum of c*d(b0) - d(b0) = 0, with
    # the constant term in the column past the last unknown.  A tabular d
    # raises DomainNotCovered at its first uncovered interior key.
    interior = product.window_keys(n_max - 1)
    const = len(labels)
    system = LinearSystem(const)
    mul = plain_constants(product)
    for b0 in interior:
        for xk in x_keys:
            for w, value in mul(xk, b0):
                system.add(w, ids[("x", xk)], value)
        for tag, mp in outer.items():
            for w, value in mp.apply_key(b0).items():
                system.add(w, ids[("coef", tag)], plain(value))
        for w, value in d.apply_key(b0).items():
            system.add(w, const, plain(-value))
        system.flush()

    solution = system.solve_affine()
    if solution is None:
        return None
    inner = Element(
        {k: solution.get(ids[("x", k)], Scalar(0)) for k in x_keys}
    )
    coeffs = [
        solution.get(ids[("coef", t)], Scalar(0)) for t in ("d1", "d2", "d3")
    ]
    return Decomposition(inner, *coeffs)
