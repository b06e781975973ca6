"""Linear maps on the algebra: structured variants, derivation checking,
and exact decomposition into an inner part plus the three outer
derivations of the centerless quotient.  ``leibniz_parts`` and
``symmetry_parts`` state the Leibniz rule and symmetry once for the package.

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
from math import gcd

from . import linalg
from .core import (
    LIE_HV,
    LIE_W00,
    BasisKey,
    Element,
    I,
    LieProduct,
    Product,
    linear_extension,
)
from .errors import DomainNotCovered, NotCentral
from .parallel import run_ordered
from .scalars import Scalar, gaussian_integers, plain


class Window(namedtuple("Window", "n_max")):
    """Symmetric index window: all L(n), I(n) with |n| <= n_max."""

    __slots__ = ()

    def __new__(cls, n_max: int):
        if n_max < 1:
            raise ValueError("window radius must be at least 1")
        return super().__new__(cls, n_max)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make
        return cls(*iterable)

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


def collect_report(residual, instances, twin=None) -> CheckReport:
    """Evaluate a residual on every instance and fold the results into a report.

    Each instance is an ``(inputs, equation)`` pair and its residual is
    ``residual(inputs, equation)``; a nonzero one becomes a Counterexample.
    An instance whose evaluation raises DomainNotCovered counts as skipped:
    this is the one place a check decides a skip, and the one place it
    builds a Counterexample.  ``instances`` is consumed once, in order, so
    a checker can stream them from a generator.  ``twin(inputs, equation)``
    names the inputs whose residual is exactly the negation of this one,
    listed earlier whenever they sort lower; the later twin is not
    evaluated but takes that verdict, a counterexample's residual negated.
    Twins read the same map values, and a map read is the only read that
    can raise DomainNotCovered, so they skip together.
    """
    kept = {}  # skip (None) and counterexample verdicts awaiting their twin

    def verdict(instance):
        inputs, equation = instance
        partner = inputs if twin is None else twin(inputs, equation)
        if partner < inputs:
            found = kept.pop((partner, equation), ())
            return Counterexample(inputs, equation, -found.residual) if found else found
        try:
            value = residual(inputs, equation)
            found = Counterexample(inputs, equation, value) if value else ()
        except DomainNotCovered:
            found = None
        if found != () and partner != inputs:
            kept[inputs, equation] = found
        return found

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
    ``linalg.admitted_rows`` takes with each instance.

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
    """``read`` as a cache of ``scalars.gaussian_integers`` values: the one
    way a checker reads a value.

    ``read(*keys)`` returns an Element: a map's value on basis keys
    (``m.apply_key``, ``partial(f.eval_keys, product)``) or a structure
    constant (``product.mul_keys``).  Each checker makes its caches per
    call, so they die with the call.  An exception is not cached, so an
    uncovered argument (DomainNotCovered) raises on every read.
    """
    return lru_cache(maxsize=None)(lambda *keys: gaussian_integers(read(*keys).items()))


def plain_values(read):
    """``read``, as for ``scaled_values``, as a cache of ``(key,
    scalars.plain number)`` pairs in key order: the one way a solve reads
    a value, so its rows hold no Scalar where a value is real."""
    return lru_cache(maxsize=None)(lambda *k: tuple((u, plain(v)) for u, v in read(*k).items()))


def scaled_basis(key) -> tuple:
    """The basis element of ``key`` as a scaled value: the read that sums a
    part's value as it stands."""
    return 1, ((key, 1, 0),)


def gaussian_sum(parts) -> Element:
    """The sum over ``(sign, value, read)`` parts of ``sign * sum of c*read(k)``
    for each coefficient c at key k of ``value``.

    ``value`` and every ``read(k)`` are scaled values (``scaled_values``).
    Each product is added as it is read, as Gaussian integers in ints over
    the running lcm of the denominators, rescaling the sum when it grows.
    A Scalar is made only for a nonzero coordinate of the sum.
    """
    den = 1
    acc = {}
    get = acc.get
    for sign, (cd, coeffs), read in parts:
        for k, cr, ci in coeffs:
            vd, entries = read(k)
            e = cd * vd
            if den % e:
                m = e // gcd(den, e)  # lcm(den, e) == den * m
                for pair in acc.values():
                    pair[0] *= m
                    pair[1] *= m
                den *= m
            m = sign * (den // e)
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
    return Element._of(
        {
            key: Scalar(Fraction(r, den), Fraction(i, den))
            for key, (r, i) in acc.items()
            if r or i
        }
    )


def leibniz_parts(mul, d, a: BasisKey, b: BasisKey) -> tuple:
    """The parts of d(a*b) - a*d(b) - d(a)*b at basis keys a, b: the one
    statement of the Leibniz rule, which every derivation-type identity of
    the package is for some ``d``.  A checker reads ``mul`` (structure
    constants) and ``d`` as ``scaled_values`` and sums the parts with
    ``gaussian_sum``; a solver reads ``mul`` as ``plain_values`` and ``d``
    as linear forms and turns the same parts into rows with
    ``linalg.admitted_rows``."""
    return (
        (1, mul(a, b), d),
        (-1, d(b), lambda u: mul(a, u)),
        (-1, d(a), lambda u: mul(u, b)),
    )


def symmetry_parts(f, a: BasisKey, b: BasisKey, sign: int) -> tuple:
    """The parts of f(a, b) - sign*f(b, a) for ``f`` read as
    ``scaled_values``: the one statement of symmetry (sign 1) and
    skewness (sign -1).  On a product, sign 1 gives the commutator."""
    return (1, f(a, b), scaled_basis), (-sign, f(b, a), scaled_basis)


def leibniz_residual(mul, d, a: BasisKey, b: BasisKey) -> Element:
    """d(a*b) - d(a)*b - a*d(b), zero exactly when the rule holds at
    (a, b); an uncovered key of ``d`` is what raises."""
    return gaussian_sum(leibniz_parts(mul, d, a, b))


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


D1 = OuterDerivation("d1")
D2 = OuterDerivation("d2")
D3 = OuterDerivation("d3")


class ScalarId(LinearMap):
    """Scalar multiple of the identity."""

    def __init__(self, coeff):
        self.coeff = Scalar.coerce(coeff)

    def apply_key(self, key):
        return Element.basis(key, self.coeff)


class CentralMap(LinearMap):
    """A map with values in the center of the full algebra, given by a
    finite table.

    Keys missing from the table go to zero, so the map is total.
    """

    def __init__(self, table):
        for key, value in table.items():
            self.check_value(key, value)
        self.table = {key: value for key, value in table.items() if value}

    @staticmethod
    def check_value(key: BasisKey, value: Element) -> None:
        """Refuse a value outside the center I(0), C1, C2, C3."""
        center = {k for elt in LIE_HV.center_basis() for k in elt.support()}
        if not center.issuperset(value.support()):
            raise NotCentral(f"value at {key} is not central: {value}")

    def apply_key(self, key):
        return self.table.get(key, Element.zero())


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


class ScaledMap(LinearMap):
    def __init__(self, inner: LinearMap, coeff):
        self.inner = inner
        self.coeff = Scalar.coerce(coeff)

    def apply_key(self, key):
        return self.inner.apply_key(key).scaled(self.coeff)


class SumMap(LinearMap):
    def __init__(self, parts):
        self.parts = tuple(parts)

    def apply_key(self, key):
        out = Element.zero()
        for part in self.parts:
            out = out + part.apply_key(key)
        return out


def tabulate(m: LinearMap, keys) -> TabularMap:
    return TabularMap({k: m.apply_key(k) for k in keys})


def is_derivation(m: LinearMap, product: Product, window: Window) -> CheckReport:
    """Exhaustive Leibniz check of ``m`` against ``product`` on the window.

    Pairs whose product support (or arguments) escape a tabular map's
    domain are counted as skipped, never as failures.  Each key's value
    is read once per call, by a cache that dies with the call.  On an
    antisymmetric product (b, a) is the twin of (a, b) (``collect_report``).
    """
    m_key = scaled_values(m.apply_key)
    mul = scaled_values(product.mul_keys)
    keys = product.window_keys(window.n_max)
    pairs = (((a, b), "leibniz") for a in keys for b in keys)
    twin = (lambda pair, _: pair[::-1]) if product.antisymmetric else None
    return collect_report(lambda pair, _: leibniz_residual(mul, m_key, *pair), pairs, twin)


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
    x = {k: col for col, k in enumerate(x_keys)}
    outer = {m: col for col, m in enumerate((D1, D2, D3), len(x))}
    const = len(x) + len(outer)
    mul = plain_values(product.mul_keys)
    value = plain_values(lambda m, key: m.apply_key(key))

    def instances():
        """Per output coordinate: d(b0) - ad(x)(b0) - sum of c*d(b0) = 0,
        with the constant term in the column past the last unknown.  d(b0)
        is read first, so a tabular d raises DomainNotCovered at its first
        uncovered interior key even once the constant column is pinned."""
        for b0 in product.window_keys(n_max - 1):
            d_b0 = value(d, b0)
            parts = (
                (-1, x, lambda u: mul(u, b0)),
                (-1, outer, lambda m: value(m, b0)),
                (1, {d: const}, lambda _: d_b0),
            )
            yield parts, None

    solution = linalg.solve_affine(linalg.admitted_rows(instances()), const)
    if solution is None:
        return None
    inner = Element({k: solution.get(col, 0) for k, col in x.items()})
    return Decomposition(inner, *(Scalar.coerce(solution.get(col, 0)) for col in outer.values()))
