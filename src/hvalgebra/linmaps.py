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

from dataclasses import dataclass

from .core import (
    AlgebraKind,
    BasisKey,
    Element,
    I,
    L,
    Product,
    basis_window,
    bracket,
    bracket_keys,
    center_basis,
)
from .errors import DomainNotCovered, NotCentral
from .linalg import LinearSystem
from .parallel import run_ordered
from .scalars import Scalar


@dataclass(frozen=True)
class Window:
    """Symmetric index window: all L(n), I(n) with |n| <= n_max."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("window radius must be at least 1")

    def interior(self) -> "Window":
        return Window(self.n_max - 1)


@dataclass(frozen=True)
class Counterexample:
    inputs: tuple
    equation: str
    residual: Element

    def __str__(self):
        args = ", ".join(str(x) for x in self.inputs)
        return f"({args}) [{self.equation}] residual = {self.residual}"


@dataclass(frozen=True)
class CheckReport:
    """Outcome of an exhaustive identity check over a window.

    ``checked`` counts identity instances evaluated, ``skipped`` counts
    instances abandoned because a tabular map did not cover some argument.
    The check passed exactly when no counterexample was found.
    """

    checked: int
    skipped: int
    counterexamples: tuple

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def __str__(self):
        status = "passed" if self.passed else "failed"
        return (
            f"{status} (checked {self.checked}, skipped {self.skipped}, "
            f"counterexamples {len(self.counterexamples)})"
        )


def collect_report(worker, items) -> CheckReport:
    """Run a per-item verdict function and fold the results into a report.

    ``worker`` returns None to skip, an empty tuple to count a plain pass,
    or a tuple of Counterexamples.  ``items`` is consumed once, in order,
    so a checker can stream its instances from a generator.
    """
    checked = 0
    skipped = 0
    counterexamples = []
    for verdict in run_ordered(worker, items):
        if verdict is None:
            skipped += 1
        else:
            checked += 1
            counterexamples.extend(verdict)
    return CheckReport(checked, skipped, tuple(counterexamples))


class LinearMap:
    """Base class: a linear map given by its action on basis keys."""

    def apply_key(self, key: BasisKey) -> Element:
        raise NotImplementedError

    def covers(self, key: BasisKey) -> bool:
        return True

    def covers_element(self, x: Element) -> bool:
        return all(self.covers(k) for k in x.support())

    def __call__(self, x: Element) -> Element:
        out = Element.zero()
        for key, coeff in x.items():
            out = out + self.apply_key(key).scaled(coeff)
        return out


class InnerAd(LinearMap):
    """The adjoint map y -> [x, y] of a fixed element."""

    def __init__(self, kind: AlgebraKind, x: Element):
        if not kind.has_central and x.has_central_support():
            raise ValueError("quotient elements must have no central support")
        self.kind = kind
        self.x = x

    def apply_key(self, key):
        return bracket(self.kind, self.x, Element.basis(key))

    def __str__(self):
        return f"ad({self.x})"


def adjoint(kind: AlgebraKind, x: Element) -> InnerAd:
    return InnerAd(kind, x)


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
    """A map with values in the center, given by a finite table.

    Keys missing from the table go to zero, so the map is total.
    """

    def __init__(self, table, kind: AlgebraKind = AlgebraKind.HV):
        central = set()
        for elt in center_basis(kind):
            central.update(elt.support())
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
    """A map recorded on an explicit finite domain of basis keys."""

    def __init__(self, table, domain=None):
        self.table = {k: v for k, v in table.items() if v}
        self.domain = frozenset(table) | frozenset(domain or ())

    def covers(self, key):
        return key in self.domain

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

    def covers(self, key):
        return self.inner.covers(key)

    def apply_key(self, key):
        return self.inner.apply_key(key).scaled(self.coeff)

    def __str__(self):
        return f"{self.coeff}*({self.inner})"


class SumMap(LinearMap):
    def __init__(self, parts):
        self.parts = tuple(parts)

    def covers(self, key):
        return all(part.covers(key) for part in self.parts)

    def apply_key(self, key):
        out = Element.zero()
        for part in self.parts:
            out = out + part.apply_key(key)
        return out

    def __str__(self):
        return " + ".join(str(p) for p in self.parts)


def tabulate(m: LinearMap, keys) -> TabularMap:
    return TabularMap({k: m.apply_key(k) for k in keys}, domain=keys)


def is_derivation(m: LinearMap, product: Product, window: Window) -> CheckReport:
    """Exhaustive Leibniz check of ``m`` against ``product`` on the window.

    Pairs whose product support (or arguments) escape a tabular map's
    domain are counted as skipped, never as failures.
    """
    keys = product.window_keys(window.n_max)
    pairs = ((a, b) for a in keys for b in keys)

    def check(pair):
        a, b = pair
        prod = product.mul_keys(a, b)
        if not (m.covers(a) and m.covers(b) and m.covers_element(prod)):
            return None
        lhs = m(prod)
        rhs = product.mul(m.apply_key(a), Element.basis(b)) + product.mul(
            Element.basis(a), m.apply_key(b)
        )
        residual = lhs - rhs
        if residual.is_zero():
            return ()
        return (Counterexample((a, b), "leibniz", residual),)

    return collect_report(check, pairs)


@dataclass(frozen=True)
class Decomposition:
    """d = ad(inner) + d1_coeff*d1 + d2_coeff*d2 + d3_coeff*d3."""

    inner: Element
    d1_coeff: Scalar
    d2_coeff: Scalar
    d3_coeff: Scalar

    def as_map(self, kind: AlgebraKind = AlgebraKind.W00) -> LinearMap:
        return SumMap(
            (
                InnerAd(kind, self.inner),
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
    kind = AlgebraKind.W00
    x_keys = [k for k in basis_window(2 * n_max, False) if k != I(0)]
    labels = [("x", k) for k in x_keys] + [("coef", t) for t in ("d1", "d2", "d3")]
    ids = {label: n for n, label in enumerate(labels)}
    outer = {"d1": D1, "d2": D2, "d3": D3}

    interior = basis_window(n_max - 1, False)
    for key in interior:
        if not d.covers(key):
            raise DomainNotCovered(key)

    # Per output coordinate: ad(x)(b0) + sum of c*d(b0) - d(b0) = 0, with
    # the constant term in the column past the last unknown.
    const = len(labels)
    system = LinearSystem(const)
    for b0 in interior:
        for xk in x_keys:
            for w, value in bracket_keys(kind, xk, b0).items():
                system.add(w, ids[("x", xk)], value)
        for tag, mp in outer.items():
            for w, value in mp.apply_key(b0).items():
                system.add(w, ids[("coef", tag)], value)
        for w, value in d.apply_key(b0).items():
            system.add(w, const, -value)
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
