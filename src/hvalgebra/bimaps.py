"""Bilinear maps: the biderivation identities, exhaustive window checks,
and an exact windowed solver for the full biderivation equations.

A biderivation of a product * satisfies, for all x, y, z,

    f(x*y, z) = x*f(y, z) + f(x, z)*y        (derivation in the first slot)
    f(x, y*z) = f(x, y)*z + y*f(x, z)        (derivation in the second slot)

The solver turns these identities on a finite index window into an exact
sparse linear system and returns its canonical nullspace.  A constraint
row is admitted only when it is an exactly valid consequence of the
identities: every bilinear-map value it touches must be representable
inside the chosen output bound, otherwise the row is dropped (dropping
rows can only enlarge the solution space, never corrupt it).
"""

from __future__ import annotations

from functools import partial

from .core import (
    LIE_HV,
    BasisKey,
    Element,
    I,
    L,
    LieProduct,
    Product,
    bilinear_extension,
    plain_constants,
    CENTRAL_KEYS,
)
from .errors import DomainNotCovered
from .linalg import LinearSystem, SolutionSpace, VarRegistry
from .linmaps import (
    CheckReport,
    Window,
    admission,
    collect_report,
    leibniz_residual,
    scaled_values,
)
from .scalars import Scalar


class Omega:
    """Finite table of nonzero scalars mu_k keyed by integer offset k."""

    def __init__(self, table=None):
        clean = {}
        for k, v in (table or {}).items():
            scalar = Scalar.coerce(v)
            if scalar:
                clean[int(k)] = scalar
        self._table = clean

    def items(self):
        return sorted(self._table.items())

    def offsets(self):
        return sorted(self._table)

    def __getitem__(self, k: int) -> Scalar:
        return self._table.get(k, Scalar(0))

    def is_zero(self) -> bool:
        return not self._table

    def __eq__(self, other):
        return isinstance(other, Omega) and self._table == other._table

    def __hash__(self):
        return hash(frozenset(self._table.items()))

    def __str__(self):
        inner = ", ".join(f"{k}: {v}" for k, v in self.items())
        return "{ " + inner + " }" if inner else "{ }"


class BilinearMap:
    """Base class: a bilinear map given by its action on basis key pairs.

    ``eval_keys`` returns the value on a pair of basis symbols, or raises
    DomainNotCovered when that value is not fully known (tabular maps
    built from windowed solves have only partial knowledge near the
    boundary).
    """

    def eval_keys(self, product: Product, a: BasisKey, b: BasisKey) -> Element:
        raise NotImplementedError

    def eval(self, product: Product, x: Element, y: Element) -> Element:
        return bilinear_extension(partial(self.eval_keys, product), x, y)


class Inner(BilinearMap):
    """lambda * (the commutator of the product): the inner biderivations."""

    def __init__(self, coeff):
        self.coeff = Scalar.coerce(coeff)

    def eval_keys(self, product, a, b):
        return product.commutator_keys(a, b).scaled(self.coeff)

    def __str__(self):
        return f"inner({self.coeff})"


class ROmega(BilinearMap):
    """The symmetric family supported on (L, L) pairs only:

    (L(m), L(n)) -> sum_k mu_k I(m+n+k); zero whenever either argument
    is an I or a central symbol.  Independent of the ambient product.
    """

    def __init__(self, omega: Omega):
        self.omega = omega

    def eval_keys(self, product, a, b):
        if a.family != "L" or b.family != "L":
            return Element.zero()
        s = a.index + b.index
        return Element({I(s + k): v for k, v in self.omega.items()})

    def __str__(self):
        return f"romega({self.omega})"


class TabularBilinear(BilinearMap):
    """A bilinear map known on exactly the argument ``pairs`` it is given.

    A covered pair missing from ``table`` has value zero; any other pair
    raises DomainNotCovered.
    """

    def __init__(self, table, pairs):
        self.table = {pair: value for pair, value in table.items() if value}
        self.pairs = frozenset(pairs)

    def eval_keys(self, product, a, b):
        if (a, b) not in self.pairs:
            raise DomainNotCovered((a, b))
        return self.table.get((a, b), Element.zero())

    def __str__(self):
        return f"tabular({len(self.table)} pairs)"


class SumBilinear(BilinearMap):
    def __init__(self, parts):
        self.parts = tuple(parts)

    def eval_keys(self, product, a, b):
        out = Element.zero()
        for part in self.parts:
            out = out + part.eval_keys(product, a, b)
        return out

    def __str__(self):
        return " + ".join(str(p) for p in self.parts)


class Classified(SumBilinear):
    """The reference family inner(lam) + romega(omega)."""

    def __init__(self, coeff, omega: Omega):
        super().__init__((Inner(coeff), ROmega(omega)))


def is_biderivation(f: BilinearMap, product: Product, window: Window) -> CheckReport:
    """Exhaustive check of both biderivation identities on the window.

    Instances that need a bilinear-map value the map does not cover
    (tabular domain or output-bound gaps) are counted as skipped.  Each
    key pair's value is read once per call, by a cache that dies with the
    call; an uncovered pair raises every time, since the cache keeps no
    exception.
    """
    f_keys = scaled_values(lambda a, b: f.eval_keys(product, a, b).items())
    mul = scaled_values(plain_constants(product))
    keys = product.window_keys(window.n_max)
    instances = (
        ((x, y, z), eq)
        for x in keys
        for y in keys
        for z in keys
        for eq in ("first-slot", "second-slot")
    )

    def residual(xyz, eq):
        x, y, z = xyz
        if eq == "first-slot":
            return leibniz_residual(mul, lambda k: f_keys(k, z), x, y)
        return leibniz_residual(mul, lambda k: f_keys(x, k), y, z)

    return collect_report(residual, instances)


def symmetry_class(f: BilinearMap, window: Window, product: Product = None) -> str:
    """Classify f as "symmetric", "skew" or "neither" on the window.

    The zero map is both; it reports as "symmetric".  Each unordered pair
    is read once; on the diagonal t is s, so only skewness can fail there.
    """
    product = product or LIE_HV
    keys = product.window_keys(window.n_max)
    symmetric = True
    skew = True
    for i, a in enumerate(keys):
        for b in keys[i:]:
            try:
                s = f.eval_keys(product, a, b)
                t = s if a == b else f.eval_keys(product, b, a)
            except DomainNotCovered:
                continue
            if s != t:
                symmetric = False
            if s != -t:
                skew = False
            if not symmetric and not skew:
                return "neither"
    return "symmetric" if symmetric else "skew"


def central_annihilation(f: BilinearMap, product: Product, window: Window) -> CheckReport:
    """Check that f vanishes against the center in both argument slots,
    one instance per slot."""
    if not isinstance(product, LieProduct):
        raise ValueError("central annihilation is defined for the Lie products")
    keys = product.window_keys(window.n_max)
    centers = [c.support()[0] for c in product.center_basis()]
    slots = ("center-left", "center-right")
    instances = (((b, c), eq) for b in keys for c in centers for eq in slots)

    def residual(pair, eq):
        b, c = pair
        if eq == "center-left":
            return f.eval_keys(product, c, b)
        return f.eval_keys(product, b, c)

    return collect_report(residual, instances)


# ---------------------------------------------------------------------------
# The windowed solver.
# ---------------------------------------------------------------------------


def _out_keys(product: Product, s: int, out_bound: int, degree):
    """Output keys available to a pair with index sum ``s``.

    Graded mode: the single slice at index s+degree (plus the central
    symbols when that index is zero).  Ungraded: the full span up to the
    bound.  Keys are produced in canonical order.
    """
    if degree is None:
        return product.window_keys(out_bound)
    t = s + degree
    keys = []
    if abs(t) <= out_bound:
        keys.append(L(t))
        keys.append(I(t))
    if product.has_central and t == 0:
        keys.extend(CENTRAL_KEYS)
    return keys


def solve_biderivations(
    product: Product,
    window: Window,
    out_bound: int,
    degree=None,
) -> SolutionSpace:
    """Canonical nullspace of the windowed biderivation equations.

    Unknowns are the coefficients of f(p, q) over output keys with index
    magnitude at most ``out_bound`` (plus the central symbols when the
    product has them), for noncentral p, q in the window; values on
    central arguments are pinned to zero, which is forced for any
    biderivation of a perfect-bracket algebra and verified separately by
    ``central_annihilation``.  With ``degree`` set, unknowns are
    restricted to the graded slice at index(p) + index(q) + degree.

    Row admission: an identity instance contributes only when the inner
    product's support stays inside the window, and its rows pass
    ``admission``, graded or not, so every admitted row is exactly valid
    and every true biderivation restricts to a solution.
    """
    n_max = window.n_max
    if out_bound < 2 * n_max:
        raise ValueError("output bound must be at least twice the window radius")
    domain = product.window_keys(n_max, central=False)
    registry = VarRegistry()
    out_cache = {}

    def out_keys(s: int):
        got = out_cache.get(s)
        if got is None:
            got = out_cache[s] = _out_keys(product, s, out_bound, degree)
        return got

    for p in domain:
        for q in domain:
            for u in out_keys(p.index + q.index):
                registry.add(("f", p, q, u))

    var_of = registry.id_of
    system = LinearSystem(len(registry))
    add = system.add
    pinned = system.pinned
    mul = plain_constants(product)
    in_window = set(domain)

    def leibniz(a, b, c, var):
        """Rows of a*g(b, c) + g(a, c)*b - g(a*b, c) = 0, where var(p, q, u)
        is the unknown of g(p, q) at output u.  The instance is dropped
        when a*b leaves the window.  A row at w is fed by g(b, c) at
        w - index(a), by g(a, c) at w - index(b) and, when a*b has a
        noncentral term, by g(a*b, c) at w itself.  An unknown already
        pinned to zero is skipped before its terms are built.
        """
        prod = mul(a, b)
        if not all(k.is_central or k in in_window for k, _ in prod):
            return
        ia, ib, ic = a.index, b.index, c.index
        nc = [kv for kv in prod if not kv[0].is_central]
        for bt, coeff in nc:
            for u in out_keys(bt.index + ic):
                vid = var(bt, c, u)
                if vid not in pinned:
                    add(u, vid, -coeff)
        for u in out_keys(ib + ic):
            vid = var(b, c, u)
            if vid in pinned:
                continue
            for w, coeff in mul(a, u):
                add(w, vid, coeff)
        for u in out_keys(ia + ic):
            vid = var(a, c, u)
            if vid in pinned:
                continue
            for w, coeff in mul(u, b):
                add(w, vid, coeff)
        system.flush(admission((ia, ib, 0) if nc else (ia, ib), out_bound))

    def f(p, q, u):
        return var_of(("f", p, q, u))

    def f_transposed(p, q, u):
        return var_of(("f", q, p, u))

    # The second-slot identity of f at (x, y, z) is the first-slot
    # identity of its transpose at (y, z, x).  On an antisymmetric product
    # the later twin, (y, x, z) or (x, z, y), only negates these rows.
    twins = product.antisymmetric
    for x in domain:
        for y in domain:
            for z in domain:
                if not (twins and y <= x):
                    leibniz(x, y, z, f)
                if not (twins and z <= y):
                    leibniz(y, z, x, f_transposed)

    basis = system.nullspace()
    meta = {
        "kind": "biderivation",
        "product": product,
        "n_max": n_max,
        "out_bound": out_bound,
        "degree": degree,
    }
    return SolutionSpace(registry, basis, meta=meta, canonical=True)


def interior_projection(space: SolutionSpace, n_int: int) -> SolutionSpace:
    """Restrict every basis solution to interior argument coordinates.

    A variable label's argument keys (everything between the tag and the
    output key) must all be noncentral with index magnitude at most
    ``n_int``, which must be at least 0 and below the window radius.  The
    restriction is re-canonicalized, so boundary-only freedom drops out
    of the dimension.
    """
    if n_int < 0:
        raise ValueError("interior radius must be at least 0")
    n_max = space.meta.get("n_max")
    if n_max is not None and n_int > n_max - 1:
        raise ValueError("interior radius must stay below the window radius")
    registry = space.registry

    def keep(vid):
        label = registry.label_of(vid)
        return all(
            not k.is_central and abs(k.index) <= n_int for k in label[1:-1]
        )

    out = space.restrict(keep)
    out.meta = dict(space.meta)
    out.meta["interior"] = n_int
    return out


def classified_span(
    space: SolutionSpace,
    product: Product,
    n_int: int,
    include_inner: bool = True,
    offsets=(),
) -> SolutionSpace:
    """Span of the reference family, restricted to interior coordinates.

    Generators: inner(1) when ``include_inner``, and romega({k: 1}) for
    each offset k.  Vectors are built in the same registry as ``space``;
    every generator coordinate must exist there (offsets must respect the
    output bound on interior pairs).
    """
    registry = space.registry
    interior = product.window_keys(n_int, central=False)
    generators = []
    if include_inner:
        generators.append(Inner(1))
    for k in sorted(offsets):
        generators.append(ROmega(Omega({k: 1})))
    vectors = []
    for gen in generators:
        vec = {}
        for p in interior:
            for q in interior:
                for u, c in gen.eval_keys(product, p, q).items():
                    vid = registry.get(("f", p, q, u))
                    if vid is None:
                        raise ValueError(
                            f"generator output {u} for ({p},{q}) escapes the solver's bound"
                        )
                    vec[vid] = c
        vectors.append(vec)
    out = SolutionSpace(registry, vectors, meta=dict(space.meta))
    out.meta["family"] = "classified"
    return out


def rehydrate(space: SolutionSpace, index: int) -> TabularBilinear:
    """Rebuild one basis vector of a graded solve as a tabular bilinear map.

    The table covers the argument pairs the solve had unknowns for, plus
    the pairs with a central argument, which the solve pins to zero; any
    other pair is not covered.  An ungraded solve is refused: it has
    unknowns for every window pair but none past the output bound, so its
    table would read the values there as zero.
    """
    if space.meta.get("degree") is None:
        raise ValueError(
            "rehydrate takes a graded solve: an ungraded table would read "
            "every value past the output bound as zero"
        )
    registry = space.registry
    keys = space.meta["product"].window_keys(space.meta["n_max"])
    pairs = {label[1:3] for label in registry.labels()}
    pairs.update((a, b) for a in keys for b in keys if a.is_central or b.is_central)
    table = {}
    for vid, value in space.basis[index].items():
        _, p, q, u = registry.label_of(vid)
        table.setdefault((p, q), {})[u] = value
    return TabularBilinear(
        {pair: Element(coeffs) for pair, coeffs in table.items()}, pairs
    )

