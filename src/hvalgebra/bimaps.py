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

from .core import (
    C1,
    C2,
    C3,
    BasisKey,
    Element,
    I,
    L,
    Product,
    center_basis,
    CENTRAL_KEYS,
)
from .errors import DomainNotCovered
from .linalg import LinearSystem, SolutionSpace, VarRegistry
from .linmaps import CheckReport, Counterexample, Window, collect_report
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

    ``eval_keys`` returns the value on a pair of basis symbols; ``covers``
    reports whether that value is fully known (tabular maps built from
    windowed solves have only partial knowledge near the boundary).
    """

    def eval_keys(self, product: Product, a: BasisKey, b: BasisKey) -> Element:
        raise NotImplementedError

    def covers(self, a: BasisKey, b: BasisKey) -> bool:
        return True

    def covers_pairs(self, xs, ys) -> bool:
        return all(self.covers(a, b) for a in xs for b in ys)

    def eval(self, product: Product, x: Element, y: Element) -> Element:
        out = Element.zero()
        for ka, ca in x.items():
            for kb, cb in y.items():
                if not self.covers(ka, kb):
                    raise DomainNotCovered((ka, kb))
                out = out + self.eval_keys(product, ka, kb).scaled(ca * cb)
        return out


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


class Classified(BilinearMap):
    """The reference family inner(lam) + romega(omega)."""

    def __init__(self, coeff, omega: Omega):
        self.inner = Inner(coeff)
        self.romega = ROmega(omega)

    def eval_keys(self, product, a, b):
        return self.inner.eval_keys(product, a, b) + self.romega.eval_keys(
            product, a, b
        )

    def __str__(self):
        return f"{self.inner} + {self.romega}"


class TabularBilinear(BilinearMap):
    """A bilinear map recorded on a finite window of argument keys.

    ``out_degree``/``out_bound`` record partial output knowledge for maps
    rehydrated from a graded windowed solve: such a table only knows the
    value of the single graded output slice, and only while its index
    stays within the bound, so pairs pushed past the bound are reported
    as not covered rather than silently zero.
    """

    def __init__(self, table, domain, out_degree=None, out_bound=None):
        self.table = {pair: value for pair, value in table.items() if value}
        self.domain = frozenset(domain)
        self.out_degree = out_degree
        self.out_bound = out_bound

    def covers(self, a, b):
        if a not in self.domain or b not in self.domain:
            return False
        if self.out_bound is None or self.out_degree is None:
            return True
        if a.is_central or b.is_central:
            return True
        return abs(a.index + b.index + self.out_degree) <= self.out_bound

    def eval_keys(self, product, a, b):
        if not self.covers(a, b):
            raise DomainNotCovered((a, b))
        return self.table.get((a, b), Element.zero())

    def __str__(self):
        return f"tabular({len(self.table)} pairs)"


class SumBilinear(BilinearMap):
    def __init__(self, parts):
        self.parts = tuple(parts)

    def covers(self, a, b):
        return all(part.covers(a, b) for part in self.parts)

    def eval_keys(self, product, a, b):
        out = Element.zero()
        for part in self.parts:
            out = out + part.eval_keys(product, a, b)
        return out

    def __str__(self):
        return " + ".join(str(p) for p in self.parts)


def is_biderivation(f: BilinearMap, product: Product, window: Window) -> CheckReport:
    """Exhaustive check of both biderivation identities on the window.

    Instances that need a bilinear-map value the map does not cover
    (tabular domain or output-bound gaps) are counted as skipped.
    """
    keys = product.window_keys(window.n_max)
    instances = (
        (x, y, z, eq)
        for x in keys
        for y in keys
        for z in keys
        for eq in ("first-slot", "second-slot")
    )

    def check(instance):
        x, y, z, eq = instance
        if eq == "first-slot":
            prod = product.mul_keys(x, y)
            pairs = [(bt, z) for bt in prod.support()] + [(y, z), (x, z)]
            if not all(f.covers(a, b) for a, b in pairs):
                return None
            lhs = Element.zero()
            for bt, c in prod.items():
                lhs = lhs + f.eval_keys(product, bt, z).scaled(c)
            rhs = product.mul(Element.basis(x), f.eval_keys(product, y, z)) + product.mul(
                f.eval_keys(product, x, z), Element.basis(y)
            )
        else:
            prod = product.mul_keys(y, z)
            pairs = [(x, bt) for bt in prod.support()] + [(x, y), (x, z)]
            if not all(f.covers(a, b) for a, b in pairs):
                return None
            lhs = Element.zero()
            for bt, c in prod.items():
                lhs = lhs + f.eval_keys(product, x, bt).scaled(c)
            rhs = product.mul(f.eval_keys(product, x, y), Element.basis(z)) + product.mul(
                Element.basis(y), f.eval_keys(product, x, z)
            )
        residual = lhs - rhs
        if residual.is_zero():
            return ()
        return (Counterexample((x, y, z), eq, residual),)

    return collect_report(check, instances)


def symmetry_class(f: BilinearMap, window: Window, product: Product = None) -> str:
    """Classify f as "symmetric", "skew" or "neither" on the window.

    The zero map is both; it reports as "symmetric".
    """
    from .core import LIE_HV

    product = product or LIE_HV
    keys = product.window_keys(window.n_max)
    symmetric = True
    skew = True
    for a in keys:
        for b in keys:
            if not (f.covers(a, b) and f.covers(b, a)):
                continue
            s = f.eval_keys(product, a, b)
            t = f.eval_keys(product, b, a)
            if s != t:
                symmetric = False
            if s != -t:
                skew = False
            if not symmetric and not skew:
                return "neither"
    return "symmetric" if symmetric else "skew"


def central_annihilation(f: BilinearMap, product: Product, window: Window) -> CheckReport:
    """Check that f vanishes against the center in both argument slots."""
    if not product.is_lie:
        raise ValueError("central annihilation is defined for the Lie kinds")
    keys = product.window_keys(window.n_max)
    centers = center_basis(product.kind)
    instances = ((b, c) for b in keys for c in centers)

    def check(instance):
        b, c = instance
        belt = Element.basis(b)
        if not all(f.covers(b, ck) and f.covers(ck, b) for ck in c.support()):
            return None
        bad = []
        left = f.eval(product, c, belt)
        if left:
            bad.append(Counterexample((b, c.support()[0]), "center-left", left))
        right = f.eval(product, belt, c)
        if right:
            bad.append(Counterexample((b, c.support()[0]), "center-right", right))
        return tuple(bad)

    return collect_report(check, instances)


# ---------------------------------------------------------------------------
# The windowed solver.
# ---------------------------------------------------------------------------


def _render_f_label(label):
    _, p, q, u = label
    return f"f({p},{q}) : {u}"


def _out_keys(product: Product, s: int, out_bound: int, degree):
    """Output keys available to a pair with index sum ``s``.

    Graded mode: the single slice at index s+degree (plus the central
    symbols when that index is zero).  Ungraded: the full span up to the
    bound.  Keys are produced in canonical order.
    """
    if degree is None:
        keys = [L(t) for t in range(-out_bound, out_bound + 1)]
        keys.extend(I(t) for t in range(-out_bound, out_bound + 1))
        if product.has_central:
            keys.extend(CENTRAL_KEYS)
        return keys
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
    product's support stays inside the window and every bilinear-map
    value it references lies within the output bound; in ungraded mode a
    per-coordinate filter additionally drops output coordinates that
    could receive contributions from beyond-bound values.  Admitted rows
    are exactly valid, so every true biderivation restricts to a
    solution.
    """
    n_max = window.n_max
    if out_bound < 2 * n_max:
        raise ValueError("output bound must be at least twice the window radius")
    domain = product.window_keys(n_max, central=False)
    registry = VarRegistry(renderer=_render_f_label)
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

    def exact(near1, near2):
        """Ungraded admission for one identity instance.

        ``near1``/``near2`` are the indices of the two window elements
        multiplied against unknown values; an output coordinate w is only
        exact when |w - near| <= out_bound for both, which excludes
        contamination from beyond-bound values.
        """
        if degree is not None:
            return None
        return lambda w: w.is_central or (
            abs(w.index) <= out_bound
            and abs(w.index - near1) <= out_bound
            and abs(w.index - near2) <= out_bound
        )

    in_window = set(domain)

    def window_ok(prod: Element) -> bool:
        return all(k.is_central or k in in_window for k in prod.support())

    def pair_ok(s: int) -> bool:
        return degree is None or abs(s + degree) <= out_bound or (
            product.has_central and s + degree == 0
        )

    for x in domain:
        ix = x.index
        for y in domain:
            iy = y.index
            prod_xy = product.mul_keys(x, y)
            xy_ok = window_ok(prod_xy)
            for z in domain:
                iz = z.index

                # first-slot identity: f(x*y, z) = x*f(y,z) + f(x,z)*y
                if xy_ok and pair_ok(iy + iz) and pair_ok(ix + iz):
                    nc = [kv for kv in prod_xy.items() if not kv[0].is_central]
                    if all(pair_ok(kv[0].index + iz) for kv in nc):
                        for bt, c in nc:
                            for u in out_keys(bt.index + iz):
                                add(u, var_of(("f", bt, z, u)), c)
                        for u in out_keys(iy + iz):
                            vid = var_of(("f", y, z, u))
                            for w, c in product.mul_keys(x, u).items():
                                add(w, vid, -c)
                        for u in out_keys(ix + iz):
                            vid = var_of(("f", x, z, u))
                            for w, c in product.mul_keys(u, y).items():
                                add(w, vid, -c)
                        system.flush(exact(ix, iy))

                # second-slot identity: f(x, y*z) = f(x,y)*z + y*f(x,z)
                prod_yz = product.mul_keys(y, z)
                if window_ok(prod_yz) and pair_ok(ix + iy) and pair_ok(ix + iz):
                    nc = [kv for kv in prod_yz.items() if not kv[0].is_central]
                    if all(pair_ok(ix + kv[0].index) for kv in nc):
                        for bt, c in nc:
                            for u in out_keys(ix + bt.index):
                                add(u, var_of(("f", x, bt, u)), c)
                        for u in out_keys(ix + iy):
                            vid = var_of(("f", x, y, u))
                            for w, c in product.mul_keys(u, z).items():
                                add(w, vid, -c)
                        for u in out_keys(ix + iz):
                            vid = var_of(("f", x, z, u))
                            for w, c in product.mul_keys(y, u).items():
                                add(w, vid, -c)
                        system.flush(exact(iz, iy))

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
    """Rebuild one solver basis vector as a tabular bilinear map.

    The table covers the solve's full argument window (central pairs are
    pinned to zero) and records the graded output bound so checks skip
    instances the solve could not represent.
    """
    product = space.meta["product"]
    n_max = space.meta["n_max"]
    table = {}
    for vid, value in space.basis[index].items():
        _, p, q, u = space.registry.label_of(vid)
        table.setdefault((p, q), {})[u] = value
    return TabularBilinear(
        {pair: Element(coeffs) for pair, coeffs in table.items()},
        domain=product.window_keys(n_max),
        out_degree=space.meta.get("degree"),
        out_bound=space.meta.get("out_bound"),
    )


def drop_output_coordinates(space: SolutionSpace, predicate) -> SolutionSpace:
    """Project away output coordinates whose key fails the predicate."""
    registry = space.registry

    def keep(vid):
        label = registry.label_of(vid)
        return predicate(label[-1])

    return space.restrict(keep)
