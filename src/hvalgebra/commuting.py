"""Commuting linear maps: [phi(x), y] + [phi(y), x] = 0 (the polarized
form of [phi(x), x] = 0), their construction, checking, and an exact
windowed solver.

Every commuting map is a scalar multiple of the identity plus a map with
central values; the solver's interior projection reproduces exactly that
span on a window.
"""

from __future__ import annotations

from functools import lru_cache

from .core import Element, LIE_HV, plain_constants
from .linalg import LinearSystem, SolutionSpace, VarRegistry
from .linmaps import (
    CentralMap,
    CheckReport,
    LinearMap,
    ScalarId,
    SumMap,
    Window,
    admission,
    collect_report,
)
from .scalars import Scalar


def make_commuting(coeff, table=None) -> LinearMap:
    """coeff * identity plus a central-valued table map."""
    return SumMap((ScalarId(coeff), CentralMap(table or {})))


def is_commuting(phi: LinearMap, window: Window) -> CheckReport:
    """Exhaustive polarized check over unordered window pairs.  Each key's
    value is read once per call, by a cache that dies with the call."""
    phi_key = lru_cache(maxsize=None)(phi.apply_key)
    keys = LIE_HV.window_keys(window.n_max)
    pairs = (((a, b), "polarized") for i, a in enumerate(keys) for b in keys[i:])

    def residual(pair, _):
        a, b = pair
        ea, eb = Element.basis(a), Element.basis(b)
        return LIE_HV.mul(phi_key(a), eb) + LIE_HV.mul(phi_key(b), ea)

    return collect_report(residual, pairs)


def solve_commuting(window: Window) -> SolutionSpace:
    """Canonical nullspace of the windowed polarized equations.

    Unknowns are the coefficients of phi(b) over output keys with index
    magnitude at most 2*n_max plus the central symbols, for every window
    key b (central symbols included).  The pair (a, b) feeds the output
    coordinate w from phi(a) at w - index(b) and from phi(b) at
    w - index(a), so its rows pass ``admission`` with the noncentral
    indices of the pair as shifts: every true commuting map restricts to
    a solution.
    """
    n_max = window.n_max
    out_bound = 2 * n_max
    domain = LIE_HV.window_keys(n_max)
    out_keys = LIE_HV.window_keys(out_bound)
    registry = VarRegistry()
    for b in domain:
        for u in out_keys:
            registry.add(("phi", b, u))
    var_of = registry.id_of
    mul_keys = plain_constants(LIE_HV)
    system = LinearSystem(len(registry))
    pinned = system.pinned

    for i, bi in enumerate(domain):
        for bj in domain[i:]:
            near = [b.index for b in (bi, bj) if not b.is_central]
            if not near:
                continue  # both arguments central: no bracket term survives
            for b_arg, b_other in ((bi, bj), (bj, bi)):
                for u in out_keys:
                    vid = var_of(("phi", b_arg, u))
                    if vid in pinned:
                        continue
                    for w, c in mul_keys(u, b_other):
                        system.add(w, vid, c)
            system.flush(admission(near, out_bound))

    basis = system.nullspace()
    meta = {"kind": "commuting", "n_max": n_max, "out_bound": out_bound}
    return SolutionSpace(registry, basis, meta=meta, canonical=True)


def generator_span(space: SolutionSpace, n_int: int) -> SolutionSpace:
    """Interior span of the known commuting maps: the identity plus every
    single-entry central-valued table on an interior key."""
    registry = space.registry
    interior = LIE_HV.window_keys(n_int, central=False)
    vectors = []
    identity = {}
    for b in interior:
        identity[registry.id_of(("phi", b, b))] = Scalar(1)
    vectors.append(identity)
    central_keys = [elt.support()[0] for elt in LIE_HV.center_basis()]
    for b in interior:
        for c in central_keys:
            vectors.append({registry.id_of(("phi", b, c)): Scalar(1)})
    out = SolutionSpace(registry, vectors, meta=dict(space.meta))
    out.meta["family"] = "scalar-plus-central"
    return out
