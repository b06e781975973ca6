"""Commuting linear maps: [phi(x), y] + [phi(y), x] = 0 (the polarized
form of [phi(x), x] = 0), their construction, checking, and an exact
windowed solver.

Every commuting map is a scalar multiple of the identity plus a map with
central values; the solver's interior projection reproduces exactly that
span on a window.
"""

from __future__ import annotations

from .core import (
    AlgebraKind,
    Element,
    LIE_HV,
    bracket,
    bracket_keys,
    center_basis,
)
from .linalg import LinearSystem, SolutionSpace, VarRegistry
from .linmaps import (
    CentralMap,
    CheckReport,
    Counterexample,
    LinearMap,
    ScalarId,
    SumMap,
    Window,
    collect_report,
)
from .scalars import Scalar


def make_commuting(coeff, table=None) -> LinearMap:
    """coeff * identity plus a central-valued table map."""
    return SumMap((ScalarId(coeff), CentralMap(table or {})))


def is_commuting(phi: LinearMap, window: Window) -> CheckReport:
    """Exhaustive polarized check over unordered window pairs."""
    keys = LIE_HV.window_keys(window.n_max)
    pairs = ((a, b) for i, a in enumerate(keys) for b in keys[i:])

    def check(pair):
        a, b = pair
        if not (phi.covers(a) and phi.covers(b)):
            return None
        ea, eb = Element.basis(a), Element.basis(b)
        residual = bracket(AlgebraKind.HV, phi(ea), eb) + bracket(
            AlgebraKind.HV, phi(eb), ea
        )
        if residual.is_zero():
            return ()
        return (Counterexample((a, b), "polarized", residual),)

    return collect_report(check, pairs)


def _render_phi_label(label):
    _, b, u = label
    return f"phi({b}) : {u}"


def solve_commuting(window: Window) -> SolutionSpace:
    """Canonical nullspace of the windowed polarized equations.

    Unknowns are the coefficients of phi(b) over output keys with index
    magnitude at most 2*n_max plus the central symbols, for every window
    key b (central symbols included).  An output coordinate row is only
    admitted when it cannot receive contributions from beyond-bound
    values of phi, so every true commuting map restricts to a solution.
    """
    n_max = window.n_max
    out_bound = 2 * n_max
    domain = LIE_HV.window_keys(n_max)
    out_keys = LIE_HV.window_keys(out_bound)
    registry = VarRegistry(renderer=_render_phi_label)
    for b in domain:
        for u in out_keys:
            registry.add(("phi", b, u))
    var_of = registry.id_of
    system = LinearSystem(len(registry))

    for i, bi in enumerate(domain):
        for bj in domain[i:]:
            for b_arg, b_other in ((bi, bj), (bj, bi)):
                for u in out_keys:
                    base = bracket_keys(AlgebraKind.HV, u, b_other)
                    if not base:
                        continue
                    vid = var_of(("phi", b_arg, u))
                    for w, c in base.items():
                        system.add(w, vid, c)
            near = [b.index for b in (bi, bj) if not b.is_central]
            system.flush(
                lambda w: w.is_central
                or all(abs(w.index - t) <= out_bound for t in near)
            )

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
    central_keys = [elt.support()[0] for elt in center_basis(AlgebraKind.HV)]
    for b in interior:
        for c in central_keys:
            vectors.append({registry.id_of(("phi", b, c)): Scalar(1)})
    out = SolutionSpace(registry, vectors, meta=dict(space.meta))
    out.meta["family"] = "scalar-plus-central"
    return out
