"""Commuting linear maps: [phi(x), y] + [phi(y), x] = 0 (the polarized
form of [phi(x), x] = 0), their construction, checking, and an exact
windowed solver.  ``polarized_parts`` states the rule once for both.

Every commuting map is a scalar multiple of the identity plus a map with
central values; the solver's interior projection reproduces exactly that
span on a window.
"""

from __future__ import annotations

from . import linalg
from .core import LIE_HV
from .linalg import SolutionSpace, VarRegistry, reference_span
from .linmaps import (
    CentralMap,
    CheckReport,
    LinearMap,
    ScalarId,
    SumMap,
    Window,
    admission,
    collect_report,
    gaussian_sum,
    plain_values,
    scaled_values,
)


def make_commuting(coeff, table=None) -> LinearMap:
    """coeff * identity plus a central-valued table map."""
    return SumMap((ScalarId(coeff), CentralMap(table or {})))


def polarized_parts(mul, phi, a, b) -> tuple:
    """The parts of [phi(a), b] + [phi(b), a], the one statement of the
    polarized rule, in the shape ``linmaps.leibniz_parts`` gives: summed
    by ``gaussian_sum`` in the checker and turned into rows by
    ``linalg.admitted_rows`` in the solver."""
    return ((1, phi(a), lambda u: mul(u, b)), (1, phi(b), lambda u: mul(u, a)))


def is_commuting(phi: LinearMap, window: Window) -> CheckReport:
    """Exhaustive polarized check over unordered window pairs.  Each key's
    value is read once per call, by a cache that dies with the call."""
    phi_key = scaled_values(phi.apply_key)
    mul = scaled_values(LIE_HV.mul_keys)
    keys = LIE_HV.window_keys(window.n_max)
    pairs = (((a, b), "polarized") for i, a in enumerate(keys) for b in keys[i:])

    def residual(pair, _):
        return gaussian_sum(polarized_parts(mul, phi_key, *pair))

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
    registry = VarRegistry()
    instances = _commuting_system(n_max, out_bound, registry)
    basis = linalg.nullspace(linalg.admitted_rows(instances), len(registry))
    meta = {"kind": "commuting", "n_max": n_max, "out_bound": out_bound}
    return SolutionSpace(registry, basis, meta=meta)


def _commuting_system(n_max, out_bound, registry):
    """The polarized instances of ``solve_commuting``, as a generator, over
    unknowns added to ``registry`` before it is returned; the linear
    forms and the cache die with the generator once its last instance is
    read."""
    domain = LIE_HV.window_keys(n_max)
    out_keys = LIE_HV.window_keys(out_bound)
    phi = {b: {u: registry.add(("phi", b, u)) for u in out_keys} for b in domain}
    mul = plain_values(LIE_HV.mul_keys)

    def instances():
        for i, a in enumerate(domain):
            for b in domain[i:]:
                near = [k.index for k in (a, b) if not k.is_central]
                if near:  # else both arguments central: no bracket term survives
                    yield polarized_parts(mul, phi.__getitem__, a, b), admission(near, out_bound)

    return instances()


def generator_span(space: SolutionSpace, n_int: int) -> SolutionSpace:
    """Interior span of the known commuting maps: the pieces of
    ``make_commuting``, the identity and every single-entry central-valued
    table on an interior key."""
    interior = LIE_HV.window_keys(n_int, central=False)
    pieces = [ScalarId(1)]
    pieces += [CentralMap({b: c}) for b in interior for c in LIE_HV.center_basis()]
    arguments = [(b,) for b in interior]
    readers = [m.apply_key for m in pieces]
    return reference_span(space, "phi", arguments, readers, "scalar-plus-central")
