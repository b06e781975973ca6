"""Acceptance gate: the headline guarantees of the package, end to end.

Every check here is exact (tolerance zero).  Each test finishes by
printing a single ``[PASS]`` line describing what was established; a
failing test surfaces through pytest's own FAILED line instead.  Run
with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print.
"""

import itertools
import random
import time

from hvalgebra.bimaps import (
    Classified,
    Inner,
    Omega,
    ROmega,
    central_annihilation,
    classified_span,
    interior_projection,
    is_biderivation,
    solve_biderivations,
    symmetry_class,
)
from hvalgebra.commuting import (
    generator_span,
    is_commuting,
    make_commuting,
    solve_commuting,
)
from hvalgebra.core import (
    C1,
    C2,
    C3,
    Element,
    I,
    L,
    LIE_HV,
    LIE_W00,
)
from hvalgebra.leftsym import (
    LeftSymParams,
    LeftSymProduct,
    is_left_symmetric,
    subadjacent_residual,
)
from hvalgebra.linalg import span_equal
from hvalgebra.linmaps import (
    D3,
    Decomposition,
    ScaledMap,
    Window,
    decompose_derivation,
    is_derivation,
)
from hvalgebra.postlie import is_commutative_postlie, postlie_residual
from hvalgebra.render import (
    render_check_report,
    render_solution_space,
    render_strata_report,
)
from hvalgebra.scalars import Scalar


def _conclude(message: str) -> None:
    print(f"[PASS] {message}", flush=True)


def _random_scalar(rng, nonzero=False) -> Scalar:
    while True:
        value = Scalar(rng.randint(-9, 9), rng.randint(-9, 9))
        if value or not nonzero:
            return value


def _random_omega(rng, nonzero=False) -> Omega:
    while True:
        table = {
            rng.randint(-5, 5): _random_scalar(rng)
            for _ in range(rng.randint(1, 4))
        }
        omega = Omega(table)
        if omega.offsets() or not nonzero:
            return omega


def test_bracket_axioms_hold_exactly_on_the_window():
    started = time.monotonic()
    triples = 0
    for product in (LIE_HV, LIE_W00):
        keys = product.window_keys(6)
        for a, b in itertools.product(keys, repeat=2):
            assert product.mul_keys(a, b) == -product.mul_keys(b, a)
        for a, b, c in itertools.product(keys, repeat=3):
            x, y, z = Element.basis(a), Element.basis(b), Element.basis(c)
            total = (
                product.mul(x, product.mul(y, z))
                + product.mul(y, product.mul(z, x))
                + product.mul(z, product.mul(x, y))
            )
            assert total.is_zero(), (product, a, b, c)
            triples += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _conclude(
        "bracket axioms: antisymmetry and Jacobi exact on |n| <= 6, both "
        f"algebras ({triples} triples, {elapsed:.1f}s)"
    )


def test_symmetric_offset_family_is_a_noninner_biderivation():
    f = ROmega(Omega({0: 1}))
    report = is_biderivation(f, LIE_W00, Window(6))
    assert report.passed
    assert report.checked == 35152
    assert symmetry_class(f, Window(6), LIE_W00) == "symmetric"

    # non-inner: its interior restriction escapes the span of the inner maps
    space = solve_biderivations(LIE_W00, Window(3), 8, degree=0)
    interior = interior_projection(space, 2)
    inner_only = classified_span(space, LIE_W00, 2, include_inner=True, offsets=())
    family = classified_span(space, LIE_W00, 2, include_inner=False, offsets=(0,))
    vector = family.basis[0]
    assert interior.contains(vector)
    assert not inner_only.contains(vector)

    # on the full bracket the family is obstructed, exactly in the two
    # central strata fed by the bracket's C2/C3 terms
    full = is_biderivation(f, LIE_HV, Window(2))
    assert not full.passed
    for case in full.counterexamples:
        assert case.residual.noncentral().is_zero()
        assert not case.residual[C1]
    _conclude(
        "symmetric offset family: biderivation of the quotient bracket "
        "(35152 checks), symmetric, outside the inner span; full-bracket "
        "residuals confined to C2/C3"
    )


def test_windowed_solver_matches_the_generating_families_per_degree():
    started = time.monotonic()
    dims = {}
    for product in (LIE_W00, LIE_HV):
        for degree in range(-3, 4):
            space = solve_biderivations(product, Window(3), 8, degree=degree)
            interior = interior_projection(space, 2)
            if product is LIE_W00:
                include_inner = degree == 0
                offsets = (degree,)
            else:
                # the central cocycles kill every offset family on the
                # full bracket; only the inner map survives, in degree 0
                include_inner = degree == 0
                offsets = ()
            family = classified_span(
                space, product, 2, include_inner=include_inner, offsets=offsets
            )
            comparison = span_equal(family, interior)
            assert comparison.equal, (product.name, degree)
            dims[(product.name, degree)] = interior.dimension
    for degree in range(-3, 4):
        assert dims[("lie-w00", degree)] == (2 if degree == 0 else 1)
        assert dims[("lie-hv", degree)] == (1 if degree == 0 else 0)
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    _conclude(
        "windowed biderivation solver: interior spaces equal the generating "
        "spans per degree |d| <= 3 (quotient dims 2/1; full-bracket dims 1/0, "
        f"inner only) ({elapsed:.1f}s)"
    )


def test_biderivations_annihilate_the_center_in_both_slots():
    rng = random.Random(2024)
    checked = 0
    for product in (LIE_HV, LIE_W00):
        for _ in range(5):
            f = Classified(_random_scalar(rng), _random_omega(rng))
            report = central_annihilation(f, product, Window(4))
            assert report.passed
            assert report.skipped == 0
            checked += report.checked
    _conclude(
        "center annihilation: classified biderivations vanish against every "
        f"central element in both slots, exhaustively ({checked} checks)"
    )


def test_quotient_derivations_decompose_exactly():
    rng = random.Random(20260818)
    for trial in range(50):
        support = {}
        for _ in range(rng.randint(0, 5)):
            key = rng.choice((L, I))(rng.randint(-8, 8))
            if key == I(0):
                continue  # ad I(0) vanishes: recovery is modulo I(0)
            support[key] = _random_scalar(rng)
        original = Decomposition(
            Element(support), *(_random_scalar(rng) for _ in range(3))
        )
        recovered = decompose_derivation(original.as_map(), Window(5))
        assert recovered == original, trial
    _conclude(
        "derivation decomposition: inner part and the three outer "
        "coefficients recovered exactly, 50 randomized maps on |n| <= 5"
    )


def test_commuting_maps_check_and_solve_consistently():
    rng = random.Random(77)
    for _ in range(50):
        table = {}
        for _ in range(rng.randint(0, 4)):
            key = rng.choice((L, I))(rng.randint(-6, 6))
            table[key] = Element(
                {rng.choice((C1, C2, C3, I(0))): _random_scalar(rng)}
            )
        phi = make_commuting(_random_scalar(rng), table)
        report = is_commuting(phi, Window(6))
        assert report.passed, table
    space = solve_commuting(Window(3))
    reg = space.registry

    def keep(vid):
        b = reg.label_of(vid)[1]
        return not b.is_central and abs(b.index) <= 2

    interior = space.restrict(keep)
    family = generator_span(space, 2)
    interior_keys = len(LIE_HV.window_keys(2, central=False))
    assert interior.dimension == 1 + 4 * interior_keys == 41
    assert span_equal(interior, family).equal
    _conclude(
        "commuting maps: 50 randomized scalar-plus-central maps pass on "
        "|n| <= 6; solver interior equals the generator span "
        f"(dimension 1 + 4*{interior_keys} = {interior.dimension})"
    )


def test_no_nonzero_symmetric_family_gives_a_commutative_postlie_product():
    rng = random.Random(4242)
    for _ in range(50):
        omega = _random_omega(rng, nonzero=True)
        residual = postlie_residual(omega)
        assert not residual.is_zero()
        assert residual == Element(
            {I(6 + k): omega[k] for k in omega.offsets()}
        )
    lam = _random_scalar(rng, nonzero=True)
    f = Classified(lam, _random_omega(rng))
    diff = f.eval_keys(LIE_HV, L(1), L(2)) - f.eval_keys(LIE_HV, L(2), L(1))
    assert diff == Element({L(3): lam * -2})
    assert not diff.is_zero()
    _conclude(
        "commutative post-Lie triviality: the action probe re-emits the "
        "offset table (nonzero for 50 random nonzero tables); any inner "
        "part breaks commutativity at (L(1), L(2))"
    )


def test_left_symmetric_family_verified_and_residuals_reported():
    param_sets = (
        LeftSymParams(0, 0, Scalar(1, 1)),
        LeftSymParams(1, 2, Scalar(1, 1)),
        LeftSymParams(0, 0, Scalar(0, 1)),
    )
    reports = []
    for params in param_sets:
        product = LeftSymProduct(params)
        identity = is_left_symmetric(product, Window(4))
        assert not [c for c in identity.counterexamples if c.residual.noncentral()]
        assert identity.checked == 9261

        residuals = subadjacent_residual(product, Window(6))
        for pair, r in residuals:
            assert r.noncentral().is_zero(), pair
            assert not r[C1], pair
        # C2/C3 strata: deterministic report, values not asserted
        reports.append(render_strata_report(residuals))
    assert reports[0] == render_strata_report(
        subadjacent_residual(LeftSymProduct(param_sets[0]), Window(6))
    )
    nonzero = reports[0].splitlines()[1]
    _conclude(
        "left-symmetric family: identity exact outside the central strata "
        "for three parameter sets (9261 triples each); commutator matches "
        "the bracket on the L/I and C1 strata on |n| <= 6; C2/C3 strata "
        f"reported deterministically ({nonzero})"
    )


def test_quotient_left_symmetric_product_has_no_interior_biderivations():
    started = time.monotonic()
    quotient = LeftSymProduct(LeftSymParams(0, 0, Scalar(1, 1)), quotient=True)
    for degree in range(-2, 3):
        space = interior_projection(
            solve_biderivations(quotient, Window(2), 4, degree=degree), 1
        )
        assert space.dimension == 0, degree
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    _conclude(
        "quotient left-symmetric product: interior biderivation space is "
        f"zero for every degree |d| <= 2 ({elapsed:.1f}s)"
    )


def test_reports_are_byte_identical_across_parallelism():
    f = ROmega(Omega({0: 1}))
    pairs = [
        render_check_report(is_biderivation(f, LIE_HV, Window(2)))
        for _ in range(2)
    ]
    assert pairs[0] == pairs[1]
    solves = [
        render_solution_space(
            solve_biderivations(LIE_W00, Window(2), 4, degree=0)
        )
        for _ in range(2)
    ]
    assert solves[0] == solves[1]
    commuting = [
        render_check_report(
            is_commuting(make_commuting(3, {L(1): Element({C1: 2})}), Window(4))
        )
        for _ in range(2)
    ]
    assert commuting[0] == commuting[1]
    postlie = [
        render_check_report(
            is_commutative_postlie(ROmega(Omega({1: 2})), Window(2))
        )
        for _ in range(2)
    ]
    assert postlie[0] == postlie[1]
    product = LeftSymProduct(LeftSymParams(0, 0, Scalar(1, 1)))
    leftsym = [
        render_check_report(is_left_symmetric(product, Window(3)))
        for _ in range(2)
    ]
    assert leftsym[0] == leftsym[1]
    derivation = [
        render_check_report(
            is_derivation(ScaledMap(D3, Scalar(1, 1)), LIE_W00, Window(3))
        )
        for _ in range(2)
    ]
    assert derivation[0] == derivation[1]
    strata = [
        render_strata_report(subadjacent_residual(product, Window(3)))
        for _ in range(2)
    ]
    assert strata[0] == strata[1]
    _conclude(
        "determinism: check reports, solution spaces and strata reports "
        "byte-identical across parallelism settings"
    )
