"""Bilinear maps, the two-slot derivation axioms, and the window solver."""

import random

import pytest

from hvalgebra.bimaps import (
    Classified,
    Inner,
    Omega,
    ROmega,
    TabularBilinear,
    central_annihilation,
    classified_span,
    drop_output_coordinates,
    interior_projection,
    is_biderivation,
    rehydrate,
    solve_biderivations,
    symmetry_class,
)
from hvalgebra.core import (
    C1,
    C2,
    LIE_HV,
    LIE_W00,
    Element,
    I,
    L,
    bracket,
)
from hvalgebra.errors import DomainNotCovered, InfeasibleWindow
from hvalgebra.linalg import span_equal
from hvalgebra.linmaps import Window
from hvalgebra.scalars import Scalar


def E(key):
    return Element.basis(key)


def test_omega_normalization():
    om = Omega({0: 1, 2: 0, -1: Scalar(0, 1)})
    assert om.offsets() == [-1, 0]
    assert str(om) == "{ -1: i, 0: 1 }"
    assert Omega({}).is_zero()


def test_eval_examples():
    r = ROmega(Omega({0: 1}))
    assert r.eval_keys(LIE_HV, L(1), L(2)) == E(I(3))
    assert r.eval_keys(LIE_HV, L(1), I(2)).is_zero()
    assert r.eval_keys(LIE_HV, C1, L(1)).is_zero()
    assert Inner(Scalar(2)).eval_keys(LIE_HV, L(2), L(-2)) == Element(
        {L(0): 8, C1: 1}
    )
    spread = ROmega(Omega({-1: 2, 3: Scalar(0, 1)}))
    assert spread.eval_keys(LIE_HV, L(0), L(1)) == Element(
        {I(0): 2, I(4): Scalar(0, 1)}
    )


def test_eval_is_bilinear():
    f = Classified(Scalar(1), Omega({0: 1}))
    x = Element({L(1): 2, I(0): -1})
    y = Element({L(-1): 3, C2: 5})
    direct = f.eval(LIE_HV, x, y)
    expanded = (
        f.eval_keys(LIE_HV, L(1), L(-1)).scaled(6)
        + f.eval_keys(LIE_HV, I(0), L(-1)).scaled(-3)
    )
    assert direct == expanded


def test_inner_maps_are_biderivations():
    rng = random.Random(7)
    for _ in range(5):
        lam = Scalar(rng.randint(-9, 9), rng.randint(-9, 9))
        report = is_biderivation(Inner(lam), LIE_HV, Window(3))
        assert report.passed


def test_offset_family_is_a_biderivation_of_the_quotient():
    report = is_biderivation(ROmega(Omega({0: 1})), LIE_W00, Window(4))
    assert report.passed
    report = is_biderivation(ROmega(Omega({-2: 3, 1: Scalar(0, 1)})), LIE_W00, Window(3))
    assert report.passed


def test_offset_family_fails_on_the_full_bracket_in_central_strata():
    """The bracket's central terms obstruct the offset family: pairing an
    I-value against an L argument emits C2, and against an I argument
    emits C3, with no compensating term on the other side."""
    report = is_biderivation(ROmega(Omega({0: 1})), LIE_HV, Window(2))
    assert not report.passed
    assert len(report.counterexamples) == 80
    first = report.counterexamples[0]
    assert first.inputs == (L(-2), L(0), L(2))
    assert first.equation == "first-slot"
    assert first.residual == Element({C2: 2})
    for case in report.counterexamples:
        assert case.residual.noncentral().is_zero()
        assert not case.residual[C1]


def test_tabular_projection_shift_is_not_a_biderivation():
    domain = [k for n in range(-3, 4) for k in (L(n), I(n))]
    table = {
        (L(m), L(n)): E(L(m + n))
        for m in range(-3, 4)
        for n in range(-3, 4)
    }
    f = TabularBilinear(table, domain=domain)
    # direct residual of the first-slot equation at (L(1), L(2), L(3))
    lhs = f.eval(LIE_HV, bracket(LIE_HV.kind, E(L(1)), E(L(2))), E(L(3)))
    rhs = bracket(LIE_HV.kind, E(L(1)), f.eval_keys(LIE_HV, L(2), L(3))) + bracket(
        LIE_HV.kind, f.eval_keys(LIE_HV, L(1), L(3)), E(L(2))
    )
    assert lhs - rhs == E(L(6))
    report = is_biderivation(f, LIE_HV, Window(3))
    assert not report.passed
    assert report.skipped > 0  # boundary pairs fall outside the table


def test_symmetry_classes():
    w = Window(3)
    assert symmetry_class(ROmega(Omega({0: 1})), w) == "symmetric"
    assert symmetry_class(Inner(Scalar(1)), w) == "skew"
    assert symmetry_class(Classified(Scalar(1), Omega({0: 1})), w) == "neither"
    assert symmetry_class(Inner(Scalar(0)), w) == "symmetric"


def test_central_annihilation():
    report = central_annihilation(
        Classified(Scalar(3), Omega({1: 2})), LIE_HV, Window(4)
    )
    assert report.passed
    bad = TabularBilinear({(L(0), C1): E(L(0))}, domain=[L(0), C1])
    report = central_annihilation(bad, LIE_HV, Window(1))
    assert not report.passed
    assert report.counterexamples[0].inputs == (L(0), C1)


def test_solver_validates_its_window():
    with pytest.raises(ValueError):
        solve_biderivations(LIE_HV, Window(3), 5)
    with pytest.raises(InfeasibleWindow):
        # a graded slice so far out that no unknowns survive
        solve_biderivations(LIE_HV, Window(2), 4, degree=50)


def test_graded_solver_dimensions():
    """Interior dimensions at window 3, bound 8, interior radius 2.

    On the quotient the space is the inner map plus one offset family
    per degree; on the full bracket the central cocycles kill the offset
    family, leaving only the inner map in degree zero.
    """
    expected = {
        LIE_W00: {0: 2, 1: 1, -1: 1, 2: 1},
        LIE_HV: {0: 1, 1: 0, -1: 0, 2: 0},
    }
    for product, by_degree in expected.items():
        for degree, dim in by_degree.items():
            space = solve_biderivations(product, Window(3), 8, degree=degree)
            assert interior_projection(space, 2).dimension == dim, (
                product.name,
                degree,
            )


def test_graded_solver_matches_the_generator_span():
    for degree in (0, 1, -2):
        space = solve_biderivations(LIE_W00, Window(3), 8, degree=degree)
        interior = interior_projection(space, 2)
        family = classified_span(
            space, LIE_W00, 2, include_inner=(degree == 0), offsets=(degree,)
        )
        assert span_equal(family, interior).equal
    # full bracket: the solver recovers exactly the inner span in degree 0
    space = solve_biderivations(LIE_HV, Window(3), 8, degree=0)
    interior = interior_projection(space, 2)
    inner_only = classified_span(space, LIE_HV, 2, include_inner=True, offsets=())
    assert span_equal(inner_only, interior).equal


def _restriction(space, product, f):
    reg = space.registry
    vec = {}
    for vid in range(len(reg)):
        _, p, q, u = reg.label_of(vid)
        value = f.eval_keys(product, p, q)[u]
        if value:
            vec[vid] = value
    return vec


def test_ungraded_solver_membership():
    space = solve_biderivations(LIE_W00, Window(2), 5)
    assert space.contains(_restriction(space, LIE_W00, Inner(Scalar(1))))
    for k in (-1, 0, 1):
        f = ROmega(Omega({k: 1}))
        assert space.contains(_restriction(space, LIE_W00, f))
    space = solve_biderivations(LIE_HV, Window(2), 4)
    assert space.contains(_restriction(space, LIE_HV, Inner(Scalar(1))))
    assert not space.contains(_restriction(space, LIE_HV, ROmega(Omega({0: 1}))))


def test_solver_solutions_rehydrate_to_checked_maps():
    for product in (LIE_W00, LIE_HV):
        space = solve_biderivations(product, Window(3), 8, degree=0)
        for index in range(space.dimension):
            f = rehydrate(space, index)
            report = is_biderivation(f, product, Window(3))
            assert report.passed, (product.name, index)
            assert report.checked > 0
    with pytest.raises(DomainNotCovered):
        rehydrate(space, 0).eval_keys(LIE_HV, L(9), L(0))


def test_interior_projection_validates_and_shrinks():
    space = solve_biderivations(LIE_W00, Window(3), 8, degree=1)
    with pytest.raises(ValueError):
        interior_projection(space, 3)
    dims = [interior_projection(space, n).dimension for n in (2, 1)]
    assert dims[0] >= dims[1]


def test_central_output_projection_preserves_rank():
    """Dropping the C1/C2/C3 output coordinates from the full-bracket
    solution space loses nothing: the quotient projection is injective
    on biderivations."""
    space = solve_biderivations(LIE_HV, Window(3), 8, degree=0)
    projected = drop_output_coordinates(space, lambda u: not u.is_central)
    assert projected.dimension == space.dimension


def test_solver_is_deterministic_across_jobs():
    one = solve_biderivations(LIE_W00, Window(3), 8, degree=0)
    two = solve_biderivations(LIE_W00, Window(3), 8, degree=0)
    assert one.basis == two.basis
    assert one.registry.labels() == two.registry.labels()
