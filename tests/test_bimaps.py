"""Bilinear maps, the two-slot derivation axioms, and the window solver."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from hvalgebra import linalg
from hvalgebra.bimaps import (
    BilinearMap,
    Classified,
    Inner,
    Omega,
    ROmega,
    SumBilinear,
    TabularBilinear,
    central_annihilation,
    classified_span,
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
    LieProduct,
)
from hvalgebra.errors import DomainNotCovered, InfeasibleWindow
from hvalgebra.leftsym import LeftSymParams, LeftSymProduct
from hvalgebra.linalg import SolutionSpace, rref, span_equal
from hvalgebra.linmaps import Window
from hvalgebra.scalars import Scalar


def E(key):
    return Element.basis(key)


def all_pairs(keys):
    return [(a, b) for a in keys for b in keys]


class CountingClassified(Classified):
    """The reference family, counting how often each key pair is read."""

    def __init__(self, coeff, omega):
        super().__init__(coeff, omega)
        self.reads = Counter()

    def eval_keys(self, product, a, b):
        self.reads[(a, b)] += 1
        return super().eval_keys(product, a, b)


def test_omega_normalization():
    om = Omega({0: 1, 2: 0, -1: Scalar(0, 1)})
    assert om.offsets() == [-1, 0]
    assert str(om) == "{ -1: i, 0: 1 }"
    assert Omega({}).is_zero()
    # equal tables hash equal, whichever exact numbers built them
    assert hash(Omega({0: 1})) == hash(Omega({0: Fraction(1)}))
    assert len({Omega({0: 1}), Omega({0: Fraction(1)})}) == 1


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


def test_base_bilinear_map_has_no_values():
    with pytest.raises(NotImplementedError):
        BilinearMap().eval_keys(LIE_HV, L(0), L(1))


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
    f = TabularBilinear(table, pairs=all_pairs(domain))
    # direct residual of the first-slot equation at (L(1), L(2), L(3))
    lhs = f.eval(LIE_HV, LIE_HV.mul(E(L(1)), E(L(2))), E(L(3)))
    rhs = LIE_HV.mul(E(L(1)), f.eval_keys(LIE_HV, L(2), L(3))) + LIE_HV.mul(
        f.eval_keys(LIE_HV, L(1), L(3)), E(L(2))
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


def test_symmetry_class_skips_uncovered_pairs():
    """A symmetric table known only on the L-L pairs: every pair with an I
    is skipped, and the L-L pairs decide."""
    keys = LIE_W00.window_keys(2, central=False)
    pairs = [(a, b) for a in keys for b in keys if a.family == b.family == "L"]
    table = {(L(0), L(1)): E(I(1)), (L(1), L(0)): E(I(1)), (L(-1), L(-1)): E(I(-2))}
    f = TabularBilinear(table, pairs)
    assert symmetry_class(f, Window(2), LIE_W00) == "symmetric"
    # the same check on a skew table of the same coverage
    f = TabularBilinear({(L(0), L(1)): E(I(1)), (L(1), L(0)): -E(I(1))}, pairs)
    assert symmetry_class(f, Window(2), LIE_W00) == "skew"


def test_biderivation_check_reads_each_pair_once_per_call():
    f = CountingClassified(Scalar(2, -1), Omega({0: 1, -1: 3}))
    first = is_biderivation(f, LIE_HV, Window(2))
    once = dict(f.reads)
    assert max(once.values()) == 1
    # no cache outlives the call: a second check reads every pair again
    assert is_biderivation(f, LIE_HV, Window(2)) == first
    assert f.reads == Counter({pair: 2 for pair in once})


def test_symmetry_class_reads_each_unordered_pair_once():
    keys = LIE_HV.window_keys(2)
    f = CountingClassified(0, Omega({0: 1}))  # symmetric: no early exit
    assert symmetry_class(f, Window(2), LIE_HV) == "symmetric"
    # each unordered pair reads its two orders once; a diagonal pair is read
    # only while skewness holds, which the first one, (L(-2), L(-2)), ends
    later_diagonal = {(k, k) for k in keys[1:]}
    assert f.reads == Counter({pair: 1 for pair in all_pairs(keys) if pair not in later_diagonal})


def test_uncovered_pair_is_skipped_by_every_instance_that_needs_it():
    """The one uncovered pair (I(2), I(2)) raises for every instance that
    reads it, not once per check.  The table covers every other pair of
    keys up to index 4, where window products reach.  On the quotient at
    W2 (10 keys) the
    first-slot instance (x, y, z) reads f(x, z), f(y, z) and f(k, z) for k
    in supp [x, y], so it needs the pair when z = I(2) and x = I(2),
    y = I(2) or I(2) is in supp [x, y].  That is 19 pairs (x, y) with an
    I(2) plus (L(1), I(1)) and (I(1), L(1)); the other brackets that reach
    I(2), [L(0), I(2)] and [I(2), L(0)], already have one.  So 21
    first-slot instances, and by the same count with x = I(2) fixed, 21
    second-slot ones."""
    keys = LIE_W00.window_keys(2)
    hole = (I(2), I(2))
    pairs = [pair for pair in all_pairs(LIE_W00.window_keys(4)) if pair != hole]
    family = Classified(Scalar(1, 1), Omega({0: 2}))
    f = TabularBilinear({p: family.eval_keys(LIE_W00, *p) for p in pairs}, pairs)
    report = is_biderivation(f, LIE_W00, Window(2))
    assert report.skipped == 42
    assert report.checked + report.skipped == 2 * len(keys) ** 3
    assert report.passed


def test_eval_raises_at_an_uncovered_pair_of_a_sum():
    tab = TabularBilinear({(L(0), L(1)): E(I(1))}, pairs=all_pairs([L(0), L(1)]))
    f = SumBilinear((Inner(1), tab))
    assert f.eval(LIE_HV, E(L(0)), E(L(1))) == f.eval_keys(LIE_HV, L(0), L(1))
    with pytest.raises(DomainNotCovered) as err:
        f.eval(LIE_HV, Element({L(0): 1, L(1): 2}), Element({L(1): 1, L(2): 1}))
    assert err.value.where == (L(0), L(2))


def test_central_annihilation():
    report = central_annihilation(
        Classified(Scalar(3), Omega({1: 2})), LIE_HV, Window(4)
    )
    assert report.passed
    bad = TabularBilinear({(L(0), C1): E(L(0))}, pairs=all_pairs([L(0), C1]))
    report = central_annihilation(bad, LIE_HV, Window(1))
    assert not report.passed
    assert report.counterexamples[0].inputs == (L(0), C1)


def test_central_annihilation_refuses_a_left_symmetric_product():
    product = LeftSymProduct(LeftSymParams(0, 0, Scalar(1, 1)))
    with pytest.raises(ValueError, match="defined for the Lie products"):
        central_annihilation(Inner(Scalar(1)), product, Window(1))


def test_central_annihilation_counts_each_slot():
    # 9 window keys x 4 centers, one instance per slot
    f = Classified(Scalar(3), Omega({1: 2}))
    report = central_annihilation(f, LIE_HV, Window(1))
    assert (report.checked, report.skipped) == (72, 0)
    bad = TabularBilinear({(L(0), C1): E(L(0))}, pairs=all_pairs([L(0), C1]))
    report = central_annihilation(bad, LIE_HV, Window(1))
    assert (report.checked, report.skipped) == (4, 68)
    assert [str(c) for c in report.counterexamples] == [
        "(L(0), C1) [center-right] residual = L(0)"
    ]


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


def test_classified_span_refuses_an_escaping_generator():
    space = solve_biderivations(LIE_W00, Window(3), 8, degree=0)
    message = r"generator output I\(-3\) for \(L\(-2\),L\(-2\)\) escapes the solver's bound"
    with pytest.raises(ValueError, match=message):
        classified_span(space, LIE_W00, 2, include_inner=False, offsets=(1,))


def test_span_equal_finds_a_witness_on_the_right():
    space = solve_biderivations(LIE_W00, Window(2), 4, degree=0)
    inner_only = classified_span(space, LIE_W00, 1, include_inner=True, offsets=())
    inner_plus_offset = classified_span(space, LIE_W00, 1, include_inner=True, offsets=(0,))
    cmp = span_equal(inner_only, inner_plus_offset)
    assert not cmp.equal and cmp.witness_side == "right"
    assert inner_plus_offset.contains(cmp.witness)
    assert not inner_only.contains(cmp.witness)


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


def test_rehydrate_refuses_an_ungraded_solve():
    # its values past the output bound were never unknowns, so a table
    # built from it would read them as zero
    space = solve_biderivations(LIE_W00, Window(1), 2)
    with pytest.raises(ValueError, match="graded"):
        rehydrate(space, 0)


def _slice_degree(label):
    """The graded slice an unknown f(p, q) : u belongs to."""
    _, p, q, u = label
    return (0 if u.is_central else u.index) - p.index - q.index


@pytest.mark.parametrize("product", [LIE_W00, LIE_HV], ids=lambda p: p.name)
def test_ungraded_space_is_the_direct_sum_of_its_graded_slices(product):
    """Every unknown of the ungraded solve lies in exactly one graded
    slice, and the ungraded space is the direct sum of the slices.  The
    two slices at |degree| = ob + 2N admit no rows, so the graded solve
    refuses them; their 8 + 8 unknowns enter as free unit vectors."""
    window, out_bound = Window(2), 4
    ungraded = solve_biderivations(product, window, out_bound)
    registry = ungraded.registry
    reach = out_bound + 2 * window.n_max
    vectors = []
    infeasible = []
    for degree in range(-reach, reach + 1):
        try:
            space = solve_biderivations(product, window, out_bound, degree=degree)
        except InfeasibleWindow:
            infeasible.append(degree)
            continue
        label_of = space.registry.label_of
        for vec in space.basis:
            vectors.append({registry.get(label_of(c)): v for c, v in vec.items()})
    assert infeasible == [-reach, reach]
    free = [
        vid for vid in range(len(registry))
        if _slice_degree(registry.label_of(vid)) in infeasible
    ]
    assert len(free) == 16
    vectors.extend({vid: Scalar(1)} for vid in free)
    assert span_equal(ungraded, SolutionSpace(registry, vectors)).equal


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
    registry = space.registry
    projected = space.restrict(
        lambda vid: not registry.label_of(vid)[-1].is_central
    )
    assert projected.dimension == space.dimension


def test_solver_is_deterministic():
    one = solve_biderivations(LIE_W00, Window(3), 8, degree=0)
    two = solve_biderivations(LIE_W00, Window(3), 8, degree=0)
    assert one.basis == two.basis
    assert one.registry.labels() == two.registry.labels()


@pytest.mark.parametrize("product", [LIE_W00, LIE_HV], ids=lambda p: p.name)
def test_lie_products_are_antisymmetric_on_the_window(product):
    # the premise of the solver's twin skip
    assert product.antisymmetric
    keys = product.window_keys(3)
    for a in keys:
        for b in keys:
            assert product.mul_keys(a, b) == -product.mul_keys(b, a), (a, b)


def test_left_symmetric_products_are_not_antisymmetric():
    assert not LeftSymProduct.antisymmetric


def test_twin_skip_halves_the_instances_and_keeps_the_row_span(monkeypatch):
    """The instances a Lie solve skips would only have added duplicates:
    the rows handed to elimination span what the rows of the solve that
    runs every instance span, and the basis is the same.  The rows
    themselves differ, as the columns ``admitted_rows`` pins to zero
    depend on the instances read before."""
    counts = []
    kept = []
    original = linalg.admitted_rows

    def counted(instances):
        counts.append(0)

        def each():
            for instance in instances:
                counts[-1] += 1
                yield instance

        kept.append(list(original(each())))
        return kept[-1]

    monkeypatch.setattr(linalg, "admitted_rows", counted)
    runs = []
    for antisymmetric in (True, False):
        product = LieProduct(False)
        product.antisymmetric = antisymmetric
        space = solve_biderivations(product, Window(2), 4, degree=0)
        runs.append((counts.pop(), kept.pop(), space.basis))
    (skipping, rows, basis), (every, all_rows, all_basis) = runs
    # each instance that passes the window test is read once; x = y and
    # y = z give no rows, and every other instance has one twin
    assert (skipping, every) == (740, 1680)
    assert (len(rows), len(all_rows)) == (501, 826)
    assert len(rref(rows)) == len(rref(all_rows)) == len(rref(rows + all_rows)) == 198
    assert basis == all_basis
