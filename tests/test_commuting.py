"""Commuting linear maps: construction, the polarized check, the solver."""

import random
from collections import Counter

from hvalgebra.commuting import (
    generator_span,
    is_commuting,
    make_commuting,
    solve_commuting,
)
from hvalgebra.core import LIE_HV, C1, C2, Element, I, L
from hvalgebra.linalg import span_equal
from hvalgebra.linmaps import D3, InnerAd, SumMap, Window
from hvalgebra.scalars import Scalar


def _interior(space, n_int):
    reg = space.registry

    def keep(vid):
        _, b, _ = reg.label_of(vid)
        return (not b.is_central) and abs(b.index) <= n_int

    return space.restrict(keep)


def test_constructed_maps_commute():
    rng = random.Random(31)
    for _ in range(6):
        table = {
            L(rng.randint(-3, 3)): Element({C1: rng.randint(-5, 5)}),
            I(rng.randint(-3, 3)): Element({C2: rng.randint(-5, 5)}),
        }
        phi = make_commuting(Scalar(rng.randint(-4, 4), rng.randint(-4, 4)), table)
        report = is_commuting(phi, Window(4))
        assert report.passed
        assert report.checked == 231  # 21 window keys, unordered pairs
        assert report.skipped == 0


def test_polarized_residuals_of_non_commuting_maps():
    report = is_commuting(D3, Window(3))
    assert not report.passed
    first = report.counterexamples[0]
    assert first.inputs == (L(-3), L(-3))
    assert first.residual == Element({I(-6): 18})
    # direct value: phi = D3 at the pair (L(1), L(-1))
    residual = next(
        c for c in report.counterexamples if c.inputs == (L(-1), L(1))
    ).residual
    assert residual == Element({I(0): 2, C2: -2})

    report = is_commuting(InnerAd(LIE_HV, Element.basis(L(1))), Window(2))
    assert not report.passed
    assert report.counterexamples[0].inputs == (L(-2), L(-2))
    assert report.counterexamples[0].residual == Element({L(-3): 6})


def test_commuting_check_reads_each_key_once_per_call():
    class Counting(SumMap):
        def __init__(self, parts):
            super().__init__(parts)
            self.reads = Counter()

        def apply_key(self, key):
            self.reads[key] += 1
            return super().apply_key(key)

    phi = Counting((make_commuting(Scalar(2, 1), {L(1): Element({C1: 3})}),))
    first = is_commuting(phi, Window(2))
    keys = LIE_HV.window_keys(2)
    assert first.passed
    assert phi.reads == Counter(keys)
    # no cache outlives the call: a second check reads every key again
    assert is_commuting(phi, Window(2)) == first
    assert phi.reads == Counter({key: 2 for key in keys})


def test_solver_dimension_and_interior_span():
    space = solve_commuting(Window(3))
    assert len(space.registry) == 493
    assert space.dimension == 69
    for n_int, dim in ((2, 41), (1, 25)):
        proj = _interior(space, n_int)
        family = generator_span(space, n_int)
        assert proj.dimension == dim
        assert family.dimension == dim  # 1 + 4 * (noncentral interior keys)
        assert span_equal(proj, family).equal


def _restriction(space, phi):
    reg = space.registry
    vec = {}
    for vid in range(len(reg)):
        _, b, u = reg.label_of(vid)
        value = phi(Element.basis(b))[u]
        if value:
            vec[vid] = value
    return vec


def test_true_maps_restrict_into_the_solution_space():
    space = solve_commuting(Window(2))
    rng = random.Random(5)
    for _ in range(5):
        phi = make_commuting(
            Scalar(rng.randint(-4, 4), rng.randint(-4, 4)),
            {
                L(rng.randint(-2, 2)): Element({C1: rng.randint(-5, 5)}),
                I(rng.randint(-2, 2)): Element({C2: rng.randint(1, 5)}),
            },
        )
        assert space.contains(_restriction(space, phi))
    assert not space.contains(_restriction(space, D3))


def test_interior_span_monotone():
    space = solve_commuting(Window(3))
    assert _interior(space, 1).dimension < _interior(space, 2).dimension


def test_identity_alone_commutes():
    report = is_commuting(make_commuting(7), Window(3))
    assert report.passed
    assert report.checked == 153
