"""Commutative post-Lie candidates: the probe and the exhaustive check."""

import random
from collections import Counter

from hvalgebra.bimaps import Classified, Omega, ROmega
from hvalgebra.core import Element, I, L
from hvalgebra.linmaps import Window
from hvalgebra.postlie import is_commutative_postlie, postlie_residual
from hvalgebra.scalars import Scalar


class CountingClassified(Classified):
    """The reference family, counting how often each key pair is read."""

    def __init__(self, coeff, omega):
        super().__init__(coeff, omega)
        self.reads = Counter()

    def eval_keys(self, product, a, b):
        self.reads[(a, b)] += 1
        return super().eval_keys(product, a, b)


def test_probe_values():
    assert postlie_residual(Omega({0: 1})) == Element.basis(I(6))
    assert postlie_residual(Omega({-2: 5, 1: -1})) == Element({I(4): 5, I(7): -1})
    assert postlie_residual(Omega({-1: 5, 2: -1})) == Element({I(5): 5, I(8): -1})
    assert postlie_residual(Omega({})).is_zero()


def test_probe_is_nonzero_for_every_nonzero_offset_table():
    """The lie-action left side lands on an (L, L) pair while the nested
    right side lands on (L, I) pairs, so the probe simply re-emits the
    offset table shifted to index 6: it vanishes only for the zero map."""
    rng = random.Random(20240818)
    for _ in range(25):
        table = {}
        for _ in range(rng.randint(1, 4)):
            table[rng.randint(-5, 5)] = Scalar(
                rng.randint(-9, 9), rng.randint(-9, 9)
            )
        omega = Omega(table)
        residual = postlie_residual(omega)
        assert residual.is_zero() == omega.is_zero()
        assert residual == Element(
            {I(6 + k): omega[k] for k in omega.offsets()}
        )


def test_zero_map_is_a_commutative_postlie_structure():
    report = is_commutative_postlie(ROmega(Omega({})), Window(2))
    assert report.passed
    assert report.checked == 4472
    assert report.skipped == 0


def test_symmetric_family_fails_the_lie_action_identity():
    report = is_commutative_postlie(ROmega(Omega({0: 1})), Window(3))
    assert not report.passed
    first = report.counterexamples[0]
    assert first.inputs == (L(-3), L(-2), L(-3))
    assert first.equation == "lie-action"
    assert first.residual == Element({I(-8): -1})
    assert len(report.counterexamples) == 382
    # the commutative identity itself holds for this family
    assert all(c.equation != "commutative" for c in report.counterexamples)


def test_inner_part_breaks_commutativity():
    report = is_commutative_postlie(Classified(Scalar(1), Omega({0: 1})), Window(2))
    assert not report.passed
    first = report.counterexamples[0]
    assert first.inputs == (L(-2), L(-1))
    assert first.equation == "commutative"
    assert first.residual == Element({L(-3): -2})
    # direct form of the same obstruction: f(x,y) - f(y,x) = 2*lam*[x,y]
    lam = Scalar(3, -2)
    f = Classified(lam, Omega({1: 4}))
    from hvalgebra.core import LIE_HV

    diff = f.eval_keys(LIE_HV, L(1), L(2)) - f.eval_keys(LIE_HV, L(2), L(1))
    assert diff == Element({L(3): lam * -2})


def test_postlie_check_reads_each_pair_once_per_call():
    f = CountingClassified(Scalar(1, -1), Omega({0: 1, 2: 3}))
    first = is_commutative_postlie(f, Window(2))
    once = dict(f.reads)
    assert max(once.values()) == 1
    # no cache outlives the call: a second check reads every pair again
    assert is_commutative_postlie(f, Window(2)) == first
    assert f.reads == Counter({pair: 2 for pair in once})


def test_central_arguments_are_silent():
    report = is_commutative_postlie(ROmega(Omega({2: 1})), Window(2))
    assert not report.passed
    for case in report.counterexamples:
        assert all(not k.is_central for k in case.inputs)
