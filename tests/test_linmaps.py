"""Linear maps: structured derivations, the axiom checker, decomposition."""

import random
from collections import Counter

import pytest

from hvalgebra.core import (
    LIE_HV,
    LIE_W00,
    C1,
    Element,
    I,
    L,
)
from hvalgebra.errors import DomainNotCovered, NotCentral
from hvalgebra.leftsym import LeftSymParams
from hvalgebra.linalg import SpanComparison
from hvalgebra.linmaps import (
    D1,
    D2,
    D3,
    CentralMap,
    CheckReport,
    Counterexample,
    Decomposition,
    InnerAd,
    LinearMap,
    OuterDerivation,
    ScalarId,
    ScaledMap,
    SumMap,
    TabularMap,
    Window,
    collect_report,
    decompose_derivation,
    is_derivation,
    tabulate,
)
from hvalgebra.scalars import Scalar


def E(key):
    return Element.basis(key)


class CountingMap(SumMap):
    """A sum of maps, counting how often each key is read."""

    def __init__(self, parts):
        super().__init__(parts)
        self.reads = Counter()

    def apply_key(self, key):
        self.reads[key] += 1
        return super().apply_key(key)


def test_window_validation():
    assert Window(3).interior() == Window(2)
    assert repr(Window(3)) == "Window(n_max=3)"
    with pytest.raises(ValueError):
        Window(0)


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: Window(3), "n_max"),
        (lambda: Counterexample((L(1), I(2)), "leibniz", E(I(3))), "residual"),
        (lambda: CheckReport(4, 1, ()), "checked"),
        (lambda: Decomposition(E(L(1)), Scalar(1), Scalar(0), Scalar(2)), "inner"),
        (lambda: SpanComparison(False), "equal"),
        (lambda: LeftSymParams(1, 0, 1), "alpha"),
    ],
    ids=["Window", "Counterexample", "CheckReport", "Decomposition",
         "SpanComparison", "LeftSymParams"],
)
def test_records_are_immutable_and_hash_by_value(make, field):
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    twin = make()
    assert twin is not record and twin == record and hash(twin) == hash(record)


def test_record_field_rules():
    assert isinstance(LeftSymParams(1, 0, 1).alpha, Scalar)
    assert LeftSymParams(1, 0, 1) == LeftSymParams(Scalar(1), Scalar(0), Scalar(1))
    comparison = SpanComparison(False)
    assert not comparison and comparison.witness is None
    assert comparison.witness_side is None and SpanComparison(True)


def test_record_copies_keep_field_rules():
    # _make and _replace build through __new__, as the constructor does
    with pytest.raises(ValueError):
        Window(3)._replace(n_max=0)
    with pytest.raises(ValueError):
        Window._make([0])
    assert Window._make([2]) == Window(2)
    alpha = LeftSymParams(1, 0, 1)._replace(alpha=2).alpha
    assert isinstance(alpha, Scalar) and alpha == Scalar(2)


def test_outer_derivation_values():
    assert D1.apply_key(L(4)).is_zero()
    assert D1.apply_key(I(4)) == E(I(4))
    assert D2.apply_key(L(4)) == Element({I(4): 3})
    assert D2.apply_key(I(4)).is_zero()
    assert D3.apply_key(L(4)) == Element({I(4): 4})
    assert D3.apply_key(L(0)).is_zero()
    for d in (D1, D2, D3):
        assert d.apply_key(C1).is_zero()


def test_base_linear_map_has_no_values():
    with pytest.raises(NotImplementedError):
        LinearMap().apply_key(L(0))


def test_only_three_outer_derivations_exist():
    with pytest.raises(ValueError, match="d1, d2 and d3"):
        OuterDerivation("d4")


def test_outer_maps_are_quotient_derivations():
    for d in (D1, D2, D3):
        report = is_derivation(d, LIE_W00, Window(4))
        assert report.passed
        assert report.checked == 18 * 18
        assert report.skipped == 0


def test_scaled_identity_is_not_a_derivation():
    report = is_derivation(ScalarId(1), LIE_HV, Window(2))
    assert not report.passed
    first = report.counterexamples[0]
    assert first.equation == "leibniz"
    # d[x,y] - [dx,y] - [x,dy] = -[x,y] for the identity map
    assert first.inputs == (L(-2), L(-1))
    assert first.residual == Element({L(-3): 1})


def test_inner_maps_are_derivations():
    x = Element({L(1): 2, I(-2): -3, C1: 1})
    report = is_derivation(InnerAd(LIE_HV, x), LIE_HV, Window(3))
    assert report.passed
    with pytest.raises(ValueError):
        InnerAd(LIE_W00, E(C1))


def test_central_map_validates_values():
    m = CentralMap({L(0): Element({C1: 1, I(0): 2})})
    assert m.apply_key(L(0)) == Element({C1: 1, I(0): 2})
    assert m.apply_key(L(5)).is_zero()
    with pytest.raises(NotCentral):
        CentralMap({L(0): E(L(0))})


def test_tabular_map_domain():
    m = TabularMap({L(1): E(I(1))})
    with pytest.raises(DomainNotCovered):
        m.apply_key(L(2))
    report = is_derivation(m, LIE_HV, Window(2))
    # every pair involving an uncovered key is skipped, not failed
    assert report.skipped > 0


def test_call_raises_at_an_uncovered_key_of_a_sum():
    m = SumMap((D3, TabularMap({L(1): E(I(1))})))
    assert m(Element({L(1): 3})) == Element({I(1): 6})
    with pytest.raises(DomainNotCovered) as err:
        m(Element({L(1): 1, L(2): 1}))
    assert err.value.where == L(2)


def test_tabulate_and_sums():
    m = SumMap((ScaledMap(D3, Scalar(2)), D1))
    keys = LIE_HV.window_keys(2, central=False)
    tab = tabulate(m, keys)
    assert tab.apply_key(L(2)) == Element({I(2): 4})
    assert tab.apply_key(I(-1)) == E(I(-1))


def _random_element(rng, n_max, skip_i0=True):
    keys = [k for k in LIE_HV.window_keys(n_max, central=False)]
    coeffs = {}
    for k in rng.sample(keys, rng.randrange(1, 5)):
        if skip_i0 and k == I(0):
            continue
        coeffs[k] = Scalar(rng.randint(-6, 6), rng.randint(-3, 3))
    return Element(coeffs)


def test_decomposition_round_trip():
    rng = random.Random(11)
    window = Window(4)
    for _ in range(20):
        x = _random_element(rng, 6)
        a, b, c = (Scalar(rng.randint(-5, 5), rng.randint(-2, 2)) for _ in range(3))
        d = SumMap(
            (
                InnerAd(LIE_W00, x),
                ScaledMap(D1, a),
                ScaledMap(D2, b),
                ScaledMap(D3, c),
            )
        )
        got = decompose_derivation(d, window)
        assert got is not None
        assert got.inner == x
        assert (got.d1_coeff, got.d2_coeff, got.d3_coeff) == (a, b, c)
        # and the decomposition literally reassembles the map
        rebuilt = got.as_map()
        for key in LIE_HV.window_keys(3, central=False):
            assert rebuilt.apply_key(key) == d.apply_key(key)


def test_decompose_pins_the_inner_part_mod_center():
    d = InnerAd(LIE_W00, E(I(0)))
    got = decompose_derivation(d, Window(3))
    assert got is not None
    assert got.inner.is_zero()  # ad I(0) = 0, so the witness is normalized


def test_decompose_shift_table():
    # L_n -> I_n, I_n -> 0 equals d3 - d2 exactly
    table = {}
    for n in range(-4, 5):
        table[L(n)] = E(I(n))
        table[I(n)] = Element.zero()
    d = TabularMap(table)
    got = decompose_derivation(d, Window(4))
    assert got is not None
    assert got.inner.is_zero()
    assert (got.d1_coeff, got.d2_coeff, got.d3_coeff) == (
        Scalar(0),
        Scalar(-1),
        Scalar(1),
    )
    # the solve answers in plain numbers; a Decomposition holds Scalars
    assert all(type(c) is Scalar for c in got[1:])


def test_decompose_rejects_non_derivations():
    table = {}
    for n in range(-4, 5):
        table[L(n)] = E(L(n))
        table[I(n)] = Element.zero()
    d = TabularMap(table)
    assert decompose_derivation(d, Window(4)) is None


def test_decompose_needs_coverage_and_room():
    with pytest.raises(ValueError):
        decompose_derivation(D1, Window(2))
    partial = TabularMap({L(0): Element.zero()})
    with pytest.raises(DomainNotCovered):
        decompose_derivation(partial, Window(3))


def test_derivation_check_is_deterministic():
    report1 = is_derivation(D2, LIE_W00, Window(4))
    report2 = is_derivation(D2, LIE_W00, Window(4))
    assert report1.passed and report2.passed
    assert report1.checked == report2.checked


def test_derivation_check_reads_each_key_once_per_call():
    m = CountingMap((D2, ScaledMap(D3, Scalar(0, 2)), InnerAd(LIE_W00, E(L(1)))))
    first = is_derivation(m, LIE_W00, Window(3))
    once = dict(m.reads)
    assert first.passed and max(once.values()) == 1
    # no cache outlives the call: a second check reads every key again
    assert is_derivation(m, LIE_W00, Window(3)) == first
    assert m.reads == Counter({key: 2 for key in once})


def test_collect_report_skips_only_uncovered_items():
    def residual(inputs, equation):
        (n,) = inputs
        if n % 3 == 0:
            raise DomainNotCovered(n)
        return Element.zero()

    instances = (((n,), "eq") for n in range(10))
    report = collect_report(residual, instances)
    assert (report.checked, report.skipped) == (6, 4)
    assert report.passed

    def broken(inputs, equation):
        if inputs == (5,):
            raise ZeroDivisionError(inputs)
        return Element.zero()

    with pytest.raises(ZeroDivisionError):
        collect_report(broken, (((n,), "eq") for n in range(10)))

    def odd(inputs, equation):
        (n,) = inputs
        return Element.basis(L(n)) if n % 2 else Element.zero()

    tags = ("left", "right")
    report = collect_report(odd, (((n,), tags[n % 2]) for n in range(6)))
    assert (report.checked, report.skipped) == (6, 0)
    assert [(c.inputs, c.equation, c.residual) for c in report.counterexamples] == [
        ((n,), "right", E(L(n))) for n in (1, 3, 5)
    ]


def test_collect_report_evaluates_each_twin_pair_once():
    # residual(b, a) = -residual(a, b); a pair touching 3 is uncovered
    calls = Counter()

    def residual(inputs, equation):
        calls[inputs] += 1
        a, b = inputs
        if 3 in inputs:
            raise DomainNotCovered(inputs)
        return Element({L(a + b): a - b, I(0): Scalar(0, a * a - b * b)})

    def instances():
        return (((a, b), "eq") for a in range(5) for b in range(5))

    want = collect_report(residual, instances())
    calls.clear()
    got = collect_report(residual, instances(), lambda pair, _: pair[::-1])
    assert got == want
    assert (got.checked, got.skipped, len(got.counterexamples)) == (16, 9, 12)
    # the later twin carries the negated residual under its own inputs
    later = [c for c in got.counterexamples if c.inputs == (2, 0)]
    assert later == [Counterexample((2, 0), "eq", -Element({L(2): -2, I(0): Scalar(0, -4)}))]
    # one call per twin pair, the diagonal included; skips propagate unevaluated
    assert calls == Counter({(a, b): 1 for a in range(5) for b in range(a, 5)})
