"""Exact sparse row reduction, nullspaces, and span comparison."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hvalgebra import linalg
from hvalgebra.bimaps import solve_biderivations
from hvalgebra.commuting import solve_commuting
from hvalgebra.core import LIE_HV, LIE_W00
from hvalgebra.errors import IncompatibleSpaces, InfeasibleWindow
from hvalgebra.leftsym import LeftSymParams, LeftSymProduct
from hvalgebra.linalg import (
    LinearSystem,
    SolutionSpace,
    VarRegistry,
    nullspace,
    rank,
    rref,
    solve_affine,
    span_equal,
)
from hvalgebra.linmaps import Window
from hvalgebra.scalars import Scalar


def S(rows):
    return [{c: Scalar.coerce(v) for c, v in row.items()} for row in rows]


def _representations(value):
    """Every type that holds ``value`` exactly: a Scalar, a Fraction when
    the value is real, and an int when it is an integer."""
    value = Scalar.coerce(value)
    out = [value]
    if not value.im:
        out.append(value.re)
        if value.re.denominator == 1:
            out.append(value.re.numerator)
    return out


def _retyped(row):
    """``row`` with each entry drawn as one of its representations."""
    return st.fixed_dictionaries(
        {c: st.sampled_from(_representations(v)) for c, v in row.items()}
    )


def _all_scalars(rows):
    return all(type(v) is Scalar for row in rows for v in row.values())


def test_registry_is_append_only():
    reg = VarRegistry()
    a = reg.add("a")
    b = reg.add("b")
    assert (a, b) == (0, 1)
    assert reg.id_of("b") == 1
    assert reg.label_of(0) == "a"
    with pytest.raises(ValueError):
        reg.add("a")


def test_rref_canonical_form():
    rows = S([{0: 2, 1: 4}, {1: 1, 2: 1}])
    reduced = rref(rows)
    assert reduced == S([{0: 1, 2: -2}, {1: 1, 2: 1}])
    # leading entries are 1 and pivot columns are cleared elsewhere
    assert rref(reduced) == reduced


def test_rref_depends_only_on_the_row_span():
    rows = S([{0: 1, 1: 2}, {1: 3, 2: 1}, {0: 2, 1: 7, 2: 1}])
    shuffled = [rows[2], rows[0], rows[1]]
    scaled = [{c: v * Scalar(-5) for c, v in row.items()} for row in rows]
    assert rref(rows) == rref(shuffled) == rref(scaled)


def test_rank_and_nullspace_small():
    rows = S([{0: 1, 1: 1}, {1: 1, 2: 1}])
    assert rank(rows) == 2
    basis = nullspace(rows, 3)
    assert len(basis) == 1
    (vec,) = basis
    for row in rows:
        total = sum((row[c] * vec.get(c, Scalar(0)) for c in row), Scalar(0))
        assert not total


def test_rank_nullity_on_random_sparse_matrices():
    rng = random.Random(20240817)
    for _ in range(8):
        ncols = rng.randrange(5, 40)
        nrows = rng.randrange(1, 30)
        rows = []
        for _ in range(nrows):
            row = {
                rng.randrange(ncols): Scalar(rng.randint(-5, 5), rng.randint(-2, 2))
                for _ in range(rng.randrange(1, 5))
            }
            row = {c: v for c, v in row.items() if v}
            if row:
                rows.append(row)
        r = rank(rows)
        basis = nullspace(rows, ncols)
        assert r + len(basis) == ncols
        for vec in basis:
            for row in rows:
                total = sum(
                    (v * vec.get(c, Scalar(0)) for c, v in row.items()), Scalar(0)
                )
                assert not total
        # nullspace output is itself canonical
        assert rref(basis) == basis


# -- a dense oracle: Gauss-Jordan over (re, im) pairs of Fractions ---------


def _dense_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _dense_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _dense_inv(a):
    norm = a[0] * a[0] + a[1] * a[1]
    return (a[0] / norm, -a[1] / norm)


_DENSE_ZERO = (Fraction(0), Fraction(0))
_DENSE_ONE = (Fraction(1), Fraction(0))


def _dense_rref(matrix, ncols):
    """Nonzero rows of the reduced row echelon form of a dense matrix."""
    m = [list(row) for row in matrix]
    lead = 0
    for col in range(ncols):
        pivot = next((r for r in range(lead, len(m)) if m[r][col] != _DENSE_ZERO), None)
        if pivot is None:
            continue
        m[lead], m[pivot] = m[pivot], m[lead]
        inv = _dense_inv(m[lead][col])
        m[lead] = [_dense_mul(v, inv) for v in m[lead]]
        for r in range(len(m)):
            if r != lead and m[r][col] != _DENSE_ZERO:
                factor = m[r][col]
                m[r] = [_dense_sub(v, _dense_mul(factor, p)) for v, p in zip(m[r], m[lead])]
        lead += 1
    return m[:lead]


def _dense_nullspace(matrix, ncols):
    reduced = _dense_rref(matrix, ncols)
    pivots = [row.index(next(v for v in row if v != _DENSE_ZERO)) for row in reduced]
    vectors = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [_DENSE_ZERO] * ncols
        vec[free] = _DENSE_ONE
        for row, pcol in zip(reduced, pivots):
            vec[pcol] = _dense_sub(_DENSE_ZERO, row[free])
        vectors.append(vec)
    return _dense_rref(vectors, ncols)


def _to_dense(row, ncols):
    values = [Scalar.coerce(row.get(c, 0)) for c in range(ncols)]
    return [(v.re, v.im) for v in values]


_small_rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
_entries = st.builds(Scalar, _small_rationals, _small_rationals)


@st.composite
def _systems(draw):
    ncols = draw(st.integers(1, 6))
    rows = draw(
        st.lists(st.dictionaries(st.integers(0, ncols - 1), _entries), max_size=6)
    )
    return [{c: v for c, v in row.items() if v} for row in rows], ncols


@st.composite
def _mixed_systems(draw):
    """A system whose entries are drawn as ints, Fractions or Scalars,
    whichever can hold them."""
    rows, ncols = draw(_systems())
    return [draw(_retyped(row)) for row in rows], ncols


def _check_against_the_dense_oracle(rows, ncols):
    before = [dict(row) for row in rows]
    dense = [_to_dense(row, ncols) for row in rows]
    expected = _dense_rref(dense, ncols)
    reduced = rref(rows)
    assert [_to_dense(row, ncols) for row in reduced] == expected
    assert rank(rows) == len(expected)
    basis = nullspace(rows, ncols)
    assert [_to_dense(vec, ncols) for vec in basis] == _dense_nullspace(dense, ncols)
    assert _all_scalars(basis)
    assert rows == before
    return reduced


@settings(max_examples=150, deadline=None)
@given(_systems())
def test_rank_rref_and_nullspace_match_a_dense_oracle(system):
    rows, ncols = system
    # Scalar rows in, Scalar rows out
    assert _all_scalars(_check_against_the_dense_oracle(rows, ncols))


@settings(max_examples=150, deadline=None)
@given(_mixed_systems())
def test_rank_rref_and_nullspace_take_mixed_entry_types(system):
    _check_against_the_dense_oracle(*system)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rref_does_not_depend_on_the_row_order(data):
    # rref sorts its rows by lead column; any order of the same rows,
    # empty ones included, must reduce to the same rows
    rows, ncols = data.draw(_mixed_systems())
    rows.append({})
    expected = _check_against_the_dense_oracle(rows, ncols)
    shuffled = data.draw(st.permutations(rows))
    assert rref(shuffled) == expected
    assert rref(row for row in shuffled) == expected


def test_rref_skips_a_column_that_cancelled_out_of_an_indexed_pivot_row():
    # All three rows lead at column 0.  The second reduces to a pivot at
    # column 2 whose elimination cancels column 3 out of the first pivot
    # row, which stays indexed under column 3; the third then reduces to
    # a pivot at column 3 and must pass that row by.
    rows = [{0: 1, 2: 1, 3: 1}, {0: 1, 2: 2, 3: 2}, {0: 1, 3: 1}]
    assert rref(rows) == [{0: 1}, {2: 1}, {3: 1}]
    assert nullspace(rows, 4) == [{1: 1}]


def test_solve_affine():
    # each row holds its constant term in column nvars: row . (x, 1) = 0
    # x + y = 3, y = 1  ->  x = 2 with no free variables involved
    rows = S([{0: 1, 1: 1, 2: -3}, {1: 1, 2: -1}])
    assert solve_affine(rows, 2) == {0: Scalar(2), 1: Scalar(1)}
    # inconsistent
    rows = S([{0: 1, 1: -1}, {0: 1, 1: -2}])
    assert solve_affine(rows, 1) is None
    # underdetermined: free variables default to zero
    rows = S([{0: 1, 1: 2, 2: -4}])
    assert solve_affine(rows, 2) == {0: Scalar(4)}
    # plain-number rows give a Scalar solution
    solution = solve_affine([{0: 2, 1: Fraction(1, 2), 2: -3}, {1: 1, 2: -2}], 2)
    assert solution == {0: Scalar(1), 1: Scalar(2)}
    assert _all_scalars([solution])


def _space(reg, rows):
    return SolutionSpace(reg, S(rows))


def test_span_equal_and_witness():
    reg = VarRegistry()
    for name in "abc":
        reg.add(name)
    a = _space(reg, [{0: 1}, {1: 1}])
    b = _space(reg, [{0: 1, 1: 1}, {0: 1, 1: -1}])
    assert span_equal(a, b).equal
    c = _space(reg, [{0: 1}, {2: 1}])
    cmp = span_equal(a, c)
    assert not cmp.equal
    assert cmp.witness is not None and cmp.witness_side in ("left", "right")
    # the witness really is outside the other span
    other = a if cmp.witness_side == "right" else c
    assert not other.contains(cmp.witness)


def test_span_comparison_requires_one_registry():
    reg1, reg2 = VarRegistry(), VarRegistry()
    reg1.add("a"), reg2.add("a")
    with pytest.raises(IncompatibleSpaces):
        span_equal(_space(reg1, [{0: 1}]), _space(reg2, [{0: 1}]))


def test_solution_space_reduce_and_restrict():
    reg = VarRegistry()
    for name in "abcd":
        reg.add(name)
    space = _space(reg, [{0: 1, 2: 1}, {1: 1, 3: -1}])
    assert space.dimension == 2
    assert space.contains({0: Scalar(2), 2: Scalar(2)})
    assert not space.contains({0: Scalar(1)})
    residual = space.reduce({0: Scalar(1), 1: Scalar(1)})
    assert residual  # nonzero residual proves non-membership
    projected = space.restrict(lambda vid: vid < 2)
    assert projected.dimension == 2
    assert projected.contains({0: Scalar(1)})


def _flush(system, rows, admit=None):
    for coord, row in rows.items():
        for col, value in row.items():
            system.add(coord, col, Scalar.coerce(value))
    system.flush(admit)


def test_linear_system_drops_terms_that_cancel():
    system = LinearSystem(3)
    system.add("a", 0, Scalar(1))
    system.add("a", 1, Scalar(1, 1))
    system.add("a", 0, Scalar(-1))
    system.add("a", 1, Scalar(-1, -1))
    system.add("b", 2, Scalar(0, 3))
    system.add("b", 1, Scalar(2))
    system.add("b", 2, Scalar(0, -3))
    system.flush()
    assert system.rows == S([{1: 2}])


def test_linear_system_applies_the_admission_predicate():
    system = LinearSystem(2)
    _flush(system, {1: {0: 1}, 5: {1: 1}}, admit=lambda coord: coord < 3)
    assert system.rows == S([{0: 1}])
    # the predicate applies to one flush only
    _flush(system, {5: {1: 1}})
    assert system.rows == S([{0: 1}, {1: 1}])


def test_linear_system_raises_when_nothing_is_admitted():
    system = LinearSystem(2)
    _flush(system, {1: {0: 1}}, admit=lambda coord: False)
    assert system.rows == []
    with pytest.raises(InfeasibleWindow):
        system.nullspace()


def test_linear_system_affine_solve():
    # x + y = 3, y = 1, with the constant term in column ncols = 2
    system = LinearSystem(2)
    _flush(system, {"a": {0: 1, 1: 1, 2: -3}, "b": {1: 1, 2: -1}})
    assert system.solve_affine() == {0: Scalar(2), 1: Scalar(1)}
    # x = 1 and x = 2 together are inconsistent
    system = LinearSystem(1)
    _flush(system, {"a": {0: 1, 1: -1}, "b": {0: 1, 1: -2}})
    assert system.solve_affine() is None


def test_linear_system_drops_later_terms_in_a_pinned_column():
    system = LinearSystem(3)
    _flush(system, {"a": {0: 2}})
    _flush(system, {"b": {0: 1, 1: 3, 2: 1}})
    assert system.rows == S([{0: 2}, {1: 3, 2: 1}])


def test_linear_system_does_not_keep_a_row_that_empties():
    system = LinearSystem(2)
    # a repeated single entry in the same flush is a multiple of the first
    _flush(system, {"a": {0: 1}, "b": {0: 3}})
    _flush(system, {"c": {0: 5}, "d": {}})
    assert system.rows == S([{0: 1}])
    assert system.nullspace() == S([{1: 1}])


def test_linear_system_pins_cascade_through_rows_stripped_to_one_entry():
    system = LinearSystem(5)
    _flush(system, {"a": {0: 1}})
    _flush(system, {"b": {0: 1, 1: 2}})
    _flush(system, {"c": {1: 1, 2: -1}})
    # pins take effect at the next add, so "e" keeps column 3 here
    _flush(system, {"d": {0: 1, 1: 1, 2: 1, 3: 1}, "e": {2: 1, 3: 1, 4: 1}})
    _flush(system, {"f": {3: 1, 4: 2}})
    assert system.rows == S([{0: 1}, {1: 2}, {2: -1}, {3: 1}, {3: 1, 4: 1}, {4: 2}])
    assert system.nullspace() == []


def test_linear_system_rejected_single_entry_row_pins_nothing():
    system = LinearSystem(2)
    _flush(system, {1: {0: 1}}, admit=lambda coord: False)
    _flush(system, {2: {0: 1, 1: 1}})
    assert system.rows == S([{0: 1, 1: 1}])


def test_linear_system_pinned_constant_column_is_still_inconsistent():
    # 0 = 1 pins the constant column; x = 2 then loses its constant term
    system = LinearSystem(1)
    _flush(system, {"a": {1: 1}})
    _flush(system, {"b": {0: 1, 1: -2}})
    assert system.rows == S([{1: 1}, {0: 1}])
    assert system.solve_affine() is None


@st.composite
def _flush_batches(draw):
    """Batches of coordinate rows, each with the coordinates it admits;
    few columns and short rows, so that pins and cascades are common."""
    ncols = draw(st.integers(1, 5))
    rows = st.dictionaries(st.integers(0, ncols - 1), _entries, max_size=3)
    batches = draw(st.lists(
        st.tuples(st.dictionaries(st.integers(0, 3), rows, max_size=4),
                  st.frozensets(st.integers(0, 3))),
        max_size=6,
    ))
    return batches, ncols


@settings(max_examples=200, deadline=None)
@given(_flush_batches())
# a kept row repeated in the same flush as a real multiple, then in the
# next as a non-real multiple and as a real one
@example(([
    ({0: {0: 1, 1: 2}, 1: {0: -2, 1: -4}}, frozenset({0, 1})),
    ({2: {0: Scalar(0, 1), 1: Scalar(0, 2)},
      3: {0: Scalar(Fraction(1, 2), 1), 1: Scalar(1, 2)},
      0: {1: Fraction(3, 2), 0: Fraction(3, 4)}}, frozenset({0, 2, 3})),
], 3))
def test_linear_system_nullspace_is_that_of_every_admitted_row(system_batches):
    batches, ncols = system_batches
    system = LinearSystem(ncols)
    admitted = []
    for batch, admits in batches:
        _flush(system, batch, admit=admits.__contains__)
        for coord, row in batch.items():
            row = {c: v for c, v in row.items() if v}
            if row and coord in admits:
                admitted.append(row)
    if not admitted:
        assert system.rows == []
        return
    _check_against_the_dense_oracle(admitted, ncols)
    assert len(system.rows) <= len(admitted)
    assert system.nullspace() == nullspace(admitted, ncols)


@pytest.mark.parametrize(
    "product, degree, shape",
    [(LIE_W00, 0, (501, 200)), (LIE_HV, None, (3738, 2100))],
    ids=["graded-lie-w00", "ungraded-lie-hv"],
)
def test_linear_system_hands_nullspace_the_pinned_rows(product, degree, shape, monkeypatch):
    # Any change to which admitted rows are kept moves these counts.
    shapes = []
    original = LinearSystem.nullspace

    def record(self):
        shapes.append((len(self.rows), self.ncols))
        return original(self)

    monkeypatch.setattr(LinearSystem, "nullspace", record)
    solve_biderivations(product, Window(2), 4, degree=degree)
    assert shapes == [shape]


@pytest.mark.parametrize(
    "solve",
    [
        lambda: solve_biderivations(
            LeftSymProduct(
                LeftSymParams(
                    Scalar(Fraction(1, 2), Fraction(1, 3)),
                    Scalar(Fraction(2, 3), -1),
                    Scalar(1, 1),
                ),
                quotient=True,
            ),
            Window(2),
            4,
            degree=0,
        ),
        lambda: solve_commuting(Window(3)),
    ],
    ids=["leftsym-quotient", "commuting"],
)
def test_solvers_build_no_terms_in_pinned_columns(solve, monkeypatch):
    solvers = ("hvalgebra.bimaps", "hvalgebra.commuting")
    calls = []
    original = LinearSystem.add

    def spy(self, coord, col, value):
        if sys._getframe(1).f_globals["__name__"] in solvers:
            calls.append(col in self.pinned)
        return original(self, coord, col, value)

    monkeypatch.setattr(LinearSystem, "add", spy)
    solve()
    assert calls and not any(calls)


def test_pinned_is_a_read_only_view_of_the_flushed_pins():
    system = LinearSystem(3)
    pinned = system.pinned
    system.add("a", 1, 2)
    system.add("b", 0, 1)
    system.add("b", 2, 1)
    assert not pinned
    system.flush()
    assert pinned == {1} and system.pinned is pinned
    with pytest.raises(AttributeError):
        system.pinned = set()


_GAUSSIAN_QUOTIENT = LeftSymProduct(LeftSymParams(0, 0, Scalar(1, 1)), quotient=True)


@pytest.mark.parametrize(
    "solve, real",
    [
        (lambda: solve_biderivations(LIE_W00, Window(2), 4, degree=0), True),
        (lambda: solve_biderivations(LIE_HV, Window(2), 4, degree=0), True),
        (lambda: solve_biderivations(LIE_W00, Window(2), 4), True),
        (lambda: solve_commuting(Window(2)), True),
        # degree 0 has no solutions at this window, so solve ungraded
        (lambda: solve_biderivations(_GAUSSIAN_QUOTIENT, Window(2), 4), False),
    ],
    ids=["graded", "graded-lie-hv", "ungraded", "commuting", "leftsym-quotient"],
)
def test_solver_bases_annihilate_every_admitted_row(solve, real, monkeypatch):
    captured = []
    original = linalg.nullspace

    def capture(rows, ncols):
        captured.append(list(rows))
        return original(rows, ncols)

    monkeypatch.setattr(linalg, "nullspace", capture)
    space = solve()
    (rows,) = captured
    assert rows and space.dimension
    for vec in space.basis:
        for row in rows:
            total = sum(
                (v * vec[c] for c, v in row.items() if c in vec), Scalar(0)
            )
            assert not total
    # rows are assembled as plain numbers (Scalars only for a product
    # with non-real constants); the basis is made of Scalars
    assert _all_scalars(space.basis)
    if real:
        assert not any(type(v) is Scalar for row in rows for v in row.values())
    else:
        assert any(type(v) is Scalar for row in rows for v in row.values())
