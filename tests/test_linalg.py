"""Exact sparse row reduction, nullspaces, and span comparison."""

import copy
import gc
import random
import sys
import tracemalloc
from fractions import Fraction
from types import FunctionType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hvalgebra import linalg
from hvalgebra.bimaps import solve_biderivations
from hvalgebra.commuting import solve_commuting
from hvalgebra.core import LIE_HV, LIE_W00, Element, I, L
from hvalgebra.errors import IncompatibleSpaces, InfeasibleWindow
from hvalgebra.leftsym import LeftSymParams, LeftSymProduct
from hvalgebra.linalg import (
    SolutionSpace,
    VarRegistry,
    admitted_rows,
    nullspace,
    rref,
    solve_affine,
    span_equal,
)
from hvalgebra.linmaps import Decomposition, Window, decompose_derivation
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


def _all_plain(rows):
    """Every entry is a plain number: an int, a Fraction, or a Scalar only
    where it is not real."""
    return all(
        type(v) in (int, Fraction) or (type(v) is Scalar and v.im)
        for row in rows
        for v in row.values()
    )


def test_registry_is_append_only():
    reg = VarRegistry()
    a = reg.add("a")
    b = reg.add("b")
    assert (a, b) == (0, 1)
    assert (reg.get("b"), reg.get("c")) == (1, None)
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
    assert len(rref(rows)) == 2
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
        r = len(rref(rows))
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
    assert len(rref(rows)) == len(expected)
    basis = nullspace(rows, ncols)
    assert [_to_dense(vec, ncols) for vec in basis] == _dense_nullspace(dense, ncols)
    solution = solve_affine(rows, ncols - 1)
    # every answer holds plain numbers, whatever types the rows hold
    assert _all_plain(reduced) and _all_plain(basis) and _all_plain([solution or {}])
    assert rows == before
    return reduced


@settings(max_examples=150, deadline=None)
@given(_systems())
def test_rank_rref_and_nullspace_match_a_dense_oracle(system):
    rows, ncols = system
    # Scalar rows in, plain numbers out
    assert _all_plain(_check_against_the_dense_oracle(rows, ncols))


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


def _oracle_rows(rows, ncols):
    """The dense oracle's RREF as sparse rows of Scalars."""
    return [
        {c: Scalar(re, im) for c, (re, im) in enumerate(row) if re or im}
        for row in _dense_rref([_to_dense(row, ncols) for row in rows], ncols)
    ]


_big = 10**20
_large_entries = st.one_of(
    st.integers(-_big, _big).filter(bool),
    st.builds(Fraction, st.integers(-_big, _big), st.integers(10**15, _big)),
    st.builds(
        Scalar,
        st.builds(Fraction, st.integers(-_big, _big), st.integers(1, _big)),
        st.builds(Fraction, st.integers(-_big, _big).filter(bool), st.integers(1, _big)),
    ),
)


@st.composite
def _large_systems(draw):
    """Rows of large ints, Fractions with large denominators and non-real
    Scalars, so leads of every kind meet in one system."""
    ncols = draw(st.integers(1, 5))
    rows = draw(
        st.lists(st.dictionaries(st.integers(0, ncols - 1), _large_entries), max_size=5)
    )
    return [{c: v for c, v in row.items() if v} for row in rows], ncols


@settings(max_examples=100, deadline=None)
@given(_large_systems())
# entries that stay integral, and entries that need the final division
@example(([{0: 1, 1: 2}, {1: 1, 2: 3}, {0: 2, 1: 5, 2: 3}], 3))
@example(([{0: 2, 1: 1}, {1: 3, 2: 1}, {0: 2, 1: 4, 2: 1}], 3))
@example(([{0: Scalar(1, 2), 1: 3}, {0: Scalar(0, 1), 1: Scalar(1, 1), 2: 5}], 3))
def test_rref_of_large_and_non_real_entries_equals_the_oracle(system):
    rows, ncols = system
    assert rref(rows) == _oracle_rows(rows, ncols)
    _check_against_the_dense_oracle(rows, ncols)


@settings(max_examples=100, deadline=None)
@given(st.one_of(_mixed_systems(), _large_systems()))
def test_elimination_never_mutates_its_input_rows(system):
    rows, ncols = system
    before = copy.deepcopy(rows)
    reduced = rref(rows)
    nullspace(rows, ncols)
    solve_affine(rows, ncols - 1)
    SolutionSpace(VarRegistry(), rows).reduce(rows[0] if rows else {})
    assert rows == before
    # nor hands them back: changing the answer leaves the input alone
    for row in reduced:
        row.clear()
    assert rows == before


def test_rref_skips_a_column_that_cancelled_out_of_an_indexed_pivot_row():
    # All three rows lead at column 0.  The second reduces to a pivot at
    # column 2 whose elimination cancels column 3 out of the first pivot
    # row, which stays indexed under column 3; the third then reduces to
    # a pivot at column 3 and must pass that row by.
    rows = [{0: 1, 2: 1, 3: 1}, {0: 1, 2: 2, 3: 2}, {0: 1, 3: 1}]
    assert rref(rows) == [{0: 1}, {2: 1}, {3: 1}]
    assert nullspace(rows, 4) == [{1: 1}]


def test_a_unit_row_in_a_later_batch_zeroes_its_column_in_earlier_pivot_rows():
    # the first batch leaves pivot rows at 0, 1 and 2 (its other rows are
    # multiples of them); in the second, {5: 7} zeroes column 5, which
    # leaves the pivot row at 0 its lead alone, the pivot at 3 clears the
    # row at 2 down to its lead, and the last row hits the zeroed lead 0
    first = [{0: 1, 5: 2}, {1: 1, 4: 1, 5: 3}, {2: 1, 3: 1, 4: 1}]
    rows = [
        {c: (k % 5 + 1) * v for c, v in first[k % 3].items()}
        for k in range(linalg._BATCH)
    ]
    rows += [{0: 3, 4: 1, 6: 1}, {5: 7}, {3: 1, 4: 1}]
    # a zero column maps to None
    assert linalg._echelon(rows) == {
        0: None, 1: {1: 1, 6: -1}, 2: None, 3: {3: 1, 6: -1}, 4: {4: 1, 6: 1}, 5: None
    }
    reduced = _check_against_the_dense_oracle(rows, 7)
    assert reduced[0] == {0: 1} and reduced[2] == {2: 1} and reduced[5] == {5: 1}
    assert nullspace(rows, 7) == [{1: 1, 3: 1, 4: -1, 6: 1}]


def test_a_pivot_row_left_with_its_lead_is_a_zero_column():
    # one batch, popped from the last row: the pivot row {1: 1, 3: 1}
    # loses column 3 to the next row, which reduces to {3: 1}, so its lead
    # is proved zero, and the first row then hits that lead
    rows = [{0: 1, 1: 1, 2: 1}, {1: 1, 3: 2}, {1: 1, 3: 1}]
    assert linalg._echelon(rows) == {0: {0: 1, 2: 1}, 1: None, 3: None}
    assert _check_against_the_dense_oracle(rows, 4) == [{0: 1, 2: 1}, {1: 1}, {3: 1}]
    assert nullspace(rows, 4) == [{0: 1, 2: -1}]


def test_non_real_rows_mixed_with_unit_rows_match_the_dense_oracle():
    rows = [
        {0: Scalar(1, 1), 2: Scalar(0, 1), 3: 1},
        {1: Scalar(2, -1), 2: 1, 4: Fraction(1, 2)},
        {2: Scalar(0, 3)},
        {0: 2, 3: Scalar(1, -1)},
        {4: Scalar(1, 1), 5: 1},
    ]
    reduced = _check_against_the_dense_oracle(rows, 6)
    assert {2: 1} in reduced
    assert reduced == rref([{2: 1}] + rows)


@st.composite
def _systems_with_unit_rows(draw):
    """A mixed system with single-entry rows, non-real ones among them,
    put anywhere in the row order."""
    rows, ncols = draw(_mixed_systems())
    units = draw(
        st.lists(
            st.builds(lambda c, v: {c: v}, st.integers(0, ncols - 1), _entries.filter(bool)),
            max_size=3,
        )
    )
    for unit in units:
        rows.insert(draw(st.integers(0, len(rows))), unit)
    return rows, ncols


@settings(max_examples=150, deadline=None)
@given(_systems_with_unit_rows(), st.sampled_from([1, 2, 3, 256]))
# a non-real unit row after the non-real pivot row holding its column:
# clearing it takes a _Gaussian factor and leaves that row its lead alone
@example(system=([{0: Scalar(1, 1), 1: Scalar(0, 1)}, {1: Scalar(2, 1)}], 3), batch=1)
# a unit row on the lead of a pivot row reduces to a unit row on column
# 2, which leaves both pivot rows their leads alone
@example(system=([{0: 1, 2: 1}, {1: 1, 2: 2}, {1: Fraction(1, 2)}], 3), batch=1)
def test_unit_rows_in_any_batch_match_the_dense_oracle(system, batch):
    # small batches make a unit row arrive after the rows holding its column
    rows, ncols = system
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_BATCH", batch)
        _check_against_the_dense_oracle(rows, ncols)
        pivots = linalg._echelon(rows)
    # a column proved zero is None, never a pivot row holding its lead alone
    assert all(row is None or len(row) > 1 for row in pivots.values())


def test_solve_affine_is_inconsistent_when_a_row_reduces_to_the_constant():
    # {1: 5} zeroes column 1, so the middle row becomes the pivot
    # {0: 1, 2: 1}, and {0: 1} reduces against it to the constant column
    rows = [{0: 1}, {0: 1, 1: 1, 2: 1}, {1: 5}]
    assert _check_against_the_dense_oracle(rows, 3)[-1] == {2: 1}
    assert solve_affine(rows, 2) is None
    # the same constant column proved zero in a later batch
    rows = [{0: 1, 2: 1}] * linalg._BATCH + [{0: 2, 1: 1, 2: 3}, {1: 1}]
    assert _check_against_the_dense_oracle(rows, 3)[-1] == {2: 1}
    assert solve_affine(rows, 2) is None
    assert solve_affine(rows[:-1], 2) == {0: -1, 1: -1}


def test_solution_space_with_unit_vectors_reduces_like_the_dense_oracle():
    reg = VarRegistry()
    for name in "abcdef":
        reg.add(name)
    vectors = [{0: 1}, {1: 1, 3: 2}, {2: Scalar(0, 1)}, {3: 1, 4: 1}, {0: 3, 5: 2}]
    space = SolutionSpace(reg, vectors)
    assert space.basis == _check_against_the_dense_oracle(vectors, 6)
    assert [row for row in space.basis if len(row) == 1] == [{0: 1}, {2: 1}, {5: 1}]
    rank = len(_dense_rref([_to_dense(v, 6) for v in vectors], 6))
    for vector in (
        {0: 5, 2: Scalar(1, 1), 1: 1, 3: 2},
        {4: Fraction(1, 3)},
        {0: 1, 5: 1},
        {2: 1, 5: Scalar(0, -1)},
        {1: 1, 4: -2},
        {3: 1},
    ):
        dense = [_to_dense(v, 6) for v in vectors + [vector]]
        inside = len(_dense_rref(dense, 6)) == rank
        assert space.contains(vector) is inside
        residual = space.reduce(vector)
        assert bool(residual) is not inside
        # only the free column 4 is left
        assert all(c == 4 for c in residual)


def test_rref_answers_an_int_where_the_lead_divides_the_entry():
    (row,) = rref([{0: 2, 1: 4, 2: 3}])
    assert row == {0: 1, 1: 2, 2: Fraction(3, 2)}
    assert [type(v) for v in row.values()] == [int, int, Fraction]


def test_nullspace_allocates_vectors_for_free_columns_only():
    # full rank: rref's copies of the rows are the only dicts per column,
    # since no column is free and so none gets a basis vector
    rows = [{c: 2} for c in range(4000)]
    tracemalloc.start()
    try:
        basis = nullspace(rows, 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis == []
    assert peak < 1.6 * 4000 * sys.getsizeof({0: 1})


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
    # Scalar rows and plain-number rows alike give a plain solution
    assert _all_plain([solve_affine(rows, 2)])
    solution = solve_affine([{0: 2, 1: Fraction(1, 2), 2: -3}, {1: 1, 2: -2}], 2)
    assert solution == {0: 1, 1: 2}
    assert _all_plain([solution])


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


def _instance(coords, admit=None):
    """An instance whose parts add exactly the rows of ``coords``, a dict
    from each coordinate to its row."""
    terms = [(coord, col, v) for coord, row in coords.items() for col, v in row.items()]
    form = {i: col for i, (_, col, _) in enumerate(terms)}
    return ((-1, form, lambda i: (terms[i][::2],)),), admit


def test_linear_system_drops_terms_that_cancel():
    instance = _instance({
        "a": {0: Scalar(1), 1: Scalar(1, 1)},
        "b": {2: Scalar(0, 3), 1: Scalar(2)},
    })
    cancel = _instance({"a": {0: Scalar(-1), 1: Scalar(-1, -1)}, "b": {2: Scalar(0, -3)}})
    assert list(admitted_rows([(instance[0] + cancel[0], None)])) == S([{1: 2}])


def test_linear_system_applies_the_admission_predicate():
    rows = list(admitted_rows([_instance({1: {0: 1}, 5: {1: 1}}, admit=lambda coord: coord < 3)]))
    assert rows == S([{0: 1}])
    # the predicate applies to one instance only
    rows = list(admitted_rows([
        _instance({1: {0: 1}, 5: {1: 1}}, admit=lambda coord: coord < 3),
        _instance({5: {1: 1}}),
    ]))
    assert rows == S([{0: 1}, {1: 1}])


def test_linear_system_raises_when_nothing_is_admitted():
    # the stream raises when it is consumed, at its end, not when it is made
    rows = admitted_rows([_instance({1: {0: 1}}, admit=lambda coord: False)])
    with pytest.raises(InfeasibleWindow, match="no admissible constraint rows"):
        list(rows)
    with pytest.raises(InfeasibleWindow):
        next(admitted_rows([]))


def test_linear_system_affine_solve():
    # x + y = 3, y = 1, with the constant term in column ncols = 2
    rows = admitted_rows([_instance({"a": {0: 1, 1: 1, 2: -3}, "b": {1: 1, 2: -1}})])
    assert solve_affine(rows, 2) == {0: Scalar(2), 1: Scalar(1)}
    # x = 1 and x = 2 together are inconsistent
    rows = admitted_rows([_instance({"a": {0: 1, 1: -1}, "b": {0: 1, 1: -2}})])
    assert solve_affine(rows, 1) is None


def test_linear_system_drops_later_terms_in_a_pinned_column():
    rows = list(admitted_rows([_instance({"a": {0: 2}}), _instance({"b": {0: 1, 1: 3, 2: 1}})]))
    assert rows == S([{0: 2}, {1: 3, 2: 1}])


def test_linear_system_does_not_keep_a_row_that_empties():
    # a repeated single entry in the same instance is a multiple of the first
    rows = list(admitted_rows([
        _instance({"a": {0: 1}, "b": {0: 3}}), _instance({"c": {0: 5}, "d": {}}),
    ]))
    assert rows == S([{0: 1}])
    assert nullspace(rows, 2) == S([{1: 1}])


def test_linear_system_pins_cascade_through_rows_stripped_to_one_entry():
    rows = list(admitted_rows([
        _instance({"a": {0: 1}}),
        _instance({"b": {0: 1, 1: 2}}),
        _instance({"c": {1: 1, 2: -1}}),
        # pins take effect at the next instance, so "e" keeps column 3 here
        _instance({"d": {0: 1, 1: 1, 2: 1, 3: 1}, "e": {2: 1, 3: 1, 4: 1}}),
        _instance({"f": {3: 1, 4: 2}}),
    ]))
    assert rows == S([{0: 1}, {1: 2}, {2: -1}, {3: 1}, {3: 1, 4: 1}, {4: 2}])
    assert nullspace(rows, 5) == []


def test_linear_system_rejected_single_entry_row_pins_nothing():
    rows = list(admitted_rows([
        _instance({1: {0: 1}}, admit=lambda coord: False),
        _instance({2: {0: 1, 1: 1}}),
    ]))
    assert rows == S([{0: 1, 1: 1}])


def test_linear_system_pinned_constant_column_is_still_inconsistent():
    # 0 = 1 pins the constant column; x = 2 then loses its constant term
    rows = list(admitted_rows([_instance({"a": {1: 1}}), _instance({"b": {0: 1, 1: -2}})]))
    assert rows == S([{1: 1}, {0: 1}])
    assert solve_affine(rows, 1) is None


@st.composite
def _instance_batches(draw):
    """Instances as batches of coordinate rows, each with the coordinates
    it admits;
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
@given(_instance_batches())
# a kept row repeated in the same instance as a real multiple, then in the
# next as a non-real multiple and as a real one
@example(([
    ({0: {0: 1, 1: 2}, 1: {0: -2, 1: -4}}, frozenset({0, 1})),
    ({2: {0: Scalar(0, 1), 1: Scalar(0, 2)},
      3: {0: Scalar(Fraction(1, 2), 1), 1: Scalar(1, 2)},
      0: {1: Fraction(3, 2), 0: Fraction(3, 4)}}, frozenset({0, 2, 3})),
], 3))
def test_linear_system_nullspace_is_that_of_every_admitted_row(system_batches):
    batches, ncols = system_batches
    instances = [
        _instance({c: {k: Scalar.coerce(v) for k, v in row.items()} for c, row in batch.items()},
                  admit=admits.__contains__)
        for batch, admits in batches
    ]
    admitted = []
    for batch, admits in batches:
        for coord, row in batch.items():
            row = {c: v for c, v in row.items() if v}
            if row and coord in admits:
                admitted.append(row)
    if not admitted:
        with pytest.raises(InfeasibleWindow):
            list(admitted_rows(instances))
        return
    _check_against_the_dense_oracle(admitted, ncols)
    rows = list(admitted_rows(instances))
    assert len(rows) <= len(admitted)
    assert nullspace(rows, ncols) == nullspace(admitted, ncols)


@pytest.mark.parametrize(
    "product, degree, shape",
    [(LIE_W00, 0, (501, 200)), (LIE_HV, None, (3738, 2100))],
    ids=["graded-lie-w00", "ungraded-lie-hv"],
)
def test_linear_system_hands_nullspace_the_pinned_rows(product, degree, shape, monkeypatch):
    # Any change to which admitted rows are kept moves these counts.
    shapes = []
    original = linalg.nullspace

    def record(rows, ncols):
        rows = list(rows)
        shapes.append((len(rows), ncols))
        return original(rows, ncols)

    monkeypatch.setattr(linalg, "nullspace", record)
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
        lambda: decompose_derivation(
            Decomposition(
                Element({L(1): 2, I(2): -1, L(-1): Fraction(1, 2)}), 3, Fraction(-1, 2), Scalar(0, 1)
            ).as_map(),
            Window(4),
        ),
    ],
    ids=["leftsym-quotient", "commuting", "decompose"],
)
def test_solvers_build_no_terms_in_pinned_columns(solve, monkeypatch):
    # Each instance's rows are rebuilt here from every one of its terms,
    # and a column pinned by an earlier instance is then cut out of them:
    # admitted_rows, which skips those terms instead, must keep the same
    # rows, in the order of each coordinate's first term it keeps.  An
    # instance is read here after admitted_rows has read it and before the
    # solver makes the next one.
    expected = []
    pinned = set()
    original = linalg.admitted_rows

    def rebuild(parts, admit):
        earlier = frozenset(pinned)
        coords = {}
        order = {}
        for sign, value, read in parts:
            if type(value) is dict:
                terms = ((coord, col, v) for key, col in value.items() for coord, v in read(key))
            else:
                terms = ((coord, col, c) for key, c in value for coord, col in read(key).items())
            for coord, col, v in terms:
                row = coords.setdefault(coord, {})
                row[col] = row.get(col, 0) - sign * v
                if col not in earlier:
                    order.setdefault(coord)
        for coord in order:
            row = {col: v for col, v in coords[coord].items() if v and col not in earlier}
            if row and (admit is None or admit(coord)):
                if len(row) == 1:
                    if set(row) <= pinned:
                        continue
                    pinned.update(row)
                expected.append(row)

    def spy(instances):
        def passed_on():
            for instance in instances:
                yield instance
                rebuild(*instance)

        rows = list(original(passed_on()))
        assert rows == expected
        return rows

    monkeypatch.setattr(linalg, "admitted_rows", spy)
    solve()
    assert expected


def test_add_parts_adds_the_negated_sum_in_both_part_shapes():
    # a form-valued part (a dict {key: column}) reads numbers at the form's
    # keys, a number-valued part reads a form at each key; each term is
    # -sign * product
    numbers = {L(0): [(I(0), 3), (I(3), 1)], L(1): [(I(1), Fraction(1, 2))]}
    forms = {L(2): {I(2): 2}, L(3): {I(3): 1}}
    parts = (
        (1, {L(0): 0, L(1): 1}, numbers.__getitem__),
        (-1, [(L(2), 5), (L(3), Scalar(1, 1))], forms.__getitem__),
    )
    rows = list(admitted_rows([(parts, None)]))
    assert rows == [{0: -3}, {0: -1, 1: Scalar(1, 1)}, {1: Fraction(-1, 2)}, {2: 5}]
    assert _all_plain(rows)
    # a pinned column is skipped before anything is read at it
    pinned = ((1, {L(0): 0}, None), (-1, [(L(2), 7)], forms.__getitem__))
    assert list(admitted_rows([(parts, None), (pinned, None)])) == rows


@pytest.mark.parametrize(
    "solve",
    [lambda: solve_biderivations(LIE_HV, Window(2), 4), lambda: solve_commuting(Window(3))],
    ids=["biderivations", "commuting"],
)
def test_assembly_state_is_freed_at_the_end_of_the_stream(solve, monkeypatch):
    # the assembly's closures and its plain_values cache, and with them the
    # linear forms, are gone once elimination has read the last row:
    # checked when nullspace's elimination of the stream returns, before
    # its vectors are built and re-canonicalized; collecting first clears
    # cycles that earlier tests left, such as tracebacks
    assembly = ("_biderivation_system.", "_commuting_system.", "plain_values.")
    live = []
    calls = 0
    original = linalg._echelon

    def spy(rows):
        nonlocal calls
        calls += 1
        answer = original(rows)
        if calls == 1:
            gc.collect()
            live.extend(
                f.__qualname__
                for f in gc.get_objects()
                if type(f) is FunctionType and f.__qualname__.startswith(assembly)
            )
        return answer

    monkeypatch.setattr(linalg, "_echelon", spy)
    solve()
    assert calls >= 2 and live == []


def test_nullspace_holds_a_stream_of_rows_that_vanish_in_bounded_memory():
    # every row after the first is a multiple of it and reduces to zero, so
    # elimination need not hold them: a tenfold longer stream must not
    # raise the allocation peak much (a sorted list of every row would)
    def peak(count):
        rows = ({c: (k % 7 + 1) * (c + 1) for c in range(16)} for k in range(count))
        tracemalloc.start()
        try:
            assert nullspace(rows, 16) == nullspace([{c: c + 1 for c in range(16)}], 16)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(1_000), peak(10_000)
    assert large < 1.5 * small, (small, large)


def test_ungraded_elimination_takes_fewer_steps_than_one_sorted_pass():
    # ungraded lie-w00 W4/ob8 took 62,492 elimination steps when rref
    # sorted every admitted row at once, and 78,406 in batches that kept a
    # pivot row for each proved-zero column; with the zero-column index it
    # takes 48,910, the 5,372 clears by unit rows {c: 1} among them, as
    # they are _eliminate steps too, and must stay below the one-sort count
    steps = 0
    original = linalg._eliminate

    def count(row, col, pivot):
        nonlocal steps
        steps += 1
        original(row, col, pivot)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_eliminate", count)
        space = solve_biderivations(LIE_W00, Window(4), 8)
    assert space.dimension == 182
    assert steps < 62_492, steps


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
        rows = list(rows)
        captured.append(rows)
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
    # rows and basis hold plain numbers (Scalars only for a product with
    # non-real constants)
    assert _all_plain(rows) and _all_plain(space.basis)
    if real:
        assert not any(type(v) is Scalar for row in rows for v in row.values())
    else:
        assert any(type(v) is Scalar for row in rows for v in row.values())
