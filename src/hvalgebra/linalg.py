"""Exact sparse linear algebra over the Gaussian rationals.

Vectors and matrix rows are dicts mapping dense variable ids to nonzero
ints, Fractions or Scalars, in any mix: elimination needs only the number
protocol, ``rref`` keeps Scalar rows Scalar, and ``nullspace`` and
``solve_affine`` always answer in Scalars.  Everything is reduced to a
canonical form (RREF with leading ones and pivots in increasing variable
order), so two computations of the same span produce identical
representations and every report built on top is byte-stable.  Rows stay
in reduced canonical form after every stage, with exact entries.  As
that form is unique, ``rref`` picks its order of work: rows by decreasing
lead column, with an index of the pivot rows holding each column.

A kept single-entry constraint row pins its column to zero; later rows
are built without the pinned columns, which leaves the row span as is.
Every other admitted row is kept, and ``rref`` absorbs the repeats.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import IncompatibleSpaces, InfeasibleWindow
from .scalars import Scalar, accumulate, reciprocal


class VarRegistry:
    """Append-only bijection between semantic labels and dense variable ids.

    Labels are hashable tuples describing the unknown: the solvers use
    ``(tag, *argument keys, output key)``, for instance
    ``("f", L(1), L(2), I(3))`` for one output coordinate of a bilinear
    map.
    """

    def __init__(self):
        self._labels = []
        self._ids = {}

    def add(self, label) -> int:
        if label in self._ids:
            raise ValueError(f"duplicate variable label {label!r}")
        vid = len(self._labels)
        self._labels.append(label)
        self._ids[label] = vid
        return vid

    def id_of(self, label) -> int:
        return self._ids[label]

    def get(self, label):
        return self._ids.get(label)

    def label_of(self, vid: int):
        return self._labels[vid]

    def labels(self):
        return tuple(self._labels)

    def __len__(self):
        return len(self._labels)


def _eliminate(row: dict, col: int, pivot_row: dict) -> None:
    """Clear ``row[col]`` in place with ``pivot_row``, whose entry at col is
    1.  That entry is left out of the sum, as it only cancels ``row[col]``."""
    factor = row.pop(col)
    rest = dict(pivot_row)
    del rest[col]
    if rest:
        accumulate(row, rest, -factor)


def _reduce(row: dict, pivots: dict) -> dict:
    """Eliminate every pivot column from ``row`` (row is not mutated).

    Pivot rows have their minimum column as pivot and all other entries at
    free columns, so one pass in increasing column order terminates.
    """
    out = dict(row)
    for col in sorted(row):
        prow = pivots.get(col)
        if prow is not None and col in out:
            _eliminate(out, col, prow)
    return out


def rref(rows) -> list:
    """Reduced row echelon form of an iterable of sparse rows.

    Deterministic and canonical: the result depends only on the row span,
    so rows go in decreasing order of lead (minimum) column, and most new
    pivots lead left of every pivot row, which then cannot hold their
    column.  ``holders`` maps a column to the pivots whose rows held it;
    an entry goes stale when the column cancels, so it is checked.  Pivot
    selection always takes the smallest variable id.
    """
    pivots = {}
    holders = {}
    for row in sorted(rows, key=lambda r: min(r, default=-1), reverse=True):
        row = _reduce(row, pivots)
        if not row:
            continue
        col = min(row)
        inv = reciprocal(row[col])
        row = {c: v * inv for c, v in row.items()}
        touched = [p for p in holders.pop(col, ()) if col in pivots[p]]
        for p in touched:
            _eliminate(pivots[p], col, row)
        touched.append(col)
        for c in row.keys() - {col}:
            holders.setdefault(c, set()).update(touched)
        pivots[col] = row
    return [pivots[c] for c in sorted(pivots)]


def rank(rows) -> int:
    return len(rref(rows))


def nullspace(rows, ncols: int) -> list:
    """Canonical basis of the solution set of ``rows * v = 0``.

    The standard free-variable basis is re-canonicalized with rref so the
    returned Scalar vectors have leading ones at increasing variable ids.
    """
    reduced = rref(rows)
    vectors = {free: {free: 1} for free in range(ncols)}
    for prow in reduced:
        pcol = min(prow)
        del vectors[pcol]
        for free, coeff in prow.items():
            if free != pcol:
                vectors[free][pcol] = -coeff
    return [{c: Scalar.coerce(v) for c, v in vec.items()} for vec in rref(vectors.values())]


def solve_affine(rows, nvars: int):
    """Solve an inhomogeneous sparse system exactly.

    Each row holds its constant term in column ``nvars`` and states
    sum(row[c] * x[c]) + row[nvars] = 0.  Returns the particular solution
    with all free variables set to zero, as Scalars, or None when the
    system is inconsistent.
    """
    solution = {}
    for row in rref(rows):
        lead = min(row)
        if lead == nvars:
            return None
        c = row.get(nvars)
        if c is not None:
            solution[lead] = -c
    return {c: Scalar.coerce(v) for c, v in solution.items()}


class LinearSystem:
    """The constraint rows of one windowed solve over ``ncols`` unknowns.

    Each identity instance adds its terms with ``add`` (one sparse row per
    output coordinate), then ``flush`` turns those coordinates into rows.
    Terms are ``scalars.plain`` numbers, so real rows are built and reduced
    in int and Fraction arithmetic; the solutions come back as Scalars.
    A row is kept when it is nonzero and the solver's ``admit(coord)``
    holds (no predicate admits all), except a single-entry row whose
    column is already pinned.  A kept row with one entry pins its column
    to zero: ``add`` drops every later term in a pinned column, so a later
    row may shrink to one entry and pin its own column, or to nothing and
    not be kept.  Each kept row differs from the one the solver built by
    multiples of rows kept before, so the row span, and with it every
    canonical answer, is that of the built rows.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows = []
        self._pinned = set()
        self._coords = {}

    @property
    def pinned(self):
        """The pinned columns, as the live set ``flush`` grows: a solver may
        skip building terms in them, which ``add`` would drop.  Read only."""
        return self._pinned

    def add(self, coord, col: int, value) -> None:
        if col in self._pinned:
            return
        row = self._coords.setdefault(coord, {})
        value = row[col] + value if col in row else value
        if value:
            row[col] = value
        else:
            row.pop(col, None)

    def flush(self, admit=None) -> None:
        for coord, row in self._coords.items():
            if not row or (admit is not None and not admit(coord)):
                continue
            if len(row) == 1:
                (col,) = row
                if col in self._pinned:
                    continue
                self._pinned.add(col)
            self.rows.append(row)
        self._coords = {}

    def nullspace(self) -> list:
        """Canonical basis of the homogeneous system's solutions."""
        if not self.rows:
            raise InfeasibleWindow("no admissible constraint rows on this window")
        return nullspace(self.rows, self.ncols)

    def solve_affine(self):
        """Particular solution (or None) of the inhomogeneous system whose
        constant terms sit in column ``ncols``."""
        return solve_affine(self.rows, self.ncols)


class SolutionSpace:
    """Canonical (RREF) basis of a solved linear space, tied to a registry."""

    def __init__(self, registry: VarRegistry, vectors, meta=None, canonical=False):
        self.registry = registry
        self.basis = list(vectors) if canonical else rref(vectors)
        self.meta = dict(meta or {})
        self._pivots = None

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def _pivot_rows(self):
        if self._pivots is None:
            self._pivots = {min(row): row for row in self.basis}
        return self._pivots

    def reduce(self, vector: dict) -> dict:
        """Residual of ``vector`` after elimination against the basis."""
        return _reduce(vector, self._pivot_rows())

    def contains(self, vector: dict) -> bool:
        return not self.reduce(vector)

    def restrict(self, keep) -> "SolutionSpace":
        """Coordinate projection: keep only variable ids where keep(id)."""
        vectors = [
            {c: v for c, v in row.items() if keep(c)} for row in self.basis
        ]
        return SolutionSpace(self.registry, vectors, meta=self.meta)


class SpanComparison(
    namedtuple("SpanComparison", "equal witness witness_side", defaults=(None, None))
):
    __slots__ = ()

    def __bool__(self):
        return self.equal


def span_equal(a: SolutionSpace, b: SolutionSpace) -> SpanComparison:
    """Exact span equality, decided by rank(a) = rank(b) = rank(a | b).

    On failure the witness is a basis vector of one space that is not in
    the other's span (side "left" means it came from ``a``).
    """
    if a.registry is not b.registry:
        raise IncompatibleSpaces("spaces use different variable registries")
    union_rank = rank(list(a.basis) + list(b.basis))
    if a.dimension == b.dimension == union_rank:
        return SpanComparison(True)
    for row in a.basis:
        if not b.contains(row):
            return SpanComparison(False, row, "left")
    for row in b.basis:
        if not a.contains(row):
            return SpanComparison(False, row, "right")
    return SpanComparison(True)
