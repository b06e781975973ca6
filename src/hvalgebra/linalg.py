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
A solver's rows come from ``LinearSystem.add_parts``, the only row
builder, which leaves out columns pinned to zero.
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

    Each identity instance adds its terms with ``add_parts`` (one sparse
    row per output coordinate), then ``flush`` turns those coordinates
    into rows.  Terms are ``scalars.plain`` numbers, so real rows are
    built and reduced in int and Fraction arithmetic; the solutions come
    back as Scalars.  A row is kept when it is nonzero and the solver's
    ``admit(coord)`` holds (no predicate admits all), except a
    single-entry row whose column is already pinned.  A kept row with one
    entry pins its column to zero: ``add`` drops every later term in a
    pinned column, so a later row may shrink to one entry and pin its own
    column, or to nothing and not be kept.  Each kept row differs from
    the one the solver built by multiples of rows kept before, so the row
    span, and with it every canonical answer, is that of the built rows.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows = []
        self._pinned = set()
        self._coords = {}

    @property
    def pinned(self):
        """The pinned columns, as the live set ``flush`` grows.  Read only."""
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

    def add_parts(self, parts) -> None:
        """Add the negated sum of ``(sign, value, read)`` parts, sign 1 or
        -1, the shape ``linmaps.gaussian_sum`` sums.  One factor of each
        term is a linear form, ``((key, col), c)`` pairs: either ``value``
        is a form and ``read(key)`` gives ``(coord, number)`` pairs, or
        ``value`` holds ``(key, number)`` pairs and ``read(key)`` gives a
        form.  A pinned column is skipped before its numbers are read, and
        a number is negated only for a term that is added."""
        add = self.add
        pinned = self._pinned
        for sign, value, read in parts:
            for key, c in value:
                if type(key) is tuple:  # a form's (key, col); not a BasisKey
                    key, col = key
                    if col not in pinned:
                        c = -sign * c
                        for coord, v in read(key):
                            add(coord, col, v if c == 1 else c * v)
                    continue
                neg = None
                for (coord, col), fc in read(key):
                    if col not in pinned:
                        if neg is None:
                            neg = -c if sign > 0 else c
                        add(coord, col, neg if fc == 1 else neg * fc)

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


def reference_span(space: SolutionSpace, tag, arguments, readers, family) -> SolutionSpace:
    """The span of known solutions in the registry of ``space``: one
    vector per reader, holding the coefficient of each key u in
    ``read(*args)`` at the unknown ``(tag, *args, u)``, for each argument
    tuple in ``arguments``.  Every such unknown must exist."""
    vectors = []
    for read in readers:
        vec = {}
        for args in arguments:
            for u, c in read(*args).items():
                vid = space.registry.get((tag, *args, u))
                if vid is None:
                    where = ",".join(map(str, args))
                    raise ValueError(
                        f"generator output {u} for ({where}) escapes the solver's bound"
                    )
                vec[vid] = c
        vectors.append(vec)
    return SolutionSpace(space.registry, vectors, meta={**space.meta, "family": family})


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
