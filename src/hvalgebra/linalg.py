"""Exact sparse linear algebra over the Gaussian rationals.

Vectors and matrix rows are dicts mapping dense variable ids to nonzero
Scalars.  Everything is reduced to a canonical form (RREF with leading
ones and pivots in increasing variable order), so two computations of the
same span produce identical representations and every report built on top
is byte-stable.  Rows stay in reduced canonical form after every stage;
Fraction arithmetic keeps entries gcd-reduced throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IncompatibleSpaces, InfeasibleWindow
from .scalars import Scalar, accumulate


class VarRegistry:
    """Append-only bijection between semantic labels and dense variable ids.

    Labels are hashable tuples describing the unknown (for instance
    ``("f", L(1), L(2), I(3))`` for one output coordinate of a bilinear
    map); the optional renderer turns a label into report text.
    """

    def __init__(self, renderer=None):
        self._labels = []
        self._ids = {}
        self._renderer = renderer or (lambda label: str(label))

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

    def render(self, vid: int) -> str:
        return self._renderer(self._labels[vid])

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

    Deterministic and canonical: the result depends only on the row span.
    Pivot selection always takes the smallest variable id.
    """
    pivots = {}
    for row in rows:
        row = _reduce(row, pivots)
        if not row:
            continue
        col = min(row)
        inv = row[col].inv()
        row = {c: v * inv for c, v in row.items()}
        for prow in pivots.values():
            if col in prow:
                _eliminate(prow, col, row)
        pivots[col] = row
    return [pivots[c] for c in sorted(pivots)]


def rank(rows) -> int:
    return len(rref(rows))


def nullspace(rows, ncols: int) -> list:
    """Canonical basis of the solution set of ``rows * v = 0``.

    The standard free-variable basis is re-canonicalized with rref so the
    returned vectors have leading ones at increasing variable ids.
    """
    reduced = rref(rows)
    pivot_cols = {min(r): r for r in reduced}
    vectors = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = {free: Scalar(1)}
        for pcol, prow in pivot_cols.items():
            coeff = prow.get(free)
            if coeff is not None:
                vec[pcol] = -coeff
        vectors.append(vec)
    return rref(vectors)


def solve_affine(rows, nvars: int):
    """Solve an inhomogeneous sparse system exactly.

    ``rows`` is an iterable of (coefficients, rhs) pairs.  Returns the
    particular solution with all free variables set to zero, or None when
    the system is inconsistent.
    """
    sentinel = nvars
    augmented = []
    for coeffs, rhs in rows:
        row = dict(coeffs)
        rhs = Scalar.coerce(rhs)
        if rhs:
            row[sentinel] = -rhs
        if row:
            augmented.append(row)
    solution = {}
    for row in rref(augmented):
        lead = min(row)
        if lead == sentinel:
            return None
        c = row.get(sentinel)
        if c is not None:
            solution[lead] = -c
    return solution


class LinearSystem:
    """The constraint rows of one windowed solve over ``ncols`` unknowns.

    Each identity instance adds its terms with ``add`` (one sparse row per
    output coordinate), then ``flush`` turns those coordinates into rows.
    A row is kept when it is nonzero, when the solver's ``admit(coord)``
    holds (no predicate admits all), and when no scalar multiple of it was
    kept before; the first occurrence stays.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows = []
        self._seen = set()
        self._coords = {}

    def add(self, coord, col: int, value: Scalar) -> None:
        accumulate(self._coords.setdefault(coord, {}), {col: value})

    def flush(self, admit=None) -> None:
        for coord, row in self._coords.items():
            if not row or (admit is not None and not admit(coord)):
                continue
            norm = row[min(row)].inv()
            frozen = tuple(sorted((c, v * norm) for c, v in row.items()))
            if frozen not in self._seen:
                self._seen.add(frozen)
                self.rows.append(row)
        self._coords = {}

    def nullspace(self) -> list:
        """Canonical basis of the homogeneous system's solutions."""
        if not self.rows:
            raise InfeasibleWindow("no admissible constraint rows on this window")
        return nullspace(self.rows, self.ncols)

    def solve_affine(self):
        """Particular solution (or None) of the inhomogeneous system whose
        constant terms sit in column ``ncols``: each row states
        sum(row[c] * x[c]) + row[ncols] = 0.  That column is solve_affine's
        own sentinel, so the rows pass through with a zero right-hand side.
        """
        return solve_affine([(row, 0) for row in self.rows], self.ncols)


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


@dataclass(frozen=True)
class SpanComparison:
    equal: bool
    witness: dict | None = None
    witness_side: str | None = None

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
