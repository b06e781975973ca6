"""Exact sparse linear algebra over the Gaussian rationals.

The one number rule of the solve path: rows (dicts from dense variable
ids to nonzero numbers), linear forms, the answers of ``rref``,
``nullspace`` and ``solve_affine`` and ``SolutionSpace`` bases hold plain
numbers, an int or a Fraction where real and a Scalar only where not.
Only the algebra layer (``Element``, ``linmaps.Decomposition``) makes
Scalars.  ``_echelon``, the one elimination routine, behind ``rref`` and
``nullspace``, is fraction-free: it scales each row to Gaussian integers
as it takes it (ints where real) and keeps every pivot row primitive with
a positive integer lead, so elimination multiplies and adds integers.
Every reduced row takes one path: it clears its lead column from the
pivot rows, and a row of one entry, ``{c: 1}``, proves its column zero,
marked None among the pivots, so a pivot row holds, besides its lead,
only free columns.  ``rref`` answers the canonical form (RREF with
leading ones and pivots in increasing variable order, a zero column as
the row ``{c: 1}``), so two computations of the same span produce
identical representations and every report built on top is byte-stable.
Only that answer divides by the leads.  As the form is unique, the
elimination picks its order of work: batches of rows from any iterable,
each by decreasing lead column, with an index of the pivot rows holding
each column.  A solver's rows come from ``admitted_rows``, the only row
builder, which leaves out columns pinned to zero and yields each row as
it is built, so a solve holds only the pivot rows and one batch.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import islice
from math import gcd

from .errors import IncompatibleSpaces, InfeasibleWindow
from .scalars import Scalar, accumulate, gaussian_integers


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


class _Gaussian:
    """A Gaussian integer re + im*i with im nonzero: the non-real entry of
    a row under elimination.  An operation whose result is real returns
    it as an int, so ints hold every real entry."""

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int):
        self.re = re
        self.im = im

    def __mul__(self, other):
        if type(other) is int:
            return _Gaussian(self.re * other, self.im * other) if other else 0
        a, b, c, d = self.re, self.im, other.re, other.im
        return _gaussian(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __add__(self, other):
        if type(other) is int:
            return _Gaussian(self.re + other, self.im)
        return _gaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return _Gaussian(-self.re, -self.im)

    def __floordiv__(self, n: int):
        """Exact division by an int that divides both parts."""
        return _Gaussian(self.re // n, self.im // n)


def _gaussian(re: int, im: int):
    return _Gaussian(re, im) if im else re


def _eliminate(row: dict, col: int, pivot: dict) -> None:
    """Clear ``row[col]`` in place with ``pivot``, whose entry at col is its
    lead: row = s*row - (row[col]/g)*pivot, where g = gcd(lead, row[col])
    over the integers and s = lead/g.  With lead 1 this is
    row - row[col]*pivot, in whatever numbers the rows hold."""
    f = row[col]
    lead = pivot[col]
    if lead != 1:
        g = gcd(lead, f) if type(f) is int else gcd(lead, f.re, f.im)
        s = lead // g
        f = f // g
        if s != 1:
            for c, v in row.items():
                row[c] = s * v
    accumulate(row, pivot, -f)


def _reduce(row: dict, pivots: dict) -> dict:
    """Eliminate every pivot column from ``row``, in place, and delete each
    column that ``pivots`` maps to None, a column proved zero, as its unit
    row ``{c: 1}`` would.

    Pivot rows hold, besides their pivot, only free columns, never a zero
    column, so one pass in increasing column order terminates.
    """
    for col in sorted(row):
        if col in pivots:
            pivot = pivots[col]
            if pivot is None:
                del row[col]
            elif col in row:
                _eliminate(row, col, pivot)
    return row


def _primitive(row: dict) -> None:
    """Divide ``row``, a pivot row with a positive int lead, by the gcd of
    all its integer parts, in place."""
    g = 0
    for v in row.values():
        g = gcd(g, v) if type(v) is int else gcd(g, v.re, v.im)
        if g == 1:
            return
    for c, v in row.items():
        row[c] = v // g


_BATCH = 256  # rows _echelon sorts and holds at once, chosen by measurement


def _echelon(rows) -> dict:
    """The one elimination routine: a map from each lead column of the
    rows' span to its pivot row, which holds at least two entries, or to
    None for a column the rows prove zero.

    The rows are read in batches of ``_BATCH``, each taken in decreasing
    order of lead (minimum) column: most new pivots lead left of every
    pivot row, which then cannot hold their column.  Only the pivot rows
    and one batch are held, so a stream of rows that mostly reduce to zero
    is never held whole.  ``holders`` maps a column to the pivots whose
    rows held it; an entry goes stale when the column cancels or its pivot
    row leaves, so it is checked.  Every reduced row, made primitive with
    a positive lead, clears its lead column from each pivot row that holds
    it and becomes that column's pivot row, or None when it holds its lead
    alone: ``{c: 1}`` proves column c zero.  A pivot row cleared to its
    lead alone proves its lead zero and becomes None too.  No pivot row
    holds a pivot column, so that ends there, and pivot rows hold, besides
    their lead, only free columns.

    Elimination is fraction-free.  Each row is scaled to Gaussian integers
    when it is taken (ints where real, ``_Gaussian`` where not) and reduced
    by ``row = lead*row - f*pivot`` with common integer factors divided
    out first.  A pivot row is kept primitive with a positive integer
    lead: a non-real lead is made real by multiplying the row with its
    conjugate.  The input rows are never mutated.
    """
    pivots = {}
    holders = {}
    rows = iter(rows)
    while batch := sorted(islice(rows, _BATCH), key=lambda r: min(r, default=-1)):
        while batch:
            row = batch.pop()  # the batch's highest lead column
            if all(type(v) is int for v in row.values()):
                row = dict(row)
            else:
                row = {c: _gaussian(re, im) for c, re, im in gaussian_integers(row.items())[1]}
            row = _reduce(row, pivots)
            if not row:
                continue
            col = min(row)
            lead = row[col]
            if type(lead) is _Gaussian:
                conj = _Gaussian(lead.re, -lead.im)
                for c, v in row.items():
                    row[c] = conj * v
            elif lead < 0:
                for c, v in row.items():
                    row[c] = -v
            _primitive(row)
            touched = [col]
            for p in holders.pop(col, ()):
                prow = pivots[p]
                if prow is not None and col in prow:
                    _eliminate(prow, col, row)
                    if len(prow) == 1:
                        pivots[p] = None
                    else:
                        _primitive(prow)
                        touched.append(p)
            for c in row:
                if c != col:
                    holders.setdefault(c, set()).update(touched)
            pivots[col] = row if len(row) > 1 else None
    return pivots


def rref(rows) -> list:
    """Reduced row echelon form of an iterable of sparse rows, canonical:
    it depends only on the row span.  Each pivot row of ``_echelon`` is
    divided by its lead and each zero column ``c`` is the row ``{c: 1}``,
    in column order, in plain numbers.  The input rows are never mutated.
    """
    pivots = _echelon(rows)
    return [
        {col: 1} if pivots[col] is None else _leading_one(col, pivots[col])
        for col in sorted(pivots)
    ]


def _leading_one(col: int, row: dict) -> dict:
    """The pivot row at ``col`` divided by its lead, in plain numbers (an
    int where the lead divides the entry): made in place, so no pivot row
    is held twice."""
    lead = row[col]
    for c, v in row.items():
        if type(v) is _Gaussian:
            row[c] = Scalar(Fraction(v.re, lead), Fraction(v.im, lead))
        elif lead != 1:
            row[c] = Fraction(v, lead) if v % lead else v // lead
    row[col] = 1
    return row


def nullspace(rows, ncols: int) -> list:
    """Canonical basis of the solution set of ``rows * v = 0``.

    ``rows`` may be any iterable, such as a solver's stream of rows,
    which ``_echelon`` reads to its end.  The standard free-variable
    basis is built from the pivot rows: only the columns that are neither
    pivots nor proved zero get a vector, one dict per solution rather than
    one per column.  The pivot rows are dropped before the vectors are
    re-canonicalized with rref, so the returned vectors have leading ones
    at increasing variable ids.
    """
    pivots = _echelon(rows)
    vectors = {free: {free: 1} for free in range(ncols) if free not in pivots}
    for pcol in sorted(pivots):
        if pivots[pcol] is not None:
            for free, coeff in _leading_one(pcol, pivots[pcol]).items():
                if free != pcol:
                    vectors[free][pcol] = -coeff
    del pivots
    return rref(vectors.values())


def solve_affine(rows, nvars: int):
    """Solve an inhomogeneous sparse system exactly.

    Each row holds its constant term in column ``nvars`` and states
    sum(row[c] * x[c]) + row[nvars] = 0.  Returns the particular solution
    with all free variables set to zero, or None when the system is
    inconsistent.
    """
    solution = {}
    for row in rref(rows):
        lead = min(row)
        if lead == nvars:
            return None
        c = row.get(nvars)
        if c is not None:
            solution[lead] = -c
    return solution


def admitted_rows(instances):
    """Yield the constraint rows of one windowed solve, from its identity
    instances, each a pair ``(parts, admit)``.  The rows are a stream:
    each is yielded as its instance is read, and none is held after.

    An instance adds the negated sum of its ``(sign, value, read)`` parts,
    sign 1 or -1, the shape ``linmaps.gaussian_sum`` sums, as one sparse
    row per output coordinate.  One factor of each term is a linear form,
    a dict ``{key: col}`` whose unknowns all have coefficient one: either
    ``value`` is a form and ``read(key)`` gives ``(coord, number)`` pairs,
    or ``value`` holds ``(key, number)`` pairs and ``read(key)`` gives a
    form keyed by coord.  Terms are plain numbers, so real rows are built
    in int and Fraction arithmetic.

    A row is kept when it is nonzero and ``admit(coord)`` holds (None
    admits all), except a single-entry row whose column is already
    pinned.  A kept row with one entry pins its column to zero: a later
    instance skips every term in a pinned column before its numbers are
    read, so a later row may shrink to one entry and pin its own column,
    or to nothing and not be kept.  Each kept row differs from the one
    the instance built by multiples of rows kept before, so the row span,
    and with it every canonical answer, is that of the built rows.  When
    the stream ends with no row kept, it raises ``InfeasibleWindow``.
    """
    kept = False
    pinned = set()

    def add(coord, col, value):
        row = coords.setdefault(coord, {})
        value = row[col] + value if col in row else value
        if value:
            row[col] = value
        else:
            row.pop(col, None)

    for parts, admit in instances:
        coords = {}
        for sign, value, read in parts:
            if type(value) is dict:
                for key, col in value.items():
                    if col not in pinned:
                        for coord, v in read(key):
                            add(coord, col, -v if sign > 0 else v)
                continue
            for key, c in value:
                neg = None
                for coord, col in read(key).items():
                    if col not in pinned:
                        if neg is None:
                            neg = -c if sign > 0 else c
                        add(coord, col, neg)
        for coord, row in coords.items():
            if not row or (admit is not None and not admit(coord)):
                continue
            if len(row) == 1:
                (col,) = row
                if col in pinned:
                    continue
                pinned.add(col)
            kept = True
            yield row
    if not kept:
        raise InfeasibleWindow("no admissible constraint rows on this window")


class SolutionSpace:
    """Canonical (RREF) basis, in plain numbers, of the span of
    ``vectors``, tied to a registry: every space canonicalises its input
    with ``rref``, so spaces of one span hold equal bases."""

    def __init__(self, registry: VarRegistry, vectors, meta=None):
        self.registry = registry
        self.basis = rref(vectors)
        self.meta = dict(meta or {})
        self._pivots = {min(row): row for row in self.basis}

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def reduce(self, vector: dict) -> dict:
        """Residual of ``vector`` after elimination against the basis."""
        return _reduce(dict(vector), self._pivots)

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
    """Exact span equality: both bases are canonical RREF, so the spans
    are equal exactly when the bases are.

    On failure the witness is a basis vector of one space that is not in
    the other's span (side "left" means it came from ``a``).
    """
    if a.registry is not b.registry:
        raise IncompatibleSpaces("spaces use different variable registries")
    if a.basis == b.basis:
        return SpanComparison(True)
    for row in a.basis:
        if not b.contains(row):
            return SpanComparison(False, row, "left")
    # the bases differ and a lies in b's span, so b holds a row outside a's
    row = next(row for row in b.basis if not a.contains(row))
    return SpanComparison(False, row, "right")
