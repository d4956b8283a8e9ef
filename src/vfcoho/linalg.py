"""Sparse exact elimination over Q.

A row is a dict {column: nonzero int/Fraction}, the shape of the terms of
a `rings.Terms`, and rows accumulate by the same rule, `rings._collect`; a
matrix is a list of rows.
`echelon(rows)` returns a basis of the row span as (pivot, row) pairs in
increasing pivot order, each row starting at its pivot with entry 1.
`reduce(vector, basis)` subtracts the rows in that order, each times the
vector's entry at its pivot; no row touches a column left of its pivot, so
the remainder is zero at every pivot and equal to the vector modulo the span.

The remainder is canonical: the pivots are the leading columns of the
nonzero vectors of the span, so they depend only on the span, and a vector
of the span that is zero at every pivot is zero.  So each coset holds one
vector that is zero at every pivot, whatever rows the basis came from.

Every finite cochain complex in the package (de Rham components, finite
Lie algebra cochains, the truncated Weil algebra) builds its differentials
with `sparse_matrix` and counts cohomology with `cohomology_dims`.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from typing import Hashable, Iterable, Sequence

from .rings import _collect

Row = dict
Matrix = list


def sparse_matrix(sources: Sequence[Hashable], targets: Sequence[Hashable],
                  entries: Iterable[tuple[Hashable, Hashable, object]]) -> list[Row]:
    """One row per source with columns indexed by the targets, filled from
    (source, target, nonzero coeff) triples; repeated pairs add up, and a
    pair that cancels is not stored.

    A source or target outside the given bases raises KeyError.
    """
    row_of = {s: i for i, s in enumerate(sources)}
    col_of = {t: j for j, t in enumerate(targets)}
    rows = [{} for _ in row_of]
    for source, target, coeff in entries:
        _collect(((col_of[target], coeff),), rows[row_of[source]])
    return rows


def reduce(vector: Row, basis: list[tuple[int, Row]]) -> Row:
    """The remainder of `vector` against an `echelon` basis."""
    rest = {col: x for col, x in vector.items() if x}
    for pivot, row in basis:
        c = rest.get(pivot)
        if c:
            _collect(((col, -c * x) for col, x in row.items()), rest)
    return rest


def echelon(rows: Iterable[Row]) -> list[tuple[int, Row]]:
    """Echelon basis of the row span: (pivot, row) pairs in increasing pivot
    order, each row starting at its pivot with entry 1."""
    basis: list[tuple[int, Row]] = []
    for row in rows:
        rest = reduce(row, basis)
        if rest:
            pivot = min(rest)
            inv = 1 / Fraction(rest[pivot])
            insort(basis, (pivot, {col: inv * x for col, x in rest.items()}))
    return basis


def cohomology_dims(sizes: Sequence[int], matrices: Sequence[list[Row]]) -> list[int]:
    """dim H^p = sizes[p] - rank d^p - rank d^(p-1) of a finite complex.

    `matrices[p]` is d^p: C^p -> C^(p+1) with one row per basis element
    of C^p.  Maps past the end of `matrices` count as zero, so a last map
    into the zero space may be left out.
    """
    ranks = [len(echelon(m)) for m in matrices]
    ranks += [0] * (len(sizes) - len(ranks))
    return [size - ranks[p] - (ranks[p - 1] if p else 0)
            for p, size in enumerate(sizes)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Dense product for small constant matrices (representation checks)."""
    if not a or not b:
        return []
    inner = len(b)
    if any(len(r) != inner for r in a):
        raise ValueError("shape mismatch")
    cols = len(b[0])
    return [[sum(r[i] * b[i][j] for i in range(inner)) for j in range(cols)] for r in a]
