"""Exact Gauss-Jordan elimination over Q.

A matrix is a list of rows, each row a list of int/Fraction.  Pivoting is
deterministic: scan columns left to right, take the first row with a
nonzero entry.  No magnitude heuristics; arithmetic is exact, so there is
nothing to stabilize.

Every finite cochain complex in the package (de Rham components, finite
Lie algebra cochains, the truncated Weil algebra) builds its differentials
with `sparse_matrix` and counts cohomology with `cohomology_dims`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Sequence

Row = list
Matrix = list


def rref(matrix: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form. Returns (rows, pivot_columns), 0-based.

    Zero rows are dropped from the result.  Input is not mutated.
    """
    rows = [list(r) for r in matrix]
    if not rows:
        return [], []
    width = len(rows[0])
    for r in rows:
        if len(r) != width:
            raise ValueError("ragged matrix")
    pivots: list[int] = []
    lead = 0
    for col in range(width):
        src = None
        for i in range(lead, len(rows)):
            if rows[i][col]:
                src = i
                break
        if src is None:
            continue
        rows[lead], rows[src] = rows[src], rows[lead]
        inv = Fraction(1, 1) / Fraction(rows[lead][col])
        rows[lead] = [inv * v for v in rows[lead]]
        for i in range(len(rows)):
            if i != lead and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[lead])]
        pivots.append(col)
        lead += 1
        if lead == len(rows):
            break
    return rows[:lead], pivots


def echelon_rank(matrix: Matrix) -> int:
    return len(rref(matrix)[1])


def sparse_matrix(sources: Sequence[Hashable], targets: Sequence[Hashable],
                  entries: Iterable[tuple[Hashable, Hashable, object]]) -> Matrix:
    """Matrix with one row per source and one column per target, filled
    from (source, target, coeff) triples; repeated pairs add up.

    A source or target outside the given bases raises KeyError.
    """
    row_of = {s: i for i, s in enumerate(sources)}
    col_of = {t: j for j, t in enumerate(targets)}
    rows = [[0] * len(col_of) for _ in row_of]
    for source, target, coeff in entries:
        rows[row_of[source]][col_of[target]] += coeff
    return rows


def cohomology_dims(sizes: Sequence[int], matrices: Sequence[Matrix]) -> list[int]:
    """dim H^p = sizes[p] - rank d^p - rank d^(p-1) of a finite complex.

    `matrices[p]` is d^p: C^p -> C^(p+1) with one row per basis element
    of C^p.  Maps past the end of `matrices` count as zero, so a last map
    into the zero space may be left out.
    """
    ranks = [echelon_rank(m) for m in matrices]
    ranks += [0] * (len(sizes) - len(ranks))
    return [size - ranks[p] - (ranks[p - 1] if p else 0)
            for p, size in enumerate(sizes)]


def reduce_against(vector: Row, rref_rows: Matrix, pivots: list[int]) -> Row:
    """Subtract the projection of `vector` onto the row span (rows in rref)."""
    v = list(vector)
    for row, p in zip(rref_rows, pivots):
        c = v[p]
        if c:
            v = [a - c * b for a, b in zip(v, row)]
    return v


def in_span(vector: Row, basis: Matrix) -> list[Fraction] | None:
    """Coefficients writing `vector` over the rows of `basis`, or None.

    Every row of rref([basis | I]) is (c.basis, c) for some c, so reducing
    (vector, 0) against the rows pivoting inside the basis block leaves
    (0, -coefficients) exactly when `vector` lies in the span.
    """
    if not basis:
        return [] if not any(vector) else None
    width = len(basis[0])
    if len(vector) != width:
        raise ValueError("vector/basis width mismatch")
    k = len(basis)
    rows, pivots = rref([list(row) + [int(i == j) for j in range(k)]
                         for i, row in enumerate(basis)])
    inside = sum(1 for p in pivots if p < width)  # pivots increase
    v = reduce_against(list(vector) + [0] * k, rows[:inside], pivots[:inside])
    if any(v[:width]):
        return None
    return [-Fraction(c) for c in v[width:]]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Dense product for small constant matrices (representation checks)."""
    if not a or not b:
        return []
    inner = len(b)
    if any(len(r) != inner for r in a):
        raise ValueError("shape mismatch")
    cols = len(b[0])
    return [[sum(r[i] * b[i][j] for i in range(inner)) for j in range(cols)] for r in a]
