"""Row echelon, rank, and span tests over exact rationals."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vfcoho.linalg import (cohomology_dims, echelon_rank, in_span, mat_mul,
                           reduce_against, rref, sparse_matrix)

entries = st.integers(-4, 4).map(Fraction)
small_matrices = st.lists(
    st.lists(entries, min_size=3, max_size=3), min_size=1, max_size=4)


def test_rref_known_matrix():
    rows, pivots = rref([[Fraction(2), Fraction(4)], [Fraction(1), Fraction(3)]])
    assert pivots == [0, 1]
    assert rows == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def test_rank_deficient():
    m = [[Fraction(1), Fraction(2), Fraction(3)],
         [Fraction(2), Fraction(4), Fraction(6)],
         [Fraction(0), Fraction(1), Fraction(1)]]
    assert echelon_rank(m) == 2


def test_in_span_returns_combination_over_original_rows():
    basis = [[Fraction(1), Fraction(0), Fraction(2)],
             [Fraction(0), Fraction(3), Fraction(1)]]
    target = [Fraction(2), Fraction(3), Fraction(5)]
    coeffs = in_span(target, basis)
    assert coeffs == [Fraction(2), Fraction(1)]
    rebuilt = [sum(c * row[j] for c, row in zip(coeffs, basis))
               for j in range(3)]
    assert rebuilt == target


def test_in_span_rejects_outside_vector():
    basis = [[Fraction(1), Fraction(0)], [Fraction(2), Fraction(0)]]
    assert in_span([Fraction(0), Fraction(1)], basis) is None


def test_reduce_against_is_idempotent_on_residual():
    rows, pivots = rref([[Fraction(1), Fraction(1), Fraction(0)]])
    v = [Fraction(2), Fraction(1), Fraction(3)]
    r = reduce_against(v, rows, pivots)
    assert reduce_against(r, rows, pivots) == r
    assert r[0] == 0


@given(small_matrices)
def test_rank_is_shuffle_invariant(m):
    shuffled = list(m)
    random.Random(11).shuffle(shuffled)
    assert echelon_rank(m) == echelon_rank(shuffled)


@given(small_matrices)
def test_every_row_lies_in_its_own_span(m):
    for row in m:
        coeffs = in_span(row, m)
        assert coeffs is not None
        rebuilt = [sum(c * r[j] for c, r in zip(coeffs, m))
                   for j in range(len(row))]
        assert rebuilt == row


@given(small_matrices)
def test_rref_rank_matches_pivot_count(m):
    rows, pivots = rref(m)
    assert echelon_rank(m) == len(pivots)
    assert len(rows) == len(pivots)


def test_mat_mul_associates():
    rng = random.Random(3)

    def mk(r, c):
        return [[Fraction(rng.randint(-3, 3)) for _ in range(c)] for _ in range(r)]

    a, b, c = mk(2, 3), mk(3, 3), mk(3, 2)
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


def test_sparse_matrix_adds_repeated_pairs():
    m = sparse_matrix(["u", "v"], ["x", "y", "z"],
                      [("u", "y", 2), ("v", "x", 1), ("u", "y", Fraction(1, 2)),
                       ("v", "x", -1)])
    assert m == [[0, Fraction(5, 2), 0], [0, 0, 0]]


@pytest.mark.parametrize("entry", [("w", "x", 1), ("u", "w", 1)],
                         ids=["unknown-source", "unknown-target"])
def test_sparse_matrix_rejects_an_unknown_key(entry):
    with pytest.raises(KeyError):
        sparse_matrix(["u"], ["x"], [entry])


def test_cohomology_dims_of_the_triangle_circle():
    vertices = ["a", "b", "c"]
    edges = [("a", "b"), ("b", "c"), ("a", "c")]
    d0 = sparse_matrix(vertices, edges,
                       [(v, e, 1 if v == e[1] else -1) for e in edges for v in e])
    d1 = sparse_matrix(edges, [], [])
    assert echelon_rank(d0) == 2
    assert cohomology_dims([3, 3], [d0, d1]) == [1, 1]
    assert cohomology_dims([3, 3], [d0]) == [1, 1]
