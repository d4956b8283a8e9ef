"""Sparse echelon bases, remainders and ranks over exact rationals."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vfcoho.linalg import cohomology_dims, echelon, mat_mul, reduce, sparse_matrix

WIDTH = 4
rows = st.dictionaries(st.integers(0, WIDTH - 1),
                       st.integers(-4, 4).filter(bool).map(Fraction), max_size=WIDTH)
small_matrices = st.lists(rows, min_size=1, max_size=4)


def rank(matrix):
    return len(echelon(matrix))


def test_echelon_of_a_full_rank_matrix():
    assert echelon([{0: 2, 1: 4}, {0: 1, 1: 3}]) == [(0, {0: 1, 1: 2}), (1, {1: 1})]


def test_rank_deficient():
    m = [{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 6}, {1: 1, 2: 1}]
    assert rank(m) == 2


def test_a_vector_outside_the_span_keeps_a_remainder():
    basis = echelon([{0: 1}, {0: 2}])
    assert reduce({0: 3, 1: 1}, basis) == {1: 1}


def test_reduce_does_not_mutate_its_arguments():
    m = [{0: 1, 1: 1}]
    basis = echelon(m)
    v = {0: 2, 1: 1, 2: 3}
    reduce(v, basis)
    assert v == {0: 2, 1: 1, 2: 3}
    assert m == [{0: 1, 1: 1}]


@given(small_matrices)
def test_echelon_rows_start_at_their_pivot_with_entry_one(m):
    basis = echelon(m)
    pivots = [p for p, _ in basis]
    assert pivots == sorted(set(pivots))
    for pivot, row in basis:
        assert min(row) == pivot and row[pivot] == 1


@given(small_matrices)
def test_rank_is_shuffle_invariant(m):
    shuffled = list(m)
    random.Random(11).shuffle(shuffled)
    assert rank(m) == rank(shuffled)


@given(small_matrices)
def test_every_row_lies_in_its_own_span(m):
    basis = echelon(m)
    for row in m:
        assert reduce(row, basis) == {}


@given(small_matrices, rows)
def test_reduce_is_idempotent_and_zero_at_every_pivot(m, v):
    basis = echelon(m)
    rest = reduce(v, basis)
    assert reduce(rest, basis) == rest
    assert all(pivot not in rest for pivot, _ in basis)


@given(small_matrices, rows, st.randoms(use_true_random=False))
def test_the_remainder_depends_only_on_the_span(m, v, rng):
    """Shuffling the rows, rescaling them and adding one row to another
    keep the span, so they keep the remainder of every vector."""
    shuffled = list(m)
    rng.shuffle(shuffled)
    scales = [rng.choice((-3, 2, Fraction(1, 2))) for _ in m]
    changed = [{col: c * x for col, x in row.items()} for c, row in zip(scales, m)]
    if len(changed) > 1:
        i, j = rng.sample(range(len(changed)), 2)
        total = dict(changed[i])
        for col, x in changed[j].items():
            total[col] = total.get(col, 0) + x
        changed[i] = {col: x for col, x in total.items() if x}
    expected = reduce(v, echelon(m))
    assert reduce(v, echelon(shuffled)) == expected
    assert reduce(v, echelon(changed)) == expected


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
    assert m == [{1: Fraction(5, 2)}, {}]


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
    assert rank(d0) == 2
    assert cohomology_dims([3, 3], [d0, d1]) == [1, 1]
    assert cohomology_dims([3, 3], [d0]) == [1, 1]
