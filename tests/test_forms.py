"""Exterior algebra on the frame coframe and the quotient by exact forms."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vfcoho import (AFFINE, TORUS, MismatchError, PForm, RingElement,
                    VectorField, ext_d, lie_derive, reduce_mod_exact)
from vfcoho import forms, suites
from vfcoho.forms import contract, de_rham_dims, is_exact

scalars = st.fractions(min_value=-3, max_value=3, max_denominator=3)
torus_modes = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


def forms_of_degree(degree, n=2, model=TORUS):
    subsets = list(combinations(range(1, n + 1), degree))
    if model == AFFINE:
        modes = st.tuples(*(st.integers(0, 2) for _ in range(n)))
    else:
        modes = st.tuples(*(st.integers(-2, 2) for _ in range(n)))
    term = st.tuples(modes, st.sampled_from(subsets), scalars)

    def build(terms):
        acc = PForm.zero(n, model, degree)
        for mode, subset, c in terms:
            acc = acc + PForm.monomial(n, model, mode, subset, c)
        return acc

    return st.lists(term, max_size=3).map(build)


def fields(n=2, model=TORUS):
    if model == AFFINE:
        modes = st.tuples(*(st.integers(0, 2) for _ in range(n)))
    else:
        modes = st.tuples(*(st.integers(-2, 2) for _ in range(n)))
    term = st.tuples(modes, st.integers(1, n), scalars)

    def build(terms):
        acc = VectorField.zero(n, model)
        for mode, j, c in terms:
            acc = acc + VectorField.basis(n, model, mode, j).scale(c)
        return acc

    return st.lists(term, max_size=2).map(build)


def test_wedge_anticommutes_on_coframe():
    k1 = PForm.kappa(2, TORUS, 1)
    k2 = PForm.kappa(2, TORUS, 2)
    assert k1.wedge(k2) == -k2.wedge(k1)
    assert k1.wedge(k1).is_zero()


def test_torus_d_of_monomial():
    # d(t^(1,1)) = t^(1,1) k1 + t^(1,1) k2, so d(t^(1,1) k1) kills the k1 part
    w = PForm.monomial(2, TORUS, (1, 1), (1,))
    assert ext_d(w) == PForm.monomial(2, TORUS, (1, 1), (1, 2), -1)


def test_affine_d_power_rule():
    w = PForm.from_ring(RingElement.monomial(2, AFFINE, (2, 0)))
    assert ext_d(w) == PForm.monomial(2, AFFINE, (1, 0), (1,), 2)


def test_contraction_against_coframe():
    w = PForm.kappa(3, TORUS, 1).wedge(PForm.kappa(3, TORUS, 2))
    assert contract(VectorField.basis(3, TORUS, (0, 0, 0), 3), w).is_zero()
    x = VectorField.basis(2, TORUS, (1, -1), 2)
    w2 = PForm.kappa(2, TORUS, 1).wedge(PForm.kappa(2, TORUS, 2))
    assert contract(x, w2) == PForm.monomial(2, TORUS, (1, -1), (1,), -1)


def test_degree_mismatch_raises():
    with pytest.raises(MismatchError):
        PForm.kappa(2, TORUS, 1) + PForm.kappa(2, TORUS, 1).wedge(
            PForm.kappa(2, TORUS, 2))


def test_a_zero_form_does_not_add_to_another_degree():
    with pytest.raises(MismatchError):
        PForm.zero(2, TORUS, 1) + PForm.kappa(2, TORUS, 1).wedge(PForm.kappa(2, TORUS, 2))


@pytest.mark.parametrize("other", [PForm.kappa(2, AFFINE, 1), PForm.kappa(3, TORUS, 1)],
                         ids=["model", "dimension"])
def test_form_sum_checks_model_and_dimension(other):
    with pytest.raises(MismatchError):
        PForm.kappa(2, TORUS, 1) + other
    with pytest.raises(MismatchError):
        PForm.kappa(2, TORUS, 1) - other


def test_functions_and_zero_forms_stay_apart():
    f = RingElement.monomial(2, TORUS, (1, -1), 3)
    assert f != PForm.from_ring(f)
    assert not f == PForm.from_ring(f)
    with pytest.raises(TypeError):
        f + PForm.from_ring(f)
    with pytest.raises(TypeError):
        PForm.from_ring(f) - f


@given(forms_of_degree(0), forms_of_degree(1))
def test_d_squared_is_zero(f, w):
    assert ext_d(ext_d(f)).is_zero()
    assert ext_d(ext_d(w)).is_zero()


@given(forms_of_degree(0, model=AFFINE), forms_of_degree(1, model=AFFINE))
def test_d_squared_is_zero_affine(f, w):
    assert ext_d(ext_d(f)).is_zero()
    assert ext_d(ext_d(w)).is_zero()


@given(forms_of_degree(1), forms_of_degree(1))
def test_graded_leibniz(a, b):
    lhs = ext_d(a.wedge(b))
    rhs = ext_d(a).wedge(b) - a.wedge(ext_d(b))
    assert lhs == rhs


@given(fields(), forms_of_degree(1), forms_of_degree(1))
def test_contraction_is_an_antiderivation(x, a, b):
    lhs = contract(x, a.wedge(b))
    rhs = contract(x, a).wedge(b) - a.wedge(contract(x, b))
    assert lhs == rhs


@given(st.data(), st.sampled_from([TORUS, AFFINE]), st.integers(0, 1))
@settings(max_examples=60)
def test_lie_derivative_commutes_with_d(data, model, degree):
    """L_X d = d L_X in both models, on forms of every degree below n = 2,
    so L_X maps exact forms to exact forms (`jacobi_residual` relies on it)."""
    x = data.draw(fields(model=model))
    w = data.draw(forms_of_degree(degree, model=model))
    assert lie_derive(x, ext_d(w)) == ext_d(lie_derive(x, w))


@given(st.data(), st.sampled_from([TORUS, AFFINE]))
@settings(max_examples=60)
def test_lie_derivative_of_a_one_form_depends_only_on_its_class(data, model):
    """[L_X w] = [L_X rep(w)]: the class of L_X w does not change when w is
    replaced by its reduced representative, so `jacobi_residual` may act on
    unreduced central forms and reduce once."""
    x = data.draw(fields(model=model))
    w = (data.draw(forms_of_degree(1, model=model))
         + ext_d(data.draw(forms_of_degree(0, model=model))))
    assert (reduce_mod_exact(lie_derive(x, w))
            == reduce_mod_exact(lie_derive(x, reduce_mod_exact(w).rep)))


@given(fields(), fields(), forms_of_degree(1))
@settings(max_examples=30)
def test_lie_derivative_of_bracket(x, y, w):
    lhs = lie_derive(x.bracket(y), w)
    rhs = lie_derive(x, lie_derive(y, w)) - lie_derive(y, lie_derive(x, w))
    assert lhs == rhs


# -- quotient modulo exact forms -------------------------------------------


def test_reduce_golden(golden):
    cls = reduce_mod_exact(PForm.monomial(2, TORUS, (1, 1), (1,)))
    assert cls.text() == golden["reduce_t11_k1"]


def test_coframe_classes_survive_reduction():
    for i in (1, 2):
        cls = reduce_mod_exact(PForm.kappa(2, TORUS, i))
        assert cls.rep == PForm.kappa(2, TORUS, i)


@given(forms_of_degree(1), forms_of_degree(0))
@settings(max_examples=60)
def test_reduction_ignores_exact_shifts(w, f):
    assert reduce_mod_exact(w + ext_d(f)) == reduce_mod_exact(w)


@given(forms_of_degree(2), forms_of_degree(1))
@settings(max_examples=40)
def test_reduction_ignores_exact_shifts_degree_two(w, eta):
    assert reduce_mod_exact(w + ext_d(eta)) == reduce_mod_exact(w)


@given(forms_of_degree(1))
def test_reduction_is_idempotent(w):
    cls = reduce_mod_exact(w)
    assert reduce_mod_exact(cls.rep) == cls


@given(forms_of_degree(1), forms_of_degree(0))
@settings(max_examples=60)
def test_zero_class_agrees_with_span_membership(w, f):
    shifted = w + ext_d(f)
    assert reduce_mod_exact(shifted).is_zero() == is_exact(shifted)


@given(forms_of_degree(1, model=AFFINE), forms_of_degree(0, model=AFFINE))
@settings(max_examples=40)
def test_affine_quotient_matches_span_membership(w, f):
    shifted = w + ext_d(f)
    assert reduce_mod_exact(shifted).is_zero() == is_exact(shifted)
    assert reduce_mod_exact(w + ext_d(f)) == reduce_mod_exact(w)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_torus_representatives_are_pivot_free_and_differ_by_exact(n):
    """Every term of a torus representative with a nonzero mode is free of
    that mode's pivot, the first index with m_p != 0, and w - rep is exact."""
    rng = random.Random(10 + n)
    for degree in range(n + 1):
        subsets = list(combinations(range(1, n + 1), degree))
        for _ in range(8):
            w = PForm.zero(n, TORUS, degree)
            for _ in range(4):
                mode = tuple(rng.randint(-2, 2) for _ in range(n))
                w = w + PForm.monomial(n, TORUS, mode, rng.choice(subsets),
                                       Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            rep = reduce_mod_exact(w).rep
            for mode, subset in rep.terms:
                if any(mode):
                    pivot = next(j for j, e in enumerate(mode, start=1) if e)
                    assert pivot not in subset
            assert is_exact(w - rep)


@pytest.mark.parametrize("n, mode, subset, text", [
    (2, (0, 1), (1,), "[-1 * x^(1,0) k2]"),
    (3, (1, 1, 0), (1, 2), "[0]"),
    (3, (0, 2, 1), (1,), "[-2 * x^(1,1,1) k2 + -1 * x^(1,2,0) k3]"),
])
def test_affine_representatives_are_pinned(n, mode, subset, text):
    """The affine representative is the one element of the class that is
    zero at the pivot columns of the image of d; these values must not
    depend on how the echelon basis is computed."""
    assert reduce_mod_exact(PForm.monomial(n, AFFINE, mode, subset)).text() == text


def test_zero_forms_reduce_to_themselves():
    f = PForm.from_ring(RingElement.monomial(2, TORUS, (1, 2), 5))
    assert reduce_mod_exact(f).rep == f


def test_de_rham_dimension_tables():
    assert de_rham_dims(TORUS, 1) == [1, 1]
    assert de_rham_dims(TORUS, 2) == [1, 2, 1]
    assert de_rham_dims(AFFINE, 2) == [1, 0, 0]


def _ext_d_without_the_last_direction(w):
    """ext_d with the j = n term of d(f kappa_I) = sum_j (E_j f) kappa_j ^ kappa_I
    dropped: a single-point defect in the differential."""
    n, model = w.n, w.model
    last = PForm.zero(n, model, w.degree + 1)
    for (mode, subset), c in w.terms.items():
        f = PForm.from_ring(RingElement.monomial(n, model, mode, c).derive(n))
        last = last + PForm.kappa(n, model, n).wedge(
            f.wedge(PForm.monomial(n, model, (0,) * n, subset)))
    return ext_d(w) - last


@pytest.mark.parametrize("model", [TORUS, AFFINE])
def test_de_rham_check_fails_on_a_defective_differential(model, monkeypatch):
    name = f"de-rham:{model}"
    passing = suites._de_rham_check(name, model, 2)
    assert passing.status == "pass"
    monkeypatch.setattr(forms, "ext_d", _ext_d_without_the_last_direction)
    with pytest.raises(AssertionError):
        de_rham_dims(model, 2)
    report = suites._de_rham_check(name, model, 2)
    assert report.status == "fail"
    assert report.witness["reason"]
    assert report.params == passing.params
