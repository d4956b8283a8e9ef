"""Vector fields, frame Jacobians, and the crossed homomorphism."""

from hypothesis import given, settings
from hypothesis import strategies as st

from vfcoho import AFFINE, TORUS, PForm, RingElement, VectorField, neg_jacobian
from vfcoho.fields import (check_maurer_cartan, crossed_hom_residual,
                           divergence, field_action)

scalars = st.fractions(min_value=-3, max_value=3, max_denominator=3)


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


def test_torus_bracket_golden():
    # [t^a E_i, t^b E_j] = t^(a+b) (b_i E_j - a_j E_i)
    x = VectorField.basis(2, TORUS, (1, 0), 1)
    y = VectorField.basis(2, TORUS, (1, 1), 2)
    assert x.bracket(y) == VectorField.basis(2, TORUS, (2, 1), 2)
    assert y.bracket(x) == VectorField.basis(2, TORUS, (2, 1), 2).scale(-1)


def test_affine_bracket_golden():
    x = VectorField.basis(1, AFFINE, (1,), 1)
    y = VectorField.basis(1, AFFINE, (2,), 1)
    assert x.bracket(y) == VectorField.basis(1, AFFINE, (2,), 1)


@given(fields(), fields())
def test_bracket_antisymmetry(x, y):
    assert x.bracket(y) == y.bracket(x).scale(-1)


@given(fields(), fields(), fields())
@settings(max_examples=40)
def test_bracket_jacobi(x, y, z):
    total = (x.bracket(y.bracket(z)) + y.bracket(z.bracket(x))
             + z.bracket(x.bracket(y)))
    assert total.is_zero()


@given(fields(), fields())
@settings(max_examples=40)
def test_bracket_acts_as_commutator_on_functions(x, y):
    f = RingElement.monomial(2, TORUS, (1, -1))
    lhs = field_action(x.bracket(y), f)
    rhs = field_action(x, field_action(y, f)) - field_action(y, field_action(x, f))
    assert lhs == rhs


def test_divergence_of_frame_multiples():
    # on the torus the frame is divergence free and div(t^m E_j) = m_j t^m
    assert divergence(VectorField.basis(2, TORUS, (0, 0), 1)).is_zero()
    assert divergence(VectorField.basis(2, TORUS, (2, 1), 2)) == \
        RingElement.monomial(2, TORUS, (2, 1))


@given(fields())
def test_divergence_is_minus_jacobian_trace(x):
    assert divergence(x) == -neg_jacobian(x).trace()


@given(fields(), fields())
@settings(max_examples=60)
def test_crossed_hom_identity_torus(x, y):
    assert crossed_hom_residual(neg_jacobian, x, y).is_zero()


@given(fields(model=AFFINE), fields(model=AFFINE))
@settings(max_examples=60)
def test_crossed_hom_identity_affine(x, y):
    assert crossed_hom_residual(neg_jacobian, x, y).is_zero()


def test_sign_flip_breaks_the_identity():
    """+J satisfies the identity iff the Jacobians commute, so pairs with
    noncommuting Jacobians separate the two sign conventions."""

    def flipped(x):
        return neg_jacobian(x).scale(-1)

    x = VectorField.basis(2, AFFINE, (0, 1), 1)
    y = VectorField.basis(2, AFFINE, (1, 0), 2)
    assert not crossed_hom_residual(flipped, x, y).is_zero()
    assert crossed_hom_residual(neg_jacobian, x, y).is_zero()

    a = VectorField.basis(2, TORUS, (1, 0), 1)
    b = VectorField.basis(2, TORUS, (1, 0), 2)
    assert not crossed_hom_residual(flipped, a, b).is_zero()


def test_maurer_cartan_for_flat_coframes():
    for model in (TORUS, AFFINE):
        coframe = [PForm.kappa(2, model, i) for i in (1, 2)]
        assert check_maurer_cartan(coframe).passed()


def test_maurer_cartan_rejects_non_flat_coframe():
    coframe = [PForm.monomial(2, TORUS, (1, 1), (1,)), PForm.kappa(2, TORUS, 2)]
    assert not check_maurer_cartan(coframe).passed()
