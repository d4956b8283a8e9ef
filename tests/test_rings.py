"""Exact coefficient arithmetic in both coordinate models."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vfcoho import AFFINE, TORUS, MismatchError, RingElement
from vfcoho.rings import as_scalar

scalars = st.fractions(min_value=-3, max_value=3, max_denominator=4)
torus_modes = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
affine_modes = st.tuples(st.integers(0, 3), st.integers(0, 3))


def torus_elements():
    return st.dictionaries(torus_modes, scalars, max_size=3).map(
        lambda d: RingElement(2, TORUS, d))


def affine_elements():
    return st.dictionaries(affine_modes, scalars, max_size=3).map(
        lambda d: RingElement(2, AFFINE, d))


def test_constructors_drop_zero_coefficients():
    assert RingElement(2, TORUS, {(1, 0): 0}).is_zero()
    assert RingElement.zero(3, AFFINE).is_zero()
    assert not RingElement.one(1, TORUS).is_zero()


def test_affine_rejects_negative_exponents():
    with pytest.raises(MismatchError):
        RingElement.monomial(2, AFFINE, (-1, 0))


def test_mode_length_checked():
    with pytest.raises(MismatchError):
        RingElement.monomial(2, TORUS, (1, 0, 0))


def test_as_scalar_rejects_inexact():
    assert as_scalar(Fraction(4, 2)) == 2
    with pytest.raises(TypeError):
        as_scalar(0.5)
    with pytest.raises(TypeError):
        as_scalar(True)


def test_torus_derivation_multiplies_by_exponent():
    # E_j acts on t^m as multiplication by m_j, including negative modes
    f = RingElement.monomial(2, TORUS, (3, -2))
    assert f.derive(1) == RingElement.monomial(2, TORUS, (3, -2), 3)
    assert f.derive(2) == RingElement.monomial(2, TORUS, (3, -2), -2)


def test_affine_derivation_power_rule():
    f = RingElement.monomial(2, AFFINE, (2, 1))
    assert f.derive(1) == RingElement.monomial(2, AFFINE, (1, 1), 2)
    assert f.derive(2) == RingElement.monomial(2, AFFINE, (2, 0))
    assert RingElement.monomial(2, AFFINE, (0, 1)).derive(1).is_zero()


def test_model_mismatch_raises():
    with pytest.raises(MismatchError):
        RingElement.one(2, TORUS) * RingElement.one(2, AFFINE)


def test_laurent_product_collects_terms():
    f = RingElement.monomial(2, TORUS, (1, 0)) + RingElement.monomial(2, TORUS, (-1, 0))
    assert f * f == (RingElement.monomial(2, TORUS, (2, 0))
                     + RingElement.constant(2, TORUS, 2)
                     + RingElement.monomial(2, TORUS, (-2, 0)))


@given(torus_elements(), torus_elements())
def test_product_commutes(f, g):
    assert f * g == g * f


@given(torus_elements(), torus_elements(), torus_elements())
def test_product_associates_and_distributes(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(st.integers(1, 2), torus_elements(), torus_elements())
def test_torus_derive_is_a_derivation(j, f, g):
    assert (f * g).derive(j) == f.derive(j) * g + f * g.derive(j)


@given(st.integers(1, 2), affine_elements(), affine_elements())
def test_affine_derive_is_a_derivation(j, f, g):
    assert (f * g).derive(j) == f.derive(j) * g + f * g.derive(j)


def test_text_is_stable():
    assert RingElement.constant(2, TORUS, Fraction(3, 2)).text() == "3/2 * t^(0,0)"
    assert RingElement.monomial(2, AFFINE, (2, 1), -2).text() == "-2 * x^(2,1)"
    assert RingElement.zero(2, TORUS).text() == "0"
