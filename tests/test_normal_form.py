"""Arithmetic results skip validation, so they must already be in the normal
form the public constructors give: no zero coefficient, no zero matrix
entry, and every integral Fraction stored as an int.  Each result below is
rebuilt through its public constructor and must come back identical,
coefficient types included.  The public constructors themselves must keep
rejecting bad input.  Functions, forms, classes, matrices, vector fields
and gauge elements all take their sums from `rings.Terms`, which the last
tests pin."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vfcoho import (AFFINE, TORUS, FiniteLieAlgebra, FormClass, GaugeContext,
                    GaugeElement, MatrixFunction, MismatchError, PForm, RingElement,
                    VectorField, ext_d, neg_jacobian, reduce_mod_exact)
from vfcoho.cohomology import sl2_defining_rep
from vfcoho.forms import contract
from vfcoho.rings import MODELS, Terms

N = 3
# Halves and thirds multiply and add up to whole numbers often, which is
# where an integral Fraction would slip through.
scalars = st.one_of(st.integers(-3, 3),
                    st.fractions(min_value=-3, max_value=3, max_denominator=3))
models = st.sampled_from(MODELS)


def modes(model):
    low = -1 if model == TORUS else 0
    return st.tuples(*(st.integers(low, 1) for _ in range(N)))


def rings(model):
    return st.dictionaries(modes(model), scalars, max_size=3).map(
        lambda terms: RingElement(N, model, terms))


def forms(model, degree):
    subsets = st.sampled_from(list(combinations(range(1, N + 1), degree)))
    return st.dictionaries(st.tuples(modes(model), subsets), scalars, max_size=4).map(
        lambda terms: PForm(N, model, degree, terms))


def fields(model):
    return st.lists(rings(model), min_size=N, max_size=N).map(VectorField)


GAUGE = {model: GaugeContext(FiniteLieAlgebra.sl2(), sl2_defining_rep(), N, model)
         for model in MODELS}


def gauges(ctx):
    return st.lists(rings(ctx.model), min_size=ctx.lie.dim, max_size=ctx.lie.dim).map(
        lambda coeffs: GaugeElement(ctx, coeffs))


def matrices(model, degree=None):
    """Matrices of functions, or with `degree` of `degree`-forms."""
    index = st.integers(0, N - 1)
    entries = rings(model) if degree is None else forms(model, degree)
    return st.dictionaries(st.tuples(index, index), entries, max_size=4).map(
        lambda entries: MatrixFunction(N, model, entries))


def _coefficient_types(terms):
    return {key: type(c) for key, c in terms.items()}


def assert_normal(result):
    if isinstance(result, RingElement):
        again = RingElement(result.n, result.model, result.terms)
    elif isinstance(result, PForm):
        again = PForm(result.n, result.model, result.degree, result.terms)
    elif isinstance(result, FormClass):
        rep = result.rep
        assert type(rep) is PForm and rep.degree == result.degree
        again = FormClass(PForm(result.n, result.model, result.degree, result.terms))
    else:
        if isinstance(result, VectorField):
            assert set(result.terms) <= set(range(1, result.n + 1))
            again = VectorField(result.coeffs)
        elif isinstance(result, GaugeElement):
            assert set(result.terms) <= set(range(result.ctx.lie.dim))
            again = GaugeElement(result.ctx, result.coeffs)
        else:
            again = MatrixFunction(result.n, result.model, result.terms)
        assert again == result
        for f in result.terms.values():
            assert f
            assert_normal(f)
        return
    assert again == result
    assert _coefficient_types(again.terms) == _coefficient_types(result.terms)


@settings(max_examples=60)
@given(st.data())
def test_ring_results_are_in_normal_form(data):
    model = data.draw(models)
    f, g = data.draw(rings(model)), data.draw(rings(model))
    c = data.draw(scalars)
    for result in (f + g, f - g, f - f, -f, f * g, f * c, c * f, f.scale(c)):
        assert_normal(result)
    for j in range(1, N + 1):
        assert_normal(f.derive(j))


@settings(max_examples=60)
@given(st.data())
def test_form_results_are_in_normal_form(data):
    model = data.draw(models)
    p = data.draw(st.integers(0, N))
    a, b = data.draw(forms(model, p)), data.draw(forms(model, p))
    one = data.draw(forms(model, 1))
    f, x = data.draw(rings(model)), data.draw(fields(model))
    c = data.draw(scalars)
    results = [a + b, a - b, a - a, -a, a.scale(c), a.mul_ring(f), a.wedge(one),
               ext_d(a), reduce_mod_exact(a).rep, reduce_mod_exact(one.wedge(one)).rep,
               PForm.from_ring(f)]
    if p:
        results.append(contract(x, a))
    for result in results:
        assert_normal(result)


@settings(max_examples=60)
@given(st.data())
def test_matrix_results_are_in_normal_form(data):
    model = data.draw(models)
    a, b = data.draw(matrices(model)), data.draw(matrices(model))
    c, x = data.draw(scalars), data.draw(fields(model))
    for result in (a + b, a - b, a - a, a @ b, a.scale(c), neg_jacobian(x)):
        assert_normal(result)
    p = data.draw(st.integers(1, N))
    q = data.draw(st.integers(0, N - p))
    a, b = data.draw(matrices(model, p)), data.draw(matrices(model, p))
    one = data.draw(matrices(model, q))
    for result in (a + b, a - b, a - a, a @ one, a @ a):
        assert_normal(result)


@settings(max_examples=60)
@given(st.data())
def test_field_and_gauge_results_are_in_normal_form_without_revalidating(data):
    """Field and gauge results are built with their public constructors
    patched to raise: arithmetic on valid operands never validates again."""
    model = data.draw(models)
    x, y = data.draw(fields(model)), data.draw(fields(model))
    ctx = GAUGE[model]
    u, v = data.draw(gauges(ctx)), data.draw(gauges(ctx))
    c = data.draw(scalars)

    def refuse(self, *args):
        raise AssertionError("a result went through the public constructor")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(VectorField, "__init__", refuse)
        patch.setattr(GaugeElement, "__init__", refuse)
        results = [x + y, x - y, x - x, -x, x.scale(c), x.bracket(y),
                   u + v, u - v, u.scale(c), ctx.bracket(u, v), ctx.outer(x, u)]
    for result in results:
        assert_normal(result)


@settings(max_examples=60)
@given(st.data())
def test_class_results_are_in_normal_form(data):
    model = data.draw(models)
    p = data.draw(st.integers(0, N))
    a, b = data.draw(forms(model, p)), data.draw(forms(model, p))
    x, y = reduce_mod_exact(a), reduce_mod_exact(b)
    c = data.draw(scalars)
    for result in (x, x + y, x - y, x - x, -x, x.scale(c)):
        assert type(result) is FormClass and result.degree == p
        assert_normal(result)
    assert x + y == reduce_mod_exact(a + b)


@settings(max_examples=60)
@given(st.data())
def test_trace_product_is_the_trace_of_the_product(data):
    """For function entries, and for form entries with the value's degree,
    zero matrices included: the value then is the zero of that degree."""
    model = data.draw(models)
    zero = MatrixFunction(N, model, {})
    a, b = data.draw(matrices(model)), data.draw(matrices(model))
    for x, y in ((a, b), (zero, b), (a, zero)):
        result = x.trace_product(y)
        assert result == (x @ y).trace()
        assert_normal(result)
    p = data.draw(st.integers(0, N))
    q = data.draw(st.integers(0, N - p))
    a, b = data.draw(matrices(model, p)), data.draw(matrices(model, q))
    for x, y in ((a, b), (zero, b), (a, zero)):
        result = x.trace_product(y, p + q)
        assert result == (x @ y).trace(p + q)
        assert isinstance(result, PForm) and result.degree == p + q
        assert_normal(result)


@pytest.mark.parametrize("entry", [0.5, 1.0, Fraction(1, 2), True],
                         ids=["fractional-float", "integral-float", "fraction", "bool"])
@pytest.mark.parametrize("model", MODELS)
def test_public_constructors_reject_non_integer_modes(entry, model):
    with pytest.raises(TypeError):
        RingElement.monomial(2, model, (entry, 0))
    with pytest.raises(TypeError):
        PForm.monomial(2, model, (entry, 0), (1,))
    with pytest.raises(TypeError):
        PForm(2, model, 1, {((0, entry), (2,)): 1})


def test_matrix_constructor_rejects_bad_entries():
    f = RingElement.one(2, TORUS)
    with pytest.raises(MismatchError):
        MatrixFunction(2, TORUS, {(0, 2): f})
    with pytest.raises(MismatchError):
        MatrixFunction(2, TORUS, {(-1, 0): f})
    with pytest.raises(MismatchError):
        MatrixFunction(2, TORUS, {(0, 0): RingElement.one(2, AFFINE)})
    with pytest.raises(MismatchError):
        MatrixFunction(2, TORUS, {(0, 0): RingElement.one(3, TORUS)})


@settings(max_examples=30)
@given(st.data())
def test_classes_and_forms_stay_apart(data):
    model = data.draw(models)
    p = data.draw(st.integers(0, N))
    rep = reduce_mod_exact(data.draw(forms(model, p))).rep
    cls = FormClass(rep)
    assert cls.terms == rep.terms
    assert cls != rep and rep != cls
    for left, right in ((cls, rep), (rep, cls)):
        with pytest.raises(TypeError):
            left + right
        with pytest.raises(TypeError):
            left - right


@settings(max_examples=30)
@given(st.data())
def test_difference_adds_the_scaled_terms_without_negating(data):
    """`a - b` adds the negated terms of b to a: it builds no `-b`, and a
    matrix negates its entries by scaling."""
    model = data.draw(models)
    p = data.draw(st.integers(0, N))
    pairs = [(data.draw(rings(model)), data.draw(rings(model))),
             (data.draw(forms(model, p)), data.draw(forms(model, p))),
             tuple(reduce_mod_exact(data.draw(forms(model, p))) for _ in range(2)),
             (data.draw(matrices(model)), data.draw(matrices(model)))]

    def refuse(self):
        raise AssertionError("unary minus called")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Terms, "__neg__", refuse)
        for a, b in pairs:
            assert a - b == a + b.scale(-1)


@pytest.mark.parametrize("cls", [FormClass, MatrixFunction, VectorField, GaugeElement])
def test_classes_and_matrices_take_their_sums_from_terms(cls):
    assert issubclass(cls, Terms)
    own = {"__add__", "__sub__", "__neg__", "__eq__", "scale", "is_zero"} & set(vars(cls))
    assert not own
