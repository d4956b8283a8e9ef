"""Chevalley-Eilenberg machinery: finite Betti numbers, cocycle checking,
the gauge model, and pullbacks along the crossed homomorphism."""

from itertools import combinations
from math import comb

import pytest

from vfcoho import (AFFINE, TORUS, Cochain, ExtensionSetup, FiniteLieAlgebra,
                    FormClass, GaugeContext, GaugeElement, MismatchError, PForm,
                    RingElement, RunConfig, VectorField, betti_numbers,
                    divergence, is_cocycle, neg_jacobian)
from vfcoho import suites
from vfcoho.cohomology import (ce_apply, ce_matrix, check_maurer_cartan,
                               gl_defining_rep, is_equivariant, matrix_to_gauge,
                               sl2_defining_rep, validate_rep)
from vfcoho.extensions import (antisymmetry_check, jacobi_check,
                               planted_noncocycle_twist, trace_form)
from vfcoho.fields import crossed_hom_residual
from vfcoho.linalg import mat_mul
from vfcoho.sampling import basis_fields, run_check
from vfcoho.suites import check_identity


def test_abelian_betti_is_binomial():
    for k in (1, 2, 3):
        lie = FiniteLieAlgebra.abelian(k)
        assert betti_numbers(lie) == [comb(k, p) for p in range(k + 1)]


def test_sl2_betti():
    assert betti_numbers(FiniteLieAlgebra.sl2()) == [1, 0, 0, 1]


def test_gl_betti_matches_exterior_generators(golden):
    for n in (1, 2):
        assert betti_numbers(FiniteLieAlgebra.gl(n)) == golden["gl_betti"][str(n)]


def _dense(lie, p):
    """ce_matrix(lie, p) with its dict rows written out as lists."""
    width = comb(lie.dim, p + 1)
    return [[row.get(j, 0) for j in range(width)] for row in ce_matrix(lie, p)]


def test_ce_differential_squares_to_zero():
    for lie in (FiniteLieAlgebra.sl2(), FiniteLieAlgebra.gl(2)):
        for p in range(lie.dim - 1):
            square = mat_mul(_dense(lie, p), _dense(lie, p + 1))
            assert all(all(v == 0 for v in row) for row in square)


def _dense_ce_matrix(lie, p):
    """d: C^p -> C^(p+1) evaluated entry by entry: the dual basis cochain
    psi_T of row T applied to the bracket terms of column S."""
    def dual(T, first, rest):
        if first in rest or tuple(sorted((first,) + rest)) != T:
            return 0
        return (-1) ** sum(1 for r in rest if r < first)

    rows = []
    for T in combinations(range(lie.dim), p):
        row = []
        for S in combinations(range(lie.dim), p + 1):
            acc = 0
            for i, j in combinations(range(p + 1), 2):
                rest = tuple(S[k] for k in range(p + 1) if k not in (i, j))
                for k, coeff in enumerate(lie.c[S[i]][S[j]]):
                    acc += (-1) ** (i + j) * coeff * dual(T, k, rest)
            row.append(acc)
        rows.append(row)
    return rows


@pytest.mark.parametrize("lie", [FiniteLieAlgebra.sl2(), FiniteLieAlgebra.gl(2)],
                         ids=["sl2", "gl2"])
def test_ce_matrix_matches_a_dense_evaluation(lie):
    for p in range(lie.dim + 1):
        assert _dense(lie, p) == _dense_ce_matrix(lie, p)
    assert any(any(row) for row in _dense(lie, 1))


def test_structure_constants_validated():
    with pytest.raises(MismatchError):
        # [a,b] = a is not antisymmetrizable into a Lie bracket
        FiniteLieAlgebra([[[0, 0], [1, 0]], [[1, 0], [0, 0]]], names=["a", "b"])


def test_rep_validation_catches_wrong_commutators():
    lie = FiniteLieAlgebra.sl2()
    e, h, f = sl2_defining_rep()
    validate_rep(lie, (e, h, f))
    with pytest.raises(MismatchError):
        validate_rep(lie, (h, e, f))


def test_is_cocycle_flags_a_non_cocycle_with_witness():
    # contraction against t^(0,1) k1, a non-closed 1-form, is not a cocycle
    weight = RingElement.monomial(2, TORUS, (0, 1))

    def ev(x):
        return weight * x.coeffs[0]

    bad = Cochain("weighted-component", 1, ev, "fields", "ring", 2, TORUS)
    report = is_cocycle(bad, radius=1, samples=10, max_tuples=200)
    assert not report.passed() and report.tuples >= 1
    assert set(report.witness) == {"args", "residual"}


def _non_equivariant_gauge_cochain():
    # u |-> t^(0,1) u_e: E_2 differentiates the weight, so X.phi != phi(X.u)
    ctx = GaugeContext(FiniteLieAlgebra.sl2(), sl2_defining_rep(), 2, TORUS)
    weight = RingElement.monomial(2, TORUS, (0, 1))
    bad = Cochain("weighted-e", 1, lambda u: weight * u.coeffs[0], "gauge",
                  "ring", 2, TORUS, ctx=ctx)
    return is_equivariant(bad, radius=1, samples=5, max_tuples=20)


def _planted_setup():
    ctx = GaugeContext(FiniteLieAlgebra.gl(1), gl_defining_rep(1), 2, TORUS)
    return ExtensionSetup(ctx, trace_form(ctx.lie, gl_defining_rep(1)),
                          planted_noncocycle_twist(2, TORUS))


def _divergence_as_identity():
    return check_identity("divergence-vanishes", basis_fields(TORUS, 2, 1), 1,
                          divergence, RunConfig(dim=2, radius=1, samples=5))


def _sign_flipped_crossed_hom():
    def flipped(x):
        return neg_jacobian(x).scale(-1)

    x = VectorField.basis(2, AFFINE, (0, 1), 1)
    y = VectorField.basis(2, AFFINE, (1, 0), 2)
    return run_check("flipped-crossed-hom", {}, [(x, y)], True,
                     lambda a, b: crossed_hom_residual(flipped, a, b))


def _non_flat_coframe():
    # d(t^(0,1) k1) = t^(0,1) k2 ^ k1 is not zero
    coframe = [PForm.monomial(2, TORUS, (0, 1), (1,)), PForm.kappa(2, TORUS, 2)]
    return check_maurer_cartan(coframe)


def _unreduced_quotient():
    # without the reduction, w + d eta and w give different classes
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(suites, "reduce_mod_exact", FormClass)
        return suites._representative_independence(
            RunConfig(dim=2, radius=1, samples=5), TORUS)


@pytest.mark.parametrize("make_report", [
    _non_equivariant_gauge_cochain,
    lambda: jacobi_check(_planted_setup(), radius=1, samples=20, max_tuples=50),
    lambda: antisymmetry_check(_planted_setup(), radius=1, samples=20,
                               max_tuples=50),
    _divergence_as_identity,
    _sign_flipped_crossed_hom,
    _non_flat_coframe,
    _unreduced_quotient,
], ids=["is_equivariant", "jacobi_check", "antisymmetry_check",
        "check_identity", "run_check-crossed-hom", "check_maurer_cartan",
        "representative_independence"])
def test_every_check_fails_on_a_planted_defect_with_one_witness_shape(make_report):
    report = make_report()
    assert not report.passed() and report.tuples >= 1
    assert set(report.witness) == {"args", "residual"}
    assert report.witness["residual"] not in ("0", "[0]")


def test_a_check_that_saw_no_tuple_fails():
    report = run_check("empty", {}, [], True, lambda *args: 1)
    assert not report.passed() and report.tuples == 0
    assert report.witness == {"reason": "no tuples checked"}
    # the search form fails when no case gives a nonzero value, and passes
    # at the first case that does
    report = run_check("search", {}, [(1,), (2,)], True, lambda a: 0, str,
                       search="always zero")
    assert not report.passed() and report.tuples == 2
    assert report.witness == {"reason": "always zero"}
    report = run_check("search", {}, [(1,), (2,), (3,)], True,
                       lambda a: a - 1, str, search="always zero")
    assert report.passed() and report.tuples == 2 and report.witness is None
    assert report.data == {"args": ["2"], "value": "1"}


def test_contraction_against_closed_coframe_is_a_cocycle():
    def ev(x):
        return x.coeffs[0]

    psi = Cochain("k1-component", 1, ev, "fields", "ring", 2, TORUS)
    assert is_cocycle(psi, radius=1, samples=10, max_tuples=200).passed()


def test_cochain_differential_of_divergence_vanishes_pointwise():
    from vfcoho import divergence_cochain

    x = VectorField.basis(2, TORUS, (1, 0), 1)
    y = VectorField.basis(2, TORUS, (-1, 1), 2)
    assert ce_apply(divergence_cochain(2, TORUS), (x, y)).is_zero()


def test_equivariance_of_the_gauge_trace():
    from vfcoho import gauge_form_trace

    ctx = GaugeContext(FiniteLieAlgebra.sl2(), sl2_defining_rep(), 2, TORUS)
    report = is_equivariant(gauge_form_trace(1, ctx), radius=1,
                            samples=10, max_tuples=120)
    assert report.passed()


def test_gauge_bracket_is_pointwise():
    ctx = GaugeContext(FiniteLieAlgebra.sl2(), sl2_defining_rep(), 2, TORUS)
    a = ctx.basis_element((1, 0), 0)
    b = ctx.basis_element((0, 1), 2)
    c = ctx.bracket(a, b)
    # [e, f] = h with matching mode product
    assert not c.is_zero()
    assert c.text().count("t^(1,1)") == 1


def test_gauge_bracket_antisymmetry():
    ctx = GaugeContext(FiniteLieAlgebra.gl(2), gl_defining_rep(2), 2, TORUS)
    import random

    rng = random.Random(5)
    for _ in range(25):
        a = ctx.random_element(rng, 1)
        b = ctx.random_element(rng, 1)
        assert (ctx.bracket(a, b) + ctx.bracket(b, a)).is_zero()


def test_gauge_element_validates_its_coefficients():
    ctx = GaugeContext(FiniteLieAlgebra.sl2(), sl2_defining_rep(), 2, TORUS)
    f = RingElement.monomial(2, TORUS, (1, 0))
    g = RingElement.monomial(3, TORUS, (1, 0, 0))
    for coeffs in [(f,), (g, g, g), (PForm.from_ring(f),) * 3]:
        with pytest.raises(MismatchError):
            GaugeElement(ctx, coeffs)
    u = GaugeElement(ctx, [f, f, f])
    assert u + ctx.zero() == u
    assert not ctx.bracket(ctx.basis_element((0, 1), 0), u).is_zero()


def test_matrix_to_gauge_embeds_the_jacobian():
    ctx = GaugeContext(FiniteLieAlgebra.gl(2), gl_defining_rep(2), 2, TORUS)
    x = VectorField.basis(2, TORUS, (1, 1), 1)
    g = matrix_to_gauge(ctx, neg_jacobian(x))
    assert not g.is_zero()


@pytest.mark.parametrize("model", [TORUS, AFFINE])
def test_matrix_to_gauge_equals_the_public_construction(model):
    """The trusted build from the matrix's terms equals the public
    constructor over the dense coefficient list, on seeded Jacobians."""
    import random

    from vfcoho.sampling import random_field

    ctx = GaugeContext(FiniteLieAlgebra.gl(2), gl_defining_rep(2), 2, model)
    rng = random.Random(67)
    nonzero = 0
    for _ in range(20):
        m = neg_jacobian(random_field(rng, model, 2, 2, terms=3))
        coeffs = [m.entry(i, j) for i in range(2) for j in range(2)]
        g = matrix_to_gauge(ctx, m)
        assert g == GaugeElement(ctx, coeffs) and g.ctx is ctx
        assert all(g.terms.values())
        nonzero += not g.is_zero()
    assert nonzero
    other = GaugeContext(FiniteLieAlgebra.gl(2), gl_defining_rep(2), 2,
                         AFFINE if model == TORUS else TORUS)
    with pytest.raises(MismatchError):
        matrix_to_gauge(other, m)


def test_gauge_elements_of_two_contexts_neither_add_nor_compare_equal():
    sl2 = GaugeContext(FiniteLieAlgebra.sl2(), sl2_defining_rep(), 2, TORUS)
    gl2 = GaugeContext(FiniteLieAlgebra.gl(2), gl_defining_rep(2), 2, TORUS)
    u, v = sl2.basis_element((1, 0), 2), gl2.basis_element((1, 0), 3)
    for left, right in ((u, v), (v, u)):
        with pytest.raises(MismatchError):
            left + right
        with pytest.raises(MismatchError):
            left - right
    a, b = sl2.basis_element((1, 0), 0), gl2.basis_element((1, 0), 0)
    assert a.terms == b.terms and a != b and b != a
    assert a == sl2.basis_element((1, 0), 0)
