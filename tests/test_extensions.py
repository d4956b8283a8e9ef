"""Centrally extended gauge algebras: invariant forms, twists, Jacobi."""

import random
from fractions import Fraction

import pytest

from vfcoho import (AFFINE, TORUS, Cochain, ExtensionElement, ExtensionSetup,
                    FiniteLieAlgebra, GaugeContext, MismatchError, VectorField,
                    killing_form, reduce_mod_exact, virasoro_twist)
from vfcoho.cocycles import reduced_trace_cocycle, wedge_pair_cocycle
from vfcoho.cohomology import gl_defining_rep, sl2_defining_rep
from vfcoho.extensions import (_random_extension_element, antisymmetry_check,
                               extension_bracket, jacobi_check, jacobi_residual,
                               planted_noncocycle_twist, trace_form)
from vfcoho.forms import PForm, lie_derive


def sl2_setup(n=1, tau=None):
    ctx = GaugeContext(FiniteLieAlgebra.sl2(), sl2_defining_rep(), n, TORUS)
    return ExtensionSetup(ctx, killing_form(ctx.lie), tau)


def test_killing_form_on_sl2(golden):
    K = killing_form(FiniteLieAlgebra.sl2())
    assert [[str(v) for v in row] for row in K.matrix] == golden["killing_sl2"]


def test_trace_form_is_proportional_to_killing_on_sl2():
    K = killing_form(FiniteLieAlgebra.sl2())
    T = trace_form(FiniteLieAlgebra.sl2(), sl2_defining_rep())
    # for sl2 the defining-representation trace form is Killing / 4
    assert all(K.matrix[a][b] == 4 * T.matrix[a][b]
               for a in range(3) for b in range(3))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_killing_form_of_gl_n(n):
    """B(x, y) = 2n tr(xy) - 2 tr x tr y on the E_ab basis of gl_n."""
    K = killing_form(FiniteLieAlgebra.gl(n))
    pairs = [(a, b) for a in range(n) for b in range(n)]
    assert [list(row) for row in K.matrix] == [
        [2 * n * (b == c and a == d) - 2 * (a == b) * (c == d) for c, d in pairs]
        for a, b in pairs]


def test_invariant_form_rejects_non_invariant_matrix():
    from vfcoho import InvariantForm

    with pytest.raises(MismatchError):
        InvariantForm(FiniteLieAlgebra.sl2(),
                      [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_pairing_is_antisymmetric_after_reduction():
    setup = sl2_setup(n=2)
    rng = random.Random(13)
    for _ in range(15):
        g1 = setup.ctx.random_element(rng, 1)
        g2 = setup.ctx.random_element(rng, 1)
        assert setup.pairing(g1, g2) == -setup.pairing(g2, g1)


def test_untwisted_jacobi_and_antisymmetry():
    setup = sl2_setup(n=1)
    assert jacobi_check(setup, radius=1, samples=40, max_tuples=400).passed()
    assert antisymmetry_check(setup, radius=1, samples=40,
                              max_tuples=400).passed()


def test_bracket_restricted_to_fields_is_the_field_bracket():
    setup = sl2_setup(n=1)
    x = VectorField.basis(1, TORUS, (1,), 1)
    y = VectorField.basis(1, TORUS, (-1,), 1)
    a = ExtensionElement.make(setup, field=x)
    b = ExtensionElement.make(setup, field=y)
    out = extension_bracket(a, b)
    assert out.field == x.bracket(y)
    assert out.gauge.is_zero()


def test_virasoro_value_golden(golden):
    vir = virasoro_twist()
    x = VectorField.basis(1, TORUS, (1,), 1)
    y = VectorField.basis(1, TORUS, (-1,), 1)
    assert vir.evaluate(x, y).text() == golden["virasoro_t1_tm1"]
    # off-diagonal modes pair to zero
    assert vir.evaluate(x, x).is_zero()


def test_virasoro_twist_satisfies_jacobi():
    setup = sl2_setup(n=1, tau=virasoro_twist())
    assert jacobi_check(setup, radius=2, samples=60, max_tuples=600).passed()


def test_virasoro_coboundary_shift_is_still_a_twist():
    shifted = virasoro_twist(shift=Fraction(5, 2))
    setup = sl2_setup(n=1, tau=shifted)
    assert jacobi_check(setup, radius=2, samples=40, max_tuples=400).passed()


def test_virasoro_twist_grows_cubically():
    vir = virasoro_twist()
    kappa_class = reduce_mod_exact(PForm.kappa(1, TORUS, 1))
    for a in (1, 2, 3):
        x = VectorField.basis(1, TORUS, (a,), 1)
        y = VectorField.basis(1, TORUS, (-a,), 1)
        assert vir.evaluate(x, y) == kappa_class.scale(a ** 3)


def test_planted_twist_fails_jacobi_with_witness():
    tau = planted_noncocycle_twist(2, TORUS)
    ctx = GaugeContext(FiniteLieAlgebra.gl(1), gl_defining_rep(1), 2, TORUS)
    setup = ExtensionSetup(ctx, trace_form(ctx.lie, gl_defining_rep(1)), tau)
    report = jacobi_check(setup, radius=1, samples=50, max_tuples=800)
    assert not report.passed()
    assert "residual" in report.witness


def test_extension_setup_rejects_a_degree_one_twist():
    wrong = Cochain("wrong", 1, lambda x: None, "fields", "class", 2, TORUS,
                    value_degree=1)
    ctx = GaugeContext(FiniteLieAlgebra.sl2(), sl2_defining_rep(), 2, TORUS)
    with pytest.raises(MismatchError):
        ExtensionSetup(ctx, killing_form(ctx.lie), wrong)


def test_extension_bracket_antisymmetry_randomised():
    setup = sl2_setup(n=1, tau=virasoro_twist())
    rng = random.Random(29)
    for _ in range(20):
        a = _random_extension_element(setup, rng, 1)
        b = _random_extension_element(setup, rng, 1)
        total = extension_bracket(a, b) + extension_bracket(b, a)
        assert total.is_zero()


def test_jacobi_residual_vanishes_on_mixed_triples():
    setup = sl2_setup(n=1, tau=virasoro_twist())
    rng = random.Random(31)
    for _ in range(15):
        triple = [_random_extension_element(setup, rng, 1) for _ in range(3)]
        assert jacobi_residual(*triple).is_zero()


def plain_bracket(a, b, tau):
    """The seven terms of the module docstring, every one computed, each
    central term reduced on its own."""
    setup = a.setup
    ctx = setup.ctx
    gauge = (ctx.bracket(a.gauge, b.gauge) + ctx.outer(a.field, b.gauge)
             - ctx.outer(b.field, a.gauge))
    central = (setup.pairing(a.gauge, b.gauge)
               + reduce_mod_exact(lie_derive(a.field, b.central.rep))
               - reduce_mod_exact(lie_derive(b.field, a.central.rep)))
    if tau is not None:
        central = central + tau.evaluate(a.field, b.field)
    return ExtensionElement(setup, gauge, central, a.field.bracket(b.field))


TWISTS = {
    "untwisted": lambda n, model: None,
    "reduced-trace-2": lambda n, model: reduced_trace_cocycle(2, n, model),
    "wedge-pair": wedge_pair_cocycle,
    "planted": planted_noncocycle_twist,
}


@pytest.mark.parametrize("model", [TORUS, AFFINE])
@pytest.mark.parametrize("label", sorted(TWISTS))
def test_bracket_skipping_zero_parts_is_the_plain_bracket(model, label):
    """`extension_bracket` computes only the terms with two nonzero factors;
    on elements with parts zeroed at random it must equal the plain
    seven-term bracket, and evaluate the twist only on two nonzero fields."""
    n = 2
    tau = TWISTS[label](n, model)
    pairs = []
    counted = None
    if tau is not None:
        def ev(x, y):
            pairs.append((x.is_zero(), y.is_zero()))
            return tau.evaluate(x, y)

        counted = Cochain(tau.name, 2, ev, "fields", "class", n, model,
                          value_degree=1)
    ctx = GaugeContext(FiniteLieAlgebra.sl2(), sl2_defining_rep(), n, model)
    setup = ExtensionSetup(ctx, killing_form(ctx.lie), counted)
    rng = random.Random(37)

    def element():
        full = _random_extension_element(setup, rng, 1)
        return ExtensionElement.make(
            setup, **{part: getattr(full, part) for part in ("gauge", "central", "field")
                      if rng.random() < 0.6})

    for _ in range(40):
        a, b = element(), element()
        got, want = extension_bracket(a, b), plain_bracket(a, b, tau)
        assert (got.gauge, got.central, got.field) == (want.gauge, want.central,
                                                      want.field)
    if tau is not None:
        assert pairs and not any(zero_x or zero_y for zero_x, zero_y in pairs)
