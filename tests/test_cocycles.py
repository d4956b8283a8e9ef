"""The trace-of-Jacobian cocycle families and their exact relations."""

import random
from itertools import permutations, product

import pytest

from vfcoho import (AFFINE, TORUS, FiniteLieAlgebra, GaugeContext,
                    MismatchError, PForm, RingElement, VectorField, divergence,
                    ext_d, form_trace_cocycle, gauge_form_trace,
                    gauge_odd_trace, gauge_reduced_trace, is_cocycle,
                    neg_jacobian, odd_trace_cocycle, pullback_by_crossed_hom,
                    reduce_mod_exact, reduced_trace_cocycle,
                    scalar_trace_cocycle, wedge_pair_cocycle)
from vfcoho.cocycles import (closed_pair_cocycle, divfree_basis,
                             h2_reduced_one_form_generators, perm_sign)
from vfcoho.cohomology import gl_defining_rep, sl2_defining_rep
from vfcoho.forms import wedge
from vfcoho.reports import RunConfig
from vfcoho.sampling import random_field
from vfcoho.suites import _divfree_witness


def basis(mode, j, n=2, model=TORUS):
    return VectorField.basis(n, model, mode, j)


def seeded_fields(count, n=2, model=TORUS, seed=19):
    rng = random.Random(seed)
    return [random_field(rng, model, n, 2) for _ in range(count)]


def test_form_trace_golden(golden):
    value = form_trace_cocycle(1, 2, TORUS).evaluate(basis((1, 0), 1))
    assert value.text() == golden["form_trace1_t10E1"]


def test_scalar_trace_golden(golden):
    args = [basis(tuple(m), j) for m, j in golden["scalar_trace2_triple_args"]]
    value = scalar_trace_cocycle(2, 2, TORUS).evaluate(*args)
    assert value.text() == golden["scalar_trace2_triple"]


def test_reduced_trace_golden(golden):
    args = [basis(tuple(m), j) for m, j in golden["reduced_trace2_pair_args"]]
    value = reduced_trace_cocycle(2, 2, TORUS).evaluate(*args)
    assert value.text() == golden["reduced_trace2_pair"]


def test_wedge_pair_golden(golden):
    args = [basis(tuple(m), j) for m, j in golden["wedge_pair_args"]]
    value = wedge_pair_cocycle(2, TORUS).evaluate(*args)
    assert value.text() == golden["wedge_pair_value"]


def test_first_traces_equal_minus_divergence():
    phi1 = scalar_trace_cocycle(1, 2, TORUS)
    psibar1 = reduced_trace_cocycle(1, 2, TORUS)
    for x in seeded_fields(20):
        assert phi1.evaluate(x) == -divergence(x)
        assert psibar1.evaluate(x).rep.as_ring() == -divergence(x)


def test_d_of_reduced_trace_is_form_trace():
    """The reduced family is a primitive of the form family: applying the
    exterior differential to any representative recovers the k-form value."""
    for model, n in ((TORUS, 2), (AFFINE, 2)):
        for k in (1, 2):
            psi = form_trace_cocycle(k, n, model)
            psibar = reduced_trace_cocycle(k, n, model)
            for _ in range(3):
                args = seeded_fields(k, n=n, model=model, seed=23 + k)
                assert ext_d(psibar.evaluate(*args).rep) == psi.evaluate(*args)


def test_scalar_trace_matches_the_plain_alternating_sum():
    """The standard-polynomial evaluation agrees exactly with the sum of
    sgn * Tr(u(X_s(1)) ... u(X_s(2k-1))) over every ordering."""
    rng = random.Random(41)
    nonzero = {1: 0, 2: 0, 3: 0}
    for model in (TORUS, AFFINE):
        for n in (1, 2, 3):
            for k in (1, 2, 3):
                cochain = scalar_trace_cocycle(k, n, model)
                for _ in range(4):
                    fields = [random_field(rng, model, n, 2,
                                           terms=rng.randint(1, 3))
                              for _ in range(2 * k - 1)]
                    mats = [neg_jacobian(x) for x in fields]
                    expected = RingElement.zero(n, model)
                    for perm in permutations(range(2 * k - 1)):
                        acc = mats[perm[0]]
                        for i in perm[1:]:
                            acc = acc @ mats[i]
                        expected = expected + perm_sign(perm) * acc.trace()
                    value = cochain.evaluate(*fields)
                    assert value == expected, (model, n, k)
                    nonzero[k] += not value.is_zero()
    assert all(count > 0 for count in nonzero.values()), nonzero


def _alternating_form_trace(heads, tails, degree):
    """sum over orderings s of sgn(s) Tr(F_s(1) ^ A_s(2) ^ ... ^ A_s(k)),
    where F = heads and A = tails are dense matrices of forms."""
    k, size = len(heads), len(heads[0])
    total = None
    for perm in permutations(range(k)):
        chain = [heads[perm[0]]] + [tails[i] for i in perm[1:]]
        for idx in product(range(size), repeat=k):
            term = chain[0][idx[0]][idx[1 % k]]
            for s in range(1, k):
                term = wedge(term, chain[s][idx[s]][idx[(s + 1) % k]])
            term = term if perm_sign(perm) > 0 else -term
            total = term if total is None else total + term
    assert total.degree == degree
    return total


def test_form_and_reduced_traces_match_the_plain_alternating_sums():
    """Tr S_k(du), with u(X_s(1)) as first factor for the reduced family,
    agrees exactly with the sum of sgn * Tr(du(X_s(1)) ^ ... ^ du(X_s(k)))
    (resp. [Tr(u(X_s(1)) du(X_s(2)) ^ ...)]) over every ordering."""
    rng = random.Random(43)
    n = 3
    nonzero = {(family, k): 0 for family in ("form", "reduced") for k in (1, 2, 3)}
    for model in (TORUS, AFFINE):
        for k in (1, 2, 3):
            psi = form_trace_cocycle(k, n, model)
            psibar = reduced_trace_cocycle(k, n, model)
            for _ in range(4):
                fields = [random_field(rng, model, n, 2, terms=rng.randint(1, 3))
                          for _ in range(k)]
                thetas = []
                for x in fields:
                    u = neg_jacobian(x)
                    thetas.append([[PForm.from_ring(u.entry(i, j)) for j in range(n)]
                                   for i in range(n)])
                dthetas = [[[ext_d(w) for w in row] for row in t] for t in thetas]
                value = psi.evaluate(*fields)
                assert value == _alternating_form_trace(dthetas, dthetas, k), (model, k)
                nonzero[("form", k)] += not value.is_zero()
                value = psibar.evaluate(*fields)
                expected = _alternating_form_trace(thetas, dthetas, k - 1)
                assert value == reduce_mod_exact(expected), (model, k)
                nonzero[("reduced", k)] += not value.is_zero()
    assert all(count > 0 for count in nonzero.values()), nonzero


def test_arity_conventions():
    # scalar family eats 2k-1 fields, the form and reduced families eat k
    assert scalar_trace_cocycle(2, 2, TORUS).degree == 3
    assert form_trace_cocycle(2, 2, TORUS).degree == 2
    assert reduced_trace_cocycle(2, 2, TORUS).degree == 2
    with pytest.raises(MismatchError):
        form_trace_cocycle(3, 2, TORUS)


def test_contraction_rejects_non_closed_forms():
    from vfcoho import contraction_cocycle

    with pytest.raises(MismatchError):
        contraction_cocycle(PForm.monomial(2, TORUS, (0, 1), (1,)), 1)


def test_closed_pair_rejects_non_closed_input():
    bad = PForm.monomial(2, TORUS, (0, 1), (1,))
    with pytest.raises(MismatchError):
        closed_pair_cocycle(ext_d(bad) + PForm.monomial(2, TORUS, (1, 1), (1, 2)),
                            bad)


def test_closed_pair_is_a_cocycle():
    alpha = PForm.monomial(2, TORUS, (0, 0), (1, 2))
    beta = PForm.kappa(2, TORUS, 1)
    report = is_cocycle(closed_pair_cocycle(alpha, beta), radius=1,
                        samples=20, max_tuples=400)
    assert report.passed()


def test_pullbacks_recover_field_cocycles():
    """Composing the gauge and finite families with the crossed homomorphism
    gives back the vector-field families, exactly and termwise."""
    n = 2
    ctx = GaugeContext(FiniteLieAlgebra.gl(n), gl_defining_rep(n), n, TORUS)
    for k in (1, 2):
        pulled = pullback_by_crossed_hom(gauge_odd_trace(k, ctx), neg_jacobian)
        direct = scalar_trace_cocycle(k, n, TORUS)
        for _ in range(4):
            args = seeded_fields(2 * k - 1, seed=31 + k)
            assert pulled.evaluate(*args) == direct.evaluate(*args)

    for k in (1, 2):
        pulled = pullback_by_crossed_hom(gauge_reduced_trace(k, ctx),
                                         neg_jacobian)
        direct = reduced_trace_cocycle(k, n, TORUS)
        for _ in range(4):
            args = seeded_fields(k, seed=37 + k)
            assert pulled.evaluate(*args) == direct.evaluate(*args)


def test_gauge_traces_are_cocycles():
    ctx = GaugeContext(FiniteLieAlgebra.sl2(), sl2_defining_rep(), 2, TORUS)
    for build in (gauge_form_trace, gauge_reduced_trace):
        assert is_cocycle(build(1, ctx), radius=1, samples=15,
                          max_tuples=200).passed()
    assert is_cocycle(gauge_odd_trace(1, ctx), radius=1, samples=15,
                      max_tuples=200).passed()


def test_gauge_odd_trace_rep_larger_than_manifold():
    # the 2x2 rep on a 1-dimensional base used to trip the matrix bounds check
    ctx = GaugeContext(FiniteLieAlgebra.sl2(), sl2_defining_rep(), 1, TORUS)
    assert is_cocycle(gauge_odd_trace(1, ctx), radius=1, samples=15,
                      max_tuples=200).passed()


def test_finite_odd_trace_is_a_cocycle():
    lie, rep = FiniteLieAlgebra.gl(2), gl_defining_rep(2)
    for k in (1, 3):
        report = is_cocycle(odd_trace_cocycle(k, lie, rep), samples=10)
        assert report.passed()


def test_reduced_one_form_generator_count():
    # one generator per closed coframe direction beyond the exact ones
    assert len(h2_reduced_one_form_generators(2)) == 2
    assert len(h2_reduced_one_form_generators(3)) == 3
    for gen in h2_reduced_one_form_generators(2):
        assert is_cocycle(gen, radius=1, samples=10, max_tuples=150).passed()


def test_divergence_free_fields_kill_the_wedge_pair():
    wp = wedge_pair_cocycle(2, TORUS)
    fields = divfree_basis(2, TORUS, 1)
    assert fields
    for x in fields:
        assert divergence(x).is_zero()
        for y in fields:
            assert wp.evaluate(x, y).is_zero()


def test_divergence_free_witness_is_stable(golden):
    report = _divfree_witness(RunConfig(dim=2, radius=2))
    assert report.passed()
    x_text, y_text = report.data["args"]
    expected = golden["divfree_witness"]
    assert x_text == expected["x"]
    assert y_text == expected["y"]
    assert report.data["value"] == expected["value"]
    by_text = {f.text(): f for f in divfree_basis(2, TORUS, 2)}
    x, y = by_text[x_text], by_text[y_text]
    assert divergence(x).is_zero() and divergence(y).is_zero()
    value = reduced_trace_cocycle(2, 2, TORUS).evaluate(x, y)
    assert value.text() == expected["value"]


def test_reduction_commutes_with_the_form_family():
    psi2 = form_trace_cocycle(2, 2, TORUS)
    psibar2 = reduced_trace_cocycle(2, 2, TORUS)
    for _ in range(5):
        args = seeded_fields(2, seed=41)
        assert reduce_mod_exact(psibar2.evaluate(*args).rep) == \
            psibar2.evaluate(*args)
        assert psi2.evaluate(*args).degree == 2
