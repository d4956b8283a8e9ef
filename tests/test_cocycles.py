"""The trace-of-Jacobian cocycle families and their exact relations."""

import inspect
import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from vfcoho import (AFFINE, TORUS, Cochain, FiniteLieAlgebra, GaugeContext,
                    MismatchError, PForm, RingElement, VectorField, divergence,
                    ext_d, form_trace_cocycle, gauge_form_trace,
                    gauge_odd_trace, gauge_reduced_trace, is_cocycle,
                    neg_jacobian, odd_trace_cocycle, pullback_by_crossed_hom,
                    reduce_mod_exact, reduced_trace_cocycle,
                    scalar_trace_cocycle, wedge_pair_cocycle)
from vfcoho import cocycles as cocycles_module
from vfcoho import suites
from vfcoho.cocycles import (closed_pair_cocycle, divfree_basis,
                             h2_reduced_one_form_generators, perm_sign)
from vfcoho.cohomology import ce_apply, gl_defining_rep, sl2_defining_rep
from vfcoho.extensions import planted_noncocycle_twist
from vfcoho.fields import MatrixFunction
from vfcoho.forms import field_action, lie_derive
from vfcoho.reports import RunConfig
from vfcoho.sampling import random_field, run_check, value_text
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


def _alternating_scalar_trace(fields):
    """sum over orderings s of sgn(s) Tr(u(X_s(1)) ... u(X_s(m)))."""
    mats = [neg_jacobian(x) for x in fields]
    total = RingElement.zero(fields[0].n, fields[0].model)
    for perm in permutations(range(len(fields))):
        acc = mats[perm[0]]
        for i in perm[1:]:
            acc = acc @ mats[i]
        total = total + perm_sign(perm) * acc.trace()
    return total


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
                    value = cochain.evaluate(*fields)
                    assert value == _alternating_scalar_trace(fields), (model, n, k)
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
                term = term.wedge(chain[s][idx[s]][idx[(s + 1) % k]])
            term = term if perm_sign(perm) > 0 else -term
            total = term if total is None else total + term
    assert total.degree == degree
    return total


def _dense_thetas(args, ctx=None):
    """u(X) with 0-form entries and du(X), as dense matrices, per field; with
    a gauge context, rho(u) = sum_a f_a rho(x_a) and d rho(u) per element."""
    thetas = []
    for x in args:
        if ctx is None:
            u, size = neg_jacobian(x), x.n
            rows = [[u.entry(i, j) for j in range(size)] for i in range(size)]
        else:
            size = ctx.rep_size
            rows = [[sum((ctx.rep[a][i][j] * f for a, f in enumerate(x.coeffs)),
                         RingElement.zero(ctx.n, ctx.model))
                     for j in range(size)] for i in range(size)]
        thetas.append([[PForm.from_ring(f) for f in row] for row in rows])
    return thetas, [[[ext_d(w) for w in row] for row in t] for t in thetas]


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
                thetas, dthetas = _dense_thetas(fields)
                value = psi.evaluate(*fields)
                assert value == _alternating_form_trace(dthetas, dthetas, k), (model, k)
                nonzero[("form", k)] += not value.is_zero()
                value = psibar.evaluate(*fields)
                expected = _alternating_form_trace(thetas, dthetas, k - 1)
                assert value == reduce_mod_exact(expected), (model, k)
                nonzero[("reduced", k)] += not value.is_zero()
    assert all(count > 0 for count in nonzero.values()), nonzero


def test_gauge_traces_match_the_plain_alternating_sums():
    """On F tensor g, gauge_odd_trace[k], gauge_form_trace[k] and
    gauge_reduced_trace[k] (as classes) agree exactly with the sums of
    sgn * Tr over every ordering of the dense rho(u_i), resp. d rho(u_i),
    with rho(u_s(1)) as first factor for the reduced family."""
    rng = random.Random(47)
    nonzero = {(family, k): 0 for family in ("odd", "form", "reduced") for k in (1, 2)}
    for lie, rep in ((FiniteLieAlgebra.sl2(), sl2_defining_rep()),
                     (FiniteLieAlgebra.gl(2), gl_defining_rep(2))):
        ctx = GaugeContext(lie, rep, 2, TORUS)
        for k in (1, 2):
            odd, form = gauge_odd_trace(k, ctx), gauge_form_trace(k, ctx)
            reduced = gauge_reduced_trace(k, ctx)
            for _ in range(5):
                us = [ctx.random_element(rng, 2) for _ in range(2 * k - 1)]
                rhos, drhos = _dense_thetas(us, ctx)
                value = odd.evaluate(*us)
                assert value == _alternating_form_trace(rhos, rhos, 0).as_ring(), k
                nonzero[("odd", k)] += not value.is_zero()
                us, rhos, drhos = us[:k], rhos[:k], drhos[:k]
                value = form.evaluate(*us)
                assert value == _alternating_form_trace(drhos, drhos, k), k
                nonzero[("form", k)] += not value.is_zero()
                value = reduced.evaluate(*us)
                expected = _alternating_form_trace(rhos, drhos, k - 1)
                assert value == reduce_mod_exact(expected), k
                nonzero[("reduced", k)] += not value.is_zero()
    assert all(count > 0 for count in nonzero.values()), nonzero


TRACE_FAMILIES = {"scalar": scalar_trace_cocycle, "form": form_trace_cocycle,
                  "reduced": reduced_trace_cocycle}


def _plain_trace(family, fields):
    """The value of a trace family on fields, as a plain alternating sum."""
    if family == "scalar":
        return _alternating_scalar_trace(fields)
    thetas, dthetas = _dense_thetas(fields)
    k = len(fields)
    if family == "form":
        return _alternating_form_trace(dthetas, dthetas, k)
    return reduce_mod_exact(_alternating_form_trace(thetas, dthetas, k - 1))


def _memo_of(cochain):
    return inspect.getclosurevars(cochain.evaluate).nonlocals["memo"]


def _rebuilt(x, model=None):
    """x over model, with its own frame indices and each coefficient's terms
    inserted in reverse order."""
    model = model or x.model
    return VectorField._trusted(x.n, model, {
        j: RingElement(x.n, model, dict(reversed(list(f.terms.items()))))
        for j, f in reversed(list(x.terms.items()))})


@pytest.mark.parametrize("model", [TORUS, AFFINE])
@pytest.mark.parametrize("family", sorted(TRACE_FAMILIES))
def test_trace_memo_values_equal_the_plain_alternating_sums(family, model):
    """One cochain object per case, so its memo carries over between
    evaluations: overlapping sub-tuples of one pool, transposed arguments
    and a field rebuilt with its frame indices and its terms in reverse order
    all agree with the plain alternating sum, and the rebuilt field hits the
    memo, which keys on content, not on dict order."""
    n = 3
    rng = random.Random(47)
    pool = [random_field(rng, model, n, 2, terms=4) for _ in range(7)]
    for k in (1, 2, 3):
        cochain = TRACE_FAMILIES[family](k, n, model)
        arity = cochain.degree
        nonzero = 0
        for start in range(len(pool) - arity + 1):
            args = pool[start:start + arity]
            value = cochain.evaluate(*args)
            assert value == _plain_trace(family, args), (family, model, k, start)
            nonzero += not value.is_zero()
            if arity > 1:
                swapped = [args[1], args[0]] + args[2:]
                assert (cochain.evaluate(*swapped) + value).is_zero()
        assert nonzero, (family, model, k)
        args = pool[:arity]
        rebuilt = _rebuilt(args[0])
        assert list(args[0].terms) != list(rebuilt.terms)
        assert any(list(f.terms) != list(g.terms)
                   for f, g in zip(args[0].coeffs, rebuilt.coeffs))
        value = cochain.evaluate(*args)
        held = list(_memo_of(cochain).entries)
        assert cochain.evaluate(rebuilt, *args[1:]) == value
        assert list(_memo_of(cochain).entries) == held


@pytest.mark.parametrize("family", sorted(TRACE_FAMILIES))
def test_trace_memo_tells_the_models_apart(family):
    """A torus and an affine field with equal terms have different
    Jacobians, so one cochain evaluated on both gives each its own value."""
    rng = random.Random(53)
    affine = [random_field(rng, AFFINE, 3, 2, terms=4) for _ in range(3)]
    torus = [_rebuilt(x, TORUS) for x in affine]
    cochain = TRACE_FAMILIES[family](2, 3, TORUS)
    values = []
    for fields in (torus, affine):
        args = fields[:cochain.degree]
        values.append(cochain.evaluate(*args).text())
        assert values[-1] == _plain_trace(family, args).text(), family
    assert values[0] != values[1]


@pytest.mark.parametrize("k, products, jacobians", [(2, 22, 10), (3, 171, 21)])
def test_one_residual_shares_jacobians_and_tails(monkeypatch, k, products, jacobians):
    """The 2k + C(2k, 2) evaluations that one ce_apply of scalar_trace[k]
    makes on a 2k-tuple build each u(X) and each partial sum of S once:
    22 products and 10 Jacobians at k = 2 (30 and 30 one evaluation at a
    time), 171 and 21 at k = 3 (609 and 105)."""
    calls = {"matmul": 0, "neg_jacobian": 0}
    matmul = MatrixFunction.__matmul__

    def counted_matmul(a, b):
        calls["matmul"] += 1
        return matmul(a, b)

    def counted_neg_jacobian(x):
        calls["neg_jacobian"] += 1
        return neg_jacobian(x)

    monkeypatch.setattr(MatrixFunction, "__matmul__", counted_matmul)
    monkeypatch.setattr(cocycles_module, "neg_jacobian", counted_neg_jacobian)
    args = seeded_fields(2 * k, n=3, seed=59)
    assert ce_apply(scalar_trace_cocycle(k, 3, TORUS), args).is_zero()
    assert 0 < calls["matmul"] <= products, calls
    assert 0 < calls["neg_jacobian"] <= jacobians, calls


@pytest.mark.parametrize("family", sorted(TRACE_FAMILIES))
def test_trace_memo_stays_within_its_bound(family):
    class Recording(dict):
        most = 0

        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            self.most = max(self.most, len(self))

    cochain = TRACE_FAMILIES[family](2, 2, TORUS)
    memo = _memo_of(cochain)
    memo.entries = Recording()
    assert is_cocycle(cochain, radius=1, samples=10, max_tuples=100).passed()
    assert memo.entries.most == memo.bound


def _times(cochain, f):
    """f times the values of a fields cochain: multilinear, not a cocycle."""
    times = {"ring": lambda v: v * f, "form": lambda v: v.mul_ring(f),
             "class": lambda v: reduce_mod_exact(v.rep.mul_ring(f))}[cochain.values]
    return Cochain(f"{cochain.name}*f", cochain.degree,
                   lambda *args: times(cochain.evaluate(*args)), "fields",
                   cochain.values, cochain.n, cochain.model, cochain.value_degree)


def _plain_ce(cochain, args):
    """d cochain on args as the plain Chevalley-Eilenberg sum, over Q."""
    act = {"ring": field_action, "form": lie_derive,
           "class": lambda x, v: reduce_mod_exact(lie_derive(x, v.rep))}[cochain.values]
    signed = [((-1) ** i, act(x, cochain.evaluate(*args[:i], *args[i + 1:])))
              for i, x in enumerate(args)]
    signed += [((-1) ** (i + j), cochain.evaluate(
        args[i].bracket(args[j]), *(a for m, a in enumerate(args) if m not in (i, j))))
        for i, j in combinations(range(len(args)), 2)]
    total = signed[0][1].scale(0)
    for sign, value in signed:
        total = total + value.scale(sign)
    return total


@pytest.mark.parametrize("model", [TORUS, AFFINE])
def test_ce_apply_on_rational_tuples_is_the_plain_sum(model):
    """`ce_apply` clears the denominators of field arguments and scales the
    residual back; on rational tuples it must equal the plain sum term for
    term, coefficient types included, for every trace family, for f times
    each of them and for the planted non-cocycle, and so must the witness."""
    n, rng = 3, random.Random(61)
    f = RingElement.monomial(n, model, (1, 0, 0))
    cocycles = [TRACE_FAMILIES[family](k, n, model)
                for family in sorted(TRACE_FAMILIES) for k in (1, 2)]
    cochains = cocycles + [_times(c, f) for c in cocycles] + [
        planted_noncocycle_twist(n, model)]
    nonzero = 0
    for cochain in cochains:
        # Halving the first field makes sure some denominator is cleared.
        args = tuple(random_field(rng, model, n, 2, terms=3)
                     for _ in range(cochain.degree + 1))
        args = (args[0].scale(Fraction(1, 2)),) + args[1:]
        residual, plain = ce_apply(cochain, args), _plain_ce(cochain, args)
        assert type(residual) is type(plain) and residual == plain, cochain.name
        assert {k: type(c) for k, c in residual.terms.items()} == \
            {k: type(c) for k, c in plain.terms.items()}
        report = run_check(cochain.name, {}, [args], False,
                           lambda *xs: ce_apply(cochain, xs))
        assert report.passed() == plain.is_zero()
        assert plain.is_zero() or cochain not in cocycles
        if plain:
            nonzero += 1
            assert report.witness["residual"] == value_text(plain)
    # Most of the 7 cochains that are not cocycles must give a witness
    # here, or the comparison shows little.
    assert nonzero >= 5, nonzero


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


def _signed_gauge_form_trace(k, ctx):
    """gauge_form_trace with the signed trace sum as its factor, which makes
    [2] identically zero (Tr(AB) - Tr(BA) = 0) and leaves [1] unchanged."""
    cache = {}

    def ev(*elements):
        slots = [cocycles_module._slot(u, True) for u in elements]
        return cocycles_module._gauge_sum(ctx, slots, k, True, cache)

    return Cochain(f"gauge_form_trace[{k}]", k, ev, "gauge", "form",
                   ctx.n, ctx.model, value_degree=k, ctx=ctx, spec={"k": k})


def test_pullback_form_trace_check_catches_a_zero_gauge_form_trace(monkeypatch):
    cfg = RunConfig(dim=2, samples=5, max_tuples=60)
    monkeypatch.setattr(suites, "gauge_form_trace", _signed_gauge_form_trace)
    status = {r.name: r.status for r in suites.suite_relations(cfg)}
    assert status["relation:pullback-form-trace[1]"] == "pass"
    assert status["relation:pullback-form-trace[2]"] == "fail"


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
