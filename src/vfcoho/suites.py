"""Named verification suites behind the CLI.

Each suite maps a RunConfig to a list of CheckReports.  Check names are
stable identifiers (golden files and the consolidated report key on
them), so renaming one is a breaking change to the report schema.

Exhaustive enumeration is bounded: a check whose basis-tuple count
exceeds its budget falls back to a seeded uniform sample of budget size,
recorded in the report params as exhaustive=False.  Budgets shrink with
arity because evaluation cost grows factorially.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb

from .cocycles import (closed_pair_cocycle, contraction_cocycle,
                       divergence_cochain, divfree_basis, form_trace_cocycle,
                       gauge_form_trace, gauge_odd_trace, gauge_reduced_trace,
                       odd_trace_cocycle, reduced_trace_cocycle,
                       scalar_trace_cocycle, wedge_pair_cocycle)
from .cohomology import (Cochain, FiniteLieAlgebra, GaugeContext,
                         check_maurer_cartan, gl_defining_rep, is_cocycle,
                         is_equivariant, pullback_by_crossed_hom,
                         sl2_defining_rep)
from .extensions import (ExtensionSetup, antisymmetry_check, jacobi_check,
                         killing_form, planted_noncocycle_twist, trace_form,
                         virasoro_twist)
from .fields import (VectorField, crossed_hom_residual, divergence,
                     neg_jacobian)
from .forms import (_MAX_WEIGHT, FormClass, PForm, de_rham_dims, ext_d,
                    lie_derive, reduce_mod_exact)
from .reports import CheckReport, RunConfig
from .rings import AFFINE, TORUS, RingElement
from .sampling import (basis_fields, check_rng, model_modes, random_field,
                       random_scalar, run_check, seeded_check)

SUITE_NAMES = ("crossed-hom", "cocycles", "relations", "gauge", "formal",
               "extensions")


def _tuple_budget(cfg: RunConfig, arity: int) -> int:
    if arity <= 2:
        return cfg.max_tuples
    if arity == 3:
        return min(cfg.max_tuples, 4000)
    if arity == 4:
        return min(cfg.max_tuples, 800)
    return min(cfg.max_tuples, 120)


def _cocycle(cfg: RunConfig, cochain: Cochain, name: str,
             radius: int | None = None) -> CheckReport:
    return is_cocycle(cochain, radius=cfg.radius if radius is None else radius,
                      samples=cfg.samples, seed=cfg.seed,
                      max_tuples=_tuple_budget(cfg, cochain.degree + 1),
                      name=name)


def _trace_cocycles(cfg: RunConfig, model: str, ks, prefix: str,
                    radius: int | None = None) -> list[CheckReport]:
    """d = 0 for scalar_trace[k], form_trace[k] (k <= dim) and
    reduced_trace[k], named prefix:<cochain name>."""
    reports = []
    for k in ks:
        for family in (scalar_trace_cocycle, form_trace_cocycle,
                       reduced_trace_cocycle):
            if family is not form_trace_cocycle or k <= cfg.dim:
                c = family(k, cfg.dim, model)
                reports.append(_cocycle(cfg, c, f"{prefix}:{c.name}", radius))
    return reports


def check_identity(name: str, elements, arity: int, residual_fn, cfg: RunConfig,
                   random_element=None, params: dict | None = None,
                   budget: int | None = None) -> CheckReport:
    """Exact identity residual_fn(args) = 0 over basis tuples plus samples."""
    return seeded_check(
        name, elements, arity, residual_fn, seed=cfg.seed,
        budget=budget if budget is not None else _tuple_budget(cfg, arity),
        samples=cfg.samples, random_element=random_element, params=params)


# -- crossed-hom ---------------------------------------------------------------


def _crossed_hom(cfg: RunConfig, model: str, name: str) -> CheckReport:
    """theta([X,Y]) = [theta X, theta Y] + X.theta(Y) - Y.theta(X) for
    theta = neg_jacobian, on basis pairs plus random pairs."""
    return check_identity(
        name, basis_fields(model, cfg.dim, cfg.radius), 2,
        lambda x, y: crossed_hom_residual(neg_jacobian, x, y), cfg,
        random_element=lambda rng: random_field(rng, model, cfg.dim, cfg.radius),
        params={"dim": cfg.dim, "radius": cfg.radius})


def _kernel_check(model: str, cfg: RunConfig) -> CheckReport:
    """The crossed homomorphism kills exactly the constant frame fields:
    it vanishes on each of them, and a nonconstant basis field with
    nonzero image exists."""
    n, zero = cfg.dim, (0,) * cfg.dim
    name, params = f"crossed-hom:{model}:kernel", {"dim": n, "radius": cfg.radius}
    constants = run_check(name, params, ((VectorField.basis(n, model, zero, j),)
                                         for j in range(1, n + 1)),
                          True, neg_jacobian)
    if not constants.passed():
        return constants
    report = run_check(
        name, params, ((x,) for x in basis_fields(model, n, cfg.radius)
                       if any(mode != zero for f in x.terms.values() for mode in f.terms)),
        True, neg_jacobian, search="no nonconstant field with nonzero image")
    report.tuples += constants.tuples
    report.wall_ms += constants.wall_ms
    return report


def _sign_discrimination(model: str, cfg: RunConfig) -> CheckReport:
    """Flipping the sign of the crossed homomorphism must break the identity
    somewhere; passes when a violating pair is found (needs dim >= 2 so
    that frame Jacobians can fail to commute)."""
    flipped = lambda x: neg_jacobian(x).scale(-1)  # noqa: E731
    return run_check(
        f"crossed-hom:{model}:sign-discrimination",
        {"dim": cfg.dim, "radius": cfg.radius},
        combinations(basis_fields(model, cfg.dim, cfg.radius), 2), True,
        lambda x, y: crossed_hom_residual(flipped, x, y),
        search="sign flip never violated the identity")


def suite_crossed_hom(cfg: RunConfig) -> list[CheckReport]:
    reports = []
    for model in (TORUS, AFFINE):
        reports.append(_crossed_hom(cfg, model, f"crossed-hom:{model}"))
        reports.append(_kernel_check(model, cfg))
        if cfg.dim >= 2:
            reports.append(_sign_discrimination(model, cfg))
    return reports


# -- cocycles ------------------------------------------------------------------


def _divfree_vanishing(cfg: RunConfig) -> CheckReport:
    n = cfg.dim
    wp = wedge_pair_cocycle(n, TORUS)
    elements = divfree_basis(n, TORUS, cfg.radius)

    def rnd(rng):
        acc = VectorField.zero(n, TORUS)
        for _ in range(2):
            acc = acc + rng.choice(elements).scale(random_scalar(rng))
        return acc

    return check_identity("cocycle:divfree:wedge-pair-vanishes", elements, 2,
                          wp.evaluate, cfg, random_element=rnd,
                          params={"dim": n, "radius": cfg.radius})


def _divfree_witness(cfg: RunConfig) -> CheckReport:
    return run_check(
        "cocycle:divfree:reduced-trace-2-witness",
        {"dim": cfg.dim, "radius": cfg.radius},
        combinations(divfree_basis(cfg.dim, TORUS, cfg.radius), 2), True,
        reduced_trace_cocycle(2, cfg.dim, TORUS).evaluate,
        search="no divergence-free pair with nonzero value "
               f"in the radius-{cfg.radius} box")


def _closed_pair_instances(n: int, model: str) -> list[Cochain]:
    """Function-valued 2-cocycles from (closed 2-form, closed 1-form) pairs.

    One pair on the coframe basis, one with exact pieces mixed in so the
    check does not silently depend on the representatives being harmonic.
    """
    if n < 2:
        return []
    zero = (0,) * n
    alpha = PForm.monomial(n, model, zero, (1, 2))
    beta = PForm.monomial(n, model, zero, (1,))
    mode = tuple(1 if i == 0 else 0 for i in range(n))
    alpha_mixed = alpha + ext_d(PForm.monomial(n, model, mode, (2,)))
    beta_mixed = beta + ext_d(PForm.from_ring(
        RingElement.monomial(n, model, mode)))
    return [closed_pair_cocycle(alpha, beta, name="closed_pair[basis]"),
            closed_pair_cocycle(alpha_mixed, beta_mixed,
                                name="closed_pair[mixed]")]


def suite_cocycles(cfg: RunConfig) -> list[CheckReport]:
    n, model = cfg.dim, cfg.model
    reports = _trace_cocycles(cfg, model, range(1, n + 1), f"cocycle:{model}")
    reports.append(_cocycle(cfg, divergence_cochain(n, model),
                            f"cocycle:{model}:divergence"))
    for p in (1, 2):
        for size in range(p, n + 1):
            for subset in combinations(range(1, n + 1), size):
                omega = PForm.monomial(n, model, (0,) * n, subset)
                cochain = contraction_cocycle(
                    omega, p, name=f"contraction[{p}]{list(subset)}")
                reports.append(_cocycle(cfg, cochain,
                                        f"cocycle:{model}:{cochain.name}"))
    reports.append(_cocycle(cfg, wedge_pair_cocycle(n, model),
                            f"cocycle:{model}:wedge_pair"))
    for cochain in _closed_pair_instances(n, model):
        reports.append(_cocycle(cfg, cochain, f"cocycle:{model}:{cochain.name}"))
    for label, lie, rep in (("sl2", FiniteLieAlgebra.sl2(), sl2_defining_rep()),
                            ("gl1", FiniteLieAlgebra.gl(1), gl_defining_rep(1))):
        ctx = GaugeContext(lie, rep, n, model)
        for k in (1, 2):
            if k <= n:
                reports.append(_cocycle(
                    cfg, gauge_form_trace(k, ctx),
                    f"cocycle:{model}:{label}:gauge_form_trace[{k}]"))
            reports.append(_cocycle(
                cfg, gauge_reduced_trace(k, ctx),
                f"cocycle:{model}:{label}:gauge_reduced_trace[{k}]"))
    if model == TORUS:
        reports += _trace_cocycles(cfg, AFFINE, (1, 2), "cocycle:affine", radius=3)
        if n >= 2:
            reports.append(_divfree_vanishing(cfg))
            reports.append(_divfree_witness(cfg))
    return reports


# -- relations -----------------------------------------------------------------


def _de_rham_check(name: str, model: str, n: int, radius: int = 2) -> CheckReport:
    """`de_rham_dims` against binomial(n, p) on the torus and (1, 0, ..., 0)
    in the affine model; a component it rejects is the witness."""
    start = time.perf_counter()
    expected = ([comb(n, p) for p in range(n + 1)] if model == TORUS
                else [1] + [0] * n)
    params = ({"dim": n, "radius": radius} if model == TORUS
              else {"dim": n, "max_weight": _MAX_WEIGHT})
    try:
        got = de_rham_dims(model, n, radius)
    except AssertionError as exc:
        return CheckReport(name=name, status="fail",
                           witness={"reason": str(exc)}, params=params,
                           wall_ms=(time.perf_counter() - start) * 1000.0)
    status = "pass" if got == expected else "fail"
    witness = None if status == "pass" else {"expected": expected, "got": got}
    return CheckReport(name=name, status=status, tuples=n + 1, witness=witness,
                       data={"dims": got}, params=params,
                       wall_ms=(time.perf_counter() - start) * 1000.0)


def _random_form(rng: random.Random, model: str, n: int, degree: int,
                 radius: int, terms: int = 2) -> PForm:
    modes = model_modes(model, n, radius)
    acc = PForm.zero(n, model, degree)
    for _ in range(terms):
        subset = tuple(sorted(rng.sample(range(1, n + 1), degree)))
        acc = acc + PForm.monomial(n, model, rng.choice(modes), subset,
                                   random_scalar(rng))
    return acc


def _representative_independence(cfg: RunConfig, model: str,
                                 prefix: str = "relation") -> CheckReport:
    """reduce(w + d eta) = reduce(w), and reduce is idempotent."""
    n = cfg.dim
    name = f"{prefix}:quotient-well-defined:{model}"
    rng = check_rng(cfg.seed, name)
    cases = ((_random_form(rng, model, n, p, cfg.radius),
              _random_form(rng, model, n, p - 1, cfg.radius))
             for p in range(1, n + 1) for _ in range(cfg.samples))

    def residual(w, eta):
        base = reduce_mod_exact(w)
        shifted = reduce_mod_exact(w + ext_d(eta)) - base
        return shifted if not shifted.is_zero() else reduce_mod_exact(base.rep) - base

    return run_check(name, {"dim": n, "radius": cfg.radius, "seed": cfg.seed,
                            "samples": cfg.samples}, cases, False, residual)


def suite_relations(cfg: RunConfig) -> list[CheckReport]:
    n, model = cfg.dim, cfg.model
    fields_list = basis_fields(model, n, cfg.radius)

    def rnd_field(rng):
        return random_field(rng, model, n, cfg.radius)

    reports = []
    for k in range(1, min(n, 3) + 1):
        rt = reduced_trace_cocycle(k, n, model)
        ft = form_trace_cocycle(k, n, model)

        def d_of_reduced(*args, rt=rt, ft=ft):
            return ext_d(rt.evaluate(*args).rep) - ft.evaluate(*args)

        reports.append(check_identity(
            f"relation:d-reduced-equals-form[{k}]", fields_list, k,
            d_of_reduced, cfg, random_element=rnd_field,
            params={"dim": n, "model": model}))

    st1 = scalar_trace_cocycle(1, n, model)
    rt1 = reduced_trace_cocycle(1, n, model)

    def collapse(x):
        d = divergence(x)
        r = st1.evaluate(x) + d
        if not r.is_zero():
            return r
        return rt1.evaluate(x).rep.as_ring() + d

    reports.append(check_identity(
        "relation:trace1-is-minus-div", fields_list, 1, collapse, cfg,
        random_element=rnd_field, params={"dim": n, "model": model}))

    reports.append(_crossed_hom(cfg, model, "relation:crossed-hom"))

    kappas = [PForm.kappa(n, model, i) for i in range(1, n + 1)]

    def frame_action(x):
        u = neg_jacobian(x)
        for i in range(n):
            res = lie_derive(x, kappas[i])
            for (a, b), f in u.terms.items():
                if a == i:
                    res = res + kappas[b].mul_ring(f)
            if not res.is_zero():
                return res
        return PForm.zero(n, model, 1)

    reports.append(check_identity(
        "relation:frame-action", fields_list, 1, frame_action, cfg,
        random_element=rnd_field, params={"dim": n, "model": model}))

    gl_ctx = GaugeContext(FiniteLieAlgebra.gl(n), gl_defining_rep(n), n, model)
    for k in (1, 2):
        pairs = [("odd", gauge_odd_trace(k, gl_ctx), scalar_trace_cocycle(k, n, model)),
                 ("reduced", gauge_reduced_trace(k, gl_ctx),
                  reduced_trace_cocycle(k, n, model))]
        if k <= n:
            pairs.append(("form", gauge_form_trace(k, gl_ctx),
                          form_trace_cocycle(k, n, model)))
        for family, gauge, field_cochain in pairs:
            pb = pullback_by_crossed_hom(gauge, neg_jacobian)

            def residual(*args, pb=pb, fc=field_cochain):
                return pb.evaluate(*args) - fc.evaluate(*args)

            reports.append(check_identity(
                f"relation:pullback-{family}-trace[{k}]", fields_list,
                field_cochain.degree, residual, cfg, random_element=rnd_field,
                params={"dim": n, "model": model}))

    for m in (TORUS, AFFINE):
        coframe = [PForm.kappa(n, m, i) for i in range(1, n + 1)]
        reports.append(check_maurer_cartan(
            coframe, name=f"relation:maurer-cartan:{m}", params={"dim": n}))

    reports.append(_de_rham_check("relation:de-rham-dims:torus", TORUS, n,
                                  min(cfg.radius, 2)))
    reports.append(_representative_independence(cfg, model))
    return reports


# -- gauge ---------------------------------------------------------------------


def suite_gauge(cfg: RunConfig) -> list[CheckReport]:
    n, model = cfg.dim, cfg.model
    reports = []
    for label, lie, rep in (("sl2", FiniteLieAlgebra.sl2(), sl2_defining_rep()),
                            ("gl1", FiniteLieAlgebra.gl(1), gl_defining_rep(1))):
        ctx = GaugeContext(lie, rep, n, model)
        for k in (1, 2):
            forms = [gauge_form_trace(k, ctx)] if k <= n else []
            for c in forms + [gauge_reduced_trace(k, ctx)]:
                reports.append(_cocycle(cfg, c, f"gauge:{label}:cocycle:{c.name}"))
                reports.append(is_equivariant(
                    c, radius=1, samples=min(cfg.samples, 50), seed=cfg.seed,
                    max_tuples=min(cfg.max_tuples, 150),
                    name=f"gauge:{label}:equivariance:{c.name}"))
            c = gauge_odd_trace(k, ctx)
            reports.append(_cocycle(cfg, c, f"gauge:{label}:cocycle:{c.name}"))
            finite = odd_trace_cocycle(k, lie, rep)
            reports.append(is_cocycle(
                finite, radius=1, samples=cfg.samples, seed=cfg.seed,
                max_tuples=cfg.max_tuples,
                name=f"gauge:{label}:cocycle:{finite.name}"))
    return reports


# -- formal (affine frame) -----------------------------------------------------


def suite_formal(cfg: RunConfig) -> list[CheckReport]:
    n = cfg.dim
    reports = []
    reports.append(_crossed_hom(cfg, AFFINE, "formal:crossed-hom"))
    reports += _trace_cocycles(cfg, AFFINE, (1, 2), "formal:cocycle")
    reports.append(_cocycle(cfg, divergence_cochain(n, AFFINE),
                            "formal:cocycle:divergence"))

    reports.append(_de_rham_check("formal:de-rham-dims", AFFINE, n))
    reports.append(_representative_independence(cfg.with_(model=AFFINE), AFFINE,
                                                prefix="formal"))
    return reports


# -- extensions ----------------------------------------------------------------


def _twist_combination(parts, n: int, model: str,
                       name: str = "twist-combination") -> Cochain:
    def ev(x, y):
        total = FormClass.zero(n, model, 1)
        for coeff, cochain in parts:
            total = total + cochain.evaluate(x, y).scale(coeff)
        return total

    return Cochain(name, 2, ev, "fields", "class", n, model, value_degree=1)


def _central_pairing_antisymmetry(cfg: RunConfig,
                                  setup: ExtensionSetup) -> CheckReport:
    ctx = setup.ctx
    elements = ctx.basis_elements(model_modes(ctx.model, ctx.n, 1))

    def rnd(rng):
        return ctx.random_element(rng, 1)

    def residual(g1, g2):
        return setup.pairing(g1, g2) + setup.pairing(g2, g1)

    return check_identity("extension:central-pairing-antisymmetry", elements, 2,
                          residual, cfg, random_element=rnd,
                          params={"dim": ctx.n, "model": ctx.model})


def suite_extensions(cfg: RunConfig) -> list[CheckReport]:
    n, model = cfg.dim, cfg.model
    reports = []
    lie, rep = FiniteLieAlgebra.sl2(), sl2_defining_rep()
    kf = killing_form(lie)
    if n == 1:
        ctx = GaugeContext(lie, rep, 1, TORUS)
        base = ExtensionSetup(ctx, kf)
        reports.append(jacobi_check(
            base, radius=cfg.radius, samples=200, seed=cfg.seed,
            max_tuples=min(cfg.max_tuples, 3000),
            name="extension:jacobi:untwisted"))
        reports.append(antisymmetry_check(
            base, radius=cfg.radius, samples=cfg.samples, seed=cfg.seed,
            max_tuples=min(cfg.max_tuples, 3000),
            name="extension:antisymmetry"))
        for label, shift in (("virasoro", 0), ("virasoro-shifted", 1)):
            twist = virasoro_twist(shift)
            reports.append(is_cocycle(
                twist, radius=cfg.radius, samples=cfg.samples, seed=cfg.seed,
                max_tuples=cfg.max_tuples, name=f"extension:cocycle:{label}"))
            reports.append(jacobi_check(
                ExtensionSetup(ctx, kf, twist), radius=cfg.radius, samples=200,
                seed=cfg.seed, max_tuples=min(cfg.max_tuples, 1200),
                name=f"extension:jacobi:{label}"))
        reports.append(run_check(
            "extension:virasoro-nontrivial", {},
            [(VectorField.basis(1, TORUS, (1,), 1),
              VectorField.basis(1, TORUS, (-1,), 1))], True,
            virasoro_twist().evaluate,
            search="twist vanished on the lowest mode pair"))
    else:
        ctx = GaugeContext(lie, rep, n, model)
        twists: list[tuple[str, Cochain | None]] = [
            ("untwisted", None),
            ("reduced-trace-2", reduced_trace_cocycle(2, n, model)),
            ("wedge-pair", wedge_pair_cocycle(n, model)),
        ]
        if n >= 3:
            omega = PForm.monomial(n, model, (0,) * n, (1, 2, 3))
            twists.append(("contraction", contraction_cocycle(
                omega, 2, name="contraction[2][1, 2, 3]")))
        twists.append(("combination", _twist_combination(
            [(Fraction(2, 3), reduced_trace_cocycle(2, n, model)),
             (Fraction(-3), wedge_pair_cocycle(n, model))], n, model)))
        for label, tau in twists:
            setup = ExtensionSetup(ctx, kf, tau)
            budget = min(cfg.max_tuples, 2500 if tau is None else 700)
            reports.append(jacobi_check(
                setup, radius=1, samples=200, seed=cfg.seed, max_tuples=budget,
                name=f"extension:jacobi:{label}"))
        reports.append(antisymmetry_check(
            ExtensionSetup(ctx, kf), radius=1, samples=cfg.samples,
            seed=cfg.seed, max_tuples=min(cfg.max_tuples, 2000),
            name="extension:antisymmetry"))
        reports.append(_central_pairing_antisymmetry(cfg, ExtensionSetup(ctx, kf)))
        gl1 = FiniteLieAlgebra.gl(1)
        gl1_setup = ExtensionSetup(
            GaugeContext(gl1, gl_defining_rep(1), n, model),
            trace_form(gl1, gl_defining_rep(1)))
        reports.append(jacobi_check(
            gl1_setup, radius=1, samples=100, seed=cfg.seed,
            max_tuples=min(cfg.max_tuples, 800),
            name="extension:jacobi:gl1-untwisted"))
    if cfg.planted:
        m = max(n, 2)
        ctx2 = GaugeContext(lie, rep, m, TORUS)
        planted = ExtensionSetup(ctx2, kf, planted_noncocycle_twist(m, TORUS))
        reports.append(jacobi_check(
            planted, radius=1, samples=200, seed=cfg.seed,
            max_tuples=min(cfg.max_tuples, 2000),
            name="extension:jacobi:planted-noncocycle"))
    return reports


# -- registry ------------------------------------------------------------------


SUITES = {
    "crossed-hom": suite_crossed_hom,
    "cocycles": suite_cocycles,
    "relations": suite_relations,
    "gauge": suite_gauge,
    "formal": suite_formal,
    "extensions": suite_extensions,
}


def run_suites(names, cfg: RunConfig) -> dict[str, list[CheckReport]]:
    return {name: SUITES[name](cfg) for name in names}


def flatten(sections: dict[str, list[CheckReport]]) -> list[CheckReport]:
    return [report for reports in sections.values() for report in reports]


def all_passed(sections: dict[str, list[CheckReport]]) -> bool:
    return all(report.passed() for report in flatten(sections))
