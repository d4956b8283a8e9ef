"""The benchmark's workloads: what each one runs and what it must return.

A workload builds a list of steps.  The timed region runs the steps and
nothing else; judging the results and the reference cross-checks come
after it.  One operation is one check or one table computation, so a
step that runs a whole suite stands for each check the suite reports.
An operation fails when its verdict or value differs from the expected
one; a cross-check that disagrees marks the round incorrect.

Every check keeps the name, and so the per-check seed, that the suites
give it, but runs on fewer tuples than the suites do: a round takes a few
seconds instead of 20, so that a run holds several rounds and reports
their medians.  The host this was tuned on changes speed by up to a
factor of two from one second to the next, and a single 20 s round per
run spread by a quarter between runs.

The program is driven only through its public functions: `run_suites`,
`is_cocycle`, `jacobi_check`, `antisymmetry_check`, `check_identity`, the
cochain factories, `betti_numbers`, `weil_betti` and `vey_basis`.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import reference

DIM = 3
# Basis-tuple budget per k (the cocycle suite uses 20000, 800 and 120) and
# random tuples per check (the suite uses 100), on the radius-2 box.
ODD_TRACE_BUDGETS = {1: 5000, 2: 200, 3: 30}
ODD_TRACE_RADIUS = 2
ODD_TRACE_SAMPLES = 25
# Cross-check tuples per k, and terms per field: the plain sum over all
# (2k-1)! orderings is slow, so k = 3 gets few and small fields.
ODD_REFERENCE_TUPLES = {1: 30, 2: 20, 3: 10}
ODD_REFERENCE_TERMS = {1: 3, 2: 3, 3: 2}
# (basis-tuple budget, random tuples) per extension check; the suite uses
# 2500 or 700 basis triples and 200 random ones per Jacobi check.
EXTENSION_BUDGETS = {
    "untwisted": (600, 60),
    "reduced-trace-2": (200, 60),
    "wedge-pair": (200, 60),
    "contraction": (200, 60),
    "combination": (200, 60),
    "antisymmetry": (600, 40),
    "central-pairing-antisymmetry": (600, 40),
    "gl1-untwisted": (200, 40),
    "planted-noncocycle": (2000, 200),
}
PLANTED_CHECK = "extension:jacobi:planted-noncocycle"
# Caps the arity-3 checks of the formal suite at 1000 basis tuples (4000
# by default); its other checks keep their budgets.
FORMAL_MAX_TUPLES = 1000
WEIL_RANGE = range(1, 6)
GL_RANGE = range(1, 4)
FORMAL_CHECKS = (
    "formal:crossed-hom",
    "formal:cocycle:scalar_trace[1]",
    "formal:cocycle:form_trace[1]",
    "formal:cocycle:reduced_trace[1]",
    "formal:cocycle:scalar_trace[2]",
    "formal:cocycle:form_trace[2]",
    "formal:cocycle:reduced_trace[2]",
    "formal:cocycle:divergence",
    "formal:de-rham-dims",
    "formal:quotient-well-defined:affine",
)


@dataclass
class Step:
    name: str
    run: Callable[[], object]
    operations: tuple[str, ...] = ()  # what it stands for; default (name,)

    def __post_init__(self) -> None:
        self.operations = self.operations or (self.name,)


@dataclass
class Outcome:
    """One operation: its time, its tuples, and why it failed (or None)."""

    name: str
    seconds: float
    tuples: int = 0
    failure: str | None = None
    checks: int = 0  # CheckReports behind it (0 for a table)


def _judge_check(report, seconds: float, expect_pass: bool = True) -> Outcome:
    outcome = Outcome(report.name, seconds, report.tuples, checks=1)
    if report.tuples <= 0:
        outcome.failure = "no tuples checked"
    elif expect_pass and not report.passed():
        outcome.failure = f"failed with witness {report.witness}"
    elif not expect_pass:
        residual = (report.witness or {}).get("residual")
        if report.passed():
            outcome.failure = "passed, but the twist is not a cocycle"
        elif not residual or residual == "gauge: 0; central: [0]; field: 0":
            outcome.failure = f"failed without a nonzero residual: {report.witness}"
    return outcome


def _judge_suite(reports, expected: tuple[str, ...], extra=None) -> list[Outcome]:
    """One outcome per expected check name; wall time from the report."""
    by_name = {r.name: r for r in reports}
    outcomes = []
    for name in expected:
        report = by_name.get(name)
        if report is None:
            outcomes.append(Outcome(name, 0.0, failure="check missing"))
            continue
        outcome = _judge_check(report, report.wall_ms / 1000.0)
        if outcome.failure is None and extra is not None:
            outcome.failure = extra(report)
        outcomes.append(outcome)
    for name in sorted(set(by_name) - set(expected)):
        outcomes.append(Outcome(name, by_name[name].wall_ms / 1000.0,
                                by_name[name].tuples, "unexpected check", 1))
    return outcomes


def _judge_checks(results, expect_fail: str | None = None) -> list[Outcome]:
    """One outcome per step that returned a CheckReport under its own name."""
    outcomes = []
    for name, (report, seconds) in results.items():
        outcome = _judge_check(report, seconds, expect_pass=name != expect_fail)
        if outcome.failure is None and report.name != name:
            outcome.failure = f"reported as {report.name}"
        outcomes.append(outcome)
    return outcomes


class Workload:
    name = ""

    def __init__(self, vf, seed: int) -> None:
        self.vf = vf
        self.seed = seed

    def steps(self) -> list[Step]:
        raise NotImplementedError

    def judge(self, results: dict[str, tuple[object, float]]) -> list[Outcome]:
        """results maps step name to (return value, seconds)."""
        raise NotImplementedError

    def cross_check(self) -> list[str]:
        """Reference comparisons; each string describes a disagreement."""
        return []


class OddTrace(Workload):
    """The torus scalar_trace[k] cocycle checks at dim 3, k = 1, 2, 3."""

    name = "odd-trace-d3"

    def __init__(self, vf, seed: int) -> None:
        super().__init__(vf, seed)
        self.cochains = {k: vf.scalar_trace_cocycle(k, DIM, vf.TORUS)
                         for k in ODD_TRACE_BUDGETS}

    @staticmethod
    def check_name(k: int) -> str:
        return f"cocycle:torus:scalar_trace[{k}]"

    def steps(self) -> list[Step]:
        def check(k):
            return lambda: self.vf.is_cocycle(
                self.cochains[k], radius=ODD_TRACE_RADIUS,
                samples=ODD_TRACE_SAMPLES, seed=self.seed,
                max_tuples=ODD_TRACE_BUDGETS[k], name=self.check_name(k))
        return [Step(self.check_name(k), check(k)) for k in ODD_TRACE_BUDGETS]

    def judge(self, results):
        return _judge_checks(results)

    def _program_field(self, spec):
        vf = self.vf
        acc = vf.VectorField.zero(DIM, vf.TORUS)
        for mode, j, c in spec:
            acc = acc + vf.VectorField.basis(DIM, vf.TORUS, mode, j).scale(c)
        return acc

    def cross_check(self) -> list[str]:
        """scalar_trace[k] against the plain alternating sum over all
        orderings, and scalar_trace[1] against minus the divergence."""
        problems = []
        for k, count in ODD_REFERENCE_TUPLES.items():
            rng = random.Random(1_000_003 * self.seed + k)
            nonzero = 0
            for _ in range(count):
                specs = [reference.random_torus_field(
                    rng, DIM, ODD_TRACE_RADIUS, rng.randint(1, ODD_REFERENCE_TERMS[k]))
                    for _ in range(2 * k - 1)]
                got = self.cochains[k].evaluate(
                    *(self._program_field(s) for s in specs)).terms
                want = reference.alternating_trace(specs, DIM)
                if got != want:
                    problems.append(f"scalar_trace[{k}] on {specs}: program {got}, "
                                    f"plain sum {want}")
                if k == 1:
                    minus_div = {m: -c for m, c in reference.divergence(specs[0]).items()}
                    if got != minus_div:
                        problems.append(f"scalar_trace[1] on {specs}: {got} is not "
                                        f"minus the divergence {minus_div}")
                nonzero += bool(want)
            if not nonzero:
                problems.append(f"scalar_trace[{k}] cross-check saw only zero values")
        return problems


class ExtensionJacobi(Workload):
    """The extension suite's checks at dim 3, with the suite's names, twists
    and set-ups, but smaller budgets: Jacobi for every bundled twist,
    antisymmetry, the central pairing, gl1 and the planted non-cocycle."""

    name = "extension-jacobi-d3"

    def __init__(self, vf, seed: int) -> None:
        super().__init__(vf, seed)
        ext, coh = vf.extensions, vf.cohomology
        lie = vf.FiniteLieAlgebra.sl2()
        self.ctx = vf.GaugeContext(lie, coh.sl2_defining_rep(), DIM, vf.TORUS)
        kf = vf.killing_form(lie)
        rt2 = vf.reduced_trace_cocycle(2, DIM, vf.TORUS)
        wedge = vf.wedge_pair_cocycle(DIM, vf.TORUS)
        omega = vf.PForm.monomial(DIM, vf.TORUS, (0,) * DIM, (1, 2, 3))

        def combination(x, y):
            return (rt2.evaluate(x, y).scale(Fraction(2, 3))
                    + wedge.evaluate(x, y).scale(-3))

        twists = {
            "untwisted": None,
            "reduced-trace-2": rt2,
            "wedge-pair": wedge,
            "contraction": vf.contraction_cocycle(omega, 2,
                                                  name="contraction[2][1, 2, 3]"),
            "combination": vf.Cochain("twist-combination", 2, combination, "fields",
                                      "class", DIM, vf.TORUS, value_degree=1),
        }
        self.setups = {f"extension:jacobi:{label}": vf.ExtensionSetup(self.ctx, kf, tau)
                       for label, tau in twists.items()}
        self.base = vf.ExtensionSetup(self.ctx, kf)
        gl1 = vf.FiniteLieAlgebra.gl(1)
        self.setups["extension:jacobi:gl1-untwisted"] = vf.ExtensionSetup(
            vf.GaugeContext(gl1, coh.gl_defining_rep(1), DIM, vf.TORUS),
            ext.trace_form(gl1, coh.gl_defining_rep(1)))
        self.setups[PLANTED_CHECK] = vf.ExtensionSetup(
            self.ctx, kf, ext.planted_noncocycle_twist(DIM, vf.TORUS))
        self.config = vf.RunConfig(dim=DIM, seed=seed,
                                   samples=EXTENSION_BUDGETS["antisymmetry"][1])

    def steps(self) -> list[Step]:
        ext, seed = self.vf.extensions, self.seed

        def jacobi(name):
            budget, samples = EXTENSION_BUDGETS[name.rsplit(":", 1)[1]]
            return lambda: ext.jacobi_check(self.setups[name], radius=1, samples=samples,
                                            seed=seed, max_tuples=budget, name=name)

        def antisymmetry():
            budget, samples = EXTENSION_BUDGETS["antisymmetry"]
            return ext.antisymmetry_check(self.base, radius=1, samples=samples, seed=seed,
                                          max_tuples=budget, name="extension:antisymmetry")

        def central_pairing():
            ctx = self.ctx
            elements = ctx.basis_elements(self.vf.sampling.model_modes(ctx.model, DIM, 1))
            return self.vf.suites.check_identity(
                "extension:central-pairing-antisymmetry", elements, 2,
                lambda g1, g2: self.base.pairing(g1, g2) + self.base.pairing(g2, g1),
                self.config, random_element=lambda rng: ctx.random_element(rng, 1),
                budget=EXTENSION_BUDGETS["central-pairing-antisymmetry"][0])

        return [Step(name, jacobi(name)) for name in self.setups] + [
            Step("extension:antisymmetry", antisymmetry),
            Step("extension:central-pairing-antisymmetry", central_pairing)]

    def judge(self, results):
        return _judge_checks(results, expect_fail=PLANTED_CHECK)


class FormalTables(Workload):
    """The affine (formal) suite at dim 3, gl_n Betti numbers and the
    truncated Weil algebra tables."""

    name = "formal-tables-d3"

    def __init__(self, vf, seed: int) -> None:
        super().__init__(vf, seed)
        self.config = vf.RunConfig(dim=DIM, seed=seed, max_tuples=FORMAL_MAX_TUPLES)
        self.algebras = {n: vf.FiniteLieAlgebra.gl(n) for n in GL_RANGE}

    def steps(self) -> list[Step]:
        vf = self.vf
        steps = [Step("formal", lambda: vf.run_suites(["formal"], self.config),
                      FORMAL_CHECKS)]
        steps += [Step(f"betti:gl{n}", lambda n=n: vf.betti_numbers(self.algebras[n]))
                  for n in GL_RANGE]
        for n in WEIL_RANGE:
            steps.append(Step(f"weil_betti[{n}]", lambda n=n: vf.weil_betti(n)))
            steps.append(Step(f"vey_basis[{n}]", lambda n=n: vf.vey_basis(n)))
        return steps

    def judge(self, results):
        def de_rham(report):
            dims = (report.data or {}).get("dims")
            if report.name == "formal:de-rham-dims" and dims != [1] + [0] * DIM:
                return f"affine de Rham dimensions {dims}"
            return None

        sections, _seconds = results["formal"]
        outcomes = _judge_suite(sections["formal"], FORMAL_CHECKS, extra=de_rham)
        for n in GL_RANGE:
            name = f"betti:gl{n}"
            got, seconds = results[name]
            want = reference.exterior_poincare([2 * k - 1 for k in range(1, n + 1)])
            outcomes.append(Outcome(name, seconds, failure=None if list(got) == want
                                    else f"got {list(got)}, want {want}"))
        for n in WEIL_RANGE:
            name = f"weil_betti[{n}]"
            betti, seconds = results[name]
            outcomes.append(Outcome(name, seconds, failure=self._weil_failure(n, betti)))
            name = f"vey_basis[{n}]"
            basis, seconds = results[name]
            counts = Counter(reference.weil_degree(mono) for mono in basis)
            want = {q: b for q, b in enumerate(betti) if q and b}
            outcomes.append(Outcome(name, seconds, failure=None if counts == want
                                    else f"degree counts {dict(counts)}, Betti {want}"))
        return outcomes

    @staticmethod
    def _weil_failure(n: int, betti) -> str | None:
        top = 2 * n + 1
        if len(betti) <= top or betti[0] != 1:
            return f"table {betti} too short or H^0 != 1"
        if any(betti[1:top]):
            return f"nonzero Betti number in degrees 1..{2 * n}: {betti}"
        if betti[top] != reference.partitions(n + 1) - 1:
            return f"H^{top} = {betti[top]}, want p({n + 1}) - 1"
        return None


WORKLOADS = {w.name: w for w in (OddTrace, ExtensionJacobi, FormalTables)}
