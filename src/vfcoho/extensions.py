"""Extensions of the gauge-plus-fields algebra by 1-forms modulo exact.

Elements are triples (gauge part, central part, field part).  The bracket
is

    [(g, c, X), (g', c', X')] =
        ( [g, g'] + X.g' - X'.g,
          pairing(g, g') + X.[c'] - X'.[c] + tau(X, X'),
          [X, X'] )

where pairing(f x_a, f' x_b) = B(x_a, x_b) [f' df] for an invariant
symmetric bilinear form B on the finite algebra, the central values are
classes of 1-forms modulo exact forms, and tau is a field-field twist
(zero for the semidirect product).  `jacobi_check` verifies the cyclic
identity exactly on sampled triples; with a twist that is not a cocycle
it fails with a concrete witness.

The bracket is bilinear in each of the three parts: the gauge bracket
and the pairing, the actions X.g and X.[c], tau and the field bracket are
each bilinear, so a term with a zero factor is zero, and
`extension_bracket` computes only the terms whose two factors are
nonzero.  A twist must therefore be bilinear, as the `Cochain` contract
requires, and not merely vanish on the pairs the checks draw.

The one-dimensional case carries the classical Virasoro twist
tau(t^a E, t^b E) = delta_{a+b,0} a^3 [kappa_1]; a coboundary shift by
c * (mode-0 coefficient) moves the polynomial to a^3 + 2ca without
affecting any cocycle property.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .cohomology import Cochain, FiniteLieAlgebra, GaugeContext, GaugeElement
from .fields import VectorField
from .forms import FormClass, PForm, ext_d, lie_derive, reduce_mod_exact
from .reports import CheckReport
from .rings import MismatchError, RingElement, as_scalar
from .sampling import (model_modes, random_field, random_ring, random_scalar,
                       seeded_check)


class InvariantForm:
    """Symmetric bilinear form B on a finite algebra with
    B([x,y],z) + B(y,[x,z]) = 0, validated exactly on basis triples."""

    def __init__(self, lie: FiniteLieAlgebra, matrix: Sequence[Sequence]):
        dim = lie.dim
        m = tuple(tuple(as_scalar(v) for v in row) for row in matrix)
        if len(m) != dim or any(len(row) != dim for row in m):
            raise MismatchError("invariant form must be dim x dim")
        for a in range(dim):
            for b in range(dim):
                if m[a][b] != m[b][a]:
                    raise MismatchError(f"form not symmetric at ({a},{b})")
        for a in range(dim):
            for b in range(dim):
                for c in range(dim):
                    left = sum(lie.c[a][b][k] * m[k][c] for k in range(dim))
                    right = sum(lie.c[a][c][k] * m[b][k] for k in range(dim))
                    if left + right:
                        raise MismatchError(
                            f"form not invariant on basis triple ({a},{b},{c})")
        self.lie = lie
        self.matrix = m

    def pair(self, x: Sequence, y: Sequence):
        total = 0
        for a, xa in enumerate(x):
            if not xa:
                continue
            for b, yb in enumerate(y):
                if yb and self.matrix[a][b]:
                    total += xa * yb * self.matrix[a][b]
        return total


def killing_form(lie: FiniteLieAlgebra) -> InvariantForm:
    """B(x, y) = trace(ad x . ad y): the `trace_form` of the adjoint
    representation, (ad x_a)_{ij} = c[a][j][i]."""
    idx = range(lie.dim)
    return trace_form(lie, [[[lie.c[a][j][i] for j in idx] for i in idx] for a in idx])


def trace_form(lie: FiniteLieAlgebra, rep: Sequence) -> InvariantForm:
    """B(x, y) = trace(rho(x) rho(y)); the natural choice for gl_1."""
    size = len(rep[0])
    dim = lie.dim
    matrix = [[sum(sum(rep[a][i][j] * rep[b][j][i] for j in range(size))
                   for i in range(size)) for b in range(dim)] for a in range(dim)]
    return InvariantForm(lie, matrix)


class ExtensionSetup:
    """The ambient data: gauge context, invariant form, twist cochain."""

    def __init__(self, ctx: GaugeContext, form: InvariantForm,
                 tau: Cochain | None = None):
        if form.lie is not ctx.lie:
            raise MismatchError("invariant form is for a different algebra")
        if tau is not None and tau.degree != 2:
            raise MismatchError("the twist must be a 2-cochain")
        self.ctx = ctx
        self.form = form
        self.tau = tau

    def zero_central(self) -> FormClass:
        return FormClass.zero(self.ctx.n, self.ctx.model, 1)

    def pairing(self, g1: GaugeElement, g2: GaugeElement) -> FormClass:
        """Central term of a gauge-gauge bracket: B(x_a, x_b) [f' df]."""
        return reduce_mod_exact(self._pairing_form(g1, g2))

    def _pairing_form(self, g1: GaugeElement, g2: GaugeElement) -> PForm:
        """The unreduced 1-form sum of B(x_a, x_b) f' df behind `pairing`."""
        total = PForm.zero(self.ctx.n, self.ctx.model, 1)
        for a, fa in g1.terms.items():
            dfa = None
            for b, fb in g2.terms.items():
                coeff = self.form.matrix[a][b]
                if not coeff:
                    continue
                if dfa is None:
                    dfa = ext_d(PForm.from_ring(fa))
                total = total + dfa.mul_ring(fb).scale(coeff)
        return total


class ExtensionElement:
    __slots__ = ("setup", "gauge", "central", "field")

    def __init__(self, setup: ExtensionSetup, gauge: GaugeElement,
                 central: FormClass, field: VectorField):
        if central.degree != 1:
            raise MismatchError("central part must be a 1-form class")
        self.setup = setup
        self.gauge = gauge
        self.central = central
        self.field = field

    @classmethod
    def make(cls, setup: ExtensionSetup, gauge: GaugeElement | None = None,
             central: FormClass | None = None,
             field: VectorField | None = None) -> "ExtensionElement":
        ctx = setup.ctx
        return cls(setup,
                   gauge if gauge is not None else ctx.zero(),
                   central if central is not None else setup.zero_central(),
                   field if field is not None else VectorField.zero(ctx.n, ctx.model))

    def __add__(self, other: "ExtensionElement") -> "ExtensionElement":
        return ExtensionElement(self.setup, self.gauge + other.gauge,
                                self.central + other.central, self.field + other.field)

    def __sub__(self, other: "ExtensionElement") -> "ExtensionElement":
        return ExtensionElement(self.setup, self.gauge - other.gauge,
                                self.central - other.central, self.field - other.field)

    def is_zero(self) -> bool:
        return self.gauge.is_zero() and self.central.is_zero() and self.field.is_zero()

    def text(self) -> str:
        return (f"gauge: {self.gauge.text()}; central: {self.central.text()}; "
                f"field: {self.field.text()}")


def extension_bracket(a: ExtensionElement, b: ExtensionElement) -> ExtensionElement:
    """The bracket of the module docstring.

    A term is computed only when both of its factors are nonzero.  That
    relies on the pairing, the actions and tau being bilinear, which the
    `Cochain` contract already requires of tau.  The central terms are
    summed as forms and reduced once: the reduction is linear and
    idempotent.
    """
    setup = a.setup
    ctx = setup.ctx
    ga, gb = not a.gauge.is_zero(), not b.gauge.is_zero()
    ca, cb = not a.central.is_zero(), not b.central.is_zero()
    xa, xb = not a.field.is_zero(), not b.field.is_zero()
    gauge = ctx.zero()
    central = PForm.zero(ctx.n, ctx.model, 1)
    field = VectorField.zero(ctx.n, ctx.model)
    if ga and gb:
        gauge = ctx.bracket(a.gauge, b.gauge)
        central = setup._pairing_form(a.gauge, b.gauge)
    if xa and gb:
        gauge = gauge + ctx.outer(a.field, b.gauge)
    if xb and ga:
        gauge = gauge - ctx.outer(b.field, a.gauge)
    if xa and cb:
        central = central + lie_derive(a.field, b.central.rep)
    if xb and ca:
        central = central - lie_derive(b.field, a.central.rep)
    if xa and xb:
        if setup.tau is not None:
            central = central + setup.tau.evaluate(a.field, b.field).rep
        field = a.field.bracket(b.field)
    return ExtensionElement(setup, gauge, reduce_mod_exact(central), field)


def jacobi_residual(a: ExtensionElement, b: ExtensionElement,
                    c: ExtensionElement) -> ExtensionElement:
    return (extension_bracket(extension_bracket(a, b), c)
            + extension_bracket(extension_bracket(b, c), a)
            + extension_bracket(extension_bracket(c, a), b))


def _basis_extension_elements(setup: ExtensionSetup, radius: int) -> list[ExtensionElement]:
    ctx = setup.ctx
    out = []
    modes = model_modes(ctx.model, ctx.n, radius)
    for m in modes:
        for a in range(ctx.lie.dim):
            out.append(ExtensionElement.make(setup, gauge=ctx.basis_element(m, a)))
    for m in modes:
        for i in range(1, ctx.n + 1):
            central = reduce_mod_exact(PForm.monomial(ctx.n, ctx.model, m, (i,)))
            if not central.is_zero():
                out.append(ExtensionElement.make(setup, central=central))
    for m in modes:
        for j in range(1, ctx.n + 1):
            out.append(ExtensionElement.make(
                setup, field=VectorField.basis(ctx.n, ctx.model, m, j)))
    return out


def _random_extension_element(setup: ExtensionSetup, rng: random.Random,
                              radius: int) -> ExtensionElement:
    ctx = setup.ctx
    central = reduce_mod_exact(
        PForm.from_ring(random_ring(rng, ctx.model, ctx.n, radius, terms=1)).wedge(
            PForm.kappa(ctx.n, ctx.model, rng.randrange(1, ctx.n + 1))))
    return ExtensionElement.make(
        setup,
        gauge=ctx.random_element(rng, radius),
        central=central.scale(random_scalar(rng)),
        field=random_field(rng, ctx.model, ctx.n, radius))


def _extension_check(setup: ExtensionSetup, arity: int, residual, radius: int,
                     samples: int, seed: int, max_tuples: int,
                     name: str) -> CheckReport:
    return seeded_check(
        name, _basis_extension_elements(setup, radius), arity, residual,
        seed=seed, budget=max_tuples, samples=samples,
        random_element=lambda rng: _random_extension_element(setup, rng, radius),
        params={"radius": radius,
                "twist": setup.tau.name if setup.tau else "none"})


def jacobi_check(setup: ExtensionSetup, radius: int = 1, samples: int = 200,
                 seed: int = 7, max_tuples: int = 4000,
                 name: str = "jacobi") -> CheckReport:
    """Cyclic Jacobi identity on basis triples plus seeded random triples."""
    return _extension_check(setup, 3, jacobi_residual, radius, samples, seed,
                            max_tuples, name)


def antisymmetry_residual(a: ExtensionElement,
                          b: ExtensionElement) -> ExtensionElement:
    """[a,b] + [b,a], or [a,a] when that sum vanishes."""
    r = extension_bracket(a, b) + extension_bracket(b, a)
    return r if not r.is_zero() else extension_bracket(a, a)


def antisymmetry_check(setup: ExtensionSetup, radius: int = 1, samples: int = 100,
                       seed: int = 7, max_tuples: int = 4000,
                       name: str = "antisymmetry") -> CheckReport:
    """[a,b] + [b,a] = 0 and [a,a] = 0 on basis pairs plus random pairs."""
    return _extension_check(setup, 2, antisymmetry_residual, radius, samples,
                            seed, max_tuples, name)


# -- twists -------------------------------------------------------------------


def virasoro_twist(shift: int | Fraction = 0) -> Cochain:
    """tau(X, Y) on the circle: sum over modes of x_a y_{-a} (a^3 + 2*shift*a)
    times [kappa_1].  shift=0 is the cubic normalization; a nonzero shift
    is the coboundary of c * (mode-0 coefficient)."""
    n, model = 1, "torus"
    shift = as_scalar(shift)
    zero = RingElement.zero(n, model)

    def ev(x: VectorField, y: VectorField):
        f, g = x.terms.get(1, zero), y.terms.get(1, zero)
        total = 0
        for (a,), xa in f.terms.items():
            yb = g.terms.get((-a,))
            if yb:
                total += xa * yb * (a ** 3 + 2 * shift * a)
        if not total:
            return FormClass.zero(n, model, 1)
        return FormClass(PForm.kappa(n, model, 1).scale(total))

    label = "virasoro" if not shift else f"virasoro+{shift}*coboundary"
    return Cochain(label, 2, ev, "fields", "class", n, model, value_degree=1,
                   spec={"shift": str(Fraction(shift))})


def planted_noncocycle_twist(n: int, model: str) -> Cochain:
    """Deliberately broken twist kappa_1(X) kappa_2(Y) [kappa_1]; it is not
    even antisymmetric, and the Jacobi check fails with a witness."""
    if n < 2:
        raise MismatchError("the planted twist needs n >= 2")
    zero = RingElement.zero(n, model)

    def ev(x: VectorField, y: VectorField):
        product = x.terms.get(1, zero) * y.terms.get(2, zero)
        return reduce_mod_exact(PForm.from_ring(product).wedge(
            PForm.kappa(n, model, 1)))

    return Cochain("planted_noncocycle", 2, ev, "fields", "class", n, model,
                   value_degree=1)
