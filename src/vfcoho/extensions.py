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
each bilinear, so a term with a zero factor is zero, and `_bracket`
computes only the terms whose two factors are nonzero.  A twist must
therefore be bilinear, as the `Cochain` contract requires, and not merely
vanish on the pairs the checks draw.

`_bracket` works on (gauge, central 1-form, field) parts and leaves the
central form unreduced; `extension_bracket` reduces it once.  The Jacobi
residual is trilinear, so `jacobi_residual` evaluates it on the integral
multiples D_a a, D_b b, D_c c (D the lcm of the denominators of an
element) and scales it back by 1/(D_a D_b D_c); every basis triple is
integral and skips both scalings.  Its six nested brackets keep their
central forms unreduced, and the sum of the three outer ones is reduced
once.  That gives the class, and so the representative and the witness
text, of the cyclic sum of `extension_bracket`: the reduction is linear
and canonical (zero exactly on exact forms), and the one place an outer
bracket reads an inner central form is the action L_X, which commutes
with d and so sends exact forms to exact forms.  The pairing, the twist,
and the gauge and field parts never read a central part.

The one-dimensional case carries the classical Virasoro twist
tau(t^a E, t^b E) = delta_{a+b,0} a^3 [kappa_1]; a coboundary shift by
c * (mode-0 coefficient) moves the polynomial to a^3 + 2ca without
affecting any cocycle property.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm, prod
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

    def scale(self, c) -> "ExtensionElement":
        return ExtensionElement(self.setup, self.gauge.scale(c), self.central.scale(c),
                                self.field.scale(c))

    @property
    def denominator(self) -> int:
        """The lcm of the denominators of every coefficient of the three parts."""
        return lcm(self.gauge.denominator, self.central.denominator,
                   self.field.denominator)

    def is_zero(self) -> bool:
        return self.gauge.is_zero() and self.central.is_zero() and self.field.is_zero()

    def text(self) -> str:
        return (f"gauge: {self.gauge.text()}; central: {self.central.text()}; "
                f"field: {self.field.text()}")


# (gauge part, central 1-form, field part) of an extension element; the
# central form need not be reduced.
Parts = tuple[GaugeElement, PForm, VectorField]


def _parts(e: ExtensionElement) -> Parts:
    return e.gauge, e.central.rep, e.field


def _bracket(setup: ExtensionSetup, a: Parts, b: Parts) -> Parts:
    """The bracket of the module docstring on parts, with the central
    form summed and left unreduced.

    A term is computed only when both of its factors are nonzero.  That
    relies on the pairing, the actions and tau being bilinear, which the
    `Cochain` contract already requires of tau.
    """
    ctx = setup.ctx
    (ga, ca, xa), (gb, cb, xb) = a, b
    gauge = ctx.zero()
    central = PForm.zero(ctx.n, ctx.model, 1)
    field = VectorField.zero(ctx.n, ctx.model)
    if ga and gb:
        gauge = ctx.bracket(ga, gb)
        central = setup._pairing_form(ga, gb)
    if xa and gb:
        gauge = gauge + ctx.outer(xa, gb)
    if xb and ga:
        gauge = gauge - ctx.outer(xb, ga)
    if xa and cb:
        central = central + lie_derive(xa, cb)
    if xb and ca:
        central = central - lie_derive(xb, ca)
    if xa and xb:
        if setup.tau is not None:
            central = central + setup.tau.evaluate(xa, xb).rep
        field = xa.bracket(xb)
    return gauge, central, field


def extension_bracket(a: ExtensionElement, b: ExtensionElement) -> ExtensionElement:
    """The bracket of the module docstring: `_bracket`, with the central
    form reduced once (the reduction is linear and idempotent)."""
    gauge, central, field = _bracket(a.setup, _parts(a), _parts(b))
    return ExtensionElement(a.setup, gauge, reduce_mod_exact(central), field)


def jacobi_residual(a: ExtensionElement, b: ExtensionElement,
                    c: ExtensionElement) -> ExtensionElement:
    """[[a,b],c] + [[b,c],a] + [[c,a],b], equal to that cyclic sum of
    `extension_bracket` part for part.

    The residual is trilinear, so it is computed on D_a a, D_b b, D_c c,
    each D the lcm of the denominators of its element, and scaled by
    1/(D_a D_b D_c); integral triples skip both scalings.  The nested
    brackets leave their central forms unreduced, and the sum is reduced
    once.  Unreduced inner central forms are sound because the outer
    bracket reads them only through L_X, which commutes with d and so maps
    exact forms to exact forms, and because the reduction is linear and
    canonical (see the module docstring).
    """
    setup = a.setup
    scales = [e.denominator for e in (a, b, c)]
    p, q, r = (_parts(e if d == 1 else e.scale(d)) for e, d in zip((a, b, c), scales))
    outer = [_bracket(setup, _bracket(setup, x, y), z)
             for x, y, z in ((p, q, r), (q, r, p), (r, p, q))]
    gauge, central, field = (u + v + w for u, v, w in zip(*outer))
    residual = ExtensionElement(setup, gauge, reduce_mod_exact(central), field)
    whole = prod(scales)
    return residual if whole == 1 else residual.scale(Fraction(1, whole))


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
