"""Chevalley-Eilenberg machinery.

The differential of a p-cochain psi with values in a module is

    d psi(x_0, ..., x_p) = sum_i (-1)^i x_i . psi(..., no x_i, ...)
                         + sum_{i<j} (-1)^{i+j} psi([x_i, x_j], ..., no x_i, x_j, ...)

`ce_apply` evaluates that formula for any of the three domains used here
(vector fields, gauge algebras F tensor g, finite-dimensional algebras)
and any of the four value kinds (ring element, form, reduced-form class,
plain scalar).  Vector-field cochains act through the derivation / Lie
derivative; gauge and finite domains treat values as trivial modules.

`FiniteLieAlgebra` keeps one sparse table of its structure constants;
its bracket and validation, `validate_rep`, the pointwise
`GaugeContext.bracket`, the invariant forms of `extensions` and the
matrices of `ce_matrix` all read it.  `GaugeElement` is a `rings.Terms`
keyed by the basis index of g; `GaugeElement(...)` validates its coefficients against
the context, and its results, the context's constructions, brackets and
field actions included, are trusted.

`betti_numbers` computes full cohomology of a finite-dimensional algebra
with trivial coefficients by exact rank counting, and `cochain_wedge`
multiplies a class-valued by a form-valued cochain by the shuffle sum,
which agrees with the 1/(p! q!)-normalized alternation over the whole
symmetric group.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement
from math import comb, prod
from operator import methodcaller
from typing import Callable, Sequence

from .fields import MatrixFunction, VectorField
from .forms import (FormClass, PForm, _merge_sign, ext_d, field_action,
                    lie_derive, reduce_mod_exact)
from .linalg import cohomology_dims, mat_mul, sparse_matrix
from .reports import CheckReport
from .rings import MismatchError, RingElement, Terms, _collect, as_scalar
from .sampling import (basis_fields, check_rng, model_modes, random_field,
                       random_ring, random_scalar, run_check, seeded_cases,
                       seeded_check)

Scalar = int | Fraction
Vector = tuple[Scalar, ...]


class FiniteLieAlgebra:
    """Finite-dimensional Lie algebra given by structure constants.

    The constructor takes the dense table: `structure[a][b][k]` is the
    coefficient of the k-th basis element in [x_a, x_b].  The algebra keeps
    only its nonzero part, `sparse[(a, b)]`, the list of (k, coefficient)
    for each pair with [x_a, x_b] != 0; the bracket, `validate_rep`, the
    invariant forms and `ce_matrix` all read it.  Antisymmetry (entry by
    entry) and the Jacobi identity (the cyclic sum of brackets of basis
    vectors) are validated at construction time, exactly, and so is the
    number of names.
    """

    def __init__(self, structure: Sequence[Sequence[Sequence]], names: Sequence[str] | None = None):
        dim = len(structure)
        if any(len(plane) != dim or any(len(row) != dim for row in plane)
               for plane in structure):
            raise MismatchError("structure constants must be dim x dim x dim")
        self.dim = dim
        self.sparse: dict[tuple[int, int], list[tuple[int, Scalar]]] = {}
        for a, plane in enumerate(structure):
            for b, row in enumerate(plane):
                if entries := [(k, c) for k, v in enumerate(row) if (c := as_scalar(v))]:
                    self.sparse[(a, b)] = entries
        for a, b in combinations_with_replacement(range(dim), 2):
            if (dict(self.sparse.get((b, a), ()))
                    != {k: -c for k, c in self.sparse.get((a, b), ())}):
                raise MismatchError(f"structure constants not antisymmetric at ({a},{b})")
        basis = [self.basis_vector(a) for a in range(dim)]
        for a, b, d in combinations(range(dim), 3):
            x, y, z = basis[a], basis[b], basis[d]
            if any(p + q + r for p, q, r in zip(self.bracket(self.bracket(x, y), z),
                                                self.bracket(self.bracket(y, z), x),
                                                self.bracket(self.bracket(z, x), y))):
                raise MismatchError(f"Jacobi identity fails on basis triple ({a},{b},{d})")
        self.names = tuple(names) if names else tuple(f"x{i}" for i in range(dim))
        if len(self.names) != dim:
            raise MismatchError(f"{len(self.names)} names for an algebra of dimension {dim}")

    @classmethod
    def abelian(cls, dim: int) -> "FiniteLieAlgebra":
        zero = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
        return cls(zero)

    @classmethod
    def gl(cls, n: int) -> "FiniteLieAlgebra":
        """gl_n with basis E_{ab}, flattened index a*n + b (0-based)."""
        dim = n * n
        c = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
        for a in range(n):
            for b in range(n):
                for e in range(n):
                    for f in range(n):
                        left, right = a * n + b, e * n + f
                        if b == e:
                            c[left][right][a * n + f] += 1
                        if f == a:
                            c[left][right][e * n + b] -= 1
        names = tuple(f"E{a + 1}{b + 1}" for a in range(n) for b in range(n))
        return cls(c, names)

    @classmethod
    def sl2(cls) -> "FiniteLieAlgebra":
        """Basis (e, h, f) with [h,e]=2e, [h,f]=-2f, [e,f]=h."""
        c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        e, h, f = 0, 1, 2
        c[h][e][e], c[e][h][e] = 2, -2
        c[h][f][f], c[f][h][f] = -2, 2
        c[e][f][h], c[f][e][h] = 1, -1
        return cls(c, ("e", "h", "f"))

    def bracket(self, x: Vector, y: Vector) -> Vector:
        out = [0] * self.dim
        for (a, b), row in self.sparse.items():
            xa, yb = x[a], y[b]
            if xa and yb:
                for k, coeff in row:
                    out[k] += xa * yb * coeff
        return tuple(out)

    def basis_vector(self, a: int) -> Vector:
        return tuple(int(i == a) for i in range(self.dim))

    def vector_text(self, x: Vector) -> str:
        parts = [f"{v} {self.names[i]}" for i, v in enumerate(x) if v]
        return " + ".join(parts) if parts else "0"


def gl_defining_rep(n: int) -> tuple:
    """Matrices of the defining representation for `FiniteLieAlgebra.gl`."""
    mats = []
    for a in range(n):
        for b in range(n):
            mats.append(tuple(tuple(int(i == a and j == b) for j in range(n))
                              for i in range(n)))
    return tuple(mats)


def sl2_defining_rep() -> tuple:
    e = ((0, 1), (0, 0))
    h = ((1, 0), (0, -1))
    f = ((0, 0), (1, 0))
    return (e, h, f)


def validate_rep(lie: FiniteLieAlgebra, rep: Sequence) -> None:
    """rho([x,y]) must equal rho(x)rho(y) - rho(y)rho(x), exactly."""
    size = len(rep[0])
    for a in range(lie.dim):
        for b in range(lie.dim):
            left, right = mat_mul(rep[a], rep[b]), mat_mul(rep[b], rep[a])
            comm = [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(left, right)]
            want = [[sum(coeff * rep[k][i][j] for k, coeff in lie.sparse.get((a, b), ()))
                     for j in range(size)] for i in range(size)]
            if comm != want:
                raise MismatchError(f"representation fails on basis pair ({a},{b})")


class GaugeContext:
    """The gauge algebra F tensor g with a faithful matrix representation.

    Elements are `GaugeElement`s, functions keyed by the basis of g; the
    bracket is pointwise: [f x_a, g x_b] = (fg) [x_a, x_b].
    """

    def __init__(self, lie: FiniteLieAlgebra, rep: Sequence, n: int, model: str):
        validate_rep(lie, rep)
        self.lie = lie
        self.rep = tuple(tuple(tuple(row) for row in m) for m in rep)
        self.rep_size = len(rep[0])
        self.n = n
        self.model = model

    def zero(self) -> "GaugeElement":
        return GaugeElement._trusted(self, {})

    def basis_element(self, mode, a: int) -> "GaugeElement":
        return GaugeElement._trusted(self, {a: RingElement.monomial(self.n, self.model, mode)})

    def basis_elements(self, modes: Sequence) -> list["GaugeElement"]:
        return [self.basis_element(m, a) for m in modes for a in range(self.lie.dim)]

    def bracket(self, u: "GaugeElement", v: "GaugeElement") -> "GaugeElement":
        out: dict[int, RingElement] = {}
        for a, ua in u.terms.items():
            for b, vb in v.terms.items():
                row = self.lie.sparse.get((a, b))
                if row:
                    prod = ua * vb  # nonzero: both rings are integral domains
                    _collect(((k, prod.scale(coeff)) for k, coeff in row), out)
        return GaugeElement._trusted(self, out)

    def outer(self, x: VectorField, u: "GaugeElement") -> "GaugeElement":
        """Action of a vector field through its derivation on coefficients."""
        return GaugeElement._trusted(self, {a: g for a, f in u.terms.items()
                                            if (g := field_action(x, f))})

    def random_element(self, rng: random.Random, radius: int) -> "GaugeElement":
        out: dict[int, RingElement] = {}
        for _ in range(2):
            a = rng.randrange(self.lie.dim)
            _collect([(a, random_ring(rng, self.model, self.n, radius, terms=1))], out)
        return GaugeElement._trusted(self, out)


class GaugeElement(Terms):
    """u = sum_a f_a x_a in F tensor g, a `rings.Terms` keyed by the basis
    index a of g (0-based) whose values are the nonzero functions f_a; it
    has no degree, and n and model are the context's.  Elements of two
    contexts are never equal and do not add.  The constructor
    takes one function over the context's ring per basis element of g and
    checks them; the context's constructions and all arithmetic results go
    through `_trusted`."""

    __slots__ = ("ctx",)
    degree = None

    def __init__(self, ctx: GaugeContext, coeffs: Sequence[RingElement]):
        coeffs = tuple(coeffs)
        if len(coeffs) != ctx.lie.dim:
            raise MismatchError(f"{len(coeffs)} coefficients for an algebra of "
                                f"dimension {ctx.lie.dim}")
        for f in coeffs:
            if not isinstance(f, RingElement) or (f.n, f.model) != (ctx.n, ctx.model):
                raise MismatchError("gauge coefficients must be functions over "
                                    "the context's ring")
        self.ctx = ctx
        self.n = ctx.n
        self.model = ctx.model
        self.terms = {a: f for a, f in enumerate(coeffs) if f}

    @classmethod
    def _trusted(cls, ctx: GaugeContext, terms: dict[int, RingElement]) -> "GaugeElement":
        """Wrap nonzero functions over the context's ring, keyed by basis
        indices of g."""
        self = object.__new__(cls)
        self.ctx = ctx
        self.n = ctx.n
        self.model = ctx.model
        self.terms = terms
        return self

    def _like(self, terms: dict[int, RingElement]) -> "GaugeElement":
        return GaugeElement._trusted(self.ctx, terms)

    @property
    def coeffs(self) -> tuple[RingElement, ...]:
        """Every coefficient f_0, ..., f_(dim-1), zeros included."""
        zero = RingElement.zero(self.n, self.model)
        return tuple(self.terms.get(a, zero) for a in range(self.ctx.lie.dim))

    def text(self) -> str:
        names = self.ctx.lie.names
        return " + ".join(f"({f.text()}) {names[a]}" for a, f in self.sorted_terms()) or "0"


# -- cochains ---------------------------------------------------------------


class Cochain:
    """Alternating multilinear map with a named domain and value kind.

    domain: "fields" | "gauge" | "finite"
    values: "ring" | "form" | "class" | "scalar"
    """

    __slots__ = ("name", "degree", "evaluate", "domain", "values",
                 "n", "model", "value_degree", "ctx", "spec")

    def __init__(self, name: str, degree: int, evaluate: Callable, domain: str,
                 values: str, n: int, model: str, value_degree: int | None = None,
                 ctx=None, spec: dict | None = None):
        if domain not in ("fields", "gauge", "finite"):
            raise MismatchError(f"unknown domain {domain!r}")
        if values not in ("ring", "form", "class", "scalar"):
            raise MismatchError(f"unknown value kind {values!r}")
        self.name = name
        self.degree = degree
        self.evaluate = evaluate
        self.domain = domain
        self.values = values
        self.n = n
        self.model = model
        self.value_degree = value_degree
        self.ctx = ctx
        self.spec = spec or {}

    def spec_dict(self) -> dict:
        out = {"name": self.name, "degree": self.degree, "domain": self.domain,
               "values": self.values, "n": self.n, "model": self.model}
        out.update(self.spec)
        return out


def zero_value(values: str, n: int, model: str, degree: int | None):
    if values == "ring":
        return RingElement.zero(n, model)
    if values == "form":
        return PForm.zero(n, model, degree or 0)
    if values == "class":
        return FormClass.zero(n, model, degree or 0)
    return 0


def module_action(domain: str, values: str) -> Callable | None:
    """How an element of `domain` acts on `values`, or None where it acts
    trivially: on gauge and finite domains, and on scalar values."""
    if domain != "fields" or values == "scalar":
        return None
    if values == "ring":
        return field_action
    if values == "form":
        return lie_derive
    return lambda x, c: reduce_mod_exact(lie_derive(x, c.rep))


def domain_bracket(cochain: Cochain) -> Callable:
    if cochain.domain == "fields":
        return lambda x, y: x.bracket(y)
    return cochain.ctx.bracket  # GaugeContext or FiniteLieAlgebra


def ce_apply(cochain: Cochain, args: Sequence):
    """Evaluate the Chevalley-Eilenberg differential of `cochain` on args.

    d c is multilinear over Q, as the `Cochain` contract makes c.  So on
    fields and gauge elements it is evaluated on D_i X_i, D_i the lcm of
    the denominators in X_i (`Terms.denominator`), and the residual is
    scaled by 1 / prod D_i: the scalar trace cocycles then compute with
    ints only.  Integral tuples
    (every basis tuple), finite-domain arguments and scalar values are
    taken as they are.
    """
    p = cochain.degree
    if len(args) != p + 1:
        raise MismatchError(f"d of a {p}-cochain takes {p + 1} arguments")
    scales = ([1] if cochain.domain == "finite" or cochain.values == "scalar"
              else [x.denominator for x in args])  # D_i
    if (whole := prod(scales)) > 1:
        args = tuple(x if d == 1 else x.scale(d) for x, d in zip(args, scales))
    action = module_action(cochain.domain, cochain.values)
    bracket_fn = domain_bracket(cochain)
    total = zero_value(cochain.values, cochain.n, cochain.model, cochain.value_degree)
    for i, x in enumerate(args if action else ()):  # no sum for a trivial module
        rest = args[:i] + args[i + 1:]
        acted = action(x, cochain.evaluate(*rest))
        total = total + acted if i % 2 == 0 else total - acted
    for i in range(p + 1):
        for j in range(i + 1, p + 1):
            rest = tuple(a for k, a in enumerate(args) if k != i and k != j)
            val = cochain.evaluate(bracket_fn(args[i], args[j]), *rest)
            total = total - val if (i + j) % 2 == 1 else total + val
    return total if whole == 1 else total.scale(Fraction(1, whole))


def _domain_elements(cochain: Cochain, radius: int):
    if cochain.domain == "fields":
        return basis_fields(cochain.model, cochain.n, radius)
    if cochain.domain == "gauge":
        return cochain.ctx.basis_elements(model_modes(cochain.model, cochain.n, radius))
    return [cochain.ctx.basis_vector(a) for a in range(cochain.ctx.dim)]


def _random_domain_element(cochain: Cochain, rng: random.Random, radius: int):
    if cochain.domain == "fields":
        return random_field(rng, cochain.model, cochain.n, radius)
    if cochain.domain == "gauge":
        return cochain.ctx.random_element(rng, radius)
    return tuple(random_scalar(rng) for _ in range(cochain.ctx.dim))


def is_cocycle(cochain: Cochain, radius: int = 2, samples: int = 100,
               seed: int = 7, max_tuples: int = 20000,
               name: str | None = None) -> CheckReport:
    """Check d(cochain) = 0 on basis tuples in the box plus random tuples.

    Exhaustive over increasing basis tuples while their count fits
    `max_tuples`; beyond that, a seeded uniform sample of that size.
    Residuals are exact, so any failure produces a concrete witness.
    """
    text = (cochain.ctx.vector_text if cochain.domain == "finite"
            else methodcaller("text"))
    return seeded_check(
        name or f"cocycle:{cochain.name}", _domain_elements(cochain, radius),
        cochain.degree + 1,
        lambda *args: ce_apply(cochain, args),
        seed=seed, budget=max_tuples, samples=samples,
        random_element=lambda rng: _random_domain_element(cochain, rng, radius),
        params=dict(cochain.spec_dict(), radius=radius), text=text)


def check_maurer_cartan(coframe: Sequence[PForm], name: str = "maurer_cartan",
                        params: dict | None = None) -> CheckReport:
    """Check the abelian Maurer-Cartan equation d kappa^a = 0.

    The frame coframe is closed in both models, so it passes; a non-flat
    coframe yields an explicit failing residual.
    """
    return run_check(name, params or {}, ((a,) for a in range(len(coframe))), True,
                     lambda a: ext_d(coframe[a]), lambda a: coframe[a].text())


# -- finite-dimensional cohomology ------------------------------------------


def ce_matrix(lie: FiniteLieAlgebra, p: int):
    """Matrix of d: C^p -> C^(p+1) with trivial coefficients.

    Rows are indexed by p-subsets (the dual basis cochains), columns by
    (p+1)-subsets.  On a (p+1)-subset S,
    d psi_T(e_S) = sum_{i<j} (-1)^(i+j) psi_T([e_Si, e_Sj], e_rest), and
    psi_T(e_k, e_rest) is the sign that sorts k into rest when that gives
    T, so each nonzero structure constant adds one entry.
    """
    targets = list(combinations(range(lie.dim), p + 1))

    def entries():
        for S in targets:
            for i, j in combinations(range(p + 1), 2):
                rest = S[:i] + S[i + 1:j] + S[j + 1:]
                for k, coeff in lie.sparse.get((S[i], S[j]), ()):
                    if (signed := _merge_sign((k,), rest)) is not None:
                        sign, T = signed
                        yield T, S, (-1) ** (i + j) * sign * coeff

    return sparse_matrix(list(combinations(range(lie.dim), p)), targets, entries())


def betti_numbers(lie: FiniteLieAlgebra) -> list[int]:
    """dim H^p for p = 0..dim, trivial coefficients, exact arithmetic."""
    return cohomology_dims([comb(lie.dim, p) for p in range(lie.dim + 1)],
                           [ce_matrix(lie, p) for p in range(lie.dim)])


# -- cochain products ---------------------------------------------------------


def cochain_wedge(left: Cochain, right: Cochain, name: str | None = None) -> Cochain:
    """Shuffle-sum product of a class-valued and a form-valued cochain.

    (a ^ b)(x_1..x_{p+q}) = sum over (p,q)-shuffles sigma of
    sgn(sigma) * [a(x_{sigma(1..p)}) ^ b(x_{sigma(p+1..p+q)})].
    """
    if left.domain != right.domain or left.n != right.n or left.model != right.model:
        raise MismatchError("wedge factors live on different domains")
    if (left.values, right.values) != ("class", "form"):
        raise MismatchError(
            f"no product for value kinds ({left.values}, {right.values})")
    value_degree = left.value_degree + right.value_degree
    p, q = left.degree, right.degree

    def ev(*args):
        if len(args) != p + q:
            raise MismatchError(f"expected {p + q} arguments")
        total = FormClass.zero(left.n, left.model, value_degree)
        for picks in combinations(range(p + q), p):
            rest = tuple(i for i in range(p + q) if i not in picks)
            sign = (-1) ** (sum(picks) - p * (p - 1) // 2)
            val = reduce_mod_exact(left.evaluate(*(args[i] for i in picks)).rep
                                   .wedge(right.evaluate(*(args[i] for i in rest))))
            total = total + val if sign > 0 else total - val
        return total

    return Cochain(name or f"{left.name}^{right.name}", p + q, ev, left.domain,
                   "class", left.n, left.model, value_degree, left.ctx)


# -- equivariance and pullback ------------------------------------------------


def is_equivariant(cochain: Cochain, radius: int = 1, samples: int = 50,
                   seed: int = 7, max_tuples: int = 2000,
                   name: str | None = None) -> CheckReport:
    """For a gauge cochain with form/class values: the vector-field action
    commutes with evaluation,

        X . phi(u_1..u_k) = sum_j phi(u_1, ..., X.u_j, ..., u_k).

    The basis cases pair each of the `fields` basis fields with each gauge
    k-tuple (all of them, or a seeded sample of `max_gauge_tuples`), so the
    params name those counts rather than the basis_size/max_tuples of a
    plain tuple check.
    """
    if cochain.domain != "gauge":
        raise MismatchError("equivariance applies to gauge cochains")
    check_name = name or f"equivariant:{cochain.name}"
    rng = check_rng(seed, check_name)
    ctx: GaugeContext = cochain.ctx
    act = module_action("fields", cochain.values) or (lambda x, v: 0)
    fields = basis_fields(cochain.model, cochain.n, radius)
    gauge = ctx.basis_elements(model_modes(cochain.model, cochain.n, radius))
    k = cochain.degree
    params = {"radius": radius, "samples": samples, "seed": seed, "arity": k + 1,
              "fields": len(fields), "gauge_size": len(gauge),
              "max_gauge_tuples": max_tuples}

    def residual(x, *us):
        lhs = act(x, cochain.evaluate(*us))
        for j in range(k):
            shifted = us[:j] + (ctx.outer(x, us[j]),) + us[j + 1:]
            lhs = lhs - cochain.evaluate(*shifted)
        return lhs

    gauge_tuples, exhaustive = seeded_cases(rng, gauge, k, max_tuples, 0, None)
    basis = ((x,) + us for us in gauge_tuples for x in fields)
    drawn = ((random_field(rng, cochain.model, cochain.n, radius),)
             + tuple(ctx.random_element(rng, radius) for _ in range(k))
             for _ in range(samples))
    return run_check(check_name, params, chain(basis, drawn), exhaustive, residual)


def matrix_to_gauge(ctx: GaugeContext, m: MatrixFunction) -> GaugeElement:
    """Expand a matrix function over the E_{ab} basis of gl_n."""
    size = ctx.rep_size
    if ctx.lie.dim != size * size:
        raise MismatchError("matrix_to_gauge needs the full gl context")
    if m.n != size:
        raise MismatchError("matrix size does not match the representation")
    if (m.n, m.model) != (ctx.n, ctx.model):
        raise MismatchError("matrix ring does not match the context's ring")
    return GaugeElement._trusted(ctx, {i * size + j: f for (i, j), f in m.terms.items()})


def pullback_by_crossed_hom(cochain: Cochain,
                            theta: Callable[[VectorField], MatrixFunction],
                            name: str | None = None) -> Cochain:
    """Precompose a gauge cochain with a crossed homomorphism into gl_n."""
    if cochain.domain != "gauge":
        raise MismatchError("pullback applies to gauge cochains")
    ctx: GaugeContext = cochain.ctx

    def ev(*fields_args):
        gauge_args = tuple(matrix_to_gauge(ctx, theta(x)) for x in fields_args)
        return cochain.evaluate(*gauge_args)

    return Cochain(name or f"pullback({cochain.name})", cochain.degree, ev,
                   "fields", cochain.values, cochain.n, cochain.model,
                   cochain.value_degree)
