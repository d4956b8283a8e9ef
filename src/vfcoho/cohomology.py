"""Chevalley-Eilenberg machinery.

The differential of a p-cochain psi with values in a module is

    d psi(x_0, ..., x_p) = sum_i (-1)^i x_i . psi(..., no x_i, ...)
                         + sum_{i<j} (-1)^{i+j} psi([x_i, x_j], ..., no x_i, x_j, ...)

`ce_apply` evaluates that formula for any of the three domains used here
(vector fields, gauge algebras F tensor g, finite-dimensional algebras)
and any of the four value kinds (ring element, form, reduced-form class,
plain scalar).  Vector-field cochains act through the derivation / Lie
derivative; gauge and finite domains treat values as trivial modules.

`betti_numbers` computes full cohomology of a finite-dimensional algebra
with trivial coefficients by exact rank counting, and `cochain_wedge`
multiplies a class-valued by a form-valued cochain by the shuffle sum,
which agrees with the 1/(p! q!)-normalized alternation over the whole
symmetric group.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, combinations
from math import comb
from operator import methodcaller
from typing import Callable, Sequence

from .fields import MatrixFunction, VectorField, field_action
from .forms import (FormClass, PForm, _insert_sign, ext_d, lie_derive,
                    reduce_mod_exact)
from .linalg import cohomology_dims, mat_mul, sparse_matrix
from .reports import CheckReport
from .rings import MismatchError, RingElement, as_scalar
from .sampling import (basis_fields, check_rng, model_modes, random_field,
                       random_ring, random_scalar, run_check, seeded_cases,
                       seeded_check)

Scalar = int | Fraction
Vector = tuple[Scalar, ...]


class FiniteLieAlgebra:
    """Finite-dimensional Lie algebra given by structure constants.

    `c[a][b][k]` is the coefficient of the k-th basis element in
    [x_a, x_b].  Antisymmetry and the Jacobi identity are validated at
    construction time, exactly.
    """

    def __init__(self, structure: Sequence[Sequence[Sequence]], names: Sequence[str] | None = None):
        dim = len(structure)
        c = tuple(tuple(tuple(as_scalar(v) for v in row) for row in plane)
                  for plane in structure)
        for a in range(dim):
            if len(c[a]) != dim or any(len(c[a][b]) != dim for b in range(dim)):
                raise MismatchError("structure constants must be dim x dim x dim")
        for a in range(dim):
            for b in range(dim):
                if any(c[a][b][k] + c[b][a][k] for k in range(dim)):
                    raise MismatchError(f"structure constants not antisymmetric at ({a},{b})")
        for a in range(dim):
            for b in range(a + 1, dim):
                for d in range(b + 1, dim):
                    for k in range(dim):
                        acc = 0
                        for m in range(dim):
                            acc += c[a][b][m] * c[m][d][k]
                            acc += c[b][d][m] * c[m][a][k]
                            acc += c[d][a][m] * c[m][b][k]
                        if acc:
                            raise MismatchError(
                                f"Jacobi identity fails on basis triple ({a},{b},{d})")
        self.dim = dim
        self.c = c
        self.names = tuple(names) if names else tuple(f"x{i}" for i in range(dim))

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
        for a, xa in enumerate(x):
            if not xa:
                continue
            for b, yb in enumerate(y):
                if not yb:
                    continue
                row = self.c[a][b]
                for k in range(self.dim):
                    if row[k]:
                        out[k] += xa * yb * row[k]
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
            left = mat_mul([list(r) for r in rep[a]], [list(r) for r in rep[b]])
            right = mat_mul([list(r) for r in rep[b]], [list(r) for r in rep[a]])
            comm = [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(left, right)]
            want = [[0] * size for _ in range(size)]
            for k, coeff in enumerate(lie.c[a][b]):
                if coeff:
                    for i in range(size):
                        for j in range(size):
                            want[i][j] += coeff * rep[k][i][j]
            if comm != want:
                raise MismatchError(f"representation fails on basis pair ({a},{b})")


class GaugeContext:
    """The gauge algebra F tensor g with a faithful matrix representation.

    Elements are coefficient tuples over the basis of g; the bracket is
    pointwise: [f x_a, g x_b] = (fg) [x_a, x_b].
    """

    def __init__(self, lie: FiniteLieAlgebra, rep: Sequence, n: int, model: str):
        validate_rep(lie, rep)
        self.lie = lie
        self.rep = tuple(tuple(tuple(row) for row in m) for m in rep)
        self.rep_size = len(rep[0])
        self.n = n
        self.model = model
        sparse: dict[tuple[int, int], list[tuple[int, Scalar]]] = {}
        for a in range(lie.dim):
            for b in range(lie.dim):
                row = [(k, v) for k, v in enumerate(lie.c[a][b]) if v]
                if row:
                    sparse[(a, b)] = row
        self._sparse = sparse

    def zero(self) -> "GaugeElement":
        return GaugeElement(self, tuple(RingElement.zero(self.n, self.model)
                                        for _ in range(self.lie.dim)))

    def element(self, coeffs: Sequence[RingElement]) -> "GaugeElement":
        return GaugeElement(self, tuple(coeffs))

    def basis_element(self, mode, a: int) -> "GaugeElement":
        coeffs = [RingElement.zero(self.n, self.model) for _ in range(self.lie.dim)]
        coeffs[a] = RingElement.monomial(self.n, self.model, mode)
        return GaugeElement(self, tuple(coeffs))

    def basis_elements(self, modes: Sequence) -> list["GaugeElement"]:
        return [self.basis_element(m, a) for m in modes for a in range(self.lie.dim)]

    def bracket(self, u: "GaugeElement", v: "GaugeElement") -> "GaugeElement":
        out = [RingElement.zero(self.n, self.model) for _ in range(self.lie.dim)]
        for (a, b), row in self._sparse.items():
            ua, vb = u.coeffs[a], v.coeffs[b]
            if ua.is_zero() or vb.is_zero():
                continue
            prod = ua * vb
            for k, coeff in row:
                out[k] = out[k] + coeff * prod
        return GaugeElement(self, tuple(out))

    def outer(self, x: VectorField, u: "GaugeElement") -> "GaugeElement":
        """Action of a vector field through its derivation on coefficients."""
        return GaugeElement(self, tuple(field_action(x, f) for f in u.coeffs))

    def random_element(self, rng: random.Random, radius: int) -> "GaugeElement":
        coeffs = [RingElement.zero(self.n, self.model) for _ in range(self.lie.dim)]
        for _ in range(2):
            a = rng.randrange(self.lie.dim)
            coeffs[a] = coeffs[a] + random_ring(rng, self.model, self.n, radius, terms=1)
        return GaugeElement(self, tuple(coeffs))


class GaugeElement:
    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: GaugeContext, coeffs: tuple[RingElement, ...]):
        self.ctx = ctx
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaugeElement):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def __add__(self, other: "GaugeElement") -> "GaugeElement":
        return GaugeElement(self.ctx, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "GaugeElement") -> "GaugeElement":
        return GaugeElement(self.ctx, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "GaugeElement":
        return GaugeElement(self.ctx, tuple(-a for a in self.coeffs))

    def scale(self, c) -> "GaugeElement":
        return GaugeElement(self.ctx, tuple(c * a for a in self.coeffs))

    def text(self) -> str:
        parts = [f"({f.text()}) {self.ctx.lie.names[a]}"
                 for a, f in enumerate(self.coeffs) if not f.is_zero()]
        return " + ".join(parts) if parts else "0"


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


def module_action(cochain: Cochain) -> Callable:
    """How a domain element acts on the cochain's values."""
    if cochain.domain != "fields" or cochain.values == "scalar":
        zero = zero_value(cochain.values, cochain.n, cochain.model, cochain.value_degree)
        return lambda x, v: zero
    if cochain.values == "ring":
        return field_action
    if cochain.values == "form":
        return lie_derive
    return lambda x, c: reduce_mod_exact(lie_derive(x, c.rep))


def domain_bracket(cochain: Cochain) -> Callable:
    if cochain.domain == "fields":
        return lambda x, y: x.bracket(y)
    if cochain.domain == "gauge":
        return cochain.ctx.bracket
    return lambda x, y: cochain.ctx.bracket(x, y)  # FiniteLieAlgebra


def ce_apply(cochain: Cochain, args: Sequence, action: Callable | None = None,
             bracket_fn: Callable | None = None):
    """Evaluate the Chevalley-Eilenberg differential of `cochain` on args."""
    p = cochain.degree
    if len(args) != p + 1:
        raise MismatchError(f"d of a {p}-cochain takes {p + 1} arguments")
    action = action or module_action(cochain)
    bracket_fn = bracket_fn or domain_bracket(cochain)
    total = zero_value(cochain.values, cochain.n, cochain.model, cochain.value_degree)
    for i, x in enumerate(args):
        rest = args[:i] + args[i + 1:]
        inner = cochain.evaluate(*rest)
        acted = action(x, inner)
        total = total + acted if i % 2 == 0 else total - acted
    for i in range(p + 1):
        for j in range(i + 1, p + 1):
            rest = tuple(a for k, a in enumerate(args) if k != i and k != j)
            val = cochain.evaluate(bracket_fn(args[i], args[j]), *rest)
            total = total - val if (i + j) % 2 == 1 else total + val
    return total


def cochain_differential(cochain: Cochain, name: str | None = None) -> Cochain:
    action = module_action(cochain)
    bracket_fn = domain_bracket(cochain)

    def ev(*args):
        return ce_apply(cochain, args, action, bracket_fn)

    return Cochain(name or f"d({cochain.name})", cochain.degree + 1, ev,
                   cochain.domain, cochain.values, cochain.n, cochain.model,
                   cochain.value_degree, cochain.ctx)


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
    action = module_action(cochain)
    bracket_fn = domain_bracket(cochain)
    text = (cochain.ctx.vector_text if cochain.domain == "finite"
            else methodcaller("text"))
    return seeded_check(
        name or f"cocycle:{cochain.name}", _domain_elements(cochain, radius),
        cochain.degree + 1,
        lambda *args: ce_apply(cochain, args, action, bracket_fn),
        seed=seed, budget=max_tuples, samples=samples,
        random_element=lambda rng: _random_domain_element(cochain, rng, radius),
        params=dict(cochain.spec_dict(), radius=radius), text=text)


def check_maurer_cartan(coframe: Sequence[PForm],
                        structure: Sequence[Sequence[Sequence]] | None = None,
                        name: str = "maurer_cartan",
                        params: dict | None = None) -> CheckReport:
    """Check d kappa^a + 1/2 sum c^a_{bc} kappa^b ^ kappa^c = 0.

    `structure[b][c][a]` are structure constants; None means abelian.
    The frame coframe is closed and abelian, so it passes with zero
    structure; a non-flat coframe yields an explicit failing residual.
    """
    k = len(coframe)

    def residual(a: int) -> PForm:
        out = ext_d(coframe[a])
        if structure is not None:
            for b in range(k):
                for c in range(k):
                    coeff = structure[b][c][a]
                    if coeff:
                        out = out + coframe[b].wedge(coframe[c]).scale(
                            Fraction(coeff, 2))
        return out

    return run_check(name, params or {}, ((a,) for a in range(k)), True,
                     residual, lambda a: coframe[a].text())


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
                for k, coeff in enumerate(lie.c[S[i]][S[j]]):
                    if not coeff or k in rest:
                        continue
                    sign, T = _insert_sign(k, rest)
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
    fields_cochain = Cochain("_", 0, lambda: None, "fields", cochain.values,
                             cochain.n, cochain.model, cochain.value_degree)
    act = module_action(fields_cochain)
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
    if m.size != size:
        raise MismatchError("matrix size does not match the representation")
    coeffs = [RingElement.zero(ctx.n, ctx.model) for _ in range(ctx.lie.dim)]
    for (i, j), f in m.entries.items():
        coeffs[i * size + j] = f
    return GaugeElement(ctx, tuple(coeffs))


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
