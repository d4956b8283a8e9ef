"""The cocycle families.

Everything here is built from the crossed homomorphism u = neg_jacobian
and the exterior calculus of the frame:

* scalar_trace_cocycle(k): (2k-1)-cochain, functions as values,
  alternating sum of Tr(u(X_1) ... u(X_{2k-1})).  It is evaluated as
  m Tr(u(X_1) S_{m-1}(u(X_2), ..., u(X_m))) with m = 2k-1 and S the
  standard polynomial: a cyclic rotation of odd length is an even
  permutation and the trace is cyclic, so the m! orderings fall into
  (m-1)! rotation classes of m equal terms, one per ordering that starts
  with X_1.  The identity is exact, not an approximation.
* form_trace_cocycle(k): k-cochain valued in k-forms, alternating sum of
  Tr(du(X_1) ^ ... ^ du(X_k)).  With du(X) a `MatrixFunction` of 1-forms
  this is Tr S_k(du(X_1), ..., du(X_k)) as it stands: the standard
  polynomial is that alternating sum of wedge products.
* reduced_trace_cocycle(k): k-cochain valued in (k-1)-forms modulo exact,
  alternating sum of [Tr(u(X_1) du(X_2) ^ ... ^ du(X_k))].  Grouping the
  orderings by their first argument X_i, whose place costs the sign
  (-1)^i, gives sum_i (-1)^i Tr(u(X_i) S_{k-1}(du(X_j), j != i)): the
  first-factor expansion of S_k with u(X_i) as the leftmost factor, which
  uses associativity only and no cyclicity of the trace.  Applying the
  exterior differential to its representatives gives form_trace_cocycle.
* contraction_cocycle(omega, p): iterated interior product of a closed
  form, [i_{X_p} ... i_{X_1} omega].
* closed_pair_cocycle(alpha, beta): function-valued 2-cocycle
  alpha(X,Y) + beta(X) tr(Y) - beta(Y) tr(X) built from a closed 2-form
  and a closed 1-form, where tr = reduced_trace_cocycle(1).
* gauge_form_trace / gauge_reduced_trace: the analogues on the gauge
  algebra F tensor g.  The trace factor there is symmetrized (no sign),
  the antisymmetry lives entirely in the form factor.
* odd_trace_cocycle(k): the classical odd trace cocycles on a
  finite-dimensional matrix algebra, and gauge_odd_trace(k), their
  F-linear extension, whose pullback along neg_jacobian reproduces
  scalar_trace_cocycle exactly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from typing import Sequence

from .cohomology import Cochain, GaugeContext, cochain_wedge
from .fields import MatrixFunction, VectorField, divergence, neg_jacobian
from .forms import FormClass, PForm, contract, ext_d, reduce_mod_exact
from .linalg import mat_mul
from .rings import MismatchError, RingElement, box_modes


def perm_sign(perm: Sequence[int]) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def _standard_polynomial(mats: Sequence[MatrixFunction],
                         first: Sequence[MatrixFunction] | None = None) -> MatrixFunction:
    """S_r(A_1, ..., A_r) = sum over orderings of sgn * A_s(1) ... A_s(r).

    Expanded along the first factor, S(T) = sum_{pos, i in T} (-1)^pos
    A_i S(T minus i), with pos the place of i in T.  The partial sums are
    memoised by subset, so each is built once; a zero one makes every
    product taken with it an empty loop.  With `first`, the leftmost
    factor of each ordering is F_s(1) instead of A_s(1).  Only
    associativity is used, so the entries may be forms.
    """
    memo: dict[int, MatrixFunction] = {}

    def standard(mask: int, heads: Sequence[MatrixFunction]) -> MatrixFunction:
        total = None
        for pos, i in enumerate(i for i in range(len(heads)) if mask >> i & 1):
            rest = mask & ~(1 << i)
            term = heads[i] @ tail(rest) if rest else heads[i]
            if total is None:
                total = term
            else:
                total = total + term if pos % 2 == 0 else total - term
        return total

    def tail(mask: int) -> MatrixFunction:
        got = memo.get(mask)
        if got is None:
            got = memo[mask] = standard(mask, mats)
        return got

    return standard((1 << len(mats)) - 1, mats if first is None else first)


def _form_trace(m: MatrixFunction, degree: int) -> PForm:
    return sum((w for (i, j), w in m.entries.items() if i == j),
               PForm.zero(m.n, m.model, degree))


def _theta_form(x: VectorField) -> MatrixFunction:
    """u(X) with its entries as 0-forms."""
    return neg_jacobian(x).entrywise(PForm.from_ring)


def form_trace_cocycle(k: int, n: int, model: str) -> Cochain:
    """k-cochain with k-form values: Tr S_k(du(X_1), ..., du(X_k))."""
    if not 1 <= k <= n:
        raise MismatchError(f"form trace needs 1 <= k <= {n}, got {k}")

    def ev(*fields):
        mats = [_theta_form(x).entrywise(ext_d) for x in fields]
        if any(m.is_zero() for m in mats):
            return PForm.zero(n, model, k)
        return _form_trace(_standard_polynomial(mats), k)

    return Cochain(f"form_trace[{k}]", k, ev, "fields", "form", n, model,
                   value_degree=k, spec={"k": k})


def reduced_trace_cocycle(k: int, n: int, model: str) -> Cochain:
    """k-cochain valued in (k-1)-forms mod exact:
    [Tr S_k(du(X_1), ..., du(X_k)) with u(X_s(1)) as the first factor]."""
    if not (1 <= k and k - 1 <= n):
        raise MismatchError(f"reduced trace needs k - 1 <= {n}, got {k}")

    def ev(*fields):
        if k == 1:
            return reduce_mod_exact(PForm.from_ring(neg_jacobian(fields[0]).trace()))
        thetas = [_theta_form(x) for x in fields]
        dthetas = [t.entrywise(ext_d) for t in thetas]
        return reduce_mod_exact(
            _form_trace(_standard_polynomial(dthetas, first=thetas), k - 1))

    return Cochain(f"reduced_trace[{k}]", k, ev, "fields", "class", n, model,
                   value_degree=k - 1, spec={"k": k})


def scalar_trace_cocycle(k: int, n: int, model: str) -> Cochain:
    """(2k-1)-cochain with function values: alternating Tr of u-products.

    The alternating sum over all (2k-1)! orderings equals
    (2k-1) Tr(u(X_1) S_{2k-2}(u(X_2), ..., u(X_{2k-1}))): rotating an
    ordering until X_1 comes first is an even permutation (a cycle of odd
    length) and leaves the trace unchanged, so each ordering that starts
    with X_1 stands for 2k-1 equal terms.  At k = 3 this takes 29 matrix
    products instead of the 480 of the plain sum.
    """
    if k < 1:
        raise MismatchError("k must be positive")
    arity = 2 * k - 1

    def ev(*fields):
        mats = [neg_jacobian(x) for x in fields]
        if any(m.is_zero() for m in mats):
            return RingElement.zero(n, model)
        if arity == 1:
            return mats[0].trace()
        return arity * (mats[0] @ _standard_polynomial(mats[1:])).trace()

    return Cochain(f"scalar_trace[{k}]", arity, ev, "fields", "ring", n, model,
                   spec={"k": k})


def divergence_cochain(n: int, model: str) -> Cochain:
    """1-cocycle X |-> div X; equals minus the degree-1 trace cocycles."""
    return Cochain("divergence", 1, lambda x: divergence(x), "fields", "ring",
                   n, model)


def contraction_cocycle(omega: PForm, p: int, name: str | None = None) -> Cochain:
    """p-cochain [i_{X_p} ... i_{X_1} omega] for a closed form omega."""
    d_omega = ext_d(omega)
    if not d_omega.is_zero():
        raise MismatchError(
            f"contraction cocycle needs a closed form; d gives {d_omega.text()}")
    if not 0 < p <= omega.degree:
        raise MismatchError(f"contraction depth {p} out of range 1..{omega.degree}")

    def ev(*fields):
        w = omega
        for x in fields:
            w = contract(x, w)
        return reduce_mod_exact(w)

    return Cochain(name or f"contraction[{p}]", p, ev, "fields", "class",
                   omega.n, omega.model, value_degree=omega.degree - p,
                   spec={"p": p, "omega": omega.text()})


def closed_pair_cocycle(alpha: PForm, beta: PForm, name: str | None = None) -> Cochain:
    """Function-valued 2-cocycle from a closed 2-form and closed 1-form."""
    if alpha.degree != 2 or beta.degree != 1:
        raise MismatchError("need a 2-form and a 1-form")
    for w in (alpha, beta):
        if not ext_d(w).is_zero():
            raise MismatchError(f"closed form required; d gives {ext_d(w).text()}")
    n, model = alpha.n, alpha.model

    def tr(x: VectorField) -> RingElement:
        return neg_jacobian(x).trace()

    def ev(x, y):
        value = contract(y, contract(x, alpha)).as_ring()
        bx = contract(x, beta).as_ring()
        by = contract(y, beta).as_ring()
        return value + bx * tr(y) - by * tr(x)

    return Cochain(name or "closed_pair", 2, ev, "fields", "ring", n, model,
                   spec={"alpha": alpha.text(), "beta": beta.text()})


# -- gauge algebra families --------------------------------------------------


def _sym_trace_factor(ctx: GaugeContext, indices: tuple[int, ...],
                      cache: dict) -> Fraction | int:
    """sum over all orderings of Tr(rho(x_{a_1}) ... rho(x_{a_k}))."""
    key = tuple(sorted(indices))
    got = cache.get(key)
    if got is not None:
        return got
    total = 0
    for perm in permutations(key):
        acc = [list(r) for r in ctx.rep[perm[0]]]
        for a in perm[1:]:
            acc = mat_mul(acc, [list(r) for r in ctx.rep[a]])
        total += sum(acc[i][i] for i in range(len(acc)))
    cache[key] = total
    return total


def gauge_form_trace(k: int, ctx: GaugeContext) -> Cochain:
    """k-cochain on F tensor g valued in k-forms:
    (sym trace of rho's) * df_1 ^ ... ^ df_k."""
    if not 1 <= k <= ctx.n:
        raise MismatchError(f"gauge form trace needs 1 <= k <= {ctx.n}")
    cache: dict = {}

    def ev(*elements):
        slots = []
        for u in elements:
            nonzero = []
            for a, f in enumerate(u.coeffs):
                if f.is_zero():
                    continue
                d = ext_d(PForm.from_ring(f))
                if not d.is_zero():
                    nonzero.append((a, d))
            slots.append(nonzero)
        total = PForm.zero(ctx.n, ctx.model, k)
        if any(not s for s in slots):
            return total

        def rec(i: int, indices: tuple[int, ...], wedge_acc: PForm):
            nonlocal total
            if i == k:
                factor = _sym_trace_factor(ctx, indices, cache)
                if factor:
                    total = total + wedge_acc.scale(factor)
                return
            for a, d in slots[i]:
                nxt = d if i == 0 else wedge_acc.wedge(d)
                if i > 0 and nxt.is_zero():
                    continue
                rec(i + 1, indices + (a,), nxt)

        rec(0, (), PForm.zero(ctx.n, ctx.model, 0))
        return total

    return Cochain(f"gauge_form_trace[{k}]", k, ev, "gauge", "form",
                   ctx.n, ctx.model, value_degree=k, ctx=ctx, spec={"k": k})


def gauge_reduced_trace(k: int, ctx: GaugeContext) -> Cochain:
    """k-cochain on F tensor g valued in (k-1)-forms mod exact:
    (sym trace of rho's) * [f_1 df_2 ^ ... ^ df_k]."""
    if not (1 <= k and k - 1 <= ctx.n):
        raise MismatchError(f"gauge reduced trace needs k - 1 <= {ctx.n}")
    cache: dict = {}

    def ev(*elements):
        first = elements[0]
        tails = []
        for u in elements[1:]:
            nonzero = []
            for a, f in enumerate(u.coeffs):
                if f.is_zero():
                    continue
                d = ext_d(PForm.from_ring(f))
                if not d.is_zero():
                    nonzero.append((a, d))
            tails.append(nonzero)
        total = PForm.zero(ctx.n, ctx.model, k - 1)
        heads = [(a, PForm.from_ring(f)) for a, f in enumerate(first.coeffs)
                 if not f.is_zero()]
        if not heads or any(not t for t in tails):
            return FormClass.zero(ctx.n, ctx.model, k - 1)

        def rec(i: int, indices: tuple[int, ...], acc: PForm):
            nonlocal total
            if i == k - 1:
                factor = _sym_trace_factor(ctx, indices, cache)
                if factor:
                    total = total + acc.scale(factor)
                return
            for a, d in tails[i]:
                nxt = acc.wedge(d)
                if nxt.is_zero():
                    continue
                rec(i + 1, indices + (a,), nxt)

        for a, head in heads:
            rec(0, (a,), head)
        return reduce_mod_exact(total)

    return Cochain(f"gauge_reduced_trace[{k}]", k, ev, "gauge", "class",
                   ctx.n, ctx.model, value_degree=k - 1, ctx=ctx, spec={"k": k})


def gauge_odd_trace(k: int, ctx: GaugeContext) -> Cochain:
    """F-linear extension of the odd trace cocycle to F tensor g."""
    arity = 2 * k - 1

    def to_matrix(u) -> MatrixFunction:
        entries: dict[tuple[int, int], RingElement] = {}
        size = ctx.rep_size
        for a, f in enumerate(u.coeffs):
            if f.is_zero():
                continue
            for i in range(size):
                for j in range(size):
                    coeff = ctx.rep[a][i][j]
                    if coeff:
                        prev = entries.get((i, j))
                        val = coeff * f if prev is None else prev + coeff * f
                        entries[(i, j)] = val
        return MatrixFunction(ctx.n, ctx.model,
                              {k2: v for k2, v in entries.items() if not v.is_zero()},
                              size=size)

    def ev(*elements):
        mats = [to_matrix(u) for u in elements]
        total = RingElement.zero(ctx.n, ctx.model)
        if any(m.is_zero() for m in mats):
            return total
        for perm in permutations(range(arity)):
            acc = mats[perm[0]]
            for i in perm[1:]:
                if acc.is_zero():
                    break
                acc = acc @ mats[i]
            total = total + perm_sign(perm) * acc.trace()
        return total

    return Cochain(f"gauge_odd_trace[{k}]", arity, ev, "gauge", "ring",
                   ctx.n, ctx.model, ctx=ctx, spec={"k": k})


def odd_trace_cocycle(k: int, lie, rep: Sequence) -> Cochain:
    """Odd trace cocycle on a finite-dimensional algebra through rep."""
    arity = 2 * k - 1
    size = len(rep[0])

    def to_matrix(x):
        out = [[0] * size for _ in range(size)]
        for a, coeff in enumerate(x):
            if coeff:
                for i in range(size):
                    for j in range(size):
                        out[i][j] += coeff * rep[a][i][j]
        return out

    def ev(*vectors):
        total = 0
        mats = [to_matrix(x) for x in vectors]
        for perm in permutations(range(arity)):
            acc = mats[perm[0]]
            for i in perm[1:]:
                acc = mat_mul(acc, mats[i])
            total += perm_sign(perm) * sum(acc[i][i] for i in range(size))
        return total

    return Cochain(f"odd_trace[{k}]", arity, ev, "finite", "scalar",
                   1, "torus", ctx=lie, spec={"k": k, "rep_size": size})


# -- assembled generator families --------------------------------------------


def wedge_pair_cocycle(n: int, model: str) -> Cochain:
    """reduced_trace[1] ^ form_trace[1]: 2-cochain valued in 1-forms mod exact."""
    return cochain_wedge(reduced_trace_cocycle(1, n, model),
                         form_trace_cocycle(1, n, model),
                         name="wedge_pair")


def h2_reduced_one_form_generators(n: int, model: str = "torus") -> list[Cochain]:
    """Spanning cocycles for the 2-cochains valued in 1-forms mod exact:
    one contraction cocycle per basis closed 3-form, the wedge pair, and
    the degree-2 reduced trace."""
    gens: list[Cochain] = []
    for subset in combinations(range(1, n + 1), 3):
        omega = PForm.monomial(n, model, (0,) * n, subset)
        gens.append(contraction_cocycle(omega, 2, name=f"contraction[2]{list(subset)}"))
    gens.append(wedge_pair_cocycle(n, model))
    gens.append(reduced_trace_cocycle(2, n, model))
    return gens


# -- divergence-free restriction ----------------------------------------------


def divfree_basis(n: int, model: str, radius: int) -> list[VectorField]:
    """Constants plus the rotation family t^m (m_j E_i - m_i E_j), i < j."""
    fields = [VectorField.basis(n, model, (0,) * n, i) for i in range(1, n + 1)]
    for mode in box_modes(n, radius):
        if not any(mode):
            continue
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if mode[i - 1] == 0 and mode[j - 1] == 0:
                    continue
                x = (VectorField.basis(n, model, mode, i).scale(mode[j - 1]) -
                     VectorField.basis(n, model, mode, j).scale(mode[i - 1]))
                fields.append(x)
    return fields

