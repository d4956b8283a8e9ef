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
  and a closed 1-form, where tr = reduced_trace_cocycle(1) = -div.
* odd_trace_cocycle(k): the classical odd trace cocycle on a
  finite-dimensional matrix algebra, the finite ordered trace sum
  sum_s sgn(s) Tr(rho(x_s(1)) ... rho(x_s(2k-1))) of its arguments.
* gauge_odd_trace, gauge_form_trace, gauge_reduced_trace: the families
  on the gauge algebra F tensor g, each the F-linear extension of a finite
  ordered trace sum.  Expanding u_i = sum_a f_{i,a} x_a multilinearly
  gives sum over a_1..a_k of factor(a) w_1 ^ ... ^ w_k, the factor the
  signed sum over orderings of Tr(rho(x_{a_1}) ... rho(x_{a_k})) for the
  odd trace (w_i = f_{i,a_i}) and the unsigned one for the form traces,
  whose antisymmetry lives entirely in w_i = df_{i,a_i} (and f_{1,a_1}
  for the reduced family).  Pulled back along neg_jacobian they give
  scalar_trace_cocycle, form_trace_cocycle and reduced_trace_cocycle.
  They share no code with the standard polynomial, the memo or the
  `MatrixFunction` product on purpose: the relation:pullback-* checks
  compare the odd and reduced ones with their vector-field families, and
  a shared routine would only check itself.

The scalar, form and reduced traces each keep a private memo
(`_TraceMemo`) of the per-field matrices u(X) or du(X) and of the partial
sums of S, keyed by the content of the fields: n and model (equal terms
over the torus and over affine space are different fields) and the terms
of each coefficient.  A coboundary residual evaluates its cochain on
overlapping sub-tuples of one tuple and on brackets of its members, and
through the memo those evaluations build each shared matrix and partial
sum once.  scalar_trace[1] and reduced_trace[1] skip the memo: the
evaluations of one residual never share a field there.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Callable, Sequence

from .cohomology import Cochain, GaugeContext, cochain_wedge
from .fields import MatrixFunction, VectorField, divergence, neg_jacobian
from .forms import PForm, contract, ext_d, reduce_mod_exact
from .linalg import mat_mul
from .rings import TORUS, MismatchError, RingElement, _collect, model_modes


def perm_sign(perm: Sequence[int]) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def _field_key(x: VectorField) -> tuple:
    """Content key of a field: its ring, then the set of its frame indices,
    each with the terms of its coefficient, so neither dict order counts.

    The ring is part of the key because equal terms over another ring make
    another field: a torus field and an affine field with the same terms
    have different Jacobians, and must not share a memo entry.
    """
    return (x.n, x.model,
            frozenset((j, frozenset(f.terms.items())) for j, f in x.terms.items()))


class _TraceMemo:
    """First-in-first-out memo private to one trace cochain.

    It holds the matrices of single fields under their `_field_key`, and
    the partial sums of the standard polynomial under the tuple of their
    fields' keys, in order, because S is alternating.  The bound,
    2^(arity+2) entries, holds the working set of one coboundary residual:
    the p + 1 + C(p + 1, 2) evaluations that `ce_apply` makes on one
    (p+1)-tuple, p the arity, then share every u(X) and every partial sum
    they have in common.  That holds for every scalar trace and for the
    form and reduced traces up to k = 3; reduced_trace[4] needs 95 entries
    against its 64, and the entries evicted first are rebuilt.
    """

    __slots__ = ("bound", "entries")

    def __init__(self, arity: int):
        self.bound = 2 ** (arity + 2)
        self.entries: dict = {}

    def get(self, key, build: Callable, *args):
        """The entry under key, built as build(*args) when missing."""
        got = self.entries.get(key)
        if got is None:
            got = build(*args)
            if len(self.entries) >= self.bound:
                del self.entries[next(iter(self.entries))]
            self.entries[key] = got
        return got

    def per_field(self, fields: Sequence[VectorField], build: Callable) -> tuple[list, list]:
        """The keys of the fields and build(x) for each field x."""
        keys = [_field_key(x) for x in fields]
        return keys, [self.get(key, build, x) for key, x in zip(keys, fields)]


def _signed(value, pos: int):
    """The terms of (-1)^pos value."""
    terms = value.terms.items()
    return terms if pos % 2 == 0 else ((key, -c) for key, c in terms)


def _standard_polynomial(mats: Sequence[MatrixFunction], keys: Sequence,
                         memo: _TraceMemo,
                         first: Sequence[MatrixFunction] | None = None,
                         degree: int | None = None) -> MatrixFunction | PForm:
    """S_r(A_1, ..., A_r) = sum over orderings of sgn * A_s(1) ... A_s(r).

    Expanded along the first factor, S(T) = sum_{pos, i in T} (-1)^pos
    A_i S(T minus i), with pos the place of i in T: one `@` per product,
    its entries added with their signs into one term dict per entry.  S of
    every sub-tuple of two or more factors is kept in `memo` under the
    tuple of its factors' keys, so each is built once for all the
    evaluations that share it; a zero one makes every product taken with
    it an empty loop.
    With `first`, the leftmost factor of each ordering is F_s(1) instead of
    A_s(1), and the value is the trace, a `degree`-form, of that sum:
    sum_{pos, i} (-1)^pos Tr(F_i S(T minus i)) through `trace_product`.
    It builds no entry of the whole sum, which no other evaluation shares.
    Only associativity is used, so the entries may be forms.
    """

    def tail(idx: tuple[int, ...]) -> MatrixFunction:
        if len(idx) == 1:
            return mats[idx[0]]
        return memo.get(tuple(keys[i] for i in idx), expand, idx)

    def expand(idx: tuple[int, ...]) -> MatrixFunction:
        sums: dict = {}
        for pos, i in enumerate(idx):
            for key, f in (mats[i] @ tail(idx[:pos] + idx[pos + 1:])).terms.items():
                _collect(_signed(f, pos), sums.setdefault(key, {}))
        # Every entry of S(idx) has the type and degree of the last one, f.
        return MatrixFunction._trusted(mats[0].n, mats[0].model,
                                       {key: f._like(t) for key, t in sums.items() if t})

    whole = tuple(range(len(mats)))
    if first is None:
        return tail(whole)
    if len(whole) == 1:
        return first[0].trace(degree)
    out: dict = {}
    for pos, i in enumerate(whole):
        value = first[i].trace_product(tail(whole[:pos] + whole[pos + 1:]), degree)
        _collect(_signed(value, pos), out)
    return value._like(out)


def _thetas(x: VectorField) -> tuple[MatrixFunction, MatrixFunction]:
    """u(X) with its entries as 0-forms, and du(X), a matrix of 1-forms."""
    theta = neg_jacobian(x).entrywise(PForm.from_ring)
    return theta, theta.entrywise(ext_d)


def form_trace_cocycle(k: int, n: int, model: str) -> Cochain:
    """k-cochain with k-form values: Tr S_k(du(X_1), ..., du(X_k))."""
    if not 1 <= k <= n:
        raise MismatchError(f"form trace needs 1 <= k <= {n}, got {k}")
    memo = _TraceMemo(k)

    def ev(*fields):
        keys, pairs = memo.per_field(fields, _thetas)
        mats = [dtheta for _, dtheta in pairs]
        if any(m.is_zero() for m in mats):
            return PForm.zero(n, model, k)
        # Passing the du(X_i) as first factors too keeps the whole S_k,
        # this evaluation's own value, out of the memo.
        return _standard_polynomial(mats, keys, memo, first=mats, degree=k)

    return Cochain(f"form_trace[{k}]", k, ev, "fields", "form", n, model,
                   value_degree=k, spec={"k": k})


def reduced_trace_cocycle(k: int, n: int, model: str) -> Cochain:
    """k-cochain valued in (k-1)-forms mod exact:
    [Tr S_k(du(X_1), ..., du(X_k)) with u(X_s(1)) as the first factor]."""
    if not (1 <= k and k - 1 <= n):
        raise MismatchError(f"reduced trace needs k - 1 <= {n}, got {k}")
    memo = _TraceMemo(k)

    def ev(*fields):
        if k == 1:
            return reduce_mod_exact(PForm.from_ring(neg_jacobian(fields[0]).trace()))
        keys, pairs = memo.per_field(fields, _thetas)
        thetas, dthetas = zip(*pairs)
        return reduce_mod_exact(
            _standard_polynomial(dthetas, keys, memo, first=thetas, degree=k - 1))

    return Cochain(f"reduced_trace[{k}]", k, ev, "fields", "class", n, model,
                   value_degree=k - 1, spec={"k": k})


def scalar_trace_cocycle(k: int, n: int, model: str) -> Cochain:
    """(2k-1)-cochain with function values: alternating Tr of u-products.

    The alternating sum over all (2k-1)! orderings equals
    (2k-1) Tr(u(X_1) S_{2k-2}(u(X_2), ..., u(X_{2k-1}))): rotating an
    ordering until X_1 comes first is an even permutation (a cycle of odd
    length) and leaves the trace unchanged, so each ordering that starts
    with X_1 stands for 2k-1 equal terms.  The cochain's memo shares the
    u(X) and the partial sums of S between the evaluations of one
    coboundary residual: at k = 3, the 21 evaluations on one 6-tuple make
    21 Jacobians and 171 matrix products, where one at a time they make
    105 and 609 (29 products each, against the 480 of the plain sum).
    """
    if k < 1:
        raise MismatchError("k must be positive")
    arity = 2 * k - 1
    memo = _TraceMemo(arity)

    def ev(*fields):
        if arity == 1:  # one Jacobian per evaluation: nothing to share
            return neg_jacobian(fields[0]).trace()
        keys, mats = memo.per_field(fields, neg_jacobian)
        if any(m.is_zero() for m in mats):
            return RingElement.zero(n, model)
        return arity * mats[0].trace_product(_standard_polynomial(mats[1:], keys[1:], memo))

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

    def ev(x, y):
        value = contract(y, contract(x, alpha)).as_ring()
        bx = contract(x, beta).as_ring()
        by = contract(y, beta).as_ring()
        return value - bx * divergence(y) + by * divergence(x)

    return Cochain(name or "closed_pair", 2, ev, "fields", "ring", n, model,
                   spec={"alpha": alpha.text(), "beta": beta.text()})


# -- gauge algebra and finite families ---------------------------------------


def _ordered_trace_sum(mats: Sequence, signed: bool):
    """sum over orderings s of [sgn s] Tr(M_s(1) ... M_s(m)), for dense
    constant matrices; positions count as distinct, so repeats are kept."""
    total = 0
    for perm in permutations(range(len(mats))):
        acc = mats[perm[0]]
        for i in perm[1:]:
            acc = mat_mul(acc, mats[i])
        term = sum(acc[i][i] for i in range(len(acc)))
        total += perm_sign(perm) * term if signed else term
    return total


def _slot(u, differential: bool) -> list[tuple[int, PForm]]:
    """The nonzero pairs (a, f_a), or (a, d f_a), of u = sum_a f_a x_a."""
    pairs = []
    for a, f in u.terms.items():
        w = ext_d(PForm.from_ring(f)) if differential else PForm.from_ring(f)
        if not w.is_zero():
            pairs.append((a, w))
    return pairs


def _gauge_sum(ctx: GaugeContext, slots: Sequence, degree: int, signed: bool,
               cache: dict) -> PForm:
    """sum over a_1..a_k of factor(a) w_1 ^ ... ^ w_k, with (a_i, w_i) drawn
    from slot i and the factor the `_ordered_trace_sum` of rho(x_{a_1}), ...,
    rho(x_{a_k}), cached under the sorted indices (symmetric) or the ordered
    ones (signed).  The wedge starts from slot 0's forms, not from the unit
    0-form, and the last wedge is made only where the factor is nonzero."""
    total = PForm.zero(ctx.n, ctx.model, degree)

    def rec(i: int, indices: tuple[int, ...], acc: PForm | None):
        nonlocal total
        for a, w in slots[i]:
            idx = indices + (a,)
            if i + 1 < len(slots):
                nxt = w if acc is None else acc.wedge(w)
                if not nxt.is_zero():
                    rec(i + 1, idx, nxt)
                continue
            key = idx if signed else tuple(sorted(idx))
            factor = cache.get(key)
            if factor is None:
                factor = cache[key] = _ordered_trace_sum([ctx.rep[b] for b in key], signed)
            if factor:
                total = total + (w if acc is None else acc.wedge(w)).scale(factor)

    rec(0, (), None)
    return total


def gauge_form_trace(k: int, ctx: GaugeContext) -> Cochain:
    """k-cochain on F tensor g valued in k-forms: the F-linear extension of
    the symmetric trace sum, sum_a (sym Tr rho(x_a)) df_{1,a_1} ^ ... ^ df_{k,a_k}."""
    if not 1 <= k <= ctx.n:
        raise MismatchError(f"gauge form trace needs 1 <= k <= {ctx.n}")
    cache: dict = {}

    def ev(*elements):
        slots = [_slot(u, True) for u in elements]
        return _gauge_sum(ctx, slots, k, False, cache)

    return Cochain(f"gauge_form_trace[{k}]", k, ev, "gauge", "form",
                   ctx.n, ctx.model, value_degree=k, ctx=ctx, spec={"k": k})


def gauge_reduced_trace(k: int, ctx: GaugeContext) -> Cochain:
    """k-cochain on F tensor g valued in (k-1)-forms mod exact: the same sum
    with f_1 in place of df_1, [sum_a (sym Tr rho(x_a)) f_{1,a_1} df_{2,a_2} ^ ...]."""
    if not (1 <= k and k - 1 <= ctx.n):
        raise MismatchError(f"gauge reduced trace needs k - 1 <= {ctx.n}")
    cache: dict = {}

    def ev(first, *rest):
        slots = [_slot(first, False)] + [_slot(u, True) for u in rest]
        return reduce_mod_exact(_gauge_sum(ctx, slots, k - 1, False, cache))

    return Cochain(f"gauge_reduced_trace[{k}]", k, ev, "gauge", "class",
                   ctx.n, ctx.model, value_degree=k - 1, ctx=ctx, spec={"k": k})


def gauge_odd_trace(k: int, ctx: GaugeContext) -> Cochain:
    """F-linear extension of the odd trace cocycle to F tensor g:
    sum_a (sum_s sgn s Tr rho(x_{a_s(1)}) ...) f_{1,a_1} ... f_{m,a_m}."""
    arity = 2 * k - 1
    cache: dict = {}

    def ev(*elements):
        slots = [_slot(u, False) for u in elements]
        return _gauge_sum(ctx, slots, 0, True, cache).as_ring()

    return Cochain(f"gauge_odd_trace[{k}]", arity, ev, "gauge", "ring",
                   ctx.n, ctx.model, ctx=ctx, spec={"k": k})


def odd_trace_cocycle(k: int, lie, rep: Sequence) -> Cochain:
    """Odd trace cocycle on a finite-dimensional algebra through rep:
    the signed `_ordered_trace_sum` of the dense rho(x_i)."""
    arity = 2 * k - 1
    size = len(rep[0])

    def ev(*vectors):
        return _ordered_trace_sum(
            [[[sum(c * rep[a][i][j] for a, c in enumerate(x) if c)
               for j in range(size)] for i in range(size)] for x in vectors],
            signed=True)

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
    for mode in model_modes(TORUS, n, radius):
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

