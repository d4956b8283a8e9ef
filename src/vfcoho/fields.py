"""Vector fields in a global frame, their bracket, and the matrix-valued
crossed homomorphism that drives all the trace cocycles.

A field is X = sum_i f_i E_i with exact coefficients.  The frame fields
commute in both models, so the bracket is

    [X, Y]_j = sum_i (f_i E_i(g_j) - g_i E_i(f_j)) = X.g_j - Y.f_j,

with the derivation action X.f of `forms.field_action`, which this module
re-exports.  `VectorField` is a `rings.Terms` keyed by the frame index j,
so a field stores only its nonzero coefficients and takes its sums,
negation, scaling and equality from `Terms`; its bracket collects
X.g_j - Y.f_j by `rings._collect`.

>>> from vfcoho.rings import TORUS
>>> VectorField.basis(2, TORUS, (1, 0), 2).bracket(
...     VectorField.basis(2, TORUS, (0, 1), 1)).text()
'(t^(1,1)) E_1 + (-1 * t^(1,1)) E_2'

`neg_jacobian` sends X to the matrix u(X)_{ij} = -E_j(f_i), the negative
Jacobian of the coefficient vector in the frame.  It satisfies

    u([X, Y]) = [u(X), u(Y)] + X.u(Y) - Y.u(X)

(a crossed homomorphism into matrix functions; the crossed-hom checks
evaluate `crossed_hom_residual` on sampled pairs), and its kernel is
exactly the constant fields.  Flipping the sign breaks the identity as
soon as two Jacobians fail to commute: matrices sit in different rows.

`MatrixFunction` is the one sparse matrix type: a `rings.Terms` whose
values are functions (`RingElement`) or forms (`PForm`), and the trace
cocycles take the products of both kinds through the same `@`, which
builds no object per entry product (see `MatrixFunction`).
"""

from __future__ import annotations

from itertools import chain
from operator import methodcaller
from typing import Callable, Iterable, Sequence

from .forms import PForm, field_action
from .rings import MODELS, TORUS, MismatchError, RingElement, Terms, _collect

MatrixEntries = dict[tuple[int, int], RingElement | PForm]


class VectorField(Terms):
    """X = sum_j f_j E_j, keyed by the frame index j (1-based), with no
    degree (`degree` is None).  The constructor takes every coefficient in
    frame order and checks that they share one ring of dimension n; sums,
    scalings and brackets of valid fields go through `_trusted` and are not
    checked again."""

    __slots__ = ()
    degree = None

    def __init__(self, coeffs: Sequence[RingElement]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise MismatchError("a vector field needs at least one coefficient")
        n, model = coeffs[0].n, coeffs[0].model
        if len(coeffs) != n:
            raise MismatchError(f"{len(coeffs)} coefficients for dimension {n}")
        for f in coeffs:
            if f.n != n or f.model != model:
                raise MismatchError("mixed models or dimensions in coefficients")
        self.n = n
        self.model = model
        self.terms = {j: f for j, f in enumerate(coeffs, start=1) if f}

    @property
    def coeffs(self) -> tuple[RingElement, ...]:
        """Every coefficient f_1, ..., f_n, zeros included."""
        zero = RingElement.zero(self.n, self.model)
        return tuple(self.terms.get(j, zero) for j in range(1, self.n + 1))

    @classmethod
    def zero(cls, n: int, model: str) -> "VectorField":
        return cls._trusted(n, model, {})

    @classmethod
    def basis(cls, n: int, model: str, mode: Iterable[int], j: int) -> "VectorField":
        """The field t^m E_j (or x^m d/dx_j in the affine model)."""
        if not 1 <= j <= n:
            raise MismatchError(f"frame index {j} out of range 1..{n}")
        return cls._trusted(n, model, {j: RingElement.monomial(n, model, mode)})

    def bracket(self, other: "VectorField") -> "VectorField":
        self._compatible(other)
        return self._like(_collect(chain(
            ((j, a) for j, g in other.terms.items() if (a := field_action(self, g))),
            ((j, -b) for j, f in self.terms.items() if (b := field_action(other, f)))), {}))

    def text(self) -> str:
        return " + ".join(f"({f.text()}) E_{j}" for j, f in self.sorted_terms()) or "0"


class MatrixFunction(Terms):
    """Square n x n matrix of functions or of forms, a `rings.Terms` keyed
    by (row, col), 0-based, whose values are the nonzero entries.

    Entries are all `RingElement`s or all `PForm`s of one degree over one
    ring.  A product adds every entry product (`*`, the wedge for forms)
    into one term dict per output entry through `_mul_into`, wraps each
    dict once, and drops the zero ones (kappa_1 ^ kappa_1, or a sum that
    cancels).  The matrix has no degree of its own: its entries carry it.
    `scale` takes function entries only; `trace` sums function entries,
    or form entries from the zero `degree`-form when `degree` is given;
    `trace_product` is Tr(self @ other), with the same `degree`, without
    the off-diagonal entries of the product.
    Products of Jacobians of monomial fields stay single-row, so sparse
    storage is what keeps the trace cocycles cheap.

    The constructor checks every entry; sums, products and scalings of
    valid matrices go through `_trusted` and are not checked again.
    """

    __slots__ = ()
    degree = None
    _negate = methodcaller("scale", -1)  # `-` scales the entries it subtracts

    def __init__(self, n: int, model: str, entries: MatrixEntries | None = None):
        if model not in MODELS:
            raise MismatchError(f"unknown model {model!r}")
        clean: MatrixEntries = {}
        for (i, j), f in (entries or {}).items():
            if not 0 <= i < n or not 0 <= j < n:
                raise MismatchError(f"entry ({i},{j}) out of range for n={n}")
            if f.n != n or f.model != model:
                raise MismatchError("entry ring mismatch")
            if not f.is_zero():
                clean[(i, j)] = f
        self.n = n
        self.model = model
        self.terms = clean

    def entry(self, i: int, j: int) -> RingElement:
        return self.terms.get((i, j), RingElement.zero(self.n, self.model))

    def __matmul__(self, other: "MatrixFunction") -> "MatrixFunction":
        self._compatible(other)
        rows: dict[int, list[tuple[int, RingElement]]] = {}
        for (k, j), g in other.terms.items():
            rows.setdefault(k, []).append((j, g))
        sums: dict[tuple[int, int], dict] = {}
        for (i, k), f in self.terms.items():
            for j, g in rows.get(k, ()):
                f._mul_into(g, sums.setdefault((i, j), {}))
        if not sums:
            return self._like({})
        # Every entry product has the type and degree of the last one, f * g.
        degree = f.degree + g.degree if isinstance(f, PForm) else None
        return self._like({key: self._value(terms, degree)
                           for key, terms in sums.items() if terms})

    def commutator(self, other: "MatrixFunction") -> "MatrixFunction":
        return (self @ other) - (other @ self)

    def _value(self, terms: dict, degree: int | None) -> RingElement | PForm:
        """The function over `terms`, or with `degree` the form of that degree."""
        return (RingElement._trusted(self.n, self.model, terms) if degree is None
                else PForm._trusted(self.n, self.model, degree, terms))

    def trace(self, degree: int | None = None) -> RingElement | PForm:
        return self._value(_collect((term for (i, j), f in self.terms.items() if i == j
                                     for term in f.terms.items()), {}), degree)

    def trace_product(self, other: "MatrixFunction",
                      degree: int | None = None) -> RingElement | PForm:
        """Tr(self @ other) = sum of self_ik other_ki, without the product's
        off-diagonal entries; `degree` as in `trace`."""
        self._compatible(other)
        out: dict = {}
        for (i, k), f in self.terms.items():
            if (g := other.terms.get((k, i))) is not None:
                f._mul_into(g, out)
        return self._value(out, degree)

    def entrywise(self, fn: Callable) -> "MatrixFunction":
        """The matrix of fn(entry), zero results dropped; fn must map valid
        entries to valid entries (e.g. `PForm.from_ring`, `ext_d`)."""
        entries = {}
        for key, f in self.terms.items():
            value = fn(f)
            if not value.is_zero():
                entries[key] = value
        return MatrixFunction._trusted(self.n, self.model, entries)

    def apply_derivation(self, x: VectorField) -> "MatrixFunction":
        return self.entrywise(lambda f: field_action(x, f))

    def text(self) -> str:
        rows = []
        for i in range(self.n):
            rows.append("[" + ", ".join(self.entry(i, j).text() for j in range(self.n)) + "]")
        return "[" + ", ".join(rows) + "]"


def neg_jacobian(x: VectorField) -> MatrixFunction:
    """The crossed homomorphism X |-> -E_j(f_i), rows indexed by i.

    One pass over each term c t^m of f_i stores -m_j c under the key m
    (torus) or m - e_j (affine) of entry (i, j) for every m_j != 0.
    """
    entries: dict[tuple[int, int], dict] = {}
    torus = x.model == TORUS
    for i, f in x.terms.items():
        for mode, c in f.terms.items():
            for j, e in enumerate(mode):
                if e:
                    key = mode if torus else mode[:j] + (e - 1,) + mode[j + 1:]
                    entries.setdefault((i - 1, j), {})[key] = -e * c
    return MatrixFunction._trusted(x.n, x.model, {
        key: RingElement._trusted(x.n, x.model, terms) for key, terms in entries.items()})


def divergence(x: VectorField) -> RingElement:
    """div X = sum_j E_j(f_j); equals -trace(neg_jacobian(X))."""
    return RingElement._trusted(x.n, x.model, _collect(
        (term for j, f in x.terms.items() for term in f.derive(j).terms.items()), {}))


def crossed_hom_residual(theta: Callable[[VectorField], MatrixFunction],
                         x: VectorField, y: VectorField) -> MatrixFunction:
    lhs = theta(x.bracket(y))
    tx, ty = theta(x), theta(y)
    rhs = tx.commutator(ty) + ty.apply_derivation(x) - tx.apply_derivation(y)
    return lhs - rhs

