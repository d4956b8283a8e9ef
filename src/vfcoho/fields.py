"""Vector fields in a global frame, their bracket, and the matrix-valued
crossed homomorphism that drives all the trace cocycles.

A field is X = sum_i f_i E_i with exact coefficients.  The frame fields
commute in both models, so the bracket is

    [X, Y]_j = sum_i (f_i E_i(g_j) - g_i E_i(f_j)).

`neg_jacobian` sends X to the matrix u(X)_{ij} = -E_j(f_i), the negative
Jacobian of the coefficient vector in the frame.  It satisfies

    u([X, Y]) = [u(X), u(Y)] + X.u(Y) - Y.u(X)

(a crossed homomorphism into matrix functions; the crossed-hom checks
evaluate `crossed_hom_residual` on sampled pairs), and its kernel is
exactly the constant fields.  Flipping the sign breaks the identity as
soon as two Jacobians fail to commute: matrices sit in different rows.

`MatrixFunction` is the one sparse matrix type: its entries are functions
(`RingElement`) or forms (`PForm`), and the trace cocycles take the
products of both kinds through the same `@`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .forms import PForm
from .rings import MODELS, MismatchError, RingElement, as_scalar

MatrixEntries = dict[tuple[int, int], RingElement | PForm]


class VectorField:
    __slots__ = ("n", "model", "coeffs")

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
        self.coeffs = coeffs

    @classmethod
    def zero(cls, n: int, model: str) -> "VectorField":
        return cls(tuple(RingElement.zero(n, model) for _ in range(n)))

    @classmethod
    def basis(cls, n: int, model: str, mode: Iterable[int], j: int) -> "VectorField":
        """The field t^m E_j (or x^m d/dx_j in the affine model)."""
        mode = tuple(mode)
        if not 1 <= j <= n:
            raise MismatchError(f"frame index {j} out of range 1..{n}")
        coeffs = [RingElement.zero(n, model) for _ in range(n)]
        coeffs[j - 1] = RingElement.monomial(n, model, mode)
        return cls(coeffs)

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def __add__(self, other: "VectorField") -> "VectorField":
        if not isinstance(other, VectorField):
            return NotImplemented
        return VectorField(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "VectorField") -> "VectorField":
        if not isinstance(other, VectorField):
            return NotImplemented
        return VectorField(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "VectorField":
        return VectorField(tuple(-a for a in self.coeffs))

    def scale(self, c) -> "VectorField":
        c = as_scalar(c)
        return VectorField(tuple(c * a for a in self.coeffs))

    def bracket(self, other: "VectorField") -> "VectorField":
        if self.n != other.n or self.model != other.model:
            raise MismatchError("mixed models or dimensions")
        out = []
        for j in range(1, self.n + 1):
            acc = RingElement.zero(self.n, self.model)
            for i in range(1, self.n + 1):
                fi, gi = self.coeffs[i - 1], other.coeffs[i - 1]
                if fi:
                    acc = acc + fi * other.coeffs[j - 1].derive(i)
                if gi:
                    acc = acc - gi * self.coeffs[j - 1].derive(i)
            out.append(acc)
        return VectorField(tuple(out))

    def text(self) -> str:
        parts = [f"({f.text()}) E_{i}" for i, f in enumerate(self.coeffs, start=1)
                 if not f.is_zero()]
        return " + ".join(parts) if parts else "0"


def field_action(x: VectorField, f: RingElement) -> RingElement:
    """Derivation action X.f = sum_i f_i E_i(f)."""
    acc = RingElement.zero(x.n, x.model)
    for i, coeff in enumerate(x.coeffs, start=1):
        if coeff:
            acc = acc + coeff * f.derive(i)
    return acc


class MatrixFunction:
    """Square matrix of functions or of forms, stored sparsely by
    (row, col), 0-based.

    Entries are all `RingElement`s or all `PForm`s over one ring; a product
    multiplies entries with `*`, which is the wedge product for forms.
    `trace` and `scale` take function entries only.
    Products of Jacobians of monomial fields stay single-row, so sparse
    storage is what keeps the trace cocycles cheap.  `size` is the matrix
    dimension; it defaults to the ring dimension `n` (the Jacobian case)
    but may differ, e.g. for a representation of a different rank.

    The constructor checks every entry; sums, products and scalings of
    valid matrices go through `_trusted` and are not checked again.
    """

    __slots__ = ("n", "model", "size", "entries")

    def __init__(self, n: int, model: str, entries: MatrixEntries | None = None,
                 size: int | None = None):
        if model not in MODELS:
            raise MismatchError(f"unknown model {model!r}")
        size = n if size is None else size
        clean: MatrixEntries = {}
        for (i, j), f in (entries or {}).items():
            if not 0 <= i < size or not 0 <= j < size:
                raise MismatchError(f"entry ({i},{j}) out of range for size={size}")
            if f.n != n or f.model != model:
                raise MismatchError("entry ring mismatch")
            if not f.is_zero():
                clean[(i, j)] = f
        self.n = n
        self.model = model
        self.size = size
        self.entries = clean

    @classmethod
    def _trusted(cls, n: int, model: str, entries: MatrixEntries,
                 size: int) -> "MatrixFunction":
        """Wrap in-range, nonzero entries over this ring, built by arithmetic
        on valid matrices."""
        self = object.__new__(cls)
        self.n = n
        self.model = model
        self.size = size
        self.entries = entries
        return self

    @classmethod
    def zero(cls, n: int, model: str) -> "MatrixFunction":
        return cls(n, model)

    def entry(self, i: int, j: int) -> RingElement:
        return self.entries.get((i, j), RingElement.zero(self.n, self.model))

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixFunction):
            return NotImplemented
        return ((self.n, self.model, self.size, self.entries)
                == (other.n, other.model, other.size, other.entries))

    __hash__ = None

    def _compatible(self, other: "MatrixFunction") -> None:
        if (self.n, self.model, self.size) != (other.n, other.model, other.size):
            raise MismatchError("mixed models, dimensions or sizes")

    def __add__(self, other: "MatrixFunction") -> "MatrixFunction":
        self._compatible(other)
        out = dict(self.entries)
        for key, f in other.entries.items():
            s = out.get(key)
            total = f if s is None else s + f
            if total.is_zero():
                out.pop(key, None)
            else:
                out[key] = total
        return MatrixFunction._trusted(self.n, self.model, out, self.size)

    def __neg__(self) -> "MatrixFunction":
        return MatrixFunction._trusted(self.n, self.model,
                                       {k: -f for k, f in self.entries.items()},
                                       self.size)

    def __sub__(self, other: "MatrixFunction") -> "MatrixFunction":
        return self + (-other)

    def scale(self, c) -> "MatrixFunction":
        c = as_scalar(c)
        entries = {k: f * c for k, f in self.entries.items()} if c else {}
        return MatrixFunction._trusted(self.n, self.model, entries, self.size)

    def __matmul__(self, other: "MatrixFunction") -> "MatrixFunction":
        self._compatible(other)
        rows: dict[int, list[tuple[int, RingElement]]] = {}
        for (k, j), g in other.entries.items():
            rows.setdefault(k, []).append((j, g))
        out: MatrixEntries = {}
        for (i, k), f in self.entries.items():
            for j, g in rows.get(k, ()):
                prod = f * g
                if prod.is_zero():
                    continue
                s = out.get((i, j))
                total = prod if s is None else s + prod
                if total.is_zero():
                    out.pop((i, j), None)
                else:
                    out[(i, j)] = total
        return MatrixFunction._trusted(self.n, self.model, out, self.size)

    def commutator(self, other: "MatrixFunction") -> "MatrixFunction":
        return (self @ other) - (other @ self)

    def trace(self) -> RingElement:
        acc = RingElement.zero(self.n, self.model)
        for (i, j), f in self.entries.items():
            if i == j:
                acc = acc + f
        return acc

    def entrywise(self, fn: Callable) -> "MatrixFunction":
        """The matrix of fn(entry), zero results dropped; fn must map valid
        entries to valid entries (e.g. `PForm.from_ring`, `ext_d`)."""
        entries = {}
        for key, f in self.entries.items():
            value = fn(f)
            if not value.is_zero():
                entries[key] = value
        return MatrixFunction._trusted(self.n, self.model, entries, self.size)

    def apply_derivation(self, x: VectorField) -> "MatrixFunction":
        return self.entrywise(lambda f: field_action(x, f))

    def text(self) -> str:
        rows = []
        for i in range(self.size):
            rows.append("[" + ", ".join(self.entry(i, j).text() for j in range(self.size)) + "]")
        return "[" + ", ".join(rows) + "]"


def neg_jacobian(x: VectorField) -> MatrixFunction:
    """The crossed homomorphism X |-> -E_j(f_i), rows indexed by i."""
    entries: MatrixEntries = {}
    for i, f in enumerate(x.coeffs):
        if f.is_zero():
            continue
        for j in range(1, x.n + 1):
            d = f.derive(j)
            if not d.is_zero():
                entries[(i, j - 1)] = -d
    return MatrixFunction._trusted(x.n, x.model, entries, x.n)


def divergence(x: VectorField) -> RingElement:
    """div X = sum_j E_j(f_j); equals -trace(neg_jacobian(X))."""
    acc = RingElement.zero(x.n, x.model)
    for j, f in enumerate(x.coeffs, start=1):
        acc = acc + f.derive(j)
    return acc


def crossed_hom_residual(theta: Callable[[VectorField], MatrixFunction],
                         x: VectorField, y: VectorField) -> MatrixFunction:
    lhs = theta(x.bracket(y))
    tx, ty = theta(x), theta(y)
    rhs = tx.commutator(ty) + ty.apply_derivation(x) - tx.apply_derivation(y)
    return lhs - rhs

