"""Differential forms with exact coefficients in a global frame.

A p-form is stored as a sparse sum of terms  coeff * t^m kappa_I  where
kappa_1, ..., kappa_N is the frame coframe (kappa_i = dt_i/t_i on the
torus, dx_i in the affine model) and I is a strictly increasing index
tuple.  The coframe is closed in both models, which keeps the exterior
differential a purely combinatorial operation on terms.

The quotient of p-forms modulo exact ones has a canonical representative
computed by `reduce_mod_exact`:

* torus: for each Fourier mode m != 0 the operator alpha |-> mu_m ^ alpha
  (mu_m = sum_j m_j kappa_j) is exact, and the terms free of the pivot
  coframe index (the first j with m_j != 0) are a complete set of
  representatives.  Mode 0 is untouched.
* affine: the differential preserves total weight (polynomial degree plus
  form degree), so each weight component is reduced against an echelon
  basis of the image of d.

Both models split into finite components that d preserves (`_component`),
and every matrix of d on a graded piece comes from `_d_matrix`, which reads
it off the `ext_d` images of basis monomials.

`FormClass` wraps a reduced representative; equality of classes is
equality of representatives.

As in `rings`, the public constructors (`PForm(...)`, `monomial`, `kappa`)
validate every scalar, mode and coframe subset, and results built by
arithmetic on valid forms are trusted: they go through `PForm._trusted`,
which keeps the normal form (no zero coefficient, integral Fractions
stored as `int`) without checking modes and subsets again.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import add
from typing import Iterable, Mapping, Sequence

from .linalg import cohomology_dims, in_span, reduce_against, rref, sparse_matrix
from .rings import (AFFINE, MODELS, TORUS, MismatchError, Mode, RingElement,
                    _check_mode, _demote, affine_modes, as_scalar, box_modes,
                    scalar_text)

Subset = tuple[int, ...]
Key = tuple[Mode, Subset]


def _check_subset(n: int, subset: Subset) -> Subset:
    subset = tuple(subset)
    if any(not 1 <= i <= n for i in subset):
        raise MismatchError(f"coframe index out of range in {subset}")
    if any(a >= b for a, b in zip(subset, subset[1:])):
        raise MismatchError(f"coframe indices must be strictly increasing, got {subset}")
    return subset


def _insert_sign(j: int, subset: Subset) -> tuple[int, Subset] | None:
    """Sign and result of kappa_j ^ kappa_subset, or None if j in subset."""
    if j in subset:
        return None
    before = sum(1 for i in subset if i < j)
    merged = tuple(sorted(subset + (j,)))
    return (-1) ** before, merged


def _merge_sign(left: Subset, right: Subset) -> tuple[int, Subset] | None:
    if set(left) & set(right):
        return None
    inversions = sum(1 for a in left for b in right if a > b)
    return (-1) ** inversions, tuple(sorted(left + right))


class PForm:
    """Sparse exact p-form in the frame coframe."""

    __slots__ = ("n", "model", "degree", "terms")

    def __init__(self, n: int, model: str, degree: int,
                 terms: Mapping[Key, int | Fraction] | None = None):
        if model not in MODELS:
            raise MismatchError(f"unknown model {model!r}")
        if not 0 <= degree <= n + 1:
            raise MismatchError(f"form degree {degree} out of range for dimension {n}")
        clean: dict[Key, int | Fraction] = {}
        for (mode, subset), coeff in (terms or {}).items():
            c = as_scalar(coeff)
            if not c:
                continue
            subset = _check_subset(n, subset)
            if len(subset) != degree:
                raise MismatchError(f"term {subset} does not have degree {degree}")
            clean[(_check_mode(n, model, mode), subset)] = c
        if degree == n + 1 and clean:
            raise MismatchError("forms of degree n+1 must be zero")
        self.n = n
        self.model = model
        self.degree = degree
        self.terms = clean

    @classmethod
    def _trusted(cls, n: int, model: str, degree: int,
                 terms: dict[Key, int | Fraction]) -> "PForm":
        """Wrap terms that arithmetic built from valid forms.

        The caller guarantees valid keys of this degree and no zero
        coefficient, and hands over `terms`; integral Fractions are
        demoted here.
        """
        self = object.__new__(cls)
        self.n = n
        self.model = model
        self.degree = degree
        self.terms = _demote(terms)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int, model: str, degree: int) -> "PForm":
        return cls(n, model, degree)

    @classmethod
    def monomial(cls, n: int, model: str, mode: Iterable[int], subset: Iterable[int],
                 coeff=1) -> "PForm":
        return cls(n, model, len(tuple(subset)), {(tuple(mode), tuple(subset)): coeff})

    @classmethod
    def kappa(cls, n: int, model: str, i: int) -> "PForm":
        """The i-th coframe 1-form."""
        return cls.monomial(n, model, (0,) * n, (i,))

    @classmethod
    def from_ring(cls, f: RingElement) -> "PForm":
        return cls._trusted(f.n, f.model, 0, {(m, ()): c for m, c in f.terms.items()})

    def as_ring(self) -> RingElement:
        if self.degree != 0:
            raise MismatchError("only 0-forms convert to ring elements")
        return RingElement._trusted(self.n, self.model,
                                    {m: c for (m, _), c in self.terms.items()})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PForm):
            return NotImplemented
        return (self.n, self.model, self.degree, self.terms) == \
            (other.n, other.model, other.degree, other.terms)

    __hash__ = None

    def _compatible(self, other: "PForm") -> None:
        if self.n != other.n or self.model != other.model:
            raise MismatchError("mixed models or dimensions")

    def __add__(self, other: "PForm") -> "PForm":
        if not isinstance(other, PForm):
            return NotImplemented
        self._compatible(other)
        if self.degree != other.degree:
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise MismatchError(f"cannot add degrees {self.degree} and {other.degree}")
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return PForm._trusted(self.n, self.model, self.degree, out)

    def __neg__(self) -> "PForm":
        return PForm._trusted(self.n, self.model, self.degree,
                              {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "PForm") -> "PForm":
        if not isinstance(other, PForm):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "PForm":
        c = as_scalar(c)
        if not c:
            return PForm._trusted(self.n, self.model, self.degree, {})
        return PForm._trusted(self.n, self.model, self.degree,
                              {k: c * v for k, v in self.terms.items()})

    def mul_ring(self, f: RingElement) -> "PForm":
        """Multiply by a function (degree unchanged)."""
        if self.n != f.n or self.model != f.model:
            raise MismatchError("mixed models or dimensions")
        out: dict[Key, int | Fraction] = {}
        for (mode, subset), c in self.terms.items():
            for fmode, fc in f.terms.items():
                key = (tuple(map(add, mode, fmode)), subset)
                s = out.get(key, 0) + c * fc
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return PForm._trusted(self.n, self.model, self.degree, out)

    def wedge(self, other: "PForm") -> "PForm":
        self._compatible(other)
        deg = self.degree + other.degree
        if deg > self.n:
            return PForm._trusted(self.n, self.model, min(deg, self.n + 1), {})
        out: dict[Key, int | Fraction] = {}
        for (m1, s1), c1 in self.terms.items():
            for (m2, s2), c2 in other.terms.items():
                merged = _merge_sign(s1, s2)
                if merged is None:
                    continue
                sign, subset = merged
                key = (tuple(map(add, m1, m2)), subset)
                s = out.get(key, 0) + sign * c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return PForm._trusted(self.n, self.model, deg, out)

    __mul__ = wedge

    # -- serialization -------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Key, int | Fraction]]:
        return sorted(self.terms.items())

    def text(self) -> str:
        if not self.terms:
            return "0"
        var = "t" if self.model == TORUS else "x"
        parts = []
        for (mode, subset), c in self.sorted_terms():
            mono = f"{var}^({','.join(str(e) for e in mode)})"
            kap = "^".join(f"k{i}" for i in subset)
            body = mono if not subset else f"{mono} {kap}"
            if c == 1:
                parts.append(body)
            else:
                parts.append(f"{scalar_text(c)} * {body}")
        return " + ".join(parts)


def wedge(a: PForm, b: PForm) -> PForm:
    return a.wedge(b)


def ext_d(w: PForm) -> PForm:
    """Exterior differential.  The coframe is closed, so
    d(f kappa_I) = sum_j (E_j f) kappa_j ^ kappa_I."""
    if w.degree > w.n:
        raise MismatchError(f"form degree {w.degree + 1} out of range for dimension {w.n}")
    out: dict[Key, int | Fraction] = {}
    torus = w.model == TORUS
    for (mode, subset), c in w.terms.items():
        for j in range(1, w.n + 1):
            e = mode[j - 1]
            if e == 0 or j in subset:
                continue
            sign, merged = _insert_sign(j, subset)
            target = mode if torus else mode[: j - 1] + (e - 1,) + mode[j:]
            key = (target, merged)
            s = out.get(key, 0) + sign * e * c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return PForm._trusted(w.n, w.model, w.degree + 1, out)


def contract(field, w: PForm) -> PForm:
    """Interior product i_X for a vector field X = sum f_i E_i.

    i_X(f kappa_I) = f * sum_k (-1)^(k-1) X_{i_k} kappa_{I minus i_k}.
    """
    if w.degree == 0:
        raise MismatchError("cannot contract a 0-form")
    if field.n != w.n or field.model != w.model:
        raise MismatchError("mixed models or dimensions")
    coeffs: Sequence[RingElement] = field.coeffs
    partial: dict[Key, int | Fraction] = {}
    for (mode, subset), c in w.terms.items():
        for pos, idx in enumerate(subset):
            f = coeffs[idx - 1]
            if f.is_zero():
                continue
            sign = (-1) ** pos
            rest = subset[:pos] + subset[pos + 1:]
            for fmode, fc in f.terms.items():
                key = (tuple(map(add, mode, fmode)), rest)
                s = partial.get(key, 0) + sign * c * fc
                if s:
                    partial[key] = s
                else:
                    partial.pop(key, None)
    return PForm._trusted(w.n, w.model, w.degree - 1, partial)


def lie_derive(field, w: PForm) -> PForm:
    """Lie derivative via the Cartan formula L_X = i_X d + d i_X."""
    if w.degree == 0:
        total = RingElement.zero(w.n, w.model)
        f = w.as_ring()
        for i, coeff in enumerate(field.coeffs, start=1):
            total = total + coeff * f.derive(i)
        return PForm.from_ring(total)
    first = contract(field, ext_d(w)) if w.degree < w.n else PForm.zero(w.n, w.model, w.degree)
    return first + ext_d(contract(field, w))


# -- quotient modulo exact forms ------------------------------------------


def _reduce_torus(w: PForm) -> PForm:
    out: dict[Key, int | Fraction] = {}

    def put(key: Key, value) -> None:
        s = out.get(key, 0) + value
        if s:
            out[key] = s
        else:
            out.pop(key, None)

    for (mode, subset), c in w.terms.items():
        if not any(mode):
            put((mode, subset), c)
            continue
        pivot = next(j for j, e in enumerate(mode, start=1) if e)
        if pivot not in subset:
            put((mode, subset), c)
            continue
        # kappa_I = sign * kappa_pivot ^ alpha; replace kappa_pivot by
        # -(mu_m - m_pivot kappa_pivot)/m_pivot, which differs by an exact form.
        pos = subset.index(pivot)
        sign = (-1) ** pos
        alpha = subset[:pos] + subset[pos + 1:]
        mp = mode[pivot - 1]
        for j, e in enumerate(mode, start=1):
            if j == pivot or e == 0:
                continue
            ins = _insert_sign(j, alpha)
            if ins is None:
                continue
            jsign, merged = ins
            put((mode, merged), -sign * jsign * Fraction(e, mp) * c)
    return PForm._trusted(w.n, w.model, w.degree, out)


def _component(model: str, key: Key) -> Mode | int:
    """The graded component d preserves: the mode on the torus, the
    weight (polynomial degree plus form degree) in the affine model."""
    mode, subset = key
    return mode if model == TORUS else sum(mode) + len(subset)


def _component_basis(n: int, model: str, degree: int, component: Mode | int) -> list[Key]:
    """Sorted basis keys of the degree-`degree` forms in one component."""
    if degree < 0:
        return []
    if model == TORUS:
        modes = [component]
    else:
        poly = component - degree
        modes = [m for m in affine_modes(n, poly) if sum(m) == poly]
    return sorted((mode, subset) for subset in combinations(range(1, n + 1), degree)
                  for mode in modes)


def _d_matrix(n: int, model: str, degree: int, component: Mode | int) -> list[list]:
    """Matrix of d from degree to degree + 1 inside one component, built
    from the `ext_d` images of the basis monomials."""
    sources = _component_basis(n, model, degree, component)
    return sparse_matrix(
        sources, _component_basis(n, model, degree + 1, component),
        ((key, image, c) for key in sources
         for image, c in ext_d(PForm._trusted(n, model, degree, {key: 1})).terms.items()))


@lru_cache(maxsize=None)
def _affine_exact_rref(n: int, degree: int, weight: int):
    """Echelon basis of the image of d inside the (degree, weight) component."""
    rows, pivots = rref(_d_matrix(n, AFFINE, degree - 1, weight))
    return (tuple(map(tuple, rows)), tuple(pivots),
            tuple(_component_basis(n, AFFINE, degree, weight)))


def _reduce_affine(w: PForm) -> PForm:
    if w.degree == 0:
        return w
    by_weight: dict[int, dict[Key, int | Fraction]] = {}
    for key, c in w.terms.items():
        by_weight.setdefault(_component(AFFINE, key), {})[key] = c
    out: dict[Key, int | Fraction] = {}
    for weight, component in sorted(by_weight.items()):
        rows, pivots, basis = _affine_exact_rref(w.n, w.degree, weight)
        vec = reduce_against([component.get(key, 0) for key in basis], rows, pivots)
        for key, c in zip(basis, vec):
            if c:
                out[key] = c
    return PForm._trusted(w.n, w.model, w.degree, out)


def reduce_mod_exact(w: PForm) -> "FormClass":
    """Canonical representative of [w] in p-forms modulo exact forms."""
    reduced = _reduce_torus(w) if w.model == TORUS else _reduce_affine(w)
    return FormClass(reduced)


class FormClass:
    """A class in the quotient of p-forms by exact forms, stored reduced.

    The constructor trusts its input to be reduced; use `reduce_mod_exact`
    to build classes from arbitrary forms.  Linear operations preserve
    reducedness (the reduction is linear and idempotent), so arithmetic
    works directly on representatives.
    """

    __slots__ = ("rep",)

    def __init__(self, rep: PForm):
        self.rep = rep

    @classmethod
    def zero(cls, n: int, model: str, degree: int) -> "FormClass":
        return cls(PForm.zero(n, model, degree))

    @property
    def degree(self) -> int:
        return self.rep.degree

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def __bool__(self) -> bool:
        return bool(self.rep)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormClass):
            return NotImplemented
        return self.rep == other.rep

    __hash__ = None

    def __add__(self, other: "FormClass") -> "FormClass":
        if not isinstance(other, FormClass):
            return NotImplemented
        return FormClass(self.rep + other.rep)

    def __sub__(self, other: "FormClass") -> "FormClass":
        if not isinstance(other, FormClass):
            return NotImplemented
        return FormClass(self.rep - other.rep)

    def __neg__(self) -> "FormClass":
        return FormClass(-self.rep)

    def scale(self, c) -> "FormClass":
        return FormClass(self.rep.scale(c))

    def text(self) -> str:
        return f"[{self.rep.text()}]"


def is_exact(w: PForm) -> bool:
    """Membership in the image of d, decided per graded component.

    Used as an independent cross-check on `reduce_mod_exact`: a form
    reduces to zero exactly when it is a sum of differentials.
    """
    by_component: dict = {}
    for key, c in w.terms.items():
        by_component.setdefault(_component(w.model, key), {})[key] = c
    for component, terms in by_component.items():
        basis = _component_basis(w.n, w.model, w.degree, component)
        vec = [terms.get(key, 0) for key in basis]
        if in_span(vec, _d_matrix(w.n, w.model, w.degree - 1, component)) is None:
            return False
    return True


_MAX_WEIGHT = 4


def de_rham_dims(model: str, n: int, radius: int = 2) -> list[int]:
    """Cohomology dimensions of the d-complex, degree 0..n, summed over
    torus modes in the box of `radius` or affine weights up to `_MAX_WEIGHT`.

    d must vanish on mode 0 and weight 0 (binomial(n, p) and (1, 0, ..., 0))
    and every other component must be exact; if not, AssertionError.
    """
    if model == TORUS:
        components, zero = box_modes(n, radius), (0,) * n
    elif model == AFFINE:
        components, zero = range(_MAX_WEIGHT + 1), 0
    else:
        raise MismatchError(f"unknown model {model!r}")
    total = [0] * (n + 1)
    for component in components:
        sizes = [len(_component_basis(n, model, p, component)) for p in range(n + 1)]
        dims = cohomology_dims(sizes, [_d_matrix(n, model, p, component)
                                       for p in range(n)])
        expected = sizes if component == zero else [0] * (n + 1)
        if dims != expected:
            raise AssertionError(f"{model} component {component} has cohomology "
                                 f"{dims}, expected {expected}")
        total = list(map(add, total, dims))
    return total
