"""Differential forms with exact coefficients in a global frame.

A p-form is stored as a sparse sum of terms  coeff * t^m kappa_I  where
kappa_1, ..., kappa_N is the frame coframe (kappa_i = dt_i/t_i on the
torus, dx_i in the affine model) and I is a strictly increasing index
tuple.  The coframe is closed in both models, which keeps the exterior
differential a purely combinatorial operation on terms.

The quotient of p-forms modulo exact ones has a canonical representative
computed by `reduce_mod_exact`:

* torus: the representative is w - d(h w), for the homotopy h that is
  i_(E_p) / m_p on a mode m != 0 with pivot p (the first j with m_j != 0)
  and 0 on mode 0.  On mode m, d is mu_m ^ (mu_m = sum_j m_j kappa_j), so
  d h + h d = i_(E_p)(mu_m) / m_p = 1 there, and w - d(h w) = h(d w) is
  free of kappa_p.  The terms free of the pivot are a complete set of
  representatives.  Mode 0 is untouched.
* affine: the differential preserves total weight (polynomial degree plus
  form degree), so each weight component is reduced against an echelon
  basis of the image of d (`linalg.echelon`, cached), with the terms as
  columns in the sorted basis order.  `linalg.reduce` leaves the one
  element of the class that is zero at every pivot column, so the
  representative does not depend on how the echelon basis was found.

`field_action` (X.f for a field X = sum_i f_i E_i), `contract` and
`lie_derive` take a field by its terms, the nonzero f_i keyed by i;
`fields` builds the field bracket and the derivation of matrix entries on
`field_action`.

Both models split into finite components that d preserves (`_component`),
and every matrix of d on a graded piece comes from `_d_matrix`, which reads
it off the `ext_d` images of basis monomials as `linalg` dict rows.

`PForm` is a `rings.Terms`, keyed by (mode, coframe subset), so it shares
its sums, negation, scaling, equality and text with `RingElement`; it adds
the degree, `from_ring`/`as_ring`, `mul_ring` and the wedge product.  Forms
of different degrees do not add, not even when one of them is zero.

`FormClass` is a `rings.Terms` over the terms of its reduced
representative `.rep`, so equality of classes is equality of
representatives; a class and a form are never equal and do not add.

As in `rings`, the public constructors (`PForm(...)`, `monomial`, `kappa`)
validate every scalar, mode and coframe subset, and results built by
arithmetic on valid forms are trusted: they go through `PForm._trusted`,
which keeps the normal form (no zero coefficient, integral Fractions
stored as `int`) without checking modes and subsets again.

>>> PForm.monomial(2, TORUS, (1, 0), (1, 2), Fraction(1, 2)).text()
'1/2 * t^(1,0) k1^k2'
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from operator import add
from typing import Iterable, Mapping

from .linalg import cohomology_dims, echelon, reduce, sparse_matrix
from .rings import (AFFINE, MODELS, TORUS, MismatchError, Mode, RingElement,
                    Terms, _check_mode, _collect, _demote, as_scalar, model_modes)

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


class PForm(Terms):
    """Sparse exact p-form in the frame coframe."""

    __slots__ = ("degree",)

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
    def _normal(cls, n: int, model: str, degree: int,
                terms: dict[Key, int | Fraction]) -> "PForm":
        """`_trusted` for terms with no integral Fraction: nothing to demote."""
        self = object.__new__(cls)
        self.n = n
        self.model = model
        self.degree = degree
        self.terms = terms
        return self

    @classmethod
    def _trusted(cls, n: int, model: str, degree: int,
                 terms: dict[Key, int | Fraction]) -> "PForm":
        """Wrap terms that arithmetic built from valid forms: the caller
        guarantees valid keys of this degree and no zero coefficient, and
        hands over `terms`; integral Fractions are demoted here."""
        return cls._normal(n, model, degree, _demote(terms))

    def _like(self, terms: dict[Key, int | Fraction]) -> "PForm":
        return PForm._trusted(self.n, self.model, self.degree, terms)

    @staticmethod
    def _monomial_text(var: str, key: Key) -> str:
        mode, subset = key
        mono = RingElement._monomial_text(var, mode)
        return f"{mono} {'^'.join(f'k{i}' for i in subset)}" if subset else mono

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
        return cls._normal(f.n, f.model, 0, {(m, ()): c for m, c in f.terms.items()})

    def as_ring(self) -> RingElement:
        if self.degree != 0:
            raise MismatchError("only 0-forms convert to ring elements")
        return RingElement._normal(self.n, self.model,
                                   {m: c for (m, _), c in self.terms.items()})

    # -- products ----------------------------------------------------------

    def mul_ring(self, f: RingElement) -> "PForm":
        """Multiply by a function (degree unchanged)."""
        self._compatible(f)
        out: dict[Key, int | Fraction] = {}
        for (mode, subset), c in self.terms.items():
            for fmode, fc in f.terms.items():
                key = (tuple(map(add, mode, fmode)), subset)
                s = out.get(key)
                if s is None:
                    out[key] = c * fc
                elif s := s + c * fc:
                    out[key] = s
                else:
                    del out[key]
        return PForm._trusted(self.n, self.model, self.degree, out)

    def _mul_into(self, other: "PForm", out: dict) -> dict:
        """Add the terms of self ^ other into the caller's dict `out`, as `_collect` does."""
        for (m1, s1), c1 in self.terms.items():
            for (m2, s2), c2 in other.terms.items():
                merged = _merge_sign(s1, s2)
                if merged is None:
                    continue
                sign, subset = merged
                key = (tuple(map(add, m1, m2)), subset)
                s = out.get(key)
                if s is None:
                    out[key] = sign * c1 * c2
                elif s := s + sign * c1 * c2:
                    out[key] = s
                else:
                    del out[key]
        return out

    def wedge(self, other: "PForm") -> "PForm":
        self._compatible(other)
        deg = self.degree + other.degree  # past n, every pair of subsets meets
        return PForm._trusted(self.n, self.model, min(deg, self.n + 1),
                              {} if deg > self.n else self._mul_into(other, {}))

    __mul__ = wedge


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
            s = out.get(key)
            if s is None:
                out[key] = sign * e * c
            elif s := s + sign * e * c:
                out[key] = s
            else:
                del out[key]
    return PForm._trusted(w.n, w.model, w.degree + 1, out)


def contract(field, w: PForm) -> PForm:
    """Interior product i_X for a vector field X = sum f_i E_i.

    i_X(f kappa_I) = f * sum_k (-1)^(k-1) X_{i_k} kappa_{I minus i_k}.
    """
    if w.degree == 0:
        raise MismatchError("cannot contract a 0-form")
    if field.n != w.n or field.model != w.model:
        raise MismatchError("mixed models or dimensions")
    coeffs: dict[int, RingElement] = field.terms
    partial: dict[Key, int | Fraction] = {}
    for (mode, subset), c in w.terms.items():
        for pos, idx in enumerate(subset):
            f = coeffs.get(idx)
            if f is None:
                continue
            sign = (-1) ** pos
            rest = subset[:pos] + subset[pos + 1:]
            for fmode, fc in f.terms.items():
                key = (tuple(map(add, mode, fmode)), rest)
                s = partial.get(key)
                if s is None:
                    partial[key] = sign * c * fc
                elif s := s + sign * c * fc:
                    partial[key] = s
                else:
                    del partial[key]
    return PForm._trusted(w.n, w.model, w.degree - 1, partial)


def field_action(x, f: RingElement) -> RingElement:
    """Derivation action X.f = sum_i f_i E_i(f) of X = sum_i f_i E_i."""
    out: dict[Mode, int | Fraction] = {}
    if f:
        for i, coeff in x.terms.items():
            if d := f.derive(i):
                _collect((coeff * d).terms.items(), out)
    return RingElement._trusted(x.n, x.model, out)


def lie_derive(field, w: PForm) -> PForm:
    """Lie derivative: the derivation action on 0-forms, the Cartan formula
    L_X = i_X d + d i_X above them."""
    if w.degree == 0:
        return PForm.from_ring(field_action(field, w.as_ring()))
    return contract(field, ext_d(w)) + ext_d(contract(field, w))


# -- quotient modulo exact forms ------------------------------------------


def _reduce_torus(w: PForm) -> PForm:
    """w - d(h w): h sends a term c t^m kappa_I whose subset holds the
    pivot p of m, at place pos, to (-1)^pos c/m_p t^m kappa_(I minus p),
    and every other term to 0."""
    eta: dict[Key, int | Fraction] = {}
    for (mode, subset), c in w.terms.items():
        pivot = next((j for j, e in enumerate(mode, start=1) if e), None)
        if pivot in subset:
            pos = subset.index(pivot)
            eta[(mode, subset[:pos] + subset[pos + 1:])] = \
                Fraction(-c if pos % 2 else c, mode[pivot - 1])
    if not eta:
        return w
    return w - ext_d(PForm._trusted(w.n, w.model, w.degree - 1, eta))


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
        modes = [m for m in model_modes(AFFINE, n, poly) if sum(m) == poly]
    return sorted((mode, subset) for subset in combinations(range(1, n + 1), degree)
                  for mode in modes)


def _d_matrix(n: int, model: str, degree: int, component: Mode | int) -> list[dict]:
    """Matrix of d from degree to degree + 1 inside one component, built
    from the `ext_d` images of the basis monomials."""
    sources = _component_basis(n, model, degree, component)
    return sparse_matrix(
        sources, _component_basis(n, model, degree + 1, component),
        ((key, image, c) for key in sources
         for image, c in ext_d(PForm._normal(n, model, degree, {key: 1})).terms.items()))


def _exact_image(model: str, n: int, degree: int, component: Mode | int):
    """Echelon basis of the image of d inside one component of the
    degree-`degree` forms, the component's basis keys, and their columns."""
    keys = _component_basis(n, model, degree, component)
    return (echelon(_d_matrix(n, model, degree - 1, component)), keys,
            {key: j for j, key in enumerate(keys)})


# (n, degree, weight) -> the `_exact_image` of an affine weight component
_affine_exact_rref = lru_cache(maxsize=None)(partial(_exact_image, AFFINE))


def _remainder(w: PForm, image) -> dict[Key, int | Fraction]:
    """The terms of w reduced per component against `image(component)`."""
    by_component: dict = {}
    for key, c in w.terms.items():
        by_component.setdefault(_component(w.model, key), {})[key] = c
    out: dict[Key, int | Fraction] = {}
    for component, terms in by_component.items():
        basis, keys, column = image(component)
        rest = reduce({column[key]: c for key, c in terms.items()}, basis)
        out.update((keys[j], c) for j, c in rest.items())
    return out


def _reduce_affine(w: PForm) -> PForm:
    if w.degree == 0:
        return w
    return PForm._trusted(w.n, w.model, w.degree,
                          _remainder(w, partial(_affine_exact_rref, w.n, w.degree)))


def reduce_mod_exact(w: PForm) -> "FormClass":
    """Canonical representative of [w] in p-forms modulo exact forms."""
    reduced = _reduce_torus(w) if w.model == TORUS else _reduce_affine(w)
    return FormClass(reduced)


class FormClass(Terms):
    """A class in the quotient of p-forms by exact forms, stored as the
    terms of its reduced representative.

    The constructor trusts its input to be reduced; use `reduce_mod_exact`
    to build classes from arbitrary forms.  Linear operations preserve
    reducedness (the reduction is linear and idempotent), so the sums,
    negation and scaling of `Terms` work directly on the terms.
    """

    __slots__ = ("degree",)

    def __init__(self, rep: PForm):
        self.n = rep.n
        self.model = rep.model
        self.degree = rep.degree
        self.terms = rep.terms

    _normal = PForm.__dict__["_normal"]
    _trusted = PForm.__dict__["_trusted"]
    _monomial_text = PForm.__dict__["_monomial_text"]

    def _like(self, terms: dict[Key, int | Fraction]) -> "FormClass":
        return FormClass._trusted(self.n, self.model, self.degree, terms)

    @classmethod
    def zero(cls, n: int, model: str, degree: int) -> "FormClass":
        return cls(PForm.zero(n, model, degree))

    @property
    def rep(self) -> PForm:
        """The reduced representative, over the same terms."""
        return PForm._normal(self.n, self.model, self.degree, self.terms)

    def text(self) -> str:
        return f"[{super().text()}]"


def is_exact(w: PForm) -> bool:
    """Membership in the image of d, decided per graded component against
    an echelon basis of `_d_matrix`, in both models.

    Used as an independent cross-check on `reduce_mod_exact` (on the torus
    it does not use the homotopy): a form reduces to zero exactly when it
    is a sum of differentials.
    """
    return not _remainder(w, partial(_exact_image, w.model, w.n, w.degree))


_MAX_WEIGHT = 4


def de_rham_dims(model: str, n: int, radius: int = 2) -> list[int]:
    """Cohomology dimensions of the d-complex, degree 0..n, summed over
    torus modes in the box of `radius` or affine weights up to `_MAX_WEIGHT`.

    d must vanish on mode 0 and weight 0 (binomial(n, p) and (1, 0, ..., 0))
    and every other component must be exact; if not, AssertionError.
    """
    if model == TORUS:
        components, zero = model_modes(TORUS, n, radius), (0,) * n
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
