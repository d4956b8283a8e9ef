"""Exact coefficient rings for the two frame models.

The torus model works with Laurent polynomials Q[t_1^{+-1}, ..., t_N^{+-1}]
and the frame derivations E_j = t_j d/dt_j, so E_j(t^m) = m_j t^m.  The
affine model works with ordinary polynomials Q[x_1, ..., x_N] and the
coordinate derivations d/dx_j.  Everything else in the package is written
against this one class, so the two geometries share all downstream code.
`model_modes` enumerates the modes of either model up to a radius.

Every sparse exact value is a `Terms`, a map from a key to a nonzero
value, with one definition of sums, negation, scaling, equality and text:
`RingElement` (keyed by mode) and `forms.PForm` (by mode and coframe
subset) hold scalars, `forms.FormClass` the scalars of its reduced
representative, `fields.MatrixFunction` functions or forms (by row and
column), and `fields.VectorField` (by frame index) and
`cohomology.GaugeElement` (by basis index of g) functions.  A function is
a 0-form: `RingElement.degree` is 0.  `+` and `-` combine two elements of
one class that agree on n, model, degree and (for gauge elements) context,
and raise `MismatchError` on any other pair; values of two classes (a
function and a 0-form, a class and a form) are never equal and do not add.

Scalars are `int` or `fractions.Fraction`.  Floats are rejected outright:
every identity this package checks is decided exactly.

Validation happens at the public boundary.  The public constructors
(`RingElement(...)`, `one`, `constant`, `monomial`) check every scalar and
mode.  Results of arithmetic on elements that already passed those checks
are trusted: they go through `RingElement._trusted`, which sets the slots
without checking again.  It keeps the normal form the public constructor
gives, with no zero coefficient and every integral `Fraction` stored as an
`int`, so equal elements always have equal `terms`.

Results that cannot hold an integral `Fraction` (zero, negation, a
function read as a 0-form and back) skip that scan (`_normal`).

Sums accumulate by one rule, `_collect`: a term whose key is new is stored
as it is, a term on a repeated key is added, and a key whose sum cancels
is deleted, so no term is added to a literal 0 (for a `Fraction`, a gcd
only to copy it).  `Terms` `+` and `-` (which negates only the terms of
its right operand), the field and gauge brackets, `forms.field_action`,
`fields.divergence` and the `linalg` rows use it.  The products add
their terms by the same rule inline, into a dict the caller owns:
`RingElement._mul_into` and `forms.PForm._mul_into` (the wedge) add the
terms of one product, `*` and `wedge` call them once on a fresh dict, and
`MatrixFunction` `@` and `trace_product` call them for every entry
product into one dict per output entry, which is wrapped once.

>>> f = RingElement.monomial(2, TORUS, (1, 0)) + RingElement.monomial(2, TORUS, (0, -1))
>>> print(f.text())
t^(0,-1) + t^(1,0)
>>> print(f.derive(2).text())
-1 * t^(0,-1)
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm
from operator import add, neg
from typing import Iterable, Mapping

Mode = tuple[int, ...]

TORUS = "torus"
AFFINE = "affine"
MODELS = (TORUS, AFFINE)


class MismatchError(ValueError):
    """Raised when operands disagree on model or ambient dimension."""


def as_scalar(value) -> int | Fraction:
    """Coerce to an exact scalar, rejecting floats and other inexact types."""
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    raise TypeError(f"exact scalar required (int or Fraction), got {type(value).__name__}")


def scalar_text(value) -> str:
    v = Fraction(value)
    return str(v)


def model_modes(model: str, n: int, radius: int) -> list[Mode]:
    """Every mode of the model up to `radius`, in lexicographic order: the
    box of max norm <= radius on the torus, total degree <= radius in the
    affine model."""
    if model == TORUS:
        return list(product(range(-radius, radius + 1), repeat=n))
    return [m for m in product(range(radius + 1), repeat=n) if sum(m) <= radius]


def _check_mode(n: int, model: str, mode: Mode) -> Mode:
    mode = tuple(mode)
    if len(mode) != n:
        raise MismatchError(f"mode {mode} has length {len(mode)}, expected {n}")
    if not all(isinstance(e, int) and not isinstance(e, bool) for e in mode):
        raise TypeError(f"mode entries must be int, got {mode}")
    if model == AFFINE and any(e < 0 for e in mode):
        raise MismatchError(f"affine exponents must be nonnegative, got {mode}")
    return mode


def _demote(terms: dict) -> dict:
    """Store every integral Fraction among the values of `terms` as an int,
    in place, as `as_scalar` does; Fraction arithmetic keeps the type."""
    for key, c in terms.items():
        if type(c) is Fraction and c.denominator == 1:
            terms[key] = c.numerator
    return terms


def _collect(pairs: Iterable[tuple], out: dict) -> dict:
    """Add the (key, nonzero value) `pairs` into `out` in place and return
    it: a new key stores its value as it is, a repeated key adds, and a
    key whose sum cancels is deleted.  Values are scalars, functions or
    forms."""
    for key, c in pairs:
        s = out.get(key)
        if s is None:
            out[key] = c
        elif s := s + c:
            out[key] = s
        else:
            del out[key]
    return out


class Terms:
    """A sparse exact sum: a map from a key to a nonzero value.

    A subclass adds validation, its constructors and products, and the
    hook `_monomial_text(var, key)`, which formats one key.  `_trusted`
    wraps terms that arithmetic built from valid elements without checking
    them, and `_like(terms)` wraps terms of its own n, model and degree
    through it; a subclass with scalar values (which `_trusted` demotes)
    or more slots overrides them.  `_negate` negates one value of the
    right operand of `-`.

    Immutable by convention: no method mutates `terms` after construction,
    and all arithmetic returns fresh objects.
    """

    __slots__ = ("n", "model", "terms")
    ctx = None  # the context of a gauge element, whose slot overrides this

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def sorted_terms(self) -> list:
        return sorted(self.terms.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Terms):
            return NotImplemented
        return (type(self) is type(other) and self.n == other.n
                and self.model == other.model and self.degree == other.degree
                and self.ctx is other.ctx and self.terms == other.terms)

    __hash__ = None  # mutable dict inside; elements are not dict keys

    @classmethod
    def _trusted(cls, n: int, model: str, terms: dict) -> "Terms":
        """Wrap `terms` as they are: the caller guarantees valid keys and
        nonzero values in normal form, and hands over the dict."""
        self = object.__new__(cls)
        self.n = n
        self.model = model
        self.terms = terms
        return self

    def _like(self, terms: dict) -> "Terms":
        return self._trusted(self.n, self.model, terms)

    def _compatible(self, other: "Terms") -> None:
        if self.n != other.n or self.model != other.model:
            raise MismatchError(
                f"cannot combine ({self.n},{self.model}) with ({other.n},{other.model})"
            )

    _negate = neg

    def _sum(self, other, negate):
        """self + other, or self - other when `negate` is `_negate`."""
        if type(other) is not type(self):
            return NotImplemented
        if (self.n != other.n or self.model != other.model or self.degree != other.degree
                or self.ctx is not other.ctx):
            raise MismatchError(
                f"cannot add ({self.n},{self.model}) degree {self.degree} "
                f"to ({other.n},{other.model}) degree {other.degree}, or across contexts"
            )
        terms = other.terms
        pairs = terms.items() if negate is None else zip(terms, map(negate, terms.values()))
        return self._like(_collect(pairs, dict(self.terms)))

    def __add__(self, other):
        return self._sum(other, None)

    def __sub__(self, other):
        return self._sum(other, self._negate)

    def __neg__(self):
        # Negation keeps the normal form, so its terms skip `_demote`.
        out = self._like({})
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

    @property
    def denominator(self) -> int:
        """The lcm of the denominators of every scalar in the values, those
        inside function and form values included, so that
        `self.scale(self.denominator)` has integral scalars only."""
        return lcm(*(v.denominator for v in self.terms.values()))

    def scale(self, c):
        c = as_scalar(c)
        if not c:
            return self._like({})
        return self._like({k: c * v for k, v in self.terms.items()})

    def text(self) -> str:
        """Canonical text form: terms in ascending key order."""
        if not self.terms:
            return "0"
        var = "t" if self.model == TORUS else "x"
        parts = []
        for key, c in self.sorted_terms():
            mono = self._monomial_text(var, key)
            parts.append(mono if c == 1 else f"{scalar_text(c)} * {mono}")
        return " + ".join(parts)


class RingElement(Terms):
    """Sparse exact Laurent/polynomial element, keyed by exponent tuple."""

    __slots__ = ()
    degree = 0  # a function is a 0-form

    def __init__(self, n: int, model: str, terms: Mapping[Mode, int | Fraction] | None = None):
        if model not in MODELS:
            raise MismatchError(f"unknown model {model!r}")
        if n < 1:
            raise MismatchError(f"dimension must be >= 1, got {n}")
        clean: dict[Mode, int | Fraction] = {}
        for mode, coeff in (terms or {}).items():
            c = as_scalar(coeff)
            if c:
                clean[_check_mode(n, model, mode)] = c
        self.n = n
        self.model = model
        self.terms = clean

    @classmethod
    def _trusted(cls, n: int, model: str, terms: dict[Mode, int | Fraction]) -> "RingElement":
        """Wrap terms that arithmetic built from valid elements.

        The caller guarantees valid modes and no zero coefficient, and hands
        over `terms`; integral Fractions are demoted here.
        """
        self = object.__new__(cls)
        self.n = n
        self.model = model
        self.terms = _demote(terms)
        return self

    # Wraps terms already in normal form, with no integral Fraction to demote.
    _normal = Terms.__dict__["_trusted"]

    @staticmethod
    def _monomial_text(var: str, mode: Mode) -> str:
        return f"{var}^({','.join(str(e) for e in mode)})"

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n: int, model: str) -> "RingElement":
        return cls._normal(n, model, {})

    @classmethod
    def one(cls, n: int, model: str) -> "RingElement":
        return cls(n, model, {(0,) * n: 1})

    @classmethod
    def constant(cls, n: int, model: str, value) -> "RingElement":
        return cls(n, model, {(0,) * n: value})

    @classmethod
    def monomial(cls, n: int, model: str, mode: Iterable[int], coeff=1) -> "RingElement":
        return cls(n, model, {tuple(mode): coeff})

    # -- products ----------------------------------------------------------

    def _mul_into(self, other: "RingElement", out: dict) -> dict:
        """Add the terms of self * other into the caller's dict `out`, as `_collect` does."""
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mode = tuple(map(add, m1, m2))
                s = out.get(mode)
                if s is None:
                    out[mode] = c1 * c2
                elif s := s + c1 * c2:
                    out[mode] = s
                else:
                    del out[mode]
        return out

    def __mul__(self, other) -> "RingElement":
        if isinstance(other, RingElement):
            self._compatible(other)
            return RingElement._trusted(self.n, self.model, self._mul_into(other, {}))
        return self.scale(other)

    def __rmul__(self, other) -> "RingElement":
        return self.__mul__(other)

    # -- frame derivations -------------------------------------------------

    def derive(self, j: int) -> "RingElement":
        """Apply the j-th frame derivation (1-based).

        Torus: E_j = t_j d/dt_j, so t^m goes to m_j t^m.  Affine: d/dx_j
        with the usual power rule.

        >>> RingElement.monomial(1, AFFINE, (3,)).derive(1).text()
        '3 * x^(2)'
        """
        if not 1 <= j <= self.n:
            raise MismatchError(f"derivation index {j} out of range 1..{self.n}")
        # Both models send distinct modes to distinct modes, so no key
        # repeats and no term is added to another.
        i = j - 1
        if self.model == TORUS:
            out = {mode: mode[i] * c for mode, c in self.terms.items() if mode[i]}
        else:
            out = {mode[:i] + (mode[i] - 1,) + mode[j:]: mode[i] * c
                   for mode, c in self.terms.items() if mode[i]}
        return RingElement._trusted(self.n, self.model, out)
