"""Exact coefficient rings for the two frame models.

The torus model works with Laurent polynomials Q[t_1^{+-1}, ..., t_N^{+-1}]
and the frame derivations E_j = t_j d/dt_j, so E_j(t^m) = m_j t^m.  The
affine model works with ordinary polynomials Q[x_1, ..., x_N] and the
coordinate derivations d/dx_j.  Everything else in the package is written
against this one class, so the two geometries share all downstream code.

Scalars are `int` or `fractions.Fraction`.  Floats are rejected outright:
every identity this package checks is decided exactly.

Validation happens at the public boundary.  The public constructors
(`RingElement(...)`, `one`, `constant`, `monomial`) check every scalar and
mode.  Results of arithmetic on elements that already passed those checks
are trusted: they go through `RingElement._trusted`, which sets the slots
without checking again.  It keeps the normal form the public constructor
gives, with no zero coefficient and every integral `Fraction` stored as an
`int`, so equal elements always have equal `terms`.

>>> f = RingElement.monomial(2, TORUS, (1, 0)) + RingElement.monomial(2, TORUS, (0, -1))
>>> print(f.text())
t^(0,-1) + t^(1,0)
>>> print(f.derive(2).text())
-1 * t^(0,-1)
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Iterator, Mapping

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


def box_modes(n: int, radius: int) -> list[Mode]:
    """All torus modes with max norm <= radius, lexicographic order."""
    modes: list[Mode] = [()]
    for _ in range(n):
        modes = [m + (e,) for m in modes for e in range(-radius, radius + 1)]
    return modes


def affine_modes(n: int, max_degree: int) -> list[Mode]:
    """All exponents with total degree <= max_degree, lexicographic order."""
    out = []

    def rec(prefix: tuple[int, ...], budget: int) -> None:
        if len(prefix) == n:
            out.append(prefix)
            return
        for e in range(budget + 1):
            rec(prefix + (e,), budget - e)

    rec((), max_degree)
    return sorted(out)


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


class RingElement:
    """Sparse exact Laurent/polynomial element, keyed by exponent tuple.

    Immutable by convention: no method mutates `terms` after construction,
    and all arithmetic returns fresh objects.
    """

    __slots__ = ("n", "model", "terms")

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

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n: int, model: str) -> "RingElement":
        return cls._trusted(n, model, {})

    @classmethod
    def one(cls, n: int, model: str) -> "RingElement":
        return cls(n, model, {(0,) * n: 1})

    @classmethod
    def constant(cls, n: int, model: str, value) -> "RingElement":
        return cls(n, model, {(0,) * n: value})

    @classmethod
    def monomial(cls, n: int, model: str, mode: Iterable[int], coeff=1) -> "RingElement":
        return cls(n, model, {tuple(mode): coeff})

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Mode, int | Fraction]]:
        return sorted(self.terms.items())

    def __iter__(self) -> Iterator[tuple[Mode, int | Fraction]]:
        return iter(self.terms.items())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        return (self.n, self.model, self.terms) == (other.n, other.model, other.terms)

    __hash__ = None  # mutable dict inside; elements are not dict keys

    def _compatible(self, other: "RingElement") -> None:
        if self.n != other.n or self.model != other.model:
            raise MismatchError(
                f"cannot combine ({self.n},{self.model}) with ({other.n},{other.model})"
            )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        self._compatible(other)
        out = dict(self.terms)
        for mode, c in other.terms.items():
            s = out.get(mode, 0) + c
            if s:
                out[mode] = s
            else:
                out.pop(mode, None)
        return RingElement._trusted(self.n, self.model, out)

    def __neg__(self) -> "RingElement":
        return RingElement._trusted(self.n, self.model, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "RingElement":
        if isinstance(other, RingElement):
            self._compatible(other)
            out: dict[Mode, int | Fraction] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    mode = tuple(map(add, m1, m2))
                    s = out.get(mode, 0) + c1 * c2
                    if s:
                        out[mode] = s
                    else:
                        out.pop(mode, None)
            return RingElement._trusted(self.n, self.model, out)
        c = as_scalar(other)
        if not c:
            return RingElement.zero(self.n, self.model)
        return RingElement._trusted(self.n, self.model, {m: c * v for m, v in self.terms.items()})

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
        out: dict[Mode, int | Fraction] = {}
        for mode, c in self.terms.items():
            e = mode[j - 1]
            if e == 0:
                continue
            if self.model == TORUS:
                target = mode
            else:
                target = mode[: j - 1] + (e - 1,) + mode[j:]
            s = out.get(target, 0) + e * c
            if s:
                out[target] = s
            else:
                out.pop(target, None)
        return RingElement._trusted(self.n, self.model, out)

    # -- serialization -------------------------------------------------------

    def text(self) -> str:
        """Canonical text form: terms in ascending lexicographic mode order."""
        if not self.terms:
            return "0"
        var = "t" if self.model == TORUS else "x"
        parts = []
        for mode, c in self.sorted_terms():
            mono = f"{var}^({','.join(str(e) for e in mode)})"
            if c == 1:
                parts.append(mono)
            else:
                parts.append(f"{scalar_text(c)} * {mono}")
        return " + ".join(parts)
