"""Reference values computed apart from vfcoho.

Nothing here imports the program.  Polynomials are dicts from exponent
tuples to Fractions; a vector field is a list of terms (mode, j, coeff)
standing for the sum of coeff * t^mode E_j on the torus.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
import random

Poly = dict
Matrix = dict  # (row, col) -> Poly, 0-based


def poly_add(acc: Poly, other: Poly, sign: int = 1) -> None:
    for mode, c in other.items():
        s = acc.get(mode, 0) + sign * c
        if s:
            acc[mode] = s
        else:
            acc.pop(mode, None)


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mode = tuple(x + y for x, y in zip(m1, m2))
            s = out.get(mode, 0) + c1 * c2
            if s:
                out[mode] = s
            else:
                out.pop(mode, None)
    return out


def mat_mul(a: Matrix, b: Matrix, size: int) -> Matrix:
    out: Matrix = {}
    for i in range(size):
        for j in range(size):
            acc: Poly = {}
            for k in range(size):
                if (i, k) in a and (k, j) in b:
                    poly_add(acc, poly_mul(a[(i, k)], b[(k, j)]))
            if acc:
                out[(i, j)] = acc
    return out


def jacobian(field: list, n: int) -> Matrix:
    """u(X)_{il} = -E_l(f_i) with E_l(t^m) = m_l t^m on the torus."""
    out: Matrix = {}
    for mode, j, c in field:
        for col in range(n):
            if mode[col]:
                poly_add(out.setdefault((j - 1, col), {}), {mode: -mode[col] * c})
    return {key: p for key, p in out.items() if p}


def divergence(field: list) -> Poly:
    """div X = sum_j E_j(f_j)."""
    out: Poly = {}
    for mode, j, c in field:
        poly_add(out, {mode: mode[j - 1] * c})
    return out


def permutation_sign(perm) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def alternating_trace(fields: list, n: int) -> Poly:
    """Sum over all orderings s of sgn(s) Tr(u(X_s1) ... u(X_sm))."""
    mats = [jacobian(x, n) for x in fields]
    total: Poly = {}
    for perm in permutations(range(len(mats))):
        acc = mats[perm[0]]
        for i in perm[1:]:
            acc = mat_mul(acc, mats[i], n)
        trace: Poly = {}
        for i in range(n):
            poly_add(trace, acc.get((i, i), {}))
        poly_add(total, trace, permutation_sign(perm))
    return total


def random_torus_field(rng: random.Random, n: int, radius: int, terms: int) -> list:
    out = []
    for _ in range(terms):
        mode = tuple(rng.randint(-radius, radius) for _ in range(n))
        j = rng.randint(1, n)
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
        out.append((mode, j, c))
    return out


def exterior_poincare(degrees) -> list[int]:
    """Coefficients of prod_d (1 + t^d): Betti numbers of an exterior algebra."""
    coeffs = [1]
    for d in degrees:
        grown = coeffs + [0] * d
        for q, c in enumerate(coeffs):
            grown[q + d] += c
        coeffs = grown
    return coeffs


def partitions(m: int) -> int:
    """Number of partitions of m, by counting parts of size at most k."""
    ways = [1] + [0] * m
    for part in range(1, m + 1):
        for total in range(part, m + 1):
            ways[total] += ways[total - part]
    return ways[m]


def weil_degree(monomial) -> int:
    """Degree of u_I c_J: u_i has degree 2i-1 and c_j has degree 2j."""
    us, cs = monomial
    return sum(2 * i - 1 for i in us) + sum(2 * j for j in cs)
