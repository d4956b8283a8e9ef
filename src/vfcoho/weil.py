"""Truncated Weil algebra cohomology and the dimension tables built on it.

The truncated Weil algebra W_N is the tensor product of an exterior
algebra on generators u_1..u_N (degree of u_k is 2k-1) and a polynomial
algebra on c_1..c_N (degree of c_k is 2k), cut off at c-weight N: any
monomial whose c-indices sum beyond N is zero.  The differential sends
u_k to c_k and c_k to 0, extended as a graded derivation.

`weil_betti` computes cohomology by exact rank counting.  `vey_basis`
enumerates the classical monomial basis of the cohomology: u_I c_J with
I = (i_1 < ... < i_r), J = (j_1 <= ... <= j_s), r >= 1, i_1 <= j_1,
sum(J) <= N < i_1 + sum(J).  The two must agree degree by degree.

`haefliger_dims` turns these numbers into cohomology dimensions of the
full vector-field algebra on an N-manifold in the proven window
N+1 <= s <= 2N+1: dim H^s = sum_k b_k(M) * wtilde_{s+k-1} where
wtilde_q = dim H^{q+1}(W_N).  Rows outside that window are not emitted.

`paper_dimension_tables` lists closed-form dimensions quoted from the
literature (marked "cited"; they are consequences of theorems, not
recomputed here).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb

from .linalg import cohomology_dims, sparse_matrix
from .rings import MismatchError

UTuple = tuple[int, ...]
CTuple = tuple[int, ...]
Monomial = tuple[UTuple, CTuple]


def monomial_degree(mono: Monomial) -> int:
    us, cs = mono
    return sum(2 * i - 1 for i in us) + sum(2 * j for j in cs)


def monomial_text(mono: Monomial) -> str:
    us, cs = mono
    parts = []
    if us:
        parts.append(" ".join(f"u{i}" for i in us))
    if cs:
        powers = []
        for j in sorted(set(cs)):
            e = cs.count(j)
            powers.append(f"c{j}^{e}" if e > 1 else f"c{j}")
        parts.append(" ".join(powers))
    if not parts:
        return "1"
    return " | ".join(parts)


def _c_multisets(n: int) -> list[CTuple]:
    """All nondecreasing tuples from 1..n with sum at most n."""
    return [cs for r in range(n + 1)
            for cs in combinations_with_replacement(range(1, n + 1), r) if sum(cs) <= n]


@lru_cache(maxsize=None)
def weil_monomials(n: int) -> tuple[Monomial, ...]:
    """Every monomial of the truncation, sorted by (degree, u-part, c-part)."""
    monos: list[Monomial] = []
    csets = _c_multisets(n)
    for r in range(n + 1):
        for us in combinations(range(1, n + 1), r):
            for cs in csets:
                monos.append((us, cs))
    monos.sort(key=lambda m: (monomial_degree(m), m))
    return tuple(monos)


def weil_basis(n: int, degree: int) -> list[Monomial]:
    return [m for m in weil_monomials(n) if monomial_degree(m) == degree]


def weil_differential(mono: Monomial, n: int) -> list[tuple[int, Monomial]]:
    """d(u_I c_J) as a signed list of monomials; c-weight overflow drops out."""
    us, cs = mono
    out = []
    weight = sum(cs)
    for pos, i in enumerate(us):
        if weight + i > n:
            continue
        sign = -1 if pos % 2 else 1
        rest = us[:pos] + us[pos + 1:]
        out.append((sign, (rest, tuple(sorted(cs + (i,))))))
    return out


def max_degree(n: int) -> int:
    return n * n + 2 * n


@lru_cache(maxsize=None)
def weil_betti(n: int) -> tuple[int, ...]:
    """dim H^q of the truncated Weil algebra for q = 0..max_degree(n)."""
    bases = [weil_basis(n, q) for q in range(max_degree(n) + 1)]
    matrices = [sparse_matrix(source, target,
                              ((mono, image, sign) for mono in source
                               for sign, image in weil_differential(mono, n)))
                for source, target in zip(bases, bases[1:])]
    return tuple(cohomology_dims([len(b) for b in bases], matrices))


def vey_basis(n: int, degree: int | None = None) -> list[Monomial]:
    """Monomial cohomology basis (unit excluded); all degrees when None."""
    out = []
    for mono in weil_monomials(n):
        us, cs = mono
        if not us or not cs:
            continue
        if us[0] > cs[0]:
            continue
        if us[0] + sum(cs) <= n:
            continue
        if degree is not None and monomial_degree(mono) != degree:
            continue
        out.append(mono)
    return out


def partition(m: int) -> int:
    """Number of partitions of m, by the pentagonal number recurrence."""
    if m < 0:
        return 0
    table = [1] + [0] * m
    for i in range(1, m + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > i and g2 > i:
                break
            sign = 1 if k % 2 else -1  # k odd contributes +
            if g1 <= i:
                total += sign * table[i - g1]
            if g2 <= i:
                total += sign * table[i - g2]
            k += 1
        table[i] = total
    return table[m]


def wtilde_dims(n: int) -> dict[int, int]:
    """wtilde_q = dim H^{q+1}(W_N) on the window 2N <= q <= (N+1)^2 - 2."""
    betti = weil_betti(n)
    out = {}
    for q in range(2 * n, (n + 1) ** 2 - 1):
        value = betti[q + 1] if q + 1 < len(betti) else 0
        if value:
            out[q] = value
    return out


def haefliger_dims(n: int, betti_of_m: list[int] | None = None) -> dict[int, int]:
    """dim H^s of the vector fields on M for s in the window N+1..2N+1.

    `betti_of_m` defaults to the torus Betti numbers binomial(n, k).
    """
    if betti_of_m is None:
        betti_of_m = [comb(n, k) for k in range(n + 1)]
    if len(betti_of_m) != n + 1:
        raise MismatchError(f"need {n + 1} Betti numbers, got {len(betti_of_m)}")
    wt = wtilde_dims(n)
    return {s: sum(betti_of_m[k] * wt.get(s + k - 1, 0) for k in range(n + 1))
            for s in range(n + 1, 2 * n + 2)}


def paper_dimension_tables(n: int) -> list[dict]:
    """Closed-form dimension statements for the torus model, quoted as
    consequences of published theorems ("cited", not recomputed)."""
    rows: list[dict] = []
    for p in range(n + 1):
        rows.append({"space": f"H^0(V, forms[{p}] mod exact)", "dim": comb(n, p),
                     "formula": f"C({n},{p})", "source": "cited"})
    if n >= 2:
        for m in range(1, n + 1):
            rows.append({"space": f"H^1(V, forms[{m}] mod exact)",
                         "dim": comb(n, m + 1),
                         "formula": f"C({n},{m + 1})", "source": "cited"})
        rows.append({"space": "H^2(V, forms[0])", "dim": comb(n, 2) + comb(n, 1),
                     "formula": f"C({n},2)+C({n},1)", "source": "cited"})
        rows.append({"space": "H^2(V, forms[1] mod exact)", "dim": comb(n, 3) + 2,
                     "formula": f"C({n},3)+2", "source": "cited"})
        rows.append({"space": "H^2(V, forms[1])", "dim": comb(n, 1) + 1,
                     "formula": f"C({n},1)+1", "source": "cited"})
        for m in range(2, n + 1):
            rows.append({"space": f"H^2(V, forms[{m}] mod exact)",
                         "dim": comb(n, m + 2),
                         "formula": f"C({n},{m + 2})", "source": "cited"})
    return rows
