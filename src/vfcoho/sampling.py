"""Deterministic enumeration and seeded sampling of test inputs, and the
one check engine.

Basis fields are enumerated in lexicographic mode order (box of radius R
in the torus model, total degree <= R in the affine model).  For a check
of arity k the engine runs over all increasing index k-tuples when their
count fits the configured budget; otherwise it draws a uniform seeded
sample of exactly `budget` tuples.  Random tuples on top of that are
small rational combinations of basis fields, so a residual that is not
identically zero is caught with certainty at any point where it does not
vanish.

Every check except the de Rham table comparison in `suites` runs through
`run_check`, which times it and builds its report, in one of two forms.
The must-vanish form stops at the first nonzero residual and fails with
the witness {"args": [...], "residual": ...}.  The search form passes at
the first nonzero value, recorded as data {"args": [...], "value": ...},
and fails with a {"reason": ...} witness when the cases run out.
`seeded_check` draws the basis-plus-samples cases of a check and records
its standard params (arity, basis_size, max_tuples, samples, seed,
exhaustive).

The generator is Python's Mersenne Twister (`random.Random`), which is
stable across platforms; per-check seeds are derived from the base seed
and the check name via CRC32 so reordering checks cannot reshuffle
samples.
"""

from __future__ import annotations

import random
import time
import zlib
from fractions import Fraction
from itertools import chain, combinations
from math import comb
from operator import methodcaller
from typing import Callable, Iterable, Iterator, Sequence

from .fields import VectorField
from .reports import CheckReport
from .rings import RingElement, _collect, model_modes


def derive_seed(base: int, name: str) -> int:
    return (base * 0x9E3779B1 + zlib.crc32(name.encode("utf-8"))) % (2 ** 63)


def check_rng(seed: int, name: str) -> random.Random:
    """The generator of one check, seeded by the base seed and its name."""
    return random.Random(derive_seed(seed, name))


def basis_fields(model: str, n: int, radius: int) -> list[VectorField]:
    return [VectorField.basis(n, model, mode, j)
            for mode in model_modes(model, n, radius)
            for j in range(1, n + 1)]


def random_scalar(rng: random.Random) -> Fraction:
    num = rng.choice([-3, -2, -1, 1, 2, 3])
    den = rng.choice([1, 1, 2, 3])
    return Fraction(num, den)


def random_field(rng: random.Random, model: str, n: int, radius: int,
                 terms: int = 2) -> VectorField:
    """A sum of `terms` basis fields t^m E_j, each scaled by a `random_scalar`,
    drawn as (mode, j, scalar) in that order."""
    modes = model_modes(model, n, radius)
    out: dict = {}
    for _ in range(terms):
        mode = rng.choice(modes)
        j = rng.randrange(1, n + 1)
        _collect([(j, RingElement._trusted(n, model, {mode: random_scalar(rng)}))], out)
    return VectorField._trusted(n, model, out)


def random_ring(rng: random.Random, model: str, n: int, radius: int,
                terms: int = 2) -> RingElement:
    """A sum of `terms` monomials, each drawn as (mode, `random_scalar`)."""
    modes = model_modes(model, n, radius)
    out: dict = {}
    for _ in range(terms):
        mode = rng.choice(modes)
        _collect([(mode, random_scalar(rng))], out)
    return RingElement._trusted(n, model, out)


def index_tuples(count: int, arity: int, budget: int,
                 rng: random.Random) -> tuple[Iterator[tuple[int, ...]], bool]:
    """Increasing `arity`-tuples out of range(count).

    Returns (iterator, exhaustive_flag).  When the full count exceeds the
    budget, a deduplicated seeded sample of `budget` tuples is drawn
    instead.
    """
    if comb(count, arity) <= budget:
        return combinations(range(count), arity), True

    def sample() -> Iterator[tuple[int, ...]]:
        seen: set[tuple[int, ...]] = set()
        while len(seen) < budget:
            pick = tuple(sorted(rng.sample(range(count), arity)))
            if pick not in seen:
                seen.add(pick)
                yield pick

    return sample(), False


def seeded_cases(rng: random.Random, elements: Sequence, arity: int, budget: int,
                 samples: int, random_element: Callable | None
                 ) -> tuple[Iterator[tuple], bool]:
    """Cases of a check: basis `arity`-tuples of `elements` (all of them, or
    a seeded sample of `budget`), then `samples` tuples of
    `random_element(rng)` draws.  Returns (cases, exhaustive_flag).

    Cases are drawn lazily and in that order, so the random tuples always
    follow the basis sample in the generator's stream.
    """
    tuples, exhaustive = index_tuples(len(elements), arity, budget, rng)
    basis = (tuple(elements[i] for i in idx) for idx in tuples)
    drawn = (tuple(random_element(rng) for _ in range(arity))
             for _ in range(samples))
    return chain(basis, drawn), exhaustive


def value_is_zero(v) -> bool:
    if hasattr(v, "is_zero"):
        return v.is_zero()
    return not v


def value_text(v) -> str:
    if hasattr(v, "text"):
        return v.text()
    return str(Fraction(v))


def run_check(name: str, params: dict, cases: Iterable[tuple], exhaustive: bool,
              residual: Callable, text: Callable = methodcaller("text"),
              search: str | None = None) -> CheckReport:
    """Evaluate `residual(*case)` once per case and stop at the first
    nonzero value.

    Must-vanish form (`search` None): that case and value are the failing
    witness {"args": [...], "residual": ...}, and a check that saw no case
    fails, for it decided nothing.  Search form (`search` the reason to
    report): that case and value pass as data {"args": [...], "value": ...},
    and running out of cases fails with {"reason": search}.
    """
    start = time.perf_counter()
    params = dict(params, exhaustive=exhaustive)
    count, found = 0, None
    for case in cases:
        count += 1
        r = residual(*case)
        if not value_is_zero(r):
            found = {"args": [text(a) for a in case],
                     "residual" if search is None else "value": value_text(r)}
            break
    if search is not None:
        passed, witness = bool(found), None if found else {"reason": search}
    else:
        passed = count > 0 and not found
        witness = found or (None if count else {"reason": "no tuples checked"})
    return CheckReport(
        name=name, params=params, status="pass" if passed else "fail",
        tuples=count, witness=witness, data=found if search else None,
        wall_ms=(time.perf_counter() - start) * 1000.0)


def seeded_check(name: str, elements: Sequence, arity: int, residual: Callable, *,
                 seed: int, budget: int, samples: int,
                 random_element: Callable | None = None, params: dict | None = None,
                 text: Callable = methodcaller("text")) -> CheckReport:
    """Must-vanish check over basis `arity`-tuples of `elements` plus
    `samples` random tuples (none without `random_element`), drawn from a
    generator seeded by (seed, name).  The report's params are the
    caller's plus arity, basis_size, max_tuples, samples (as drawn), seed
    and exhaustive.
    """
    samples = samples if random_element is not None else 0
    cases, exhaustive = seeded_cases(check_rng(seed, name), elements, arity,
                                     budget, samples, random_element)
    params = dict(params or {}, arity=arity, basis_size=len(elements),
                  max_tuples=budget, samples=samples, seed=seed)
    return run_check(name, params, cases, exhaustive, residual, text)
