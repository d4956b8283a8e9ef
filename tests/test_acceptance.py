"""Acceptance gates for the verification engine.

Each criterion is one test that prints a single PASS/FAIL line, so the
overall verdict is readable straight off the pytest log.  Quantitative
criteria compare exact integers; property criteria drive the public suite
runners at their stated box sizes and sample counts.
"""

import json
import random
import subprocess
import sys
import time
from itertools import combinations

from vfcoho import (TORUS, PForm, RingElement, RunConfig, betti_numbers,
                    FiniteLieAlgebra, ext_d, haefliger_dims, partition,
                    reduce_mod_exact, vey_basis, weil_betti,
                    wedge_pair_cocycle)
from vfcoho.cocycles import divfree_basis
from vfcoho.forms import is_exact
from vfcoho.reports import strip_timing, dumps
from vfcoho.rings import model_modes
from vfcoho.suites import _divfree_witness, all_passed, flatten, run_suites
from vfcoho.weil import max_degree


def _verdict(num, label, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} ({label}) failed{suffix}"


def _timed_detail(elapsed, bound, **problems):
    """'12.3 s < 60 s' plus every non-empty list of failed items."""
    parts = [f"{elapsed:.1f} s {'<' if elapsed < bound else '>='} {bound} s"]
    parts += [f"{key}: {', '.join(map(str, items))}"
              for key, items in problems.items() if items]
    return "; ".join(parts)


def _names(sections):
    return {r.name for r in flatten(sections)}


def test_criterion_01_weil_dimensions():
    start = time.perf_counter()
    top_dim = {1: 1, 2: 2, 3: 4, 4: 6}
    failed = []
    for n in range(1, 5):
        betti = weil_betti(n)
        ok = betti[0] == 1
        ok = ok and all(betti[q] == 0 for q in range(1, 2 * n + 1))
        if 2 * n + 2 <= max_degree(n):
            ok = ok and betti[2 * n + 2] == 0
        ok = ok and all(betti[q] == 0
                        for q in range((n + 1) ** 2, max_degree(n) + 1))
        ok = ok and betti[2 * n + 1] == top_dim[n] == partition(n + 1) - 1
        if not ok:
            failed.append(f"N={n}")
    elapsed = time.perf_counter() - start
    _verdict(1, "weil dimensions", not failed and elapsed < 60,
             _timed_detail(elapsed, 60, failed=failed))


def test_criterion_02_vey_basis_counts():
    ok = True
    for n in range(1, 5):
        betti = weil_betti(n)
        ok = ok and not vey_basis(n, 0) and betti[0] == 1
        for q in range(1, max_degree(n) + 1):
            ok = ok and len(vey_basis(n, q)) == betti[q]
    _verdict(2, "vey basis", ok)


def test_criterion_03_haefliger_torus_table():
    ok = True
    for n in (2, 3, 4):
        table = haefliger_dims(n)
        ok = ok and table[n + 1] == partition(n + 1) - 1
        ok = ok and table[n + 2] == n * (partition(n + 1) - 1)
    _verdict(3, "haefliger table", ok)


def test_criterion_04_gl_betti():
    start = time.perf_counter()
    expected = {
        1: [1, 1],
        2: [1, 1, 0, 1, 1],
        3: [1, 1, 0, 1, 1, 1, 1, 0, 1, 1],
    }
    failed = [f"gl_{n}" for n in (1, 2, 3)
              if betti_numbers(FiniteLieAlgebra.gl(n)) != expected[n]]
    elapsed = time.perf_counter() - start
    _verdict(4, "gl betti", not failed and elapsed < 300,
             _timed_detail(elapsed, 300, failed=failed))


def test_criterion_05_cocycle_suite():
    start = time.perf_counter()
    failed, missing = [], []
    for dim in (2, 3):
        cfg = RunConfig(dim=dim, model=TORUS, radius=2, samples=100, seed=7)
        sections = run_suites(["cocycles"], cfg)
        failed += [f"dim {dim} {r.name}" for r in flatten(sections)
                   if not r.passed()]
        names = _names(sections)
        required = {"cocycle:torus:divergence", "cocycle:torus:wedge_pair",
                    "cocycle:torus:closed_pair[basis]"}
        for k in range(1, dim + 1):
            for family in ("scalar_trace", "form_trace", "reduced_trace"):
                required.add(f"cocycle:torus:{family}[{k}]")
        for label in ("sl2", "gl1"):
            for k in (1, 2):
                required.add(f"cocycle:torus:{label}:gauge_form_trace[{k}]")
                required.add(f"cocycle:torus:{label}:gauge_reduced_trace[{k}]")
        for k in (1, 2):
            for family in ("scalar_trace", "form_trace", "reduced_trace"):
                required.add(f"cocycle:affine:{family}[{k}]")
        missing += [f"dim {dim} {name}" for name in sorted(required - names)]
        for prefix in ("cocycle:torus:contraction[1]",
                       "cocycle:torus:contraction[2]"):
            if not any(n.startswith(prefix) for n in names):
                missing.append(f"dim {dim} {prefix}*")
    elapsed = time.perf_counter() - start
    _verdict(5, "cocycle suite", not failed and not missing and elapsed < 300,
             _timed_detail(elapsed, 300, failed=failed, missing=missing))


def test_criterion_06_relation_suite():
    cfg = RunConfig(dim=2, model=TORUS)
    sections = run_suites(["relations"], cfg)
    names = _names(sections)
    required = {
        "relation:d-reduced-equals-form[1]",
        "relation:d-reduced-equals-form[2]",
        "relation:trace1-is-minus-div",
        "relation:crossed-hom",
        "relation:pullback-odd-trace[1]",
        "relation:pullback-odd-trace[2]",
        "relation:pullback-reduced-trace[1]",
        "relation:pullback-reduced-trace[2]",
        "relation:pullback-form-trace[1]",
        "relation:pullback-form-trace[2]",
        "relation:maurer-cartan:torus",
        "relation:maurer-cartan:affine",
    }
    ok = all_passed(sections) and required <= names
    _verdict(6, "relation suite", ok)


def test_criterion_07_divergence_free_restriction(golden):
    wp = wedge_pair_cocycle(2, TORUS)
    fields = divfree_basis(2, 2)
    ok = bool(fields)
    for x, y in combinations(fields, 2):
        ok = ok and wp.evaluate(x, y).is_zero()
    witness = _divfree_witness(RunConfig(dim=2, radius=2))
    ok = ok and witness.passed()
    if witness.passed():
        ok = ok and witness.data["value"] == golden["divfree_witness"]["value"]
    _verdict(7, "divergence-free restriction", ok)


def test_criterion_08_extension_jacobi():
    ok = True
    # torus twists: zero, both trace families, the contraction cocycle
    sections = run_suites(["extensions"], RunConfig(dim=3, model=TORUS))
    ok = ok and all_passed(sections)
    names = _names(sections)
    for label in ("untwisted", "reduced-trace-2", "wedge-pair", "contraction"):
        ok = ok and f"extension:jacobi:{label}" in names

    # N = 1 with the cubic twist
    sections = run_suites(["extensions"], RunConfig(dim=1, model=TORUS))
    ok = ok and all_passed(sections)
    ok = ok and "extension:jacobi:virasoro" in _names(sections)

    # the planted defect must fail, with a witness, and nothing else may
    sections = run_suites(["extensions"],
                          RunConfig(dim=2, model=TORUS, planted=True))
    failed = [r for r in flatten(sections) if not r.passed()]
    ok = ok and [r.name for r in failed] == ["extension:jacobi:planted-noncocycle"]
    ok = ok and failed and "residual" in failed[0].witness
    _verdict(8, "extension jacobi", ok)


def test_criterion_09_quotient_correctness():
    rng = random.Random(7)
    ok = True
    for n in (1, 2, 3):
        modes = model_modes(TORUS, n, 2)
        subsets = {p: list(combinations(range(1, n + 1), p))
                   for p in range(n + 1)}

        def random_form(degree):
            acc = PForm.zero(n, TORUS, degree)
            for _ in range(2):
                acc = acc + PForm.monomial(
                    n, TORUS, rng.choice(modes), rng.choice(subsets[degree]),
                    rng.choice([-3, -2, -1, 1, 2, 3]))
            return acc

        for p in range(1, n + 1):
            for _ in range(500):
                w = random_form(p)
                eta = random_form(p - 1) if p > 1 else \
                    PForm.from_ring(RingElement.monomial(
                        n, TORUS, rng.choice(modes), rng.choice([1, 2, -1])))
                shifted = w + ext_d(eta)
                cls = reduce_mod_exact(w)
                ok = ok and reduce_mod_exact(shifted) == cls
                ok = ok and reduce_mod_exact(cls.rep) == cls
                ok = ok and reduce_mod_exact(shifted).is_zero() == is_exact(shifted)
                if not ok:
                    break
    _verdict(9, "quotient correctness", ok)


def test_criterion_10_deterministic_reports():
    args = [sys.executable, "-m", "vfcoho.cli", "report", "--suites",
            "crossed-hom", "--dim", "2", "--format", "json"]
    docs = []
    for _ in range(2):
        out = subprocess.run(args, capture_output=True, text=True)
        assert out.returncode == 0
        docs.append(dumps(strip_timing(json.loads(out.stdout))))
    _verdict(10, "deterministic reports", docs[0] == docs[1])
