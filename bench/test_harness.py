"""Fast self-test of the benchmark harness (not part of the program's tests).

    python3 -m pytest -q bench/test_harness.py

It checks that BENCHMARK.json and the harness agree on every metric and
unit, that a small traced round yields every metric, that the harness
names a per-layer count that did not repeat, that the cross-check and the
workload verdicts have teeth (planted defects make operations fail), and
that the command refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

vf = worker.import_program()


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class TinyOddTrace(workloads.OddTrace):
    """The odd-trace workload's checks at radius 1 with small budgets."""

    def steps(self):
        return [workloads.Step(self.check_name(k), lambda k=k: vf.is_cocycle(
            self.cochains[k], radius=1, samples=2, seed=self.seed,
            max_tuples=budget, name=self.check_name(k)))
            for k, budget in ((1, 60), (2, 6))]


def test_benchmark_json_matches_the_harness():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_every_metric_is_emitted_with_its_unit():
    tracer = Tracer(vf).install()
    try:
        traced = [worker.play_round(vf, TinyOddTrace(vf, 7), tracer) for _ in range(2)]
    finally:
        tracer.uninstall()
    plain = worker.play_round(vf, TinyOddTrace(vf, 7))
    assert not plain["problems"]
    assert all(o["failure"] is None for o in plain["operations"])
    assert run.count_mismatches(traced) == []
    spec = _spec()
    for kind, values in (("end_to_end", run.end_to_end([plain], [0.1])),
                         ("per_layer", run.per_layer(traced))):
        emitted = run.emitted(values, {m["name"]: m["unit"] for m in spec[kind]})
        for metric in spec[kind]:
            value = emitted[metric["name"]]
            assert value["unit"] == metric["unit"]
            assert isinstance(value["value"], (int, float))
    layers = traced[0]["layers"]
    assert layers["suites.checks"] == 2
    assert layers["cohomology.ce_apply.calls"] == layers["suites.tuples"]
    assert layers["rings.calls"] > 0 and layers["fields.neg_jacobian.calls"] > 0


def test_uninstall_restores_the_program():
    original = vf.VectorField.bracket
    Tracer(vf).install().uninstall()
    assert vf.VectorField.bracket is original
    assert sys.modules["vfcoho.suites"].is_cocycle is vf.is_cocycle


def test_a_count_that_does_not_repeat_is_named():
    first = {name: 1 for name in run.PER_LAYER}
    second = dict(first, **{"rings.calls": 2, "rings.self_s": 5})
    problems = run.count_mismatches([{"layers": first}, {"layers": second}])
    assert len(problems) == 1 and problems[0].startswith("rings.calls:")


def test_cross_check_catches_a_wrong_scalar_trace():
    workload = workloads.OddTrace(vf, 3)
    assert workload.cross_check() == []
    cochain = workload.cochains[1]
    correct = cochain.evaluate
    cochain.evaluate = lambda *args: correct(*args) * 2
    problems = workload.cross_check()
    assert any("scalar_trace[1]" in p for p in problems)


def _first_failure(workload) -> str | None:
    """Run steps one at a time until an operation fails."""
    for step in workload.steps():
        round_result = worker.judge(workload, [step],
                                    {step.name: (step.run(), 0.0)})
        failures = [o.failure for o in round_result if o.failure]
        if failures:
            return failures[0]
    return None


def _bracket_sign_flip(monkeypatch):
    bracket = vf.VectorField.bracket
    monkeypatch.setattr(vf.VectorField, "bracket",
                        lambda x, y: bracket(x, y).scale(-1))


def _reduce_torus_wrong_term(monkeypatch):
    forms = sys.modules["vfcoho.forms"]
    reduce_torus = forms._reduce_torus

    def wrong(w):
        out = reduce_torus(w)
        terms = dict(out.terms)
        for (mode, subset), c in sorted(terms.items()):
            if any(mode):
                terms[(mode, subset)] = -c
                break
        return forms.PForm(out.n, out.model, out.degree, terms)

    monkeypatch.setattr(forms, "_reduce_torus", wrong)


@pytest.mark.parametrize("defect, workload", [
    (_bracket_sign_flip, workloads.OddTrace),
    (_reduce_torus_wrong_term, workloads.ExtensionJacobi),
])
def test_planted_defect_fails_an_operation(monkeypatch, defect, workload):
    defect(monkeypatch)
    assert _first_failure(workload(vf, 7)) is not None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "odd-trace-d3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
