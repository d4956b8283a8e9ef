"""One round of a workload in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED TRACE SPAWNED [--setup-only]

SPAWNED is the `time.monotonic()` reading the parent took just before it
started this process (the clock is system-wide on Linux), so set-up time
covers interpreter start, the import of vfcoho and building the
workload's cochains, contexts and Lie algebras.  With --setup-only the
round stops there.  Otherwise it runs the workload's steps (the timed
region), judges them, runs the reference cross-checks and prints one JSON
line.  A fresh process per round is deliberate: a command-line user pays
for the import and for cold `lru_cache`s on every run.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    sys.path.insert(0, str(SRC))
    import vfcoho
    if Path(vfcoho.__file__).resolve().parent != SRC / "vfcoho":
        raise ImportError(f"vfcoho imported from {vfcoho.__file__}, not {SRC}")
    return vfcoho


def run_steps(steps, tracer=None) -> tuple[dict, float]:
    """The timed region: every step, and nothing else."""
    results = {}
    start = time.perf_counter()
    for step in steps:
        t0 = time.perf_counter()
        try:
            value = tracer.span(step.name, step.run) if tracer else step.run()
        except Exception:  # a crash is a failed operation, not a harness error
            value = traceback.format_exc(limit=4)
        results[step.name] = (value, time.perf_counter() - t0)
    return results, time.perf_counter() - start


def judge(workload, steps, results) -> list:
    crashed = [value for value, _s in results.values() if isinstance(value, str)]
    if crashed:
        from workloads import Outcome
        # A crash voids the round's verdicts: every operation counts as
        # failed, with the exception as the reason.
        reason = "raised " + crashed[0].strip().splitlines()[-1]
        return [Outcome(name, 0.0, failure=reason)
                for step in steps for name in step.operations]
    return workload.judge(results)


def layer_counts(vf, snapshot: dict, outcomes) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced round."""
    from spans import TRACED_MODULES, share
    modules, functions = snapshot["modules"], snapshot["functions"]

    def calls(qualname: str) -> int:
        return functions.get(qualname, {}).get("calls", 0)

    rref = sys.modules["vfcoho.forms"]._affine_exact_rref.cache_info()
    rings_terms = sum(f["terms_out"] for q, f in functions.items()
                      if q.startswith("rings."))
    values = {
        "rings.calls": modules["rings"]["calls"],
        "rings.terms_out": rings_terms,
        "fields.matmul.calls": calls("fields.MatrixFunction.__matmul__"),
        "fields.neg_jacobian.calls": calls("fields.neg_jacobian"),
        "fields.bracket.calls": calls("fields.VectorField.bracket"),
        "forms.calls": modules["forms"]["calls"],
        "forms.reduce.calls": calls("forms.reduce_mod_exact"),
        "forms.affine_rref.hit_share": share(rref.hits, rref.hits + rref.misses),
        "cocycles.eval.calls": snapshot["evals"],
        "cocycles.eval.zero_share": share(snapshot["eval_zero"], snapshot["evals"]),
        "cocycles.eval.distinct_share": share(snapshot["eval_distinct"],
                                              snapshot["evals"]),
        "cohomology.ce_apply.calls": calls("cohomology.ce_apply"),
        "extensions.bracket.calls": calls("extensions.extension_bracket"),
        "linalg.calls": modules["linalg"]["calls"],
        "suites.checks": sum(o.checks for o in outcomes),
        "suites.tuples": sum(o.tuples for o in outcomes),
    }
    for module in TRACED_MODULES:
        values[f"{module}.self_s"] = modules[module]["self_s"]
    return values


def play_round(vf, workload, tracer=None) -> dict:
    """Run the workload's steps once, judge them and cross-check them."""
    steps = workload.steps()
    if tracer:
        tracer.reset()
    results, wall_s = run_steps(steps, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    snapshot = tracer.snapshot() if tracer else None
    outcomes = judge(workload, steps, results)
    round_result = {
        "wall_s": wall_s,
        "peak_rss_mb": rss_mb,
        "operations": [vars(o) for o in outcomes],
        "problems": workload.cross_check(),
    }
    if tracer:
        round_result["layers"] = layer_counts(vf, snapshot, outcomes)
        round_result["trace"] = snapshot
    return round_result


def main(argv: list[str]) -> int:
    workload_name, seed, trace, spawned = argv[:4]
    vf = import_program()
    from workloads import WORKLOADS
    tracer = None
    if trace == "1":
        from spans import Tracer
        tracer = Tracer(vf).install()
    workload = WORKLOADS[workload_name](vf, int(seed))
    setup_s = time.monotonic() - float(spawned)
    if "--setup-only" in argv[4:]:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    print(json.dumps({"setup_s": setup_s, **play_round(vf, workload, tracer)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
