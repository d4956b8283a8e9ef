"""Benchmark command: runs one workload and prints its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every round runs in a fresh interpreter
(`worker.py`), one at a time, so one core does the work and the
import and cold caches are paid as a command-line user pays them.  Rounds
repeat while the next one is expected to end within S seconds; there is
always at least one, and two when tracing, so that the per-layer counts
of two traced rounds can be compared.  Set-up time is sampled in extra
set-up-only interpreters as well as in every round.

With --trace 0 the last line of standard output holds the end-to-end
metrics, each the median over the run's rounds; with --trace 1 it holds
the per-layer metrics of the traced rounds.  Per-run details, every
operation and the trace are written to bench/out/.  Exit status 0 means
a result was printed; a harness failure (no program to run, a crashed or
hung worker) exits 1 without one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
WORKLOADS = ("odd-trace-d3", "extension-jacobi-d3", "formal-tables-d3")

END_TO_END = {"wall_s": "s", "tuples_per_s": "1/s", "slowest_check_s": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "rings.calls": "count", "rings.terms_out": "count", "rings.self_s": "s",
    "fields.matmul.calls": "count", "fields.neg_jacobian.calls": "count",
    "fields.bracket.calls": "count", "fields.self_s": "s",
    "forms.calls": "count", "forms.reduce.calls": "count", "forms.self_s": "s",
    "forms.affine_rref.hit_share": "ratio",
    "cocycles.eval.calls": "count", "cocycles.eval.zero_share": "ratio",
    "cocycles.eval.distinct_share": "ratio", "cocycles.self_s": "s",
    "cohomology.ce_apply.calls": "count", "cohomology.self_s": "s",
    "extensions.bracket.calls": "count", "extensions.self_s": "s",
    "linalg.calls": "count", "linalg.self_s": "s", "weil.self_s": "s",
    "sampling.self_s": "s",
    "suites.checks": "count", "suites.tuples": "count", "suites.self_s": "s",
}
SETUP_SAMPLES = 10
# Every worker must be done this long after the command started, which
# leaves room within the 180 s a run may take.
DEADLINE_S = 170.0


class HarnessError(RuntimeError):
    pass


def spawn(workload: str, seed: int, trace: int, deadline: float,
          setup_only: bool = False) -> dict:
    """Run one worker to completion and return its JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("no time left for another worker")
    argv = [sys.executable, str(WORKER), workload, str(seed), str(trace),
            repr(time.monotonic())]
    if setup_only:
        argv.append("--setup-only")
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"worker {argv[2:]} still running after {timeout:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise HarnessError(f"worker {argv[2:]} exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def end_to_end(rounds: list[dict], setups: list[float]) -> dict[str, float]:
    median = statistics.median
    return {
        "wall_s": median([r["wall_s"] for r in rounds]),
        "tuples_per_s": median([sum(o["tuples"] for o in r["operations"]) / r["wall_s"]
                                for r in rounds]),
        "slowest_check_s": median([max(o["seconds"] for o in r["operations"])
                                   for r in rounds]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in rounds]),
        "setup_s": median(setups),
    }


def count_mismatches(rounds: list[dict]) -> list[str]:
    """Per-layer counts must repeat exactly; name every one that did not."""
    first = rounds[0]["layers"]
    out = []
    for i, other in enumerate(rounds[1:], start=2):
        for name, unit in PER_LAYER.items():
            if unit != "s" and other["layers"][name] != first[name]:
                out.append(f"{name}: traced round 1 gave {first[name]}, "
                           f"round {i} gave {other['layers'][name]}")
    return out


def emitted(values: dict[str, float], units: dict[str, str]) -> dict[str, dict]:
    """The result line's metrics: every named metric with its unit."""
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def per_layer(rounds: list[dict]) -> dict[str, float]:
    values = dict(rounds[0]["layers"])
    for name, unit in PER_LAYER.items():
        if unit == "s":
            values[name] = statistics.median(r["layers"][name] for r in rounds)
    return values


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    # The first import in a fresh checkout compiles the bytecode; keep
    # that out of the set-up samples.
    spawn(workload, seed, trace, deadline, setup_only=True)
    setups = [] if trace else [
        spawn(workload, seed, trace, deadline, setup_only=True)["setup_s"]
        for _ in range(SETUP_SAMPLES)]
    rounds: list[dict] = []
    first_start = time.monotonic()
    min_rounds = 2 if trace else 1
    while True:
        rounds.append(spawn(workload, seed, trace, deadline))
        setups.append(rounds[-1]["setup_s"])
        now = time.monotonic()
        per_round = (now - first_start) / len(rounds)
        if len(rounds) >= min_rounds and (now - first_start + per_round > seconds
                                          or now + per_round > deadline):
            break

    operations = [o for r in rounds for o in r["operations"]]
    failures = [f"{o['name']}: {o['failure']}" for o in operations if o["failure"]]
    problems = [p for r in rounds for p in r["problems"]]
    if trace:
        problems += count_mismatches(rounds)
        metrics, units = per_layer(rounds), PER_LAYER
    else:
        metrics, units = end_to_end(rounds, setups), END_TO_END
    return {
        "correct": not problems,
        "attempted": len(operations),
        "failed": len(failures),
        "metrics": emitted(metrics, units),
        "failures": failures,
        "problems": problems,
        "rounds": rounds,
        "setup_samples": setups,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vfcoho" / "__init__.py").is_file():
        print(f"bench: no vfcoho sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    detail = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(result, indent=1) + "\n")
    for line in result["failures"] + result["problems"]:
        print(f"bench: {line}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name:32} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
