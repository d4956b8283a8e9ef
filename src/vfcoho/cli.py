"""Command-line harness: verification suites and dimension tables.

Exit codes: 0 all checks passed, 1 some check failed, 2 usage error.
Flags may be supplied through VFCOHO_* environment variables (VFCOHO_DIM,
VFCOHO_MODEL, VFCOHO_RADIUS, VFCOHO_SAMPLES, VFCOHO_SEED, VFCOHO_FORMAT,
VFCOHO_OUT, VFCOHO_MAX_TUPLES); explicit flags win.  JSON output is
deterministic for a fixed config apart from wall-time fields.
"""

from __future__ import annotations

import argparse
import platform
import sys
import time

from . import __version__
from .reports import (SCHEMA_VERSION, RunConfig, dumps, env_default,
                      render_text)
from .rings import MODELS, TORUS
from .suites import SUITE_NAMES, all_passed, flatten, run_suites
from .weil import (haefliger_dims, monomial_degree, monomial_text,
                   paper_dimension_tables, vey_basis, weil_betti)

TABLE_NAMES = ("weil", "haefliger", "paper-dims", "vey")
TABLE_MAX_DIM = {"weil": 5, "haefliger": 4, "vey": 5}
FORMATS = ("text", "json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vfcoho",
        description="Exact verification of vector-field cohomology identities "
                    "on torus and affine frames.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dim", type=int, default=env_default("dim", 2),
                       help="number of frame directions N (default 2)")
        p.add_argument("--model", choices=MODELS,
                       default=env_default("model", TORUS),
                       help="coefficient model (default torus)")
        p.add_argument("--radius", type=int, default=env_default("radius", 2),
                       help="mode box radius / polynomial degree bound")
        p.add_argument("--samples", type=int,
                       default=env_default("samples", 100),
                       help="random tuples per check (default 100)")
        p.add_argument("--seed", type=int, default=env_default("seed", 7),
                       help="PRNG seed (Mersenne Twister; default 7)")
        p.add_argument("--format", dest="fmt", choices=FORMATS,
                       default=env_default("format", "text"))
        p.add_argument("--out", default=env_default("out", None),
                       help="write output to this path instead of stdout")
        p.add_argument("--max-tuples", dest="max_tuples", type=int,
                       default=env_default("max_tuples", 20000),
                       help="budget before exhaustive enumeration switches "
                            "to seeded sampling (default 20000)")

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("suite", choices=SUITE_NAMES + ("all",))
    add_common(verify)
    verify.add_argument("--planted", action="store_true",
                        help="plant a known non-cocycle twist so the "
                             "extension suite fails with a witness")

    table = sub.add_parser("table", help="emit a dimension table")
    table.add_argument("which", choices=TABLE_NAMES)
    table.add_argument("--degree", type=int, default=None,
                       help="restrict the vey table to one degree")
    add_common(table)

    report = sub.add_parser(
        "report", help="consolidated JSON report over one or more suites")
    report.add_argument("--suites", nargs="*", default=None,
                        choices=SUITE_NAMES,
                        help="suites to run (default: all; empty list allowed)")
    add_common(report)
    report.add_argument("--planted", action="store_true",
                        help="plant a known non-cocycle twist")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(dim=args.dim, model=args.model, radius=args.radius,
                     samples=args.samples, seed=args.seed, fmt=args.fmt,
                     out=args.out, max_tuples=args.max_tuples,
                     planted=getattr(args, "planted", False))


def _emit(payload: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _run_document(cfg: RunConfig, names) -> tuple[dict, dict]:
    """Run the named suites; return their sections and the JSON document
    (one `checks` list sorted by name, each check tagged with its suite)."""
    start = time.perf_counter()
    sections = run_suites(names, cfg)
    total_ms = (time.perf_counter() - start) * 1000.0
    checks = sorted(({"suite": name, **r.to_dict()}
                     for name in names for r in sections[name]),
                    key=lambda c: c["name"])
    document = {
        "schema_version": SCHEMA_VERSION,
        "versions": {"package": __version__,
                     "python": platform.python_version()},
        "config": cfg.to_dict(),
        "checks": checks,
        "total_wall_ms": round(total_ms, 3),
    }
    return sections, document


def cmd_verify(cfg: RunConfig, suite: str) -> int:
    names = SUITE_NAMES if suite == "all" else (suite,)
    sections, document = _run_document(cfg, names)
    if cfg.fmt == "json":
        _emit(dumps(document), cfg.out)
    else:
        lines = []
        for name in names:
            lines.append(f"== {name} ==")
            lines.append(render_text(sections[name]).rstrip("\n"))
        reports = flatten(sections)
        failed = sum(1 for r in reports if not r.passed())
        summary = (f"{len(reports)} checks, all passed" if not failed
                   else f"{len(reports)} checks, {failed} FAILED")
        lines.append(summary)
        _emit("\n".join(lines) + "\n", cfg.out)
    return 0 if all_passed(sections) else 1


def _table_rows(cfg: RunConfig, which: str, degree: int | None) -> list[dict]:
    n = cfg.dim
    if which == "weil":
        return [{"degree": q, "dim": b}
                for q, b in enumerate(weil_betti(n)) if b]
    if which == "haefliger":
        return [{"space": f"H^{s}(V_T)", "dim": v}
                for s, v in sorted(haefliger_dims(n).items())]
    if which == "vey":
        return [{"degree": monomial_degree(m), "monomial": monomial_text(m)}
                for m in vey_basis(n, degree)]
    return paper_dimension_tables(n)


def _render_rows(rows: list[dict]) -> str:
    if not rows:
        return "(empty table)\n"
    columns = list(rows[0].keys())
    widths = {c: max(len(str(c)), *(len(str(r[c])) for r in rows))
              for c in columns}
    out = ["  ".join(f"{c:<{widths[c]}}" for c in columns)]
    for r in rows:
        out.append("  ".join(f"{str(r[c]):<{widths[c]}}" for c in columns))
    return "\n".join(out) + "\n"


def cmd_table(cfg: RunConfig, which: str, degree: int | None) -> int:
    rows = _table_rows(cfg, which, degree)
    if cfg.fmt == "json":
        document = {
            "schema_version": SCHEMA_VERSION,
            "table": which,
            "params": {"dim": cfg.dim, "degree": degree},
            "rows": rows,
        }
        _emit(dumps(document), cfg.out)
    else:
        _emit(_render_rows(rows), cfg.out)
    return 0


def cmd_report(cfg: RunConfig, suites: list[str] | None) -> int:
    sections, document = _run_document(
        cfg, tuple(SUITE_NAMES if suites is None else suites))
    _emit(dumps(document), cfg.out)
    return 0 if all_passed(sections) else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse checks `choices` only on values given as flags, not on the
    # VFCOHO_* defaults
    if args.model not in MODELS:
        parser.error(f"--model must be one of {', '.join(MODELS)}")
    if args.fmt not in FORMATS:
        parser.error(f"--format must be one of {', '.join(FORMATS)}")
    if args.dim < 1:
        parser.error("--dim must be >= 1")
    if args.radius < 1:
        parser.error("--radius must be >= 1")
    if args.samples < 0:
        parser.error("--samples must be >= 0")
    if args.max_tuples < 1:
        parser.error("--max-tuples must be >= 1")
    if args.dim > TABLE_MAX_DIM.get(getattr(args, "which", None), args.dim):
        parser.error(f"table {args.which} supports --dim <= "
                     f"{TABLE_MAX_DIM[args.which]}, got {args.dim}")
    cfg = config_from_args(args)
    if args.command == "verify":
        return cmd_verify(cfg, args.suite)
    if args.command == "table":
        return cmd_table(cfg, args.which, args.degree)
    return cmd_report(cfg, args.suites)


if __name__ == "__main__":
    sys.exit(main())
