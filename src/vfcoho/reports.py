"""Check reports and run configuration.

Every verification routine returns a `CheckReport`; suites are lists of
reports.  Serialization is deterministic: keys sorted, terms in canonical
order, and the only nondeterministic fields are the wall-clock ones
(`wall_ms`, `total_wall_ms`), which consumers strip when comparing runs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import Any

SCHEMA_VERSION = 2

TIMING_FIELDS = ("wall_ms", "total_wall_ms")


@dataclass
class CheckReport:
    name: str
    params: dict[str, Any] = field(default_factory=dict)
    status: str = "pass"  # "pass" | "fail"
    tuples: int = 0
    witness: dict[str, Any] | None = None
    data: dict[str, Any] | None = None
    wall_ms: float = 0.0

    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "params": self.params,
            "status": self.status,
            "tuples": self.tuples,
            "wall_ms": round(self.wall_ms, 3),
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.data is not None:
            out["data"] = self.data
        return out


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by every suite.

    `max_tuples` bounds exhaustive enumeration: when the number of basis
    tuples for a check exceeds it, the engine switches to a seeded uniform
    sample of that size, so runs stay deterministic and bounded.
    """

    dim: int = 2
    model: str = "torus"
    radius: int = 2
    samples: int = 100
    seed: int = 7
    fmt: str = "text"
    out: str | None = None
    max_tuples: int = 20000
    planted: bool = False

    def with_(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)

    def to_dict(self) -> dict[str, Any]:
        return {
            "dim": self.dim,
            "model": self.model,
            "radius": self.radius,
            "samples": self.samples,
            "seed": self.seed,
            "max_tuples": self.max_tuples,
            "planted": self.planted,
        }


ENV_PREFIX = "VFCOHO"


def env_default(name: str, fallback):
    """Environment override for a CLI flag, e.g. VFCOHO_DIM for --dim: the raw
    string, which argparse converts by the flag's `type`, or `fallback`."""
    return os.environ.get(f"{ENV_PREFIX}_{name.upper()}", fallback)


def dumps(document: Any) -> str:
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def strip_timing(document: Any) -> Any:
    """Recursively drop wall-clock fields (for determinism comparisons)."""
    if isinstance(document, dict):
        return {k: strip_timing(v) for k, v in document.items() if k not in TIMING_FIELDS}
    if isinstance(document, list):
        return [strip_timing(v) for v in document]
    return document


def render_text(reports: list[CheckReport]) -> str:
    """Aligned two-column summary, one line per check."""
    if not reports:
        return "(no checks)\n"
    width = max(len(r.name) for r in reports)
    lines = []
    for r in reports:
        flag = "PASS" if r.passed() else "FAIL"
        extra = f"  tuples={r.tuples}" if r.tuples else ""
        lines.append(f"{r.name:<{width}}  {flag}{extra}")
        if r.witness is not None:
            for key in sorted(r.witness):
                lines.append(f"{'':<{width}}    witness.{key} = {r.witness[key]}")
    return "\n".join(lines) + "\n"
