"""Structured verification reports and their JSON/text serialization."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Tuple

SCHEMA_VERSION = 1


def passes(residual: float, tolerance: float) -> bool:
    """The one pass rule: the residual is finite and at most the tolerance."""
    return math.isfinite(residual) and residual <= tolerance


class Part(NamedTuple):
    """One named residual of a composite check, with its tolerance."""

    name: str
    residual: float
    tolerance: float


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one checklist entry.

    ``passed`` and ``status`` are derived from the residual by
    :func:`passes`.  Composite checks report a dimensionless worst ratio
    against tolerance 1.0, list the raw parts in ``note`` and name the part
    with that ratio in ``worst_part``; the text report shows it, the JSON
    report does not.
    """

    id: str
    description: str
    claim: str
    residual: float
    tolerance: float
    note: str = ""
    worst_part: str = ""

    def __post_init__(self):
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    @property
    def passed(self) -> bool:
        return passes(self.residual, self.tolerance)

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"


@dataclass(frozen=True)
class VerificationReport:
    """Full checklist outcome plus the configuration that produced it."""

    config_echo: dict
    checks: Tuple[CheckResult, ...]
    traces_emitted: Tuple[str, ...] = ()
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        ids = [c.id for c in self.checks]
        if len(ids) != len(set(ids)):
            raise ValueError(f"duplicate check ids in report: {ids}")

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _json_float(x: float):
    # JSON has no inf/nan literal; keep failed residuals readable.
    return x if math.isfinite(x) else repr(x)


def _json_echo(value):
    """The config echo with every float, however deeply nested, made JSON-safe."""
    if isinstance(value, float):
        return _json_float(value)
    if isinstance(value, dict):
        return {k: _json_echo(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_echo(v) for v in value]
    return value


def emit_report(report: VerificationReport, format: str = "text") -> bytes:
    """Serialize a report; JSON output has stable key order byte for byte."""
    if format == "json":
        doc = {
            "schema_version": report.schema_version,
            "config": _json_echo(report.config_echo),
            "checks": [
                {
                    "id": c.id,
                    "description": c.description,
                    "claim": c.claim,
                    "status": c.status,
                    "residual": _json_float(c.residual),
                    "tolerance": c.tolerance,
                    "note": c.note,
                }
                for c in report.checks
            ],
            "traces_emitted": list(report.traces_emitted),
            "all_passed": report.all_passed,
        }
        return (json.dumps(doc, indent=2) + "\n").encode()
    if format == "text":
        lines = [f"verification report (schema {report.schema_version})"]
        cfg = report.config_echo
        if cfg:
            lines.append("config: " + ", ".join(f"{k}={v}" for k, v in cfg.items()))
        for c in report.checks:
            line = (f"{c.id:<4} {'PASS' if c.passed else 'FAIL'}  "
                    f"residual={c.residual:.3e}  tol={c.tolerance:.3e}  {c.description}")
            if c.worst_part:
                # a composite's residual is its worst part's residual / tolerance
                line += f"  worst={c.worst_part} ({c.residual:.4g} of tol)"
            lines.append(line)
        npass = sum(c.passed for c in report.checks)
        lines.append(f"{npass}/{len(report.checks)} checks passed")
        if report.traces_emitted:
            lines.append("traces: " + ", ".join(report.traces_emitted))
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown report format {format!r}")
