"""Command-line front end for the verification checklist.

Exit codes: 0 when every check passes, 1 when any check fails (or traces
cannot be computed or written), 2 on a configuration error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .checklist import ChecklistConfig, ConfigError, run_checklist
from .report import emit_report
from .transport import IntegrationError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holocheck",
        description="Verify the closed-manifold similarity-holonomy geometry: "
                    "curvature, transport, holonomy and completeness checks "
                    "for a hyperbolic gluing matrix.")
    parser.add_argument("--matrix", default="2 1 1 1", metavar='"a11 a12 a21 a22"',
                        help="gluing matrix entries, four integers (default: 2 1 1 1)")
    parser.add_argument("--samples", type=int, default=1000,
                        help="random sample points per check (default: 1000)")
    parser.add_argument("--tol-abs", type=float, default=1e-8,
                        help="absolute tolerance for exactly-zero residuals")
    parser.add_argument("--tol-rel", type=float, default=1e-6,
                        help="relative tolerance for derived nonzero constants")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the sample-point generator (default: 0)")
    parser.add_argument("--t-max", type=float, default=100.0,
                        help="horizon for the upward completeness probe")
    parser.add_argument("--report", choices=("json", "text"), default="text",
                        help="report format written to stdout (default: text)")
    parser.add_argument("--emit-traces", metavar="DIR", default=None,
                        help="write CSV traces (escape geodesic, deck-lift "
                             "transport) into DIR")
    # Test hook, deliberately undocumented: exponents other than 4 break C2.
    parser.add_argument("--metric-exponent", type=float, default=4.0,
                        help=argparse.SUPPRESS)
    return parser


def _parse_matrix(text: str):
    parts = text.replace(",", " ").split()
    if len(parts) != 4:
        raise ConfigError(f"--matrix needs four integers, got {text!r}")
    try:
        a11, a12, a21, a22 = (int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"--matrix entries must be integers, got {text!r}") from None
    return ((a11, a12), (a21, a22))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = ChecklistConfig(
            matrix=_parse_matrix(args.matrix),
            samples=args.samples,
            tol_abs=args.tol_abs,
            tol_rel=args.tol_rel,
            seed=args.seed,
            t_max=args.t_max,
            metric_exponent=args.metric_exponent,
            emit_traces_dir=args.emit_traces,
        )
    except ConfigError as exc:
        print(f"holocheck: configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_checklist(config)
    except (OSError, IntegrationError) as exc:
        print(f"holocheck: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(emit_report(report, args.report).decode())
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
