"""Command-line front end: run named identity checks or sweeps, compute
vacuum expectation values and characters, and expose the region-expansion
calculator.  All numeric output is exact rational text.

``verify`` runs the checks of ``correspondence.CHECKS``: its targets, each
check's model and its default sizes (full and ``--quick``) come from that
table.  ``--model`` keeps the checks of that model and those covering
both, for a single target or ``all``.  ``--n`` sets the size of the checks
that have one (pairs for type A, half the points for type B); ``--quick``
runs the table's smaller sizes and caps the cutoff at ``QUICK_CUTOFF``,
with a note on stderr when a cutoff asked for by ``--cutoff`` is lowered.

Each command takes only the options it reads: ``--format`` everywhere,
``--cutoff`` for ``verify``, ``vev`` and ``expand``, ``--seed`` for
``verify``, ``vev`` and ``character``, ``--no-timing`` for ``verify`` and
``vev``.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage
error, including a cutoff or size no check can use.  ``main`` is the one
place a ValueError (bad input, found by ``_validate`` or by the command
itself, e.g. an ``expand`` expression that does not parse) becomes an
``error:`` line and exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .correspondence import (
    CHECKS,
    DEFAULT_CUTOFF,
    QUICK_CUTOFF,
    IdentityReport,
    VevSpec,
    character_oracle,
    check_identity,
    vev,
)
from .series import expand
from .textio import format_series, parse_rational

VERIFY_TARGETS = tuple(dict.fromkeys(check.target for check in CHECKS)) + ("all",)


def _validate(args) -> None:
    """Resolve and check the sizes of a command: the one place they are
    validated, so that no check runs (and passes) at a size it cannot use."""
    if "cutoff" in vars(args):
        asked = args.cutoff
        args.cutoff = DEFAULT_CUTOFF if asked is None else asked
        if args.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {args.cutoff}")
        if getattr(args, "quick", False) and args.cutoff > QUICK_CUTOFF:
            if asked is not None:
                print(f"note: --quick runs at cutoff {QUICK_CUTOFF}, not the requested {asked}",
                      file=sys.stderr)
            args.cutoff = QUICK_CUTOFF
    n = getattr(args, "n", None)
    if n is not None:
        if n < 1:
            raise ValueError(f"--n must be >= 1, got {n}")
        if args.target != "all" and not any("n" in c.sizes for c in CHECKS if c.target == args.target):
            raise ValueError(f"{args.target} takes no --n")
    points = getattr(args, "points", None)
    if points is not None:
        if points < 1:
            raise ValueError(f"--points must be >= 1, got {points}")
        if args.model == "B" and points % 2:
            raise ValueError(f"--points must be even for --model B, got {points}")
    if getattr(args, "charge", None) is not None and args.model == "B":
        raise ValueError("--charge applies to --model A only: F_B has no charge sectors")
    if args.command == "character" and args.model == "A" and args.charge is None:
        args.charge = 0
    top = getattr(args, "max", None)
    if top is not None and top < 0:
        raise ValueError(f"--max must be >= 0, got {top}")


def _emit_report(report: IdentityReport, fmt: str, timing: bool, out) -> None:
    if not timing:
        report.elapsed_ms = 0
    if fmt == "json":
        out.write(json.dumps(report.to_json_dict(), sort_keys=True) + "\n")
        return
    mark = "PASS" if report.passed else "FAIL"
    plist = ", ".join(f"{k}={v}" for k, v in sorted(report.params.items()) if v is not None)
    out.write(f"[{mark}] {report.name} ({plist}) [{report.elapsed_ms} ms]\n")
    if not report.passed:
        diff = report.witnesses.get("first_difference", "")
        out.write(f"       first difference: {diff}\n")


def _run_verify(args) -> int:
    checks = [c for c in CHECKS if args.target in ("all", c.target)]
    if args.model != "both":
        checks = [c for c in checks if c.model in (args.model, "AB")]
        if not checks:
            print(f"error: {args.target} has no model {args.model} variant", file=sys.stderr)
            return 2
    reports = []
    for check in sorted(checks, key=lambda c: c.name):
        params = {**(check.quick if args.quick else check.sizes),
                  "cutoff": args.cutoff, "seed": args.seed}
        if args.n is not None and "n" in params:
            params["n"] = 2 * args.n if check.model == "B" else args.n
        reports.append(check_identity(check.name, params))
    for report in reports:
        _emit_report(report, args.format, not args.no_timing, sys.stdout)
    return 0 if all(r.passed for r in reports) else 1


def _run_vev(args) -> int:
    cutoff = args.cutoff
    side = "fermion" if args.side == "fermion" else "boson"
    t0 = time.perf_counter()
    spec = VevSpec.standard(args.model, side, args.points, cutoff)
    series = vev(spec)
    elapsed = int((time.perf_counter() - t0) * 1000)
    word = " ".join(f"{sym}({var})" for sym, var in spec.word)
    if args.format == "json":
        payload = {
            "command": "vev",
            "params": {"model": args.model, "side": side, "points": args.points,
                       "cutoff": cutoff, "seed": args.seed},
            "word": word,
            "ordering": list(series.ordering),
            "series": format_series(series),
            "elapsed_ms": 0 if args.no_timing else elapsed,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"<0| {word} |0>  in |{' >> '.join(series.ordering)}|, cutoff {cutoff}")
        print(format_series(series))
    return 0


def _run_character(args) -> int:
    label, rows = character_oracle(args.model, args.charge, args.max)
    rows = [{label: g, "dim": dim, "oracle": want} for g, dim, want in rows]
    if args.format == "json":
        payload = {"command": "character", "model": args.model, "rows": rows,
                   "params": {"charge": args.charge,
                              "max": args.max, "seed": args.seed}}
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"{label:>8}  dim  oracle")
        for row in rows:
            print(f"{row[label]:>8}  {row['dim']:>3}  {row['oracle']}")
    ok = all(row["dim"] == row["oracle"] for row in rows)
    return 0 if ok else 1


def _run_expand(args) -> int:
    cutoff = args.cutoff
    ordering = [v.strip() for v in args.order.split(",") if v.strip()]
    series = expand(parse_rational(args.expr, ordering), ordering, cutoff)
    if args.format == "json":
        print(json.dumps({"command": "expand", "expr": args.expr,
                          "ordering": ordering, "cutoff": cutoff,
                          "series": format_series(series)}, sort_keys=True))
    else:
        print(format_series(series))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bfcorr",
        description="Exact verification engine for the type A and type B "
                    "boson-fermion correspondences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cutoff=True, seed=True, timing=True):
        if cutoff:
            p.add_argument("--cutoff", type=int, default=None,
                           help=f"series cutoff D (default {DEFAULT_CUTOFF})")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="recorded in reports for reproducibility")
        if timing:
            p.add_argument("--no-timing", action="store_true", help="report elapsed_ms as 0 for byte-stable output")

    v = sub.add_parser("verify", help="run a named identity check (or all)")
    v.add_argument("target", choices=VERIFY_TARGETS)
    v.add_argument("--model", choices=("A", "B", "both"), default="both")
    v.add_argument("--n", type=int, default=None, help="size: pairs for model A, half the points for model B")
    v.add_argument("--quick", action="store_true",
                   help=f"smaller default sizes, cutoff at most {QUICK_CUTOFF}")
    common(v)
    v.set_defaults(func=_run_verify)

    w = sub.add_parser("vev", help="print a vacuum expectation value series")
    w.add_argument("--model", choices=("A", "B"), required=True)
    w.add_argument("--side", choices=("fermion", "boson"), required=True)
    w.add_argument("--points", type=int, required=True,
                   help="model A: number of phi/psi pairs; model B: number of fields")
    common(w)
    w.set_defaults(func=_run_vev)

    c = sub.add_parser("character", help="graded dimensions against partition oracles")
    c.add_argument("--model", choices=("A", "B"), required=True)
    c.add_argument("--charge", type=int, default=None, help="charge sector (model A only, default 0)")
    c.add_argument("--max", type=int, default=12, help="top energy (A) or degree (B)")
    common(c, cutoff=False, timing=False)
    c.set_defaults(func=_run_character)

    e = sub.add_parser("expand", help="expand a rational function in a region ordering")
    e.add_argument("--expr", required=True,
                   help="e.g. '(1) / ((z-w)^1)' or 'z^2 - 2*z*w + w^2'")
    e.add_argument("--order", required=True, help="comma-separated variables, largest first")
    common(e, seed=False, timing=False)
    e.set_defaults(func=_run_expand)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
