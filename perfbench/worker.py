"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--quick]
                                [--trace] [--spans-out PATH] [--setup-only]

Imports bfcorr from the checkout's ``src`` directory, builds the
workload's cases and prints ``{"ready": <time.monotonic()>, ...}`` once
set-up is done.  Then it runs every case once, single-threaded, and
prints one JSON object with the per-case results and the pass's wall, CPU
and memory figures.  The worker samples the CPU speed throughout
(``speed.py``); with ``--trace`` the layers are also wrapped in spans.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

from speed import REFERENCE_S, SpeedSampler
from tracer import Tracer
from workloads import build_cases, digest, judge_cli, load_golden

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_bfcorr():
    """Import bfcorr from the checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "bfcorr", "__init__.py")):
        raise SystemExit(f"error: bfcorr sources not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import bfcorr
    import bfcorr.cli

    if not os.path.abspath(bfcorr.__file__).startswith(os.path.join(SRC, "")):
        raise SystemExit(f"error: imported bfcorr from {bfcorr.__file__}, not from {SRC}")
    return bfcorr


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_control(bfcorr, case) -> bool:
    """Evaluate a known-false control; True when bfcorr reports a difference.

    Functions are looked up on the package at call time, so a traced pass
    sees the wrapped ones.
    """
    from bfcorr.correspondence import pf_series

    sizes = case.sizes["control"]
    if case.control == "boson_negated_product":
        series = bfcorr.vev_boson(bfcorr.VevSpec.standard_A("boson", sizes["n"], sizes["cutoff"]))
        negated = bfcorr.closed_form("A", "product", sizes["n"]).scale(-1)
        return not bfcorr.analytic_continuation_check(series, negated)
    if case.control == "fermion_negated_pfaffian":
        spec = bfcorr.VevSpec.standard_B("fermion", sizes["points"], sizes["cutoff"])
        return bfcorr.vev_fermion(spec) != pf_series(sizes["points"], sizes["cutoff"]).scale(-1)
    if case.control == "heisenberg_missing_central_term":
        h = bfcorr.heisenberg_field_A()
        return bool(bfcorr.mode_commutator(h, h, 1, -1, sizes["grade"], expected=0))
    raise ValueError(f"unknown control {case.control!r}")


def _run_case(bfcorr, case, golden) -> dict:
    out, err = io.StringIO(), io.StringIO()
    exit_code = None
    try:
        if case.control:
            verdict = "differs" if run_control(bfcorr, case) else "equal"
        else:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    exit_code = bfcorr.cli.main(case.argv)
                except SystemExit as exc:  # argparse usage errors
                    exit_code = exc.code
    except Exception:  # a raising case is a failed case, and the pass goes on
        return {"key": case.key, "exit": exit_code,
                "problems": ["raised: " + traceback.format_exc(limit=3)]}
    if case.control:
        problems = [] if verdict == "differs" else ["known-false control reported equal"]
        return {"key": case.key, "verdict": verdict, "problems": problems}
    stdout = out.getvalue()
    return {"key": case.key, "exit": exit_code, "sha256": digest(stdout),
            "problems": judge_cli(case, exit_code, stdout, golden)}


def run_pass(bfcorr, cases, golden, tracer=None, sampler=None) -> dict:
    """Run every case once; with a tracer, record spans for the pass.

    With a started sampler, the pass stops it at the end, and ``seconds``,
    ``wall_s`` and ``cpu_s`` are at the reference speed of ``speed.py``;
    the raw figures are reported as ``raw_seconds``, ``wall_raw_s`` and
    ``cpu_raw_s``.
    """
    results, intervals = [], []
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    with tracer.installed() if tracer else contextlib.nullcontext():
        for index, case in enumerate(cases):
            if tracer:
                tracer.run_id = index
            t0 = time.perf_counter()
            results.append(_run_case(bfcorr, case, golden))
            intervals.append((t0, time.perf_counter()))
    end = time.perf_counter()
    cpu = _cpu_seconds() - cpu0
    for case_result, (t0, t1) in zip(results, intervals):
        case_result["seconds"] = t1 - t0
    result = {"wall_s": end - start, "cpu_s": cpu, "cases": results}
    if sampler:
        sampler.stop()
        handler_s = sampler.handler_s
        wall = sampler.at_reference_speed(start, end)
        result.update(wall_raw_s=end - start, cpu_raw_s=cpu, handler_s=handler_s, wall_s=wall,
                      cpu_s=(cpu - handler_s) * wall / (end - start - handler_s))
        for case_result, (t0, t1) in zip(results, intervals):
            case_result["raw_seconds"] = case_result["seconds"]
            case_result["seconds"] = sampler.at_reference_speed(t0, t1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sampler = SpeedSampler()
    sampler.start()
    try:
        return _run(args, sampler)
    finally:
        sampler.stop()  # a SIGPROF after the handler is gone would kill the process


def _run(args, sampler) -> int:
    bfcorr = import_bfcorr()
    cases = build_cases(args.workload, args.seed, args.quick)
    golden = load_golden()
    ready = {"ready": time.monotonic(), "handler_s": sampler.handler_s,
             "speed": REFERENCE_S / sampler.loop_s()}
    sampler.reset()
    print(json.dumps(ready), flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    result = run_pass(bfcorr, cases, golden, tracer, sampler)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        result["layers"] = tracer.layer_metrics()
        if args.spans_out:
            tracer.write_spans(args.spans_out, [case.key for case in cases])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
