"""bfcorr benchmark: time to verdict on fixed `bfcorr verify` workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every pass runs the workload's cases once in a fresh, single-threaded
interpreter (``worker.py``) and checks each verdict and output digest
against its known answer.  Passes repeat while another one is expected
to end within ``--seconds``, and each figure is the median over the
passes.  Set-up is also sampled in interpreters that only set up.
Timings are reported at a reference CPU speed (``speed.py``); the raw
timings are printed and recorded next to them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones, with the tracing overhead.  The last line of stdout is one
JSON object; a full record, with every sample, case result and size, is
written to ``.bench_results/`` in the checkout, and traced passes write
their spans there too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_results")
sys.path.insert(0, HERE)

from tracer import PER_LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, build_cases  # noqa: E402

HASH_SEED = "0"
SETUP_SAMPLES = 7
RUN_LIMIT_S = 150  # no pass may be expected to end later, so a run ends inside 180 s
DEADLINE_S = 175  # any worker still running then is killed and the run fails

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("slowest_case_s", "s"),
    ("peak_rss_mb", "MiB"), ("ok_rate", "fraction"),
)


class WorkerError(RuntimeError):
    pass


def _worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("BFCORR_CUTOFF", None)  # the cutoff of every case is explicit
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def spawn(args: List[str], timeout: float) -> Dict:
    """Run one worker; return its result with ``setup_s`` measured from spawn."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              env=_worker_env(), cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {timeout:.0f} s: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    ready = json.loads(lines[0])
    result = json.loads(lines[-1]) if len(lines) > 1 else {}
    result["setup_raw_s"] = ready["ready"] - t_spawn
    # scaled to the reference speed of speed.py, less the sampling time
    result["setup_s"] = (result["setup_raw_s"] - ready["handler_s"]) * ready["speed"]
    return result


def tail_percentile(samples: List[float]) -> Optional[tuple]:
    """The highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            k = min(n - 1, math.ceil(n * p / 100) - 1)
            return p, sorted(samples)[k]
    return None


def describe(name: str, unit: str, samples: List[float]) -> Dict:
    entry = {"median": statistics.median(samples), "count": len(samples), "unit": unit,
             "samples": samples}
    tail = tail_percentile(samples)
    text = f"{name}: median {entry['median']:.6g} {unit}, n={len(samples)}"
    if tail:
        entry[f"p{tail[0]:g}"] = tail[1]
        text += f", p{tail[0]:g} {tail[1]:.6g} {unit}"
    else:
        text += ", too few samples for a tail percentile"
    print(text)
    return entry


def run(workload: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> Dict:
    """Measure one workload, write the full record, return the result line."""
    base = ["--workload", workload, "--seed", str(seed)] + (["--quick"] if quick else [])
    start = time.monotonic()

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - start)

    setups = [spawn(base + ["--setup-only"], remaining())
              for _ in range(0 if trace else SETUP_SAMPLES)]
    passes, traced = [], []
    t0 = time.monotonic()
    while True:
        passes.append(spawn(base, remaining()))
        if trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            spans = os.path.join(OUT_DIR, f"spans_{workload}_seed{seed}_pass{len(traced)}.tsv")
            traced.append(spawn(base + ["--trace", "--spans-out", spans], remaining()))
        # start another round only if it should end within the budget
        spent = time.monotonic() - t0
        per_round = spent / len(passes)
        if spent + per_round > seconds or time.monotonic() - start + per_round > RUN_LIMIT_S:
            break
    setups += passes

    cases = build_cases(workload, seed, quick)
    results = [c for p in passes + traced for c in p["cases"]]
    failed = sum(1 for c in results if c["problems"])
    for c in results:
        for problem in c["problems"]:
            print(f"FAILED {c['key']}: {problem}")
    controls = [c for c in results if "verdict" in c]
    print(f"{workload}: seed {seed}, {len(passes)} untraced + {len(traced)} traced passes, "
          f"{len(results)} cases, {failed} failed, error_rate {failed / len(results):g}, "
          f"known-false controls reported differs {sum(c['verdict'] == 'differs' for c in controls)}"
          f"/{len(controls)}")

    samples = {
        "setup_s": [p["setup_s"] for p in setups],
        "wall_s": [p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "slowest_case_s": [max(c["seconds"] for c in p["cases"]) for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "ok_rate": [1 - sum(1 for c in p["cases"] if c["problems"]) / len(p["cases"])
                    for p in passes + traced],
    }
    raw = {
        "setup_raw_s": [p["setup_raw_s"] for p in setups],
        "wall_raw_s": [p["wall_raw_s"] for p in passes],
        "cpu_raw_s": [p["cpu_raw_s"] for p in passes],
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "quick": quick,
        "python": platform.python_version(), "PYTHONHASHSEED": HASH_SEED,
        "cases": [{"key": c.key, "argv": c.argv, "sizes": c.sizes} for c in cases],
        "end_to_end": {name: describe(name, unit, samples[name]) for name, unit in END_TO_END},
        "case_s": describe("case_s", "s", [c["seconds"] for p in passes for c in p["cases"]]),
        "raw": {name: describe(name, "s", values) for name, values in raw.items()},
        "passes": passes + traced,
    }
    if trace:
        layers = {}
        for name, unit in PER_LAYER_METRICS[:-1]:  # all but trace.overhead_frac
            layers[name] = {"value": statistics.median(t["layers"][name] for t in traced),
                            "unit": unit}
        overhead = (statistics.median(t["wall_s"] for t in traced)
                    / statistics.median(p["wall_s"] for p in passes) - 1)
        layers["trace.overhead_frac"] = {"value": overhead, "unit": "fraction"}
        metrics = layers
    else:
        metrics = {name: {"value": record["end_to_end"][name]["median"], "unit": unit}
                   for name, unit in END_TO_END}
    line = {"correct": failed == 0, "attempted": len(results), "failed": failed,
            "metrics": metrics}
    record["result"] = line
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"BENCH_{workload}_seed{seed}_trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for the harness tests")
    args = parser.parse_args(argv)
    try:
        line = run(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
