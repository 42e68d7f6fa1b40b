"""Tests of the benchmark harness itself, at the --quick sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

import speed
import worker
import workloads
from tracer import PER_LAYER_METRICS, TARGETS, Tracer

BFCORR = worker.import_bfcorr()
GOLDEN = workloads.load_golden()


def _bindings():
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "bfcorr" or name.startswith("bfcorr."))
            for attr, value in vars(mod).items()}


def _digests(result):
    return {c["key"]: c.get("sha256", c.get("verdict")) for c in result["cases"]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_restores_originals_and_keeps_digests(workload):
    cases = workloads.build_cases(workload, seed=7, quick=True)
    before = _bindings()
    plain = worker.run_pass(BFCORR, cases, GOLDEN)
    tracer = Tracer()
    traced = worker.run_pass(BFCORR, cases, GOLDEN, tracer)
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert tracer.spans, "the traced pass recorded no spans"
    assert _digests(plain) == _digests(traced)
    assert [c["problems"] for c in plain["cases"] + traced["cases"]] == [[]] * (2 * len(cases))


def test_every_target_is_wrapped_where_callers_look_it_up():
    tracer = Tracer()
    with tracer.installed():
        assert BFCORR.cli.main is not BFCORR.cli.main.__wrapped__
        assert BFCORR.cli.check_identity.__wrapped__ is BFCORR.correspondence.check_identity.__wrapped__
        assert BFCORR.correspondence.vertex_A.__wrapped__ is BFCORR.boson.vertex_A.__wrapped__
        assert BFCORR.fields.apply_mode_A.__wrapped__ is BFCORR.fock.apply_mode_A.__wrapped__
        for home, names in TARGETS.values():
            for name in names:
                assert hasattr(getattr(sys.modules[home], name), "__wrapped__"), (home, name)


def test_repeat_share_is_positive_only_where_a_vev_repeats():
    shares = {}
    for workload in ("boson-vev", "fermion-closed-form"):
        tracer = Tracer()
        worker.run_pass(BFCORR, workloads.build_cases(workload, 1, quick=True), GOLDEN, tracer)
        metrics = tracer.layer_metrics()
        assert {name for name, _ in PER_LAYER_METRICS[:-1]} == set(metrics)
        shares[workload] = metrics["correspondence.vev.repeat_share"]
    assert shares["boson-vev"] > 0
    assert shares["fermion-closed-form"] == 0


def test_known_false_controls_report_differs():
    for workload in workloads.WORKLOADS:
        (control,) = [c for c in workloads.build_cases(workload, 0, quick=True) if c.control]
        assert worker.run_control(BFCORR, control), workload


def test_control_reported_equal_counts_as_failed(monkeypatch):
    monkeypatch.setattr(worker, "run_control", lambda bfcorr, case: False)
    (control,) = [c for c in workloads.build_cases("operator-algebra", 0, quick=True) if c.control]
    assert worker._run_case(BFCORR, control, GOLDEN)["problems"]


def test_cli_judge_rejects_wrong_digest_verdict_and_vacuous_pass():
    case = next(c for c in workloads.build_cases("boson-vev", 0, quick=True) if not c.control)
    (check,) = case.sizes
    cutoff = case.sizes[check]["cutoff"]

    def report(status, series):
        return json.dumps({"check": check, "params": {"cutoff": cutoff}, "status": status,
                           "witnesses": {"vertex_series": series, "product_series": series}}) + "\n"

    good = report("pass", "z1^-1")
    golden = {case.key: {"sha256": workloads.digest(good), "exit": 0}}
    assert workloads.judge_cli(case, 0, good, golden) == []
    assert workloads.judge_cli(case, 0, good + " ", golden)  # digest differs
    assert workloads.judge_cli(case, 1, good, golden)  # exit code differs
    failing = report("fail", "z1^-1")
    assert workloads.judge_cli(case, 0, failing, {case.key: {"sha256": workloads.digest(failing),
                                                             "exit": 0}})
    vacuous = report("pass", "0")
    assert workloads.judge_cli(case, 0, vacuous, {case.key: {"sha256": workloads.digest(vacuous),
                                                             "exit": 0}})


def test_reference_speed_scales_stretches_and_leaves_out_sampling():
    sampler = speed.SpeedSampler()
    # a machine at half the reference speed, sampled every 10 ms for 0.2 ms
    sampler.ticks = [(100 + 0.01 * k, 2 * speed.REFERENCE_S, 100 + 0.01 * k + 0.0002)
                     for k in range(100)]
    assert sampler.at_reference_speed(100.0, 101.0) == pytest.approx((1 - 100 * 0.0002) / 2)
    assert sampler.at_reference_speed(100.003, 100.004) == pytest.approx(0.0005)
    assert sampler.handler_s == pytest.approx(0.02)


def test_quick_run_finishes_in_seconds_and_prints_one_result_line():
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, workloads.HERE + "/run.py", "--workload", "operator-algebra",
         "--seed", "3", "--seconds", "1", "--trace", "0", "--quick"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert time.monotonic() - t0 < 30
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 5
    assert all(m["value"] > 0 for m in line["metrics"].values())
