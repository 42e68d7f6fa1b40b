"""CLI behavior: exit codes, JSON schema, deterministic reports."""

import hashlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stdout

import jsonschema
import pytest

from bfcorr.cli import main

REPORT_SCHEMA = {
    "type": "object",
    "required": ["check", "params", "status", "witnesses", "elapsed_ms"],
    "properties": {
        "check": {"type": "string"},
        "params": {
            "type": "object",
            "required": ["model", "n", "cutoff", "seed"],
            "properties": {
                "model": {"type": ["string", "null"]},
                "n": {"type": ["integer", "null"]},
                "cutoff": {"type": ["integer", "null"]},
                "seed": {"type": ["integer", "null"]},
            },
        },
        "status": {"enum": ["pass", "fail"]},
        "witnesses": {"type": "object"},
        "elapsed_ms": {"type": "integer"},
    },
    "additionalProperties": False,
}


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_verify_single_check_passes():
    code, out = run_cli("verify", "cauchy", "--n", "2")
    assert code == 0
    assert "[PASS] cauchy" in out


def test_verify_emits_valid_json_reports():
    code, out = run_cli("verify", "character", "--format", "json", "--quick")
    assert code == 0
    lines = [json.dumps(json.loads(line)) for line in out.strip().splitlines()]
    assert len(lines) == 2
    for line in out.strip().splitlines():
        jsonschema.validate(json.loads(line), REPORT_SCHEMA)


def test_verify_reports_are_deterministic():
    args = ("verify", "supercommutativity", "--format", "json", "--no-timing",
            "--cutoff", "5", "--seed", "3")
    code1, out1 = run_cli(*args)
    code2, out2 = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2
    for line in out1.strip().splitlines():
        assert json.loads(line)["params"]["seed"] == 3


def test_verify_model_filter():
    code, out = run_cli("verify", "det-formula", "--model", "A", "--n", "1", "--cutoff", "5")
    assert code == 0
    assert out.count("[PASS]") == 1


def test_vev_command_matches_spec_example():
    code, out = run_cli("vev", "--model", "B", "--side", "fermion",
                        "--points", "2", "--cutoff", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["series"].startswith("1 - 2*z1^-1*z2 + 2*z1^-2*z2^2")
    assert payload["params"]["cutoff"] == 6


def test_expand_command():
    code, out = run_cli("expand", "--expr", "(1) / ((z-w)^1)", "--order", "z,w",
                        "--cutoff", "3")
    assert code == 0
    assert out.strip() == "z^-1 + z^-2*w + z^-3*w^2"


def test_expand_rejects_bad_expression():
    code, _ = run_cli("expand", "--expr", "1 +", "--order", "z,w")
    assert code == 2


def test_expand_rejects_a_repeated_variable(capsys):
    # z,w,z names no expansion region; it used to print the |w| >> |z| series
    code, out = run_cli("expand", "--expr", "(1) / ((z-w)^1)", "--order", "z,w,z", "--cutoff", "3")
    assert code == 2
    assert out == ""
    assert "ordering repeats a variable" in capsys.readouterr().err


def test_character_command():
    code, out = run_cli("character", "--model", "B", "--max", "6")
    assert code == 0
    assert "degree" in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "definitely-not-a-target"])
    assert exc.value.code == 2


def test_environment_cutoff_override(monkeypatch):
    monkeypatch.setenv("BFCORR_CUTOFF", "4")
    code, out = run_cli("vev", "--model", "A", "--side", "fermion",
                        "--points", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["params"]["cutoff"] == 4


@pytest.mark.parametrize("cutoff", ["0", "-3"])
def test_nonpositive_cutoff_is_rejected(cutoff, capsys):
    code, out = run_cli("verify", "det-formula", "--model", "A", "--cutoff", cutoff)
    assert code == 2
    assert out == ""
    assert "cutoff must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0", "2.5"])
def test_invalid_environment_cutoff_is_rejected(value, monkeypatch, capsys):
    monkeypatch.setenv("BFCORR_CUTOFF", value)
    code, out = run_cli("vev", "--model", "A", "--side", "fermion", "--points", "1")
    assert code == 2
    assert out == ""
    assert "BFCORR_CUTOFF" in capsys.readouterr().err


def test_explicit_cutoff_wins_over_environment(monkeypatch):
    monkeypatch.setenv("BFCORR_CUTOFF", "abc")
    code, out = run_cli("verify", "cauchy", "--n", "1", "--cutoff", "3")
    assert code == 0


@pytest.mark.parametrize("target", ["heisenberg", "character", "hopf", "ope-residues",
                                    "supercommutativity"])
def test_n_is_rejected_where_no_check_takes_it(target, capsys):
    code, out = run_cli("verify", target, "--n", "3", "--quick")
    assert code == 2
    assert out == ""
    assert f"{target} takes no --n" in capsys.readouterr().err


def test_verify_all_applies_n_only_to_sized_checks():
    code, out = run_cli("verify", "all", "--n", "2", "--quick", "--cutoff", "3",
                        "--format", "json", "--no-timing")
    assert code == 0
    params = {r["check"]: r["params"] for r in map(json.loads, out.strip().splitlines())}
    assert len(params) == 16
    assert params["det-formula-A"]["n"] == 2
    assert params["vev-match-B"]["n"] == 4  # B sizes count points: 2n
    # the JSON "n" of these checks is their own --quick size (mmax, dmax), not --n
    assert params["heisenberg-from-fermions-A"]["n"] == 3
    assert params["character-B"]["n"] == 12


def test_n_must_be_positive():
    code, _ = run_cli("verify", "cauchy", "--n", "0")
    assert code == 2


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bfcorr.cli", "verify", "cauchy", "--n", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "[PASS]" in proc.stdout


@pytest.mark.parametrize("model,points,message", [
    ("A", "-2", "--points must be >= 1"),
    ("A", "0", "--points must be >= 1"),
    ("B", "-1", "--points must be >= 1"),
    ("B", "3", "--points must be even for --model B"),
])
def test_invalid_vev_points_are_rejected(model, points, message, capsys):
    code, out = run_cli("vev", "--model", model, "--side", "boson",
                        "--points", points, "--cutoff", "3")
    assert code == 2
    assert out == ""
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("model", ["A", "B"])
def test_negative_character_max_is_rejected(model, capsys):
    code, out = run_cli("character", "--model", model, "--max", "-3")
    assert code == 2
    assert out == ""
    assert "--max must be >= 0" in capsys.readouterr().err


def test_character_max_zero_is_accepted():
    code, out = run_cli("character", "--model", "A", "--max", "0")
    assert code == 0
    assert out.splitlines()[1].split() == ["0", "1", "1"]


# sha256 of the JSON stdout, recorded before det_series/pf_series moved onto
# the shared expansions of bfcorr.matrices; sizes beyond the benchmark's
@pytest.mark.parametrize("argv,digest", [
    (("verify", "pf-formula", "--model", "B", "--n", "5", "--cutoff", "2"),
     "b8c1411c922c901c1f4301393a5d4b9a506a50838fa25cf502860d428af4a827"),
    (("verify", "det-formula", "--model", "A", "--n", "5", "--cutoff", "5"),
     "0b9ef3d0b1db3aabe322ab00a67c675caa8af61c5b169da74977bfc0643b7b63"),
], ids=["pf-formula-n5-cutoff2", "det-formula-n5-cutoff5"])
def test_det_and_pf_reports_are_byte_identical(argv, digest):
    code, out = run_cli(*argv, "--format", "json", "--no-timing")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_empty_comparison_fails():
    # det(1/(z_i - w_j)) has total degree -5, outside the cutoff-3 box
    code, out = run_cli("verify", "det-formula", "--model", "A", "--n", "5", "--cutoff", "3")
    assert code == 1
    assert "[FAIL] det-formula-A" in out
    assert "no terms compared" in out


# stdout sha256 and exit code of the verify runs the check table must keep,
# recorded before the checks moved into one table
@pytest.mark.parametrize("argv,code,digest", [
    ("verify all --quick --no-timing", 0,
     "8eac7d1b59ee1d158ad5cfe5e30a4c0c9974627d87d2a5139f366a1fd1335286"),
    ("verify all --quick --no-timing --format json", 0,
     "ae88588d369b3c9ecf1986a806e8914cf003bf46deb76f7193a325df01908bfb"),
    ("verify all --quick --n 2 --cutoff 3 --format json --no-timing", 0,
     "5aad677514618ff7161e239c30157f430c5834ef83e90d321e09ed1a2e5d25d3"),
    ("verify heisenberg --model A --quick --no-timing", 0,
     "2aa0c1d1ce2db51a9a366a1ba5e02427103634c897d9d5d5b76c91c31562944c"),
    ("verify hopf --model B --quick --no-timing", 0,
     "a7c9ba1ddfca100ebec572cd338b23740242f98002bc201306ea2110682403df"),
    ("verify vev-match --model B --n 1 --cutoff 5 --no-timing", 0,
     "4787596993239915ea62054d83cc686919fc8efa73871c3cbe58b6e7b88477a2"),
    # exit 2 with nothing on stdout
    ("verify cauchy --model B", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("verify character --n 2", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
])
def test_verify_outputs_are_pinned(argv, code, digest):
    got, out = run_cli(*argv.split())
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# stdout sha256 of character runs, recorded before --charge was made
# type A only
@pytest.mark.parametrize("argv,digest", [
    ("character --model A --max 6",
     "d387f28102bd09c71d0bf08f72de733f4baf960808d5d9b515eafc316b238e4b"),
    ("character --model A --charge 1 --max 6 --format json",
     "cc273be78d2f36fa614f44779e11a7ed67e1fc327ff9558a1f13571b78c0e81c"),
    ("character --model B --max 10 --format json",
     "e65bf78b1c3ce607da03d5adec6f8d8cd916f20ed149fe6447eda589a39017a2"),
])
def test_character_outputs_are_pinned(argv, digest):
    code, out = run_cli(*argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_charge_is_rejected_for_model_B(capsys):
    code, out = run_cli("character", "--model", "B", "--max", "3", "--charge", "2")
    assert code == 2
    assert out == ""
    assert "--charge applies to --model A only" in capsys.readouterr().err


def test_model_without_a_variant_is_a_usage_error(capsys):
    code, out = run_cli("verify", "cauchy", "--model", "B")
    assert code == 2
    assert out == ""
    assert "cauchy has no model B variant" in capsys.readouterr().err


def test_full_size_verify_all_is_pinned():
    # stdout sha256 of the full-size run, recorded before the boson VEV
    # sweep split each vertex operator into its annihilation and creation
    # halves; CI runs this test under PYTHONHASHSEED 0 and 77
    code, out = run_cli("verify", "all", "--no-timing", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c33673c39f683f0085e54bb9321dd4e5f6782502d65d29a9b97a1af01ae97887")


@pytest.mark.parametrize("model", ["A", "B"])
def test_verify_all_honours_model(model):
    from bfcorr.correspondence import CHECKS

    code, out = run_cli("verify", "all", "--model", model, "--quick", "--no-timing")
    assert code == 0
    names = [line.split()[1] for line in out.splitlines()]
    assert names == sorted(c.name for c in CHECKS if c.model in (model, "AB"))
    assert len(names) == 9


@pytest.mark.parametrize("env,argv,asked", [
    (None, ("--cutoff", "9"), 9),
    ("8", (), 8),
])
def test_quick_says_when_it_lowers_the_cutoff(env, argv, asked, monkeypatch, capsys):
    if env is not None:
        monkeypatch.setenv("BFCORR_CUTOFF", env)
    code, out = run_cli("verify", "det-formula", "--model", "A", "--quick", *argv)
    assert code == 0
    assert "cutoff=6" in out
    assert capsys.readouterr().err == f"note: --quick runs at cutoff 6, not the requested {asked}\n"


@pytest.mark.parametrize("argv", [(), ("--cutoff", "6"), ("--cutoff", "3")])
def test_quick_is_silent_when_it_keeps_the_cutoff(argv, monkeypatch, capsys):
    # the default cutoff is lowered without a note: it was not asked for
    monkeypatch.delenv("BFCORR_CUTOFF", raising=False)
    code, _ = run_cli("verify", "det-formula", "--model", "A", "--quick", *argv)
    assert code == 0
    assert capsys.readouterr().err == ""
