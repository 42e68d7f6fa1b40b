"""CLI behavior: exit codes, JSON schema, deterministic reports."""

import hashlib
import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfcorr import correspondence
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
    # the entry 4 > D of z^4*w^-3 lies in the box (each entry >= -D, total
    # in [-D, D]): the codec's width must hold box entries up to nD
    code, out = run_cli("expand", "--expr", "(z^4 + w) / ((w)^3)", "--order", "z,w", "--cutoff", "3")
    assert code == 0
    assert out.strip() == "z^4*w^-3 + w^-2"


def test_expand_rejects_bad_expression():
    code, _ = run_cli("expand", "--expr", "1 +", "--order", "z,w")
    assert code == 2


@pytest.mark.parametrize("expr, message", [
    ("(z^-1 + w) / ((z-w)^1)", "negative exponent in a polynomial"),
    ("(z^256) / ((z)^256)", "the most a polynomial in 2 variables holds"),
])
def test_expand_rejects_a_numerator_exponent_a_polynomial_cannot_hold(capsys, expr, message):
    # the polynomial constructor refuses it, and main turns that into exit 2
    code, out = run_cli("expand", "--expr", expr, "--order", "z,w", "--cutoff", "3")
    assert code == 2
    assert out == ""
    assert message in capsys.readouterr().err


def test_expand_rejects_a_repeated_variable(capsys):
    # z,w,z names no expansion region; it used to print the |w| >> |z| series
    code, out = run_cli("expand", "--expr", "(1) / ((z-w)^1)", "--order", "z,w,z", "--cutoff", "3")
    assert code == 2
    assert out == ""
    assert "ordering repeats a variable" in capsys.readouterr().err


@pytest.mark.parametrize("expr, order, name", [
    ("(1) / ((z-w)^1)", "z", "w"),
    ("(1) / ((z+w)^1)", "z", "w"),
    ("(1) / ((q)^1)", "z,w", "q"),
])
def test_expand_rejects_a_pole_variable_outside_the_ordering(capsys, expr, order, name):
    # each pole atom (difference, sum, single variable) used to raise KeyError
    code, out = run_cli("expand", "--expr", expr, "--order", order, "--cutoff", "3")
    assert code == 2
    assert out == ""
    assert f"unknown variable {name}" in capsys.readouterr().err


def test_character_command():
    code, out = run_cli("character", "--model", "B", "--max", "6")
    assert code == 0
    assert "degree" in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "definitely-not-a-target"])
    assert exc.value.code == 2


@pytest.mark.parametrize("cutoff", ["0", "-3"])
def test_nonpositive_cutoff_is_rejected(cutoff, capsys):
    code, out = run_cli("verify", "det-formula", "--model", "A", "--cutoff", cutoff)
    assert code == 2
    assert out == ""
    assert "cutoff must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["heisenberg", "heisenberg-fermions", "character", "hopf",
                                    "ope-residues", "supercommutativity"])
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
    assert len(params) == 20
    assert params["det-formula-A"]["n"] == 2
    assert params["vev-match-B"]["n"] == 4  # B sizes count points: 2n
    assert params["locality-A"]["n"] == 2
    assert params["locality-B"]["n"] == 4
    # the JSON "n" of these checks is their own --quick size (mmax, dmax), not --n
    assert params["heisenberg-from-fermions-A"]["n"] == 3
    # heisenberg-fermions-A/-B carry no n: their mmax is not an --n size
    assert params["heisenberg-fermions-A"]["n"] is None
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


@pytest.mark.parametrize("model", ["A", "B"])
def test_an_empty_character_table_fails_both_paths(model, monkeypatch):
    # both compare every grade the oracle holds, so a table that lost its
    # grades fails instead of comparing nothing
    monkeypatch.setattr(correspondence, f"character_{model}", lambda *args: [])
    report = correspondence.check_identity(f"character-{model}", {"dmax": 4})
    assert not report.passed
    label, oracle = ("energy2", "partitions 1") if model == "A" else ("degree", "2*odd partitions 2")
    assert report.witnesses["first_difference"] == f"{label}=0: dim 0 vs {oracle}"
    code, out = run_cli("character", "--model", model, "--max", "4", "--format", "json")
    assert code == 1
    assert {row["dim"] for row in json.loads(out)["rows"]} == {0}


@pytest.mark.parametrize("argv, message", [
    # 1.09M states by energy2 400 + 2*49
    (["--model", "A", "--charge", "20", "--max", "460"], "model A, charge 20, max 460 has over 1091745 states"),
    # the lowest state has 990 modes: one recursion level each
    (["--model", "A", "--charge", "990", "--max", "0"], "|charge| must be <= 500"),
    (["--model", "A", "--charge", "-501", "--max", "0"], "|charge| must be <= 500"),
    (["--model", "B", "--max", "1000000000"], "model B, max 1000000000 has over 1005644 states"),
])
def test_character_refuses_a_sector_too_large_to_enumerate(argv, message, capsys):
    t0 = time.perf_counter()
    code, out = run_cli("character", *argv)
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert message in capsys.readouterr().err


def test_boson_vev_refuses_a_step_past_its_bound(capsys):
    # at the default cutoff this VEV grew past 700 MiB; it is refused at its
    # fourth step, whose count is taken before the step's creation half runs
    t0 = time.perf_counter()
    code, out = run_cli("vev", "--model", "A", "--side", "boson", "--points", "4")
    assert time.perf_counter() - t0 < 5
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.strip() == (
        "error: type A boson VEV of 8 vertex operators at z1, z2, z3, z4, w1, w2, w3, w4, cutoff 10: "
        "step 4 of 8 would make 3954102 creation updates, more than 1000000")


def test_boson_vev_refuses_a_step_that_takes_in_too_many_terms(capsys):
    # type B at cutoff 1 doubles its prefixes every step; it is refused
    # before its 21st step builds them, not after growing past 600 MiB
    t0 = time.perf_counter()
    code, out = run_cli("vev", "--model", "B", "--side", "boson", "--points", "30", "--cutoff", "1")
    assert time.perf_counter() - t0 < 10
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.strip() == (
        "error: type B boson VEV of 30 vertex operators at "
        + ", ".join(f"z{i}" for i in range(1, 31)) + ", cutoff 1: "
        "step 21 of 30 would take in 1048576 prefixes, more than 1000000")


def test_character_runs_below_its_bounds():
    code, out = run_cli("character", "--model", "A", "--max", "30", "--format", "json")
    rows = json.loads(out)["rows"]
    assert code == 0 and sum(row["dim"] for row in rows) == 28629
    assert run_cli("character", "--model", "A", "--charge", "-500", "--max", "2")[0] == 0


@pytest.mark.parametrize("argv", [
    ["character", "--model", "B", "--cutoff", "3"],
    ["character", "--model", "B", "--no-timing"],
    ["expand", "--expr", "z", "--order", "z", "--seed", "1"],
    ["expand", "--expr", "z", "--order", "z", "--no-timing"],
])
def test_commands_take_only_the_options_they_read(argv):
    with pytest.raises(SystemExit) as exc, redirect_stderr(io.StringIO()):
        main(argv)
    assert exc.value.code == 2


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
# recorded before the checks moved into one table; the three ``verify all``
# digests were re-recorded when locality-A/-B joined and again when
# heisenberg-fermions-A/-B joined, and the two ``--quick`` ones again when
# pf-formula-B and vev-match-B went to 4 points under --quick and when
# product-formula-B did, with the other lines of each output unchanged
@pytest.mark.parametrize("argv,code,digest", [
    ("verify all --quick --no-timing", 0,
     "bdf6bae437326f96d561d02869b5080425d64f3d03657591fa3b1ee618fea1b3"),
    ("verify all --quick --no-timing --format json", 0,
     "553315f72eb6fe33dbcd50a5eb6d04813b15d866de98f034e2250de81f6740a4"),
    ("verify all --quick --n 2 --cutoff 3 --format json --no-timing", 0,
     "ee8c253b8fd0d3a3399794d5f6c8a801d5a341de85b3e4f11958db274db5d5c2"),
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
    # halves and re-recorded when locality-A/-B joined and when
    # heisenberg-fermions-A/-B joined (the other lines are unchanged); CI runs
    # this test under PYTHONHASHSEED 0 and 77
    code, out = run_cli("verify", "all", "--no-timing", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5492bf87931b519c4af3f6753d44f08c357e776bb18e8db731b720d562f50c6f")


@pytest.mark.parametrize("model", ["A", "B"])
def test_verify_all_honours_model(model):
    from bfcorr.correspondence import CHECKS

    code, out = run_cli("verify", "all", "--model", model, "--quick", "--no-timing")
    assert code == 0
    names = [line.split()[1] for line in out.splitlines()]
    assert names == sorted(c.name for c in CHECKS if c.model in (model, "AB"))
    assert len(names) == 11


def test_quick_says_when_it_lowers_the_cutoff(capsys):
    code, out = run_cli("verify", "det-formula", "--model", "A", "--quick", "--cutoff", "9")
    assert code == 0
    assert "cutoff=6" in out
    assert capsys.readouterr().err == "note: --quick runs at cutoff 6, not the requested 9\n"


@pytest.mark.parametrize("argv", [(), ("--cutoff", "6"), ("--cutoff", "3")])
def test_quick_is_silent_when_it_keeps_the_cutoff(argv, capsys):
    # the default cutoff is lowered without a note: it was not asked for
    code, _ = run_cli("verify", "det-formula", "--model", "A", "--quick", *argv)
    assert code == 0
    assert capsys.readouterr().err == ""


# generated argv for expand, vev and character, at small sizes: numbers in
# expressions are single tokens 0..3 (joined by spaces, so they never grow
# into a large exponent), cutoff <= 4, points <= 4, --max <= 6
_VARS = ("z", "w", "u")
_TOKENS = _VARS + ("0", "1", "2", "3", "^", "*", "/", "+", "-", "(", ")")
_ATOM = st.builds(lambda a, op, b, e: f"({a}{op}{b})^{e}" if op else f"({a})^{e}",
                  st.sampled_from(_VARS), st.sampled_from(["", "-", "+"]),
                  st.sampled_from(_VARS), st.integers(1, 3))
_TERM = st.builds(lambda c, v, e: f"{c}*{v}^{e}", st.sampled_from(["1", "-2", "3/2", "0"]),
                  st.sampled_from(_VARS), st.integers(0, 3))
_WELL_FORMED = st.builds(lambda terms, atoms: f"({' + '.join(terms)}) / ({' '.join(atoms)})",
                         st.lists(_TERM, min_size=1, max_size=3), st.lists(_ATOM, min_size=1, max_size=3))
_EXPR = _WELL_FORMED | st.lists(st.sampled_from(_TOKENS), max_size=14).map(" ".join)
_ORDER = (st.permutations(_VARS) | st.lists(st.sampled_from(_VARS + ("",)), max_size=4)).map(",".join)


def _given(name, values):
    return values.map(lambda v: [name, str(v)])


def _option(name, values):
    return st.just([]) | _given(name, values)


def _command(name, *options):
    return st.tuples(*options).map(lambda opts: [name] + [x for opt in opts for x in opt])


# each command gets only the options it takes; --cutoff is always given:
# at the default, 10, 4 type A pairs take minutes
_CUTOFF = _given("--cutoff", st.integers(-1, 4))
_FORMAT = _option("--format", st.sampled_from(["text", "json"]))
_ARGV = st.one_of(
    _command("expand", _given("--expr", _EXPR), _given("--order", _ORDER), _CUTOFF, _FORMAT),
    _command("vev", _given("--model", st.sampled_from("AB")), _given("--side", st.sampled_from(["fermion", "boson"])),
             _given("--points", st.integers(-1, 4)), _CUTOFF, _FORMAT, st.sampled_from([[], ["--no-timing"]])),
    _command("character", _given("--model", st.sampled_from("AB")), _option("--charge", st.integers(-20, 20)),
             _option("--max", st.integers(-1, 6)), _FORMAT),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=_ARGV)
def test_generated_commands_exit_0_1_or_2(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
