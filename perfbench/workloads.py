"""Workload definitions for the bfcorr benchmark: the CLI cases of each
workload, the sizes each case really uses, one known-false control per
workload, and the checks that decide whether a case failed.

A case is keyed by its argv joined with spaces.  Golden digests in
``golden.json`` are keyed the same way, so they do not depend on the
order in which a seed shuffles the cases.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

WORKLOADS = ("boson-vev", "fermion-closed-form", "operator-algebra")

# Sizes bfcorr picks for itself when no --n applies (cli._default_params).
# The JSON report does not carry them, so they are recorded here:
# check name -> (full sizes, --quick sizes).
_IMPLICIT_SIZES = {
    "heisenberg-from-fermions-A": ({"mmax": 5, "grade": 12}, {"mmax": 3, "grade": 8}),
    "twisted-heisenberg-from-fermions-B": ({"mmax": 7, "grade": 10}, {"mmax": 5, "grade": 8}),
    "character-A": ({"dmax": 12}, {"dmax": 8}),
    "character-B": ({"dmax": 20}, {"dmax": 12}),
    "ope-residues": ({"grade": 8, "window": 10}, {"grade": 6, "window": 8}),
    "hopf-relations": ({"grade": 8, "window": 6}, {"grade": 6, "window": 6}),
}

# (target, model, --n, --cutoff, check names the target runs)
_CLI_ROWS = {
    "boson-vev": [
        ("product-formula", "A", 2, 8, ["product-formula-A"]),
        ("vev-match", "A", 2, 8, ["vev-match-A"]),
        ("product-formula", "B", 2, 10, ["product-formula-B"]),
        ("vev-match", "B", 2, 10, ["vev-match-B"]),
    ],
    "fermion-closed-form": [
        ("det-formula", "A", 3, 10, ["det-formula-A"]),
        ("det-formula", "A", 4, 6, ["det-formula-A"]),
        ("pf-formula", "B", 3, 10, ["pf-formula-B"]),
        ("pf-formula", "B", 4, 5, ["pf-formula-B"]),
        ("cauchy", None, 4, 10, ["cauchy"]),
        ("schur-pfaffian", None, 3, 10, ["schur-pfaffian"]),
        ("supercommutativity", None, None, 10, ["supercommutativity-A", "supercommutativity-B"]),
    ],
    "operator-algebra": [
        ("heisenberg", None, None, 10,
         ["heisenberg-from-fermions-A", "twisted-heisenberg-from-fermions-B"]),
        ("hopf", None, None, 10, ["hopf-relations"]),
        ("ope-residues", None, None, 10, ["ope-residues"]),
        ("character", None, None, 10, ["character-A", "character-B"]),
    ],
}


@dataclass
class Case:
    """One unit of work: a CLI argv list, or a known-false control."""

    key: str
    argv: List[str] = field(default_factory=list)
    sizes: Dict[str, Dict] = field(default_factory=dict)  # check name -> sizes used
    control: Optional[str] = None  # control name for known-false cases


def _cli_case(target, model, n, cutoff, checks, quick: bool) -> Case:
    if quick:
        n = None if n is None else max(n - 1, 1)
        cutoff = min(cutoff, 4)
    argv = ["verify", target]
    if model:
        argv += ["--model", model]
    if n is not None:
        argv += ["--n", str(n)]
    argv += ["--cutoff", str(cutoff)]
    if quick:
        argv.append("--quick")
    argv += ["--format", "json", "--no-timing"]
    sizes = {}
    for check in checks:
        s: Dict = {"cutoff": cutoff}
        if n is not None:
            s["n"] = n
            s["points"] = 2 * n
        s.update(_IMPLICIT_SIZES.get(check, ({}, {}))[1 if quick else 0])
        sizes[check] = s
    return Case(" ".join(argv), argv, sizes)


def _controls(workload: str, quick: bool) -> List[Case]:
    if workload == "boson-vev":
        D = 4 if quick else 6
        return [Case(f"control boson-A-negated-product n=2 D={D}",
                     sizes={"control": {"n": 2, "points": 4, "cutoff": D}},
                     control="boson_negated_product")]
    if workload == "fermion-closed-form":
        D = 3 if quick else 10
        return [Case(f"control fermion-B-negated-pfaffian points=4 D={D}",
                     sizes={"control": {"n": 2, "points": 4, "cutoff": D}},
                     control="fermion_negated_pfaffian")]
    return [Case("control heisenberg-A-commutator-without-central-term m=1 n=-1 grade=6",
                 sizes={"control": {"mmax": 1, "grade": 6}},
                 control="heisenberg_missing_central_term")]


def build_cases(workload: str, seed: int, quick: bool = False) -> List[Case]:
    """The workload's cases, in the order the seed shuffles them into."""
    if workload not in _CLI_ROWS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    cases = [_cli_case(*row, quick=quick) for row in _CLI_ROWS[workload]]
    cases += _controls(workload, quick)
    random.Random(seed).shuffle(cases)
    return cases


def all_cases(quick: bool) -> List[Case]:
    return [c for w in WORKLOADS for c in build_cases(w, 0, quick)]


def load_golden() -> Dict[str, Dict]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def judge_cli(case: Case, exit_code: int, stdout: str, golden: Dict[str, Dict]) -> List[str]:
    """Reasons the CLI case failed; empty when it matches its known answer.

    Every case's known verdict is PASS with exit code 0.  A PASS whose
    series witnesses all read "0" compared nothing and fails.
    """
    problems = []
    want = golden.get(case.key)
    if want is None:
        problems.append("no golden digest recorded")
    else:
        if exit_code != want["exit"]:
            problems.append(f"exit {exit_code}, golden {want['exit']}")
        if digest(stdout) != want["sha256"]:
            problems.append("stdout digest differs from golden")
    if exit_code != 0:
        problems.append(f"exit {exit_code}, expected 0")
    try:
        reports = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except ValueError:
        return problems + ["stdout is not JSON lines"]
    seen = sorted(r.get("check") for r in reports)
    if seen != sorted(case.sizes):
        problems.append(f"ran checks {seen}, expected {sorted(case.sizes)}")
    for r in reports:
        name = r.get("check")
        if r.get("status") != "pass":
            problems.append(f"{name}: status {r.get('status')}, expected pass")
            continue
        expected_cutoff = case.sizes.get(name, {}).get("cutoff")
        if r.get("params", {}).get("cutoff") != expected_cutoff:
            problems.append(f"{name}: ran at cutoff {r.get('params', {}).get('cutoff')}, "
                            f"expected {expected_cutoff}")
        series = [v for k, v in r.get("witnesses", {}).items() if k.endswith("_series")]
        if series and all(v == "0" for v in series):
            problems.append(f"{name}: PASS with every series witness 0")
    return problems
