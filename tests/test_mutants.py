"""The mutant table: every check bites, and every mutant is caught.

Each row is a named source mutation, an exact ``(file, old, new)`` text
replacement that must match exactly once in ``src/bfcorr``, and the checks
that FAIL under it, all of them.  The test copies the package, applies the
mutation, runs ``bfcorr.cli verify all --quick`` in a subprocess and
compares the set of failing checks with the row's.  Text mutation is needed
because callers bind names at import (``fields`` imports ``_apply_phi_B``),
so a monkeypatch would miss them.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bfcorr
from bfcorr.correspondence import CHECKS

SRC = Path(bfcorr.__file__).parent
NAMES = {check.name for check in CHECKS}

# (name, file, old, new, the checks that fail under it); the lists are the
# complete failing sets of ``verify all --quick``
MUTANTS = [
    ("phi_B contraction sign", "fock.py",
     "2 * (-1) ** (n + ", "-2 * (-1) ** (n + ",
     ["heisenberg-fermions-B", "locality-B", "ope-residues", "pf-formula-B",
      "supercommutativity-B", "twisted-heisenberg-from-fermions-B", "vev-match-B"]),
    # the creation sign counting the modes below m in place of those above
    ("phi_B creation sign", "fock.py",
     "(-1) ** (mask >> m + 1).bit_count())]", "(-1) ** (mask & (1 << m) - 1).bit_count())]",
     ["heisenberg-fermions-B", "locality-B", "ope-residues", "pf-formula-B",
      "twisted-heisenberg-from-fermions-B", "vev-match-B"]),
    ("type A sign without the passed phi block", "fock.py",
     "(-1) ** (place + block * s[0].bit_count())", "(-1) ** place",
     ["heisenberg-fermions-A", "locality-A", "ope-residues"]),
    ("type A sign without the place in the block", "fock.py",
     "(-1) ** (place + block * s[0].bit_count())", "(-1) ** (block * s[0].bit_count())",
     ["det-formula-A", "heisenberg-fermions-A", "heisenberg-from-fermions-A", "locality-A",
      "ope-residues", "vev-match-A"]),
    ("even fields anticommute", "fields.py",
     "sign = 1 if (a.parity and b.parity) else -1", "sign = 1 if (a.parity and b.parity) else 1",
     ["heisenberg-from-fermions-A", "twisted-heisenberg-from-fermions-B"]),
    ("vertex_op_A without the z^charge shift", "boson.py",
     "lambda s: (sign * s.charge, s.charge + sign)", "lambda s: (0, s.charge + sign)",
     ["locality-A", "product-formula-A", "vev-match-A"]),
    ("type B lowering scale 1 in place of 2", "boson.py",
     "BosonStateB, True, 2, sign)", "BosonStateB, True, 1, sign)",
     ["locality-B", "product-formula-B", "vev-match-B"]),
    ("vertex_op_B ignoring its sign: e^alpha(-z) acts as e^alpha(z)", "boson.py",
     "BosonStateB, True, 2, sign)", "BosonStateB, True, 2, 1)",
     ["locality-B"]),
    ("_apply_T as the identity", "fields.py",
     "lambda k, s: [(t, -x) for t, x in row(k, s)] if k % 2 else row(k, s),",
     "lambda k, s: row(k, s),",
     ["heisenberg-fermions-B", "hopf-relations", "locality-B", "twisted-heisenberg-from-fermions-B"]),
    ("type A Heisenberg constant -1 in place of 1", "correspondence.py",
     "heisenberg_field_A(), 1,", "heisenberg_field_A(), -1,",
     ["heisenberg-from-fermions-A"]),
    ("type B Heisenberg constant 1/4 in place of 1/2", "correspondence.py",
     "Fraction(1, 2)", "Fraction(1, 4)",
     ["twisted-heisenberg-from-fermions-B"]),
    ("h_B scaled by 1/2 in place of 1/4", "fields.py",
     ".scaled(Fraction(1, 4))", ".scaled(Fraction(1, 2))",
     ["heisenberg-fermions-B", "twisted-heisenberg-from-fermions-B"]),
    # h negated: [h_m, h_n] is quadratic in h, so only h acting on the
    # fermions sees it
    ("h_A as :psi phi:", "fields.py",
     "normal_ordered_quadratic(phi_A(), psi_A())", "normal_ordered_quadratic(psi_A(), phi_A())",
     ["heisenberg-fermions-A"]),
    # every type A pairing is 0 at mode sum 0, so no type A row subtracts
    # one, and h_0 no longer reads the charge
    ("type A pairing sum 0 in place of -1", "fields.py",
     '("phiA", "psiA"): -1, ("psiA", "phiA"): -1', '("phiA", "psiA"): 0, ("psiA", "phiA"): 0',
     ["heisenberg-from-fermions-A"]),
    # the b-indices past ksum, where the a-mode removes a psi of the state
    ("type A candidates without their third run", "fields.py",
     " + [start + q for q in reversed(psis) if start + q >= 0]", "",
     ["heisenberg-fermions-A", "heisenberg-from-fermions-A"]),
    ("h_B scaled by -1/4", "fields.py",
     ".scaled(Fraction(1, 4))", ".scaled(Fraction(-1, 4))",
     ["heisenberg-fermions-B"]),
    ("odd_partition_count(7) off by one", "partitions.py",
     "return _partition_table(n, True)[n]", "return _partition_table(n, True)[n] + (n == 7)",
     ["character-B"]),
    # the type A table then ends below its sector's ground state
    ("character range below the sector", "correspondence.py",
     "top = q2 + 2 * dmax", "top = q2 - 2 * dmax",
     ["character-A"]),
    ("partition_count(7) off by one", "partitions.py",
     "return _partition_table(n, False)[n]", "return _partition_table(n, False)[n] + (n == 7)",
     ["character-A"]),
    # the standard type B word is all phi, so its image is unchanged
    ("_sides mapping every fermion symbol to the first boson symbol", "correspondence.py",
     "(image[s], v)", "(next(iter(image.values())), v)",
     ["locality-A", "locality-B", "product-formula-A", "vev-match-A"]),
    ("_product_form without the (z+w) poles", "correspondence.py",
     "den[sum_factor(i, j) if sigma > 0 else diff_factor(i, j)[0]] = 1",
     "den[sum_factor(i, j) if sigma > 0 else diff_factor(i, j)[0]] = sigma < 0",
     ["locality-B", "product-formula-B", "schur-pfaffian"]),
    # the boson sweep runs each vertex operator once per vector up to scale;
    # a prefix whose vector merged into another's form must take on the
    # factor between them, its magnitude and its sign.  Merging without
    # fixing each form's sign only merges less, and changes no result.
    # Every step reduces its buckets, the last one too: product-formula-B
    # sees the sign only there
    ("the merged sweep drops a vector's scale", "correspondence.py",
     "ze * weight: scale * g", "ze * weight: scale",
     ["locality-A", "locality-B", "product-formula-A", "product-formula-B", "vev-match-A",
      "vev-match-B"]),
    ("the merged sweep keeps the scale's magnitude but not its sign", "correspondence.py",
     "ze * weight: scale * g", "ze * weight: scale * abs(g)",
     ["locality-A", "locality-B", "product-formula-A", "product-formula-B", "vev-match-A",
      "vev-match-B"]),
    ("the join drops the left coefficient", "correspondence.py",
     "{p + q: a * v for", "{p + q: v for",
     ["det-formula-A", "locality-A", "locality-B", "pf-formula-B", "supercommutativity-B",
      "vev-match-A", "vev-match-B"]),
    ("type B two-point numerator sign", "correspondence.py",
     "MultiPoly.linear(alpha, i, j, -1), {sum_factor(i, j): 1})",
     "MultiPoly.linear(alpha, i, j, 1), {sum_factor(i, j): 1})",
     ["locality-B", "ope-residues", "pf-formula-B", "schur-pfaffian", "supercommutativity-B",
      "vev-match-B"]),
    ("type A two-point function doubled", "correspondence.py",
     "RationalFn(MultiPoly.const(alpha, s), {atom: 1})",
     "RationalFn(MultiPoly.const(alpha, 2 * s), {atom: 1})",
     ["cauchy", "det-formula-A", "locality-A", "ope-residues", "supercommutativity-A"]),
    ("_wick_pairs pairing only a phi before a psi", "correspondence.py",
     """if spec.model == "B" or spec.word[i][0] != spec.word[j][0]]""",
     """if spec.model == "B" or (spec.word[i][0], spec.word[j][0]) == ("phi", "psi")]""",
     ["locality-A"]),
    ("expand's tail one term short", "series.py",
     "for t in range(x + cutoff + 1):", "for t in range(x + cutoff):",
     ["det-formula-A", "locality-A", "locality-B", "pf-formula-B", "product-formula-A",
      "product-formula-B", "supercommutativity-A", "supercommutativity-B", "vev-match-B"]),
    ("mac without its sign", "poly.py",
     "        c1 *= sign\n", "",
     ["det-formula-A", "locality-A", "locality-B", "pf-formula-B", "vev-match-B"]),
    # the frame's width, whose keys the Wick series adds, cut to
    # D.bit_length(), one bit short of the engines' entries [-D, D]: an
    # exponent of +-D then wraps into a neighbouring digit.  The width rule's
    # own last bit is not caught by a check: it holds box entries up to nD,
    # and no check makes an entry above D (test_cli's expand test pins one)
    ("the Wick series' packed width one bit short", "poly.py",
     "(n * cutoff).bit_length() + 1", "max(cutoff, 1).bit_length()",
     ["det-formula-A", "locality-A", "locality-B", "pf-formula-B", "product-formula-A",
      "product-formula-B", "supercommutativity-A", "supercommutativity-B", "vev-match-A", "vev-match-B"]),
    # the boson vertex operators' packed width one bit short (but at least
    # one bit: width 0 unpacks no key but 0): an exponent at the top of the
    # width carries into the next variable's digit
    ("the vertex operators' packed width one bit short", "boson.py",
     "max(wmax, 0).bit_length()", "max(max(wmax, 0).bit_length() - 1, 1)",
     ["locality-A", "locality-B", "product-formula-A", "product-formula-B", "vev-match-A", "vev-match-B"]),
]

# runs ``python -m bfcorr.cli verify all --quick --format json --no-timing``
# after naming the package file it imported
_RUNNER = """
import sys
import bfcorr
from bfcorr.cli import main
print(bfcorr.__file__, file=sys.stderr)
main(["verify", "all", "--quick", "--format", "json", "--no-timing"])
"""


def _mutated_copy(root: Path, file: str, old: str, new: str) -> Path:
    pkg = root / "bfcorr"
    shutil.copytree(SRC, pkg, ignore=shutil.ignore_patterns("__pycache__"))
    path = pkg / file
    text = path.read_text()
    assert text.count(old) == 1, f"{file}: the mutated text must occur exactly once"
    path.write_text(text.replace(old, new))
    return pkg


def test_every_check_is_in_some_row():
    named = {name for *_, fails in MUTANTS for name in fails}
    assert NAMES <= named
    assert named <= NAMES


def test_every_mutant_is_caught_by_some_check():
    for name, *_, fails in MUTANTS:
        assert fails, name


@pytest.mark.parametrize("name, file, old, new, fails", MUTANTS, ids=[row[0] for row in MUTANTS])
def test_mutant_fails_its_checks(tmp_path, name, file, old, new, fails):
    pkg = _mutated_copy(tmp_path, file, old, new)
    env = dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", _RUNNER], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stderr.splitlines()[0] == str(pkg / "__init__.py"), proc.stderr
    status = {}
    for line in proc.stdout.splitlines():
        report = json.loads(line)
        status[report["check"]] = report["status"]
    assert set(status) == NAMES, proc.stderr
    assert sorted(check for check, s in status.items() if s == "fail") == sorted(fails), proc.stderr
