"""Acceptance suite: every criterion at its stated size, exact equality.

Each test prints one pass/fail line (run with ``pytest -s`` or ``-v`` to
see them all); any inexactness anywhere is a failure, there are no
tolerances to tune.
"""

import random
import time
from itertools import permutations

from bfcorr.correspondence import (
    VevSpec,
    check_identity,
    closed_form,
    det_series,
    pf_series,
    vev_boson,
    vev_fermion,
)
from bfcorr.matrices import determinant, pfaffian
from bfcorr.ratfun import RationalFn, rf_equal
from bfcorr.series import LaurentSeries, expand, raw_mul
from conftest import random_ratfun


def _report(tag, started, ok, detail=""):
    ms = int((time.perf_counter() - started) * 1000)
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} ({ms} ms) {detail}".rstrip())
    assert ok, f"{tag} failed {detail}"


def test_criterion_1_cauchy_identity():
    t0 = time.perf_counter()
    ok = True
    for n in (1, 2, 3, 4):
        ok = ok and rf_equal(closed_form("A", "determinant", n),
                             closed_form("A", "product", n))
    _report("1 cauchy n=1..4", t0, ok)


def test_criterion_2_schur_pfaffian_identity():
    t0 = time.perf_counter()
    ok = True
    for points in (2, 4, 6):
        ok = ok and rf_equal(closed_form("B", "pfaffian", points // 2),
                             closed_form("B", "product", points // 2))
    _report("2 schur-pfaffian 2n=2,4,6", t0, ok)


def test_criterion_3_determinant_vev():
    t0 = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        lhs = vev_fermion(VevSpec.standard_A("fermion", n, 8))
        ok = ok and lhs == det_series(n, 8)
    _report("3 determinant VEV n=1,2,3 D=8", t0, ok)


def test_criterion_4_product_formula_vev():
    t0 = time.perf_counter()
    ok = True
    for n in (1, 2):
        lhs = vev_boson(VevSpec.standard_A("boson", n, 8))
        rhs = expand(closed_form("A", "product", n),
                     tuple(f"z{i+1}" for i in range(n)) + tuple(f"w{i+1}" for i in range(n)), 8)
        ok = ok and lhs == rhs
    _report("4 product-formula VEV n=1,2 D=8", t0, ok)


def test_criterion_5_type_B_vev_match():
    t0 = time.perf_counter()
    ok = True
    for points in (2, 4):
        fer = vev_fermion(VevSpec.standard_B("fermion", points, 8))
        bos = vev_boson(VevSpec.standard_B("boson", points, 8))
        pfs = pf_series(points, 8)
        ok = ok and fer == bos == pfs
    _report("5 type-B VEV match 2n=2,4 D=8", t0, ok)


def test_criterion_6_heisenberg_from_fermions():
    t0 = time.perf_counter()
    a = check_identity("heisenberg-from-fermions-A", {"mmax": 5, "grade": 12})
    b = check_identity("twisted-heisenberg-from-fermions-B", {"mmax": 7, "grade": 10})
    _report("6 Heisenberg from fermions", t0, a.passed and b.passed,
            a.witnesses.get("first_difference", "") or b.witnesses.get("first_difference", ""))


def test_criterion_7_ope_residues():
    t0 = time.perf_counter()
    rep = check_identity("ope-residues", {"grade": 8})
    _report("7 OPE residues", t0, rep.passed, rep.witnesses.get("first_difference", ""))


def test_criterion_8_characters():
    t0 = time.perf_counter()
    a = check_identity("character-A", {"dmax": 12})
    b = check_identity("character-B", {"dmax": 20})
    _report("8 characters", t0, a.passed and b.passed)


def test_criterion_9_axiom_suite():
    t0 = time.perf_counter()
    reps = [
        check_identity("hopf-relations", {"grade": 8, "window": 6}),
        check_identity("supercommutativity-A", {"cutoff": 8}),
        check_identity("supercommutativity-B", {"cutoff": 8}),
    ]
    bad = [r for r in reps if not r.passed]
    _report("9 axiom suite (Hopf, supercommutativity, creation)", t0, not bad,
            bad[0].witnesses.get("first_difference", "") if bad else "")


def test_criterion_10_kernel_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(20260810)
    AL = ("z", "w")
    ok = True

    # Pf^2 = det on random antisymmetric 2x2 and 4x4 matrices
    for i in range(100):
        size = 2 if i % 2 == 0 else 4
        m = [[RationalFn.zero(AL) for _ in range(size)] for _ in range(size)]
        for a in range(size):
            for b in range(a + 1, size):
                v = random_ratfun(rng, max_den=1)
                m[a][b] = v
                m[b][a] = -v
        pf = pfaffian(m)
        ok = ok and rf_equal(pf * pf, determinant(m))

    # expand is multiplicative to the cutoff (margin of 8 absorbs the tails
    # of these small two-variable functions)
    for _ in range(100):
        f, g = random_ratfun(rng), random_ratfun(rng)
        wide_f, wide_g = expand(f, AL, 13).exponents(), expand(g, AL, 13).exponents()
        lhs = LaurentSeries.from_exponents(AL, 5, raw_mul(wide_f, wide_g))
        ok = ok and lhs == expand(f * g, AL, 5)

    # determinant against the permutation-sum oracle, n <= 3
    for _ in range(100):
        n = rng.randint(1, 3)
        m = [[random_ratfun(rng, max_den=1) for _ in range(n)] for _ in range(n)]
        total = RationalFn.zero(AL)
        for perm in permutations(range(n)):
            inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
            prod = RationalFn.const(AL, (-1) ** inv)
            for i in range(n):
                prod = prod * m[i][perm[i]]
            total = total + prod
        ok = ok and rf_equal(determinant(m), total)

    _report("10 kernel property suite (300 instances, seed 20260810)", t0, ok)
