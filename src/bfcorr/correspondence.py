"""Vacuum expectation values on all four sides of the correspondences,
their Wick and product forms, and the named identity checks.

Both VEV engines apply the word right to left to the vacuum, one field
per step, keeping each exponent prefix apart.  The fermion sweep runs
fock's basis-state Clifford actions over the modes of the cutoff box and
drops the states the fields still to come cannot return to the vacuum;
the boson sweep runs the annihilation half of each vertex operator on all
(prefix, state) pairs, sums the results, and only then runs the creation
half.  Any word has one Wick form, the Pfaffian of its paired two-point
functions (``_wick_pairs``), and one product form (``_product_form``);
the closed forms and the det/Pf series are these for the standard word.
The series form runs ``matrices.pf_expansion`` on integer entrywise
expansions (region expansion is a ring homomorphism, and each term of the
expansion touches disjoint variable pairs, so entry truncation at the box
bound is exact).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import add
from typing import Callable, Dict, List, Optional, Tuple

# vertex_A is bound here only for the benchmark's tracer test
# (perfbench/test_perfbench.py), which looks for it in this module
from .boson import BOSON_VACUUM_A, BOSON_VACUUM_B, annihilate, create, vertex_A, vertex_op_A, vertex_op_B
from .fields import (
    act_hopf,
    graded_basis,
    heisenberg_field_A,
    mode_commutator,
    phi_A,
    phi_B,
    psi_A,
    twisted_heisenberg_field_B,
)
from .fock import (
    VACUUM_A,
    VACUUM_B,
    FermionStateA,
    FermionStateB,
    _apply_phi_A,
    _apply_phi_B,
    _apply_psi_A,
    character_A,
    character_B,
)
from .matrices import pf_expansion, pfaffian
from .partitions import odd_partition_count, partition_count
from .poly import MultiPoly, Rat
from .ratfun import RationalFn, diff_factor, residue_at, rf_equal, sum_factor
from .series import LaurentSeries, expand
from .textio import format_rational, format_series


# the field symbols of each (model, side); type B '-' is e^alpha(-z) = e^{-alpha}(z)
_SYMBOLS = {("A", "fermion"): ("phi", "psi"), ("A", "boson"): ("+", "-"),
            ("B", "fermion"): ("phi",), ("B", "boson"): ("+", "-")}


@dataclass(frozen=True)
class VevSpec:
    """A vacuum expectation value request: an ordered word of fields.  An
    unknown (model, side), a symbol the side lacks or a repeated variable
    raises ValueError."""

    model: str                      # 'A' | 'B'
    side: str                       # 'fermion' | 'boson'
    word: Tuple[Tuple[str, str], ...]  # (symbol, variable) pairs, left to right
    cutoff: int

    def __post_init__(self):
        symbols = _SYMBOLS.get((self.model, self.side))
        if symbols is None:
            raise ValueError(f"unknown model/side {self.model!r}/{self.side!r}")
        for sym, _ in self.word:
            if sym not in symbols:
                raise ValueError(f"type {self.model} {self.side} words take {symbols}, not {sym!r}")
        if len(set(self.variables)) != len(self.word):
            raise ValueError("variables must be distinct")

    @property
    def variables(self) -> Tuple[str, ...]:
        """The word's variables, left to right: its expansion region."""
        return tuple(v for _, v in self.word)

    @classmethod
    def standard_A(cls, side: str, n: int, cutoff: int) -> "VevSpec":
        """phi(z_1)..phi(z_n) psi(w_1)..psi(w_n), or the e^{+-alpha} images."""
        plus, minus = ("phi", "psi") if side == "fermion" else ("+", "-")
        word = tuple((plus, f"z{i + 1}") for i in range(n))
        word += tuple((minus, f"w{i + 1}") for i in range(n))
        return cls("A", side, word, cutoff)

    @classmethod
    def standard_B(cls, side: str, points: int, cutoff: int) -> "VevSpec":
        """phi(z_1)..phi(z_points), or the e^alpha images."""
        sym = "phi" if side == "fermion" else "+"
        return cls("B", side, tuple((sym, f"z{i + 1}") for i in range(points)), cutoff)

    @classmethod
    def standard(cls, model: str, side: str, n: int, cutoff: int) -> "VevSpec":
        """The standard word: n pairs (type A) or n points (type B)."""
        if model not in ("A", "B"):
            raise ValueError(f"unknown model {model!r}")
        return (cls.standard_A if model == "A" else cls.standard_B)(side, n, cutoff)


def _sweep(word, vacuum, cutoff: int, step_at) -> LaurentSeries:
    """<0| word |0>: apply the fields right to left to the vacuum and read
    off the vacuum coefficient of every exponent prefix.

    ``step_at(pos)(entries, den)`` applies the field at ``pos`` to the
    prefix -> {state: numerator} tables, every numerator over the common
    denominator ``den``, and returns the new tables and denominator; see
    ``_propagate``.
    """
    entries, den = {(): {vacuum: 1}}, 1
    for pos in range(len(word) - 1, -1, -1):
        entries, den = step_at(pos)(entries, den)
    terms = {tuple(reversed(prefix)): Fraction(smap[vacuum], den)
             for prefix, smap in entries.items() if vacuum in smap}
    return LaurentSeries(tuple(v for _, v in word), cutoff, terms)


def _prefix_window(prefix, pos: int, cutoff: int) -> Tuple[int, int]:
    """The exponents the field at ``pos`` may add to ``prefix`` so that the
    prefix can still complete to a box monomial with ``pos`` fields left."""
    slack, partial = (pos + 1) * cutoff, sum(prefix)
    return -slack - partial, slack - partial


def _propagate(entries, action, pos, cutoff):
    """One right-to-left word step of ``_sweep`` whose actions have
    integer coefficients, so the denominator stays as it is.

    ``action(state)`` gives rows of (exponent, new state, integer
    coefficient); it runs once per distinct state.  Exponents outside
    ``_prefix_window`` are dropped.  Returns the new tables.
    """
    acts = {}
    for smap in entries.values():
        for s in smap:
            if s not in acts:
                acts[s] = action(s)
    new: Dict[Tuple[int, ...], Dict] = {}
    for prefix, smap in entries.items():
        lo, hi = _prefix_window(prefix, pos, cutoff)
        for s, c in smap.items():
            for ze, s2, n2 in acts[s]:
                if ze < lo or ze > hi:
                    continue
                key = prefix + (ze,)
                d = new.get(key)
                if d is None:
                    d = new[key] = {}
                v = d.get(s2, 0) + c * n2
                if v:
                    d[s2] = v
                else:
                    del d[s2]
    return {k: d for k, d in new.items() if d}


def vev_fermion(spec: VevSpec) -> LaurentSeries:
    """<0| word |0> as a Laurent series in the word-order expansion region.

    Each word step runs fock's basis-state action of its field over the
    modes that a field applied after it can still undo inside the box: a
    created mode m is removed at exponent -1-m (type A) or -m (type B),
    which must be >= -cutoff.  A new state is kept only if the fields
    still to come can remove all of its modes: its phi modes need as many
    psi fields and its psi modes as many phi fields (type A), its modes
    as many fields (type B).
    """
    if spec.side != "fermion":
        raise ValueError("spec.side must be 'fermion'")
    D, word = spec.cutoff, spec.word

    def step_at(pos):
        if spec.model == "A":
            act = _apply_phi_A if word[pos][0] == "phi" else _apply_psi_A
            modes = range(D - 1, -D - 1, -1)
            phis_left = sum(1 for t, _ in word[:pos] if t == "phi")
            psis_left = pos - phis_left
            keep = lambda t: len(t.phis) <= psis_left and len(t.psis) <= phis_left
        else:
            act, modes = _apply_phi_B, range(D, -D - 1, -1)
            keep = lambda t: len(t.indices) <= pos

        def action(s):
            return [(m, t, c) for m in modes for t, c in act(m, s) if keep(t)]

        return lambda entries, den: (_propagate(entries, action, pos, D), den)

    return _sweep(word, VACUUM_A if spec.model == "A" else VACUUM_B, D, step_at)


def vev_boson(spec: VevSpec) -> LaurentSeries:
    """Composite vertex-operator VEV, truncated term by term.

    A spec is computed once per process (see ``_boson_series``); each call
    returns a fresh series.
    """
    if spec.side != "boson":
        raise ValueError("spec.side must be 'boson'")
    series = _boson_series(spec)
    return LaurentSeries(series.ordering, series.cutoff, series.terms)


@lru_cache(maxsize=8)
def _boson_series(spec: VevSpec) -> LaurentSeries:
    """The VEV behind ``vev_boson``; the last few specs stay cached, since
    checks such as product-formula and vev-match ask for the same one.

    Each word step runs the two halves of the vertex operator on all
    (prefix, state) pairs at once: the annihilation half is summed per
    (prefix, z-exponent, label, lowered monomial) before the creation half
    runs, inside the prefix window and the weight cap.
    """
    D, word = spec.cutoff, spec.word
    # net weight one operator can absorb: its exponent, shift + created -
    # lowered weight, is >= -D, so it lowers the weight by at most D + shift;
    # the shift is sign * charge for type A and 0 for type B
    absorbs = []  # indexed right to left
    q = 0
    for sym, _ in reversed(word):
        sign = 1 if sym == "+" else -1
        absorbs.append(D + (sign * q if spec.model == "A" else 0))
        q += sign

    def step_at(pos):
        sign = 1 if word[pos][0] == "+" else -1
        op = vertex_op_A(sign) if spec.model == "A" else vertex_op_B(sign)
        wmax = sum(absorbs[len(word) - pos:])

        def step(entries, den):
            d1, lowered = annihilate(op, [(prefix, s, c) for prefix, smap in entries.items()
                                          for s, c in smap.items()], wmax)
            windows = {}
            for prefix in entries:
                lo, hi = _prefix_window(prefix, pos, D)
                windows[prefix] = max(lo, -D), min(hi, D)
            d2, out = create(op, lowered, windows.__getitem__, wmax)
            return {prefix + (ze,): d for (prefix, ze), d in out.items() if d}, den * d1 * d2

        return step

    return _sweep(word, BOSON_VACUUM_A if spec.model == "A" else BOSON_VACUUM_B, D, step_at)


def vev(spec: VevSpec) -> LaurentSeries:
    return vev_fermion(spec) if spec.side == "fermion" else vev_boson(spec)


# -- closed forms --------------------------------------------------------------


def _two_point(model: str, alpha, i: int, j: int) -> RationalFn:
    """The Wick kernel of the fields at x_i and x_j: 1/(x_i - x_j) (type A)
    or (x_i - x_j)/(x_i + x_j) (type B), over the alphabet ``alpha``."""
    if model == "A":
        atom, s = diff_factor(i, j)
        return RationalFn(MultiPoly.const(alpha, s), {atom: 1})
    return RationalFn(MultiPoly.linear(alpha, i, j, -1), {sum_factor(i, j): 1})


def _wick_pairs(spec: VevSpec) -> List[Tuple[int, int]]:
    """The word positions i < j whose fields pair: a phi with a psi (type
    A) or any two (type B).  <0| word |0> is the Pfaffian of their
    two-point functions, with every other entry zero."""
    return [(i, j) for i, j in combinations(range(len(spec.word)), 2)
            if spec.model == "B" or spec.word[i][0] != spec.word[j][0]]


def _product_form(spec: VevSpec) -> RationalFn:
    """The boson side of <0| word |0>: prod_{i<j} K(x_i, x_j)^{e_i e_j} in
    word order, with K = x_i - x_j (type A) or (x_i - x_j)/(x_i + x_j)
    (type B).  e_i e_j = +1 exactly when the two symbols agree; for type B
    that is because e^alpha(-z) = e^{-alpha}(z) and K(-x_i, x_j) = 1/K."""
    alpha = spec.variables
    num, den = MultiPoly.const(alpha, 1), {}
    for i, j in combinations(range(len(alpha)), 2):
        eps = 1 if spec.word[i][0] == spec.word[j][0] else -1
        # K^eps as factors (x_i + sigma*x_j)^power
        for sigma, power in [(-1, eps)] + ([(1, -eps)] if spec.model == "B" else []):
            if power > 0:
                num = num * MultiPoly.linear(alpha, i, j, sigma)
            else:
                den[sum_factor(i, j) if sigma > 0 else diff_factor(i, j)[0]] = 1
    return RationalFn(num, den)


def closed_form(model: str, kind: str, n: int) -> RationalFn:
    """Exact closed forms of the standard word of n pairs (type A) or 2n
    points (type B): its Wick Pfaffian, called "determinant" for type A,
    where it is (-1)^{n(n-1)/2} det(1/(z_i - w_j)), and "pfaffian" for type
    B, or its "product" form."""
    if n < 1:
        raise ValueError("n must be >= 1")
    spec = VevSpec.standard(model, "fermion", n if model == "A" else 2 * n, 0)
    if kind == "product":
        return _product_form(spec)
    if kind != ("determinant" if model == "A" else "pfaffian"):
        raise ValueError(f"unknown type {model} closed form {kind!r}")
    alpha = spec.variables
    m = [[RationalFn.zero(alpha)] * len(alpha) for _ in alpha]
    for i, j in _wick_pairs(spec):
        m[i][j] = _two_point(model, alpha, i, j)
        m[j][i] = -m[i][j]
    return pfaffian(m)


def _int_terms(series: LaurentSeries) -> Dict[Tuple[int, ...], int]:
    """A series' terms as integers; raises on a coefficient that is not one."""
    out = {}
    for e, c in series.terms.items():
        if c.denominator != 1:
            raise ValueError(f"entry coefficient {c} is not an integer")
        out[e] = c.numerator
    return out


def _series_mac(acc: Dict, sign: int, a: Dict, b: Dict) -> Dict:
    """acc += sign * a * b on integer exponent dicts, in place."""
    get = acc.get
    for e1, c1 in a.items():
        c1 *= sign
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            v = get(e, 0) + c1 * c2
            if v:
                acc[e] = v
            else:
                del acc[e]
    return acc


def _wick_series(spec: VevSpec) -> LaurentSeries:
    """<0| word |0> by Wick's theorem: the Pfaffian over the integer
    expansions of the word's two-point functions on the cutoff box."""
    alpha, D = spec.variables, spec.cutoff
    m = [[None] * len(alpha) for _ in alpha]  # the expansion reads i < j only
    for i, j in _wick_pairs(spec):
        m[i][j] = _int_terms(expand(_two_point(spec.model, alpha, i, j), alpha, D))
    total = pf_expansion(m, {(0,) * len(alpha): 1}, dict, _series_mac)
    return LaurentSeries(alpha, D, {e: Fraction(c) for e, c in total.items()})


def det_series(n: int, cutoff: int) -> LaurentSeries:
    """The Wick series of the standard type A word: (-1)^{n(n-1)/2} det(1/(z_i - w_j))."""
    return _wick_series(VevSpec.standard_A("fermion", n, cutoff))


def pf_series(points: int, cutoff: int) -> LaurentSeries:
    """The Wick series of the standard type B word: Pf((z_i - z_j)/(z_i + z_j))."""
    if points % 2:
        raise ValueError("points must be even")
    return _wick_series(VevSpec.standard_B("fermion", points, cutoff))


def analytic_continuation_check(series: LaurentSeries, candidate: RationalFn) -> bool:
    """True iff the series is the region expansion of the candidate at its cutoff."""
    return expand(candidate, series.ordering, series.cutoff) == series


# -- identity checks ------------------------------------------------------------


@dataclass
class IdentityReport:
    name: str
    params: Dict
    status: str
    witnesses: Dict[str, str] = dataclass_field(default_factory=dict)
    elapsed_ms: int = 0

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> Dict:
        return {
            "check": self.name,
            "params": {
                "model": self.params.get("model"),
                "n": self.params.get("n"),
                "cutoff": self.params.get("cutoff"),
                "seed": self.params.get("seed", 0),
            },
            "status": self.status,
            "witnesses": self.witnesses,
            "elapsed_ms": self.elapsed_ms,
        }


def _fail(report: IdentityReport, why: str) -> None:
    report.status = "fail"
    report.witnesses["first_difference"] = why


def _clip(text: str, limit: int = 4000) -> str:
    if len(text) <= limit:
        return text
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    return f"{text[:limit]} ... [{len(text)} chars, sha256:{digest}]"


def _series_witness(s: LaurentSeries) -> str:
    return _clip(format_series(s))


def _rational_witness(f: RationalFn) -> str:
    return _clip(format_rational(f))


def _monomial_text(ordering, e) -> str:
    parts = [f"{v}^{k}" for v, k in zip(ordering, e) if k]
    return "*".join(parts) if parts else "1"


def _compare_series(report: IdentityReport, pairs: List[Tuple[str, str, LaurentSeries, LaurentSeries]]):
    """Compare each pair in turn; an unequal or an empty pair fails the report.

    Each series is formatted at most once per call, and equal series share
    their witness text.
    """
    texts: Dict[int, str] = {}  # id(series) -> witness text

    def text_of(s: LaurentSeries) -> str:
        text = texts.get(id(s))
        if text is None:
            text = texts[id(s)] = _series_witness(s)
        return text

    for label_l, label_r, lhs, rhs in pairs:
        equal = lhs == rhs
        report.witnesses[label_l] = text_of(lhs)
        if equal:
            texts[id(rhs)] = texts[id(lhs)]
        report.witnesses[label_r] = text_of(rhs)
        if equal and not lhs.terms:
            return _fail(report, f"{label_l} vs {label_r}: no terms compared "
                                 f"(both series are 0 at cutoff {lhs.cutoff})")
        if not equal:
            e = lhs.first_difference(rhs)
            return _fail(report, f"{label_l} vs {label_r} at {_monomial_text(lhs.ordering, e)}: "
                                 f"{lhs.terms.get(e, Rat(0))} vs {rhs.terms.get(e, Rat(0))}")


# Pair builders of the series checks: (model, n, cutoff) -> the labelled
# series pairs to compare.  They call the engines by module-level name, so
# a caller that swaps those names sees every call.


def _mode_pairs(model, n, D):
    lhs = vev_fermion(VevSpec.standard(model, "fermion", n, D))
    if model == "A":
        return [("mode_series", "determinant_series", lhs, det_series(n, D))]
    return [("mode_series", "pfaffian_series", lhs, pf_series(n, D))]


def _product_pairs(model, n, D):
    spec = VevSpec.standard(model, "boson", n, D)
    return [("vertex_series", "product_series", vev_boson(spec),
             expand(_product_form(spec), spec.variables, D))]


def _vev_match_pairs(model, n, D):
    fer = vev_fermion(VevSpec.standard(model, "fermion", n, D))
    pairs = [("fermion_series", "boson_series", fer, vev_boson(VevSpec.standard(model, "boson", n, D)))]
    if model == "B":
        pairs.append(("fermion_series", "pfaffian_series", fer, pf_series(n, D)))
    return pairs


def _series_check(pairs):
    """Runner of a series check: compare the pairs ``pairs`` builds."""
    return lambda model, rep, p: _compare_series(rep, pairs(model, p["n"], p["cutoff"]))


def _run_closed_forms(model, rep, p) -> None:
    """Cauchy (type A, n pairs) or Schur-Pfaffian (type B, n points)."""
    kind, n = ("determinant", p["n"]) if model == "A" else ("pfaffian", p["n"] // 2)
    form = closed_form(model, kind, n)
    product = closed_form(model, "product", n)
    rep.witnesses[f"{kind}_form"] = _rational_witness(form)
    rep.witnesses["product_form"] = _rational_witness(product)
    rep.witnesses["comparison"] = "cross-multiplied polynomial equality"
    if not rf_equal(form, product):
        _fail(rep, "closed forms differ as rational functions")


def _run_supercommutativity(model, rep, p) -> None:
    D = p["cutoff"]
    F = _two_point(model, ("z", "w"), 0, 1)
    first, second = ("phi", "psi") if model == "A" else ("phi", "phi")
    s_zw = vev_fermion(VevSpec(model, "fermion", ((first, "z"), (second, "w")), D))
    s_wz = vev_fermion(VevSpec(model, "fermion", ((second, "w"), (first, "z")), D))
    # both fields are odd: the flip map contributes (-1)^{1*1}, so the two
    # orderings must expand one function F with F(z,w) = -F(w,z)
    rep.witnesses["candidate"] = _rational_witness(F)
    rep.witnesses["series_z_w"] = _series_witness(s_zw)
    rep.witnesses["series_w_z"] = _series_witness(s_wz)
    if not rf_equal(_two_point(model, ("z", "w"), 1, 0), -F):  # F(w, z)
        _fail(rep, "candidate is not swap-antisymmetric")
    elif not analytic_continuation_check(s_zw, F):
        _fail(rep, "|z|>>|w| series is not the expansion of F")
    elif not analytic_continuation_check(s_wz, -F):
        _fail(rep, "|w|>>|z| series is not the expansion of -F")


def _run_heisenberg_A(model, rep, p) -> None:
    mmax, grade = p["mmax"], p["grade"]
    rep.params.setdefault("n", mmax)  # JSON reports carry mmax as n
    h = heisenberg_field_A()
    rep.witnesses["relation"] = "[h_m, h_n] = m delta_{m+n,0} on energy2 <= %d" % grade
    for m in range(-mmax, mmax + 1):
        for n in range(-mmax, mmax + 1):
            bad = mode_commutator(h, h, m, n, grade, Rat(m) if m + n == 0 else Rat(0))
            if bad:
                state, residual = bad[0]
                return _fail(rep, f"(m,n)=({m},{n}) on {state}: residual {residual!r}")


def _run_heisenberg_B(model, rep, p) -> None:
    mmax, grade = p["mmax"], p["grade"]
    rep.params.setdefault("n", mmax)  # JSON reports carry mmax as n
    h = twisted_heisenberg_field_B()
    failures = []
    for m in range(-mmax, mmax + 1, 2):
        for n in range(-mmax, mmax + 1, 2):
            bad = mode_commutator(h, h, m, n, grade, Fraction(m, 2) if m + n == 0 else Rat(0))
            if bad:
                failures.append(f"(m,n)=({m},{n}) on {bad[0][0]}")
    for m in range(-mmax + 1, mmax, 2):  # even mode labels vanish identically
        k = h.mode_zpow(m)
        for s in graded_basis("B", grade):
            if any(x for _, x in h.row(k, s)):
                failures.append(f"h_{m} != 0 on {s}")
                break
    rep.witnesses["relation"] = (
        "[h_m, h_n] = (m/2) delta_{m+n,0} for odd m, n and h_even = 0 on degree <= %d" % grade
    )
    if failures:
        _fail(rep, failures[0])


def character_oracle(model: str, charge: int, dmax: int):
    """Graded dimensions and their partition oracle: F_A at ``charge`` up to
    energy2 charge^2 + 2*dmax, where energy2 charge^2 + 2d has dimension
    p(d), or F_B up to degree dmax, where degree d has dimension 2 * (odd
    partitions of d).  Returns (grade label, top grade, {grade: dim},
    {grade: oracle dim})."""
    if model == "A":
        q2 = charge * charge
        top = q2 + 2 * dmax
        return ("energy2", top, dict(character_A(charge, top)),
                {q2 + 2 * d: partition_count(d) for d in range(dmax + 1)})
    return ("degree", dmax, dict(character_B(dmax)),
            {d: 2 * odd_partition_count(d) for d in range(dmax + 1)})


def _run_character(model, rep, p) -> None:
    dmax = p["dmax"]
    rep.params.setdefault("n", dmax)  # JSON reports carry dmax as n
    label, top, table, expected = character_oracle(model, p.get("charge", 0), dmax)
    oracle = "partitions" if model == "A" else "2*odd partitions"
    rep.witnesses["dimensions"] = str(sorted(table.items()))
    rep.witnesses["oracle"] = str(sorted(expected.items()))
    for g in range(top + 1):
        if table.get(g, 0) != expected.get(g, 0):
            return _fail(rep, f"{label}={g}: dim {table.get(g, 0)} vs {oracle} {expected.get(g, 0)}")


def _run_ope_residues(model, rep, p) -> None:
    grade = p["grade"]
    problems = []

    fa = _two_point("A", ("z", "w"), 0, 1)  # 1/(z-w)
    res_a = residue_at(fa, 0, 1, 1, 0)
    rep.witnesses["type_A_residue"] = _rational_witness(res_a)
    if not (res_a == RationalFn.const(fa.alphabet, 1)):
        problems.append("Res_{z=w} of the type A two-point function is not 1")

    fb = _two_point("B", ("z", "w"), 0, 1)  # (z-w)/(z+w)
    res_b = residue_at(fb, 0, -1, 1, 0)
    rep.witnesses["type_B_residue"] = _rational_witness(res_b)
    minus_2w = RationalFn.from_poly(MultiPoly.var(fb.alphabet, 1).scale(-2))
    if not (res_b == minus_2w):
        problems.append("Res_{z=-w} of the type B two-point function is not -2w")
    else:
        shifted = MultiPoly(fb.alphabet, {(e[0], e[1] - 1): c for e, c in res_b.num.terms.items()})
        if not (shifted == MultiPoly.const(fb.alphabet, -2)):
            problems.append("w^{-1} shift of the type B residue is not the constant -2")
        rep.witnesses["shifted_residue"] = str(-2)

    # mode level: the z^{-1} coefficient of the (anti)commutator series is the
    # residue of the rational two-point operator, localized at its only pole
    window = grade + 2
    for label, a, b, pole, residue in (("B", phi_B(), phi_B(), 1, -2), ("A", phi_A(), psi_A(), 0, 1)):
        for k in range(-window, window + 1):
            bad = mode_commutator(a, b, -1, k, grade, Rat(residue if k == pole else 0))
            if bad:
                problems.append(f"type {label} mode residue fails at k={k} on {bad[0][0]}")
                break
    if problems:
        _fail(rep, problems[0])


def _summed(row) -> Dict:
    """A row as {state: numerator}, summed per state, zeros dropped."""
    acc: Dict = {}
    for t, x in row:
        acc[t] = acc.get(t, 0) + x
    return {t: x for t, x in acc.items() if x}


def _run_hopf(model, rep, p) -> None:
    window, grade = p["window"], p["grade"]
    problems = []
    cases = [
        (phi_A(), VACUUM_A, FermionStateA((0,), ())),
        (psi_A(), VACUUM_A, FermionStateA((), (0,))),
        (phi_B(), VACUUM_B, FermionStateB((0,))),
    ]
    for base, vacuum, created in cases:
        # D and T keep the denominator, so the rows compare as numerators
        tt, dt, td = (act_hopf(word, base) for word in ("TT", "DT", "TD"))
        basis = graded_basis(base.space, grade)
        for k in range(-window, window + 1):
            for s in basis:
                if _summed(tt.row(k, s)) != _summed(base.row(k, s)):
                    problems.append(f"T^2 != id for {base.name} at z^{k}")
                    break
                if _summed([*dt.row(k, s), *td.row(k, s)]):
                    problems.append(f"DT != -TD for {base.name} at z^{k}")
                    break
        # vacuum and modified creation: a(z)|0> is regular at z=0 and its
        # value there is the projected state pi_f(a)
        for k in range(-window, 0):
            if _summed(base.row(k, vacuum)):
                problems.append(f"{base.name}(z)|0> has a negative z-power {k}")
        if _summed(base.row(0, vacuum)) != {created: base.den}:
            problems.append(f"{base.name}(z)|0> at z=0 is not the projected state")
    # T phi_B projects where phi_B does
    tphi = act_hopf("T", phi_B())
    if _summed(tphi.row(0, VACUUM_B)) != {FermionStateB((0,)): tphi.den}:
        problems.append("T phi_B creation value differs from phi_B")
    if problems:
        _fail(rep, problems[0])
    rep.witnesses["relations"] = "T^2 = 1, DT = -TD, vacuum regularity, creation values"


# -- the check table ------------------------------------------------------------

DEFAULT_CUTOFF = 10
QUICK_CUTOFF = 6  # --quick caps the cutoff of every check at this

# the least value of each size at which a check still tests something
MIN_SIZES = {"n": 1, "cutoff": 1, "grade": 0, "dmax": 0, "mmax": 1, "window": 1}


@dataclass(frozen=True)
class Check:
    """One named check.

    ``target`` is its ``bfcorr verify`` target and ``model`` is 'A', 'B'
    or 'AB' (one check covering both).  ``run(model, report, params)``
    records the verdict and witnesses on the report.  ``sizes`` are the
    full default sizes, which hold ``cutoff`` when the check uses one;
    ``quick`` are the sizes under ``--quick``, which caps the cutoff at
    QUICK_CUTOFF instead.  A check takes ``--n`` exactly when its sizes hold
    ``n``; type B sizes count points, so ``n`` is 2x the CLI's ``--n``.
    """

    name: str
    target: str
    model: str
    run: Callable[[str, IdentityReport, Dict], None]
    sizes: Dict
    quick: Dict


# rows in the order of the verify targets; reports come out sorted by name
CHECKS = (
    Check("cauchy", "cauchy", "A", _run_closed_forms, {"n": 3}, {"n": 2}),
    Check("schur-pfaffian", "schur-pfaffian", "B", _run_closed_forms, {"n": 4}, {"n": 2}),
    Check("vev-match-A", "vev-match", "A", _series_check(_vev_match_pairs),
          {"n": 2, "cutoff": DEFAULT_CUTOFF}, {"n": 2}),
    Check("vev-match-B", "vev-match", "B", _series_check(_vev_match_pairs),
          {"n": 4, "cutoff": DEFAULT_CUTOFF}, {"n": 2}),
    Check("det-formula-A", "det-formula", "A", _series_check(_mode_pairs),
          {"n": 2, "cutoff": DEFAULT_CUTOFF}, {"n": 2}),
    Check("pf-formula-B", "pf-formula", "B", _series_check(_mode_pairs),
          {"n": 4, "cutoff": DEFAULT_CUTOFF}, {"n": 2}),
    Check("product-formula-A", "product-formula", "A", _series_check(_product_pairs),
          {"n": 2, "cutoff": DEFAULT_CUTOFF}, {"n": 2}),
    Check("product-formula-B", "product-formula", "B", _series_check(_product_pairs),
          {"n": 4, "cutoff": DEFAULT_CUTOFF}, {"n": 2}),
    Check("supercommutativity-A", "supercommutativity", "A", _run_supercommutativity,
          {"cutoff": DEFAULT_CUTOFF}, {}),
    Check("supercommutativity-B", "supercommutativity", "B", _run_supercommutativity,
          {"cutoff": DEFAULT_CUTOFF}, {}),
    Check("heisenberg-from-fermions-A", "heisenberg", "A", _run_heisenberg_A,
          {"mmax": 5, "grade": 12}, {"mmax": 3, "grade": 8}),
    Check("twisted-heisenberg-from-fermions-B", "heisenberg", "B", _run_heisenberg_B,
          {"mmax": 7, "grade": 10}, {"mmax": 5, "grade": 8}),
    Check("character-A", "character", "A", _run_character,
          {"dmax": 12, "charge": 0}, {"dmax": 8, "charge": 0}),
    Check("character-B", "character", "B", _run_character, {"dmax": 20}, {"dmax": 12}),
    Check("ope-residues", "ope-residues", "AB", _run_ope_residues, {"grade": 8}, {"grade": 6}),
    Check("hopf-relations", "hopf", "AB", _run_hopf,
          {"grade": 8, "window": 6}, {"grade": 6, "window": 6}),
)

_BY_NAME = {check.name: check for check in CHECKS}
CHECK_NAMES = tuple(sorted(_BY_NAME))


def check_identity(name: str, params: Optional[Dict] = None) -> IdentityReport:
    """Run one named check and report pass/fail with witnesses.

    Sizes missing from ``params`` are the check's full sizes in CHECKS.  A
    name outside the check's sizes, ``cutoff`` and ``seed`` (so a misspelt
    size cannot run at its default), a size below its MIN_SIZES value
    (where the check would pass with nothing tested) or an odd number of
    type B points raises ValueError.
    """
    check = _BY_NAME.get(name)
    if check is None:
        raise ValueError(f"unknown check name {name!r}")
    unknown = sorted(set(params or {}) - set(check.sizes) - {"cutoff", "seed"})
    if unknown:
        raise ValueError(f"{name} takes no parameter {', '.join(unknown)}")
    params = {**check.sizes, **(params or {})}
    for key, least in MIN_SIZES.items():
        if params.get(key, least) < least:
            raise ValueError(f"{key} must be >= {least}, got {params[key]}")
    if check.model == "B" and params.get("n", 0) % 2:
        raise ValueError("type B checks need an even number of points")
    model = {} if check.model == "AB" else {"model": check.model}
    report = IdentityReport(name, {**model, **params}, "pass")
    t0 = time.perf_counter()
    check.run(check.model, report, params)
    report.elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return report
