"""Vacuum expectation values on both sides of the correspondences, their
Wick and product forms, and the named identity checks.

``OPERATORS`` maps each (model, side) to its vacuum and the operator of
each word symbol: the Clifford fields phi_A, psi_A, phi_B and Tphi =
phi_B(-z) = (T phi_B)(z), or the vertex operators e^{+-alpha}(z) (type A)
and e^alpha(+-z) (type B).  Both VEV engines keep the exponents of the
word's positions apart: the fermion sweep meets in the middle
(``vev_fermion``), and the boson sweep runs each vertex operator once per
distinct partial state up to scale, one ``boson.vertex_terms`` call on
the list of them per step, shared by every prefix of exponents that
reaches a multiple of it (``_boson_series``).

Every series is keyed by packed ints (``poly.Codec``), and the engines
build their keys packed: position k's exponent m adds m * 2^(w(n-1-k)),
entry 0 the most significant digit, where w = (nD).bit_length() + 1 for n
positions at cutoff D.  An engine entry lies in [-D, D] and a box entry
in [-D, nD], both inside the digit range [-2^(w-1), 2^(w-1)), so no digit
carries into another.  Keys order as their tuples do lexicographically,
so witness texts and first differences are those of tuple keys.

``_sides`` gives the four sides of <0| word |0> for a fermion word, in
comparison order: ``fermion_vev``, the fermion sweep; ``boson_vev``, the
boson sweep on the word's image, each fermion symbol mapped to the boson
symbol at its place in OPERATORS; ``wick_form``, the Pfaffian of the
word's paired two-point functions (``_wick_pairs``), which
``matrices.pf_expansion`` runs on integer entrywise expansions (region
expansion is a ring homomorphism, and each term of the expansion touches
disjoint variable pairs, so entry truncation at the box bound is exact);
and ``product_form``, the expanded ``_product_form``.  Each series row of
CHECKS names the sides it compares on the standard word, with their
witness labels; the locality rows compare all four on every word.  A
runner records its witnesses, then returns ``_fail`` at its first failure.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations, permutations, product
from math import gcd
from typing import Callable, Dict, List, Optional, Tuple

# vertex_A is bound here only for the benchmark's tracer test
# (perfbench/test_perfbench.py), which looks for it in this module
from .boson import BOSON_VACUUM_A, BOSON_VACUUM_B, vertex_A, vertex_op_A, vertex_op_B, vertex_terms
from .fields import (
    act_hopf,
    heisenberg_field_A,
    mode_commutator,
    phi_A,
    phi_B,
    psi_A,
    residuals,
    twisted_heisenberg_field_B,
)
from .fock import (
    VACUUM_A,
    VACUUM_B,
    FermionStateA,
    FermionStateB,
    character_A,
    character_B,
)
from .matrices import pf_expansion, pfaffian
from .partitions import odd_partition_count, partition_count
from .poly import MultiPoly, collect, frame_codec, mac
from .ratfun import RationalFn, diff_factor, residue_at, rf_equal, sum_factor
from .series import LaurentSeries, expand
from .textio import format_rational, format_series


# (model, side) -> (vacuum, {symbol: operator}), the two sides of a model
# listing matching symbols in one order: type B 'Tphi' = phi(-z) is the
# fermion image of '-' = e^alpha(-z) = e^{-alpha}(z)
OPERATORS = {
    ("A", "fermion"): (VACUUM_A, {"phi": phi_A(), "psi": psi_A()}),
    ("B", "fermion"): (VACUUM_B, {"phi": phi_B(), "Tphi": act_hopf("T", phi_B())}),
    ("A", "boson"): (BOSON_VACUUM_A, {"+": vertex_op_A(1), "-": vertex_op_A(-1)}),
    ("B", "boson"): (BOSON_VACUUM_B, {"+": vertex_op_B(1), "-": vertex_op_B(-1)}),
}


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
        side = OPERATORS.get((self.model, self.side))
        if side is None:
            raise ValueError(f"unknown model/side {self.model!r}/{self.side!r}")
        for sym, _ in self.word:
            if sym not in side[1]:
                raise ValueError(f"type {self.model} {self.side} words take {tuple(side[1])}, not {sym!r}")
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


def vev_fermion(spec: VevSpec) -> LaurentSeries:
    """<0| word |0> as a Laurent series in the word-order expansion region.

    The word's fields X_0 .. X_{n-1}, read from OPERATORS, are unary
    Clifford fields with denominator 1 (phi_A, psi_A, phi_B or Tphi =
    phi_B(-z)), so a monomial maps a basis state to a multiple of one basis
    state.  Each runs its row over one mode range, the box exponents
    -cutoff .. cutoff.  The word meets in the middle at h = n // 2:

    - the right half runs X_{n-1} .. X_h on the vacuum, right to left, over
      tables {middle state s: {packed exponents of positions h .. n-1:
      coefficient}};
    - the left half is L(k, s) = <0| X_0 .. X_{k-1} |s> as {packed exponents
      of positions 0 .. k-1: coefficient}, memoized per (k, s);
    - the join adds keys of L(h, s) to keys of s's table and multiplies
      their coefficients, only for the pairs whose sum is in the box.

    A field's mode m at position j adds m times the position's weight in
    the frame's codec, so a key is the packed exponent tuple with zeros at
    the positions not yet run.

    The join tests the box once per middle state s, not per key.  The meet
    point h is the codec's cut n // 2, so a joined key p + q holds p's
    entries on the first half and q's on the second, and its box value is
    x + y, x the first-half value of p and y the second-half value of q
    (``half_box``): p + q is in the box iff -D <= x + y <= D.  An engine
    entry lies in [-D, D], so a half's value is the sum of its entries.
    Each mode changes the grade by a fixed amount per mode index: energy2
    by 2m + 1 for phi_m and psi_m on F_A, the degree by m for phi_m on F_B
    (Tphi's row at z^m is +-phi_m).  So every suffix of s's table, whose
    fields take the vacuum to s, has entries summing to (energy2(s) -
    (n - h)) / 2 (type A) or degree(s) (type B), and every prefix of
    L(h, s), whose fields take s back to the vacuum, to -(energy2(s) +
    h) / 2 or -degree(s).  The keys of each half thus share one value, read
    off one key, and s's pairs are joined whole if x + y lies in [-D, D]
    and skipped otherwise: every key the join makes is in the box, and
    every key of the box the pair of halves can make is made.  Its
    coefficient is a product of nonzero ints, so it is nonzero.

    X_j adds or removes one mode and j fields stand to its left, so a state
    X_j reaches is kept only if its mode count is at most j, on both
    halves.  A full exponent tuple fixes every intermediate state, so no two
    entries of a table or of the join share a key and nothing is summed.
    """
    if spec.side != "fermion":
        raise ValueError("spec.side must be 'fermion'")
    D, (vacuum, table) = spec.cutoff, OPERATORS[spec.model, spec.side]
    rows = [table[sym].row for sym, _ in spec.word]
    modes = range(D, -D - 1, -1)

    def step(j, s):
        """(m, t, c): X_j's row on s at every mode m, to the states t kept."""
        row = rows[j]
        return [(m, t, c) for m in modes for t, c in row(m, s) if sum(map(int.bit_count, t)) <= j]

    codec = frame_codec(len(rows), D)
    h, weights = codec.cut, codec.weights
    right = {vacuum: {0: 1}}
    for j in range(len(rows) - 1, h - 1, -1):
        new: Dict = {}
        for s, suffixes in right.items():
            for m, t, c in step(j, s):
                m *= weights[j]
                new.setdefault(t, {}).update({m + p: c * v for p, v in suffixes.items()})
        right = new

    @lru_cache(maxsize=None)
    def left(k, s):
        if not k:
            return {0: 1} if s == vacuum else {}
        out = {}
        for m, t, c in step(k - 1, s):
            m *= weights[k - 1]
            out.update({p + m: a * c for p, a in left(k - 1, t).items()})
        return out

    terms = {}
    for s, suffixes in right.items():
        if heads := left(h, s):
            x, y = codec.half_box(next(iter(heads)))[0], codec.half_box(next(iter(suffixes)))[1]
            if -D <= x + y <= D:
                terms.update({p + q: a * v for p, a in heads.items() for q, v in suffixes.items()})
    # free both halves first, so that only the terms are held
    del right
    left.cache_clear()
    return LaurentSeries._in_box(spec.variables, D, terms)


def vev_boson(spec: VevSpec) -> LaurentSeries:
    """Composite vertex-operator VEV, truncated term by term.

    The sweep keeps each partial state as an integer scale times a shared
    vector, and runs each vertex operator once per distinct vector up to
    scale, which is exact since the operators are linear (see
    ``_boson_series``).  A spec is computed once per process; each call
    returns a fresh series.
    """
    if spec.side != "boson":
        raise ValueError("spec.side must be 'boson'")
    series = _boson_series(spec)
    return LaurentSeries._in_box(series.ordering, series.cutoff, dict(series.terms))


# the most creation updates one boson sweep step may make, about 1 s and
# 50 MiB (Python 3.11 on one Xeon core): the standard type A word of 3 pairs
# at cutoff 8 peaks at 117,538, and 4 pairs at cutoff 10 would make 561,243
# in its third step and 3,954,102 in its fourth
MAX_STEP_UPDATES = 10 ** 6
# the most prefixes one boson sweep step may take in, each holding one
# (scale, vector id): the sweep up to a step taking in 1,048,576 took 0.6 s
# and peaked at 209 MiB (Python 3.11 on one Xeon core).  The standard type A
# word of 3 pairs at cutoff 8 takes in at most 4,500, while type B at 30
# points and cutoff 1 doubles its prefixes every step and would take in
# 1,048,576 at step 21
MAX_STEP_TERMS = 10 ** 6


@lru_cache(maxsize=8)
def _boson_series(spec: VevSpec) -> LaurentSeries:
    """The VEV behind ``vev_boson``; the last few specs stay cached, since
    checks such as product-formula and vev-match ask for the same one.

    The sweep runs the word right to left.  A prefix is the packed key of
    the z-exponents of the operators run so far, and it holds one (integer
    scale, form id): its partial state is the scale times the form, a
    primitive vector {state: numerator} over the sweep's common denominator
    (its numerators have gcd 1, and the one at its least state is
    positive).  No two forms are equal, and the prefixes are kept per form,
    as {prefix: scale}.  Each word step runs ``vertex_terms`` once on the
    forms, capped at the weight the rest of the word can absorb, then
    makes one pass over (prefixes, output buckets) per form: each bucket,
    the form's output at one z-exponent in [-D, D], is reduced to its
    primitive form as it is read, and every prefix of the form, gaining
    the z-exponent times its position's weight, is held by the bucket's
    form in the next step, its scale multiplied by the bucket's gcd and
    sign.  This is exact, because a vertex operator is linear,
    V(g v) = g V(v).

    Two bounds refuse a spec with ValueError, and the cutoff is never
    lowered in their place: a step may not take in more than
    ``MAX_STEP_TERMS`` prefixes, counted from the forms' prefixes and
    buckets before the next step's prefixes are built, and it may not make
    more than ``MAX_STEP_UPDATES`` creation updates.
    """
    D, (vacuum, table) = spec.cutoff, OPERATORS[spec.model, spec.side]
    ops = [table[sym] for sym, _ in spec.word]
    # net weight one operator can absorb: its exponent, shift + created -
    # lowered weight, is >= -D, so it lowers the weight by at most D + shift;
    # the shift is op.split's on the label state the operators to its right
    # leave (sign * charge for type A, 0 for type B)
    absorbs, state = [], vacuum  # indexed right to left
    for op in reversed(ops):
        shift, label = op.split(state)
        absorbs.append(D + shift)
        state = op.make(label, ())

    def refuse(step: int, what: str) -> None:
        raise ValueError(f"type {spec.model} boson VEV of {len(ops)} vertex operators at "
                         f"{', '.join(spec.variables)}, cutoff {D}: step {step} of {len(ops)} {what}")

    def guard(count: int, step: int) -> None:
        if count > MAX_STEP_UPDATES:
            refuse(step, f"would make {count} creation updates, more than {MAX_STEP_UPDATES}")

    weights = frame_codec(len(ops), D).weights
    # forms[id] is a primitive vector {state: numerator over den}, and
    # groups[id] {packed prefix: integer scale} for the prefixes holding it
    forms, groups, den = [{vacuum: 1}], [{0: 1}], 1
    for step, op in enumerate(reversed(ops), 1):
        d, outs = vertex_terms(op, forms, D, sum(absorbs[step:]), partial(guard, step=step))
        taken = sum(len(group) * len(buckets) for group, buckets in zip(groups, outs))
        if step < len(ops) and taken > MAX_STEP_TERMS:
            refuse(step + 1, f"would take in {taken} prefixes, more than {MAX_STEP_TERMS}")
        weight, form_ids, forms, next_groups = weights[-step], {}, [], []
        for group, buckets in zip(groups, outs):
            for ze, bucket in buckets.items():
                g = gcd(*bucket.values())
                if bucket[min(bucket)] < 0:
                    g = -g
                form = {s: c // g for s, c in bucket.items()}
                i = form_ids.setdefault(frozenset(form.items()), len(forms))
                if i == len(forms):
                    forms.append(form)
                    next_groups.append({})
                next_groups[i].update({prefix + ze * weight: scale * g for prefix, scale in group.items()})
        groups = next_groups
        den *= d
    terms = {prefix: Fraction(scale * form[vacuum], den)
             for form, group in zip(forms, groups) if vacuum in form for prefix, scale in group.items()}
    return LaurentSeries(spec.variables, D, terms)


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
    that is because e^alpha(-z) = e^{-alpha}(z) and K(-x_i, x_j) = 1/K.
    Each linear form x_i +- x_j goes to the numerator or to the
    denominator, never to both."""
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


def _wick_series(spec: VevSpec) -> LaurentSeries:
    """<0| word |0> by Wick's theorem: the Pfaffian over the expansions of
    the word's two-point functions on the cutoff box.  A type B pair of
    phi and Tphi = phi(-z) takes K(x_i, -x_j) = 1/K.

    The expansion runs on the packed keys of the kernels' expansions, in
    the frame's codec of width w = (nD).bit_length() + 1, and ``mac`` adds
    them.  A term of the Pfaffian, and each partial product on the way, is
    a product of kernel terms on disjoint pairs of positions, so each of
    its entries is 0 or the exponent of one kernel term.  A kernel is
    homogeneous of degree -1 (type A) or 0 (type B) in its two variables,
    and ``expand`` keeps each exponent >= -D, so the other one is <= D:
    every entry lies in [-D, D], inside the digit range [-2^(w-1),
    2^(w-1)) since 2^(w-1) > nD >= D, and a sum of keys is the key of the
    entrywise sum.

    The box is tested once, on the total degree.  Every entry of a term
    lies in [-D, D], so the term is in the box iff its total does.  A
    term of the Pfaffian of n positions is a product of n/2 kernel terms,
    one per pair of a perfect matching, and a kernel term's total is read
    from the codec's box tables (``half_box``).  When every kernel term
    has one total d, every term of the Pfaffian has total (n // 2) d, so
    the series is all of ``pf_expansion``'s terms, which ``mac`` keeps
    nonzero, if -D <= (n // 2) d <= D, and none of them otherwise; then the
    Pfaffian is not expanded at all.  (An odd n has no perfect matching,
    and its Pfaffian no term.)  Kernels of more than one total go through
    the constructor's per-key test."""
    alpha, D = spec.variables, spec.cutoff
    codec = frame_codec(len(alpha), D)
    m = [[None] * len(alpha) for _ in alpha]  # the expansion reads i < j only
    totals = set()
    for i, j in _wick_pairs(spec):
        kernel = _two_point(spec.model, alpha, i, j)
        if spec.model == "B" and spec.word[i][0] != spec.word[j][0]:
            kernel = kernel.substitute(j, j, -1)
        m[i][j] = expand(kernel, alpha, D).terms
        totals.update(sum(codec.half_box(k)) for k in m[i][j])
    if len(totals) > 1:
        return LaurentSeries(alpha, D, pf_expansion(m, {0: 1}, dict, mac))
    kept = -D <= len(alpha) // 2 * next(iter(totals), 0) <= D
    return LaurentSeries._in_box(alpha, D, pf_expansion(m, {0: 1}, dict, mac) if kept else {})


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


def _difference(label_l: str, label_r: str, lhs: LaurentSeries, rhs: LaurentSeries) -> str:
    """Where two unequal series first differ, and their two coefficients there."""
    e = lhs.first_difference(rhs)
    key = lhs.codec.pack(e)
    return (f"{label_l} vs {label_r} at {_monomial_text(lhs.ordering, e)}: "
            f"{lhs.terms.get(key, 0)} vs {rhs.terms.get(key, 0)}")


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
            return _fail(report, _difference(label_l, label_r, lhs, rhs))


def _sides(spec: VevSpec) -> Dict[str, Callable[[], LaurentSeries]]:
    """The four sides of <0| word |0> for a fermion spec, in comparison
    order, as thunks that look their engines up by module-level name when
    called, so a caller that swaps those names sees every call."""
    image = dict(zip(OPERATORS[spec.model, "fermion"][1], OPERATORS[spec.model, "boson"][1]))
    boson = VevSpec(spec.model, "boson", tuple((image[s], v) for s, v in spec.word), spec.cutoff)
    return {"fermion_vev": lambda: vev_fermion(spec),
            "boson_vev": lambda: vev_boson(boson),
            "wick_form": lambda: _wick_series(spec),
            "product_form": lambda: expand(_product_form(spec), spec.variables, spec.cutoff)}


def _series_check(first, *others):
    """Runner of a series check on the standard word: its side ``first``
    against each side of ``others``, every side a (side, witness label)."""
    def run(model, rep, p):
        sides = _sides(VevSpec.standard(model, "fermion", p["n"], p["cutoff"]))
        lhs = sides[first[0]]()
        _compare_series(rep, [(first[1], label, lhs, sides[side]()) for side, label in others])
    return run


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


def _locality_words(model: str, n: int) -> List[Tuple[str, ...]]:
    """The symbol sequences of the locality checks: every charge-neutral
    sequence of n pairs (type A) or every phi/Tphi pattern of n points
    (type B).  Renaming the variables takes any region order of a word to
    one of these, so the set covers every ordering."""
    plus, minus = OPERATORS[model, "fermion"][1]
    if model == "A":
        return sorted(set(permutations((plus,) * n + (minus,) * n)))
    return list(product((plus, minus), repeat=n))


def _run_locality(model, rep, p) -> None:
    """Twisted locality on all four sides: for every word, with its
    variables named in word order, the four ``_sides`` are one nonzero
    series.  No series is formatted: a failure names the word, the two
    sides and their first difference."""
    D = p["cutoff"]
    words, compared = _locality_words(model, p["n"]), 0
    rep.witnesses["words"] = str(len(words))
    for symbols in words:
        spec = VevSpec(model, "fermion", tuple((sym, f"z{k + 1}") for k, sym in enumerate(symbols)), D)
        (first, fermion_vev), *others = _sides(spec).items()
        fermion = fermion_vev()
        text = " ".join(f"{sym}({var})" for sym, var in spec.word)
        if not fermion.terms:
            return _fail(rep, f"{text}: no terms compared (the fermion VEV is 0 at cutoff {D})")
        for label, side in others:
            if (other := side()) != fermion:
                return _fail(rep, f"{text}: {_difference(first, label, fermion, other)}")
        compared += len(others) * len(fermion.terms)
    rep.witnesses["coefficients"] = str(compared)


def _heisenberg(model: str, mmax: int):
    """The model's Heisenberg field built from fermions, the constant c of
    [h_m, h_-m] = c m and its mode labels in -mmax..mmax: all of them on
    F_A, the odd ones on F_B."""
    modes = range(-mmax, mmax + 1)
    if model == "A":
        return heisenberg_field_A(), 1, modes
    return twisted_heisenberg_field_B(), Fraction(1, 2), [m for m in modes if m % 2]


def _run_heisenberg(model, rep, p) -> None:
    """[h_m, h_n] = c m delta_{m+n,0} for -mmax <= m < n <= mmax: c = 1 on F_A;
    c = 1/2 and only odd labels on F_B, whose even modes h_m must vanish.
    Each pair is bracketed once: one ``mode_commutator`` call composes both
    products on every basis state, the mirror pair (n, m) has the negated
    residual, as both sides are antisymmetric, and m = n compares nothing."""
    mmax, grade = p["mmax"], p["grade"]
    rep.params.setdefault("n", mmax)  # JSON reports carry mmax as n
    h, c, labels = _heisenberg(model, mmax)
    if model == "A":
        rep.witnesses["relation"] = "[h_m, h_n] = m delta_{m+n,0} on energy2 <= %d" % grade
    else:
        rep.witnesses["relation"] = ("[h_m, h_n] = (m/2) delta_{m+n,0} for odd m, n and h_even = 0 "
                                     "on degree <= %d" % grade)
    for m, n in combinations(labels, 2):
        if bad := mode_commutator(h, h, m, n, grade, c * m if m + n == 0 else 0):
            state, residual = bad[0]
            return _fail(rep, f"(m,n)=({m},{n}) on {state}: residual {residual!r}")
    for m in [m for m in range(-mmax, mmax + 1) if m not in labels]:  # the even type B labels
        if bad := residuals(h.space, grade, [(1, ((h, h.mode_zpow(m)),))]):
            return _fail(rep, f"h_{m} != 0 on {bad[0][0]}")


def _run_heisenberg_fermions(model, rep, p) -> None:
    """h acts on the fermions: [h_n, f_k] = sign f_{k-n} for the nonzero
    labels n of ``_heisenberg`` and -window <= k <= window, where f is the
    first fermion field of OPERATORS (phi, sign 1) or the second (psi on
    F_A, Tphi on F_B, sign -1).  Unlike [h_m, h_n], which is quadratic in
    h, this relation sees the sign of h."""
    window, grade = p["window"], p["grade"]
    h, _, labels = _heisenberg(model, p["mmax"])
    (plus, f), (minus, g) = OPERATORS[model, "fermion"][1].items()
    where = "on energy2" if model == "A" else "for odd n on degree"
    rep.witnesses["relation"] = (f"[h_n, {plus}_k] = {plus}_{{k-n}}, [h_n, {minus}_k] = -{minus}_{{k-n}} "
                                 f"{where} <= {grade}")
    cases = [(n, k, sign, sym, field) for n in labels if n for k in range(-window, window + 1)
             for sign, sym, field in ((1, plus, f), (-1, minus, g))]
    rep.witnesses["cases"] = str(len(cases))
    for n, k, sign, sym, field in cases:
        hn = (h, h.mode_zpow(n))
        if bad := residuals(h.space, grade, [(1, (hn, (field, k))), (-1, ((field, k), hn)),
                                             (-sign, ((field, k - n),))]):
            state, residual = bad[0]
            return _fail(rep, f"[h_{n}, {sym}_{k}] on {state}: residual {residual!r}")


# the most states a character enumerates, and the largest |charge| of a type
# A sector (its lowest state has |charge| modes, one recursion level each)
MAX_CHARACTER_STATES = 10 ** 6
MAX_CHARGE = 500


def character_oracle(model: str, charge: int, dmax: int):
    """Graded dimensions and their partition oracle: F_A at ``charge`` up to
    energy2 charge^2 + 2*dmax, where energy2 charge^2 + 2d has dimension
    p(d), or F_B up to degree dmax, where degree d has dimension 2 * (odd
    partitions of d).  Returns (grade label, rows): one row (grade, dim,
    oracle dim) per grade that the table or the oracle holds, ascending,
    with 0 on the side that lacks it; the oracle holds all its dmax + 1
    grades, so a table that lost one fails.  Before enumerating, a type A
    |charge| above MAX_CHARGE or an oracle count above MAX_CHARACTER_STATES
    (summed only until it passes) raises ValueError."""
    where = f"model {model}" + (f", charge {charge}" if model == "A" else "") + f", max {dmax}"
    if model == "A" and abs(charge) > MAX_CHARGE:
        raise ValueError(f"character of {where}: |charge| must be <= {MAX_CHARGE}")
    oracle, count = {}, 0
    for d in range(dmax + 1):
        oracle[d] = partition_count(d) if model == "A" else 2 * odd_partition_count(d)
        count += oracle[d]
        if count > MAX_CHARACTER_STATES:
            raise ValueError(f"character of {where} has over {count} states by grade {d}, "
                             f"more than the {MAX_CHARACTER_STATES} it enumerates")
    if model == "B":
        label, table = "degree", dict(character_B(dmax))
    else:
        q2 = charge * charge
        top = q2 + 2 * dmax
        label, table = "energy2", dict(character_A(charge, top))
        oracle = {q2 + 2 * d: n for d, n in oracle.items()}
    return label, [(g, table.get(g, 0), oracle.get(g, 0)) for g in sorted(table.keys() | oracle.keys())]


def _run_character(model, rep, p) -> None:
    dmax = p["dmax"]
    rep.params.setdefault("n", dmax)  # JSON reports carry dmax as n
    label, rows = character_oracle(model, p.get("charge", 0), dmax)
    oracle = "partitions" if model == "A" else "2*odd partitions"
    rep.witnesses["dimensions"] = str([(g, dim) for g, dim, _ in rows])
    rep.witnesses["oracle"] = str([(g, want) for g, _, want in rows])
    for g, dim, want in rows:
        if dim != want:
            return _fail(rep, f"{label}={g}: dim {dim} vs {oracle} {want}")


def _run_ope_residues(model, rep, p) -> None:
    grade = p["grade"]
    fa = _two_point("A", ("z", "w"), 0, 1)  # 1/(z-w)
    res_a = residue_at(fa, 0, 1, 1)
    rep.witnesses["type_A_residue"] = _rational_witness(res_a)
    fb = _two_point("B", ("z", "w"), 0, 1)  # (z-w)/(z+w)
    res_b = residue_at(fb, 0, -1, 1)
    rep.witnesses["type_B_residue"] = _rational_witness(res_b)
    is_minus_2w = res_b == RationalFn.from_poly(MultiPoly.var(fb.alphabet, 1).scale(-2))
    if is_minus_2w:
        rep.witnesses["shifted_residue"] = "-2"  # the w^{-1} shift of -2w
    if not (res_a == RationalFn.const(fa.alphabet, 1)):
        return _fail(rep, "Res_{z=w} of the type A two-point function is not 1")
    if not is_minus_2w:
        return _fail(rep, "Res_{z=-w} of the type B two-point function is not -2w")

    # mode level: the z^{-1} coefficient of the (anti)commutator series is the
    # residue of the rational two-point operator, localized at its only pole
    window = grade + 2
    for label, a, b, pole, residue in (("B", phi_B(), phi_B(), 1, -2), ("A", phi_A(), psi_A(), 0, 1)):
        for k in range(-window, window + 1):
            if bad := mode_commutator(a, b, -1, k, grade, residue if k == pole else 0):
                return _fail(rep, f"type {label} mode residue fails at k={k} on {bad[0][0]}")


def _run_hopf(model, rep, p) -> None:
    window, grade = p["window"], p["grade"]
    rep.witnesses["relations"] = "T^2 = 1, DT = -TD, vacuum regularity, creation values"
    cases = [
        (phi_A(), VACUUM_A, FermionStateA((0,), ())),
        (psi_A(), VACUUM_A, FermionStateA((), (0,))),
        (phi_B(), VACUUM_B, FermionStateB((0,))),
    ]
    for base, vacuum, created in cases:
        tt, dt, td = (act_hopf(word, base) for word in ("TT", "DT", "TD"))
        for k in range(-window, window + 1):
            if residuals(base.space, grade, [(1, ((tt, k),)), (-1, ((base, k),))]):
                return _fail(rep, f"T^2 != id for {base.name} at z^{k}")
            if residuals(base.space, grade, [(1, ((dt, k),)), (1, ((td, k),))]):
                return _fail(rep, f"DT != -TD for {base.name} at z^{k}")
        # vacuum and modified creation: a(z)|0> is regular at z=0 and its
        # value there is the projected state pi_f(a)
        for k in range(-window, 0):
            if collect(base.row(k, vacuum)):
                return _fail(rep, f"{base.name}(z)|0> has a negative z-power {k}")
        if collect(base.row(0, vacuum)) != {created: base.den}:
            return _fail(rep, f"{base.name}(z)|0> at z=0 is not the projected state")
    # T phi_B projects where phi_B does
    tphi = act_hopf("T", phi_B())
    if collect(tphi.row(0, VACUUM_B)) != {FermionStateB((0,)): tphi.den}:
        return _fail(rep, "T phi_B creation value differs from phi_B")


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
    Check("vev-match-A", "vev-match", "A",
          _series_check(("fermion_vev", "fermion_series"), ("boson_vev", "boson_series")),
          {"n": 2, "cutoff": DEFAULT_CUTOFF}, {"n": 2}),
    Check("vev-match-B", "vev-match", "B",
          _series_check(("fermion_vev", "fermion_series"), ("boson_vev", "boson_series"),
                        ("wick_form", "pfaffian_series")),
          {"n": 4, "cutoff": DEFAULT_CUTOFF}, {"n": 4}),
    Check("det-formula-A", "det-formula", "A",
          _series_check(("fermion_vev", "mode_series"), ("wick_form", "determinant_series")),
          {"n": 2, "cutoff": DEFAULT_CUTOFF}, {"n": 2}),
    Check("pf-formula-B", "pf-formula", "B",
          _series_check(("fermion_vev", "mode_series"), ("wick_form", "pfaffian_series")),
          {"n": 4, "cutoff": DEFAULT_CUTOFF}, {"n": 4}),
    Check("product-formula-A", "product-formula", "A",
          _series_check(("boson_vev", "vertex_series"), ("product_form", "product_series")),
          {"n": 2, "cutoff": DEFAULT_CUTOFF}, {"n": 2}),
    Check("product-formula-B", "product-formula", "B",
          _series_check(("boson_vev", "vertex_series"), ("product_form", "product_series")),
          {"n": 4, "cutoff": DEFAULT_CUTOFF}, {"n": 4}),
    Check("supercommutativity-A", "supercommutativity", "A", _run_supercommutativity,
          {"cutoff": DEFAULT_CUTOFF}, {}),
    Check("supercommutativity-B", "supercommutativity", "B", _run_supercommutativity,
          {"cutoff": DEFAULT_CUTOFF}, {}),
    Check("locality-A", "locality", "A", _run_locality,
          {"n": 2, "cutoff": DEFAULT_CUTOFF}, {"n": 2}),
    Check("locality-B", "locality", "B", _run_locality,
          {"n": 4, "cutoff": DEFAULT_CUTOFF}, {"n": 4}),
    Check("heisenberg-from-fermions-A", "heisenberg", "A", _run_heisenberg,
          {"mmax": 5, "grade": 12}, {"mmax": 3, "grade": 8}),
    Check("twisted-heisenberg-from-fermions-B", "heisenberg", "B", _run_heisenberg,
          {"mmax": 7, "grade": 10}, {"mmax": 5, "grade": 8}),
    Check("heisenberg-fermions-A", "heisenberg-fermions", "A", _run_heisenberg_fermions,
          {"mmax": 3, "window": 6, "grade": 10}, {"mmax": 3, "window": 5, "grade": 8}),
    Check("heisenberg-fermions-B", "heisenberg-fermions", "B", _run_heisenberg_fermions,
          {"mmax": 5, "window": 6, "grade": 10}, {"mmax": 5, "window": 5, "grade": 8}),
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
