"""Field objects: operator-valued series given by their rows, the Hopf
generator actions D = d/dz and T_{-1}: z -> -z, quadratic normal ordered
products, the Heisenberg fields built from fermions and ``residuals``.

A Field is its rows.  The row of z^k at a basis state s,
``field.row(k, s)``, lists (state, numerator) pairs: integer numerators
over the field's one common denominator ``field.den``, so the z^k
coefficient sends s to sum (numerator/den) * state.  The rows of the free
fermions are fock's basis-state Clifford actions.  D, T and scalar
multiples are the only rules that transform rows.  ``act_hopf`` applies a
word in D and T letter by letter; words have no normal form here, so
T^2 = 1 and DT = -TD are what the ``hopf-relations`` check tests on the
rows, not rules the code assumes.  A quadratic normal ordered product
:a b: composes the rows of its two factors and subtracts the vacuum
pairing read off the same rows, so no ``Fraction`` is made while rows are
built or composed.  It keeps each row it builds and, per state s, an entry
with s's mode lists and the rows b_k(s) of its b-factor built so far: a
Clifford row is a pure function of (k, s), so one b_k(s) serves the rows
of every z-power that needs it.  Rows and entries live as long as the
field.  ``coeff(k)`` is the linear extension of the rows of z^k to
FockVectors, ``v.apply(row at k)`` over ``den``.

Every operator identity is one rule, ``residuals``: a sum c * word of row
compositions, run on each basis state up to a grade.  ``mode_commutator`` is
the bracket combination; h_even = 0, T^2 = 1 and DT = -TD are sums too.

``mode(n)`` is ``coeff`` at the z-power ``mode_zpow(n)``, the field's one
mode-label map, which D, T and scaling keep: PositivePower a(z) = sum a_n
z^n for the free fermions, StandardVA a(z) = sum a_(n) z^{-n-1} for the
quadratic fields, h_m at z^{-m} for the twisted Heisenberg field.

A unary Clifford field is tagged ``clifford = (family, shift)``: its z^k
coefficient is a multiple of the mode X_{k+shift} of family 'phiA', 'psiA'
or 'phiB'.  Normal ordering reads the tag only to know which mode indices
can act on a state; the multiples are in the rows.  Quadratic normal
ordering is defined by vacuum subtraction :a_j b_k: = a_j b_k -
<0|a_j b_k|0>, which for free fields agrees with the annihilation-right
convention and keeps every mode a finite sum on graded vectors.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .fock import (
    VACUUM_A,
    VACUUM_B,
    FockVector,
    _apply_phi_A,
    _apply_phi_B,
    _apply_psi_A,
    _bits,
    states_A,
    states_B,
)

# Not called here: rows come from the basis-state actions above.  The
# benchmark's tracer tests (perfbench/test_perfbench.py) still look the
# FockVector-level actions up in this module.
from .fock import apply_mode_A, apply_mode_B  # noqa: F401
from .poly import Rat, exact

Operator = Callable[[FockVector], FockVector]
Row = Sequence[Tuple[object, int]]

# the mode-label maps of a(z) = sum_n a_n z^n and a(z) = sum_n a_(n) z^{-n-1}
_POSITIVE, _STANDARD = (lambda n: n), (lambda n: -n - 1)


class Field:
    """Immutable descriptor of an operator-valued formal series: its rows,
    its mode-label map and, for a unary Clifford field, its ``clifford``
    tag (None for any other field)."""

    def __init__(
        self,
        name: str,
        space: str,
        parity: int,
        mode_zpow: Callable[[int], int],
        row: Callable[[int, object], Row],
        den: int = 1,
        clifford: Optional[Tuple[str, int]] = None,
    ):
        self.name = name
        self.space = space
        self.parity = parity
        self.mode_zpow = mode_zpow
        self.row = row
        self.den = den
        self.clifford = clifford

    def coeff(self, k: int) -> Operator:
        """Operator coefficient of z^k (independent of the mode labels)."""
        row, scale = self.row, Rat(1, self.den)
        return lambda v: v.apply(lambda s: row(k, s)).scale(scale)

    def mode(self, n: int) -> Operator:
        """Operator for mode label n."""
        return self.coeff(self.mode_zpow(n))

    def scaled(self, c) -> "Field":
        c = exact(c)
        p, q = c.numerator, c.denominator
        row = self.row
        if p != 1:
            row = lambda k, s, row=row: [(t, p * x) for t, x in row(k, s)]
        return Field(self.name, self.space, self.parity, self.mode_zpow,
                     row, self.den * q, self.clifford)


def phi_A() -> Field:
    return Field("phi", "A", 1, _POSITIVE, _apply_phi_A, clifford=("phiA", 0))


def psi_A() -> Field:
    return Field("psi", "A", 1, _POSITIVE, _apply_psi_A, clifford=("psiA", 0))


def phi_B() -> Field:
    return Field("phi", "B", 1, _POSITIVE, _apply_phi_B, clifford=("phiB", 0))


# -- Hopf algebra action ------------------------------------------------------


def _apply_D(a: Field) -> Field:
    row = a.row
    clifford = a.clifford and (a.clifford[0], a.clifford[1] + 1)
    return Field(f"D({a.name})", a.space, a.parity, a.mode_zpow,
                 lambda k, s: [(t, (k + 1) * x) for t, x in row(k + 1, s)], a.den, clifford)


def _apply_T(a: Field) -> Field:
    row = a.row
    return Field(f"T({a.name})", a.space, a.parity, a.mode_zpow,
                 lambda k, s: [(t, -x) for t, x in row(k, s)] if k % 2 else row(k, s),
                 a.den, a.clifford)


def act_hopf(word: str, a: Field) -> Field:
    """Apply a word in the generators D = d/dz and T: z -> -z to a field,
    one letter at a time, the rightmost first: "DT" gives D(T(a)).  Words
    are not brought to a normal form, so T^2 = 1 and DT = -TD hold only as
    far as the rows of D and T make them hold."""
    for letter in reversed(word):
        if letter == "D":
            a = _apply_D(a)
        elif letter == "T":
            a = _apply_T(a)
        else:
            raise ValueError(f"unknown generator {letter!r}")
    return a


# -- quadratic normal ordering ------------------------------------------------


def _candidates(families: Tuple[str, str], ksum: int, modes: Tuple[Tuple[int, ...], ...]) -> List[int]:
    """Underlying b-indices beta for which :a_(ksum-beta) b_beta: can act on
    the state whose decreasing mode lists, one per mask, are ``modes``."""
    fa, fb = families
    cand = set(range(0, max(ksum, -1) + 1 if fa != "phiB" else max(ksum, 0) + 1))
    if fa == "phiB":
        for n in modes[0]:
            if ksum + n >= 0:
                cand.add(ksum + n)
            cand.add(-n)
    else:
        phis, psis = modes
        if fb == "phiA":
            phis, psis = psis, phis  # mirror roles for :psi phi:
        for q in psis:
            if ksum + 1 + q >= 0:
                cand.add(ksum + 1 + q)
        for p in phis:
            cand.add(-1 - p)
    return sorted(cand)


def normal_ordered_quadratic(a: Field, b: Field) -> Field:
    """The field with z-power coefficients sum_{j+k=K} :a_j b_k:.

    The row at (K, s) sums a's rows on the images b_k(s) over the
    candidate b-indices of ``_candidates`` and subtracts the vacuum
    pairings.  The field keeps, next to each row it built, one entry per
    state s: s's decreasing mode lists, which ``_candidates`` reads, and
    each row b_k(s) built so far, keyed by its z-power k.  A Clifford row
    is a pure function of (k, s), so reusing b_k(s) for every K is exact;
    the vacuum pairings read b's rows on the vacuum from its entry too.
    a's rows, one Clifford action each, are not kept: a dict of them
    measured slower than the actions.  Rows and entries live as long as
    the field."""
    if a.space != b.space:
        raise ValueError("fields act on different spaces")
    if a.clifford is None or b.clifford is None:
        raise ValueError("quadratic normal ordering needs unary Clifford fields")
    (fa, shift_a), (fb, shift_b) = a.clifford, b.clifford
    if (fa, fb) not in (("phiA", "psiA"), ("psiA", "phiA"), ("phiB", "phiB")):
        raise ValueError(f"unsupported quadratic pair {(fa, fb)}")
    arow, brow = a.row, b.row
    vacuum = VACUUM_A if a.space == "A" else VACUUM_B
    cache: Dict = {}
    entries: Dict = {}  # state -> (its mode lists, {z-power: b's row there})

    def entry(s):
        got = entries.get(s)
        if got is None:
            got = entries[s] = (tuple(map(_bits, s)), {})
        return got

    def b_row(brows: Dict, kb: int, s) -> Row:
        """b's row at (kb, s) from s's entry ``brows``, built on first use."""
        got = brows.get(kb)
        if got is None:
            got = brows[kb] = brow(kb, s)
        return got

    vacuum_brows = entry(vacuum)[1]

    @lru_cache(maxsize=None)
    def vev_pair(ka: int, kb: int) -> int:
        """<0| a_ka b_kb |0> at z-powers ka, kb, read off the rows."""
        return sum(x * y for t, x in b_row(vacuum_brows, kb, vacuum) for u, y in arow(ka, t) if u == vacuum)

    def row(K: int, s) -> Row:
        got = cache.get((K, s))
        if got is None:
            modes, brows = entry(s)
            acc: Dict = {}
            for beta in _candidates((fa, fb), K + shift_a + shift_b, modes):
                kb = beta - shift_b
                ka = K - kb
                for t, x in b_row(brows, kb, s):
                    for u, y in arow(ka, t):
                        acc[u] = acc.get(u, 0) + x * y
                pair = vev_pair(ka, kb)
                if pair:
                    acc[s] = acc.get(s, 0) - pair
            got = cache[(K, s)] = [(u, x) for u, x in acc.items() if x]
        return got

    return Field(f":{a.name}{b.name}:", a.space, (a.parity + b.parity) % 2,
                 _STANDARD, row, a.den * b.den)


def heisenberg_field_A() -> Field:
    """h(z) = :phi(z)psi(z): on F_A, modes h_n at z^{-n-1}."""
    return normal_ordered_quadratic(phi_A(), psi_A())


def twisted_heisenberg_field_B() -> Field:
    """h(z) = (1/4):phi(z)phi(-z): on F_B, odd modes h_m at z^{-m}."""
    phi = phi_B()
    h = normal_ordered_quadratic(phi, act_hopf("T", phi)).scaled(Fraction(1, 4))
    return Field("h_B", h.space, 0, lambda m: -m, h.row, h.den)


@lru_cache(maxsize=16)
def graded_basis(space: str, grade: int) -> Tuple:
    """The basis states of F_A (energy2 <= grade) or F_B (degree <= grade),
    enumerated once per (space, grade)."""
    return tuple(states_A(grade) if space == "A" else states_B(grade))


def residuals(space: str, grade: int, combination) -> List[Tuple[object, FockVector]]:
    """Residuals of sum c * word over (c, word) in ``combination`` on the
    basis states of ``space`` up to ``grade``: (state, sum as a FockVector)
    where the sum is not zero, in basis order (empty list = identity holds).
    A word ((field, z-power), ...) composes rows rightmost first, every
    field acting on ``space``; the empty word is the identity.  Terms are
    integer numerators over one common denominator until a residual."""
    terms = []
    for c, word in combination:
        if any(f.space != space for f, _ in word):
            raise ValueError("fields act on different spaces")
        c = exact(c)
        terms.append((c.numerator, c.denominator * prod(f.den for f, _ in word), word))
    den = lcm(*(d for _, d, _ in terms))
    # empty words start the accumulator; any other word runs its rightmost row
    # on the state, composes the middle ones and adds its leftmost straight in
    diagonal, words = 0, []
    for p, d, word in terms:
        if word:
            rows = [(f.row, k) for f, k in reversed(word)]
            if len(rows) == 1:  # a lone letter runs after the unit row
                rows.insert(0, (lambda k, s: ((s, 1),), 0))
            words.append((p * (den // d), rows[0], rows[1:-1], rows[-1]))
        else:
            diagonal += p * (den // d)
    bad = []
    for s in graded_basis(space, grade):
        acc: Dict = {s: diagonal}
        for x, (row, k), middle, (lrow, lk) in words:
            vec = row(k, s)
            for mrow, mk in middle:
                vec = [(u, y * z) for t, y in vec for u, z in mrow(mk, t)]
            for t, y in vec:
                y *= x
                for u, z in lrow(lk, t):
                    acc[u] = acc.get(u, 0) + y * z
        if any(acc.values()):
            bad.append((s, FockVector({u: Rat(x) / den for u, x in acc.items()})))
    return bad


def mode_commutator(a: Field, b: Field, m: int, n: int, grade_bound: int,
                    expected: Rat = Rat(0)) -> List[Tuple[object, FockVector]]:
    """Residuals of (a_m b_n -/+ b_n a_m) - expected*Id on the graded
    subspace: ``residuals`` of the bracket combination, with the
    anticommutator for odd*odd and the commutator otherwise."""
    sign = 1 if (a.parity and b.parity) else -1
    ka, kb = a.mode_zpow(m), b.mode_zpow(n)
    return residuals(a.space, grade_bound,
                     [(1, ((a, ka), (b, kb))), (sign, ((b, kb), (a, ka))), (-exact(expected), ())])
