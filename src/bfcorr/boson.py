"""Bosonic Fock spaces, Heisenberg mode actions, and vertex operators.

Type A states live in C[e^a, e^-a] (x) C[x_1, x_2, ...]; type B states in
the two glued twisted-Heisenberg modules C[e^a]/(e^2a = 1) (x)
C[x_1, x_3, x_5, ...].  Realization conventions (validated by the
commutator suite): type A h_{-n} acts as multiplication by n*x_n and h_n
as d/dx_n; type B h_{-n} as (n/2)*x_n and h_n as d/dx_n, n odd.

A state holds its monomial as ((n, e_n), ...); the vertex operators pack
it into one int, sum_n e_n 2^(n w), so e_n >= 0 is the w-bit digit n.
Multiplying two monomials adds their ints, and lowering x_n by l
subtracts l 2^(n w); ``vertex_terms`` takes w from its weight cap, which
bounds every digit of an output, so no digit carries.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial, lcm, prod
from typing import Callable, Dict, NamedTuple, Tuple

from .fock import FockVector
from .partitions import _partition_table

Monomial = Tuple[Tuple[int, int], ...]  # ((variable index, exponent), ...) ascending


class BosonStateA(NamedTuple):
    charge: int
    mon: Monomial


class BosonStateB(NamedTuple):
    parity: int
    mon: Monomial


BOSON_VACUUM_A = BosonStateA(0, ())
BOSON_VACUUM_B = BosonStateB(0, ())


def mon_weight(mon: Monomial) -> int:
    return sum(v * e for v, e in mon)


# -- Heisenberg actions -------------------------------------------------------


def _heis_apply(n: int, v: FockVector, create) -> FockVector:
    """d/dx_n for n > 0, multiplication by create * x_|n| for n < 0."""
    m = abs(n)

    def act(s):
        mon = dict(s.mon)
        e = mon.get(m, 0)
        if n > 0 and not e:
            return ()
        mon[m] = e - 1 if n > 0 else e + 1
        state = s._replace(mon=tuple(sorted((k, x) for k, x in mon.items() if x)))
        return ((state, e if n > 0 else create),)

    return v.apply(act)


def heis_apply_A(n: int, v: FockVector) -> FockVector:
    """h_n on B_A: d/dx_n for n > 0, multiplication by |n|*x_|n| for n < 0."""
    if n == 0:
        raise ValueError("h_0 is not represented")
    return _heis_apply(n, v, -n)


def heis_apply_B(n: int, v: FockVector) -> FockVector:
    """Twisted h_n: d/dx_n for n > 0, multiplication by (|n|/2)*x_|n| for n < 0."""
    if n % 2 == 0:
        raise ValueError("twisted Heisenberg modes are odd")
    return _heis_apply(n, v, Fraction(-n, 2))


# -- vertex operators ---------------------------------------------------------


def _pack(mon: Monomial, w: int) -> int:
    return sum(e << n * w for n, e in mon)


def _unpack(key: int, w: int) -> Monomial:
    """The monomial packed in ``key``, each of its digits below 2^w."""
    digits = ((n, key >> n * w & (1 << w) - 1) for n in range(1, key.bit_length() // w + 1)) if key else ()
    return tuple((n, e) for n, e in digits if e)


@lru_cache(maxsize=None)
def _partitions(rest: int, p: int, step: int, w: int) -> tuple:
    """(monomial packed with width w, number of parts, prod mult!) per
    partition of ``rest`` into parts p, p + step, ..., the multiplicity of
    each part from high to low."""
    if rest == 0 or p > rest:
        return ((0, 0, 1),) if rest == 0 else ()
    return tuple((mon + (mult << p * w), parts + mult, den * factorial(mult))
                 for mult in range(rest // p, -1, -1)
                 for mon, parts, den in _partitions(rest - p * mult, p + step, step, w))


@lru_cache(maxsize=None)
def _creation_table(weight: int, odd: bool, w: int) -> Tuple[Tuple[int, int, int], ...]:
    """The z^weight part of exp(sum_n x_n z^n), n odd when ``odd``.

    One row (monomial packed with width w, parity of its number of parts,
    weight!/prod mult!) per partition of ``weight``: the row stands for
    monomial / prod mult! over the common denominator weight!.  The table
    does not depend on the state the exponential acts on.
    """
    top = factorial(weight)
    return tuple((mon, parts & 1, top // den)
                 for mon, parts, den in _partitions(weight, 1, 2 if odd else 1, w))


def _lowering_table(mon: Monomial, factor: int, w: int, cap: int):
    """exp(factor * sum_n (1/n) d/dx_n z^-n) on ``mon``, keeping the rows
    whose lowered monomial has weight <= ``cap``.

    Returns (prod_n n^e_n, rows): one row (z-exponent, lowered monomial
    packed with width w, weight) per choice of l_n <= e_n; the coefficient
    of the row is weight / prod_n n^e_n, weight = prod_n C(e_n, l_n)
    factor^l_n n^(e_n - l_n).  The lowered weight, sum_n n (e_n - l_n) =
    the weight of the variables taken so far plus the z-exponent, only
    grows as the variables are taken in turn, so a partial row above the
    cap is cut before it branches.  A row is lowered by subtraction, so it
    is exact even where a digit of the packed ``mon`` is 2^w or more.
    """
    rows = [(0, _pack(mon, w), 1)] if cap >= 0 else []
    taken = 0
    for n, e in reversed(mon):
        taken += n * e
        steps = [(n * l, l << n * w, comb(e, l) * factor ** l * n ** (e - l)) for l in range(e + 1)]
        rows = [(zl - nl, low - drop, x * c) for zl, low, x in rows for nl, drop, c in steps
                if taken + zl - nl <= cap]
    return prod(n ** e for n, e in mon), tuple(rows)


class Vertex(NamedTuple):
    """One vertex operator, z^shift * exp(sign * sum x_n z^n)
    exp(-sign * sum (scale/n) d/dx_n z^-n) after a label change, n odd
    when ``odd``.

    ``split(state)`` gives (shift, new label) and ``make(label, monomial)``
    the output state.  See vertex_A and vertex_B; ``vertex_terms`` applies
    it.
    """

    split: Callable
    make: Callable
    odd: bool
    scale: int
    sign: int


def vertex_terms(op: Vertex, vectors, cutoff: int, wmax: int,
                 guard: Callable[[int], None] | None = None) -> Tuple[int, list]:
    """``op`` on each of ``vectors``, {state: integer numerator} over one
    common denominator, per z-exponent in [-cutoff, cutoff], keeping output
    monomials of weight <= wmax.  ``guard``, if given, is called once with
    the number of creation updates the call is about to make, the rows of
    the creation tables summed over every span; it may raise to refuse
    them.  Returns (d, outs): outs[k] maps each z-exponent to the nonzero
    {state: integer numerator} that ``op`` makes of vectors[k], over d times
    the common denominator, and has no empty bucket.

    Monomials are packed with width w, the bit length of the cap (see the
    module docstring).  A state of weight w0 and shift s (``op.split``) that
    lowers by l and creates j makes an output of weight w0 - l + j <= wmax,
    and each part lowered or created, and each exponent, is at most that
    weight, so w bits hold every digit without carry.

    The annihilation half runs first, its tables cut at ``wmax`` (creation
    only adds weight) and its rows out of the box dropped, summed per
    vector on small ints given to each distinct (z-exponent, new label,
    lowered monomial).  The creation half then runs once per sum, summed
    per vector and z-exponent on small ints given to each distinct output,
    unpacked once at the end.
    """
    factor, w = -op.sign * op.scale, max(wmax, 0).bit_length()
    states = dict.fromkeys(s for vec in vectors for s in vec)
    tables = {mon: _lowering_table(mon, factor, w, wmax) for mon in dict.fromkeys(s.mon for s in states)}
    d = lcm(*(den for den, _ in tables.values()))

    low_ids: Dict[tuple, int] = {}  # (z-exponent, label, lowered monomial) -> id
    lows = []  # id -> (z-exponent, label, lowered monomial, lowest j, highest j)
    rows_of = {}  # state -> [(lowered id, numerator over d)]
    for s in states:
        shift, label = op.split(s)
        den, table = tables[s.mon]
        # a created part of weight j moves z1 = shift + zl to z1 + j, which must stay in
        # the box and under the cap: j in [max(0, lo - zl), hi - zl], empty unless zl, lo <= hi
        g, lo, hi = d // den, -cutoff - shift, min(cutoff - shift, wmax - mon_weight(s.mon))
        rows = rows_of[s] = []
        for zl, mon1, x in table:
            if zl <= hi and lo <= hi:
                i = low_ids.setdefault((shift + zl, label, mon1), len(lows))
                if i == len(lows):
                    lows.append((shift + zl, label, mon1, max(0, lo - zl), hi - zl))
                rows.append((i, g * x))
    lowered = []  # per vector, {lowered id: sum}
    for vec in vectors:
        acc = {}
        for s, c in vec.items():
            for i, x in rows_of[s]:
                v = acc.get(i, 0) + c * x
                if v:
                    acc[i] = v
                else:
                    del acc[i]
        lowered.append(acc)

    jmax = max((lows[i][4] for acc in lowered for i in acc), default=0)
    over = [factorial(jmax) // factorial(j) for j in range(jmax + 1)]
    make, odd, sign = op.make, op.odd, op.sign
    if guard is not None:  # _creation_table(j, odd, w) has a row per partition of j
        upto = [0, *accumulate(_partition_table(jmax, odd))]
        guard(sum(upto[lows[i][4] + 1] - upto[lows[i][3]] for acc in lowered for i in acc))
    raised = {}  # (label, lowered monomial, j) -> rows (output id, signed r)
    out_ids: Dict[tuple, int] = {}  # (label, monomial) -> id
    outs = []  # per vector, {z-exponent: {output id: numerator}}
    for acc in lowered:
        buckets: Dict[int, Dict[int, int]] = {}
        for i, g in acc.items():
            z1, label, mon1, bottom, top = lows[i]
            for j in range(bottom, top + 1):
                f = g * over[j]
                bucket = buckets.get(z1 + j)
                if bucket is None:
                    bucket = buckets[z1 + j] = {}
                rows = raised.get((label, mon1, j))
                if rows is None:
                    rows = raised[label, mon1, j] = [
                        (out_ids.setdefault((label, mon1 + mon2), len(out_ids)), sign * r if parts_odd else r)
                        for mon2, parts_odd, r in _creation_table(j, odd, w)]
                for o, r in rows:
                    v = bucket.get(o, 0) + f * r
                    if v:
                        bucket[o] = v
                    else:
                        del bucket[o]
        outs.append(buckets)
    made = [make(label, _unpack(mon, w)) for label, mon in out_ids]
    return d * over[0], [{ze: {made[o]: v for o, v in bucket.items()} for ze, bucket in buckets.items() if bucket}
                         for buckets in outs]


def vertex_op_A(sign: int) -> Vertex:
    """e^{sign*alpha}(z); see vertex_A."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return Vertex(lambda s: (sign * s.charge, s.charge + sign), BosonStateA, False, 1, sign)


def vertex_op_B(sign: int) -> Vertex:
    """e^alpha(sign*z); see vertex_B."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return Vertex(lambda s: (0, 1 - s.parity), BosonStateB, True, 2, sign)


def _apply(op: Vertex, v: FockVector, cutoff: int, wmax: int | None) -> Dict[int, FockVector]:
    """``op`` on v per z-exponent in [-cutoff, cutoff], over one common
    denominator.  With no cap, every output weighs at most W, the largest
    w0 + cutoff - shift over v's states (w0 the state's weight, shift its
    ``op.split``): the cap W drops nothing."""
    if wmax is None:
        wmax = max((mon_weight(s.mon) + cutoff - op.split(s)[0] for s in v.terms), default=0)
    den = lcm(*(c.denominator for c in v.terms.values()))
    d, (out,) = vertex_terms(op, [{s: c.numerator * (den // c.denominator) for s, c in v.items()}], cutoff, wmax)
    den *= d
    return {ze: FockVector({s: Fraction(n, den) for s, n in bucket.items()}) for ze, bucket in out.items()}


def vertex_A(sign: int, v: FockVector, cutoff: int, wmax: int | None = None) -> Dict[int, FockVector]:
    """e^{sign*alpha}(z) applied to v, per z-exponent, truncated to [-D, D].

    Right-to-left factors: z^{sign*d_alpha} contributes z^(sign*original
    charge), e^{sign*alpha} shifts the charge, then the annihilation
    exponential exp(-sign*sum h_n/n z^-n) and the creation exponential
    exp(sign*sum h_{-n}/n z^n) = exp(sign*sum x_n z^n).  ``wmax``, if
    given, caps the output monomial weight.
    """
    return _apply(vertex_op_A(sign), v, cutoff, wmax)


def vertex_B(arg_sign: int, v: FockVector, cutoff: int, wmax: int | None = None) -> Dict[int, FockVector]:
    """e^alpha(z) (arg_sign=+1) or e^alpha(-z) = e^-alpha(z) (arg_sign=-1).

    Right-to-left: e^alpha flips the parity (e^{2alpha} = 1), then the
    annihilation exponential exp(-sum_k h_{2k+1}/(k+1/2) z^{-2k-1}) acting
    as exp(-sign*sum_m (2/m) d/dx_m z^-m), then the creation exponential
    exp(sign*sum_m x_m z^m), odd m throughout, with sign = arg_sign: every
    exponent is odd, so z -> -z negates both sums.
    """
    return _apply(vertex_op_B(arg_sign), v, cutoff, wmax)
