"""Bosonic Fock spaces, Heisenberg mode actions, and vertex operators.

Type A states live in C[e^a, e^-a] (x) C[x_1, x_2, ...]; type B states in
the two glued twisted-Heisenberg modules C[e^a]/(e^2a = 1) (x)
C[x_1, x_3, x_5, ...].  Realization conventions (validated by the
commutator suite): type A h_{-n} acts as multiplication by n*x_n and h_n
as d/dx_n; type B h_{-n} as (n/2)*x_n and h_n as d/dx_n, n odd.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial, lcm, prod
from typing import Callable, Dict, List, NamedTuple, Tuple

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


def energy2_boson_A(s: BosonStateA) -> int:
    """Doubled energy: 2*monomial weight plus the lattice term charge^2."""
    return 2 * mon_weight(s.mon) + s.charge * s.charge


def mon_get(mon: Monomial, v: int) -> int:
    for var, e in mon:
        if var == v:
            return e
    return 0


def mon_set(mon: Monomial, v: int, e: int) -> Monomial:
    items = [(var, x) for var, x in mon if var != v]
    if e:
        items.append((v, e))
    items.sort()
    return tuple(items)


def boson_state_text(s) -> str:
    """Debug form, e.g. ``e^2a * x1^3 x5^1``."""
    head = f"e^{s.charge}a" if isinstance(s, BosonStateA) else f"e^{s.parity}a"
    if not s.mon:
        return head
    tail = " ".join(f"x{v}^{e}" for v, e in s.mon)
    return f"{head} * {tail}"


# -- Heisenberg actions -------------------------------------------------------


def _heis_apply(n: int, v: FockVector, create) -> FockVector:
    """d/dx_n for n > 0, multiplication by create * x_|n| for n < 0."""
    m = abs(n)

    def act(s):
        e = mon_get(s.mon, m)
        if n < 0:
            return ((s._replace(mon=mon_set(s.mon, m, e + 1)), create),)
        return ((s._replace(mon=mon_set(s.mon, m, e - 1)), e),) if e else ()

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


def _weighted_compositions(weight: int, parts: List[int]):
    """All exponent dicts over ``parts`` with sum(part*mult) == weight."""
    if weight == 0:
        yield {}
        return
    if not parts:
        return
    p, rest = parts[0], parts[1:]
    for mult in range(weight // p, -1, -1):
        for tail in _weighted_compositions(weight - p * mult, rest):
            if mult:
                d = dict(tail)
                d[p] = mult
                yield d
            else:
                yield tail


@lru_cache(maxsize=None)
def _creation_table(weight: int, odd: bool) -> Tuple[Tuple[Monomial, int, int], ...]:
    """The z^weight part of exp(sum_n x_n z^n), n odd when ``odd``.

    One row (monomial, parity of its number of parts, weight!/prod mult!)
    per partition of ``weight``: the row stands for monomial / prod mult!
    over the common denominator weight!.  The table does not depend on
    the state the exponential acts on.
    """
    parts = list(range(1, weight + 1, 2 if odd else 1))
    top = factorial(weight)
    return tuple((tuple(sorted(comp.items())), sum(comp.values()) & 1,
                  top // prod(map(factorial, comp.values())))
                 for comp in _weighted_compositions(weight, parts))


def _lowering_table(mon: Monomial, factor: int):
    """exp(factor * sum_n (1/n) d/dx_n z^-n) on ``mon``.

    Returns (prod_n n^e_n, rows): one row (z-exponent, lowered monomial,
    weight) per choice of l_n <= e_n; the coefficient of the row is
    weight / prod_n n^e_n, weight = prod_n C(e_n, l_n) factor^l_n
    n^(e_n - l_n).
    """
    rows = [(0, (), 1)]
    for n, e in reversed(mon):
        rows = [(zl - n * l, ((n, e - l),) + low if l < e else low,
                 w * comb(e, l) * factor ** l * n ** (e - l))
                for zl, low, w in rows for l in range(e + 1)]
    return prod(n ** e for n, e in mon), tuple(rows)


def _mon_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a or not b:
        return a or b
    d = dict(a)
    for v, e in b:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


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


def vertex_terms(op: Vertex, terms, cutoff: int, wmax: int | None,
                 guard: Callable[[int], None] | None = None) -> Tuple[int, Dict]:
    """``op`` on a list of terms (key, state, integer numerator), per key
    and z-exponent in [-cutoff, cutoff], keeping output monomials of weight
    <= wmax (None: no cap).  ``guard``, if given, is called once with the
    number of creation updates the call is about to make, the rows of the
    creation tables summed over every span; it may raise to refuse them.

    The charge factor and annihilation exponential run first, and their
    rows are summed per key and (z-exponent, new label, lowered monomial,
    its weight); lowered monomials above ``wmax`` are dropped, since the
    creation exponential only adds weight.  The creation exponential then
    runs once per sum.  Returns (d, out): ``out`` maps (key, z-exponent) to
    {state: integer numerator} over d times the common denominator of
    ``terms``.  A bucket may be empty.
    """
    factor = -op.sign * op.scale
    tables = {}
    for _, s, _ in terms:
        if s.mon not in tables:
            tables[s.mon] = _lowering_table(s.mon, factor)
    d = lcm(*(den for den, _ in tables.values()))
    rows_of = {}  # state -> ((z-exponent, label, lowered monomial, weight), numerator over d)
    lowered: Dict[tuple, int] = {}
    for key, s, c in terms:
        rows = rows_of.get(s)
        if rows is None:
            shift, label = op.split(s)
            den, table = tables[s.mon]
            g = d // den
            w0 = mon_weight(s.mon)
            rows = rows_of[s] = [((shift + zl, label, mon1, w0 + zl), g * w)
                                 for zl, mon1, w in table if wmax is None or w0 + zl <= wmax]
        for low, w in rows:
            k = (key, low)
            v = lowered.get(k, 0) + c * w
            if v:
                lowered[k] = v
            else:
                del lowered[k]

    # a created part of weight j moves z1 to z1 + j, which must stay in the box
    spans, jmax = [], 0
    for (key, (z1, label, mon1, w1)), g in lowered.items():
        top = cutoff - z1 if wmax is None else min(cutoff - z1, wmax - w1)
        bottom = max(0, -cutoff - z1)
        if bottom <= top:
            spans.append((key, z1, label, mon1, g, bottom, top))
            jmax = max(jmax, top)
    over = [factorial(jmax) // factorial(j) for j in range(jmax + 1)]
    make, odd, sign = op.make, op.odd, op.sign
    if guard is not None:  # _creation_table(j, odd) has a row per partition of j
        upto = [0, *accumulate(_partition_table(jmax, odd))]
        guard(sum(upto[top + 1] - upto[bottom] for *_, bottom, top in spans))
    raised = {}  # (label, lowered monomial, j) -> rows (state, signed r)
    out: Dict[tuple, dict] = {}
    for key, z1, label, mon1, g, bottom, top in spans:
        for j in range(bottom, top + 1):
            f = g * over[j]
            bucket = out.get((key, z1 + j))
            if bucket is None:
                bucket = out[key, z1 + j] = {}
            rows = raised.get((label, mon1, j))
            if rows is None:
                rows = raised[label, mon1, j] = [
                    (make(label, _mon_mul(mon1, mon2)), sign * r if parts_odd else r)
                    for mon2, parts_odd, r in _creation_table(j, odd)]
            for state, r in rows:
                v = bucket.get(state, 0) + f * r
                if v:
                    bucket[state] = v
                else:
                    del bucket[state]
    return d * over[0], out


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
    denominator."""
    den = lcm(*(c.denominator for c in v.terms.values()))
    d, out = vertex_terms(op, [((), s, c.numerator * (den // c.denominator)) for s, c in v.items()],
                          cutoff, wmax)
    den *= d
    return {ze: FockVector({s: Fraction(n, den) for s, n in bucket.items()})
            for (_, ze), bucket in out.items() if bucket}


def vertex_A(sign: int, v: FockVector, cutoff: int, wmax: int | None = None) -> Dict[int, FockVector]:
    """e^{sign*alpha}(z) applied to v, per z-exponent, truncated to [-D, D].

    Right-to-left factors: z^{sign*d_alpha} contributes z^(sign*original
    charge), e^{sign*alpha} shifts the charge, then the annihilation
    exponential exp(-sign*sum h_n/n z^-n) and the creation exponential
    exp(sign*sum h_{-n}/n z^n) = exp(sign*sum x_n z^n).  ``wmax`` caps the
    output monomial weight (used to drop states no later operator can
    bring back to the vacuum).
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
