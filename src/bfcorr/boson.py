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
from math import comb, factorial, lcm, prod
from typing import Dict, List, NamedTuple, Tuple

from .fock import FockVector

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


def heis_apply_A(n: int, v: FockVector) -> FockVector:
    """h_n on B_A: d/dx_n for n > 0, multiplication by |n|*x_|n| for n < 0."""
    if n == 0:
        raise ValueError("h_0 is not represented")
    out = FockVector()
    for s, c in v.items():
        if n > 0:
            e = mon_get(s.mon, n)
            if e:
                out.add_term(BosonStateA(s.charge, mon_set(s.mon, n, e - 1)), c * e)
        else:
            m = -n
            e = mon_get(s.mon, m)
            out.add_term(BosonStateA(s.charge, mon_set(s.mon, m, e + 1)), c * m)
    return out


def heis_apply_B(n: int, v: FockVector) -> FockVector:
    """Twisted h_n: d/dx_n for n > 0, multiplication by (|n|/2)*x_|n| for n < 0."""
    if n % 2 == 0:
        raise ValueError("twisted Heisenberg modes are odd")
    out = FockVector()
    for s, c in v.items():
        if n > 0:
            e = mon_get(s.mon, n)
            if e:
                out.add_term(BosonStateB(s.parity, mon_set(s.mon, n, e - 1)), c * e)
        else:
            m = -n
            e = mon_get(s.mon, m)
            out.add_term(BosonStateB(s.parity, mon_set(s.mon, m, e + 1)), c * Fraction(m, 2))
    return out


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


def _lowering_table(mon: Monomial, scale: int):
    """exp(-sum_n (scale/n) d/dx_n z^-n) on ``mon``, up to the sign.

    One row (z-exponent, lowered monomial, weight, parity of the number of
    derivatives) per choice of l_n <= e_n; the coefficient of the row is
    weight / prod_n n^e_n, weight = prod_n C(e_n, l_n) scale^l_n n^(e_n - l_n).
    """
    rows = [(0, (), 1, 0)]
    for n, e in reversed(mon):
        rows = [(zl - n * l, ((n, e - l),) + low if l < e else low,
                 w * comb(e, l) * scale ** l * n ** (e - l), odd ^ (l & 1))
                for zl, low, w, odd in rows for l in range(e + 1)]
    return rows


def _mon_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a or not b:
        return a or b
    d = dict(a)
    for v, e in b:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def _vertex(terms, make, odd: bool, scale: int, low_sign: int, part_sign: int,
            ze_sign: int, cutoff: int, wmax: int | None) -> Dict[int, FockVector]:
    """Sum over ``terms`` (shift, new label, monomial, coefficient) of
    z^shift * exp(sum x_n z^n) exp(-sum (scale/n) d/dx_n z^-n) applied to
    the monomial, n odd when ``odd``, per z-exponent in [-D, D].

    A term carries the sign low_sign^(derivatives) * part_sign^(created
    parts) * ze_sign^(z-exponent); output monomials have weight <= wmax.
    Coefficients are summed as integers over one common denominator.
    """
    den, jmax = 1, 0  # jmax bounds the created weight
    for shift, _, mon, c in terms:
        den = lcm(den, c.denominator * prod(n ** e for n, e in mon))
        j = cutoff - shift + mon_weight(mon)
        jmax = max(jmax, j if wmax is None else min(j, wmax))
    over = [factorial(jmax) // factorial(j) for j in range(jmax + 1)]
    out: Dict[int, dict] = {}
    for shift, label, mon, c in terms:
        w0 = mon_weight(mon)
        g0 = c.numerator * (den // (c.denominator * prod(n ** e for n, e in mon)))
        for zl, mon1, weight, low_odd in _lowering_table(mon, scale):
            z1 = shift + zl
            top = cutoff - z1 if wmax is None else min(cutoff - z1, wmax - w0 - zl)
            g = g0 * weight * (low_sign if low_odd else 1)
            for j in range(max(0, -cutoff - z1), top + 1):
                ze = z1 + j
                f = -g * over[j] if ze & 1 and ze_sign < 0 else g * over[j]
                flip = f * part_sign
                bucket = out.setdefault(ze, {})
                for mon2, parts_odd, r in _creation_table(j, odd):
                    state = make(label, _mon_mul(mon1, mon2))
                    v = bucket.get(state, 0) + (flip if parts_odd else f) * r
                    if v:
                        bucket[state] = v
                    else:
                        del bucket[state]
    den *= over[0]
    result: Dict[int, FockVector] = {}
    for ze, bucket in out.items():
        if bucket:
            result[ze] = fv = FockVector()
            fv.terms = {s: Fraction(n, den) for s, n in bucket.items()}
    return result


def vertex_A(sign: int, v: FockVector, cutoff: int, wmax: int | None = None) -> Dict[int, FockVector]:
    """e^{sign*alpha}(z) applied to v, per z-exponent, truncated to [-D, D].

    Right-to-left factors: z^{sign*d_alpha} contributes z^(sign*original
    charge), e^{sign*alpha} shifts the charge, then the annihilation
    exponential exp(-sign*sum h_n/n z^-n) and the creation exponential
    exp(sign*sum h_{-n}/n z^n) = exp(sign*sum x_n z^n).  ``wmax`` caps the
    output monomial weight (used to drop states no later operator can
    bring back to the vacuum).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    terms = [(sign * s.charge, s.charge + sign, s.mon, c) for s, c in v.items()]
    return _vertex(terms, BosonStateA, False, 1, -sign, sign, 1, cutoff, wmax)


def vertex_B(arg_sign: int, v: FockVector, cutoff: int, wmax: int | None = None) -> Dict[int, FockVector]:
    """e^alpha(z) (arg_sign=+1) or e^alpha(-z) = e^-alpha(z) (arg_sign=-1).

    Right-to-left: e^alpha flips the parity (e^{2alpha} = 1), then the
    annihilation exponential exp(-sum_k h_{2k+1}/(k+1/2) z^{-2k-1}) acting
    as exp(-sum_m (2/m) d/dx_m z^-m), then the creation exponential
    exp(sum_m x_m z^m), odd m throughout.
    """
    if arg_sign not in (1, -1):
        raise ValueError("arg_sign must be +1 or -1")
    terms = [(0, 1 - s.parity, s.mon, c) for s, c in v.items()]
    return _vertex(terms, BosonStateB, True, 2, -1, 1, arg_sign, cutoff, wmax)
