"""Fermionic Fock spaces for the type A and type B Clifford algebras.

Basis vectors are canonical Clifford monomials applied to the vacuum:
type A states are phi_{m_1}..phi_{m_k} psi_{n_1}..psi_{n_l} |0> with each
index list strictly decreasing (all phi's first, then all psi's); type B
states are phi_{n_1}..phi_{n_k}|0> with strictly decreasing indices >= 0.
Negative-index modes annihilate the vacuum.  Mode application
re-canonicalizes exactly via the Clifford relations

    [phi_m, psi_n]+ = delta_{m+n,-1}     (type A)
    [phi_m, phi_n]+ = 2(-1)^m delta_{m,-n}   (type B)
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from .poly import Terms, collect, exact


class FermionStateA(NamedTuple):
    phis: Tuple[int, ...]
    psis: Tuple[int, ...]


class FermionStateB(NamedTuple):
    indices: Tuple[int, ...]


VACUUM_A = FermionStateA((), ())
VACUUM_B = FermionStateB(())


def energy2_A(s: FermionStateA) -> int:
    """Doubled energy: deg phi_n = deg psi_n = n + 1/2."""
    return sum(2 * m + 1 for m in s.phis) + sum(2 * n + 1 for n in s.psis)


def degree_B(s: FermionStateB) -> int:
    return sum(s.indices)


class FockVector(Terms):
    """Sparse linear combination of basis states (fermionic or bosonic)
    with int or Fraction coefficients.  Its frame is empty: a mode, a field
    coefficient or a vertex operator acts on it as ``apply`` of its
    basis-state action."""

    __slots__ = ()

    def __init__(self, terms=None):
        """From a dict or from (state, coefficient) pairs; like states are summed."""
        pairs = terms.items() if isinstance(terms, dict) else terms or ()
        self.terms = collect((s, exact(c)) for s, c in pairs)

    def _like(self, terms):
        v = FockVector.__new__(FockVector)
        v.terms = terms
        return v

    @classmethod
    def basis(cls, state, coeff=1) -> "FockVector":
        return cls({state: coeff})

    def add_term(self, state, coeff):
        coeff = exact(coeff)
        v = self.terms.get(state, 0) + coeff
        if v:
            self.terms[state] = v
        else:
            self.terms.pop(state, None)

    def coefficient(self, state):
        return self.terms.get(state, 0)

    def __repr__(self):
        if not self.terms:
            return "FockVector(0)"
        bits = [f"{c}*{state_text(s)}" for s, c in sorted(self.terms.items(), key=lambda kv: repr(kv[0]))]
        return "FockVector(" + " + ".join(bits) + ")"


def state_text(s) -> str:
    """Debug form, e.g. ``phi[4,1] psi[2] |0>`` or ``phi[3,0] |0>``."""
    if isinstance(s, FermionStateA):
        parts = []
        if s.phis:
            parts.append("phi[" + ",".join(map(str, s.phis)) + "]")
        if s.psis:
            parts.append("psi[" + ",".join(map(str, s.psis)) + "]")
        parts.append("|0>")
        return " ".join(parts)
    if isinstance(s, FermionStateB):
        parts = []
        if s.indices:
            parts.append("phi[" + ",".join(map(str, s.indices)) + "]")
        parts.append("|0>")
        return " ".join(parts)
    return repr(s)


# -- single-mode actions on basis states ------------------------------------


def _apply_phi_A(m: int, s: FermionStateA) -> List[Tuple[FermionStateA, int]]:
    if m >= 0:
        if m in s.phis:
            return []
        pos = sum(1 for p in s.phis if p > m)
        phis = s.phis[:pos] + (m,) + s.phis[pos:]
        return [(FermionStateA(phis, s.psis), (-1) ** pos)]
    # m < 0: passes the phi block, contracts psi_{-1-m} if present
    partner = -1 - m
    sign = (-1) ** len(s.phis)
    for i, q in enumerate(s.psis):
        if q == partner:
            psis = s.psis[:i] + s.psis[i + 1:]
            return [(FermionStateA(s.phis, psis), sign * (-1) ** i)]
    return []


def _apply_psi_A(m: int, s: FermionStateA) -> List[Tuple[FermionStateA, int]]:
    if m >= 0:
        if m in s.psis:
            return []
        sign = (-1) ** len(s.phis)
        pos = sum(1 for q in s.psis if q > m)
        psis = s.psis[:pos] + (m,) + s.psis[pos:]
        return [(FermionStateA(s.phis, psis), sign * (-1) ** pos)]
    partner = -1 - m
    for i, p in enumerate(s.phis):
        if p == partner:
            phis = s.phis[:i] + s.phis[i + 1:]
            return [(FermionStateA(phis, s.psis), (-1) ** i)]
    return []


def _apply_phi_B(m: int, s: FermionStateB) -> List[Tuple[FermionStateB, int]]:
    out = []
    sign = 1
    idx = s.indices
    for i, n in enumerate(idx):
        if m > n:
            return out + [(FermionStateB(idx[:i] + (m,) + idx[i:]), sign)]
        if m == n:
            if m == 0:
                out.append((FermionStateB(idx[:i] + idx[i + 1:]), sign))
            return out  # phi_m^2 = delta_{m,0}
        if n == -m:  # (-1) ** n, not ** m: n >= 0 keeps the sign an int
            out.append((FermionStateB(idx[:i] + idx[i + 1:]), sign * 2 * (-1) ** n))
        sign = -sign
    if m >= 0:
        out.append((FermionStateB(idx + (m,)), sign))
    return out


def apply_mode_A(kind: str, n: int, v: FockVector) -> FockVector:
    """Apply phi_n or psi_n (kind in {'phi', 'psi'}) to a type A vector."""
    if kind == "phi":
        act = _apply_phi_A
    elif kind == "psi":
        act = _apply_psi_A
    else:
        raise ValueError("kind must be 'phi' or 'psi'")
    return v.apply(lambda s: act(n, s))


def apply_mode_B(n: int, v: FockVector) -> FockVector:
    return v.apply(lambda s: _apply_phi_B(n, s))


def vacuum_component(v: FockVector):
    """Coefficient of the vacuum state: this is <0| v |0> = the VEV pairing.
    The vacuum is that of the one space all states of ``v`` lie in; states
    of two spaces raise, and the zero vector gives 0."""
    from .boson import BOSON_VACUUM_A, BOSON_VACUUM_B

    spaces = {type(s) for s in v.terms}
    if len(spaces) > 1:
        raise ValueError(f"vector has states of {len(spaces)} spaces: "
                         f"{', '.join(sorted(c.__name__ for c in spaces))}")
    if not spaces:
        return 0
    vacua = {type(s): s for s in (VACUUM_A, VACUUM_B, BOSON_VACUUM_A, BOSON_VACUUM_B)}
    return v.coefficient(vacua[spaces.pop()])


# -- basis enumeration and characters ----------------------------------------


def _strict_lists(budget: int, top: int) -> List[Tuple[int, ...]]:
    """Strictly decreasing tuples of ints in [0, top] with sum(2m+1) <= budget."""
    out = [()]
    for first in range(min(top, (budget - 1) // 2), -1, -1):
        for rest in _strict_lists(budget - (2 * first + 1), first - 1):
            out.append((first,) + rest)
    return out


def _strict_lists_of_length(length: int, budget: int, top: int) -> List[Tuple[int, ...]]:
    """The tuples of ``_strict_lists(budget, top)`` with ``length`` parts, in
    its order.  L parts cost at least L^2 (the parts L-1, .., 0), which
    bounds the first part and prunes the search."""
    if length == 0:
        return [()]
    rest = length - 1
    out = []
    for first in range(min(top, (budget - rest * rest - 1) // 2), rest - 1, -1):
        for tail in _strict_lists_of_length(rest, budget - (2 * first + 1), first - 1):
            out.append((first,) + tail)
    return out


def states_A(max_energy2: int, charge=None) -> List[FermionStateA]:
    """All type A basis states with energy2 <= max_energy2 (optionally fixed
    charge).  A charge sector is enumerated directly: k phis and k - charge
    psis cost at least k^2 + (k - charge)^2."""
    if max_energy2 < 0:
        return []
    top = (max_energy2 - 1) // 2 if max_energy2 >= 1 else -1
    out = []
    if charge is None:
        for phis in _strict_lists(max_energy2, top):
            e1 = sum(2 * m + 1 for m in phis)
            out.extend(FermionStateA(phis, psis) for psis in _strict_lists(max_energy2 - e1, top))
        return out
    k = max(0, charge)
    while k * k + (k - charge) ** 2 <= max_energy2:
        for phis in _strict_lists_of_length(k, max_energy2 - (k - charge) ** 2, top):
            e1 = sum(2 * m + 1 for m in phis)
            out.extend(FermionStateA(phis, psis)
                       for psis in _strict_lists_of_length(k - charge, max_energy2 - e1, top))
        k += 1
    return out


def _strict_sum_lists(budget: int, top: int) -> List[Tuple[int, ...]]:
    """Strictly decreasing tuples of ints in [0, top] with plain sum <= budget."""
    out = [()]
    for first in range(min(top, budget), -1, -1):
        for rest in _strict_sum_lists(budget - first, first - 1):
            out.append((first,) + rest)
    return out


def states_B(max_degree: int) -> List[FermionStateB]:
    if max_degree < 0:
        return []
    return [FermionStateB(t) for t in _strict_sum_lists(max_degree, max_degree)]


def character_A(charge: int, max_energy2: int) -> List[Tuple[int, int]]:
    """Graded dimensions (energy2, dim) of the fixed-charge sector of F_A."""
    counts: Dict[int, int] = {}
    for s in states_A(max_energy2, charge):
        counts[energy2_A(s)] = counts.get(energy2_A(s), 0) + 1
    return sorted(counts.items())


def character_B(max_degree: int) -> List[Tuple[int, int]]:
    """Graded dimensions (degree, dim) of F_B."""
    counts: Dict[int, int] = {d: 0 for d in range(max_degree + 1)}
    for s in states_B(max_degree):
        counts[degree_B(s)] += 1
    return sorted(counts.items())
