"""Fermionic Fock spaces for the type A and type B Clifford algebras.

Basis vectors are canonical Clifford monomials applied to the vacuum:
type A states are phi_{m_1}..phi_{m_k} psi_{n_1}..psi_{n_l} |0> with each
index list strictly decreasing (all phi's first, then all psi's); type B
states are phi_{n_1}..phi_{n_k}|0> with strictly decreasing indices >= 0.
Negative-index modes annihilate the vacuum.  Mode application
re-canonicalizes exactly via the Clifford relations

    [phi_m, psi_n]+ = delta_{m+n,-1}     (type A)
    [phi_m, phi_n]+ = 2(-1)^m delta_{m,-n}   (type B)

A state is stored as int bitmasks: a type A state is the pair (phi mask,
psi mask), bit m of the first set for phi_m and of the second for psi_m,
and a type B state the one mask of its phi's.  Both are tuples of masks,
so they hash and compare at C speed; ``phis``, ``psis`` and ``indices``
give the decreasing mode tuples, which the constructors take.  A mode
action is a bit test and an xor, and its sign is (-1) to the number of
modes it passes, a popcount: the modes above it in its block, plus the
whole phi block when a type A field acts on the psi block.

phi and psi are one type A action (``_apply_A``), and both bases come from
one strict-partition enumerator (``_strict_lists``) with a per-model mode
cost: 2m+1 for the type A energy2, m for the type B degree.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Callable, Iterable, List, Optional, Tuple

from .poly import Terms, collect, exact


def _bits(mask: int) -> Tuple[int, ...]:
    """The modes of a mask, decreasing."""
    modes = []
    while mask:
        top = mask.bit_length() - 1
        modes.append(top)
        mask ^= 1 << top
    return tuple(modes)


def _mask(modes: Iterable[int]) -> int:
    """The mask of a strictly decreasing tuple of modes >= 0."""
    modes = tuple(modes)
    if any(a <= b for a, b in zip(modes, modes[1:])) or min(modes, default=0) < 0:
        raise ValueError(f"modes must strictly decrease and be >= 0, not {modes}")
    return sum(1 << m for m in modes)


class FermionStateA(tuple):
    """phi_{phis} psi_{psis} |0>, stored as its (phi mask, psi mask)."""

    __slots__ = ()

    def __new__(cls, phis: Tuple[int, ...], psis: Tuple[int, ...]):
        return tuple.__new__(cls, (_mask(phis), _mask(psis)))

    def __getnewargs__(self):
        return self.phis, self.psis

    def __repr__(self):
        return f"FermionStateA(phis={self.phis!r}, psis={self.psis!r})"

    phis = property(lambda s: _bits(s[0]))
    psis = property(lambda s: _bits(s[1]))


class FermionStateB(tuple):
    """phi_{indices} |0>, stored as the 1-tuple of its mask."""

    __slots__ = ()

    def __new__(cls, indices: Tuple[int, ...]):
        return tuple.__new__(cls, (_mask(indices),))

    def __getnewargs__(self):
        return (self.indices,)

    def __repr__(self):
        return f"FermionStateB(indices={self.indices!r})"

    indices = property(lambda s: _bits(s[0]))


# from masks, skipping the mode-tuple constructors
_state_A = partial(tuple.__new__, FermionStateA)
_state_B = partial(tuple.__new__, FermionStateB)

VACUUM_A = FermionStateA((), ())
VACUUM_B = FermionStateB(())


def _energy2(m: int) -> int:
    """The doubled energy of one type A mode: deg phi_m = deg psi_m = m + 1/2."""
    return 2 * m + 1


def _energy2_mask(mask: int) -> int:
    return sum(map(_energy2, _bits(mask)))


def energy2_A(s: FermionStateA) -> int:
    return _energy2_mask(s[0]) + _energy2_mask(s[1])


def degree_B(s: FermionStateB) -> int:
    return sum(_bits(s[0]))


class FockVector(Terms):
    """Sparse linear combination of basis states (fermionic or bosonic)
    with int or Fraction coefficients.  Its frame is its states' class: one
    space, or none for the zero vector, which adds to a vector of any.
    Every basis-state class is a tuple subclass; a state of any other class
    is refused.  A mode, a field coefficient or a vertex operator acts on
    it as ``apply`` of its basis-state action."""

    __slots__ = ()

    def __init__(self, terms=None):
        """From a dict or from (state, coefficient) pairs; like states are summed."""
        pairs = terms.items() if isinstance(terms, dict) else terms or ()
        self.terms = collect((s, exact(c)) for s, c in pairs)
        self._check(self)

    def frame(self) -> frozenset:
        return frozenset(map(type, self.terms))

    def _check(self, other):
        if type(other) is not FockVector:
            super()._check(other)
        spaces = self.frame() | other.frame()
        if len(spaces) > 1:
            raise ValueError(f"vector has states of {len(spaces)} spaces: "
                             f"{', '.join(sorted(c.__name__ for c in spaces))}")
        if not all(issubclass(space, tuple) for space in spaces):
            raise ValueError(f"not a basis state: {', '.join(sorted(c.__name__ for c in spaces))}")

    def _like(self, terms):
        v = FockVector.__new__(FockVector)
        v.terms = terms
        return v

    @classmethod
    def basis(cls, state, coeff=1) -> "FockVector":
        return cls({state: coeff})

    def coefficient(self, state):
        return self.terms.get(state, 0)

    def __repr__(self):
        if not self.terms:
            return "FockVector(0)"
        bits = [f"{c}*{state_text(s)}" for s, c in sorted(self.terms.items(), key=lambda kv: repr(kv[0]))]
        return "FockVector(" + " + ".join(bits) + ")"


def state_text(s) -> str:
    """Debug form, e.g. ``phi[4,1] psi[2] |0>`` or ``phi[3,0] |0>``."""
    if not isinstance(s, (FermionStateA, FermionStateB)):
        return repr(s)
    names = ("phi", "psi") if isinstance(s, FermionStateA) else ("phi",)
    parts = [f"{name}[{','.join(map(str, _bits(mask)))}]" for name, mask in zip(names, s) if mask]
    return " ".join(parts + ["|0>"])


# -- single-mode actions on basis states ------------------------------------


def _apply_A(own: int, m: int, s: FermionStateA) -> List[Tuple[FermionStateA, int]]:
    """The one type A Clifford action, of phi_m (``own`` 0) or psi_m (1).

    For m >= 0 the field creates mode m in its own block; for m < 0 it
    removes the partner -1-m from the other block.  Either way the sign is
    (-1)^(modes passed): the whole phi block when it acts on the psi block,
    plus its place inside the block, the modes above ``mode``.
    """
    block, mode = (own, m) if m >= 0 else (1 - own, -1 - m)
    mask = s[block]
    if (mask >> mode & 1) == (m >= 0):
        return []
    place = (mask >> mode + 1).bit_count()
    mask ^= 1 << mode
    t = _state_A((mask, s[1]) if block == 0 else (s[0], mask))
    return [(t, (-1) ** (place + block * s[0].bit_count()))]


_apply_phi_A = partial(_apply_A, 0)
_apply_psi_A = partial(_apply_A, 1)


def _apply_phi_B(m: int, s: FermionStateB) -> List[Tuple[FermionStateB, int]]:
    """phi_m: for m >= 0 it creates mode m (phi_m^2 = delta_{m,0}, so
    phi_0 removes a present mode 0); for m < 0 it contracts a present
    -m, with the factor 2(-1)^m of the pairing.  The sign counts the
    modes above."""
    (mask,) = s
    if m >= 0:
        if m and mask >> m & 1:
            return []
        return [(_state_B((mask ^ 1 << m,)), (-1) ** (mask >> m + 1).bit_count())]
    n = -m
    if not mask >> n & 1:
        return []
    return [(_state_B((mask ^ 1 << n,)), 2 * (-1) ** (n + (mask >> n + 1).bit_count()))]


def apply_mode_A(kind: str, n: int, v: FockVector) -> FockVector:
    """Apply phi_n or psi_n (kind in {'phi', 'psi'}) to a type A vector."""
    if kind not in ("phi", "psi"):
        raise ValueError("kind must be 'phi' or 'psi'")
    own = int(kind == "psi")
    return v.apply(lambda s: _apply_A(own, n, s))


def apply_mode_B(n: int, v: FockVector) -> FockVector:
    return v.apply(lambda s: _apply_phi_B(n, s))


# -- basis enumeration and characters ----------------------------------------


def _strict_lists(budget: int, top: int, cost: Callable[[int], int],
                  length: Optional[int] = None, least: Optional[int] = None) -> List[int]:
    """The masks of the strictly decreasing tuples of ints in [0, top] whose
    parts cost sum(cost(m)) <= budget, all of them or those with ``length``
    parts: the empty tuple first, then by first part, descending.  The one
    enumerator of both models: a mode m costs 2m+1 (type A energy2) or m
    (type B degree).  ``cost(m)`` must be at least m; ``least``, the least
    cost of the parts still to come (rest-1, .., 0), bounds the first part."""
    if length == 0:
        return [0]
    out, rest = ([0], 0) if length is None else ([], length - 1)
    more = None if length is None else rest
    least = sum(map(cost, range(rest))) if least is None else least
    below = least - cost(rest - 1) if rest else 0
    for first in range(min(top, budget - least), rest - 1, -1):
        spare = budget - cost(first)
        if spare >= least:
            bit = 1 << first
            out.extend(bit | tail for tail in _strict_lists(spare, first - 1, cost, more, below))
    return out


def states_A(max_energy2: int, charge=None) -> List[FermionStateA]:
    """All type A basis states with energy2 <= max_energy2 (optionally fixed
    charge).  A charge sector is enumerated directly: k phis and k - charge
    psis cost at least k^2 + (k - charge)^2."""
    if max_energy2 < 0:
        return []
    top = (max_energy2 - 1) // 2
    out = []
    if charge is None:
        for phis in _strict_lists(max_energy2, top, _energy2):
            out.extend(_state_A((phis, psis))
                       for psis in _strict_lists(max_energy2 - _energy2_mask(phis), top, _energy2))
        return out
    k = max(0, charge)
    while k * k + (k - charge) ** 2 <= max_energy2:
        for phis in _strict_lists(max_energy2 - (k - charge) ** 2, top, _energy2, k):
            out.extend(_state_A((phis, psis))
                       for psis in _strict_lists(max_energy2 - _energy2_mask(phis), top, _energy2, k - charge))
        k += 1
    return out


def states_B(max_degree: int) -> List[FermionStateB]:
    if max_degree < 0:
        return []
    return [_state_B((mask,)) for mask in _strict_lists(max_degree, max_degree, lambda m: m)]


def character_A(charge: int, max_energy2: int) -> List[Tuple[int, int]]:
    """Graded dimensions (energy2, dim) of the fixed-charge sector of F_A."""
    return sorted(Counter(map(energy2_A, states_A(max_energy2, charge))).items())


def character_B(max_degree: int) -> List[Tuple[int, int]]:
    """Graded dimensions (degree, dim) of F_B."""
    counts = Counter(map(degree_B, states_B(max_degree)))
    return [(d, counts[d]) for d in range(max_degree + 1)]
