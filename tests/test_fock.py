"""Clifford mode actions on the fermionic Fock spaces and characters."""

import copy
import hashlib
import pickle
import random
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
from operator import neg

import pytest

from bfcorr.boson import BOSON_VACUUM_A, BOSON_VACUUM_B, BosonStateA, BosonStateB
from bfcorr.fock import (
    VACUUM_A,
    VACUUM_B,
    FermionStateA,
    FermionStateB,
    FockVector,
    _apply_A,
    _apply_phi_B,
    apply_mode_A,
    apply_mode_B,
    character_A,
    character_B,
    degree_B,
    energy2_A,
    state_text,
    states_A,
    states_B,
)
from bfcorr.partitions import odd_partition_count, partition_count

VAC_A = FockVector.basis(VACUUM_A)
VAC_B = FockVector.basis(VACUUM_B)


def test_creation_on_vacuum():
    got = apply_mode_A("phi", 2, VAC_A)
    assert got == FockVector.basis(FermionStateA((2,), ()))


def test_contraction_one_step():
    # phi_{-1} psi_0 |0> = |0> by the pairing delta_{m+n,-1}
    got = apply_mode_A("phi", -1, apply_mode_A("psi", 0, VAC_A))
    assert got == VAC_A


def test_negative_modes_annihilate_vacuum():
    assert apply_mode_A("psi", -3, VAC_A).is_zero()
    assert apply_mode_A("phi", -1, VAC_A).is_zero()
    assert apply_mode_B(-5, VAC_B).is_zero()


def test_phi0_squares_to_one_type_B():
    assert apply_mode_B(0, apply_mode_B(0, VAC_B)) == VAC_B


def test_type_B_contraction_sign():
    got = apply_mode_B(-1, apply_mode_B(1, VAC_B))
    assert got == VAC_B.scale(-2)


def test_vacuum_component_reads_coefficient():
    v = VAC_A.scale(3) + apply_mode_A("phi", 2, VAC_A)
    assert v.coefficient(VACUUM_A) == 3
    assert apply_mode_A("phi", -1, apply_mode_A("psi", 0, VAC_A)).coefficient(VACUUM_A) == 1
    assert apply_mode_B(0, apply_mode_B(0, VAC_B)).coefficient(VACUUM_B) == 1
    assert FockVector().coefficient(VACUUM_A) == 0


@pytest.mark.parametrize("vacuum, other", [
    (VACUUM_A, FermionStateA((2,), ())),
    (VACUUM_B, FermionStateB((3, 0))),
    (BOSON_VACUUM_A, BosonStateA(1, ())),
    (BOSON_VACUUM_B, BosonStateB(0, (1,))),
], ids=["fermion-A", "fermion-B", "boson-A", "boson-B"])
def test_vacuum_component_reads_the_vacuum_of_each_space(vacuum, other):
    assert FockVector({vacuum: 5, other: 2}).coefficient(vacuum) == 5
    assert FockVector.basis(other, 2).coefficient(vacuum) == 0


def test_a_vector_refuses_states_of_two_spaces():
    with pytest.raises(ValueError, match="2 spaces: FermionStateA, FermionStateB"):
        FockVector.basis(VACUUM_B) + FockVector.basis(VACUUM_A, 2)
    with pytest.raises(ValueError, match="2 spaces: BosonStateA, FermionStateA"):
        FockVector({VACUUM_A: 1, BOSON_VACUUM_A: 1})
    with pytest.raises(ValueError, match="2 spaces"):
        FockVector.basis(BOSON_VACUUM_B) - FockVector.basis(BOSON_VACUUM_A)
    assert FockVector.basis(VACUUM_A) != FockVector.basis(VACUUM_B)


@pytest.mark.parametrize("state", [FockVector.basis(VACUUM_A), "vacuum", 0, frozenset()],
                         ids=["vector", "str", "int", "frozenset"])
def test_a_vector_refuses_what_is_not_a_basis_state(state):
    # every basis-state class is a tuple subclass; a vector of anything else
    # would fail only when a mode acts on it
    with pytest.raises(ValueError, match="not a basis state"):
        FockVector.basis(state)
    with pytest.raises(ValueError, match="not a basis state"):
        FockVector([(state, 1)])


@pytest.mark.parametrize("vacuum", [VACUUM_A, VACUUM_B, BOSON_VACUUM_A, BOSON_VACUUM_B])
def test_the_zero_vector_adds_to_a_vector_of_any_space(vacuum):
    v = FockVector.basis(vacuum, 2)
    assert v.frame() == {type(vacuum)} and (v - v).frame() == FockVector().frame() == frozenset()
    assert FockVector() + v == v + FockVector() == v
    assert (v - v).coefficient(vacuum) == 0 and (v + FockVector()).coefficient(vacuum) == 2


def _anticommutator_A(kind1, m, kind2, n, v):
    return apply_mode_A(kind1, m, apply_mode_A(kind2, n, v)) + apply_mode_A(
        kind2, n, apply_mode_A(kind1, m, v))


def test_clifford_relations_type_A():
    basis = states_A(12)
    for m in range(-4, 5):
        for n in range(-4, 5):
            expected = Fraction(1) if m + n == -1 else Fraction(0)
            for s in random.Random(m * 100 + n).sample(basis, 12):
                v = FockVector.basis(s)
                assert _anticommutator_A("phi", m, "psi", n, v) == v.scale(expected)
                assert _anticommutator_A("phi", m, "phi", n, v).is_zero()
                assert _anticommutator_A("psi", m, "psi", n, v).is_zero()


def test_type_A_basis_states_are_their_canonical_monomials():
    # the sign convention: phi_{m1}..phi_{mk} psi_{n1}..psi_{nl} applied
    # right to left to the vacuum is +1 times the basis state; re-signing
    # the basis consistently keeps the Clifford relations but fails here
    for s in states_A(10):
        v = VAC_A
        for kind, modes in (("psi", s.psis), ("phi", s.phis)):
            for m in reversed(modes):
                v = apply_mode_A(kind, m, v)
        assert v == FockVector.basis(s), s


def test_clifford_relations_type_A_on_every_state():
    basis = states_A(8)
    for m in range(-4, 5):
        for n in range(-4, 5):
            expected = 1 if m + n == -1 else 0
            for s in basis:
                v = FockVector.basis(s)
                assert _anticommutator_A("phi", m, "psi", n, v) == v.scale(expected), (m, n, s)
                assert _anticommutator_A("phi", m, "phi", n, v).is_zero(), (m, n, s)
                assert _anticommutator_A("psi", m, "psi", n, v).is_zero(), (m, n, s)


def _subsets(modes):
    """Every strictly decreasing tuple of ``modes``."""
    top = sorted(modes, reverse=True)
    return [c for k in range(len(top) + 1) for c in combinations(top, k)]


def _neg(parts):
    return tuple(-p for p in parts)


@pytest.mark.parametrize("g", range(13))
def test_enumerators_are_brute_force_filters_in_order(g):
    # every subset of the modes a budget allows, filtered and sorted by the
    # keys of the enumeration order
    modes = range((g + 1) // 2)  # 2m+1 <= g
    both = [FermionStateA(a, b) for a in _subsets(modes) for b in _subsets(modes)
            if energy2_A(FermionStateA(a, b)) <= g]
    assert states_A(g) == sorted(both, key=lambda s: (_neg(s.phis), _neg(s.psis)))
    for q in range(-3, 4):
        sector = [s for s in both if len(s.phis) - len(s.psis) == q]
        assert states_A(g, q) == sorted(sector, key=lambda s: (len(s.phis), _neg(s.phis), _neg(s.psis)))
    strict = [FermionStateB(t) for t in _subsets(range(g + 1)) if sum(t) <= g]
    assert states_B(g) == sorted(strict, key=lambda s: _neg(s.indices))


def test_clifford_relations_type_B():
    for m in range(-4, 5):
        for n in range(-4, 5):
            expected = (-2 if m % 2 else 2) if m + n == 0 else 0
            for s in states_B(8):
                v = FockVector.basis(s)
                got = apply_mode_B(m, apply_mode_B(n, v)) + apply_mode_B(n, apply_mode_B(m, v))
                assert got == v.scale(expected)


def test_mode_application_is_degree_homogeneous():
    for s in states_B(8):
        d = degree_B(s)
        for n in range(-4, 5):
            out = apply_mode_B(n, FockVector.basis(s))
            for s2 in out.terms:
                assert degree_B(s2) == d + n


@pytest.mark.parametrize("model", ["A", "B"])
def test_a_mode_monomial_maps_the_vacuum_to_one_graded_state(model):
    # the fermion VEV sweep keeps one table per basis state, in which
    # prefixes never merge; this is the fact it rests on: every Clifford
    # monomial of length <= 4 with modes in [-3, 3] sends the vacuum to 0 or
    # to a multiple of one basis state, whose grade is fixed by the modes:
    # degree_B = their sum (B), energy2_A = 2 * sum + length (A)
    kinds = ("phi", "psi") if model == "A" else ("phi",)
    level = {(): FockVector.basis(VACUUM_A if model == "A" else VACUUM_B)}
    for length in range(1, 5):
        nxt = {}
        for word, v in level.items():
            for kind in kinds:
                for m in range(-3, 4):
                    out = apply_mode_A(kind, m, v) if model == "A" else apply_mode_B(m, v)
                    if out.is_zero():  # and so is every longer monomial ending in it
                        continue
                    assert len(out.terms) == 1, (kind, m, word)
                    (state, c), = out.terms.items()
                    assert c.denominator == 1
                    total = m + sum(n for _, n in word)
                    if model == "A":
                        assert energy2_A(state) == 2 * total + length
                    else:
                        assert degree_B(state) == total
                    nxt[((kind, m),) + word] = out
        level = nxt
        assert level  # some monomial of each length survives


def test_reduction_is_confluent_under_adjacent_swaps():
    # x_m x_n = [x_m, x_n]_+ - x_n x_m: applying a random word directly
    # must agree with applying it with one adjacent pair swapped plus the
    # anticommutator correction term
    rng = random.Random(4242)
    for _ in range(60):
        word = [rng.choice(["phi", "psi"]) for _ in range(rng.randint(2, 5))]
        modes = [rng.randint(-3, 3) for _ in word]
        i = rng.randrange(len(word) - 1)
        start = rng.choice(states_A(6))
        v = FockVector.basis(start)

        def run(wd, ms, vec):
            for kind, m in zip(reversed(wd), reversed(ms)):
                vec = apply_mode_A(kind, m, vec)
            return vec

        direct = run(word, modes, v)
        swapped_word = list(word)
        swapped_modes = list(modes)
        swapped_word[i], swapped_word[i + 1] = swapped_word[i + 1], swapped_word[i]
        swapped_modes[i], swapped_modes[i + 1] = swapped_modes[i + 1], swapped_modes[i]
        swapped = run(swapped_word, swapped_modes, v).scale(-1)
        pair = {word[i], word[i + 1]}
        if pair == {"phi", "psi"} and modes[i] + modes[i + 1] == -1:
            swapped = swapped + run(word[:i] + word[i + 2:], modes[:i] + modes[i + 2:], v)
        assert direct == swapped


def test_character_A_charge_zero_counts_partitions():
    table = dict(character_A(0, 10))
    assert [table.get(2 * d, 0) for d in range(6)] == [1, 1, 2, 3, 5, 7]
    assert [table.get(2 * d, 0) for d in range(6)] == [partition_count(d) for d in range(6)]


def test_character_A_charge_one_ground_state():
    assert character_A(1, 1) == [(1, 1)]


@pytest.mark.parametrize("charge", [0, 7, -7, 20, -20, 1])
def test_character_A_counts_partitions_in_far_charge_sectors(charge):
    # the sector's ground state sits at energy2 charge^2, so a charge-20
    # table starts at 400: the sector must be enumerated directly; at charge
    # 1 the top grade 25 holds 4 phis and 3 psis, whose lowest layer costs
    # 4^2 + 3^2 = 25, exactly the bound
    q2 = charge * charge
    assert character_A(charge, q2 + 24) == [(q2 + 2 * d, partition_count(d)) for d in range(13)]


def test_charge_sectors_partition_the_basis():
    for top in range(13):
        basis = states_A(top)
        sectors = {q: states_A(top, q) for q in range(-4, 5)}
        for q, sector in sectors.items():
            assert sorted(sector) == sorted(s for s in basis if len(s.phis) - len(s.psis) == q), (top, q)
        assert sum(map(len, sectors.values())) == len(basis), top


def test_character_B_degrees():
    assert character_B(5) == [(0, 2), (1, 2), (2, 2), (3, 4), (4, 4), (5, 6)]
    table = dict(character_B(12))
    for d in range(13):
        assert table[d] == 2 * odd_partition_count(d)


def test_character_B_degree_three_listing():
    got = sorted(s.indices for s in states_B(3) if degree_B(s) == 3)
    assert got == [(2, 1), (2, 1, 0), (3,), (3, 0)]


def test_state_text():
    assert state_text(FermionStateA((4, 1), (2,))) == "phi[4,1] psi[2] |0>"
    assert state_text(FermionStateB((3, 0))) == "phi[3,0] |0>"
    assert state_text(VACUUM_A) == "|0>"


def test_energy_grading():
    assert energy2_A(FermionStateA((2, 0), (1,))) == 5 + 1 + 3


def test_states_keep_their_mode_tuple_views():
    s, b = FermionStateA((4, 1), (2,)), FermionStateB((3, 0))
    assert (s.phis, s.psis, b.indices) == ((4, 1), (2,), (3, 0))
    assert repr(s) == "FermionStateA(phis=(4, 1), psis=(2,))"
    assert repr(b) == "FermionStateB(indices=(3, 0))"
    assert repr(VACUUM_A) == "FermionStateA(phis=(), psis=())"
    assert FermionStateA(phis=(4, 1), psis=(2,)) == s and hash(FermionStateA((4, 1), (2,))) == hash(s)
    assert FermionStateA((1,), ()) != FermionStateA((), (1,)) and FermionStateB((1,)) != FermionStateA((1,), ())
    for state in (s, b, VACUUM_A, VACUUM_B):
        assert pickle.loads(pickle.dumps(state)) == copy.copy(state) == state
        assert type(copy.deepcopy(state)) is type(state)


@pytest.mark.parametrize("modes", [(1, 4), (2, 2), (3, -1), (-1,)])
def test_states_refuse_mode_tuples_that_are_not_canonical(modes):
    with pytest.raises(ValueError, match="strictly decrease"):
        FermionStateA(modes, ())
    with pytest.raises(ValueError, match="strictly decrease"):
        FermionStateA((), modes)
    with pytest.raises(ValueError, match="strictly decrease"):
        FermionStateB(modes)


# The tuple-based Clifford actions the bitmask ones replaced, kept as the
# oracle: states are mode tuples, decreasing.

def _oracle_A(own, m, phis, psis):
    s = (phis, psis)
    block, mode = (own, m) if m >= 0 else (1 - own, -1 - m)
    modes = s[block]
    if (mode in modes) == (m >= 0):
        return []
    place = bisect_left(modes, -mode, key=neg)
    if m >= 0:
        modes = modes[:place] + (mode,) + modes[place:]
    else:
        modes = modes[:place] + modes[place + 1:]
    t = (modes, psis) if block == 0 else (phis, modes)
    return [(t, (-1) ** (place + block * len(phis)))]


def _oracle_phi_B(m, idx):
    out = []
    sign = 1
    for i, n in enumerate(idx):
        if m > n:
            return out + [(idx[:i] + (m,) + idx[i:], sign)]
        if m == n:
            if m == 0:
                out.append((idx[:i] + idx[i + 1:], sign))
            return out
        if n == -m:
            out.append((idx[:i] + idx[i + 1:], sign * 2 * (-1) ** n))
        sign = -sign
    if m >= 0:
        out.append((idx + (m,), sign))
    return out


def test_clifford_actions_match_the_tuple_oracle():
    for s in states_A(14):
        for own in (0, 1):
            for m in range(-9, 10):
                got = [((t.phis, t.psis), c) for t, c in _apply_A(own, m, s)]
                assert got == _oracle_A(own, m, s.phis, s.psis), (own, m, s)
    for s in states_B(14):
        for m in range(-9, 10):
            got = [(t.indices, c) for t, c in _apply_phi_B(m, s)]
            assert got == _oracle_phi_B(m, s.indices), (m, s)


def test_enumeration_order_is_pinned():
    # sha256 over the enumerated lists as mode tuples, recorded from the
    # tuple-based enumerator: the basis order is part of every residual
    # list and witness
    digest = hashlib.sha256()
    for g in range(40):
        for charge in (None, *range(-4, 5)):
            digest.update(repr([(s.phis, s.psis) for s in states_A(g, charge)]).encode())
    for g in range(25):
        digest.update(repr([s.indices for s in states_B(g)]).encode())
    assert digest.hexdigest() == "54f75b0d4cc1e3f2f87a0ffdbad24d8f813e6f7d589e0749275aa04dd8ac0242"
