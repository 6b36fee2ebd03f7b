"""Exact-diagonalization oracle: basis enumeration, Hamiltonian structure, scans."""

import functools
import itertools
import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import sparse
import scipy.sparse.linalg as spla

import phasegas.fock as fock
from phasegas.errors import ConfigurationError, SolverError
from phasegas.fock import (
    FockBasis,
    build_hamiltonian,
    condensate_expectation,
    enumerate_basis,
    export_basis,
    export_hamiltonian,
    ground_pair,
    mean_field_comparison,
    shift_operator,
    state_momentum,
)
from phasegas.hermite import HermiteBasis
from phasegas.lattice import ModeLattice, TAU
from phasegas.operator import assemble
from phasegas.params import ModelParams
from phasegas.spectral import connected_blocks, energy_from_eigenvalue, solve

SEED = 99


def _lat(m=3):
    return ModeLattice(d=1, box_len=TAU, m_per_dim=m)


def _index(basis):
    """State index of every occupation tuple of the basis."""
    return {tuple(occ): i for i, occ in enumerate(basis.occupations.tolist())}


def test_enumeration_examples():
    # a lattice has 1 + 2 * pairs modes, so the mode counts are odd
    b = enumerate_basis(_lat(), 2)
    assert b.occupations.tolist() == [
        [2, 0, 0], [1, 1, 0], [1, 0, 1], [0, 2, 0], [0, 1, 1], [0, 0, 2]
    ]
    assert b.occupations.dtype == np.int64 and b.dim == 6
    b54 = enumerate_basis(_lat(5), 4)
    assert b54.occupations.shape == (b54.dim, 5)
    assert b54.dim == math.comb(4 + 5 - 1, 5 - 1) == 70
    assert (b54.occupations.sum(axis=1) == 4).all()
    rows = [tuple(occ) for occ in b54.occupations.tolist()]
    assert rows == sorted(set(rows), reverse=True)  # distinct, descending-lex
    assert enumerate_basis(ModeLattice(d=1, box_len=TAU, m_per_dim=1), 3).occupations.tolist() == [[3]]


def _occupations(m, n):
    """The recursive generator `enumerate_basis` used to run, kept as the reference."""
    if m == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in _occupations(m - 1, n - first):
            yield (first,) + rest


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(m=st.sampled_from([1, 3, 5, 7, 9, 11, 13]), n=st.integers(0, 6))
def test_enumeration_matches_the_recursive_generator(m, n):
    got = enumerate_basis(_lat(m), n).occupations
    ref = np.array(list(_occupations(m, n)), dtype=np.int64)
    assert got.dtype == ref.dtype and got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_enumeration_is_not_bounded_by_the_recursion_limit():
    # the recursive generator ran out of stack from about 990 modes
    b = enumerate_basis(_lat(1201), 1)
    assert b.dim == 1201
    assert b.occupations[0].tolist() == [1] + [0] * 1200
    assert np.array_equal(b.occupations, np.eye(1201, dtype=np.int64))


def test_enumeration_guard():
    with pytest.raises(ConfigurationError):
        enumerate_basis(_lat(41), 40)  # ~1e23 states


def test_a_bool_is_not_a_mode_or_particle_count():
    # the mode count is the lattice's, which refuses a bool
    with pytest.raises(ConfigurationError, match="m_per_dim"):
        ModeLattice(d=1, box_len=TAU, m_per_dim=True)
    with pytest.raises(ConfigurationError, match="n_particles"):
        enumerate_basis(_lat(), True)
    got = enumerate_basis(_lat(), np.int32(2))
    assert got.n_particles == 2 and type(got.n_particles) is int
    assert np.array_equal(got.occupations, enumerate_basis(_lat(), 2).occupations)


@pytest.mark.parametrize("d, m, n", [(1, 1, 2), (1, 3, 3), (1, 5, 2), (2, 3, 3)])
def test_condensate_is_state_zero(d, m, n):
    lat = ModeLattice(d=d, box_len=TAU, m_per_dim=m)
    b = enumerate_basis(lat, n)
    condensate = np.zeros(lat.num_modes, dtype=np.int64)
    condensate[lat.index((0,) * d)] = n
    assert np.array_equal(b.occupations[0], condensate)
    (found,) = np.flatnonzero((b.occupations == condensate).all(axis=1))
    assert found == 0
    for normal_order in (False, True):
        h = build_hamiltonian(b, 0.7, 0.2, 0.1, hbar2_over_2m=0.6, normal_order=normal_order)
        assert condensate_expectation(h) == h.matrix[found, found].real


def test_occupations_are_read_only():
    b = enumerate_basis(_lat(), 2)
    assert not b.occupations.flags.writeable
    with pytest.raises(ValueError):
        b.occupations[0, 0] = 0
    assert b.occupations[0].tolist() == [2, 0, 0]


def test_shift_operator_zero_mode_is_number():
    lat = _lat()
    b = enumerate_basis(lat, 3)
    s0 = shift_operator(b, (0,)).toarray()
    assert np.array_equal(s0, 3.0 * np.eye(b.dim))


def test_shift_operator_refuses_a_mode_of_another_dimension():
    b = enumerate_basis(ModeLattice(d=2, box_len=TAU, m_per_dim=3), 2)
    for k in ((1,), (1, 0, 0)):
        with pytest.raises(ConfigurationError, match="2 components"):
            shift_operator(b, k)


def test_shift_operator_adjoint_pairs():
    lat = _lat()
    b = enumerate_basis(lat, 2)
    for k in ((1,), (-1,)):
        sk = shift_operator(b, k).toarray()
        smk = shift_operator(b, (-k[0],)).toarray()
        assert np.max(np.abs(sk.T - smk)) == 0.0


def _shift_operator_loop(basis, k_mode):
    """Reference n~_k: one state and one mode at a time, dict lookup of each target."""
    lattice, index = basis.lattice, _index(basis)
    rows, cols, vals = [], [], []
    for si, occ in enumerate(basis.occupations.tolist()):
        for qi, q in enumerate(lattice.modes):
            qk = tuple(a + b for a, b in zip(q, k_mode))
            if not lattice.contains(qk):
                continue
            ti = lattice.index(qk)
            if ti == qi:
                if occ[qi]:
                    rows.append(si)
                    cols.append(si)
                    vals.append(float(occ[qi]))
            elif occ[ti]:
                new = list(occ)
                new[ti] -= 1
                new[qi] += 1
                rows.append(index[tuple(new)])
                cols.append(si)
                vals.append(math.sqrt(occ[ti]) * math.sqrt(occ[qi] + 1))
    mat = sparse.csr_matrix(
        (np.array(vals), (np.array(rows, dtype=int), np.array(cols, dtype=int))),
        shape=(basis.dim, basis.dim),
    )
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


@pytest.mark.parametrize("d, m, shifts", [
    (1, 5, [(k,) for k in range(-6, 7)]),
    # every lattice mode, partly-off shifts such as (2, -1), and shifts off entirely
    (2, 3, list(itertools.product(range(-2, 3), repeat=2)) + [(3, 0), (0, -3), (3, 3)]),
    # moves across many modes, either way
    (1, 11, [(k,) for k in (1, -3, 7, -10, 10)]),
])
def test_shift_operator_bit_identical_to_loop(d, m, shifts):
    lat = ModeLattice(d=d, box_len=TAU, m_per_dim=m)
    for n in (0, 1, 3, 5):
        b = enumerate_basis(lat, n)
        for k in shifts:
            got = shift_operator(b, k)
            ref = _shift_operator_loop(b, k)
            assert got.shape == ref.shape
            for a, r in ((got.indptr, ref.indptr), (got.indices, ref.indices), (got.data, ref.data)):
                assert a.dtype == r.dtype
                assert np.array_equal(a, r)


def _single_particle_oracle(lat, u_int, u0, mu, h):
    """N = 1 matrix from the definition, written independently with loops."""
    m = lat.num_modes
    out = np.zeros((m, m))
    for i, mode in enumerate(lat.modes):
        out[i, i] += h * lat.k_squared(mode) + (u0 - mu)
    # (1/V) sum_k U_k ntilde_k ntilde_{-k} on one particle: the particle at q
    # is moved down by k then back up, staying on the lattice at q - k
    for kidx, kmode in enumerate(lat.modes):
        k = kmode[0]
        for j, qmode in enumerate(lat.modes):
            q = qmode[0]
            if lat.contains((q - k,)):
                out[j, j] += u_int[kidx] / lat.volume
    return out


def test_single_particle_hamiltonian_matches_oracle():
    lat = _lat()
    rng = np.random.default_rng(SEED)
    vals = rng.uniform(0.2, 1.0, size=lat.n_pairs + 1)
    u_int = np.empty(lat.num_modes)
    u_int[0] = vals[0]
    for p, (ip, im) in enumerate(lat.pair_list()):
        u_int[ip] = u_int[im] = vals[p + 1]
    b = enumerate_basis(lat, 1)
    h = build_hamiltonian(b, u_int, 0.4, 0.1, hbar2_over_2m=0.7)
    got = h.matrix.toarray()
    ref = _single_particle_oracle(lat, u_int, 0.4, 0.1, 0.7)
    # states are occupation tuples with a single 1; build the mapping explicitly
    state_to_mode = {}
    for si, s in enumerate(b.occupations.tolist()):
        state_to_mode[si] = s.index(1)
    remap = np.zeros_like(ref)
    for si in range(b.dim):
        for sj in range(b.dim):
            remap[state_to_mode[si], state_to_mode[sj]] = got[si, sj].real
    assert np.max(np.abs(remap - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_single_mode_analytic_energy():
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=1)
    b = enumerate_basis(lat, 2)
    h = build_hamiltonian(b, 0.8, 0.3, 0.1)
    ref = 2 * (0.3 - 0.1) + 0.8 * (1.0 / lat.volume) * 4.0
    assert ground_pair(h)[0] == ref
    h_no = build_hamiltonian(b, 0.8, 0.3, 0.1, normal_order=True)
    ref_no = 2 * (0.3 - 0.1) + 0.8 * (1.0 / lat.volume) * (4.0 - 2.0)
    assert ground_pair(h_no)[0] == ref_no


def test_free_gas_is_diagonal_kinetic():
    lat = _lat()
    b = enumerate_basis(lat, 3)
    h = build_hamiltonian(b, 0.0, 0.2, 0.0, hbar2_over_2m=0.5)
    m = h.matrix.toarray()
    off = m - np.diag(np.diag(m))
    assert np.max(np.abs(off)) == 0.0
    k2 = np.array([lat.k_squared(mode) for mode in lat.modes])
    for si, s in enumerate(b.occupations):
        ref = 0.5 * float(np.dot(s, k2)) + 0.2 * 3
        assert abs(m[si, si] - ref) <= 1e-14 * max(1.0, abs(ref))


def test_hamiltonian_hermitian():
    lat = _lat(5)
    rng = np.random.default_rng(SEED + 1)
    vals = rng.uniform(0.1, 0.9, size=lat.n_pairs + 1)
    u_int = np.empty(lat.num_modes)
    u_int[0] = vals[0]
    for p, (ip, im) in enumerate(lat.pair_list()):
        u_int[ip] = u_int[im] = vals[p + 1]
    b = enumerate_basis(lat, 3)
    h = build_hamiltonian(b, u_int, 0.0, 0.0)
    m = h.matrix.tocsr()
    herm = (m - m.T.conj()).toarray()
    assert np.max(np.abs(herm)) <= 1e-13 * np.max(np.abs(m.toarray()))


def test_asymmetric_interaction_rejected():
    lat = _lat()
    u_bad = np.array([0.5, 0.3, 0.4])  # U_{+1} != U_{-1}
    b = enumerate_basis(lat, 2)
    with pytest.raises(ConfigurationError):
        build_hamiltonian(b, u_bad, 0.0, 0.0)


def test_non_hermitian_assembly_raises(monkeypatch):
    lat = _lat()
    b = enumerate_basis(lat, 2)

    def not_adjoint(basis, mode):
        # the same upper-triangular matrix for k and -k: n~_k n~_{-k} is not Hermitian
        return sparse.csr_matrix(np.triu(np.ones((basis.dim, basis.dim))))

    monkeypatch.setattr(fock, "shift_operator", not_adjoint)
    with pytest.raises(SolverError, match="lost Hermiticity"):
        build_hamiltonian(b, 0.6, 0.0, 0.0)


def test_an_asymmetric_interaction_entry_raises(monkeypatch):
    # one term entry below the diagonal loses its mirror's value: the build
    # compares every slot with its transpose slot, the diagonal subtracted or not
    b = enumerate_basis(_lat(5), 3)
    layout, terms = b._terms
    i = next(i for i, (slots, _, _) in enumerate(terms) if np.isin(slots, layout.lower).any())
    slots, values, normal = terms[i]
    j = np.flatnonzero(np.isin(slots, layout.lower))[0]
    assert values[j] == normal[j] != 0.0
    broken = list(terms)
    broken[i] = (slots, values.copy(), normal.copy())
    broken[i][1][j] *= 1.0 + 1e-11
    broken[i][2][j] *= 1.0 + 1e-11
    monkeypatch.setitem(b.__dict__, "_terms", (layout, broken))
    for normal_order in (False, True):
        with pytest.raises(SolverError, match="lost Hermiticity"):
            build_hamiltonian(b, 0.6, 0.0, 0.0, normal_order=normal_order)


def test_momentum_block_structure():
    lat = _lat()
    b = enumerate_basis(lat, 3)
    h = build_hamiltonian(b, 0.6, 0.0, 0.0)
    p = state_momentum(b)[:, 0]
    coo = h.matrix.tocoo()
    assert coo.nnz > b.dim  # interaction really couples states
    assert np.all(p[coo.row] == p[coo.col])


def test_condensate_expectations_both_orderings():
    lat = _lat()
    n = 3
    b = enumerate_basis(lat, n)
    u = 0.7
    h = build_hamiltonian(b, u, 0.0, 0.0)
    # condensate diagonal: k = 0 contributes N^2, each k != 0 contributes N
    n_k_terms = lat.num_modes - 1
    ref = (u / lat.volume) * (n**2 + n_k_terms * n)
    assert abs(condensate_expectation(h) - ref) <= 1e-13 * ref
    h_no = build_hamiltonian(b, u, 0.0, 0.0, normal_order=True)
    ref_no = (u / lat.volume) * (n**2 - n)
    assert abs(condensate_expectation(h_no) - ref_no) <= 1e-13 * max(ref_no, 1.0)


def test_variational_bound():
    lat = _lat()
    b = enumerate_basis(lat, 4)
    for u in (0.05, 0.5, 2.0):
        h = build_hamiltonian(b, u, 0.0, 0.0)
        assert ground_pair(h)[0] <= condensate_expectation(h) + 1e-12


def _ground_pair_all_blocks(h):
    """The loop that solved every block of the basis, kept as the reference: (energy, vector).

    Each block is the dense float64 copy of the sparse slice of `h.matrix` on it.
    """
    energy = None
    for idx in h.basis._terms[0].blocks:
        vals, vecs = np.linalg.eigh(h.matrix[idx][:, idx].toarray())
        if energy is None or vals[0] < energy:
            energy, support, block_vec = float(vals[0]), idx, vecs[:, 0]
    vec = np.zeros(h.dim)
    vec[support] = block_vec
    return energy, vec


def test_ground_pair_residual_and_sparse_path():
    lat = _lat()
    b = enumerate_basis(lat, 3)
    h = build_hamiltonian(b, 0.9, 0.0, 0.0)
    e_small, v_small = ground_pair(h)
    m = h.matrix.toarray()
    assert np.linalg.norm(m @ v_small - e_small * v_small) <= 1e-9 * np.linalg.norm(m)
    # m=9, N=6 (dim 3003, largest block 151) is solved block by block too,
    # checked against Lanczos on the whole sector
    lat9 = _lat(9)
    h9 = build_hamiltonian(enumerate_basis(lat9, 6), 0.9, 0.0, 0.0)
    assert h9.dim == 3003 and max(idx.size for idx in connected_blocks(h9.matrix)) == 151
    e9, v9 = ground_pair(h9)
    v0 = np.random.default_rng(SEED).standard_normal(h9.dim)
    e_lanczos = spla.eigsh(h9.matrix, k=1, which="SA", v0=v0)[0][0]
    assert abs(e9 - e_lanczos) <= 1e-9 * max(1.0, abs(e9))
    assert np.linalg.norm(h9.matrix @ v9 - e9 * v9) <= 1e-9 * spla.norm(h9.matrix)
    # the block-by-block dense solve against one eigh of the whole sector
    lat7 = _lat(7)
    h7 = build_hamiltonian(enumerate_basis(lat7, 5), 0.7, 0.0, 0.0)
    assert len(connected_blocks(h7.matrix)) == 31
    e_block, v_block = ground_pair(h7)
    e_full = np.linalg.eigh(h7.matrix.toarray())[0][0]
    assert abs(e_block - e_full) <= 1e-12 * abs(e_full)
    assert np.isclose(np.linalg.norm(v_block), 1.0, atol=1e-12)


def test_ground_pair_caps_the_largest_block(monkeypatch):
    lat = _lat(7)
    h = build_hamiltonian(enumerate_basis(lat, 5), 0.7, 0.0, 0.0)
    largest = max(idx.size for idx in connected_blocks(h.matrix))
    monkeypatch.setattr(fock, "DENSE_DIM_LIMIT", largest)
    ground_pair(h)
    monkeypatch.setattr(fock, "DENSE_DIM_LIMIT", largest - 1)
    with pytest.raises(ConfigurationError, match=f"largest block {largest} of dimension 462"):
        ground_pair(h)


def _counting(monkeypatch):
    """Record each `eigh` call as ("eigh", size), each certificate as ("above", size, result)."""
    calls = []
    eigh, above = np.linalg.eigh, fock._above
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(("eigh", a.shape[0])) or eigh(a))

    def certify(block, level, unit):
        size, result = block.shape[0], above(block, level, unit)
        calls.append(("above", size, result))
        return result

    monkeypatch.setattr(fock, "_above", certify)
    return calls


def test_ground_pair_solves_only_the_blocks_that_can_hold_the_ground(monkeypatch):
    # compare's couplings at m=7, N=5: 31 blocks a Hamiltonian, so 310 eigh
    # calls when every block is solved; the Gershgorin bound leaves 30 of them,
    # and a Cholesky certificate rules out all but the first
    lat = _lat(7)
    b = enumerate_basis(lat, 5)
    calls = _counting(monkeypatch)
    counts, certified = [], 0
    for u in (1.0, 0.3162, 0.1, 0.03162, 0.01):
        for normal_order in (False, True):
            h = build_hamiltonian(b, u, 0.0, 0.0, normal_order=normal_order)
            del calls[:]
            energy, vec = ground_pair(h)
            counts.append(sum(call[0] == "eigh" for call in calls))
            certified += sum(call[0] == "above" for call in calls)
            ref_energy, ref_vec = _ground_pair_all_blocks(h)
            assert energy == ref_energy and np.array_equal(vec, ref_vec)
    assert counts == [1] * 10
    assert certified == 20


def _stepping_eigh():
    """`np.linalg.eigh` whose values err low by k + 1 ulps on the k-th copy of a block.

    Two units in the last place (ulps) of a value v are at most 2 eps |v|, within
    the 2 n^2 eps max|H_ij| that `_lowering_eigh` allows, and unlike its
    fractions of that they never round to the same value: a tie of equal
    blocks is broken towards the later copy at every block size.
    """
    eigh, seen = np.linalg.eigh, {}

    def stepped(a):
        k = seen[a.tobytes()] = seen.get(a.tobytes(), -1) + 1
        vals, vecs = eigh(a)
        for _ in range(k + 1):
            vals = np.nextafter(vals, -np.inf)
        return vals, vecs

    return stepped


@pytest.mark.parametrize("normal_order", [False, True])
def test_ground_pair_finds_a_ground_outside_the_block_of_lowest_bound(monkeypatch, normal_order):
    # at m=7, N=4, U=0.7, hbar^2/2m=0.1 a block of 16 states has the lowest
    # Gershgorin bound and is solved first, but the ground lies in block 0 (18
    # states, the condensate's): its certificate must fail
    h = build_hamiltonian(
        _basis(1, 7, 4), 0.7, 0.0, 0.0, hbar2_over_2m=0.1, normal_order=normal_order
    )
    layout = h.basis._terms[0]
    calls = _counting(monkeypatch)
    ground, vec = ground_pair(h)
    ref_energy, ref_vec = _ground_pair_all_blocks(h)
    assert ground == ref_energy and np.array_equal(vec, ref_vec)
    assert np.flatnonzero(vec).min() == 0 and layout.blocks.sizes[0] == 18
    assert calls[0] == ("eigh", 16) and ("above", 18, False) in calls
    assert calls[calls.index(("above", 18, False)) + 1] == ("eigh", 18)
    with mock.patch.object(np.linalg, "eigh", _stepping_eigh()):
        energy, vec = ground_pair(h)
    with mock.patch.object(np.linalg, "eigh", _stepping_eigh()):
        ref_energy, ref_vec = _ground_pair_all_blocks(h)
    assert energy == ref_energy and np.array_equal(vec, ref_vec)
    # eigh may report the winning block's level up to n^2 eps max|H_ij| low, so
    # the certificate may pass the block neither at the level eigh gave nor
    # that far below it
    peak = np.abs(h.entries).max()
    exponent = int(np.frexp(peak)[1])
    block = np.ldexp(h.matrix[layout.blocks[0]][:, layout.blocks[0]].toarray(), -exponent)
    unit, level = np.ldexp(peak, -exponent), np.ldexp(ground, -exponent)
    for below in (0.0, 18**2 * np.finfo(float).eps * unit):
        assert not fock._above(block.copy(), level - below, unit)


def test_ground_pair_keeps_a_mirror_tie_that_eigh_rounding_breaks():
    # at N=1 every block is one state; at U=6, hbar^2/2m=0.1 on five modes the
    # ground is the pair of edge modes, two blocks whose values tie bit for bit
    h = build_hamiltonian(_basis(1, 5, 1), 6.0, 0.0, 0.0, hbar2_over_2m=0.1)
    diagonal = h.entries[h.basis._terms[0].diag_slots]
    assert diagonal[3] == diagonal[4] == diagonal.min()
    energy, vec = ground_pair(h)
    assert vec[3] != 0.0 and energy == diagonal[3]
    # the later copy of a block errs lower: the all-blocks answer moves to
    # state 4, so the certificate may not rule that block out at the level
    # eigh gave for state 3
    with mock.patch.object(np.linalg, "eigh", _stepping_eigh()):
        energy, vec = ground_pair(h)
    with mock.patch.object(np.linalg, "eigh", _stepping_eigh()):
        ref_energy, ref_vec = _ground_pair_all_blocks(h)
    assert vec[4] != 0.0 and energy == ref_energy and np.array_equal(vec, ref_vec)


@functools.lru_cache(maxsize=None)
def _basis(d, m, n):
    return enumerate_basis(ModeLattice(d=d, box_len=TAU, m_per_dim=m), n)


@st.composite
def _block_hamiltonians(draw):
    """H from `build_hamiltonian` on a drawn sector, with even couplings of which some may vanish.

    The k -> -k mirror sectors of a basis have the same spectrum.  At N = 1
    every block is one state, and with strong couplings the ground is the
    mirror pair of edge modes, two blocks whose values tie bit for bit.
    """
    sectors = [(1, 3, 0), (1, 3, 1), (1, 5, 1), (2, 3, 1), (1, 3, 3), (1, 5, 3), (1, 7, 4), (2, 3, 2), (2, 3, 3)]
    basis = _basis(*draw(st.sampled_from(sectors)))
    lat = basis.lattice
    size = lat.n_pairs + 1
    values = draw(st.lists(st.sampled_from([0.0, 0.05, 0.7, -0.3, 2.0, 6.0]), min_size=size, max_size=size))
    u_k = np.empty(lat.num_modes)
    u_k[0] = values[0]
    for p, (ip, im) in enumerate(lat.pair_list()):
        u_k[ip] = u_k[im] = values[p + 1]
    u0, mu = draw(st.sampled_from([(0.0, 0.0), (0.4, 0.1), (-0.2, 0.3)]))
    return build_hamiltonian(
        basis, u_k, u0, mu,
        hbar2_over_2m=draw(st.sampled_from([1.0, 0.1])),
        normal_order=draw(st.booleans()),
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(h=_block_hamiltonians())
def test_ground_pair_equals_the_all_blocks_loop(h):
    energy, vec = ground_pair(h)
    ref_energy, ref_vec = _ground_pair_all_blocks(h)
    assert energy == ref_energy
    assert vec.dtype == ref_vec.dtype == np.float64 and np.array_equal(vec, ref_vec)
    # and a dense solve of the whole sector, within the backward error of eigh
    # on a matrix of its dimension
    peak = np.abs(h.matrix.data).max(initial=0.0)
    whole = np.linalg.eigvalsh(h.matrix.toarray())[0]
    assert abs(energy - whole) <= 4.0 * h.dim**2 * np.finfo(float).eps * peak


def _lowering_eigh():
    """`np.linalg.eigh` whose values err low, by more on each later copy of a block.

    eigh's values are exact only for a perturbed matrix, so a computed value
    may lie below the true one by about n^2 eps max|H_ij|, and a Gershgorin
    bound may round up by as much.  The k-th copy of a block (k = 0, 1, ...)
    in one solve has its values lowered by (k + 1) / (k + 2) of twice that:
    within the skip margin, and unequal on equal blocks, so the tie of mirror
    blocks at the ground is broken towards the later copy.
    """
    eigh, seen = np.linalg.eigh, {}

    def lowered(a):
        k = seen[a.tobytes()] = seen.get(a.tobytes(), -1) + 1
        vals, vecs = eigh(a)
        allowed = 2.0 * a.shape[0] ** 2 * np.finfo(float).eps * np.abs(a).max()
        return vals - (k + 1) / (k + 2) * allowed, vecs

    return lowered


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(h=_block_hamiltonians())
def test_ground_pair_skips_no_block_that_eigh_rounding_could_make_the_ground(h):
    # equal blocks are met in index order both here and in the all-blocks loop
    with mock.patch.object(np.linalg, "eigh", _lowering_eigh()):
        energy, vec = ground_pair(h)
    with mock.patch.object(np.linalg, "eigh", _lowering_eigh()):
        ref_energy, ref_vec = _ground_pair_all_blocks(h)
    assert energy == ref_energy and np.array_equal(vec, ref_vec)


def test_ground_pair_solves_finite_entries_whose_gershgorin_discs_overflow():
    # every entry is finite, but the Gershgorin discs of the k = 0 and k = +-1
    # terms reach past the float range unless they are taken on H / 2^e
    u_k = np.array([-1.2e308, 1.4e308, 1.4e308])
    h = build_hamiltonian(enumerate_basis(_lat(), 3), u_k, 0.0, 0.0)
    assert np.isfinite(h.entries).all() and np.isfinite(h.matrix.data).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        energy, vec = ground_pair(h)
    ref_energy, ref_vec = _ground_pair_all_blocks(h)
    assert energy == ref_energy and np.array_equal(vec, ref_vec)
    assert math.isclose(energy, -1.496e308, rel_tol=1e-3)
    # a non-finite entry still leaves no bound to skip by
    entries = h.entries.copy()
    entries[0] = math.inf
    with np.errstate(all="ignore"), pytest.raises(SolverError, match="non-finite"):
        ground_pair(replace(h, entries=entries))


def test_ground_pair_checks_the_residual_at_any_scale(monkeypatch):
    # at u = 1e307 every entry is finite, but |H| and the residual of a wrong
    # vector overflow unless they are taken on H / max|H_ij|
    h = build_hamiltonian(enumerate_basis(_lat(), 3), 1e307, 0.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        energy, vec = ground_pair(h)
    assert np.isfinite(energy) and np.isclose(np.linalg.norm(vec), 1.0)
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (eigh(a)[0], np.roll(eigh(a)[1], 1, axis=0)))
    with pytest.raises(SolverError, match="residual"):
        ground_pair(h)


@pytest.mark.parametrize("d, m, n", [(1, 7, 5), (1, 5, 3), (2, 3, 2)])
def test_ground_pair_blocks_bit_identical_to_sparse_slices(monkeypatch, d, m, n):
    # the blocks handed to eigh are scattered from the basis's slots; each
    # must equal the dense copy of the sparse slice of `h.matrix` on one of the
    # basis's blocks, bit for bit
    lat = ModeLattice(d=d, box_len=TAU, m_per_dim=m)
    h = build_hamiltonian(enumerate_basis(lat, n), 0.7, 0.0, 0.0, normal_order=True)
    seen = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append(a.copy()) or eigh(a))
    ground_pair(h)
    blocks = h.basis._terms[0].blocks
    refs = [h.matrix[idx][:, idx].toarray() for idx in blocks]
    assert len(blocks) > 1 and 1 <= len(seen) <= len(blocks)
    # each solved array is the slice of a block not matched before (equal
    # blocks are interchangeable)
    unmatched = list(range(len(refs)))
    for got in seen:
        hits = [i for i in unmatched if got.dtype == refs[i].dtype and np.array_equal(got, refs[i])]
        assert hits
        unmatched.remove(hits[0])


def test_mirror_relabeling_is_exact_symmetry():
    """k -> -k relabeling with even couplings permutes states and fixes H."""
    lat = _lat(5)
    b = enumerate_basis(lat, 3)
    rng = np.random.default_rng(SEED + 2)
    vals = rng.uniform(0.1, 0.8, size=lat.n_pairs + 1)
    u_int = np.empty(lat.num_modes)
    u_int[0] = vals[0]
    for p, (ip, im) in enumerate(lat.pair_list()):
        u_int[ip] = u_int[im] = vals[p + 1]
    h = build_hamiltonian(b, u_int, 0.2, 0.0, hbar2_over_2m=0.3).matrix.toarray()
    mirror_mode = [lat.index(tuple(-c for c in mode)) for mode in lat.modes]
    index = _index(b)
    perm = np.empty(b.dim, dtype=int)
    for si, s in enumerate(b.occupations.tolist()):
        mirrored = tuple(s[mirror_mode[i]] for i in range(lat.num_modes))
        perm[si] = index[mirrored]
    # same terms accumulate in a different order on the mirrored side, so
    # agreement is to rounding rather than bit-exact
    assert np.max(np.abs(h[np.ix_(perm, perm)] - h)) <= 1e-14 * np.max(np.abs(h))


def _eager_matrix(h, interacting):
    """The CSR that builds used to form eagerly from `h.entries`, kept as the reference."""
    layout = h.basis._terms[0]
    if interacting:
        keep = h.entries != 0.0
    else:
        keep = np.zeros(h.entries.size, dtype=bool)
        keep[layout.diag_slots] = True
    kept = np.concatenate(([0], np.cumsum(keep)))
    return sparse.csr_matrix(
        (h.entries[keep], layout.indices[keep], kept[layout.indptr]), shape=(h.dim, h.dim)
    )


@pytest.mark.parametrize("d, m, n", [(1, 5, 3), (2, 3, 2)])
def test_matrix_is_formed_on_demand_as_the_eager_construction(d, m, n):
    # a build and a solve form no CSR; the one formed on first read equals the
    # eager construction bit for bit, with and without interaction terms
    basis = _basis(d, m, n)
    lat = basis.lattice
    u_k = np.zeros(lat.num_modes)
    u_k[[0, -2, -1]] = 0.7
    for u_int, (u0, mu), normal_order in itertools.product(
        (0.7, u_k, 0.0), ((0.0, 0.0), (0.25, 0.25)), (False, True)
    ):
        h = build_hamiltonian(basis, u_int, u0, mu, normal_order=normal_order)
        ground_pair(h)
        condensate_expectation(h)
        assert "matrix" not in vars(h)
        interacting = np.any(np.asarray(u_int) != 0.0)
        assert h.interacting == interacting
        got, ref = h.matrix, _eager_matrix(h, interacting)
        assert h.matrix is got
        for attr in ("indptr", "indices", "data"):
            a, r = getattr(got, attr), getattr(ref, attr)
            assert a.dtype == r.dtype and a.tobytes() == r.tobytes()
        # with no interaction term the diagonal is kept whole, a zero included
        if not interacting:
            assert got.nnz == h.dim and (u0 != mu or got.data[0] == 0.0)


def test_mean_field_comparison_refuses_a_count_that_is_not_an_integer():
    # int() would take 2.7 as 2 and True as 1
    for n in (2.7, True, 0, -1, "2"):
        with pytest.raises(ConfigurationError, match="n_particles"):
            mean_field_comparison(_lat(), n, (0.5,))


def test_mean_field_comparison_refuses_a_coupling_that_is_not_positive():
    for u in (0.0, math.nan):
        with pytest.raises(ConfigurationError, match="couplings must be positive"):
            mean_field_comparison(_lat(), 2, (0.5, u))


def test_build_hamiltonian_refuses_a_bad_kinetic_scale_and_non_finite_inputs():
    # a non-finite input is a configuration error, not a failed solve
    lat = _lat()
    basis = enumerate_basis(lat, 2)
    for scale in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ConfigurationError, match="hbar2_over_2m must be positive and finite"):
            build_hamiltonian(basis, 0.5, 0.0, 0.0, hbar2_over_2m=scale)
        with pytest.raises(ConfigurationError, match="hbar2_over_2m must be positive and finite"):
            energy_from_eigenvalue(1.0, hbar2_over_2m=scale)
    with pytest.raises(ConfigurationError, match="hbar2_over_2m must be positive and finite"):
        mean_field_comparison(lat, 2, (0.5,), hbar2_over_2m=math.inf)
    for u0_ext, mu in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0), (1e308, -1e308)):
        with pytest.raises(ConfigurationError, match="non-finite Hamiltonian entry"):
            build_hamiltonian(basis, 0.5, u0_ext, mu)
    # finite inputs whose entries overflow
    with np.errstate(over="ignore"):
        for u_int, scale in ((0.5, 1e308), (1.7e308, 1.0)):
            with pytest.raises(ConfigurationError, match="non-finite Hamiltonian entry"):
                build_hamiltonian(basis, u_int, 0.0, 0.0, hbar2_over_2m=scale)


def test_mean_field_comparison_rows():
    lat = _lat()
    rows = mean_field_comparison(lat, 3, (0.5, 0.05))
    assert len(rows) == 2
    for row in rows:
        assert list(row) == [
            "coupling",
            "oracle_epp",
            "oracle_normal_epp",
            "condensate_epp",
            "prediction_epp",
            "functional_epp",
            "abs_dev",
            "rel_dev",
        ]
        assert row["prediction_epp"] == pytest.approx(
            row["coupling"] * 3 / lat.volume, rel=1e-15
        )
        # functional side reproduces the mean-field prediction exactly here
        assert abs(row["functional_epp"] - row["prediction_epp"]) <= 1e-14
        assert row["oracle_epp"] <= row["condensate_epp"] / 1.0 + 1e-12
        assert row["abs_dev"] == pytest.approx(
            abs(row["oracle_epp"] - row["prediction_epp"]), rel=1e-12
        )


@pytest.mark.parametrize("m, n", [(5, 2), (7, 5), (9, 3)])
@pytest.mark.parametrize("normal_order", [False, True])
def test_the_oracle_meets_the_second_order_weak_coupling_law(m, n, normal_order):
    # the ground at U = 0 is the condensate, which is simple, so E(U) is
    # analytic; with hbar^2/2m = 1 its U coefficient is <c|W|c> and its U^2
    # coefficient the Rayleigh-Schroedinger sum over the pair states |k, -k>,
    # each reached with element 2 sqrt(N(N-1))/V at energy 2 k^2
    lat = _lat(m)
    vol, modes = lat.volume, lat.num_modes
    a1 = n * ((n - 1) if normal_order else (n + modes - 1)) / vol
    inverse_k2 = sum(1.0 / lat.k_squared(lat.modes[p]) for p, _ in lat.pair_list())
    a2 = -2.0 * n * (n - 1) / vol**2 * inverse_k2
    basis = _basis(1, m, n)
    remainder = []
    for u in (1.0, 0.3162, 0.1, 0.03162, 0.01):
        energy = ground_pair(build_hamiltonian(basis, u, 0.0, 0.0, normal_order=normal_order))[0]
        remainder.append((energy - u * a1 - u * u * a2) / u**3)
    # the remainder is O(U^3): bounded, and levelled off by U = 0.01 (it moves
    # 3% or less over the last step at every case here)
    assert max(abs(r) for r in remainder) <= 1.5
    assert abs(remainder[-1] - remainder[-2]) <= 0.1 * abs(remainder[-1])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    shape=st.sampled_from([(1, 3), (1, 5), (1, 7), (1, 9), (2, 3)]),
    n=st.integers(1, 7),
    couplings=st.lists(
        st.one_of(st.floats(1e-3, 30.0), st.sampled_from([1e200, 1e300])), min_size=1, max_size=3
    ),
    scale=st.sampled_from([0.5, 1.0, 3.0]),
    n_max=st.integers(0, 2),
)
def test_the_functional_column_is_the_assembled_weak_ground(shape, n, couplings, scale, n_max):
    lat = ModeLattice(d=shape[0], box_len=TAU, m_per_dim=shape[1])
    assume((n_max + 1) ** (lat.num_modes - 1) <= 5000)
    rows = mean_field_comparison(lat, n, couplings, hbar2_over_2m=scale, n_max=n_max)
    for u, row in zip(couplings, rows):
        # the reference: the top eigenvalue of the assembled weak operator
        gamma = u / (scale * lat.volume)
        weak = assemble(ModelParams(gamma=gamma, n_particles=n), HermiteBasis(lat, gamma, n_max))
        lam = solve(weak.at(0.0), 1).values[0]
        ref = float(np.real(energy_from_eigenvalue(lam, hbar2_over_2m=scale))) / n
        assert row["functional_epp"].hex() == ref.hex()


def test_mean_field_comparison_neither_assembles_nor_solves(monkeypatch):
    import phasegas.operator
    import phasegas.spectral

    lat = _lat(5)
    rows = mean_field_comparison(lat, 3, (0.5, 0.05), n_max=2)
    monkeypatch.setattr(phasegas.operator, "assemble", lambda *a, **k: pytest.fail("assembled"))
    monkeypatch.setattr(phasegas.spectral, "solve", lambda *a, **k: pytest.fail("solved"))
    assert mean_field_comparison(lat, 3, (0.5, 0.05), n_max=2) == rows


def test_mean_field_comparison_refuses_an_overflowing_weak_ladder_before_the_oracle(monkeypatch):
    one_mode = ModeLattice(d=1, box_len=TAU, m_per_dim=1)
    # k^2 = 5e307 on the +-1 pair: the ladder's top state -4 k^2 overflows at n_max 2 only
    tiny = ModeLattice(d=1, box_len=TAU / math.sqrt(5e307), m_per_dim=3)
    row = mean_field_comparison(tiny, 1, (1.0,), hbar2_over_2m=1e-3, n_max=1)[0]
    assert math.isfinite(row["functional_epp"])
    monkeypatch.setattr(fock, "enumerate_basis", lambda *a: pytest.fail("the oracle ran"))
    # ebar_N = N^2 gamma overflows on one mode, though the oracle's H = N^2 U / V does not
    for lattice, n, u, scale, n_max in (
        (one_mode, 2, 1e308 * 0.25 * TAU, 0.25, 0),
        (tiny, 1, 1.0, 1e-3, 2),
    ):
        with pytest.raises(ConfigurationError, match="weak ladder overflows"):
            mean_field_comparison(lattice, n, (0.5, u), hbar2_over_2m=scale, n_max=n_max)


def test_hamiltonians_on_one_basis_share_shift_matrices(monkeypatch):
    lat = _lat(5)
    built = []

    def counting(basis, k_mode):
        built.append(k_mode)
        return shift_operator(basis, k_mode)

    monkeypatch.setattr(fock, "shift_operator", counting)
    shared = enumerate_basis(lat, 3)
    cases = list(itertools.product((1.0, 0.05), (False, True)))
    for u, normal_order in cases:
        got = build_hamiltonian(shared, u, 0.0, 0.0, normal_order=normal_order).matrix
        fresh = enumerate_basis(lat, 3)
        ref = build_hamiltonian(fresh, u, 0.0, 0.0, normal_order=normal_order).matrix
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(ref, attr))
    # the shared basis builds each n~_k once, every fresh basis builds all of them
    assert len(built) == lat.num_modes * (1 + len(cases))
    rows = mean_field_comparison(lat, 3, (0.5, 0.05, 0.005))
    assert len(built) == lat.num_modes * (2 + len(cases))
    assert len(rows) == 3


def test_hamiltonians_on_one_basis_share_interaction_terms(monkeypatch):
    lat = _lat(5)
    corrections, tables = [], []
    densities = fock._pair_densities
    monkeypatch.setattr(
        fock, "_pair_densities", lambda basis: corrections.append(basis.dim) or densities(basis)
    )
    layout = fock._layout
    monkeypatch.setattr(fock, "_layout", lambda *a: tables.append(a[0]) or layout(*a))
    shared = enumerate_basis(lat, 3)
    for u in (1.0, 0.05, 0.3):
        for normal_order in (False, True):
            build_hamiltonian(shared, u, 0.0, 0.0, normal_order=normal_order)
    # one store of the n~_k n~_{-k} for both conventions, built once, with
    # one pass for the diagonal correction of every mode
    assert tables == [shared.dim]
    assert corrections == [shared.dim]


def _float_arrays(value):
    """The float64 arrays in a value, through tuples, lists and dicts."""
    if isinstance(value, np.ndarray):
        return [value] if value.dtype == np.float64 else []
    if isinstance(value, dict):
        value = tuple(value.values())
    if isinstance(value, (tuple, list)):
        return [a for v in value for a in _float_arrays(v)]
    return []


def test_both_orderings_share_one_table_of_interaction_terms():
    # after a build in each convention the basis holds each term once, as its
    # values and normal-ordered values on its own slots only: no array with
    # one pattern-length or dim-length row per mode
    lat = _lat(21)
    basis = enumerate_basis(lat, 3)
    for normal_order in (False, True):
        h = build_hamiltonian(basis, 0.7, 0.0, 0.0, normal_order=normal_order)
    held = _float_arrays(tuple(vars(basis).values()))
    assert not [a for a in held if a.ndim == 2 and a.shape[1] in (h.entries.size, basis.dim)]
    layout, terms = basis._terms
    assert len(terms) == lat.num_modes
    assert sum(a.size for a in held) == 2 * sum(slots.size for slots, _, _ in terms)
    for mode, (slots, values, normal) in zip(lat.modes, terms):
        term = (shift_operator(basis, mode) @ shift_operator(basis, tuple(-c for c in mode))).tocoo()
        assert slots.size == values.size == normal.size == term.nnz
        keys = term.row.astype(np.int64) * basis.dim + term.col
        assert np.array_equal(layout.rows[slots] * basis.dim + layout.indices[slots], keys)
        on = term.row == term.col
        corr = np.where(on, _pair_density_diagonal(basis, mode)[term.row], 0.0)
        assert values.tobytes() == term.data.tobytes()
        assert normal.tobytes() == (term.data - corr).tobytes()


def _pair_density_diagonal(basis, k_mode):
    """Diagonal of sum_{q in S_k} n_q with S_k = {q : q and q+k on the lattice}, one mode at a time."""
    src, _ = fock._shift_pairs(basis.lattice, k_mode)
    states, modes = basis._moves[:2]
    on = np.isin(modes, src)
    return np.bincount(
        states[on], basis.occupations[states[on], modes[on]].astype(float), minlength=basis.dim
    )


def _build_matrix_loop(basis, u_int, u0, mu, hbar2_over_2m, normal_order):
    """H by one sparse add per mode, as builds used to run, kept as the reference."""
    dim, lattice = basis.dim, basis.lattice
    k2 = np.array([lattice.k_squared(m) for m in lattice.modes])
    diag = hbar2_over_2m * (basis.occupations.astype(float) @ k2)
    diag = diag + (u0 - mu) * float(basis.n_particles)
    eye = (np.arange(dim), np.arange(dim))
    ham = sparse.csr_matrix((diag, eye), shape=(dim, dim))
    inv_v = 1.0 / lattice.volume
    for i, mode in enumerate(lattice.modes):
        if u_int[i] != 0.0:
            term = shift_operator(basis, mode) @ shift_operator(
                basis, tuple(-c for c in mode)
            )
            if normal_order:
                corr = _pair_density_diagonal(basis, mode)
                term = term - sparse.csr_matrix((corr, eye), shape=(dim, dim))
            ham = ham + (u_int[i] * inv_v) * term
    ham = ham.tocsr()
    ham.sum_duplicates()
    ham.sort_indices()
    return ham


@pytest.mark.parametrize("d, m, n", [(1, 3, 4), (1, 5, 3), (1, 7, 3), (2, 3, 2)])
def test_build_bit_identical_to_one_sparse_add_per_mode(d, m, n):
    lat = ModeLattice(d=d, box_len=TAU, m_per_dim=m)
    basis = enumerate_basis(lat, n)
    rng = np.random.default_rng(SEED + 3)
    vals = rng.uniform(0.1, 2.0, size=lat.n_pairs + 1)
    vals[1::2] = 0.0  # k-dependent, with zeros, the zero mode kept
    u_k = np.empty(lat.num_modes)
    u_k[0] = vals[0]
    for p, (ip, im) in enumerate(lat.pair_list()):
        u_k[ip] = u_k[im] = vals[p + 1]
    assert (u_k == 0.0).any() and (u_k != 0.0).any()
    for u_int, (u0, mu), normal_order in itertools.product(
        (u_k, np.full(lat.num_modes, 0.3162), np.zeros(lat.num_modes)),
        ((0.0, 0.0), (0.4, 0.1), (0.25, 0.25)),
        (False, True),
    ):
        got = build_hamiltonian(basis, u_int, u0, mu, hbar2_over_2m=0.7, normal_order=normal_order)
        ref = _build_matrix_loop(basis, u_int, u0, mu, 0.7, normal_order)
        for attr in ("indptr", "indices", "data"):
            a, r = getattr(got.matrix, attr), getattr(ref, attr)
            assert a.dtype == r.dtype and a.tobytes() == r.tobytes()


def test_non_finite_coupling_rejected():
    lat = _lat()
    b = enumerate_basis(lat, 2)
    with pytest.raises(ConfigurationError, match="finite"):
        build_hamiltonian(b, np.inf, 0.0, 0.0)


def test_exports(tmp_path):
    lat = _lat()
    b = enumerate_basis(lat, 2)
    h = build_hamiltonian(b, 0.3, 0.0, 0.0)
    p1 = tmp_path / "h.txt"
    text = export_hamiltonian(h, p1)
    assert p1.read_text() == text
    assert "triplet" in text.splitlines()[0]
    p2 = tmp_path / "basis.txt"
    btext = export_basis(b, p2)
    assert p2.read_text() == btext
    assert str(b.dim) in btext
