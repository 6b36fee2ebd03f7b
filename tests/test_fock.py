"""Exact-diagonalization oracle: basis enumeration, Hamiltonian structure, scans."""

import math

import numpy as np
import pytest
from scipy import sparse

import phasegas.fock as fock
from phasegas.errors import ConfigurationError, SolverError
from phasegas.fock import (
    FockBasis,
    build_hamiltonian,
    comparison_table,
    condensate_expectation,
    enumerate_basis,
    export_basis,
    export_hamiltonian,
    ground_energy,
    ground_pair,
    mean_field_comparison,
    shift_operator,
    state_momentum,
)
from phasegas.lattice import ModeLattice, TAU
from phasegas.spectral import connected_blocks

SEED = 99


def _lat(m=3):
    return ModeLattice(d=1, box_len=TAU, m_per_dim=m)


def test_enumeration_examples():
    b = enumerate_basis(2, 2)
    assert b.states == ((2, 0), (1, 1), (0, 2))
    assert b.dim == 3
    b34 = enumerate_basis(3, 4)
    assert b34.dim == math.comb(4 + 3 - 1, 3 - 1) == 15
    assert all(sum(s) == 4 for s in b34.states)
    assert len(set(b34.states)) == 15
    for i, s in enumerate(b34.states):
        assert b34.index[s] == i


def test_enumeration_guard():
    with pytest.raises(ConfigurationError):
        enumerate_basis(40, 40)  # ~5e22 states


def test_shift_operator_zero_mode_is_number():
    lat = _lat()
    b = enumerate_basis(lat.num_modes, 3, lat)
    s0 = shift_operator(b, lat, (0,)).toarray()
    assert np.array_equal(s0, 3.0 * np.eye(b.dim))


def test_shift_operator_adjoint_pairs():
    lat = _lat()
    b = enumerate_basis(lat.num_modes, 2, lat)
    for k in ((1,), (-1,)):
        sk = shift_operator(b, lat, k).toarray()
        smk = shift_operator(b, lat, (-k[0],)).toarray()
        assert np.max(np.abs(sk.T - smk)) == 0.0


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
    b = enumerate_basis(lat.num_modes, 1, lat)
    h = build_hamiltonian(lat, u_int, 0.4, 0.1, b, hbar2_over_2m=0.7)
    got = h.matrix.toarray()
    ref = _single_particle_oracle(lat, u_int, 0.4, 0.1, 0.7)
    # states are occupation tuples with a single 1; build the mapping explicitly
    state_to_mode = {}
    for si, s in enumerate(b.states):
        state_to_mode[si] = s.index(1)
    remap = np.zeros_like(ref)
    for si in range(b.dim):
        for sj in range(b.dim):
            remap[state_to_mode[si], state_to_mode[sj]] = got[si, sj].real
    assert np.max(np.abs(remap - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_single_mode_analytic_energy():
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=1)
    b = enumerate_basis(1, 2, lat)
    h = build_hamiltonian(lat, 0.8, 0.3, 0.1, b)
    ref = 2 * (0.3 - 0.1) + 0.8 * (1.0 / lat.volume) * 4.0
    assert ground_energy(h) == ref
    h_no = build_hamiltonian(lat, 0.8, 0.3, 0.1, b, normal_order=True)
    ref_no = 2 * (0.3 - 0.1) + 0.8 * (1.0 / lat.volume) * (4.0 - 2.0)
    assert ground_energy(h_no) == ref_no


def test_free_gas_is_diagonal_kinetic():
    lat = _lat()
    b = enumerate_basis(lat.num_modes, 3, lat)
    h = build_hamiltonian(lat, 0.0, 0.2, 0.0, b, hbar2_over_2m=0.5)
    m = h.matrix.toarray()
    off = m - np.diag(np.diag(m))
    assert np.max(np.abs(off)) == 0.0
    k2 = np.array([lat.k_squared(mode) for mode in lat.modes])
    for si, s in enumerate(b.states):
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
    b = enumerate_basis(lat.num_modes, 3, lat)
    h = build_hamiltonian(lat, u_int, 0.0, 0.0, b)
    m = h.matrix.tocsr()
    herm = (m - m.T.conj()).toarray()
    assert np.max(np.abs(herm)) <= 1e-13 * np.max(np.abs(m.toarray()))


def test_asymmetric_interaction_rejected():
    lat = _lat()
    u_bad = np.array([0.5, 0.3, 0.4])  # U_{+1} != U_{-1}
    b = enumerate_basis(lat.num_modes, 2, lat)
    with pytest.raises(ConfigurationError):
        build_hamiltonian(lat, u_bad, 0.0, 0.0, b)


def test_non_hermitian_assembly_raises(monkeypatch):
    lat = _lat()
    b = enumerate_basis(lat.num_modes, 2, lat)

    def not_adjoint(basis, lattice, mode):
        # the same upper-triangular matrix for k and -k: n~_k n~_{-k} is not Hermitian
        return sparse.csr_matrix(np.triu(np.ones((basis.dim, basis.dim))))

    monkeypatch.setattr(fock, "shift_operator", not_adjoint)
    with pytest.raises(SolverError, match="lost Hermiticity"):
        build_hamiltonian(lat, 0.6, 0.0, 0.0, b)


def test_momentum_block_structure():
    lat = _lat()
    b = enumerate_basis(lat.num_modes, 3, lat)
    h = build_hamiltonian(lat, 0.6, 0.0, 0.0, b)
    p = state_momentum(b, lat)[:, 0]
    coo = h.matrix.tocoo()
    assert coo.nnz > b.dim  # interaction really couples states
    assert np.all(p[coo.row] == p[coo.col])


def test_condensate_expectations_both_orderings():
    lat = _lat()
    n = 3
    b = enumerate_basis(lat.num_modes, n, lat)
    u = 0.7
    h = build_hamiltonian(lat, u, 0.0, 0.0, b)
    # condensate diagonal: k = 0 contributes N^2, each k != 0 contributes N
    n_k_terms = lat.num_modes - 1
    ref = (u / lat.volume) * (n**2 + n_k_terms * n)
    assert abs(condensate_expectation(h) - ref) <= 1e-13 * ref
    h_no = build_hamiltonian(lat, u, 0.0, 0.0, b, normal_order=True)
    ref_no = (u / lat.volume) * (n**2 - n)
    assert abs(condensate_expectation(h_no) - ref_no) <= 1e-13 * max(ref_no, 1.0)


def test_variational_bound():
    lat = _lat()
    b = enumerate_basis(lat.num_modes, 4, lat)
    for u in (0.05, 0.5, 2.0):
        h = build_hamiltonian(lat, u, 0.0, 0.0, b)
        assert ground_energy(h) <= condensate_expectation(h) + 1e-12


def test_ground_pair_residual_and_sparse_path(monkeypatch):
    lat = _lat()
    b = enumerate_basis(lat.num_modes, 3, lat)
    h = build_hamiltonian(lat, 0.9, 0.0, 0.0, b)
    e_dense, v_dense = ground_pair(h)
    monkeypatch.setattr(fock, "DENSE_LIMIT", 2)
    e_sparse, v_sparse = ground_pair(h)
    assert abs(e_dense - e_sparse) <= 1e-9 * max(1.0, abs(e_dense))
    m = h.matrix.toarray()
    for e, v in ((e_dense, v_dense), (e_sparse, v_sparse)):
        assert np.linalg.norm(m @ v - e * v) <= 1e-9 * np.linalg.norm(m)
    # the block-by-block dense solve against one eigh of the whole sector
    lat7 = _lat(7)
    h7 = build_hamiltonian(lat7, 0.7, 0.0, 0.0, enumerate_basis(lat7.num_modes, 5, lat7))
    assert len(connected_blocks(h7.matrix)) == 31
    e_block, v_block = ground_pair(h7)
    e_full = np.linalg.eigh(h7.matrix.toarray())[0][0]
    assert abs(e_block - e_full) <= 1e-12 * abs(e_full)
    assert np.isclose(np.linalg.norm(v_block), 1.0, atol=1e-12)


def test_mirror_relabeling_is_exact_symmetry():
    """k -> -k relabeling with even couplings permutes states and fixes H."""
    lat = _lat(5)
    b = enumerate_basis(lat.num_modes, 3, lat)
    rng = np.random.default_rng(SEED + 2)
    vals = rng.uniform(0.1, 0.8, size=lat.n_pairs + 1)
    u_int = np.empty(lat.num_modes)
    u_int[0] = vals[0]
    for p, (ip, im) in enumerate(lat.pair_list()):
        u_int[ip] = u_int[im] = vals[p + 1]
    h = build_hamiltonian(lat, u_int, 0.2, 0.0, b, hbar2_over_2m=0.3).matrix.toarray()
    mirror_mode = [lat.index(tuple(-c for c in mode)) for mode in lat.modes]
    perm = np.empty(b.dim, dtype=int)
    for si, s in enumerate(b.states):
        mirrored = tuple(s[mirror_mode[i]] for i in range(lat.num_modes))
        perm[si] = b.index[mirrored]
    # same terms accumulate in a different order on the mirrored side, so
    # agreement is to rounding rather than bit-exact
    assert np.max(np.abs(h[np.ix_(perm, perm)] - h)) <= 1e-14 * np.max(np.abs(h))


def test_mean_field_comparison_rows():
    lat = _lat()
    rows = mean_field_comparison(lat, 3, (0.5, 0.05))
    assert len(rows) == 2
    for row in rows:
        for col in fock.COMPARISON_COLUMNS:
            assert col in row
        assert row["prediction_epp"] == pytest.approx(
            row["coupling"] * 3 / lat.volume, rel=1e-15
        )
        # functional side reproduces the mean-field prediction exactly here
        assert abs(row["functional_epp"] - row["prediction_epp"]) <= 1e-14
        assert row["oracle_epp"] <= row["condensate_epp"] / 1.0 + 1e-12
        assert row["abs_dev"] == pytest.approx(
            abs(row["oracle_epp"] - row["prediction_epp"]), rel=1e-12
        )
    text = comparison_table(rows)
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(fock.COMPARISON_COLUMNS)
    assert len(lines) == 3


def test_exports(tmp_path):
    lat = _lat()
    b = enumerate_basis(lat.num_modes, 2, lat)
    h = build_hamiltonian(lat, 0.3, 0.0, 0.0, b)
    p1 = tmp_path / "h.txt"
    text = export_hamiltonian(h, p1)
    assert p1.read_text() == text
    assert "triplet" in text.splitlines()[0]
    p2 = tmp_path / "basis.txt"
    btext = export_basis(b, p2)
    assert p2.read_text() == btext
    assert str(b.dim) in btext
