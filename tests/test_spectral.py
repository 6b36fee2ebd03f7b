"""Spectra, bi-orthogonal eigenpairs, perturbation recursion, calibration."""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg as sla
from scipy import sparse

from phasegas.errors import ConfigurationError, SolverError
from phasegas.hermite import HermiteBasis
from phasegas.lattice import ModeLattice, TAU
from phasegas.operator import (
    OperatorMatrix,
    assemble_full,
    assemble_weak,
    cubic_drift_operator,
)
from phasegas.params import ModelParams
from phasegas.spectral import (
    EigenPair,
    calibrate_mu,
    connected_blocks,
    eigen_spectrum,
    energy_from_eigenvalue,
    ground_state,
    multiset_match_error,
    perturbation_series,
    series_table,
    spectrum_table,
)

SEED = 13


def _setup(m=5, gamma=0.5, n_particles=2, epsilon=0.0, n_max=2):
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=m)
    par = ModelParams(gamma=gamma, n_particles=n_particles, epsilon=epsilon)
    bas = HermiteBasis(lat, gamma, n_max)
    return lat, par, bas


def _random_op(dim, rng, scale=1.0):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return OperatorMatrix(
        matrix=sparse.csr_matrix(m * scale),
        offset=0.0,
        basis_dims=(dim,),
        provenance="test-random",
    )


def test_weak_spectrum_is_ou_ladder():
    lat, par, bas = _setup(n_max=2)
    op = assemble_weak(par, lat, bas)
    pairs = eigen_spectrum(op)
    got = np.array([p.eigenvalue for p in pairs])
    ladder = []
    for multi in itertools.product(*(range(d) for d in bas.dims)):
        ladder.append(-par.ebar_n - sum(n * k2 for n, k2 in zip(multi, bas.coord_k2)))
    assert multiset_match_error(got, np.array(ladder, dtype=complex)) <= 1e-12
    # descending real part, ground first
    res = [p.eigenvalue.real for p in pairs]
    assert all(a >= b - 1e-12 for a, b in zip(res, res[1:]))
    assert pairs[0].eigenvalue == -par.ebar_n


def test_eigenpairs_satisfy_biorthogonality_and_residuals():
    lat, par, bas = _setup(epsilon=0.4, n_max=3)
    op = assemble_full(par, lat, bas)
    pairs = eigen_spectrum(op)
    r = np.column_stack([p.right_vector for p in pairs])
    l = np.column_stack([p.left_vector for p in pairs])
    gram = l.conj().T @ r
    assert np.max(np.abs(gram - np.eye(op.dim))) <= 1e-9
    m = op.matrix.toarray()
    for p in pairs[:10]:
        lam = p.eigenvalue - op.offset
        right_res = np.linalg.norm(m @ p.right_vector - lam * p.right_vector)
        left_res = np.linalg.norm(p.left_vector.conj() @ m - lam * p.left_vector.conj())
        assert p.residual <= 1e-9
        assert right_res <= 1e-9 * max(1.0, np.linalg.norm(m, np.inf))
        assert left_res <= 1e-9 * max(1.0, np.linalg.norm(m, np.inf))


def test_spectrum_conjugation_pairing():
    lat, _, bas = _setup(n_max=3)
    for eps in (0.1, 0.5):
        sp_p = eigen_spectrum(
            assemble_full(ModelParams(gamma=0.5, n_particles=2, epsilon=eps), lat, bas)
        )
        sp_m = eigen_spectrum(
            assemble_full(ModelParams(gamma=0.5, n_particles=2, epsilon=-eps), lat, bas)
        )
        a = np.array([p.eigenvalue for p in sp_p])
        b = np.array([p.eigenvalue for p in sp_m])
        assert multiset_match_error(np.conj(a), b) <= 1e-12


def test_ground_state_matches_spectrum_head():
    lat, par, bas = _setup(epsilon=0.3, n_max=3)
    op = assemble_full(par, lat, bas)
    g = ground_state(op)
    head = eigen_spectrum(op, 1)[0]
    assert g.eigenvalue == head.eigenvalue
    assert np.array_equal(g.right_vector, head.right_vector)


def test_count_argument_truncates():
    lat, par, bas = _setup()
    op = assemble_weak(par, lat, bas)
    pairs = eigen_spectrum(op, 5)
    assert len(pairs) == 5


def test_arpack_agrees_with_dense_on_separated_spectrum():
    rng = np.random.default_rng(SEED)
    dim = 60
    base = np.diag(np.linspace(0.0, -30.0, dim)) + 0.05 * (
        rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    )
    op = OperatorMatrix(
        matrix=sparse.csr_matrix(base),
        offset=0.5,
        basis_dims=(dim,),
        provenance="test-random",
    )
    dense_pairs = eigen_spectrum(op, 3)
    arp_pairs = eigen_spectrum(op, 3, method="arpack", residual_tol=1e-8)
    for d, a in zip(dense_pairs, arp_pairs):
        assert abs(d.eigenvalue - a.eigenvalue) <= 1e-8
        assert a.residual <= 1e-8
    # arpack ground on the physical weak operator
    lat, par, bas = _setup(n_max=2)
    w = assemble_weak(par, lat, bas)
    g_arp = eigen_spectrum(w, 1, method="arpack")[0]
    assert abs(g_arp.eigenvalue - (-par.ebar_n)) <= 1e-10


def test_one_by_one_operator():
    op = OperatorMatrix(
        matrix=sparse.csr_matrix(np.array([[1.5 - 0.5j]])),
        offset=-1.0,
        basis_dims=(1,),
        provenance="test-tiny",
    )
    (pair,) = eigen_spectrum(op)
    assert pair.eigenvalue == 0.5 - 0.5j
    assert pair.residual == 0.0


def test_blocked_solve_of_permuted_block_diagonal_operator():
    rng = np.random.default_rng(SEED)
    sizes = [7, 5, 9, 3, 1, 1, 1]
    dim = sum(sizes)
    dense = np.zeros((dim, dim), dtype=complex)
    start = 0
    for b in sizes:
        dense[start : start + b, start : start + b] = rng.normal(size=(b, b)) + 1j * rng.normal(
            size=(b, b)
        )
        start += b
    dense[dim - 1, dim - 1] = 0.0  # an isolated index with no stored entry at all
    perm = rng.permutation(dim)
    m = dense[np.ix_(perm, perm)]  # interleaves the blocks
    op = OperatorMatrix(sparse.csr_matrix(m), 0.0, (dim,), "test-blocks")

    inv = np.argsort(perm)
    bounds = np.cumsum([0] + sizes)
    expected = sorted((np.sort(inv[a:b]) for a, b in zip(bounds, bounds[1:])), key=lambda x: x[0])
    assert [b.tolist() for b in connected_blocks(op.matrix)] == [e.tolist() for e in expected]

    pairs = eigen_spectrum(op)
    got = np.array([p.eigenvalue for p in pairs])
    assert multiset_match_error(got, sla.eig(m, right=False)) <= 1e-10
    r = np.column_stack([p.right_vector for p in pairs])
    l = np.column_stack([p.left_vector for p in pairs])
    assert np.max(np.abs(l.conj().T @ r - np.eye(dim))) <= 1e-9
    assert max(p.residual for p in pairs) <= 1e-9


def test_blocked_spectrum_matches_unblocked_zgeev():
    lat, par, bas = _setup(epsilon=0.2, n_max=4)
    op = assemble_full(par, lat, bas)
    # the sectors of the half-box translation and the k <-> -k reflection
    sizes = sorted((b.size for b in connected_blocks(op.matrix)), reverse=True)
    assert sizes == [173, 150, 150, 150, 1, 1]
    got = np.array([p.eigenvalue for p in eigen_spectrum(op)])
    ref = sla.eig(op.matrix.toarray(), right=False) + op.offset
    assert multiset_match_error(got, ref) <= 1e-10
    # at epsilon = 0 the operator is diagonal: every state is its own block
    lat, par0, bas = _setup(epsilon=0.0, n_max=4)
    assert len(connected_blocks(assemble_full(par0, lat, bas).matrix)) == op.dim


# -- perturbation series -----------------------------------------------------------


def _biortho_decomposition(op):
    pairs = eigen_spectrum(op)
    lam = np.array([p.eigenvalue - op.offset for p in pairs])
    r = np.column_stack([p.right_vector for p in pairs])
    l = np.column_stack([p.left_vector for p in pairs])
    return lam, r, l


def test_series_recursion_matches_explicit_sums():
    """Orders 1-3 against textbook sum-over-states formulas on a random pair."""
    rng = np.random.default_rng(SEED + 1)
    dim = 24
    base = np.diag(np.linspace(0.0, -8.0, dim)) + 0.1 * (
        rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    )
    op0 = OperatorMatrix(sparse.csr_matrix(base), 0.0, (dim,), "test-h0")
    op1 = _random_op(dim, rng, scale=0.3)
    series = perturbation_series(op0, op1, 3)

    lam, r, l = _biortho_decomposition(op0)
    v = l.conj().T @ op1.matrix.toarray() @ r
    e1 = v[0, 0]
    denom = lam[0] - lam[1:]
    e2 = np.sum(v[0, 1:] * v[1:, 0] / denom)
    e3 = (
        np.einsum("j,jk,k->", v[0, 1:] / denom, v[1:, 1:], v[1:, 0] / denom)
        - e1 * np.sum(v[0, 1:] * v[1:, 0] / denom**2)
    )
    assert series.orders[0] == lam[0]
    assert abs(series.orders[1] - e1) <= 1e-10 * max(abs(e1), 1.0)
    assert abs(series.orders[2] - e2) <= 1e-10 * max(abs(e2), 1.0)
    assert abs(series.orders[3] - e3) <= 1e-9 * max(abs(e3), 1.0)


def test_series_evaluate_and_tables():
    series = perturbation_series(
        OperatorMatrix(
            sparse.csr_matrix(np.diag([0.0, -2.0, -5.0]).astype(complex)),
            0.0,
            (3,),
            "test-h0",
        ),
        OperatorMatrix(
            sparse.csr_matrix(np.array([[0.0, 1.0, 0], [1.0, 0, 0], [0, 0, 1.0]], dtype=complex)),
            0.0,
            (3,),
            "test-v",
        ),
        2,
    )
    # two-level formula: e2 = |V01|^2/(l0-l1) = 1/2
    assert abs(series.orders[1]) <= 1e-14
    assert abs(series.orders[2] - 0.5) <= 1e-12
    assert abs(series.evaluate(0.1) - (0.0 + 0.01 * 0.5)) <= 1e-13
    text = series_table(series)
    lines = text.strip().splitlines()
    assert lines[0] == "order,re,im"
    assert len(lines) == 4
    assert float(lines[3].split(",")[1]) == series.orders[2].real


def test_degenerate_ground_aborts():
    op0 = OperatorMatrix(
        sparse.csr_matrix(np.diag([1.0, 1.0, 0.0]).astype(complex)),
        0.0,
        (3,),
        "test-degenerate",
    )
    op1 = _random_op(3, np.random.default_rng(SEED + 2))
    with pytest.raises(SolverError):
        perturbation_series(op0, op1, 2)


def test_cubic_series_vanishes_and_ground_is_pinned():
    """Divergence form pins the top eigenvalue: every order beyond 0 is zero
    and the direct eigenvalue does not move with epsilon."""
    lat, par, bas = _setup(epsilon=0.0, n_max=3)
    op0 = assemble_full(par, lat, bas)
    op1 = cubic_drift_operator(par, lat, bas)
    series = perturbation_series(op0, op1, 4)
    assert series.orders[0] == -par.ebar_n
    for c in series.orders[1:]:
        assert c == 0.0
    for eps in (0.05, 0.2, 0.4):
        e = ground_state(
            assemble_full(ModelParams(gamma=0.5, n_particles=2, epsilon=eps), lat, bas)
        ).eigenvalue
        assert e == -par.ebar_n


def test_truncation_stability_of_ground():
    lat, par, _ = _setup(epsilon=0.3)
    e = {}
    for n_max in (2, 4):
        bas = HermiteBasis(lat, par.gamma, n_max)
        e[n_max] = ground_state(
            assemble_full(ModelParams(gamma=0.5, n_particles=2, epsilon=0.3), lat, bas)
        ).eigenvalue
    assert abs(e[4] - e[2]) < 1e-8


# -- calibration and unit conversion ----------------------------------------------


def test_calibrate_mu_closed_form_example():
    par = ModelParams(gamma=0.5, n_particles=3)
    u0 = calibrate_mu(par)
    assert u0 == -1.5
    # assembling with the calibrated offset puts the ground eigenvalue at zero
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=5)
    bas = HermiteBasis(lat, 0.5, 2)
    par_cal = ModelParams(
        gamma=0.5, n_particles=3, u_k=(u0, 0.0, 0.0, 0.0, 0.0), epsilon=0.0
    )
    e = ground_state(assemble_weak(par_cal, lat, bas)).eigenvalue
    assert e == 0.0


def test_calibrate_mu_full_variant():
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=5)
    bas = HermiteBasis(lat, 0.5, 3)
    par = ModelParams(gamma=0.5, n_particles=2, epsilon=0.3)
    u0 = calibrate_mu(par, lattice=lat, basis=bas, variant="full")
    assert abs(u0 - (-1.0)) <= 1e-10  # pinned eigenvalue: same as weak answer
    with pytest.raises(ConfigurationError):
        calibrate_mu(par, variant="full")  # lattice/basis required
    with pytest.raises(ConfigurationError):
        calibrate_mu(ModelParams(gamma=0.5, n_particles=0))
    with pytest.raises(ConfigurationError):
        calibrate_mu(par, variant="nope")


def test_energy_conversion():
    par = ModelParams(gamma=0.5, n_particles=2)
    assert energy_from_eigenvalue(-2.0, par) == 2.0
    assert energy_from_eigenvalue(-2.0, par, hbar2_over_2m=0.5) == 1.0
    assert energy_from_eigenvalue(complex(-3.0, 0.25)) == complex(3.0, -0.25)


def test_spectrum_table_round_trip():
    lat, par, bas = _setup(n_max=1)
    pairs = eigen_spectrum(assemble_weak(par, lat, bas), 4)
    text = spectrum_table(pairs)
    lines = text.strip().splitlines()
    assert lines[0] == "index,re,im,residual"
    row = lines[1].split(",")
    assert float(row[1]) == pairs[0].eigenvalue.real
    assert len(lines) == 5


def test_multiset_match_error_behaviour():
    rng = np.random.default_rng(SEED + 3)
    a = rng.normal(size=8) + 1j * rng.normal(size=8)
    perm = rng.permutation(8)
    assert multiset_match_error(a, a[perm]) <= 1e-15
    b = a.copy()
    b[3] += 1e-4
    assert abs(multiset_match_error(a[perm], b) - 1e-4) <= 1e-12
