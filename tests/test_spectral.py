"""Spectra, bi-orthogonal eigenpairs, perturbation recursion, calibration."""

import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.linalg as sla
import scipy.optimize
from scipy import sparse

import phasegas.spectral as spectral
from phasegas.errors import ConfigurationError, SolverError, TruncationWarning
from phasegas.hermite import HermiteBasis
from phasegas.lattice import ModeLattice, TAU
from phasegas.operator import (
    OperatorMatrix,
    assemble,
    scaled_params,
    symmetry_weight,
)
from phasegas.params import ModelParams
from phasegas.spectral import (
    EigenPair,
    _min_sum_assignment,
    _real_form,
    _weight_balance,
    calibrate_mu,
    connected_blocks,
    eigen_spectrum,
    energy_from_eigenvalue,
    multiset_match_error,
    perturbation_series,
    series_table,
    solve,
    spectrum_table,
)

SEED = 13


def _setup(m=5, gamma=0.5, n_particles=2, epsilon=0.0, n_max=2):
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=m)
    par = ModelParams(gamma=gamma, n_particles=n_particles, epsilon=epsilon)
    bas = HermiteBasis(lat, gamma, n_max)
    return lat, par, bas


def _scaled(params, basis):
    """The scaling family: `scaled_params` substituted into `assemble`."""
    eff = scaled_params(params)
    return assemble(eff, basis).at(eff.epsilon)


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
    op = assemble(par, bas).at(0.0)
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
    op = assemble(par, bas).at(par.epsilon)
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
            assemble(ModelParams(gamma=0.5, n_particles=2, epsilon=eps), bas).at(eps)
        )
        sp_m = eigen_spectrum(
            assemble(ModelParams(gamma=0.5, n_particles=2, epsilon=-eps), bas).at(-eps)
        )
        a = np.array([p.eigenvalue for p in sp_p])
        b = np.array([p.eigenvalue for p in sp_m])
        assert multiset_match_error(np.conj(a), b) <= 1e-12


def test_ground_state_matches_spectrum_head():
    lat, par, bas = _setup(epsilon=0.3, n_max=3)
    op = assemble(par, bas).at(par.epsilon)
    g = solve(op, 1).pair(0)
    head = eigen_spectrum(op, 1)[0]
    assert g.eigenvalue == head.eigenvalue
    assert np.array_equal(g.right_vector, head.right_vector)


def test_count_argument_truncates():
    lat, par, bas = _setup()
    op = assemble(par, bas).at(0.0)
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
    w = assemble(par, bas).at(0.0)
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
    op = assemble(par, bas).at(par.epsilon)
    # the sectors of the half-box translation and the k <-> -k reflection
    sizes = sorted((b.size for b in connected_blocks(op.matrix)), reverse=True)
    assert sizes == [173, 150, 150, 150, 1, 1]
    got = np.array([p.eigenvalue for p in eigen_spectrum(op)])
    ref = sla.eig(op.matrix.toarray(), right=False) + op.offset
    assert multiset_match_error(got, ref) <= 1e-10
    # at epsilon = 0 the operator is diagonal: every state is its own block
    lat, par0, bas = _setup(epsilon=0.0, n_max=4)
    assert len(connected_blocks(assemble(par0, bas).at(par0.epsilon).matrix)) == op.dim


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


def _series_bordered_lu(op0, op1, max_order):
    """The (D+1) x (D+1) bordered-LU recursion, kept as the reference for the block series."""
    ground = solve(op0, 1).pair(0)
    lam_g, right = ground.eigenvalue, ground.right_vector
    left = ground.left_vector / np.conj(np.vdot(ground.left_vector, right))
    dim = op0.dim
    v_mat = op1.matrix.toarray() + op1.offset * np.eye(dim)
    bordered = np.zeros((dim + 1, dim + 1), dtype=complex)
    bordered[:dim, :dim] = op0.matrix.toarray() + op0.offset * np.eye(dim)
    bordered[np.arange(dim), np.arange(dim)] -= lam_g
    bordered[:dim, dim] = right
    bordered[dim, :dim] = np.conj(left)
    lu = sla.lu_factor(bordered)
    orders, psi = [complex(lam_g)], {0: right.astype(complex)}
    for n in range(1, max_order + 1):
        w = v_mat @ psi[n - 1]
        orders.append(complex(np.vdot(left, w)))
        rhs = -w
        for m in range(1, n + 1):
            rhs = rhs + orders[m] * psi[n - m]
        psi[n] = sla.lu_solve(lu, np.append(rhs, 0.0))[:dim]
    return orders


def _permuted_block_operator(sizes, rng):
    """A permuted block-diagonal op0 whose ground (largest real part, near 0) sits in the first block."""
    dim = sum(sizes)
    dense = np.zeros((dim, dim), dtype=complex)
    start = 0
    for n, size in enumerate(sizes):
        levels = rng.uniform(-8.0, -1.0, size)
        if n == 0:
            levels[0] = 0.0
        noise = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        dense[start : start + size, start : start + size] = np.diag(levels) + 0.1 * noise
        start += size
    perm = rng.permutation(dim)
    return OperatorMatrix(sparse.csr_matrix(dense[np.ix_(perm, perm)]), -0.5, (dim,), "test-h0")


@pytest.mark.parametrize("sizes", [(1, 1, 3, 1, 2, 5, 1), (4, 1, 1, 2, 3), (2,), (1,)])
def test_block_series_matches_bordered_lu_on_random_blocks(sizes):
    rng = np.random.default_rng(SEED + sum(sizes))
    op0 = _permuted_block_operator(sizes, rng)
    assert len(connected_blocks(op0.matrix)) == len(sizes)
    op1 = _random_op(op0.dim, rng, scale=0.3)
    got = perturbation_series(op0, op1, 6).orders
    ref = _series_bordered_lu(op0, op1, 6)
    for g, r in zip(got, ref, strict=True):
        assert abs(g - r) <= 1e-12 * abs(r)


@pytest.mark.parametrize("u", [0.3, -0.7])
def test_block_series_matches_bordered_lu_on_assembled_operators(u):
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=3)
    par = ModelParams(gamma=0.5, n_particles=2, u_k=_potential(lat, u))
    bas = HermiteBasis(lat, 0.5, 3)
    op0 = assemble(par, bas).at(par.epsilon)
    assert max(b.size for b in connected_blocks(op0.matrix)) > 1
    rng = np.random.default_rng(SEED + 4)
    # the drift leaves the pinned ground's orders exactly 0; a random op1 does not
    for op1 in (assemble(par, bas).l1, _random_op(op0.dim, rng, scale=0.05)):
        got = perturbation_series(op0, op1, 6).orders
        ref = _series_bordered_lu(op0, op1, 6)
        for g, r in zip(got, ref, strict=True):
            assert abs(g - r) <= 1e-12 * abs(r)


def test_series_finds_the_blocks_once(monkeypatch):
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=3)
    par = ModelParams(gamma=0.5, n_particles=2, u_k=_potential(lat, 0.3))
    affine = assemble(par, HermiteBasis(lat, 0.5, 3))
    calls = []
    original = spectral.connected_blocks
    monkeypatch.setattr(
        spectral, "connected_blocks", lambda matrix: calls.append(matrix) or original(matrix)
    )
    perturbation_series(affine.at(0.0), affine.l1, 4)
    assert len(calls) == 1


@pytest.mark.parametrize("sizes", [(1, 1, 3, 1, 2, 5, 1), (4, 1, 1, 2, 3)])
def test_reduced_resolvent_inverts_h0_off_any_level(sizes):
    rng = np.random.default_rng(SEED + 10 + sum(sizes))
    op0 = _permuted_block_operator(sizes, rng)
    spectrum = solve(op0)
    total = op0.matrix.toarray() + op0.offset * np.eye(op0.dim)
    rhs = rng.normal(size=op0.dim) + 1j * rng.normal(size=op0.dim)
    for i in (0, 1, op0.dim // 2, op0.dim - 1):
        pair = spectrum.pair(i)
        psi = spectral._reduced_resolvent(spectrum, i)(rhs)
        # (H0 - lam_i) psi = rhs less its component along R_i, and <L_i|psi> = 0
        projected = rhs - pair.right_vector * np.vdot(pair.left_vector, rhs)
        assert np.abs((total - pair.eigenvalue * np.eye(op0.dim)) @ psi - projected).max() <= 1e-12
        assert abs(np.vdot(pair.left_vector, psi)) <= 1e-12


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
    op0 = assemble(par, bas).at(par.epsilon)
    op1 = assemble(par, bas).l1
    series = perturbation_series(op0, op1, 4)
    assert series.orders[0] == -par.ebar_n
    for c in series.orders[1:]:
        assert c == 0.0
    for eps in (0.05, 0.2, 0.4):
        e = solve(
            assemble(ModelParams(gamma=0.5, n_particles=2, epsilon=eps), bas).at(eps), 1
        ).values[0]
        assert e == -par.ebar_n


def test_truncation_stability_of_ground():
    lat, par, _ = _setup(epsilon=0.3)
    e = {}
    for n_max in (2, 4):
        bas = HermiteBasis(lat, par.gamma, n_max)
        e[n_max] = solve(
            assemble(ModelParams(gamma=0.5, n_particles=2, epsilon=0.3), bas).at(0.3), 1
        ).values[0]
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
    e = solve(assemble(par_cal, bas).at(0.0), 1).values[0]
    assert e == 0.0


def test_calibrate_mu_full_variant():
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=5)
    bas = HermiteBasis(lat, 0.5, 3)
    par = ModelParams(gamma=0.5, n_particles=2, epsilon=0.3)
    u0 = calibrate_mu(par, basis=bas, variant="full")
    assert abs(u0 - (-1.0)) <= 1e-10  # pinned eigenvalue: same as weak answer
    with pytest.raises(ConfigurationError):
        calibrate_mu(par, variant="full")  # basis required
    with pytest.raises(ConfigurationError):
        calibrate_mu(ModelParams(gamma=0.5, n_particles=0))
    with pytest.raises(ConfigurationError):
        calibrate_mu(par, variant="nope")


def test_energy_conversion():
    par = ModelParams(gamma=0.5, n_particles=2)
    assert energy_from_eigenvalue(-2.0) == 2.0
    assert energy_from_eigenvalue(-2.0, hbar2_over_2m=0.5) == 1.0
    assert energy_from_eigenvalue(complex(-3.0, 0.25)) == complex(3.0, -0.25)


def test_spectrum_table_round_trip():
    lat, par, bas = _setup(n_max=1)
    pairs = eigen_spectrum(assemble(par, bas).at(0.0), 4)
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
    assert multiset_match_error([2.0 + 1j], [2.5 - 1j]) == abs(-0.5 + 2j)
    assert multiset_match_error([], []) == 0.0
    with pytest.raises(ConfigurationError, match="sizes differ"):
        multiset_match_error([1.0], [1.0, 2.0])


@pytest.mark.parametrize(
    "a, b",
    [
        ([np.nan], [1.0]),
        ([np.inf], [1.0]),
        ([1.0, 2.0], [complex(1.0, np.nan), 2.0]),
        ([1.0, complex(np.inf, -np.inf)], [1.0, 2.0]),
    ],
)
def test_multiset_match_error_rejects_non_finite_entries(a, b):
    with pytest.raises(SolverError, match="no valid assignment"):
        multiset_match_error(a, b)


def test_min_sum_assignment_loads_scipy_only_without_a_certificate(monkeypatch):
    def refuse(cost):
        raise AssertionError("scipy's solver called")

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", refuse)
    w = np.array([-1.0 + 0.5j, -1.0 - 0.5j, -2.0, -3.0 + 1j, -3.0 - 1j, -4.5])
    rows, cols = _min_sum_assignment(np.abs(np.conj(w)[:, None] - w[None, :]))
    assert np.array_equal(rows, np.arange(6))
    assert np.array_equal(cols, [1, 0, 2, 4, 3, 5])
    assert _min_sum_assignment(np.array([[7.0]]))[1].tolist() == [0]
    for tied in ([[1.0, 1.0], [0.0, 2.0]], [[0.0, 1.0], [0.0, 2.0]]):
        with pytest.raises(AssertionError, match="solver called"):
            _min_sum_assignment(np.array(tied))


def _near_tie(x, rng):
    """x with every real part moved 1 ulp towards a random side."""
    side = np.where(rng.random(x.size) < 0.5, -np.inf, np.inf)
    return np.nextafter(x.real, side) + 1j * x.imag


@st.composite
def _cost_matrices(draw):
    """A maker of n x n assignment costs, mostly |a_i - b_j| of complex multisets."""
    kind = draw(
        st.sampled_from(
            ["random", "permuted", "conjugate", "duplicates", "midpoints", "near_tie", "integer"]
        )
    )
    seed = draw(st.integers(0, 2**32 - 1))

    def make(n):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        perm = rng.permutation(n)
        if kind == "random":
            b = rng.normal(size=n) + 1j * rng.normal(size=n)
        elif kind == "permuted":
            b = a[perm]
        elif kind == "conjugate":
            # a closed under conjugation, as a real operator's spectrum is
            a[1::2] = np.conj(a[: n // 2 * 2 : 2])
            b = np.conj(a)[perm]
        elif kind == "duplicates":
            a = a[rng.integers(0, max(1, n // 2), size=n)]
            b = a[perm]
        elif kind == "midpoints":
            # each b_j equidistant from two entries of a: exact or rounding-level ties
            b = 0.5 * (a + a[perm])
        elif kind == "near_tie":
            b = _near_tie(0.5 * (a + a[perm]), rng)
        else:
            cost = rng.integers(0, 3, size=(n, n)).astype(float)
            return np.nextafter(cost, np.where(rng.random((n, n)) < 0.3, np.inf, cost))
        return np.abs(a[:, None] - b[None, :])

    return make


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(make=_cost_matrices())
def test_min_sum_assignment_equals_linear_sum_assignment(make):
    for n in (1, 2, 3, 6, 9):
        cost = make(n)
        ref_rows, ref_cols = scipy.optimize.linear_sum_assignment(cost)
        rows, cols = _min_sum_assignment(cost)
        assert np.array_equal(rows, ref_rows) and np.array_equal(cols, ref_cols)
        assert cost[rows, cols].max() == cost[ref_rows, ref_cols].max()


# -- dense validation --------------------------------------------------------------


def _diagonal_with_block(block, at=1, dim=6):
    """diag(0, -1, ..., 1 - dim) with `block` overwriting the square that starts at (at, at)."""
    m = np.diag(-np.arange(dim, dtype=float)).astype(complex)
    b = block.shape[0]
    m[at : at + b, at : at + b] = block
    return OperatorMatrix(sparse.csr_matrix(m), 0.0, (dim,), "test-dense-checks")


@pytest.mark.parametrize("lam", [-2.0 + 0.5j, 0.0])
@pytest.mark.parametrize("count", [None, 1])
def test_dense_rejects_defective_jordan_block(lam, count):
    op = _diagonal_with_block(np.array([[lam, 1.0], [0.0, lam]]))
    # at lam = 0 the bi-orthonormalized left vectors overflow
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverError, match="defective eigenbasis"):
            eigen_spectrum(op, count)


def test_dense_residual_above_tolerance_raises():
    rng = np.random.default_rng(SEED + 5)
    op = _diagonal_with_block(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)), dim=8)
    assert max(p.residual for p in eigen_spectrum(op)) > 0.0
    with pytest.raises(SolverError, match="exceeds tolerance"):
        eigen_spectrum(op, residual_tol=1e-300)


def test_dense_corrupted_biorthonormalization_raises(monkeypatch):
    rng = np.random.default_rng(SEED + 6)
    sizes = [3, 4, 2]
    dim = sum(sizes)
    m = np.zeros((dim, dim), dtype=complex)
    start = 0
    for b in sizes:
        m[start : start + b, start : start + b] = rng.normal(size=(b, b)) + 1j * rng.normal(
            size=(b, b)
        )
        start += b
    op = OperatorMatrix(sparse.csr_matrix(m), 0.0, (dim,), "test-corrupt")
    eigen_spectrum(op)  # clean run passes
    solve = np.linalg.solve
    calls = []

    def corrupt_second_block(a, b):
        calls.append(a.shape)
        out = solve(a, b)
        return 1.5 * out if len(calls) == 2 else out

    monkeypatch.setattr(np.linalg, "solve", corrupt_second_block)
    with pytest.raises(SolverError, match="bi-orthonormalization failed"):
        eigen_spectrum(op)
    assert len(calls) >= 2


@st.composite
def _block_diagonal_operators(draw):
    """A permuted block-diagonal operator with ties between its blocks.

    Blocks of size 1 take their entry from a short list, so equal 1x1
    eigenvalues recur; a drawn block may be repeated verbatim, giving equal
    eigenvalues in different larger blocks.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for b in draw(st.lists(st.integers(1, 5), min_size=1, max_size=8)):
        if b == 1:
            blocks.append(np.array([[draw(st.sampled_from([0.0, -1.0, -1.0 + 0.5j, 2.0]))]]))
        else:
            blocks.append(rng.normal(size=(b, b)) + 1j * rng.normal(size=(b, b)))
        if draw(st.booleans()):
            blocks.append(blocks[-1])
    dim = sum(b.shape[0] for b in blocks)
    dense = np.zeros((dim, dim), dtype=complex)
    start = 0
    for b in blocks:
        dense[start : start + b.shape[0], start : start + b.shape[0]] = b
        start += b.shape[0]
    perm = rng.permutation(dim)
    offset = draw(st.sampled_from([0.0, -0.75]))
    return OperatorMatrix(sparse.csr_matrix(dense[np.ix_(perm, perm)]), offset, (dim,), "test-h")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(op=_block_diagonal_operators(), data=st.data())
def test_dense_count_and_ground_state_are_heads_of_the_full_spectrum(op, data):
    full = eigen_spectrum(op)
    count = data.draw(st.integers(1, op.dim))
    for got, ref in zip(eigen_spectrum(op, count), full[:count], strict=True):
        assert got.eigenvalue == ref.eigenvalue
        assert got.residual == ref.residual
        assert np.array_equal(got.right_vector, ref.right_vector)
        assert np.array_equal(got.left_vector, ref.left_vector)
    g = solve(op, 1).pair(0)
    assert g.eigenvalue == full[0].eigenvalue and g.residual == full[0].residual
    assert np.array_equal(g.right_vector, full[0].right_vector)
    assert np.array_equal(g.left_vector, full[0].left_vector)
    ref = sla.eig(op.matrix.toarray(), right=False) + op.offset
    assert multiset_match_error([p.eigenvalue for p in full], ref) <= 1e-10


# -- blocked iterative path ------------------------------------------------------


def test_arpack_at_epsilon_zero_equals_dense():
    # every block is 1x1 at epsilon = 0, so no Arnoldi run can skip the
    # degenerate -3 level that a symmetric start vector never reaches
    lat, par, bas = _setup(m=5, n_max=4, epsilon=0.0)
    op = assemble(par, bas).at(par.epsilon)
    dense = eigen_spectrum(op, 6)
    arpack = eigen_spectrum(op, 6, method="arpack")
    assert [p.eigenvalue for p in arpack] == [-2, -3, -3, -4, -4, -4]
    for a, d in zip(arpack, dense, strict=True):
        assert a.eigenvalue == d.eigenvalue and a.residual == 0.0
        assert np.array_equal(a.right_vector, d.right_vector)
        assert np.array_equal(a.left_vector, d.left_vector)


def _potential(lat, u):
    if u == 0.0:
        return None
    u_k = np.full(lat.num_modes, u, dtype=complex)
    u_k[0] = 0.0
    return u_k


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    m=st.sampled_from([3, 5]),
    n_max=st.sampled_from([2, 3]),
    epsilon=st.floats(-0.5, 0.5),
    count=st.integers(1, 6),
    u=st.sampled_from([0.0, 0.3, -0.7]),
)
def test_arpack_heads_equal_dense_heads(m, n_max, epsilon, count, u):
    # u = 0 takes the weight-certified single run, u != 0 the adjoint run
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=m)
    par = ModelParams(gamma=0.5, n_particles=2, epsilon=epsilon, u_k=_potential(lat, u))
    op = assemble(par, HermiteBasis(lat, 0.5, n_max)).at(par.epsilon)
    count = min(count, op.dim - 2)
    full = np.array([p.eigenvalue for p in eigen_spectrum(op)])
    pairs = eigen_spectrum(op, count, method="arpack")
    got = np.array([p.eigenvalue for p in pairs])
    # the same levels in the same order; a conjugate pair tied in the sort
    # key may come out in either order, or either member at the cut
    key = lambda z: np.stack([z.real, np.abs(z.imag)])  # noqa: E731
    assert np.abs(key(got) - key(full[:count])).max() <= 1e-9
    assert np.abs(got[:, None] - full[None, :]).min(axis=1).max() <= 1e-9
    right = np.array([p.right_vector for p in pairs]).T
    left = np.array([p.left_vector for p in pairs]).T
    assert np.abs(left.conj().T @ right - np.eye(count)).max() <= 1e-9
    total = op.matrix + op.offset * sparse.identity(op.dim)
    assert np.linalg.norm(total @ right - right * got, axis=0).max() <= 1e-9
    assert np.linalg.norm(total.conj().T @ left - left * got.conj(), axis=0).max() <= 1e-9 * (
        np.linalg.norm(left, axis=0).max()
    )


def _weight_certified(op):
    return _weight_balance(op.matrix.tocsr(), op.basis_dims) is not None


def test_weight_certificate_holds_exactly_for_constant_potential_in_one_dimension():
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=5)
    bas = HermiteBasis(lat, 0.5, 3)
    par = ModelParams(gamma=0.5, n_particles=2, epsilon=0.2)
    assert _weight_certified(assemble(par, bas).at(0.0))
    assert _weight_certified(assemble(par, bas).at(par.epsilon))
    assert _weight_certified(assemble(par, bas).at(-0.45))
    scaled = ModelParams(gamma=0.5, n_particles=2, kappa=0.04, p_exp=0.3)
    gamma_eff = 0.5 * 0.04 ** 0.4
    assert _weight_certified(_scaled(scaled, HermiteBasis(lat, gamma_eff, 3)))
    # the potential term is raising-only, and in d = 2 the Gram pairing no
    # longer makes the quadratic drift antisymmetric
    with_u = ModelParams(gamma=0.5, n_particles=2, epsilon=0.2, u_k=_potential(lat, 0.3))
    assert not _weight_certified(assemble(with_u, bas).at(with_u.epsilon))
    lat2 = ModeLattice(d=2, box_len=TAU, m_per_dim=3)
    assert not _weight_certified(assemble(par, HermiteBasis(lat2, 0.5, 2)).at(par.epsilon))
    # a weight that does not fit the dimension, or overflows, certifies nothing
    op = assemble(par, bas).at(par.epsilon)
    assert _weight_balance(op.matrix.tocsr(), (op.dim + 1,)) is None
    big = OperatorMatrix(sparse.identity(200, dtype=complex, format="csr"), 0.0, (200,), "t")
    assert not np.isfinite(symmetry_weight(big.basis_dims)).all()
    assert not _weight_certified(big)


@pytest.mark.parametrize("u, runs_per_block", [(0.0, 1), (0.3, 2)])
def test_arpack_runs_per_block_follow_the_certificate(monkeypatch, u, runs_per_block):
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=5)
    par = ModelParams(gamma=0.5, n_particles=2, epsilon=0.2, u_k=_potential(lat, u))
    op = assemble(par, HermiteBasis(lat, 0.5, 3)).at(par.epsilon)
    large = sum(b.size >= 6 for b in connected_blocks(op.matrix))
    checks, runs = [], []
    balance, eigs = spectral._weight_balance, spectral.spla.eigs
    monkeypatch.setattr(spectral, "_weight_balance", lambda *a: checks.append(1) or balance(*a))
    monkeypatch.setattr(spectral.spla, "eigs", lambda *a, **k: runs.append(1) or eigs(*a, **k))
    eigen_spectrum(op, 4, method="arpack")
    assert len(checks) == 1 and len(runs) == runs_per_block * large > 0


def test_arpack_with_a_false_certificate_raises(monkeypatch):
    # the certificate is tested, never assumed: forcing the weight path on an
    # operator the weight does not symmetrize yields wrong left vectors,
    # which the bi-orthonormalization and residual checks must reject
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=5)
    par = ModelParams(gamma=0.5, n_particles=2, epsilon=0.2, u_k=_potential(lat, 0.3))
    op = assemble(par, HermiteBasis(lat, 0.5, 3)).at(par.epsilon)
    eigen_spectrum(op, 4, method="arpack")  # the adjoint path passes

    def forged(matrix, basis_dims):
        weight = symmetry_weight(basis_dims)
        return matrix, np.ones(matrix.shape[0]), np.sign(weight)

    monkeypatch.setattr(spectral, "_weight_balance", forged)
    with pytest.raises(SolverError):
        eigen_spectrum(op, 4, method="arpack")


def test_solve_returns_validated_values_and_expands_only_on_request():
    lat, par, bas = _setup(epsilon=0.2, n_max=3)
    op = assemble(par, bas).at(par.epsilon)
    pairs = eigen_spectrum(op)
    spectrum = solve(op)
    assert np.array_equal(spectrum.values, np.array([p.eigenvalue for p in pairs]))
    assert np.array_equal(spectrum.residuals, np.array([p.residual for p in pairs]))
    for i in (0, 7, op.dim - 1):
        got = spectrum.pair(i)
        assert got.eigenvalue == pairs[i].eigenvalue and got.residual == pairs[i].residual
        assert np.array_equal(got.right_vector, pairs[i].right_vector)
        assert np.array_equal(got.left_vector, pairs[i].left_vector)
    # every returned value is residual-checked, read or not
    with pytest.raises(SolverError, match="exceeds tolerance"):
        solve(op, residual_tol=1e-300)


# -- real form ---------------------------------------------------------------------


def _real_form_of(op):
    return _real_form(op.matrix.tocsr(), op.basis_dims)


def _even_gamma_k(lat):
    # gamma_k = gamma_{-k}, not constant across |k|
    return np.array([0.5 + 0.1 * abs(mode[0]) for mode in lat.modes])


def test_real_form_is_exact_for_every_assembled_operator():
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=5)
    bas = HermiteBasis(lat, 0.5, 3)
    par = ModelParams(gamma=0.5, n_particles=2, epsilon=0.2)
    scaled = ModelParams(gamma=0.5, n_particles=2, kappa=0.04, p_exp=0.3)
    lat2 = ModeLattice(d=2, box_len=TAU, m_per_dim=3)
    ops = [
        assemble(par, bas).at(0.0),
        *(assemble(par, bas).at(e) for e in (0.2, -0.2, -0.37)),
        _scaled(scaled, HermiteBasis(lat, 0.5 * 0.04**0.4, 3)),
        assemble(par, bas).l1,
        assemble(replace(par, u_k=_potential(lat, 0.3)), bas).at(par.epsilon),
        assemble(replace(par, gamma_k=_even_gamma_k(lat)), bas).at(par.epsilon),
        assemble(par, HermiteBasis(lat2, 0.5, 2)).at(par.epsilon),
    ]
    for op in ops:
        form, phase = _real_form_of(op)
        assert phase is not None and form.dtype == np.float64
        assert set(np.unique(phase).tolist()) <= {1, 1j, -1, -1j}
        # S A S^-1 gives back every stored entry of L bit for bit
        back = sparse.diags(phase) @ form @ sparse.diags(phase.conj())
        assert np.array_equal(back.toarray(), op.matrix.toarray())
    # the off-diagonal blocks of an even gamma_k are real with even degree steps
    assert _real_form_of(ops[7])[0].nnz > ops[1].matrix.nnz


def test_conjugate_operators_have_the_same_real_form():
    lat, par, bas = _setup(epsilon=0.2, n_max=3)
    for eps in (0.2, 0.37):
        plus, s_plus = _real_form_of(assemble(par, bas).at(eps))
        minus, s_minus = _real_form_of(assemble(par, bas).at(-eps))
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(plus, attr), getattr(minus, attr))
        assert np.array_equal(s_plus, s_minus.conj())


def test_generic_complex_operator_has_no_real_form():
    rng = np.random.default_rng(SEED + 7)
    op = _random_op(6, rng)
    form, phase = _real_form_of(op)
    assert phase is None and form is not None and np.iscomplexobj(form)
    # a basis that does not match the dimension certifies nothing either
    lat, par, bas = _setup(epsilon=0.2)
    full = assemble(par, bas).at(par.epsilon)
    assert _real_form(full.matrix.tocsr(), (full.dim + 1,))[1] is None


def test_real_form_is_weight_certified_exactly_when_the_operator_is():
    # W' = (-1)^deg W symmetrizes the real form when W symmetrizes L
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=5)
    bas = HermiteBasis(lat, 0.5, 3)
    par = ModelParams(gamma=0.5, n_particles=2, epsilon=0.2)
    lat2 = ModeLattice(d=2, box_len=TAU, m_per_dim=3)
    cases = [
        (assemble(par, bas).at(par.epsilon), True),
        (assemble(par, bas).at(-0.45), True),
        (assemble(replace(par, u_k=_potential(lat, 0.3)), bas).at(par.epsilon), False),
        (assemble(par, HermiteBasis(lat2, 0.5, 2)).at(par.epsilon), False),
    ]
    for op, certified in cases:
        form = _real_form_of(op)[0]
        assert _weight_certified(op) == certified
        assert (_weight_balance(form, op.basis_dims) is not None) == certified


@pytest.mark.parametrize("u", [0.0, 0.7])
def test_demo_spectrum_is_conjugation_closed_and_matches_global_zgeev(u):
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=5)
    par = ModelParams(gamma=0.5, n_particles=2, epsilon=0.2, u_k=_potential(lat, u))
    op = assemble(par, HermiteBasis(lat, 0.5, 3)).at(par.epsilon)
    got = np.array([p.eigenvalue for p in eigen_spectrum(op)])
    # real arithmetic returns complex eigenvalues in exact conjugate pairs
    assert np.array_equal(np.sort(got), np.sort(got.conj()))
    assert (got.imag != 0.0).any() == (u != 0.0)
    ref = sla.eig(op.matrix.toarray(), right=False) + op.offset
    assert multiset_match_error(got, ref) <= 1e-10


@pytest.mark.parametrize("method", ["dense", "arpack"])
def test_every_block_solver_runs_in_real_arithmetic(monkeypatch, method):
    lat, par, bas = _setup(epsilon=0.2, n_max=3)
    op = assemble(par, bas).at(par.epsilon)
    dtypes = []
    eig, eigh, eigs = spectral.sla.eig, spectral.sla.eigh, spectral.spla.eigs
    monkeypatch.setattr(spectral.sla, "eig", lambda a, **k: dtypes.append(a.dtype) or eig(a, **k))
    monkeypatch.setattr(spectral.sla, "eigh", lambda a, **k: dtypes.append(a.dtype) or eigh(a, **k))
    monkeypatch.setattr(
        spectral.spla, "eigs", lambda a, **k: dtypes.append(a.dtype) or eigs(a, **k)
    )
    eigen_spectrum(op, 4 if method == "arpack" else None, method=method)
    assert dtypes and set(dtypes) == {np.dtype(np.float64)}


@pytest.mark.parametrize("method", ["dense", "arpack"])
def test_forged_real_form_raises(monkeypatch, method):
    # the real form's phases are not trusted: every returned pair is checked
    # against the original complex block, so one wrong phase is caught
    lat, par, bas = _setup(epsilon=0.2, n_max=3)
    op = assemble(par, bas).at(par.epsilon)
    count = 4 if method == "arpack" else None
    eigen_spectrum(op, count, method=method)
    largest = max(connected_blocks(op.matrix), key=len)

    def forged(matrix, basis_dims):
        form, phase = _real_form(matrix, basis_dims)
        phase = phase.copy()
        phase[largest[1]] *= 1j
        return form, phase

    monkeypatch.setattr(spectral, "_real_form", forged)
    with pytest.raises(SolverError):
        eigen_spectrum(op, count, method=method)


def test_exact_duplicates_pair_without_loading_scipy_optimize():
    # a real operator's spectrum against its own conjugate, with exactly
    # repeated values from blocks that carry equal spectra
    script = (
        "import sys\n"
        "from phasegas.spectral import multiset_match_error\n"
        "a = [-1.0, -2.0 + 0.5j, -2.0 - 0.5j, -2.0 + 0.5j, -2.0 - 0.5j, -3.0, -3.0]\n"
        "b = [z.conjugate() for z in reversed(a)]\n"
        "assert multiset_match_error(a, b) == 0.0\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    src = str(Path(spectral.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
    # the shortcut returns what the min-sum pairing returns
    a = np.array([-1.0, -2.0 + 0.5j, -2.0 - 0.5j, -2.0 + 0.5j, -2.0 - 0.5j, -3.0, -3.0])
    cost = np.abs(a[:, None] - np.conj(a)[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    assert multiset_match_error(a, np.conj(a)) == cost[rows, cols].max() == 0.0


def test_dense_cap_applies_to_the_largest_block(monkeypatch):
    lat2 = ModeLattice(d=2, box_len=TAU, m_per_dim=3)
    par = ModelParams(gamma=0.5, n_particles=2)
    weak = assemble(par, HermiteBasis(lat2, 0.5, 2)).at(0.0)
    assert weak.dim > spectral.DENSE_DIM_LIMIT
    # every block of the diagonal weak operator is 1x1
    assert solve(weak, 1).values[0] == -par.ebar_n
    # the series solves one block at a time, so it runs at dim 6561
    series = perturbation_series(weak, weak, 1)
    assert series.orders == (-par.ebar_n, -par.ebar_n)
    lat, par, bas = _setup(epsilon=0.2, n_max=4)
    op = assemble(par, bas).at(par.epsilon)
    monkeypatch.setattr(spectral, "DENSE_DIM_LIMIT", 160)
    with pytest.raises(ConfigurationError, match="largest block 173"):
        eigen_spectrum(op)
    with pytest.raises(ConfigurationError, match="largest block 173"):
        perturbation_series(op, op, 1)
    # blocks that ARPACK takes are not capped
    assert len(eigen_spectrum(op, 4, method="arpack")) == 4


def _fix_phases_loop(vr):
    """The per-column phase fixing that `_fix_phases` replaced, kept as the reference.

    Returns the fixed columns, and the argmax row and unit phase of each.
    """
    out = np.array(vr, dtype=complex)
    rows, phases = [], []
    for i in range(out.shape[1]):
        v = out[:, i]
        nrm = np.linalg.norm(v)
        if nrm == 0.0:
            raise SolverError("solver returned a zero eigenvector")
        v = v / nrm
        j = int(np.argmax(np.abs(v)))
        phase = v[j] / abs(v[j])
        out[:, i] = v * np.conj(phase)
        rows.append(j)
        phases.append(phase)
    return out, np.array(rows), np.array(phases)


def test_vectorized_phases_agree_with_the_column_loop():
    eps = np.finfo(float).eps
    rng = np.random.default_rng(SEED + 8)
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=5)
    inputs = []
    # LAPACK vectors of the real form: real for u = 0, complex pairs for u != 0
    for u in (0.0, 0.7):
        par = ModelParams(gamma=0.5, n_particles=2, epsilon=0.2, u_k=_potential(lat, u))
        op = assemble(par, HermiteBasis(lat, 0.5, 3)).at(par.epsilon)
        form, phase = _real_form_of(op)
        for idx in connected_blocks(op.matrix):
            if idx.size > 1:
                _, vl, vr = sla.eig(form[idx][:, idx].toarray(), left=True, right=True)
                inputs += [(vr, phase[idx]), (vl, phase[idx])]
    for _ in range(10):
        s = spectral._UNIT_PHASES[rng.integers(0, 4, 30)]
        inputs.append((rng.normal(size=(30, 8)), s))
        inputs.append((rng.normal(size=(30, 8)) + 1j * rng.normal(size=(30, 8)), s))
    assert {v.dtype for v, _ in inputs} == {np.dtype(np.float64), np.dtype(np.complex128)}
    for v, s in inputs:
        ref, rows, phases = _fix_phases_loop(s[:, None] * v)
        unit, c = spectral._fix_phases(v, s)
        assert unit.dtype == v.dtype
        assert np.array_equal(np.argmax(np.abs(unit), axis=0), rows)
        assert np.abs(np.linalg.norm(unit, axis=0) - 1.0).max() <= 2 * eps
        assert np.abs(c * phases - 1.0).max() <= 2 * eps
        assert np.abs(s[:, None] * unit * c - ref).max() <= 2 * eps
        if not np.iscomplexobj(v):
            # the loop's phase can miss a power of i by an ulp; this one is exact
            assert set(c.tolist()) <= {1, 1j, -1, -1j}
            assert np.array_equal(c, np.conj(np.round(phases.real) + 1j * np.round(phases.imag)))
    with pytest.raises(SolverError, match="zero eigenvector"):
        spectral._fix_phases(np.zeros((3, 2)), np.ones(3))


def test_biorthonormalization_solves_in_real_arithmetic(monkeypatch):
    # every block of the u = 0 operator has a real spectrum, so dgeev returns
    # real vectors and the normalization solve stays in float64
    lat, par, bas = _setup(epsilon=0.2, n_max=3)
    op = assemble(par, bas).at(par.epsilon)
    dtypes = []
    solve = np.linalg.solve
    monkeypatch.setattr(
        np.linalg, "solve", lambda a, b: dtypes.append((a.dtype, b.dtype)) or solve(a, b)
    )
    pairs = eigen_spectrum(op)
    assert len(dtypes) == sum(b.size > 1 for b in connected_blocks(op.matrix))
    assert set(dtypes) == {(np.dtype(np.float64), np.dtype(np.float64))}
    # the vectors handed back are in L's basis and pass the complex checks
    right = np.array([p.right_vector for p in pairs]).T
    left = np.array([p.left_vector for p in pairs]).T
    assert right.dtype == left.dtype == np.complex128
    assert np.abs(left.conj().T @ right - np.eye(op.dim)).max() <= 1e-9


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    m=st.sampled_from([3, 5]),
    n_max=st.sampled_from([2, 3, 4]),
    epsilon=st.floats(-0.5, 0.5),
    u=st.sampled_from([0.0, 0.3]),
)
def test_conjugate_partner_shares_the_real_form_and_the_spectrum(m, n_max, epsilon, u):
    # conj L(eps) is L(-eps) with u_k -> -conj(u_k), so L(-eps) itself for
    # u = 0; `scan` solves L(eps) once and uses its values for L(-eps)
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=m)
    bas = HermiteBasis(lat, 0.5, n_max)
    u_k = _potential(lat, u)
    par = ModelParams(gamma=0.5, n_particles=2, epsilon=epsilon, u_k=u_k)
    op = assemble(par, bas).at(par.epsilon)
    partner_u = None if u_k is None else -np.conj(u_k)
    partner = assemble(replace(par, u_k=partner_u), bas).at(-epsilon)
    assert np.array_equal(partner.matrix.toarray(), op.matrix.toarray().conj())
    spectrum = solve(op)
    assert spectrum.shares_form(partner)
    values = spectrum.values
    again = solve(partner).values
    assert values.tobytes() == again.tobytes()
    # with a potential, L(-eps) is the partner only where the drift vanishes
    # (m = 3, or eps = 0); whenever the check passes, the values agree
    flipped = assemble(par, bas).at(-epsilon)
    if spectrum.shares_form(flipped):
        assert solve(flipped).values.tobytes() == values.tobytes()
    else:
        assert u != 0.0 and epsilon != 0.0 and m == 5


# -- symmetric solves of detailed-balance blocks -------------------------------------


def _general_values(monkeypatch, op):
    """Values of `solve` with the weight certificate withheld, so every block takes `eig`."""
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_weight_balance", lambda matrix, basis_dims: None)
        return solve(op).values


def _lapack_calls(monkeypatch):
    calls = {"eig": [], "eigh": []}
    for name, seen in calls.items():
        original = getattr(spectral.sla, name)
        monkeypatch.setattr(
            spectral.sla, name, lambda a, _f=original, _s=seen, **k: _s.append(a.shape) or _f(a, **k)
        )
    return calls


def _multi_state_blocks(op):
    return sum(b.size > 1 for b in connected_blocks(op.matrix))


@pytest.mark.parametrize("n_max", [3, 4])  # the demo and `dense_spectra` configs
def test_symmetric_path_matches_the_general_path(monkeypatch, n_max):
    lat, par, bas = _setup(epsilon=0.2, n_max=n_max)
    op = assemble(par, bas).at(par.epsilon)
    calls = _lapack_calls(monkeypatch)
    spectrum = solve(op)
    values, residuals = spectrum.values, spectrum.residuals
    # every block is balanced to +-a real symmetric matrix and takes `eigh`
    assert len(calls["eigh"]) == _multi_state_blocks(op) and not calls["eig"]
    assert residuals.max() <= 1e-9
    general = _general_values(monkeypatch, op)
    assert len(calls["eig"]) == _multi_state_blocks(op)
    assert multiset_match_error(values, general) <= 1e-11
    assert np.array_equal(np.sort(values), np.sort(values.conj()))
    ground = spectrum.pair(0)
    total = op.matrix + op.offset * sparse.identity(op.dim)
    assert np.linalg.norm(total @ ground.right_vector - ground.eigenvalue * ground.right_vector) <= 1e-9


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(epsilon=st.floats(-1.0, 1.0))
def test_symmetric_path_matches_the_general_path_at_any_coupling(epsilon):
    lat, par, bas = _setup(epsilon=epsilon, n_max=3)
    op = assemble(par, bas).at(epsilon)
    values = solve(op).values
    with pytest.MonkeyPatch.context() as patch:
        assert multiset_match_error(values, _general_values(patch, op)) <= 1e-11


def test_operators_without_the_weight_certificate_never_reach_eigh(monkeypatch):
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=5)
    par = ModelParams(gamma=0.5, n_particles=2, epsilon=0.2, u_k=_potential(lat, 0.7))
    lat2 = ModeLattice(d=2, box_len=TAU, m_per_dim=3)
    with pytest.warns(TruncationWarning):
        flat = assemble(replace(par, u_k=None), HermiteBasis(lat2, 0.5, 1)).at(par.epsilon)
    for op in (assemble(par, HermiteBasis(lat, 0.5, 3)).at(par.epsilon), flat):
        assert not _weight_certified(op)
        with monkeypatch.context() as patch:
            calls = _lapack_calls(patch)
            try:
                solve(op)
            except SolverError:
                pass  # d = 2 has no usable dense spectrum; only the path matters here
        assert calls["eig"] and not calls["eigh"]


@pytest.mark.parametrize("spoil", ["perturbed", "zero"])
def test_a_failed_symmetric_block_falls_back_to_eig(monkeypatch, spoil):
    lat, par, bas = _setup(epsilon=0.2, n_max=3)
    op = assemble(par, bas).at(par.epsilon)
    general = _general_values(monkeypatch, op)
    eigh = spectral.sla.eigh
    rng = np.random.default_rng(SEED + 9)

    def spoiled(a, **kw):
        ev, v = eigh(a, **kw)
        # vectors off by 1e-6 fail the residual check, zero vectors fail `_fix_phases`
        return ev, (v + 1e-6 * rng.standard_normal(v.shape) if spoil == "perturbed" else 0.0 * v)

    monkeypatch.setattr(spectral.sla, "eigh", spoiled)
    calls = _lapack_calls(monkeypatch)
    spectrum = solve(op)
    values, residuals = spectrum.values, spectrum.residuals
    assert len(calls["eigh"]) == len(calls["eig"]) == _multi_state_blocks(op)
    assert values.tobytes() == general.tobytes()
    assert residuals.max() <= 1e-9


def test_the_a_priori_bound_sends_wide_weights_to_the_general_path():
    # at n_max = 7 eigh's error, mapped back through D^-1, reaches about
    # 2e-9 on the complex block, above the default residual_tol of 1e-9
    def fits(n_max, epsilon):
        lat, par, bas = _setup(epsilon=epsilon, n_max=n_max)
        op = assemble(par, bas).at(epsilon)
        form, _ = _real_form_of(op)
        balanced, scale, sign = _weight_balance(form, op.basis_dims)
        return [
            spectral._symmetric_fits((balanced[idx][:, idx], scale[idx], sign[idx]), 1e-9)
            for idx in connected_blocks(op.matrix)
            if idx.size > 1
        ]

    wide, narrow = fits(7, 0.3), fits(4, 0.2)
    assert len(wide) == 4 and not any(wide)
    assert len(narrow) == 4 and all(narrow)
