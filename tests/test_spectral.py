"""Spectra, bi-orthogonal eigenpairs, perturbation recursion, calibration."""

import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.linalg as sla
import scipy.optimize
from scipy import sparse

import phasegas.spectral as spectral
from phasegas.cli import csv_text, main
from phasegas.errors import ConfigurationError, SolverError, TruncationWarning
from phasegas.hermite import HermiteBasis
from phasegas.lattice import ModeLattice, TAU
from phasegas.operator import (
    OperatorMatrix,
    assemble,
    export_triplets,
    hermite_degrees,
    load_triplets,
    quarter_translation,
    scaled_params,
    symmetry_weight,
)
from phasegas.params import ModelParams
from phasegas.spectral import (
    EigenPair,
    _real_form,
    _weight_balance,
    calibrate_mu,
    connected_blocks,
    energy_from_eigenvalue,
    multiset_match_error,
    perturbation_series,
    solve,
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
    got = solve(op).values
    ladder = []
    for multi in itertools.product(*(range(d) for d in bas.dims)):
        ladder.append(-par.ebar_n - sum(n * k2 for n, k2 in zip(multi, bas.coord_k2)))
    assert multiset_match_error(got, np.array(ladder, dtype=complex)) <= 1e-12
    # descending real part, ground first
    res = got.real
    assert all(a >= b - 1e-12 for a, b in zip(res, res[1:]))
    assert got[0] == -par.ebar_n


def test_eigenpairs_satisfy_biorthogonality_and_residuals():
    lat, par, bas = _setup(epsilon=0.4, n_max=3)
    op = assemble(par, bas).at(par.epsilon)
    sp = solve(op)
    pairs = [sp.pair(i) for i in range(sp.values.size)]
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
        a = solve(assemble(ModelParams(gamma=0.5, n_particles=2, epsilon=eps), bas).at(eps)).values
        b = solve(
            assemble(ModelParams(gamma=0.5, n_particles=2, epsilon=-eps), bas).at(-eps)
        ).values
        assert multiset_match_error(np.conj(a), b) <= 1e-12


def test_ground_state_matches_spectrum_head():
    lat, par, bas = _setup(epsilon=0.3, n_max=3)
    op = assemble(par, bas).at(par.epsilon)
    g = solve(op, 1).pair(0)
    head = solve(op).pair(0)
    assert g.eigenvalue == head.eigenvalue
    assert np.array_equal(g.right_vector, head.right_vector)


def test_count_argument_truncates():
    lat, par, bas = _setup()
    op = assemble(par, bas).at(0.0)
    assert solve(op, 5).values.size == 5


def test_a_bool_is_not_a_count_or_an_order():
    # Python counts True as the int 1; the library refuses it, as the config
    # schema does, and still takes numpy integers
    lat, par, bas = _setup()
    affine = assemble(par, bas)
    op0, op1 = affine.at(0.0), affine.l1
    with pytest.raises(ConfigurationError, match="count"):
        solve(op0, True)
    with pytest.raises(ConfigurationError, match="max_order"):
        perturbation_series(op0, op1, True)
    assert solve(op0, np.int64(2)).values.size == 2
    assert len(perturbation_series(op0, op1, np.int32(1)).orders) == 2


def test_solve_and_series_refuse_bad_requests():
    lat, par, bas = _setup()
    op = assemble(par, bas).at(0.0)
    with pytest.raises(ConfigurationError, match="requires an explicit count"):
        solve(op, method="arpack")
    with pytest.raises(ConfigurationError, match="unknown eigensolver method 'foo'"):
        solve(op, 1, method="foo")
    other = assemble(par, HermiteBasis(lat, par.gamma, 1)).at(0.0)
    with pytest.raises(ConfigurationError, match="operator dimensions differ"):
        perturbation_series(op, other, 2)


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
    dense = solve(op, 3)
    arp = solve(op, 3, method="arpack", residual_tol=1e-8)
    for d, a, a_res in zip(dense.values, arp.values, arp.residuals):
        assert abs(d - a) <= 1e-8
        assert a_res <= 1e-8
    # arpack ground on the physical weak operator
    lat, par, bas = _setup(n_max=2)
    w = assemble(par, bas).at(0.0)
    g_arp = solve(w, 1, method="arpack").values[0]
    assert abs(g_arp - (-par.ebar_n)) <= 1e-10


def test_one_by_one_operator():
    op = OperatorMatrix(
        matrix=sparse.csr_matrix(np.array([[1.5 - 0.5j]])),
        offset=-1.0,
        basis_dims=(1,),
        provenance="test-tiny",
    )
    sp = solve(op)
    assert sp.values.size == 1
    assert sp.values[0] == 0.5 - 0.5j
    assert sp.residuals[0] == 0.0


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

    sp = solve(op)
    pairs = [sp.pair(i) for i in range(sp.values.size)]
    got = sp.values
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
    got = solve(op).values
    ref = sla.eig(op.matrix.toarray(), right=False) + op.offset
    assert multiset_match_error(got, ref) <= 1e-10
    # at epsilon = 0 the operator is diagonal: every state is its own block
    lat, par0, bas = _setup(epsilon=0.0, n_max=4)
    assert len(connected_blocks(assemble(par0, bas).at(par0.epsilon).matrix)) == op.dim


def _blocks_by_split(matrix):
    """`connected_blocks` as it was written with `np.split`, kept as the reference."""
    csr = sparse.csr_matrix(matrix)
    pattern = sparse.csr_matrix(
        (np.ones(csr.indices.size, dtype=np.int8), csr.indices, csr.indptr), shape=csr.shape
    )
    n_blocks, labels = sparse.csgraph.connected_components(pattern, directed=True, connection="weak")
    members = np.argsort(labels, kind="stable")
    blocks = np.split(members, np.cumsum(np.bincount(labels, minlength=n_blocks))[:-1])
    blocks.sort(key=lambda b: b[0])
    return blocks


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    dim=st.integers(1, 40),
    density=st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.3]),
    seed=st.integers(0, 2**32 - 1),
    complex_data=st.booleans(),
)
def test_connected_blocks_slices_as_np_split_did(dim, density, seed, complex_data):
    rng = np.random.default_rng(seed)
    m = sparse.random(dim, dim, density=density, format="csr", random_state=rng)
    if complex_data:
        m = 1j * m  # purely imaginary data must not be cast away
    _check_partition(m)


def _check_partition(m):
    """`connected_blocks(m)` against `_blocks_by_split(m)`: every block and every field."""
    got, ref = connected_blocks(m), _blocks_by_split(m)
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert np.array_equal(got[-1], ref[-1])
    with pytest.raises(IndexError):
        got[len(ref)]
    sizes = np.array([b.size for b in ref])
    label, position = np.empty(m.shape[0], dtype=int), np.empty(m.shape[0], dtype=int)
    for n, b in enumerate(ref):
        label[b], position[b] = n, np.arange(b.size)
    assert np.array_equal(got.sizes, sizes)
    assert np.array_equal(got.offsets, np.concatenate(([0], np.cumsum(sizes))))
    assert np.array_equal(got.members, np.concatenate(ref))
    assert np.array_equal(got.label, label) and np.array_equal(got.position, position)
    for field in ("label", "members", "offsets", "sizes", "position"):
        assert not getattr(got, field).flags.writeable
    return got


def test_connected_blocks_renumber_components_by_their_smallest_state(monkeypatch):
    # scipy happens to number the components in that order; the partition
    # must not rest on it
    rng = np.random.default_rng(SEED)
    m = sparse.random(30, 30, density=0.04, format="csr", random_state=rng)
    components = sparse.csgraph.connected_components

    def shifted_numbers(*args, **kwargs):
        # a cyclic shift, not an involution: a map confused with its inverse shows
        n, labels = components(*args, **kwargs)
        return n, (labels + 1) % n

    monkeypatch.setattr(spectral.csgraph, "connected_components", shifted_numbers)
    assert len(_check_partition(m)) > 2


@pytest.mark.parametrize("dim", [1, 2, 9])
def test_connected_blocks_of_a_diagonal_and_of_a_single_block(dim):
    # every state alone: a stored diagonal, and no stored entry at all
    for m in (sparse.diags(np.arange(1.0, dim + 1)), sparse.csr_matrix((dim, dim))):
        blocks = _check_partition(sparse.csr_matrix(m))
        assert len(blocks) == dim and (blocks.sizes == 1).all()
    # one block: a chain through a shuffled order of the states, stored one way
    perm = np.random.default_rng(SEED).permutation(dim)
    chain = sparse.csr_matrix((np.ones(dim - 1), (perm[:-1], perm[1:])), shape=(dim, dim))
    blocks = _check_partition(chain)
    assert len(blocks) == 1 and np.array_equal(blocks[0], np.arange(dim))


# -- perturbation series -----------------------------------------------------------


def _biortho_decomposition(op):
    sp = solve(op)
    pairs = [sp.pair(i) for i in range(sp.values.size)]
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
    text = csv_text(("order", "re", "im"), [(j, c.real, c.imag) for j, c in enumerate(series.orders)])
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


def test_spectrum_table_round_trip(tmp_path):
    # the CLI's spectrum.csv reloads to the solved values and residuals bit for bit
    lat, par, bas = _setup(n_max=1)
    sp = solve(assemble(par, bas).at(0.0), 4)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "schema_version": 1,
        "lattice": {"m_per_dim": 5},
        "params": {"gamma": 0.5, "n_particles": 2, "epsilon": 0.0},
        "basis": {"n_max": 1},
        "solver": {"count": 4},
    }))
    assert main(["--config", str(cfg), "--out", str(tmp_path), "spectrum"]) == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "index,re,im,residual"
    rows = [[float(x) for x in line.split(",")[1:]] for line in lines[1:]]
    assert rows == [[v.real, v.imag, r] for v, r in zip(sp.values, sp.residuals)]


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
            solve(op, count)


def test_dense_residual_above_tolerance_raises():
    rng = np.random.default_rng(SEED + 5)
    op = _diagonal_with_block(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)), dim=8)
    assert solve(op).residuals.max() > 0.0
    with pytest.raises(SolverError, match="exceeds tolerance"):
        solve(op, residual_tol=1e-300)


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
    solve(op)  # clean run passes
    np_solve = np.linalg.solve
    calls = []

    def corrupt_second_block(a, b):
        calls.append(a.shape)
        out = np_solve(a, b)
        return 1.5 * out if len(calls) == 2 else out

    monkeypatch.setattr(np.linalg, "solve", corrupt_second_block)
    with pytest.raises(SolverError, match="bi-orthonormalization failed"):
        solve(op)
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
    sp = solve(op)
    full = [sp.pair(i) for i in range(sp.values.size)]
    count = data.draw(st.integers(1, op.dim))
    head = solve(op, count)
    for got, ref in zip([head.pair(i) for i in range(count)], full[:count], strict=True):
        assert got.eigenvalue == ref.eigenvalue
        assert got.residual == ref.residual
        assert np.array_equal(got.right_vector, ref.right_vector)
        assert np.array_equal(got.left_vector, ref.left_vector)
    g = solve(op, 1).pair(0)
    assert g.eigenvalue == full[0].eigenvalue and g.residual == full[0].residual
    assert np.array_equal(g.right_vector, full[0].right_vector)
    assert np.array_equal(g.left_vector, full[0].left_vector)
    ref = sla.eig(op.matrix.toarray(), right=False) + op.offset
    assert multiset_match_error(sp.values, ref) <= 1e-10


# -- blocked iterative path ------------------------------------------------------


def test_arpack_at_epsilon_zero_equals_dense():
    # every block is 1x1 at epsilon = 0, so no Arnoldi run can skip the
    # degenerate -3 level that a symmetric start vector never reaches
    lat, par, bas = _setup(m=5, n_max=4, epsilon=0.0)
    op = assemble(par, bas).at(par.epsilon)
    dense = solve(op, 6)
    arpack = solve(op, 6, method="arpack")
    assert arpack.values.tolist() == [-2, -3, -3, -4, -4, -4]
    for i in range(6):
        a, d = arpack.pair(i), dense.pair(i)
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
    full = solve(op).values
    sp = solve(op, count, method="arpack")
    pairs = [sp.pair(i) for i in range(sp.values.size)]
    got = sp.values
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


@pytest.mark.parametrize("u", [0.0, 0.3])
def test_arpack_count_up_to_the_dimension_solves_every_block_densely(monkeypatch, u):
    # no block has count + 2 states, so every one goes to the dense block code
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=3)
    par = ModelParams(gamma=0.5, n_particles=2, epsilon=0.2, u_k=_potential(lat, u))
    op = assemble(par, HermiteBasis(lat, 0.5, 2)).at(par.epsilon)
    assert op.dim == 9
    runs, eigs = [], spectral.spla.eigs
    monkeypatch.setattr(spectral.spla, "eigs", lambda *a, **k: runs.append(1) or eigs(*a, **k))
    for count in (op.dim - 1, op.dim):
        arpack = solve(op, count, method="arpack")
        dense = solve(op, count)
        assert np.array_equal(arpack.values, dense.values)
        assert np.array_equal(arpack.residuals, dense.residuals)
    assert not runs


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
    # a weight that does not fit the dimension cannot be written down, and
    # one that overflows certifies nothing
    op = assemble(par, bas).at(par.epsilon)
    with pytest.raises(ConfigurationError, match="product of basis_dims"):
        OperatorMatrix(op.matrix, op.offset, (op.dim + 1,), "t")
    big = OperatorMatrix(sparse.identity(200, dtype=complex, format="csr"), 0.0, (200,), "t")
    assert not np.isfinite(symmetry_weight(big.basis_dims)).all()
    assert not _weight_certified(big)


@pytest.mark.parametrize("u, runs_per_block", [(0.0, 1), (0.3, 2)])
def test_arpack_runs_per_block_follow_the_certificate(monkeypatch, u, runs_per_block):
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=5)
    par = ModelParams(gamma=0.5, n_particles=2, epsilon=0.2, u_k=_potential(lat, u))
    op = assemble(par, HermiteBasis(lat, 0.5, 3)).at(par.epsilon)
    # a certified translation partner reuses its representative's runs
    large = sum(b.size >= 6 for b in connected_blocks(op.matrix)) - len(_translation_pairs(op))
    checks, runs = [], []
    balance, eigs = spectral._weight_balance, spectral.spla.eigs
    monkeypatch.setattr(spectral, "_weight_balance", lambda *a: checks.append(1) or balance(*a))
    monkeypatch.setattr(spectral.spla, "eigs", lambda *a, **k: runs.append(1) or eigs(*a, **k))
    solve(op, 4, method="arpack")
    assert len(checks) == 1 and len(runs) == runs_per_block * large > 0


def test_arpack_with_a_false_certificate_raises(monkeypatch):
    # the certificate is tested, never assumed: forcing the weight path on an
    # operator the weight does not symmetrize yields wrong left vectors,
    # which the bi-orthonormalization and residual checks must reject
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=5)
    par = ModelParams(gamma=0.5, n_particles=2, epsilon=0.2, u_k=_potential(lat, 0.3))
    op = assemble(par, HermiteBasis(lat, 0.5, 3)).at(par.epsilon)
    solve(op, 4, method="arpack")  # the adjoint path passes

    def forged(matrix, basis_dims):
        weight = symmetry_weight(basis_dims)
        return matrix, np.ones(matrix.shape[0]), np.sign(weight)

    monkeypatch.setattr(spectral, "_weight_balance", forged)
    with pytest.raises(SolverError):
        solve(op, 4, method="arpack")


def test_arpack_retries_once_with_a_wider_krylov_space(monkeypatch):
    # a run that does not converge is repeated once with twice the default
    # Krylov dimension, capped at the block size
    lat, par, bas = _setup(epsilon=0.1, n_max=3)
    op = assemble(par, bas).at(par.epsilon)
    unforced = solve(op, 4, method="arpack")
    calls, eigs = [], spectral.spla.eigs

    def stalls_once(a, **k):
        calls.append((a.shape[0], k))
        if len(calls) == 1:
            raise spectral.spla.ArpackNoConvergence("forced", np.empty(0), np.empty((a.shape[0], 0)))
        return eigs(a, **k)

    monkeypatch.setattr(spectral.spla, "eigs", stalls_once)
    forced = solve(op, 4, method="arpack")
    (size, first), (again, retry) = calls[:2]
    assert again == size and "ncv" not in first
    assert retry["ncv"] == min(size, 2 * max(2 * first["k"] + 1, 20))
    assert np.abs(forced.values - unforced.values).max() <= 1e-9


def test_solve_returns_validated_values_and_expands_only_on_request():
    lat, par, bas = _setup(epsilon=0.2, n_max=3)
    op = assemble(par, bas).at(par.epsilon)
    full = solve(op)
    pairs = [full.pair(i) for i in range(full.values.size)]
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
    # a basis that does not match the dimension is refused before any solve
    lat, par, bas = _setup(epsilon=0.2)
    full = assemble(par, bas).at(par.epsilon)
    dims = full.basis_dims
    for bad in ((full.dim + 1,), dims[:-1], dims[:-1] + (0,), dims[:-1] + (float(dims[-1]),)):
        with pytest.raises(ConfigurationError, match="product of basis_dims"):
            OperatorMatrix(full.matrix, full.offset, bad, "t")


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


def _balance_by_diags(matrix, basis_dims):
    """`_weight_balance` as it was written with sparse `diags` products, kept as the reference."""
    dim = matrix.shape[0]
    if int(np.prod(basis_dims)) != dim:
        return None
    weight = symmetry_weight(basis_dims)
    if not np.iscomplexobj(matrix):
        weight = np.where(hermite_degrees(basis_dims) % 2 == 0, weight, -weight)
    if not np.isfinite(weight).all():
        return None
    scale = np.sqrt(np.abs(weight) / np.abs(weight).max())
    sign = np.sign(weight)
    balanced = (sparse.diags(scale) @ matrix @ sparse.diags(1.0 / scale)).tocsr()
    signed = sparse.diags(sign) @ balanced
    if not abs(signed - signed.T).max() <= 1e-13 * abs(balanced).max():
        return None
    return balanced, scale, sign


def _symmetric_pattern(matrix):
    pattern = sparse.csr_matrix(
        (np.ones(matrix.nnz), matrix.indices, matrix.indptr), shape=matrix.shape
    )
    return (pattern - pattern.T).count_nonzero() == 0


def _same_csr(a, b):
    return all(
        getattr(a, attr).dtype == getattr(b, attr).dtype
        and getattr(a, attr).tobytes() == getattr(b, attr).tobytes()
        for attr in ("indptr", "indices", "data")
    )


@st.composite
def _small_operators(draw):
    """L(epsilon) on a small d = 1 or d = 2 lattice with a random gamma and potential."""
    d = draw(st.sampled_from([1, 1, 2]))
    m = draw(st.sampled_from([3, 5])) if d == 1 else 3
    n_max = draw(st.integers(0, 4 if d == 1 else 1))
    lat = ModeLattice(d=d, box_len=TAU, m_per_dim=m)
    gamma = draw(st.floats(0.2, 2.0))
    u = draw(st.sampled_from([0.0, 0.0, 0.3, -0.7]))
    par = ModelParams(gamma=gamma, n_particles=2, u_k=_potential(lat, u))
    epsilon = draw(st.sampled_from([0.0, 0.1, -0.3, 0.45]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        return assemble(par, HermiteBasis(lat, gamma, n_max)).at(epsilon)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(op=_small_operators())
def test_block_order_and_array_balance_match_the_sparse_references(op):
    matrix = op.matrix.tocsr()
    work, phase = _real_form(matrix, op.basis_dims)
    blocks = connected_blocks(matrix)
    # the real form, and L itself as a complex matrix
    for form in (work, matrix):
        got, ref = _weight_balance(form, op.basis_dims), _balance_by_diags(form, op.basis_dims)
        # the same decision, but that a pattern without its transpose certifies nothing
        assert (got is None) == (ref is None or not _symmetric_pattern(form))
        if got is not None:
            assert _same_csr(got[0], ref[0])
            assert np.array_equal(got[1], ref[1]) and np.array_equal(got[2], ref[2])
        for idx in blocks:
            block, gather = spectral._diagonal_block(form, idx, blocks.position)
            assert _same_csr(block, form[idx][:, idx])
            rows = np.asarray(abs(block).sum(axis=1)).ravel()
            assert spectral._row_abs_sums(block).tobytes() == rows.tobytes()
            if got is not None:
                balanced = sparse.csr_matrix(
                    (got[0].data[gather], block.indices, block.indptr), shape=block.shape
                )
                assert _same_csr(balanced, ref[0][idx][:, idx])
                if np.isrealobj(balanced.data):
                    # the bound as it was written on scipy's sparse block
                    diag = balanced.diagonal()
                    sums = np.asarray(abs(balanced).sum(axis=1)).ravel()
                    assert spectral._gershgorin_bound(balanced) == (diag - np.abs(diag) + sums).max()


def test_an_entry_without_a_transpose_partner_certifies_nothing():
    # W' = (1, 1, 2) on basis_dims (3,), so D = (1/sqrt 2, 1/sqrt 2, 1) leaves
    # entries (0, 1) and (1, 0) as they are and max|B| = 3.  The sparse
    # difference held a lone entry to |B_01 - 0| <= 1e-13 max|B| and passed
    # 2e-13; the certificate now refuses any entry whose transpose position
    # holds none, and keeps the bound for every pair
    def certified(entries):
        m = np.diag([-1.0, -2.0, -3.0])
        for (r, c), value in entries.items():
            m[r, c] = value
        matrix = sparse.csr_matrix(m)
        return _weight_balance(matrix, (3,)) is not None, _balance_by_diags(matrix, (3,)) is not None

    assert certified({(0, 1): 2e-13}) == (False, True)
    assert certified({(0, 1): 4e-13}) == (False, False)
    assert certified({(0, 1): 1.0, (1, 0): 1.0}) == (True, True)
    assert certified({(0, 1): 1.0, (1, 0): 1.0 + 2e-13}) == (True, True)
    assert certified({(0, 1): 1.0, (1, 0): 1.0 + 1e-12}) == (False, False)


def test_a_matrix_with_duplicate_entries_solves_as_its_sum():
    # `solve` sums duplicates before it reads a diagonal or gathers a block,
    # so an entry split in two halves, each row stored twice over, gives the
    # operator's own spectrum bit for bit (0.5 x + 0.5 x = x exactly)
    lat, par, bas = _setup(epsilon=0.2, n_max=3)
    op = assemble(par, bas).at(par.epsilon)
    m = op.matrix.tocsr()
    spans = list(zip(m.indptr[:-1], m.indptr[1:]))
    halves = sparse.csr_matrix(
        (
            np.concatenate([np.tile(0.5 * m.data[a:b], 2) for a, b in spans]),
            np.concatenate([np.tile(m.indices[a:b], 2) for a, b in spans]),
            2 * m.indptr,
        ),
        shape=m.shape,
    )
    assert not halves.has_canonical_format
    split = OperatorMatrix(halves, op.offset, op.basis_dims, "split")
    for count in (None, 1):
        for method in ("dense", "arpack") if count else ("dense",):
            got, ref = solve(split, count, method=method), solve(op, count, method=method)
            assert got.values.tobytes() == ref.values.tobytes()
            assert got.residuals.tobytes() == ref.residuals.tobytes()


@pytest.mark.parametrize("u", [0.0, 0.7])
def test_demo_spectrum_is_conjugation_closed_and_matches_global_zgeev(u):
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=5)
    par = ModelParams(gamma=0.5, n_particles=2, epsilon=0.2, u_k=_potential(lat, u))
    op = assemble(par, HermiteBasis(lat, 0.5, 3)).at(par.epsilon)
    got = solve(op).values
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
    solve(op, 4 if method == "arpack" else None, method=method)
    assert dtypes and set(dtypes) == {np.dtype(np.float64)}


@pytest.mark.parametrize("method", ["dense", "arpack"])
def test_forged_real_form_raises(monkeypatch, method):
    # the real form's phases are not trusted: `solve` checks S^-1 L S against
    # the form entry by entry, so one wrong phase is caught
    lat, par, bas = _setup(epsilon=0.2, n_max=3)
    op = assemble(par, bas).at(par.epsilon)
    count = 4 if method == "arpack" else None
    solve(op, count, method=method)
    largest = max(connected_blocks(op.matrix), key=len)

    def forged(matrix, basis_dims):
        form, phase = _real_form(matrix, basis_dims)
        phase = phase.copy()
        phase[largest[1]] *= 1j
        return form, phase

    monkeypatch.setattr(spectral, "_real_form", forged)
    with pytest.raises(SolverError):
        solve(op, count, method=method)


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
        solve(op)
    with pytest.raises(ConfigurationError, match="largest block 173"):
        perturbation_series(op, op, 1)
    # blocks that ARPACK takes are not capped
    assert solve(op, 4, method="arpack").values.size == 4


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
    # real vectors and the normalization solve stays in float64; the weight
    # certificate is withheld, since blocks that take `eigh` need no solve
    lat, par, bas = _setup(epsilon=0.2, n_max=3)
    op = assemble(par, bas).at(par.epsilon)
    orbits = _orbits(op)
    monkeypatch.setattr(spectral, "_weight_balance", lambda matrix, basis_dims: None)
    dtypes = []
    np_solve = np.linalg.solve
    monkeypatch.setattr(
        np.linalg, "solve", lambda a, b: dtypes.append((a.dtype, b.dtype)) or np_solve(a, b)
    )
    sp = solve(op)
    pairs = [sp.pair(i) for i in range(sp.values.size)]
    assert len(dtypes) == orbits
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


class _Certified(Exception):
    """Stops a `solve` once its translation pairs are known."""


def _translation_pairs(op):
    """{partner: (representative, positions, signs)} of the translation pairs `solve` certifies on `op`."""
    seen, original = [], spectral._translation_partners

    def certify(*args):
        seen.append(original(*args))
        raise _Certified

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_translation_partners", certify)
        try:
            solve(op, 1)
        except _Certified:
            pass
    return seen[0] if seen else {}


def _orbits(op):
    """The multi-state blocks a solver is handed: one per orbit of the certified translation pairs."""
    return _multi_state_blocks(op) - len(_translation_pairs(op))


@pytest.mark.parametrize("n_max", [3, 4])  # the demo and `dense_spectra` configs
def test_symmetric_path_matches_the_general_path(monkeypatch, n_max):
    lat, par, bas = _setup(epsilon=0.2, n_max=n_max)
    op = assemble(par, bas).at(par.epsilon)
    orbits = _orbits(op)
    calls = _lapack_calls(monkeypatch)
    spectrum = solve(op)
    values, residuals = spectrum.values, spectrum.residuals
    # every block is balanced to +-a real symmetric matrix and takes `eigh`,
    # once per orbit of the translation pairs
    assert len(calls["eigh"]) == orbits and not calls["eig"]
    assert residuals.max() <= 1e-9
    general = _general_values(monkeypatch, op)
    assert len(calls["eig"]) == orbits
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

    orbits = _orbits(op)
    monkeypatch.setattr(spectral.sla, "eigh", spoiled)
    calls = _lapack_calls(monkeypatch)
    spectrum = solve(op)
    values, residuals = spectrum.values, spectrum.residuals
    assert len(calls["eigh"]) == len(calls["eig"]) == orbits
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


# -- blocks that cannot hold the head --------------------------------------------


def _all_blocks(monkeypatch, op, count, method):
    """`solve` with every block's bound withheld, so no block is skipped."""
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_gershgorin_bound", lambda block: np.inf)
        return solve(op, count, method=method)


def _dense_solves(monkeypatch):
    """Sizes of the blocks `_dense_block` is handed, in call order."""
    sizes, dense_block = [], spectral._dense_block
    monkeypatch.setattr(
        spectral, "_dense_block", lambda sub, *a: sizes.append(sub.shape[0]) or dense_block(sub, *a)
    )
    return sizes


@pytest.mark.parametrize("method", ["dense", "arpack"])
@pytest.mark.parametrize("count", [1, 3, 6])
@pytest.mark.parametrize(
    "n_max, epsilon", [(4, 0.1), (3, 0.05), (3, 0.1), (3, 0.2), (3, 0.4)]
)  # `dense_spectra` at its perturb point, then the demo's perturb grid
def test_a_count_returns_the_head_of_the_all_blocks_solve(monkeypatch, n_max, epsilon, count, method):
    lat, par, bas = _setup(epsilon=epsilon, n_max=n_max)
    op = assemble(par, bas).at(epsilon)
    got = solve(op, count, method=method)
    refs = [_all_blocks(monkeypatch, op, count, method)]
    if method == "dense":
        refs.append(solve(op))
    for ref in refs:
        assert got.values.tobytes() == ref.values[:count].tobytes()
        assert got.residuals.tobytes() == ref.residuals[:count].tobytes()
        assert np.array_equal(got.slots, ref.slots[:count])
        assert np.array_equal(got.owners, ref.owners[:count])
        for i in range(count):
            a, b = got.pair(i), ref.pair(i)
            assert np.array_equal(a.right_vector, b.right_vector)
            assert np.array_equal(a.left_vector, b.left_vector)
    # the values of every block that was skipped stay NaN, and no other does
    unsolved = np.repeat(~got.solved, np.diff(np.append(got.starts, got.block_values.size)))
    assert np.array_equal(np.isnan(got.block_values), unsolved)


def test_only_the_blocks_that_can_hold_the_ground_are_solved(monkeypatch):
    sizes = _dense_solves(monkeypatch)
    lat, par, bas = _setup(epsilon=0.1, n_max=4)
    sp = solve(assemble(par, bas).at(0.1), 1)
    # the four multi-state blocks are bounded far below the 1x1 ground at 0
    assert sizes == [] and (~sp.solved).sum() == 4
    lat, par, bas = _setup(epsilon=0.4, n_max=3)
    op = assemble(par, bas).at(0.4)
    sp = solve(op, 1)
    # four multi-state blocks, one translation pair of them solved once
    assert _multi_state_blocks(op) == 4 and len(sizes) == _orbits(op) == 3 and sp.solved.all()


def test_blocks_too_wide_for_eigh_are_never_skipped(monkeypatch):
    # at n_max = 7 the a-priori bound sends every block to `eig`, so no
    # block is bounded and the first one reaches the dense solver
    lat, par, bas = _setup(epsilon=0.3, n_max=7)
    op = assemble(par, bas).at(0.3)
    bounds, gershgorin = [], spectral._gershgorin_bound

    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(spectral, "_gershgorin_bound", lambda block: bounds.append(1) or gershgorin(block))
    monkeypatch.setattr(spectral, "_dense_block", reached)
    with pytest.raises(Reached):
        solve(op, 1)
    assert not bounds


def _uncertified_operators():
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=5)
    par = ModelParams(gamma=0.5, n_particles=2, epsilon=0.2, u_k=_potential(lat, 0.7))
    yield assemble(par, HermiteBasis(lat, 0.5, 3)).at(par.epsilon)
    lat2 = ModeLattice(d=2, box_len=TAU, m_per_dim=3)
    with pytest.warns(TruncationWarning):
        flat = assemble(replace(par, u_k=None), HermiteBasis(lat2, 0.5, 1)).at(par.epsilon)
    yield flat
    rng = np.random.default_rng(SEED + 5)
    yield _diagonal_with_block(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)), dim=8)
    for lam in (-2.0 + 0.5j, 0.0):
        yield _diagonal_with_block(np.array([[lam, 1.0], [0.0, lam]]))


def test_operators_without_a_symmetric_balance_solve_every_block(monkeypatch):
    for op in _uncertified_operators():
        outcomes = []
        for count in (None, 1):
            with monkeypatch.context() as patch:
                sizes = _dense_solves(patch)
                try:
                    with np.errstate(over="ignore", invalid="ignore"):
                        values = solve(op, count).values[:1].tobytes()
                except SolverError as exc:
                    values = str(exc)  # d = 2 and the Jordan blocks are refused either way
            outcomes.append((sizes, values))
        assert outcomes[0] == outcomes[1]
        if not isinstance(outcomes[1][1], str):
            assert len(outcomes[1][0]) == _multi_state_blocks(op)


def test_the_reduced_resolvent_refuses_a_partial_spectrum():
    lat, par, bas = _setup(epsilon=0.1, n_max=4)
    op = assemble(par, bas).at(0.1)
    partial = solve(op, 1)
    assert not partial.solved.all()
    with pytest.raises(SolverError, match="every block"):
        spectral._reduced_resolvent(partial, 0)
    with pytest.raises(SolverError, match="every block"):
        spectral._reduced_resolvent(solve(op, 6, method="arpack"), 0)
    spectral._reduced_resolvent(solve(op), 0)  # a complete solve passes


# -- checks in the working form, phases on expansion --------------------------------


def _checked_on_the_operator(op, spectrum, residual_tol=1e-9):
    """Recompute every returned pair's checks from `pair(i)` on the complex matrix."""
    matrix = op.matrix.tocsr()
    adjoint = matrix.conj().T.tocsr()
    # pairs of different blocks have disjoint supports, so L^H R = I block by block
    for n in np.unique(spectrum.owners):
        idx = spectrum.blocks[n]
        outside = np.ones(op.dim, dtype=bool)
        outside[idx] = False
        # the operator does not couple the block to the other rows ...
        assert matrix[outside][:, idx].nnz == 0 and adjoint[outside][:, idx].nnz == 0
        mine = np.flatnonzero(spectrum.owners == n)
        lam, r, l = [], [], []
        for i in mine:
            p = spectrum.pair(i)
            # ... nor does the pair reach them
            assert not p.right_vector[outside].any() and not p.left_vector[outside].any()
            lam.append(p.eigenvalue - op.offset)
            r.append(p.right_vector[idx])
            l.append(p.left_vector[idx])
        lam, r, l = np.array(lam), np.column_stack(r), np.column_stack(l)
        assert np.abs(np.linalg.norm(r, axis=0) - 1.0).max() <= 1e-12
        # the phase convention: each right vector's largest entry is real positive
        top = r[np.argmax(np.abs(r), axis=0), np.arange(mine.size)]
        assert (top.real > 0).all() and np.abs(top.imag).max() <= 4 * np.finfo(float).eps
        right = np.linalg.norm(matrix[idx][:, idx] @ r - r * lam, axis=0)
        left = np.linalg.norm(adjoint[idx][:, idx] @ l - l * lam.conj(), axis=0)
        assert np.maximum(right, left / np.linalg.norm(l, axis=0)).max() <= residual_tol
        assert np.abs(l.conj().T @ r - np.eye(mine.size)).max() <= 1e-9


def test_pairs_expanded_from_the_working_form_pass_the_checks_on_the_operator(monkeypatch):
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=5)
    u_k = np.array([0.0, 0.3, 0.3, -0.2, -0.2], dtype=complex)  # the CI potential config
    cases = [
        ("eigh", None, "dense", 4, 0.2, None),  # `dense_spectra`
        ("eigh", None, "dense", 5, 0.3, None),  # the widest balance `eigh` admits
        ("eig", None, "dense", 7, 0.3, None),  # too wide for `eigh`
        ("eig", None, "dense", 3, 0.2, u_k),  # no weight certificate
        ("arpack", 6, "arpack", 4, 0.2, None),
        ("arpack", 6, "arpack", 3, 0.2, u_k),
    ]
    for path, count, method, n_max, epsilon, u in cases:
        par = ModelParams(gamma=0.5, n_particles=2, epsilon=epsilon, u_k=u)
        op = assemble(par, HermiteBasis(lat, 0.5, n_max)).at(epsilon)
        pairs = _translation_pairs(op)
        assert len(pairs) == (u is None)
        with monkeypatch.context() as patch:
            calls = _lapack_calls(patch)
            arpack, eigs = [], spectral.spla.eigs
            patch.setattr(spectral.spla, "eigs", lambda a, **k: arpack.append(1) or eigs(a, **k))
            solves, np_solve = [], np.linalg.solve
            patch.setattr(np.linalg, "solve", lambda a, b: solves.append(1) or np_solve(a, b))
            spectrum = solve(op, count, method=method)
        taken = {"eigh": calls["eigh"], "eig": calls["eig"], "arpack": arpack}
        assert taken[path] and not any(v for k, v in taken.items() if k != path), (path, n_max)
        if path == "eigh":
            # left vectors by column scaling, no solve; real blocks keep real
            # vectors until they are expanded
            assert not solves
            assert all(np.isrealobj(v) and np.isrealobj(l) for v, l, _ in spectrum.vectors.values())
        else:
            # a dense partner maps its representative's left vectors, with no
            # solve; an ARPACK partner solves for its own returned heads
            assert len(solves) == len(spectrum.vectors) - (len(pairs) if path == "eig" else 0)
        # every value a partner owns is checked on the operator like any other
        assert not pairs or set(pairs) & set(spectrum.owners.tolist())
        _checked_on_the_operator(op, spectrum)


@pytest.mark.parametrize("size", [1e-6, 1e-3])
def test_a_perturbed_scaled_left_basis_fails_the_check_and_falls_back_to_eig(monkeypatch, size):
    lat, par, bas = _setup(epsilon=0.2, n_max=3)
    op = assemble(par, bas).at(par.epsilon)
    general = _general_values(monkeypatch, op)
    balanced_left, rng = spectral._balanced_left, np.random.default_rng(SEED + 11)

    def perturbed(vrb, cand):
        left = balanced_left(vrb, cand)
        return left + size * np.abs(left).max() * rng.standard_normal(left.shape)

    # the check itself refuses it
    form, phase = _real_form_of(op)
    balanced, scale, sign = _weight_balance(form, op.basis_dims)
    idx = max(connected_blocks(op.matrix), key=len)
    block, scale, sign = form[idx][:, idx], scale[idx], sign[idx]
    ev, v = sla.eigh(sign[0] * balanced[idx][:, idx].toarray())
    vrb, _ = spectral._fix_phases(v / scale[:, None], phase[idx])
    cand = (sign * scale**2)[:, None] * vrb
    spectral._check_pairs(block, sign[0] * ev, vrb, balanced_left(vrb, cand))
    with pytest.raises(SolverError, match="bi-orthonormalization failed"):
        spectral._check_pairs(block, sign[0] * ev, vrb, perturbed(vrb, cand))
    # and `solve` falls back to `eig` on every block, with the general answer
    orbits = _orbits(op)
    monkeypatch.setattr(spectral, "_balanced_left", perturbed)
    calls = _lapack_calls(monkeypatch)
    spectrum = solve(op)
    assert len(calls["eigh"]) == len(calls["eig"]) == orbits
    assert spectrum.values.tobytes() == general.tobytes()
    _checked_on_the_operator(op, spectrum)


def test_a_count_keeps_the_vectors_of_the_blocks_it_returns_from_only():
    # the demo operator at epsilon = 0.4: count 1 solves all four multi-state
    # blocks, but the ground is a 1x1 block, so none of their vectors is kept
    lat, par, bas = _setup(epsilon=0.4, n_max=3)
    op = assemble(par, bas).at(0.4)
    full = solve(op)
    for count in (1, 3, 6, 40):
        head = solve(op, count)
        assert head.solved.all()
        owned = set(head.owners.tolist())
        assert set(head.vectors) == {n for n in owned if head.blocks[n].size > 1}
        for i in range(count):
            a, b = head.pair(i), full.pair(i)
            assert np.array_equal(a.right_vector, b.right_vector)
            assert np.array_equal(a.left_vector, b.left_vector)
    assert solve(op, 1).vectors == {}
    assert len(full.vectors) == _multi_state_blocks(op) == 4
    # with blocks whose vectors were dropped the reduced resolvent refuses
    with pytest.raises(SolverError, match="every block"):
        spectral._reduced_resolvent(solve(op, 1), 0)


# -- one eigensolve per translation pair -------------------------------------------


@pytest.mark.parametrize(
    "m, n_max", [(5, 1), (5, 2), (5, 3), (5, 4), (7, 1), (7, 2), (7, 3), (9, 1), (9, 2), (11, 1)]
)
def test_the_quarter_translation_pairs_two_of_the_four_blocks(m, n_max):
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=m)
    affine = assemble(ModelParams(gamma=0.5, n_particles=2), HermiteBasis(lat, 0.5, n_max))
    for epsilon in (0.1, 0.4):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            op = affine.at(epsilon)
        blocks = connected_blocks(op.matrix)
        pairs = _translation_pairs(op)
        assert _multi_state_blocks(op) == 4 and len(pairs) == 1
        ((partner, (rep, local, signs)),) = pairs.items()
        assert rep < partner and blocks[rep].size == blocks[partner].size
        # the map is a signed permutation of the block's states
        assert np.array_equal(np.sort(local), np.arange(blocks[rep].size))
        assert set(np.abs(signs).tolist()) == {1.0}


def test_a_potential_pairs_no_blocks():
    # u_k != 0 breaks the translation invariance: the CI potential config
    # has two blocks of 128 states, which the map does not pair
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=5)
    u_k = np.array([0.0, 0.3, 0.3, -0.2, -0.2], dtype=complex)
    par = ModelParams(gamma=0.5, n_particles=2, epsilon=0.2, u_k=u_k)
    op = assemble(par, HermiteBasis(lat, 0.5, 3)).at(par.epsilon)
    assert [b.size for b in connected_blocks(op.matrix) if b.size > 1] == [128, 128]
    assert quarter_translation(op.basis_dims) is not None and _translation_pairs(op) == {}


def test_a_partner_takes_its_representatives_values_bit_for_bit():
    cases = [("dense", None, 7, 2), ("dense", 3, 5, 3), ("arpack", 6, 7, 3)]
    for method, count, m, n_max in cases:
        lat = ModeLattice(d=1, box_len=TAU, m_per_dim=m)
        op = assemble(ModelParams(gamma=0.5, n_particles=2), HermiteBasis(lat, 0.5, n_max)).at(0.2)
        ((partner, (rep, _, _)),) = _translation_pairs(op).items()
        sp = solve(op, count, method=method)
        heads = np.diff(np.append(sp.starts, sp.block_values.size))
        mine, theirs = (sp.block_values[sp.starts[n] : sp.starts[n] + heads[n]] for n in (partner, rep))
        assert sp.solved[partner] and mine.tobytes() == theirs.tobytes()
        # the first excited level is one value of each block of the pair
        assert sp.values[1].tobytes() == sp.values[2].tobytes()
        assert {sp.owners[1], sp.owners[2]} == {rep, partner}
        _checked_on_the_operator(op, sp)


def test_a_partner_one_ulp_off_is_solved_on_its_own(monkeypatch):
    lat, par, bas = _setup(epsilon=0.2, n_max=3)
    op = assemble(par, bas).at(par.epsilon)
    ((partner, _),) = _translation_pairs(op).items()
    matrix = op.matrix.tocsr(copy=True)
    # one stored entry of the partner block moves by one ulp in its nonzero part
    k = matrix.indptr[connected_blocks(matrix)[partner][0]]
    z = matrix.data[k]
    if z.real:
        matrix.data[k] = complex(np.nextafter(z.real, np.inf), z.imag)
    else:
        matrix.data[k] = complex(z.real, np.nextafter(z.imag, np.inf))
    mutated = replace(op, matrix=matrix)
    assert _translation_pairs(mutated) == {}
    calls = _lapack_calls(monkeypatch)
    spectrum = solve(mutated)
    assert len(calls["eigh"]) + len(calls["eig"]) == _multi_state_blocks(mutated) == 4
    # both blocks solved, as by a solve with no map at all, and right
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "quarter_translation", lambda dims: None)
        assert spectrum.values.tobytes() == solve(mutated).values.tobytes()
    _checked_on_the_operator(mutated, spectrum)


def test_a_map_that_does_not_fit_the_operator_pairs_nothing(monkeypatch):
    lat, par, bas = _setup(epsilon=0.2, n_max=3)
    op = assemble(par, bas).at(par.epsilon)
    perm, sign = quarter_translation(op.basis_dims)
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "quarter_translation", lambda dims: None)
        reference = solve(op)
    for translation, certified in (
        ((np.roll(perm, 1), sign), 0),  # another permutation
        ((perm, 2.0 * sign), 0),  # not a signed permutation
        ((perm, -sign), 1),  # the same map up to a global sign: still exact
    ):
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "quarter_translation", lambda dims, _t=translation: _t)
            assert len(_translation_pairs(op)) == certified
            assert multiset_match_error(solve(op).values, reference.values) <= 1e-12
    # dims of another dimension cannot reach the solver: the operator refuses them
    with pytest.raises(ConfigurationError, match="product of basis_dims"):
        replace(op, basis_dims=op.basis_dims[:-1])


def test_a_loaded_export_solves_as_the_assembled_operator():
    # the map comes from `basis_dims`, which the export keeps, so the
    # reloaded operator pairs the same blocks and returns the same bytes
    lat, par, bas = _setup(m=7, epsilon=0.1, n_max=3)
    op = assemble(par, bas).at(par.epsilon)
    loaded = load_triplets(export_triplets(op))
    ((partner, (rep, local, signs)),) = _translation_pairs(op).items()
    ((partner2, (rep2, local2, signs2)),) = _translation_pairs(loaded).items()
    assert (partner2, rep2) == (partner, rep)
    assert np.array_equal(local2, local) and np.array_equal(signs2, signs)
    for count, method in ((None, "dense"), (6, "arpack")):
        got, ref = solve(loaded, count, method=method), solve(op, count, method=method)
        assert got.values.tobytes() == ref.values.tobytes()
        assert got.residuals.tobytes() == ref.residuals.tobytes()


def test_a_d2_operator_fails_as_with_no_map(monkeypatch):
    # the map numbers the d = 2 pairs as in d = 1; where it holds it is
    # certified like any other, and the solve still refuses the defective
    # eigenbasis with the error of a solve with no map
    lat = ModeLattice(d=2, box_len=TAU, m_per_dim=3)
    par = ModelParams(gamma=0.5, n_particles=2, epsilon=0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        op = assemble(par, HermiteBasis(lat, 0.5, 1)).at(par.epsilon)
    assert len(_translation_pairs(op)) == 2
    with pytest.raises(SolverError, match="defective eigenbasis") as mapped:
        solve(op)
    monkeypatch.setattr(spectral, "quarter_translation", lambda dims: None)
    assert _translation_pairs(op) == {}
    with pytest.raises(SolverError) as unmapped:
        solve(op)
    assert str(mapped.value) == str(unmapped.value)


def test_arpack_runs_on_the_block_operator_bit_for_bit(monkeypatch):
    # `eigs` on the block's own `@`, with no per-call checks, gives the Ritz
    # pairs of `eigs` on the sparse matrix bit for bit
    lat, par, bas = _setup(epsilon=0.1, n_max=3)
    op = assemble(par, bas).at(par.epsilon)
    form, _ = _real_form_of(op)
    idx = max(connected_blocks(op.matrix), key=len)
    block = form[idx][:, idx]
    shifted = (block + 3.0 * sparse.identity(idx.size, format="csr")).tocsr()
    v0 = np.random.default_rng(SEED).standard_normal(idx.size)
    w, v = spectral.spla.eigs(shifted, k=4, which="LR", v0=v0)
    wo, vo = spectral.spla.eigs(spectral._BlockOperator(shifted), k=4, which="LR", v0=v0)
    assert w.tobytes() == wo.tobytes() and v.tobytes() == vo.tobytes()
    # and `solve` hands ARPACK that operator
    seen, eigs = [], spectral.spla.eigs
    monkeypatch.setattr(spectral.spla, "eigs", lambda a, **k: seen.append(type(a)) or eigs(a, **k))
    solve(op, 4, method="arpack")
    assert seen and set(seen) == {spectral._BlockOperator}
