"""Eigen-analysis of the assembled non-Hermitian mode operators.

Ground states carry the largest real part of the spectrum; energies follow
from an operator eigenvalue lam through E = hbar2_over_2m * (-lam).

The dense solver works one exact symmetry block at a time.  The blocks are the
weakly connected components of the matrix's stored sparsity pattern
(`connected_blocks`).  On the hypercube Hermite truncation they split at least
the sectors of the two sign symmetries that act diagonally on the basis, the
half-box translation phi_k -> (-1)^{n_k} phi_k and the reflection
phi_k <-> phi_{-k}; at epsilon = 0 the operator is diagonal and every basis
state is its own block.
Within each block left and right eigenvectors are computed together and
bi-orthonormalized (L^H R = I), which is stable here because the admixture a
normalization solve introduces between eigenvectors of distinct eigenvalues
is bounded by the solver roundoff independent of the spectral gap; vectors of
different blocks are exactly orthogonal because their supports are disjoint.

The epsilon series for the ground eigenvalue uses the standard
Rayleigh-Schrodinger recursion with bi-orthogonal projectors,

    e_n   = <L_g| V |psi_{n-1}>,
    (H0 - lam_g) |psi_n> = -V |psi_{n-1}> + sum_{m=1..n} e_m |psi_{n-m}>,

solved with a bordered system that pins <L_g|psi_n> = 0 (intermediate
normalization).  A near-degenerate ground level aborts with a diagnostic
rather than returning unreliable coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sparse
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla
from scipy.optimize import linear_sum_assignment

from .errors import ConfigurationError, SolverError
from .hermite import HermiteBasis
from .lattice import ModeLattice
from .operator import OperatorMatrix, assemble_full
from .params import ModelParams

DENSE_DIM_LIMIT = 4096


@dataclass(frozen=True)
class EigenPair:
    """One validated eigenpair: lambda, right/left vectors, residual |(M-lam)v|/|v|."""

    eigenvalue: complex
    right_vector: np.ndarray
    left_vector: np.ndarray
    residual: float


@dataclass(frozen=True)
class PerturbationSeries:
    """Ground-eigenvalue expansion coefficients in the named parameter."""

    orders: tuple
    epsilon_ref: str = "epsilon"

    def evaluate(self, eps: float) -> complex:
        total = 0.0 + 0.0j
        for j, c in enumerate(self.orders):
            total += c * eps ** j
        return total


def _sorted_order(w: np.ndarray) -> np.ndarray:
    """Descending real part, then ascending |imag|, then original index."""
    return np.lexsort((np.arange(w.size), np.abs(w.imag), -w.real))


def _fix_phases(vr: np.ndarray) -> np.ndarray:
    """Unit norm and a deterministic phase: largest-|entry| component real positive."""
    out = np.array(vr, dtype=complex)
    for i in range(out.shape[1]):
        v = out[:, i]
        nrm = np.linalg.norm(v)
        if nrm == 0.0:
            raise SolverError("solver returned a zero eigenvector")
        v = v / nrm
        j = int(np.argmax(np.abs(v)))
        phase = v[j] / abs(v[j])
        out[:, i] = v * np.conj(phase)
    return out


def connected_blocks(matrix) -> list:
    """Index sets of the weakly connected components of a square matrix's pattern.

    Two indices share a block when a stored entry links them in either
    direction, so the matrix is block-diagonal over the returned sets: every
    stored entry has its row and column in the same block.  Each set is an
    ascending index array, and the sets are ordered by their smallest index.
    The graph has unit weights on the stored positions, so complex (even
    purely imaginary) data is never cast.
    """
    csr = sparse.csr_matrix(matrix)
    pattern = sparse.csr_matrix(
        (np.ones(csr.indices.size, dtype=np.int8), csr.indices, csr.indptr),
        shape=csr.shape,
    )
    n_blocks, labels = csgraph.connected_components(pattern, directed=True, connection="weak")
    members = np.argsort(labels, kind="stable")
    blocks = np.split(members, np.cumsum(np.bincount(labels, minlength=n_blocks))[:-1])
    blocks.sort(key=lambda b: b[0])
    return blocks


def eigen_spectrum(
    op: OperatorMatrix,
    count: int | None = None,
    *,
    method: str = "dense",
    residual_tol: float = 1e-9,
) -> list:
    """Eigenpairs of the total operator (matrix + offset), sorted ground-first.

    Dense path solves the left/right problem of each block of
    `connected_blocks` (the symmetry sectors, see the module docstring) and
    enforces L^H R = I by one solve per block; 1x1 blocks are read off the
    diagonal.  The iterative path (ARPACK on the operator and its
    adjoint, deterministic start vector) is available for larger dimensions
    and requires `count`.  Every returned pair is residual-validated on both
    sides; failure raises with the worst residual reported.
    """
    dim = op.dim
    if count is not None:
        if not isinstance(count, (int, np.integer)) or not (1 <= count <= dim):
            raise ConfigurationError(f"count must be in [1, {dim}], got {count}")
    if method == "dense":
        if dim > DENSE_DIM_LIMIT:
            raise ConfigurationError(
                f"dense solve capped at dimension {DENSE_DIM_LIMIT} (got {dim}); "
                "use method='arpack'"
            )
        matrix = op.matrix.tocsr()
        blocks = connected_blocks(matrix)
        starts = np.cumsum([0] + [b.size for b in blocks[:-1]])
        w = np.empty(dim, dtype=complex)
        vr = np.zeros((dim, dim), dtype=complex)
        vl = np.zeros((dim, dim), dtype=complex)
        # 1x1 blocks: eigenvalue is the diagonal entry, both vectors unit vectors
        single = np.array([b.size == 1 for b in blocks], dtype=bool)
        idx = np.array([b[0] for b, one in zip(blocks, single) if one], dtype=np.intp)
        cols = starts[single]
        w[cols] = matrix.diagonal()[idx]
        vr[idx, cols] = 1.0
        vl[idx, cols] = 1.0
        for idx, start, one in zip(blocks, starts, single):
            if one:
                continue
            cols = slice(start, start + idx.size)
            wb, vlb, vrb = sla.eig(matrix[idx][:, idx].toarray(), left=True, right=True)
            vrb = _fix_phases(vrb)
            gram = vlb.conj().T @ vrb
            try:
                left_h = np.linalg.solve(gram, vlb.conj().T)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"defective eigenbasis, cannot bi-orthonormalize: {exc}")
            w[cols] = wb
            vr[idx, cols] = vrb
            vl[idx, cols] = left_h.conj().T
        order = _sorted_order(w)
        w, vl, vr = w[order], vl[:, order], vr[:, order]
    elif method == "arpack":
        if count is None:
            raise ConfigurationError("iterative method requires an explicit count")
        if count > dim - 2:
            raise ConfigurationError(
                f"iterative method needs count <= dim-2 (= {dim - 2}); use dense"
            )
        v0 = np.full(dim, 1.0 / np.sqrt(dim))
        # ARPACK's restarted Arnoldi can lose an eigenvalue sitting exactly at
        # zero (the generator's stationary mode), because A v no longer feeds
        # that direction.  A real positive diagonal shift keeps the wanted
        # eigenvalue away from zero and leaves eigenvectors and LR ordering
        # untouched; it is subtracted back from the Ritz values below.
        shift = 1.0 + float(np.abs(op.matrix).sum(axis=1).max())
        shifted = (op.matrix + shift * sparse.identity(dim, dtype=complex, format="csr")).tocsr()
        try:
            w, vr = spla.eigs(shifted, k=count, which="LR", v0=v0)
            wl, vl_raw = spla.eigs(shifted.conj().T.tocsr(), k=count, which="LR", v0=v0)
        except spla.ArpackNoConvergence as exc:
            raise SolverError(f"iterative eigensolver did not converge: {exc}")
        w = w - shift
        wl = wl - shift
        # adjoint eigenvalues are conjugates; pair them to the right set
        cost = np.abs(np.conj(wl)[None, :] - w[:, None])
        rows, cols = linear_sum_assignment(cost)
        if np.max(cost[rows, cols]) > 1e-6 * max(1.0, np.max(np.abs(w))):
            raise SolverError("left/right iterative eigenvalues do not pair up")
        vl = np.array(vl_raw[:, cols[np.argsort(rows)]], dtype=complex)
        order = _sorted_order(w)
        w, vr, vl = w[order], vr[:, order], vl[:, order]
        vr = _fix_phases(vr)
        for i in range(w.size):
            d = np.vdot(vl[:, i], vr[:, i])
            if abs(d) < 1e-12:
                raise SolverError(
                    "degenerate cluster defeats the iterative pairing; use dense"
                )
            vl[:, i] = vl[:, i] / np.conj(d)
    else:
        raise ConfigurationError(f"unknown eigensolver method {method!r}")

    n_keep = w.size if count is None else count
    # residuals on the matrix part (a scalar offset shifts values, not residuals)
    right_res = op.matrix @ vr[:, :n_keep] - vr[:, :n_keep] * w[None, :n_keep]
    left_res = op.matrix.conj().T @ vl[:, :n_keep] - vl[:, :n_keep] * np.conj(w[None, :n_keep])
    pairs = []
    worst = 0.0
    for i in range(n_keep):
        rr = float(np.linalg.norm(right_res[:, i]))  # right vectors are unit norm
        lnorm = np.linalg.norm(vl[:, i])
        lr = float(np.linalg.norm(left_res[:, i])) / lnorm if lnorm > 0 else np.inf
        res = max(rr, lr)
        worst = max(worst, res)
        pairs.append(
            EigenPair(
                eigenvalue=complex(w[i] + op.offset),
                right_vector=vr[:, i].copy(),
                left_vector=vl[:, i].copy(),
                residual=res,
            )
        )
    if worst > residual_tol:
        raise SolverError(
            f"eigenpair residual {worst:.3e} exceeds tolerance {residual_tol:.1e}"
        )
    cross = np.abs(vl[:, :n_keep].conj().T @ vr[:, :n_keep] - np.eye(n_keep))
    if method == "dense" and cross.max() > 1e-9:
        raise SolverError(
            f"bi-orthonormalization failed, max |L^H R - I| = {cross.max():.3e}"
        )
    return pairs


def ground_state(op: OperatorMatrix, *, method: str = "dense", residual_tol: float = 1e-9):
    """The eigenpair with maximal real part (ties: smallest |imag|, then index)."""
    if method == "dense":
        return eigen_spectrum(op, method="dense", residual_tol=residual_tol)[0]
    count = min(4, op.dim - 2)
    if count < 1:
        return eigen_spectrum(op, method="dense", residual_tol=residual_tol)[0]
    return eigen_spectrum(op, count, method="arpack", residual_tol=residual_tol)[0]


def energy_from_eigenvalue(e, params: ModelParams | None = None, hbar2_over_2m: float = 1.0):
    """Physical energy from an operator eigenvalue: E = hbar2_over_2m * (-e).

    The ground state carries the largest operator eigenvalue, so energies come
    out lowest-first under this sign convention.  `params` is accepted for
    signature uniformity with the other pipeline stages; the conversion needs
    only the scale constant.
    """
    if not (hbar2_over_2m > 0.0):
        raise ConfigurationError(f"hbar2_over_2m must be positive, got {hbar2_over_2m}")
    return -hbar2_over_2m * e


def calibrate_mu(
    params: ModelParams,
    lattice: ModeLattice | None = None,
    basis: HermiteBasis | None = None,
    variant: str = "weak",
) -> float:
    """u_0 that zeroes the ground eigenvalue (chemical-potential calibration).

    u_0 enters the assembled matrix only through the scalar offset
    -ebar_N = -N(u_0 + gamma_0 N), so the root-find in u_0 is exactly linear:
    with lam_mat the ground eigenvalue of the differential part,
    u_0 = lam_mat/N - gamma_0 N.  The weak variant has lam_mat = 0 by the
    ladder structure; the full variant solves for it once.
    """
    n = params.n_particles
    if n == 0:
        raise ConfigurationError("calibration requires n_particles > 0")
    g0 = params.gamma_zero
    if variant == "weak":
        lam_mat = 0.0
    elif variant == "full":
        if lattice is None or basis is None:
            raise ConfigurationError("full-variant calibration needs lattice and basis")
        op = assemble_full(params, lattice, basis)
        gs = ground_state(op)
        lam_total = gs.eigenvalue
        scale = max(1.0, abs(lam_total))
        if abs(lam_total.imag) > 1e-9 * scale:
            raise SolverError(
                f"ground eigenvalue has imaginary part {lam_total.imag:.3e}; "
                "cannot calibrate a real chemical potential"
            )
        lam_mat = lam_total.real - op.offset
    else:
        raise ConfigurationError(f"unknown calibration variant {variant!r}")
    u0 = lam_mat / n - g0 * n
    achieved = lam_mat - n * (u0 + g0 * n)
    if abs(achieved) > 1e-10 * max(1.0, abs(lam_mat)):
        raise SolverError(f"calibration residual {achieved:.3e} out of tolerance")
    return u0


def perturbation_series(
    op0: OperatorMatrix,
    op1: OperatorMatrix,
    max_order: int,
    *,
    degeneracy_tol: float = 1e-8,
    residual_tol: float = 1e-9,
) -> PerturbationSeries:
    """Rayleigh-Schrodinger coefficients e_0..e_max_order for op0 + eps*op1.

    op0 is the unperturbed operator (its total ground eigenvalue is e_0) and
    op1 the unit-strength perturbation matrix.  Aborts if the ground level of
    op0 is degenerate within degeneracy_tol.
    """
    if not isinstance(max_order, (int, np.integer)) or max_order < 0:
        raise ConfigurationError(f"max_order must be a non-negative integer, got {max_order}")
    if op0.dim != op1.dim:
        raise ConfigurationError(
            f"operator dimensions differ: {op0.dim} vs {op1.dim}"
        )
    pairs = eigen_spectrum(op0, method="dense", residual_tol=residual_tol)
    lam_g = pairs[0].eigenvalue
    if len(pairs) > 1:
        gaps = [abs(p.eigenvalue - lam_g) for p in pairs[1:]]
        gap = min(gaps)
        if gap < degeneracy_tol:
            raise SolverError(
                f"ground level is (near-)degenerate: nearest gap {gap:.3e} < "
                f"{degeneracy_tol:.1e}; series aborted"
            )
    orders = [complex(lam_g)]
    if max_order == 0:
        return PerturbationSeries(tuple(orders))

    dim = op0.dim
    right = pairs[0].right_vector
    left = pairs[0].left_vector
    # intermediate normalization <L|psi_0> = 1
    d = np.vdot(left, right)
    if abs(d) < 1e-12:
        raise SolverError("ill-conditioned ground pair: <L|R> ~ 0")
    left = left / np.conj(d)

    v_mat = op1.total_dense()
    bordered = np.zeros((dim + 1, dim + 1), dtype=complex)
    bordered[:dim, :dim] = op0.total_dense()
    idx = np.arange(dim)
    bordered[idx, idx] -= lam_g
    bordered[:dim, dim] = right
    bordered[dim, :dim] = np.conj(left)
    lu, piv = sla.lu_factor(bordered)

    psi = {0: right.astype(complex)}
    for n in range(1, max_order + 1):
        w = v_mat @ psi[n - 1]
        e_n = complex(np.vdot(left, w))
        orders.append(e_n)
        rhs = -w
        for m in range(1, n + 1):
            rhs = rhs + orders[m] * psi[n - m]
        full = np.zeros(dim + 1, dtype=complex)
        full[:dim] = rhs
        sol = sla.lu_solve((lu, piv), full)
        psi[n] = sol[:dim]
    return PerturbationSeries(tuple(orders))


def multiset_match_error(a, b) -> float:
    """Max pairing distance between two equal-size complex multisets (optimal matching)."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.size != b.size:
        raise ConfigurationError(f"multiset sizes differ: {a.size} vs {b.size}")
    if a.size == 0:
        return 0.0
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def spectrum_table(pairs) -> str:
    """CSV text (index, re, im, residual) with 17-significant-digit floats."""
    lines = ["index,re,im,residual"]
    for i, p in enumerate(pairs):
        lines.append(
            f"{i},{p.eigenvalue.real:.17g},{p.eigenvalue.imag:.17g},{p.residual:.17g}"
        )
    return "\n".join(lines) + "\n"


def series_table(series: PerturbationSeries) -> str:
    """CSV text (order, re, im) of the expansion coefficients."""
    lines = ["order,re,im"]
    for j, c in enumerate(series.orders):
        lines.append(f"{j},{c.real:.17g},{c.imag:.17g}")
    return "\n".join(lines) + "\n"
