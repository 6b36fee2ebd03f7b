"""Exact-diagonalization oracle in the fixed-N Fock sector of the mode lattice.

Second-quantized Hamiltonian, with n~_k = sum_q a+_q a_{q+k} (terms with q or
q+k off the lattice dropped, matching the sharp mode cutoff used by the
operator assembly):

    H = sum_k (hbar^2 k^2 / 2m) a+_k a_k  +  (U0 - mu) N
        + (1/V) sum_k U^I_k n~_k n~_{-k}.

The interaction is density-density exactly as written -- NOT normal-ordered --
so diagonal self-interaction terms are present; `normal_order=True` switches
to :n~_k n~_{-k}: = n~_k n~_{-k} - sum_{q in S_k} n_q (S_k the set of q with
both q and q+k on the lattice) for diagnostic comparison against the textbook
contact form.  Even with the cutoff, n~_k+ = n~_{-k} holds exactly, so H is
Hermitian for real even U^I_k.

The bridge to the mode-operator side is gamma_k = U^I_k / (hbar2_over_2m * V)
and u_0 = (U0 - mu) / hbar2_over_2m; operator eigenvalues lam convert back to
energies through E = hbar2_over_2m * (-lam).

A `FockBasis` holds its lattice and one occupation array whose row 0 is the
condensate, so the functions on a sector take the basis alone.

The interaction conserves total momentum, so H splits into exact blocks
(`spectral.connected_blocks`), each diagonalized densely by `eigh` up to
`operator.DENSE_DIM_LIMIT` states.  `ground_pair` solves only the blocks
whose Gershgorin bound leaves room for the ground level, lowest bound first,
and returns what a solve of every block would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
import scipy.sparse.linalg as spla

from .errors import ConfigurationError, SolverError, is_integer
from .lattice import STATE_LIMIT, ModeLattice
from .operator import DENSE_DIM_LIMIT
from .spectral import _diagonal_block, connected_blocks


@dataclass(frozen=True, eq=False)
class FockBasis:
    """Occupation-number basis of the N-particle sector of one mode lattice.

    `occupations` is one read-only (dim, modes) int64 array: row i holds the
    occupation of every lattice mode, in lattice order, in state i.  Rows are
    in descending lexicographic order and the lattice lists its zero mode
    first, so row 0 is always the condensate (N, 0, ..., 0).

    `build_hamiltonian` keeps the coupling-independent interaction terms
    n~_k n~_{-k} (normal-ordered: minus their diagonal) in `_pair_terms`,
    keyed by normal_order: one union pattern of the diagonal and every term,
    and each term's data aligned to it (`_interaction_terms`).  So
    Hamiltonians on one basis share them, and a build is the diagonal plus
    one scaled vector add per mode.
    """

    lattice: ModeLattice
    n_particles: int
    occupations: np.ndarray = field(repr=False)
    _pair_terms: dict = field(init=False, default_factory=dict, repr=False)

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]


def _occupations(m: int, n: int):
    if m == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in _occupations(m - 1, n - first):
            yield (first,) + rest


def enumerate_basis(lattice: ModeLattice, n_particles: int) -> FockBasis:
    """All occupations of N particles over the lattice's modes, descending-lex ordered."""
    if not is_integer(n_particles) or n_particles < 0:
        raise ConfigurationError(
            f"n_particles must be a non-negative integer, got {n_particles}"
        )
    m_modes, n = lattice.num_modes, int(n_particles)
    count = math.comb(n + m_modes - 1, m_modes - 1)
    if count > STATE_LIMIT:
        raise ConfigurationError(
            f"sector dimension {count} exceeds the {STATE_LIMIT} state guard"
        )
    occupations = np.array(list(_occupations(m_modes, n)), dtype=np.int64)
    occupations.flags.writeable = False
    return FockBasis(lattice, n, occupations)


def _shift_pairs(lattice: ModeLattice, k_mode):
    """Index arrays (q, q+k) over the modes q with q+k also on the lattice."""
    src, dst = [], []
    for qi, q in enumerate(lattice.modes):
        qk = tuple(a + b for a, b in zip(q, k_mode))
        if lattice.contains(qk):
            src.append(qi)
            dst.append(lattice.index(qk))
    return np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp)


def shift_operator(basis: FockBasis, k_mode) -> sparse.csr_matrix:
    """Matrix of n~_k = sum_q a+_q a_{q+k}, sharp-cutoff, in the given basis.

    Diagonal (q = q+k) contributions use the integer occupation directly so
    that n~_0 = N exactly in floating point.  Target states are located by
    binary search over the occupation rows viewed as opaque byte strings.
    """
    k_mode = tuple(int(c) for c in k_mode)
    occ = basis.occupations
    src, dst = _shift_pairs(basis.lattice, k_mode)
    if not any(k_mode):
        # diagonal: the integer particle count, stored only where it is nonzero
        count = occ[:, src].sum(axis=1)
        (states,) = np.nonzero(count)
        rows, cols, vals = states, states, count[states].astype(float)
    else:
        key = np.dtype((np.void, occ.itemsize * occ.shape[1]))
        order = np.argsort(occ.view(key).ravel())
        sorted_keys = occ.view(key).ravel()[order]
        rows, cols, vals = [], [], []
        for qi, ti in zip(src, dst):
            (states,) = np.nonzero(occ[:, ti])
            new = occ[states]
            new[:, ti] -= 1
            new[:, qi] += 1
            rows.append(order[np.searchsorted(sorted_keys, new.view(key).ravel())])
            cols.append(states)
            vals.append(np.sqrt(occ[states, ti].astype(float)) * np.sqrt(occ[states, qi] + 1.0))
        rows, cols, vals = (np.concatenate(x) if x else np.zeros(0) for x in (rows, cols, vals))
    mat = sparse.csr_matrix(
        (vals, (rows.astype(int), cols.astype(int))), shape=(basis.dim, basis.dim)
    )
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def _pair_density_diagonal(basis: FockBasis, k_mode) -> np.ndarray:
    """Diagonal of sum_{q in S_k} n_q with S_k = {q : q and q+k on the lattice}."""
    src, _ = _shift_pairs(basis.lattice, k_mode)
    return basis.occupations[:, src].sum(axis=1).astype(float)


def _interaction_terms(basis: FockBasis, normal_order: bool):
    """(indptr, indices, diagonal slots, aligned data) of the n~_k n~_{-k} of one convention.

    The pattern (indptr, indices) is the union, rows and columns sorted, of
    the diagonal and of every n~_k n~_{-k}.  Row i of `aligned` holds the
    entries of the term of mode i at their slots of that pattern and 0
    elsewhere; normal-ordered, the diagonal of `_pair_density_diagonal` is
    subtracted at the diagonal slots.  Both conventions are cached on the
    basis at the first request, from one n~_k per mode; they share the
    pattern and the products.
    """
    if normal_order not in basis._pair_terms:
        dim, modes = basis.dim, basis.lattice.modes
        shifts = {mode: shift_operator(basis, mode) for mode in modes}
        # entries as row-major keys row * dim + col, so the sorted union is the
        # sorted CSR pattern and each term's slots are one binary search
        terms = []
        for mode in modes:
            coo = (shifts[mode] @ shifts[tuple(-c for c in mode)]).tocoo()
            terms.append((coo.row.astype(np.int64) * dim + coo.col, coo.data))
        diag_keys = np.arange(dim, dtype=np.int64) * (dim + 1)
        union = np.unique(np.concatenate([diag_keys] + [keys for keys, _ in terms]))
        diag_slots = np.searchsorted(union, diag_keys)
        plain = np.zeros((len(terms), union.size))
        for row, (keys, data) in zip(plain, terms):
            row[np.searchsorted(union, keys)] = data
        normal = plain.copy()
        for row, mode in zip(normal, modes):
            row[diag_slots] -= _pair_density_diagonal(basis, mode)
        rows, indices = np.divmod(union, dim)
        indptr = np.searchsorted(rows, np.arange(dim + 1))
        for convention, aligned in ((False, plain), (True, normal)):
            basis._pair_terms[convention] = (indptr, indices, diag_slots, aligned)
    return basis._pair_terms[normal_order]


@dataclass(frozen=True, eq=False)
class FockHamiltonian:
    matrix: sparse.csr_matrix
    normal_order: bool

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def build_hamiltonian(
    basis: FockBasis,
    u_int_k,
    u0_ext: float,
    mu: float,
    *,
    hbar2_over_2m: float = 1.0,
    normal_order: bool = False,
) -> FockHamiltonian:
    """Assemble the sector Hamiltonian; see the module docstring for the form."""
    lattice = basis.lattice
    u_int = np.atleast_1d(np.asarray(u_int_k, dtype=float))
    if u_int.shape == (1,) and lattice.num_modes > 1:
        u_int = np.full(lattice.num_modes, u_int[0])
    if u_int.shape != (lattice.num_modes,):
        raise ConfigurationError(
            f"u_int_k has shape {u_int.shape}, lattice carries {lattice.num_modes} modes"
        )
    if not np.isfinite(u_int).all():
        raise ConfigurationError("u_int_k must be finite")
    scale = max(1.0, float(np.max(np.abs(u_int))))
    for i, mode in enumerate(lattice.modes):
        j = lattice.index(tuple(-c for c in mode))
        if abs(u_int[i] - u_int[j]) > 1e-12 * scale:
            raise ConfigurationError(
                "u_int_k must be conjugate-symmetric (even) across k -> -k"
            )
    if not (0.0 < hbar2_over_2m < math.inf):
        raise ConfigurationError(f"hbar2_over_2m must be positive and finite, got {hbar2_over_2m}")

    dim = basis.dim
    k2 = np.array([lattice.k_squared(m) for m in lattice.modes])
    kinetic = hbar2_over_2m * (basis.occupations.astype(float) @ k2)
    diag = kinetic + (u0_ext - mu) * float(basis.n_particles)

    indptr, indices, diag_slots, aligned = _interaction_terms(basis, normal_order)
    # every entry is summed as a chain of scipy sparse adds would sum it, the
    # diagonal first and then one scaled term per mode in mode order, and an
    # entry that comes out exactly 0 is dropped as such an add drops it; with
    # no interaction term the whole diagonal is kept, zeros included
    acc = np.zeros(indices.size)
    acc[diag_slots] = diag
    inv_v = 1.0 / lattice.volume
    active = np.flatnonzero(u_int != 0.0)
    for i in active:
        acc += (u_int[i] * inv_v) * aligned[i]
    if not np.isfinite(acc).all():
        # an input error (a non-finite u0_ext or mu, or an overflow), which
        # ground_pair would report as a failed solve
        raise ConfigurationError(
            f"non-finite Hamiltonian entry from u_int_k, u0_ext={u0_ext} or mu={mu}"
        )
    if active.size:
        keep = acc != 0.0
    else:
        keep = np.zeros(indices.size, dtype=bool)
        keep[diag_slots] = True
    kept = np.concatenate(([0], np.cumsum(keep)))
    ham = sparse.csr_matrix(
        (acc[keep].astype(complex), indices[keep], kept[indptr]), shape=(dim, dim)
    )
    herm_err = np.abs(ham - ham.getH()).max() if ham.nnz else 0.0
    peak = np.abs(ham).max() if ham.nnz else 0.0
    if herm_err > 1e-13 * max(peak, 1e-300):
        raise SolverError(
            f"Hamiltonian assembly lost Hermiticity: max deviation {herm_err:.3e}"
        )
    return FockHamiltonian(matrix=ham, normal_order=bool(normal_order))


def ground_pair(h: FockHamiltonian):
    """(lowest eigenvalue, eigenvector), residual-validated against 1e-10*|H|.

    H is diagonalized one block of `spectral.connected_blocks` at a time --
    the interaction conserves total momentum, so the blocks are (pieces of)
    the momentum sectors -- up to `operator.DENSE_DIM_LIMIT` states a block.
    The result is the all-blocks answer, the lowest level over every block
    with a tie going to the block with the smallest state index, but only
    the blocks that can hold it reach `eigh`.  By the Gershgorin circle
    theorem (S. Gershgorin, 1931) every eigenvalue of a block lies above
    min_i (H_ii - sum_{j != i} |H_ij|) over its rows, where the sum runs over
    the Hermitian matrix `eigh` sees, the lower triangle and its conjugate.
    Blocks are solved lowest bound first, and the loop stops at the first
    block whose bound exceeds the lowest level found by more than
    4 n^2 eps max|H_ij|, n the largest block.  That margin covers the
    rounding of the bound's sum of at most n terms of size <= max|H_ij|
    (n^2 eps max|H_ij|) and the backward error of LAPACK's Hermitian
    eigensolver, whose values are exact for a perturbation of norm
    <= p(n) eps |H|_2, with p(n) a modest function of n taken as n and
    |H|_2 <= n max|H_ij|.  So every
    skipped block's computed lowest value would lie strictly above the
    returned one, and the solved blocks get the same arrays as in a loop
    over all of them.
    """
    dim = h.dim
    matrix = h.matrix.tocsr()
    if not matrix.has_canonical_format:
        matrix = matrix.copy()
        matrix.sum_duplicates()
    blocks = connected_blocks(matrix)
    sizes = np.array([idx.size for idx in blocks])
    if sizes.max() > DENSE_DIM_LIMIT:
        raise ConfigurationError(
            f"dense solve capped at block dimension {DENSE_DIM_LIMIT} (largest block "
            f"{sizes.max()} of dimension {dim})"
        )
    # one permutation makes every block a contiguous diagonal slice, so a
    # block's entries are one stretch of the CSR arrays, scattered into a
    # dense array without a sparse slice
    perm = np.concatenate(blocks)
    grouped, _ = _diagonal_block(matrix, perm, np.argsort(perm))
    rows = np.repeat(np.arange(dim), np.diff(grouped.indptr))
    starts = np.cumsum(sizes) - sizes
    # Gershgorin bound of each block: the lower triangle (eigh's default)
    # enters the discs of its row and of its column
    mag = np.abs(grouped.data)
    on, low = rows == grouped.indices, rows > grouped.indices
    radius = np.bincount(rows[low], mag[low], dim) + np.bincount(grouped.indices[low], mag[low], dim)
    centre = np.bincount(rows[on], grouped.data.real[on], dim)
    bound = np.minimum.reduceat(centre - radius, starts)
    if not np.isfinite(bound).all():
        raise SolverError("Hamiltonian has non-finite entries")
    margin = 4.0 * float(sizes.max()) ** 2 * np.finfo(float).eps * mag.max(initial=0.0)
    energy = None
    for n in np.argsort(bound, kind="stable"):
        if energy is not None and bound[n] - margin > energy:
            break
        start, idx = starts[n], blocks[n]
        lo, hi = grouped.indptr[start], grouped.indptr[start + idx.size]
        block = np.zeros((idx.size, idx.size), dtype=grouped.dtype)
        block[rows[lo:hi] - start, grouped.indices[lo:hi] - start] = grouped.data[lo:hi]
        vals, vecs = np.linalg.eigh(block)
        if energy is None or vals[0] < energy or (vals[0] == energy and n < best):
            energy, best, block_vec = float(vals[0]), n, vecs[:, 0]
    vec = np.zeros(dim, dtype=block_vec.dtype)
    vec[blocks[best]] = block_vec
    resid = float(np.linalg.norm(matrix @ vec - energy * vec))
    h_norm = float(spla.norm(matrix)) if matrix.nnz else 0.0
    if resid > 1e-10 * max(h_norm, 1e-300):
        raise SolverError(
            f"ground-state residual {resid:.3e} exceeds 1e-10 * |H| = {1e-10 * h_norm:.3e}"
        )
    return energy, vec


def condensate_expectation(h: FockHamiltonian) -> float:
    """<c|H|c> for the condensate state (all N particles in the zero mode): state 0."""
    return float(np.real(h.matrix[0, 0]))


def state_momentum(basis: FockBasis) -> np.ndarray:
    """Total integer momentum (mode-unit vector) of every basis state."""
    return basis.occupations @ np.array(basis.lattice.modes, dtype=int)


def mean_field_comparison(
    lattice: ModeLattice,
    n_particles: int,
    coupling_scan,
    *,
    hbar2_over_2m: float = 1.0,
    n_max: int = 2,
):
    """Energy per particle, one dict per coupling: oracle vs mean field vs functional side.

    For each contact coupling U (the k-independent U^I_k), with U0 = mu = 0:
      - oracle_epp: exact ground E/N of the density-density Hamiltonian;
      - oracle_normal_epp: same with the normal-ordered (textbook) interaction;
      - condensate_epp: <c|H|c>/N for the all-in-zero-mode state;
      - prediction_epp: the mean-field U * N/V;
      - functional_epp: E/N from the weak-coupling operator ground eigenvalue
        through the gamma = U/(hbar2_over_2m * V) bridge.
    Both interaction conventions are reported so the constant in the
    mean-field law is visible rather than assumed.  As U -> 0, with M the
    number of modes:
      - oracle_epp -> condensate_epp = U (N+M-1)/V, with a relative gap that
        vanishes at first order in U;
      - rel_dev (measured against prediction_epp) -> (M-1)/N, not 0;
      - oracle_normal_epp -> U (N-1)/V.
    """
    from .hermite import HermiteBasis
    from .operator import assemble
    from .params import ModelParams
    from .spectral import energy_from_eigenvalue, solve

    if not is_integer(n_particles) or n_particles < 1:
        raise ConfigurationError(f"comparison needs an integer n_particles >= 1, got {n_particles!r}")
    n = int(n_particles)
    vol = lattice.volume
    basis = enumerate_basis(lattice, n)
    rows = []
    for u_val in coupling_scan:
        u_val = float(u_val)
        if not (u_val > 0.0):
            raise ConfigurationError(f"couplings must be positive, got {u_val}")
        u_arr = np.full(lattice.num_modes, u_val)
        ham = build_hamiltonian(basis, u_arr, 0.0, 0.0, hbar2_over_2m=hbar2_over_2m)
        oracle_epp = ground_pair(ham)[0] / n
        ham_no = build_hamiltonian(
            basis, u_arr, 0.0, 0.0, hbar2_over_2m=hbar2_over_2m, normal_order=True
        )
        oracle_normal_epp = ground_pair(ham_no)[0] / n
        condensate_epp = condensate_expectation(ham) / n

        gamma = u_val / (hbar2_over_2m * vol)
        params = ModelParams(gamma=gamma, n_particles=n)
        hbasis = HermiteBasis(lattice, gamma, n_max)
        lam = solve(assemble(params, hbasis).at(0.0), 1).values[0]
        functional_epp = float(
            np.real(energy_from_eigenvalue(lam, hbar2_over_2m=hbar2_over_2m))
        ) / n

        prediction_epp = u_val * n / vol
        abs_dev = abs(oracle_epp - prediction_epp)
        rows.append(
            {
                "coupling": u_val,
                "oracle_epp": oracle_epp,
                "oracle_normal_epp": oracle_normal_epp,
                "condensate_epp": condensate_epp,
                "prediction_epp": prediction_epp,
                "functional_epp": functional_epp,
                "abs_dev": abs_dev,
                "rel_dev": abs_dev / prediction_epp,
            }
        )
    return rows


def export_hamiltonian(h: FockHamiltonian, path=None) -> str:
    """Sparse triplet text dump of the Hamiltonian (same format as operators)."""
    from .operator import OperatorMatrix, export_triplets

    wrapped = OperatorMatrix(
        matrix=h.matrix,
        offset=0.0,
        basis_dims=(h.dim,),
        provenance="fock-hamiltonian"
        + (":normal-order" if h.normal_order else ":density-density"),
    )
    return export_triplets(wrapped, path)


def export_basis(basis: FockBasis, path=None) -> str:
    """Text dump of the occupation list: `index  n_1 ... n_M` per line."""
    lines = [
        "# phasegas fock basis v1",
        f"# n_particles: {basis.n_particles}",
        f"# dim: {basis.dim}",
    ]
    for i, occ in enumerate(basis.occupations):
        lines.append(f"{i} " + " ".join(str(x) for x in occ))
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    return text
