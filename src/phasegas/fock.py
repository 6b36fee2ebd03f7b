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

from ._tables import csv_text
from .errors import ConfigurationError, SolverError
from .lattice import ModeLattice
from .operator import DENSE_DIM_LIMIT
from .spectral import connected_blocks

STATE_LIMIT = 2_000_000


@dataclass(frozen=True, eq=False)
class FockBasis:
    """Occupation-number basis of one fixed-N sector, descending-lex ordered.

    `build_hamiltonian` keeps the coupling-independent interaction terms
    n~_k n~_{-k} (normal-ordered: minus their diagonal) in `_pair_terms`,
    keyed by (lattice, normal_order): one union pattern of the diagonal and
    every term, and each term's data aligned to it (`_interaction_terms`).
    So Hamiltonians on one basis share them, and a build is the diagonal
    plus one scaled vector add per mode.
    """

    modes: tuple
    n_particles: int
    states: tuple
    index: dict = field(repr=False)
    _pair_terms: dict = field(init=False, default_factory=dict, repr=False)

    @property
    def dim(self) -> int:
        return len(self.states)


def _occupations(m: int, n: int):
    if m == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in _occupations(m - 1, n - first):
            yield (first,) + rest


def enumerate_basis(m_modes: int, n_particles: int, lattice: ModeLattice | None = None) -> FockBasis:
    """All occupation vectors of N particles over m_modes modes.

    Ordering is descending lexicographic, so the condensate state
    (N, 0, ..., 0) sits at index 0 when the zero mode is listed first.
    """
    if not isinstance(m_modes, (int, np.integer)) or m_modes < 1:
        raise ConfigurationError(f"m_modes must be a positive integer, got {m_modes}")
    if not isinstance(n_particles, (int, np.integer)) or n_particles < 0:
        raise ConfigurationError(
            f"n_particles must be a non-negative integer, got {n_particles}"
        )
    count = math.comb(n_particles + m_modes - 1, m_modes - 1)
    if count > STATE_LIMIT:
        raise ConfigurationError(
            f"sector dimension {count} exceeds the {STATE_LIMIT} state guard"
        )
    if lattice is not None:
        if lattice.num_modes != m_modes:
            raise ConfigurationError(
                f"lattice carries {lattice.num_modes} modes, basis asked for {m_modes}"
            )
        modes = lattice.modes
    else:
        modes = tuple(range(m_modes))
    states = tuple(_occupations(m_modes, int(n_particles)))
    assert len(states) == count
    index = {s: i for i, s in enumerate(states)}
    return FockBasis(modes=modes, n_particles=int(n_particles), states=states, index=index)


def _shift_pairs(lattice: ModeLattice, k_mode):
    """Index arrays (q, q+k) over the modes q with q+k also on the lattice."""
    src, dst = [], []
    for qi, q in enumerate(lattice.modes):
        qk = tuple(a + b for a, b in zip(q, k_mode))
        if lattice.contains(qk):
            src.append(qi)
            dst.append(lattice.index(qk))
    return np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp)


def shift_operator(basis: FockBasis, lattice: ModeLattice, k_mode) -> sparse.csr_matrix:
    """Matrix of n~_k = sum_q a+_q a_{q+k}, sharp-cutoff, in the given basis.

    Diagonal (q = q+k) contributions use the integer occupation directly so
    that n~_0 = N exactly in floating point.  Target states are located by
    binary search over the occupation rows viewed as opaque byte strings.
    """
    k_mode = tuple(int(c) for c in k_mode)
    if len(basis.states[0]) != lattice.num_modes:
        raise ConfigurationError("basis width does not match the lattice mode count")
    occ = np.array(basis.states, dtype=np.int64)
    src, dst = _shift_pairs(lattice, k_mode)
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


def _pair_density_diagonal(basis: FockBasis, lattice: ModeLattice, k_mode) -> np.ndarray:
    """Diagonal of sum_{q in S_k} n_q with S_k = {q : q and q+k on the lattice}."""
    src, _ = _shift_pairs(lattice, k_mode)
    return np.array(basis.states, dtype=np.int64)[:, src].sum(axis=1).astype(float)


def _interaction_terms(basis: FockBasis, lattice: ModeLattice, normal_order: bool):
    """(indptr, indices, diagonal slots, aligned data) of the n~_k n~_{-k} of one convention.

    The pattern (indptr, indices) is the union, rows and columns sorted, of
    the diagonal and of every n~_k n~_{-k}.  Row i of `aligned` holds the
    entries of the term of mode i at their slots of that pattern and 0
    elsewhere; normal-ordered, the diagonal of `_pair_density_diagonal` is
    subtracted at the diagonal slots.  Both conventions are cached on the
    basis per lattice at the first request, from one n~_k per mode; they
    share the pattern and the products.
    """
    if (lattice, normal_order) not in basis._pair_terms:
        dim = basis.dim
        shifts = {mode: shift_operator(basis, lattice, mode) for mode in lattice.modes}
        # entries as row-major keys row * dim + col, so the sorted union is the
        # sorted CSR pattern and each term's slots are one binary search
        terms = []
        for mode in lattice.modes:
            coo = (shifts[mode] @ shifts[tuple(-c for c in mode)]).tocoo()
            terms.append((coo.row.astype(np.int64) * dim + coo.col, coo.data))
        diag_keys = np.arange(dim, dtype=np.int64) * (dim + 1)
        union = np.unique(np.concatenate([diag_keys] + [keys for keys, _ in terms]))
        diag_slots = np.searchsorted(union, diag_keys)
        plain = np.zeros((len(terms), union.size))
        for row, (keys, data) in zip(plain, terms):
            row[np.searchsorted(union, keys)] = data
        normal = plain.copy()
        for row, mode in zip(normal, lattice.modes):
            row[diag_slots] -= _pair_density_diagonal(basis, lattice, mode)
        rows, indices = np.divmod(union, dim)
        indptr = np.searchsorted(rows, np.arange(dim + 1))
        for convention, aligned in ((False, plain), (True, normal)):
            basis._pair_terms[lattice, convention] = (indptr, indices, diag_slots, aligned)
    return basis._pair_terms[lattice, normal_order]


@dataclass(frozen=True, eq=False)
class FockHamiltonian:
    matrix: sparse.csr_matrix
    basis: FockBasis
    lattice: ModeLattice
    u_int_k: tuple
    u0_ext: float
    mu: float
    hbar2_over_2m: float
    normal_order: bool

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def build_hamiltonian(
    lattice: ModeLattice,
    u_int_k,
    u0_ext: float,
    mu: float,
    basis: FockBasis,
    *,
    hbar2_over_2m: float = 1.0,
    normal_order: bool = False,
) -> FockHamiltonian:
    """Assemble the sector Hamiltonian; see the module docstring for the form."""
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
    if len(basis.states[0]) != lattice.num_modes:
        raise ConfigurationError("basis width does not match the lattice mode count")
    if not (hbar2_over_2m > 0.0):
        raise ConfigurationError(f"hbar2_over_2m must be positive, got {hbar2_over_2m}")

    dim = basis.dim
    k2 = np.array([lattice.k_squared(m) for m in lattice.modes])
    occ_arr = np.array(basis.states, dtype=float)
    kinetic = hbar2_over_2m * (occ_arr @ k2)
    diag = kinetic + (u0_ext - mu) * float(basis.n_particles)

    indptr, indices, diag_slots, aligned = _interaction_terms(basis, lattice, normal_order)
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
    return FockHamiltonian(
        matrix=ham,
        basis=basis,
        lattice=lattice,
        u_int_k=tuple(float(u) for u in u_int),
        u0_ext=float(u0_ext),
        mu=float(mu),
        hbar2_over_2m=float(hbar2_over_2m),
        normal_order=bool(normal_order),
    )


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
    blocks = connected_blocks(h.matrix)
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
    grouped = h.matrix[perm][:, perm]
    grouped.sum_duplicates()
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
    resid = float(np.linalg.norm(h.matrix @ vec - energy * vec))
    h_norm = float(spla.norm(h.matrix)) if h.matrix.nnz else 0.0
    if resid > 1e-10 * max(h_norm, 1e-300):
        raise SolverError(
            f"ground-state residual {resid:.3e} exceeds 1e-10 * |H| = {1e-10 * h_norm:.3e}"
        )
    return energy, vec


def ground_energy(h: FockHamiltonian) -> float:
    """Smallest eigenvalue of the sector Hamiltonian."""
    return ground_pair(h)[0]


def condensate_expectation(h: FockHamiltonian) -> float:
    """<c|H|c> for the condensate state (all N particles in the zero mode)."""
    occ = [0] * len(h.lattice.modes)
    occ[h.lattice.index((0,) * h.lattice.d)] = h.basis.n_particles
    ci = h.basis.index[tuple(occ)]
    val = h.matrix[ci, ci]
    return float(np.real(val))


def state_momentum(basis: FockBasis, lattice: ModeLattice) -> np.ndarray:
    """Total integer momentum (mode-unit vector) of every basis state."""
    modes = np.array(lattice.modes, dtype=int)
    occ = np.array(basis.states, dtype=int)
    return occ @ modes


def mean_field_comparison(
    lattice: ModeLattice,
    n_particles: int,
    coupling_scan,
    *,
    hbar2_over_2m: float = 1.0,
    n_max: int = 2,
):
    """Energy-per-particle table: oracle vs mean-field prediction vs functional side.

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

    n = int(n_particles)
    if n < 1:
        raise ConfigurationError("comparison needs n_particles >= 1")
    vol = lattice.volume
    basis = enumerate_basis(lattice.num_modes, n, lattice)
    rows = []
    for u_val in coupling_scan:
        u_val = float(u_val)
        if not (u_val > 0.0):
            raise ConfigurationError(f"couplings must be positive, got {u_val}")
        u_arr = np.full(lattice.num_modes, u_val)
        ham = build_hamiltonian(lattice, u_arr, 0.0, 0.0, basis, hbar2_over_2m=hbar2_over_2m)
        oracle_epp = ground_energy(ham) / n
        ham_no = build_hamiltonian(
            lattice, u_arr, 0.0, 0.0, basis, hbar2_over_2m=hbar2_over_2m, normal_order=True
        )
        oracle_normal_epp = ground_energy(ham_no) / n
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


COMPARISON_COLUMNS = (
    "coupling",
    "oracle_epp",
    "oracle_normal_epp",
    "condensate_epp",
    "prediction_epp",
    "functional_epp",
    "abs_dev",
    "rel_dev",
)


def comparison_table(rows) -> str:
    """CSV text of mean_field_comparison rows, 17-significant-digit floats."""
    return csv_text(COMPARISON_COLUMNS, [[row[c] for c in COMPARISON_COLUMNS] for row in rows])


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
    for i, occ in enumerate(basis.states):
        lines.append(f"{i} " + " ".join(str(x) for x in occ))
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    return text
