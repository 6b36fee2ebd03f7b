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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
import scipy.sparse.linalg as spla

from .errors import ConfigurationError, SolverError
from .lattice import ModeLattice
from .spectral import connected_blocks

STATE_LIMIT = 2_000_000
DENSE_LIMIT = 3000


@dataclass(frozen=True, eq=False)
class FockBasis:
    """Occupation-number basis of one fixed-N sector, descending-lex ordered."""

    modes: tuple
    n_particles: int
    states: tuple
    index: dict = field(repr=False)

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


def shift_operator(basis: FockBasis, lattice: ModeLattice, k_mode) -> sparse.csr_matrix:
    """Matrix of n~_k = sum_q a+_q a_{q+k}, sharp-cutoff, in the given basis.

    Diagonal (q = q+k) contributions use the integer occupation directly so
    that n~_0 = N exactly in floating point.
    """
    k_mode = tuple(int(c) for c in k_mode)
    if len(basis.states[0]) != lattice.num_modes:
        raise ConfigurationError("basis width does not match the lattice mode count")
    rows, cols, vals = [], [], []
    for si, occ in enumerate(basis.states):
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
                amp = math.sqrt(occ[ti]) * math.sqrt(occ[qi] + 1)
                new = list(occ)
                new[ti] -= 1
                new[qi] += 1
                rows.append(basis.index[tuple(new)])
                cols.append(si)
                vals.append(amp)
    mat = sparse.csr_matrix(
        (np.array(vals), (np.array(rows, dtype=int), np.array(cols, dtype=int))),
        shape=(basis.dim, basis.dim),
    )
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def _pair_density_diagonal(basis: FockBasis, lattice: ModeLattice, k_mode) -> np.ndarray:
    """Diagonal of sum_{q in S_k} n_q with S_k = {q : q and q+k on the lattice}."""
    sel = []
    for qi, q in enumerate(lattice.modes):
        qk = tuple(a + b for a, b in zip(q, k_mode))
        if lattice.contains(qk):
            sel.append(qi)
    out = np.zeros(basis.dim)
    for si, occ in enumerate(basis.states):
        out[si] = float(sum(occ[qi] for qi in sel))
    return out


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
    ham = sparse.csr_matrix(
        (diag, (np.arange(dim), np.arange(dim))), shape=(dim, dim)
    )

    shifts: dict = {}

    def _shift(mode):
        if mode not in shifts:
            shifts[mode] = shift_operator(basis, lattice, mode)
        return shifts[mode]

    inv_v = 1.0 / lattice.volume
    for i, mode in enumerate(lattice.modes):
        if u_int[i] == 0.0:
            continue
        neg = tuple(-c for c in mode)
        term = _shift(mode) @ _shift(neg)
        if normal_order:
            corr = _pair_density_diagonal(basis, lattice, mode)
            term = term - sparse.csr_matrix(
                (corr, (np.arange(dim), np.arange(dim))), shape=(dim, dim)
            )
        ham = ham + (u_int[i] * inv_v) * term

    ham = ham.tocsr().astype(complex)
    ham.sum_duplicates()
    ham.sort_indices()
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

    Up to `DENSE_LIMIT` states, H is diagonalized one block of
    `spectral.connected_blocks` at a time -- the interaction conserves total
    momentum, so the blocks are (pieces of) the momentum sectors -- and the
    lowest level over all blocks is returned; on a tie across blocks the
    block with the smallest state index wins.  Larger sectors use Lanczos.
    """
    dim = h.dim
    if dim <= DENSE_LIMIT:
        energy = None
        for idx in connected_blocks(h.matrix):
            vals, vecs = np.linalg.eigh(h.matrix[idx][:, idx].toarray())
            if energy is None or vals[0] < energy:
                energy, support, block_vec = float(vals[0]), idx, vecs[:, 0]
        vec = np.zeros(dim, dtype=block_vec.dtype)
        vec[support] = block_vec
    else:
        v0 = np.full(dim, 1.0 / np.sqrt(dim))
        try:
            vals, vecs = spla.eigsh(h.matrix, k=1, which="SA", v0=v0)
        except spla.ArpackNoConvergence as exc:
            raise SolverError(f"Lanczos did not converge: {exc}")
        energy, vec = float(vals[0].real), vecs[:, 0]
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
    from .operator import assemble_weak
    from .params import ModelParams
    from .spectral import energy_from_eigenvalue, ground_state

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
        op = assemble_weak(params, lattice, hbasis)
        gs = ground_state(op)
        functional_epp = float(
            np.real(energy_from_eigenvalue(gs.eigenvalue, params, hbar2_over_2m=hbar2_over_2m))
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
    lines = [",".join(COMPARISON_COLUMNS)]
    for row in rows:
        lines.append(",".join(f"{row[c]:.17g}" for c in COMPARISON_COLUMNS))
    return "\n".join(lines) + "\n"


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
