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
contact form.  Each basis stores every n~_k n~_{-k} once, on its own slots:
its entries, and the same entries less the correction on the diagonal ones.
Even with the cutoff, n~_k+ = n~_{-k} holds exactly, so H is Hermitian for
real even U^I_k.

The bridge to the mode-operator side is gamma_k = U^I_k / (hbar2_over_2m * V)
and u_0 = (U0 - mu) / hbar2_over_2m; operator eigenvalues lam convert back to
energies through E = hbar2_over_2m * (-lam).  The weak operator is the
diagonal ladder -sum_c n_c k_c^2 - ebar_N (see `operator`), whose ground value
is -ebar_N at every Hermite cap, so `mean_field_comparison` takes its
functional column in that closed form and builds no operator.

A `FockBasis` holds its lattice and one occupation array whose row 0 is the
condensate, so the functions on a sector take the basis alone.

H is real symmetric, and a `FockHamiltonian` holds it in float64 on the
pattern that all Hamiltonians of its basis share; its CSR is formed only
when read.  The interaction conserves total momentum, so H splits into
exact blocks.  Each basis lays them out once (`_Layout`), as the connected
components of that pattern: the blocks of every H whose U^I_k are all
nonzero, and unions of blocks otherwise.  `ground_pair` scatters each block
straight from the entries of H on the pattern and diagonalizes it densely
by a real `eigh`, up to `operator.DENSE_DIM_LIMIT` states.  It takes the
blocks lowest Gershgorin bound first, stops where the bound leaves no room
for the ground level, and sends a block to `eigh` only when one Cholesky
factorization fails to prove its levels lie above the lowest one found; it
returns what a solve of every block would.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import ConfigurationError, SolverError, is_integer
from .lattice import STATE_LIMIT, ModeLattice
from .operator import DENSE_DIM_LIMIT
from .spectral import BlockPartition, check_kinetic_scale, connected_blocks


@dataclass(frozen=True, eq=False)
class FockBasis:
    """Occupation-number basis of the N-particle sector of one mode lattice.

    `occupations` is one read-only (dim, modes) int64 array: row i holds the
    occupation of every lattice mode, in lattice order, in state i.  Rows are
    in descending lexicographic order and the lattice lists its zero mode
    first, so row 0 is always the condensate (N, 0, ..., 0).

    `_terms`, computed once on first use, holds the coupling-independent
    interaction terms n~_k n~_{-k} for both conventions: one `_Layout` of the
    pattern of every Hamiltonian on the basis and of its blocks, and per
    mode the term's slots of that pattern, its entries there, and those
    entries normal-ordered.  So a build is the diagonal plus one scaled add
    per mode on that term's slots, and a solve finds its blocks laid out.
    `_moves`, computed once on first use, locates the target of every
    one-particle move of the `shift_operator` calls.
    """

    lattice: ModeLattice
    n_particles: int
    occupations: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]

    @functools.cached_property
    def _moves(self):
        """(states, modes, down, up): what `shift_operator` needs to move one particle.

        `states` and `modes` list every occupied (state, mode), state by
        state.  A state's index is the sum over modes j < M - 1 of
        `_rank_table`[left_j, j], left_j its particles after mode j.  Moving
        one particle from mode t to mode q < t lowers left_j by one for
        q <= j < t, and moving it to q > t raises left_j by one for t <= j < q.
        So the index of the state it gives is the old index plus
        down[state, t] - down[state, q], or plus up[state, q] - up[state, t]:
        column j of down (up) sums over the modes before j the change of each
        term when left_j drops (grows) by one.  No move lowers a left_j of 0
        or raises one of N, so the table row is clipped there and the change
        reads 0.
        """
        m_modes, n = self.lattice.num_modes, self.n_particles
        table, cols = _rank_table(m_modes, n), np.arange(m_modes - 1)
        left = n - np.cumsum(self.occupations[:, :-1], axis=1)
        here = table[left, cols]
        steps = []
        for row in (np.maximum(left - 1, 0), np.minimum(left + 1, n)):
            total = np.zeros((self.dim, m_modes), dtype=np.int64)
            np.cumsum(table[row, cols] - here, axis=1, out=total[:, 1:])
            steps.append(total)
        return (*np.nonzero(self.occupations), *steps)

    @functools.cached_property
    def _terms(self):
        """(`_Layout`, terms): the n~_k n~_{-k} of every Hamiltonian here.

        terms[i] is the term of mode i as (slots, values, normal): the layout
        slots of its stored entries, those entries, and the same entries
        with the mode's column of `_pair_densities` subtracted on the diagonal
        ones, as normal ordering asks.  Built from one n~_k per mode, with one
        correction pass and one binary search for every term.
        """
        dim, modes = self.dim, self.lattice.modes
        shifts = {mode: shift_operator(self, mode) for mode in modes}
        coos = [(shifts[mode] @ shifts[tuple(-c for c in mode)]).tocoo() for mode in modes]
        rows = np.concatenate([coo.row for coo in coos]).astype(np.int64)
        cols = np.concatenate([coo.col for coo in coos]).astype(np.int64)
        values = np.concatenate([coo.data for coo in coos])
        ends = np.cumsum([coo.nnz for coo in coos])
        # entries as row-major keys row * dim + col, so the sorted union is the
        # sorted CSR pattern and every term's slots are one binary search; the
        # union takes in every term's transpose too, so the pattern is symmetric
        keys = np.sort(np.concatenate(
            (np.arange(dim, dtype=np.int64) * (dim + 1), rows * dim + cols, cols * dim + rows)
        ))
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        slots = np.searchsorted(keys, rows * dim + cols)
        # every nonzero correction sits on a stored diagonal entry: the
        # term's (s, s) entry, sum_{q in S_k} n_q (n_{q+k} + 1) (N^2 for
        # k = 0), is at least the correction
        (diagonal,) = np.nonzero(rows == cols)
        mode = np.searchsorted(ends, diagonal, side="right")
        correction = np.zeros(values.size)
        correction[diagonal] = _pair_densities(self)[rows[diagonal], mode]
        normal = values - correction
        spans = zip(np.concatenate(([0], ends[:-1])), ends)
        return _layout(dim, keys), [(slots[a:b], values[a:b], normal[a:b]) for a, b in spans]


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
    # one mode at a time, each prefix with r particles left branches into the
    # occupations r, r-1, ..., 0 of the next mode; the last mode takes the rest
    left = np.array([n], dtype=np.int64)
    levels = []
    for _ in range(m_modes - 1):
        parent = np.repeat(np.arange(left.size), left + 1)
        branch = np.arange(parent.size) - np.repeat(np.cumsum(left + 1) - (left + 1), left + 1)
        value = left[parent] - branch
        levels.append((parent, value))
        left = branch
    occupations = np.empty((left.size, m_modes), dtype=np.int64)
    occupations[:, -1] = left
    prefix = np.arange(left.size)
    for j in range(m_modes - 2, -1, -1):
        parent, value = levels[j]
        occupations[:, j] = value[prefix]
        prefix = parent[prefix]
    occupations.flags.writeable = False
    return FockBasis(lattice, n, occupations)


@functools.lru_cache(maxsize=None)
def _rank_table(m_modes: int, n_particles: int) -> np.ndarray:
    """table[a, j]: how many states precede a row and first differ from it at mode j.

    The order is descending-lex.  For a row with a particles left after mode
    j, these are the states that share its occupations of modes 0..j-1 and
    put more particles in mode j: the C(a - 1 + p, p) occupations of a - 1
    particles over the p + 1 modes from j on, p = m - 1 - j.  So the index
    of a row is the sum of table[a_j, j] over j < m - 1, and every entry is
    below the sector dimension.  One table serves every basis of m modes
    and N particles.
    """
    table = np.zeros((n_particles + 1, max(m_modes - 1, 0)), dtype=np.int64)
    for j in range(m_modes - 1):
        p = m_modes - 1 - j
        table[1:, j] = [math.comb(a - 1 + p, p) for a in range(1, n_particles + 1)]
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def _mode_grid(lattice: ModeLattice):
    """(modes as a (modes, d) array, grid): grid[c + h] is the lattice index of mode c.

    h = (m - 1) / 2, so grid is the m^d cube, and every point of it is a mode.
    """
    coords = np.array(lattice.modes, dtype=np.int64).reshape(lattice.num_modes, lattice.d)
    grid = np.empty((lattice.m_per_dim,) * lattice.d, dtype=np.intp)
    grid[tuple((coords + (lattice.m_per_dim - 1) // 2).T)] = np.arange(lattice.num_modes)
    return coords, grid


def _shift_pairs(lattice: ModeLattice, k_mode):
    """Index arrays (q, q+k) over the modes q with q+k also on the lattice."""
    coords, grid = _mode_grid(lattice)
    # each q + k + h, a point of the cube exactly when q + k is a mode
    shifted = coords + np.asarray(k_mode, dtype=np.int64) + (lattice.m_per_dim - 1) // 2
    (src,) = np.nonzero(((shifted >= 0) & (shifted < lattice.m_per_dim)).all(axis=1))
    return src, grid[tuple(shifted[src].T)]


def shift_operator(basis: FockBasis, k_mode) -> sparse.csr_matrix:
    """Matrix of n~_k = sum_q a+_q a_{q+k}, sharp-cutoff, in the given basis.

    Diagonal (q = q+k) contributions use the integer occupation directly so
    that n~_0 = N exactly in floating point.  Otherwise every occupied
    (state, q+k) with q on the lattice gives one entry, all in one pass; its
    target state is located by its rank in the descending-lex order
    (`FockBasis._moves`), with no search.
    """
    k_mode = tuple(int(c) for c in k_mode)
    if len(k_mode) != basis.lattice.d:
        raise ConfigurationError(
            f"k_mode {k_mode} does not have the lattice's {basis.lattice.d} components"
        )
    occ = basis.occupations
    src, dst = _shift_pairs(basis.lattice, k_mode)
    if not any(k_mode):
        # diagonal: the integer particle count, stored only where it is nonzero
        count = occ[:, src].sum(axis=1)
        (states,) = np.nonzero(count)
        rows, cols, vals = states, states, count[states].astype(float)
    else:
        states, modes, down, up = basis._moves
        # the mode q that a particle of mode t = q+k goes to, -1 off the lattice
        target = np.full(basis.lattice.num_modes, -1)
        target[dst] = src
        on = target[modes] >= 0
        states, t = states[on], modes[on]
        q = target[t]
        moved = np.where(q < t, down[states, t] - down[states, q], up[states, q] - up[states, t])
        rows, cols = states + moved, states
        vals = np.sqrt(occ[states, t].astype(float)) * np.sqrt(occ[states, q] + 1.0)
    mat = sparse.csr_matrix(
        (vals, (rows.astype(int), cols.astype(int))), shape=(basis.dim, basis.dim)
    )
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def _pair_densities(basis: FockBasis) -> np.ndarray:
    """(dim, modes) array: column k the diagonal of sum_{q in S_k} n_q.

    S_k = {q : q and q+k on the lattice}.  One product of the occupied
    (state, q) entries with the (q, k) membership table of the S_k; every sum
    is of small integers, so exact.
    """
    lattice = basis.lattice
    coords, _ = _mode_grid(lattice)
    member = np.ones((lattice.num_modes,) * 2, dtype=bool)
    for axis in range(lattice.d):
        # q + k + h along this axis, in the cube exactly when q + k is a mode there
        shifted = coords[:, None, axis] + coords[None, :, axis] + (lattice.m_per_dim - 1) // 2
        member &= (shifted >= 0) & (shifted < lattice.m_per_dim)
    states, modes = basis._moves[:2]
    occupied = sparse.csr_matrix(
        (basis.occupations[states, modes].astype(float), (states, modes)),
        shape=(basis.dim, lattice.num_modes),
    )
    return occupied @ member.astype(float)


@dataclass(frozen=True, eq=False)
class _Layout:
    """The coupling-independent pattern of every Hamiltonian on one basis, and its blocks.

    The pattern is the CSR (indptr, indices), rows and columns sorted, of the
    union of the diagonal, of every n~_k n~_{-k} and of their transposes, so
    it is symmetric.  Slot s holds the entry (rows[s], indices[s]), and
    `transpose[s]` is the slot of its mirror; `lower` lists the slots below
    the diagonal.  `blocks` is the `spectral.BlockPartition` of the pattern's
    connected components.  `slots` lists the slots block after block, block
    n's from `slot_offsets[n]` to `slot_offsets[n + 1]`, and `flat` the
    position of each in its block's dense row-major array.
    """

    indptr: np.ndarray
    indices: np.ndarray
    rows: np.ndarray
    diag_slots: np.ndarray
    transpose: np.ndarray
    lower: np.ndarray
    blocks: BlockPartition
    slots: np.ndarray
    slot_offsets: np.ndarray
    flat: np.ndarray


def _layout(dim: int, keys: np.ndarray) -> _Layout:
    """`_Layout` of the pattern whose sorted row-major keys row * dim + col are `keys`."""
    rows, indices = np.divmod(keys, dim)
    indptr = np.searchsorted(rows, np.arange(dim + 1))
    blocks = connected_blocks(
        sparse.csr_matrix((np.ones(keys.size, dtype=np.int8), indices, indptr), shape=(dim, dim))
    )
    label, position = blocks.label[rows], blocks.position
    slots = np.argsort(label, kind="stable")
    slot_offsets = np.concatenate(([0], np.cumsum(np.bincount(label, minlength=len(blocks)))))
    flat = position[rows] * blocks.sizes[label] + position[indices]
    return _Layout(
        indptr=indptr,
        indices=indices,
        rows=rows,
        diag_slots=np.searchsorted(keys, np.arange(dim, dtype=np.int64) * (dim + 1)),
        # the pattern is symmetric, so its slots in column-major order are the
        # mirrors of its slots in row-major order
        transpose=np.argsort(indices, kind="stable"),
        lower=np.flatnonzero(rows > indices),
        blocks=blocks,
        slots=slots,
        slot_offsets=slot_offsets,
        flat=flat[slots],
    )


@dataclass(frozen=True, eq=False)
class FockHamiltonian:
    """One sector Hamiltonian, real symmetric, built on `basis`.

    `entries` holds H in float64 on every slot of the pattern of the basis's
    `_Layout`, exact zeros included: `ground_pair` solves from it, and
    `interacting` says whether any U^I_k is nonzero.  `matrix`, formed from
    `entries` on first read, is the CSR of H with the entries that come out
    exactly 0 dropped, but with the whole diagonal kept when no U^I_k is
    nonzero, as a chain of scipy sparse adds would store it.
    """

    basis: FockBasis
    normal_order: bool
    entries: np.ndarray = field(repr=False)
    interacting: bool

    @property
    def dim(self) -> int:
        return self.basis.dim

    @functools.cached_property
    def matrix(self) -> sparse.csr_matrix:
        layout, dim = self.basis._terms[0], self.dim
        if self.interacting:
            keep = self.entries != 0.0
        else:
            keep = np.zeros(self.entries.size, dtype=bool)
            keep[layout.diag_slots] = True
        kept = np.concatenate(([0], np.cumsum(keep)))
        return sparse.csr_matrix(
            (self.entries[keep], layout.indices[keep], kept[layout.indptr]), shape=(dim, dim)
        )


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
    check_kinetic_scale(hbar2_over_2m)

    k2 = np.array([lattice.k_squared(m) for m in lattice.modes])
    kinetic = hbar2_over_2m * (basis.occupations.astype(float) @ k2)
    diag = kinetic + (u0_ext - mu) * float(basis.n_particles)

    layout, terms = basis._terms
    # every entry is summed as a chain of scipy sparse adds would sum it, the
    # diagonal first and then one scaled term per mode in mode order
    acc = np.zeros(layout.indices.size)
    acc[layout.diag_slots] = diag
    inv_v = 1.0 / lattice.volume
    active = np.flatnonzero(u_int != 0.0)
    for i in active:
        slots, values, normal = terms[i]
        acc[slots] += (u_int[i] * inv_v) * (normal if normal_order else values)
    if not np.isfinite(acc).all():
        # an input error (a non-finite u0_ext or mu, or an overflow), which
        # ground_pair would report as a failed solve
        raise ConfigurationError(
            f"non-finite Hamiltonian entry from u_int_k, u0_ext={u0_ext} or mu={mu}"
        )
    herm_err = np.abs(acc - acc[layout.transpose]).max(initial=0.0)
    peak = np.abs(acc).max(initial=0.0)
    if herm_err > 1e-13 * max(peak, 1e-300):
        raise SolverError(
            f"Hamiltonian assembly lost Hermiticity: max deviation {herm_err:.3e}"
        )
    return FockHamiltonian(
        basis=basis, normal_order=bool(normal_order), entries=acc, interacting=bool(active.size)
    )


def ground_pair(h: FockHamiltonian):
    """(lowest eigenvalue, float64 eigenvector), residual-validated against 1e-10*|H|.

    H is diagonalized one block of its basis's `_Layout` at a time -- the
    interaction conserves total momentum, so the blocks are (pieces of) the
    momentum sectors -- by a real `eigh`, up to `operator.DENSE_DIM_LIMIT`
    states a block.  Each block is scattered straight from `h.entries`.
    The result is the all-blocks answer, the lowest level over every block
    with a tie going to the block with the smallest state index, but only
    the blocks that can hold it reach `eigh`.  By the Gershgorin circle
    theorem (S. Gershgorin, 1931) every eigenvalue of a block lies above
    min_i (H_ii - sum_{j != i} |H_ij|) over its rows, where the sum runs over
    the symmetric matrix `eigh` sees, the lower triangle and its transpose.
    The bounds are taken on H / 2^e, with 2^e the power of two just above
    max|H_ij|, so no disc overflows at any scale of H; dividing by a power of
    two is exact but where an entry falls into the subnormal range, which
    moves it by at most 2^-1075.  Blocks are solved lowest bound first, and
    the loop stops at the first block whose bound exceeds the lowest level
    found, over 2^e, by more than 4 n^2 eps max|H_ij| / 2^e, n the largest
    block.  That margin covers the rounding of the bound's sum of at most n
    terms of size <= max|H_ij| / 2^e (n^2 eps max|H_ij| / 2^e), the
    backward error of LAPACK's symmetric eigensolver, whose values are
    exact for a perturbation of norm <= p(n) eps |H|_2, with p(n) a modest
    function of n taken as n and |H|_2 <= n max|H_ij|, and the subnormal
    moves of the bound's at most 2n terms and of the level, at most
    (2n + 1) 2^-1075 against the 2 n^2 eps max|H_ij| / 2^e >= n^2 2^-52
    left over.  Without a subnormal the scaled bounds, margin and
    comparisons are those on H exactly, so the same blocks are solved.

    A block that passes the bound, after the first one solved, reaches
    `eigh` only if a certificate fails: LAPACK's Cholesky (`potrf`) on the
    lower triangle of A - sigma I, A = H_b / 2^e, with sigma = E + delta,
    E the lowest level found over 2^e, a = max|H_ij| / 2^e in [1/2, 1),
    n the block's size and delta = 8 n^3 eps (a + |E|).  If it factors,
    every eigenvalue `eigh` would compute for the block, over 2^e, lies
    strictly above E, and the block is skipped.  A factorization that runs
    to completion is exact for a perturbation of norm <= n gamma_{n+1}
    |A - sigma I|_2 (N. J. Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, Thm 10.3), so lambda_min(A) > sigma minus
    that, below 1.01 n^3 eps (a + |sigma|) for n <= 4096; rounding the
    shifted diagonal and sigma moves it by at most eps (a + |sigma|); the
    eigh backward error above takes n^2 eps a; and the subnormal moves of
    the block and of E, at most (n + 1) 2^-1075.  As a + |sigma| <= 1.0002
    (a + |E|), these sum to below 4 n^3 eps (a + |E|), half of delta.  So a
    skipped block's computed level could neither beat nor tie the returned
    one, and the solved blocks get the same arrays as in a loop over all of
    them.

    The residual and |H| are taken from `h.entries` / max|H_ij|, so neither
    overflows at any scale of H.
    """
    layout, values, dim = h.basis._terms[0], h.entries, h.dim
    blocks, sizes = layout.blocks, layout.blocks.sizes
    if sizes.max() > DENSE_DIM_LIMIT:
        raise ConfigurationError(
            f"dense solve capped at block dimension {DENSE_DIM_LIMIT} (largest block "
            f"{sizes.max()} of dimension {dim})"
        )
    # Gershgorin bound of each block, on H / 2^e with max|H_ij| = f 2^e and
    # f in [1/2, 1): the lower triangle (eigh's default) enters the discs of
    # its row and of its column
    peak = np.abs(values).max(initial=0.0)
    exponent = int(np.frexp(peak)[1])
    scaled = np.ldexp(values, -exponent)
    low = np.abs(scaled[layout.lower])
    radius = np.bincount(layout.rows[layout.lower], low, dim) + np.bincount(
        layout.indices[layout.lower], low, dim
    )
    disc = (scaled[layout.diag_slots] - radius)[blocks.members]
    bound = np.minimum.reduceat(disc, blocks.offsets[:-1])
    if not np.isfinite(bound).all():
        raise SolverError("Hamiltonian has non-finite Gershgorin bounds")
    unit = np.ldexp(peak, -exponent)
    margin = 4.0 * float(sizes.max()) ** 2 * np.finfo(float).eps * unit
    energy = None
    for n in np.argsort(bound, kind="stable"):
        level = None if energy is None else np.ldexp(energy, -exponent)
        if level is not None and bound[n] - margin > level:
            break
        size, own = sizes[n], slice(layout.slot_offsets[n], layout.slot_offsets[n + 1])
        block = np.zeros(size * size)
        block[layout.flat[own]] = values[layout.slots[own]]
        block = block.reshape(size, size)
        if level is not None and _above(np.ldexp(block, -exponent), level, unit):
            continue
        vals, vecs = np.linalg.eigh(block)
        if energy is None or vals[0] < energy or (vals[0] == energy and n < best):
            energy, best, block_vec = float(vals[0]), n, vecs[:, 0]
    vec = np.zeros(dim)
    vec[blocks[best]] = block_vec
    scale = peak if peak > 0.0 else 1.0
    ratio = values / scale
    image = np.bincount(layout.rows, ratio * vec[layout.indices], dim)
    resid = float(np.linalg.norm(image - (energy / scale) * vec))
    h_norm = float(np.linalg.norm(ratio))
    if resid > 1e-10 * max(h_norm, 1e-300):
        raise SolverError(
            f"ground-state residual {resid:.3e} exceeds 1e-10 * |H| = {1e-10 * h_norm:.3e}"
            f" (both on H / max|H_ij| = H / {scale:.3e})"
        )
    return energy, vec


def _above(block: np.ndarray, level: float, unit: float) -> bool:
    """Whether `eigh` would compute every value of `block` strictly above `level`.

    `block` is a block of H / 2^e, of which the lower triangle is read, and
    its diagonal is overwritten; `unit` is max|H_ij| / 2^e.  True when
    LAPACK's Cholesky, through numpy (whose BLAS `eigh` has loaded already),
    factors block - sigma I, sigma = level + 8 n^3 eps (unit + |level|); see
    `ground_pair` for that shift.
    """
    size = block.shape[0]
    delta = 8.0 * size**3 * np.finfo(float).eps * (unit + abs(level))
    block[np.diag_indices(size)] -= level + delta
    try:
        np.linalg.cholesky(block)
    except np.linalg.LinAlgError:
        return False
    return True


def condensate_expectation(h: FockHamiltonian) -> float:
    """<c|H|c> for the condensate state (all N particles in the zero mode): state 0."""
    return float(h.entries[h.basis._terms[0].diag_slots[0]])


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
      - functional_epp: E/N of the weak operator's ground value -ebar_N, in closed
        form, through the gamma = U/(hbar2_over_2m * V) bridge; `n_max` is
        checked, state guard included, but changes no output.
    Both interaction conventions are reported so the constant in the
    mean-field law is visible rather than assumed.  As U -> 0, with M the
    number of modes:
      - oracle_epp -> condensate_epp = U (N+M-1)/V, with a relative gap that
        vanishes at first order in U;
      - rel_dev (measured against prediction_epp) -> (M-1)/N, not 0;
      - oracle_normal_epp -> U (N-1)/V.
    """
    from .hermite import HermiteBasis
    from .params import ModelParams
    from .spectral import energy_from_eigenvalue

    if not is_integer(n_particles) or n_particles < 1:
        raise ConfigurationError(f"comparison needs an integer n_particles >= 1, got {n_particles!r}")
    check_kinetic_scale(hbar2_over_2m)
    n = int(n_particles)
    vol = lattice.volume
    # the functional column first, so every refusal comes before the oracle's work
    functional = []
    for u_val in coupling_scan:
        u_val = float(u_val)
        if not (u_val > 0.0):
            raise ConfigurationError(f"couplings must be positive, got {u_val}")
        gamma = u_val / (hbar2_over_2m * vol)
        k2 = HermiteBasis(lattice, gamma, n_max).coord_k2  # n_max's checks and state guard
        ebar = ModelParams(gamma=gamma, n_particles=n).ebar_n
        # L_W's ladder -sum_c n_c k_c^2 - ebar_N must be finite, as its matrix had to be
        if not (math.isfinite(ebar) and math.isfinite(sum(n_max * v for v in k2))):
            raise ConfigurationError(f"the weak ladder overflows at coupling {u_val}, n_max {n_max}")
        functional.append((u_val, energy_from_eigenvalue(-ebar, hbar2_over_2m=hbar2_over_2m) / n))
    basis = enumerate_basis(lattice, n)
    rows = []
    for u_val, functional_epp in functional:
        u_arr = np.full(lattice.num_modes, u_val)
        ham = build_hamiltonian(basis, u_arr, 0.0, 0.0, hbar2_over_2m=hbar2_over_2m)
        oracle_epp = ground_pair(ham)[0] / n
        ham_no = build_hamiltonian(
            basis, u_arr, 0.0, 0.0, hbar2_over_2m=hbar2_over_2m, normal_order=True
        )
        oracle_normal_epp = ground_pair(ham_no)[0] / n
        condensate_epp = condensate_expectation(ham) / n

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
