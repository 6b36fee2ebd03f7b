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
energies through E = hbar2_over_2m * (-lam).  The weak operator is the
diagonal ladder -sum_c n_c k_c^2 - ebar_N (see `operator`), whose ground value
is -ebar_N at every Hermite cap, so `mean_field_comparison` takes its
functional column in that closed form and builds no operator.

A `FockBasis` holds its lattice and one occupation array whose row 0 is the
condensate, so the functions on a sector take the basis alone.

The interaction conserves total momentum, so H is block diagonal over the
momentum sectors of the basis (`state_momentum`), and the sector is the unit
of the oracle.  A basis builds the interaction terms of a sector on first
use, from the sector's states and their one-particle moves, and keeps them
for every Hamiltonian on it, for both conventions.  A `FockHamiltonian` is
real symmetric: its diagonal and its couplings, formed into float64 entries
one set of sectors at a time.  `ground_pair` bounds every sector from the
diagonal alone, builds and solves only the sectors that can hold the ground,
and returns what a dense solve of every block would.
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

    `_sectors`, computed once on first use, is the `spectral.BlockPartition`
    of the states by total momentum, the sectors numbered by their smallest
    state as `connected_blocks` numbers blocks, so sector 0 holds the
    condensate.  `_store` keeps the interaction terms of every sector built
    so far (`_Store`); each sector is built at most once per basis.
    """

    lattice: ModeLattice
    n_particles: int
    occupations: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]

    @functools.cached_property
    def _sectors(self) -> BlockPartition:
        reach = 2 * self.n_particles * ((self.lattice.m_per_dim - 1) // 2) + 1
        key = (state_momentum(self) + reach // 2) @ reach ** np.arange(self.lattice.d)
        _, first, label = np.unique(key, return_index=True, return_inverse=True)
        # number the sectors by their smallest state
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(first.size)
        return _partition(rank[label])

    @functools.cached_property
    def _store(self) -> _Store:
        return _Store(len(self._sectors))


class _Store:
    """The interaction terms of the momentum sectors of one basis built so far.

    `builds` holds one `_Terms` per build, and sector s lies in
    `builds[where[s, 0]]` as its blocks `where[s, 1]` to `where[s, 2] - 1`;
    the row is -1 until the sector is built.
    """

    def __init__(self, n_sectors: int):
        self.builds: list[_Terms] = []
        self.where = np.full((n_sectors, 3), -1, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class _Terms:
    """The interaction terms of some momentum sectors of one basis, block after block.

    A block is a connected component of a sector's pattern, the union of
    the diagonal and of every n~_k n~_{-k}; in every sector probed it is the
    whole sector.  Block n has
      - the states `states[offsets[n]:offsets[n + 1]]`, ascending;
      - the slots `slot_offsets[n]` to `slot_offsets[n + 1] - 1`, in
        row-major order: slot s lies at (`rows[s]`, `cols[s]`), positions in
        `states`, and at `flat[s]` of the block's dense row-major array, and
        `mirror[s]` is the slot of (`cols[s]`, `rows[s]`); `diag[i]` is the
        slot of (i, i);
      - the parts `part_offsets[n]` to `part_offsets[n + 1] - 1`, which sum
        to its entries: part p adds to slot `slot[p]` the coefficient
        `coef[p]` of (diagonal, couplings) of a `FockHamiltonian` times
        `value[p]`, or `normal[p]` in the normal-ordered form.  The parts of
        a block are its diagonal (index the state, value 1.0) and then its
        term entries mode by mode (index dim + mode).
    """

    states: np.ndarray
    offsets: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    flat: np.ndarray
    mirror: np.ndarray
    slot_offsets: np.ndarray
    diag: np.ndarray
    slot: np.ndarray
    coef: np.ndarray
    value: np.ndarray
    normal: np.ndarray
    part_offsets: np.ndarray

    def take(self, blocks: np.ndarray) -> _Terms:
        """The terms of the given blocks alone, in that order."""
        at, owner = _ranges(self.offsets[blocks], self.offsets[blocks + 1])
        slots, slot_owner = _ranges(self.slot_offsets[blocks], self.slot_offsets[blocks + 1])
        parts, part_owner = _ranges(self.part_offsets[blocks], self.part_offsets[blocks + 1])
        offsets, slot_offsets, part_offsets = (
            np.concatenate(([0], np.cumsum(np.diff(a)[blocks])))
            for a in (self.offsets, self.slot_offsets, self.part_offsets)
        )
        # each block's shift of state positions and of slots
        moved = (offsets[:-1] - self.offsets[blocks])[slot_owner]
        shift = slot_offsets[:-1] - self.slot_offsets[blocks]
        return _Terms(
            states=self.states[at],
            offsets=offsets,
            rows=self.rows[slots] + moved,
            cols=self.cols[slots] + moved,
            flat=self.flat[slots],
            mirror=self.mirror[slots] + shift[slot_owner],
            slot_offsets=slot_offsets,
            diag=self.diag[at] + shift[owner],
            slot=self.slot[parts] + shift[part_owner],
            coef=self.coef[parts],
            value=self.value[parts],
            normal=self.normal[parts],
            part_offsets=part_offsets,
        )


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


@functools.lru_cache(maxsize=None)
def _move_pairs(lattice: ModeLattice):
    """(src, dst, mode): every move of a particle between two modes by a nonzero lattice mode.

    Mode index mode[p] is the displacement k = dst[p] - src[p]; the pairs
    run by source mode.
    """
    coords, grid = _mode_grid(lattice)
    # dst - src + h, a point of the cube exactly when dst - src is a mode
    shift = coords[None, :, :] - coords[:, None, :] + (lattice.m_per_dim - 1) // 2
    on = ((shift >= 0) & (shift < lattice.m_per_dim)).all(axis=2)
    np.fill_diagonal(on, False)
    src, dst = np.nonzero(on)
    return src, dst, grid[tuple(shift[src, dst].T)]


def _shift_pairs(lattice: ModeLattice, k_mode):
    """Index arrays (q, q+k) over the modes q with q+k also on the lattice."""
    coords, grid = _mode_grid(lattice)
    # each q + k + h, a point of the cube exactly when q + k is a mode
    shifted = coords + np.asarray(k_mode, dtype=np.int64) + (lattice.m_per_dim - 1) // 2
    (src,) = np.nonzero(((shifted >= 0) & (shifted < lattice.m_per_dim)).all(axis=1))
    return src, grid[tuple(shifted[src].T)]


def _partition(label: np.ndarray) -> BlockPartition:
    """The `spectral.BlockPartition` of the states by `label`.

    `label` must number the blocks by their smallest state already, as
    `connected_blocks` does.
    """
    members = np.argsort(label, kind="stable")
    sizes = np.bincount(label)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    position = np.empty_like(members)
    position[members] = np.arange(members.size)
    position -= offsets[label]
    for a in (label, members, offsets, sizes, position):
        a.flags.writeable = False
    return BlockPartition(label, members, offsets, sizes, position)


def _ranges(starts: np.ndarray, stops: np.ndarray):
    """(positions, owner): the ranges starts[i]..stops[i] - 1 end to end, and the i of each."""
    sizes = stops - starts
    owner = np.repeat(np.arange(sizes.size), sizes)
    return np.arange(owner.size) + (starts - np.cumsum(sizes) + sizes)[owner], owner


def _offsets(label: np.ndarray, count: int) -> np.ndarray:
    """Where the runs of the labels 0..count-1 start in an array sorted by label, and its end."""
    return np.concatenate(([0], np.cumsum(np.bincount(label, minlength=count))))


def _runs(keys: np.ndarray) -> np.ndarray:
    """Whether each element of a sorted array starts a run of equal ones."""
    new = np.ones(keys.size, dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    return new


def _moves(basis: FockBasis, states: np.ndarray, src: np.ndarray, dst: np.ndarray):
    """Every move of one particle from mode src[p] to mode dst[p] out of `states`.

    The pairs (src, dst) must run by ascending src.  Returns (origin, pair,
    target, value, back): the position in `states` of the state a move
    leaves, its p, the index of the state it makes,
    <target| a+_dst a_src |origin> = sqrt(n_src) sqrt(n_dst + 1), and the
    entry of the reverse move <origin| a+_src a_dst |target>, from the
    target's occupations, sqrt(n_dst + 1) sqrt(n_src).

    A state's index is the sum over modes j < M - 1 of `_rank_table`[left_j,
    j], left_j its particles after mode j.  Moving one particle from mode t
    to mode q < t lowers left_j by one for q <= j < t, and moving it to q > t
    raises left_j by one for t <= j < q.  So the index of the state it gives
    is the old index plus down[t] - down[q], or plus up[q] - up[t]: column j
    of down (up) sums over the modes before j the change of each term when
    left_j drops (grows) by one.  No move lowers a left_j of 0 or raises one
    of N, so the table row is clipped there and the change reads 0.
    """
    occ = basis.occupations[states]
    m_modes, n = basis.lattice.num_modes, basis.n_particles
    table, cols = _rank_table(m_modes, n), np.arange(m_modes - 1)
    left = n - np.cumsum(occ[:, :-1], axis=1)
    here = table[left, cols]
    # down and up, one after the other
    steps = np.zeros((2, states.size, m_modes), dtype=np.int64)
    for total, row in zip(steps, (np.maximum(left - 1, 0), np.minimum(left + 1, n))):
        np.cumsum(table[row, cols] - here, axis=1, out=total[:, 1:])
    # every occupied (state, mode) with every pair that leaves that mode
    ends = np.searchsorted(src, np.arange(m_modes + 1))
    origin, t = np.nonzero(occ)
    pair, owner = _ranges(ends[t], ends[t + 1])
    origin, t, q = origin[owner], t[owner], dst[pair]
    row = ((q > t) * states.size + origin) * m_modes
    steps = steps.reshape(-1)
    moved = steps[row + np.maximum(q, t)] - steps[row + np.minimum(q, t)]
    occ = occ.reshape(-1)
    root_src = np.sqrt(occ[origin * m_modes + t].astype(float))
    root_dst = np.sqrt(occ[origin * m_modes + q] + 1.0)
    return origin, pair, states[origin] + moved, root_src * root_dst, root_dst * root_src


def shift_operator(basis: FockBasis, k_mode) -> sparse.csr_matrix:
    """Matrix of n~_k = sum_q a+_q a_{q+k}, sharp-cutoff, in the given basis.

    Diagonal (q = q+k) contributions use the integer occupation directly so
    that n~_0 = N exactly in floating point.  Otherwise every entry is one
    move of a particle from mode q+k to mode q out of its column's state,
    located by its rank in the descending-lex order (`_moves`, the moves the
    sector build pairs up), with no search.
    """
    k_mode = tuple(int(c) for c in k_mode)
    if len(k_mode) != basis.lattice.d:
        raise ConfigurationError(
            f"k_mode {k_mode} does not have the lattice's {basis.lattice.d} components"
        )
    src, dst = _shift_pairs(basis.lattice, k_mode)
    if not any(k_mode):
        # diagonal: the integer particle count, stored only where it is nonzero
        count = basis.occupations[:, src].sum(axis=1)
        (states,) = np.nonzero(count)
        rows, cols, vals = states, states, count[states].astype(float)
    else:
        # a particle of mode q+k goes to mode q; the moves run by q+k
        by_src = np.argsort(dst)
        cols, _, rows, vals, _ = _moves(basis, np.arange(basis.dim), dst[by_src], src[by_src])
    mat = sparse.csr_matrix(
        (vals, (rows.astype(int), cols.astype(int))), shape=(basis.dim, basis.dim)
    )
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def _products(basis: FockBasis, states: np.ndarray, sector: np.ndarray, sizes: np.ndarray):
    """Every entry of every n~_k n~_{-k}, k != 0, on sectors: (sector, k, place, value, normal).

    `states` lists the sectors' states sector after sector, each state's
    sector (an index into `sizes`) in `sector`.  An entry at (r, c) of a
    sector lies at place r * n + c of its n by n dense array, r and c
    positions in the sector; the entries of each sector come mode by mode.

    Term k is n~_k n~_{-k}.  n~_{-k} moves one particle by k, so its entry
    at (j, c) is the `value` of the move by k from c to j, and the entry of
    n~_k at (r, j) is the `back` of the move by k from r to j.  So the
    term's entry at (r, c) sums back * value over the states j that a move
    by k reaches from both r and c, and r and c share a sector.  It is
    summed in ascending j, as scipy's product of the CSR matrices of n~_k
    and n~_{-k} sums it, so it keeps that product's bits.  Normal ordering
    subtracts, on the diagonal, sum_{q in S_k} n_q: the source occupations
    of the moves by k.
    """
    m_modes, dim, count = basis.lattice.num_modes, basis.dim, states.size
    base = np.cumsum(sizes) - sizes
    place = np.arange(count) - base[sector]
    src, dst, mode = _move_pairs(basis.lattice)
    origin, pair, target, value, back = _moves(basis, states, src, dst)
    k = mode[pair]
    # normal ordering takes from the diagonal entry of each state and k the
    # source occupations of its moves by k
    occupied = basis.occupations.reshape(-1)[states[origin] * m_modes + src[pair]]
    correction = np.bincount(k * count + origin, occupied, m_modes * count)
    # the moves by one k into one state j, run after run in ascending (k, j)
    # (each large array is dropped once used)
    order = np.argsort(k * dim + target)
    new = _runs((k * dim + target)[order])
    del pair, target, occupied
    origin, k, value, back = (x[order] for x in (origin, k, value, back))
    start = np.flatnonzero(new)
    run = np.cumsum(new) - 1
    stop = np.append(start[1:], new.size)
    # each product's key, in bit fields from the top: the sector, k and the
    # entry's place, then the run; a sort orders the entries sector by
    # sector and mode by mode, and each entry's products in ascending j
    k_bits, q_bits, r_bits = (int(x).bit_length() for x in (m_modes, sizes.max() ** 2, start.size))
    if sizes.size.bit_length() + k_bits + q_bits + r_bits > 62:
        raise ConfigurationError(f"the terms of {count} states overflow the sort key")
    own = sector[origin]
    line = ((own << k_bits | k) << q_bits | place[origin] * sizes[own]) << r_bits | run
    column = place[origin] << r_bits
    del own, origin
    # every two moves (a, b) of a run, formed and summed a few modes at a
    # time, about 2^20 pairs at once, as all the products of an entry share
    # its k
    pairs = np.concatenate(([0], np.cumsum((stop - start)[run])))
    cut = np.searchsorted(k, np.arange(m_modes + 1))
    edges = np.unique(np.concatenate(([0, k.size], cut[1:][np.diff(pairs[cut] >> 20) > 0])))
    keys, sums = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for lo, hi in zip(edges[:-1], edges[1:]):
        b, a = _ranges(start[run[lo:hi]], stop[run[lo:hi]])
        a += lo
        key = line[a] + column[b]
        product = back[a] * value[b]
        del a, b
        by_key = np.argsort(key)
        key = key[by_key] >> r_bits
        product = product[by_key]
        del by_key
        new = _runs(key)
        sums.append(np.bincount(np.cumsum(new) - 1, product))
        keys.append(key[new])
    del line, column, back, value, k, run
    key, values = np.concatenate(keys), np.concatenate(sums)
    del keys, sums
    e_sector = key >> q_bits + k_bits
    e_mode = key >> q_bits & (1 << k_bits) - 1
    e_place = key & (1 << q_bits) - 1
    del key
    row, col = np.divmod(e_place, sizes[e_sector])
    (diag,) = np.nonzero(row == col)
    normal = values.copy()
    normal[diag] -= correction[e_mode[diag] * count + base[e_sector[diag]] + row[diag]]
    return e_sector, e_mode, e_place, values, normal


def _build(basis: FockBasis, sectors: np.ndarray) -> None:
    """Build the interaction terms of `sectors` (unbuilt, ascending) in one pass, into the store.

    The k != 0 terms come from `_products`; the k = 0 term is N^2 on the
    diagonal.
    """
    part, n, dim = basis._sectors, basis.n_particles, basis.dim
    at, sector = _ranges(part.offsets[sectors], part.offsets[sectors + 1])
    states, count = part.members[at], at.size
    sizes = part.sizes[sectors].astype(np.int64)
    base = np.cumsum(sizes) - sizes
    # each slot's place in the dense arrays of the sectors laid end to end
    square = np.cumsum(sizes * sizes) - sizes * sizes
    e_sector, e_mode, e_place, values, normal = _products(basis, states, sector, sizes)
    # the parts of every entry: the diagonal, then each term in mode order
    diag_flat = square[sector] + part.position[states] * (sizes[sector] + 1)
    ones = np.ones(count)
    parts = [(diag_flat, states, ones, ones)]
    if n:
        nn = np.full(count, float(n) * float(n))
        parts.append((diag_flat, np.full(count, dim), nn, nn - float(n)))
    parts.append((square[e_sector] + e_place, dim + e_mode, values, normal))
    del e_sector, e_mode, e_place, values, normal
    flat, coef, value, normal = (np.concatenate(x) for x in zip(*parts))
    del parts
    present = np.zeros(int(square[-1] + sizes[-1] ** 2), dtype=bool)
    present[flat] = True
    pattern = np.flatnonzero(present)
    # the slot of each place the pattern holds
    index = np.cumsum(present, dtype=np.int32)
    index -= 1
    del present
    slot = index[flat]
    del flat
    own = np.searchsorted(square, pattern, side="right") - 1
    row, col = np.divmod(pattern - square[own], sizes[own])
    mirror = index[square[own] + col * sizes[own] + row]
    del index
    row, col = row + base[own], col + base[own]
    # a sector is one block when each of its states but the first has a
    # pattern neighbour before it, its row's first slot
    indptr = _offsets(row, count)
    positions = np.arange(count)
    if ((col[indptr[:-1]] < positions) | (positions == base[sector])).all():
        blocks = _partition(sector)
    else:
        links = np.ones(pattern.size, dtype=np.int8)
        blocks = connected_blocks(sparse.csr_matrix((links, col, indptr), shape=(count, count)))
    # slots and parts block by block; a sector of one block keeps its order
    label = blocks.label[row]
    by_block = np.argsort(label, kind="stable")
    rank = np.empty(by_block.size, dtype=np.int32)
    rank[by_block] = np.arange(by_block.size)
    part_block = label[slot]
    part_offsets = _offsets(part_block, len(blocks))
    by_part = np.argsort(part_block, kind="stable")
    del part_block
    # the arrays kept, reordered one at a time
    diag = rank[slot[blocks.members]]
    slot = rank[slot[by_part]]
    coef = coef[by_part].astype(np.int32)
    value = value[by_part]
    normal = normal[by_part]
    inverse = np.argsort(blocks.members).astype(np.int32)
    terms = _Terms(
        states=states[blocks.members],
        offsets=blocks.offsets,
        rows=inverse[row][by_block],
        cols=inverse[col][by_block],
        flat=(blocks.position[row] * blocks.sizes[label] + blocks.position[col])[by_block],
        mirror=rank[mirror][by_block],
        slot_offsets=_offsets(label, len(blocks)),
        diag=diag,
        slot=slot,
        coef=coef,
        value=value,
        normal=normal,
        part_offsets=part_offsets,
    )
    store = basis._store
    block_sector = sectors[sector[blocks.members[blocks.offsets[:-1]]]]
    store.where[sectors] = np.column_stack((
        np.full(sectors.size, len(store.builds)),
        np.searchsorted(block_sector, sectors),
        np.searchsorted(block_sector, sectors, side="right"),
    ))
    store.builds.append(terms)


# a non-finite entry comes from the input (a non-finite u0_ext or mu, or an
# overflow), so it is a configuration error, not a failed solve
_NON_FINITE = "non-finite Hamiltonian entry from u_int_k, u0_ext or mu"


@dataclass(frozen=True, eq=False)
class FockHamiltonian:
    """One sector Hamiltonian, real symmetric, on `basis`.

    `diagonal` holds kinetic + (U0 - mu) N of every state and `couplings`
    U^I_k / V of every mode, both float64, and `normal_order` the
    convention.  H's entries are formed from these and the basis's stored
    terms, one set of sectors at a time, when a solve asks for them.
    """

    basis: FockBasis
    diagonal: np.ndarray = field(repr=False)
    couplings: np.ndarray = field(repr=False)
    normal_order: bool = False

    @property
    def dim(self) -> int:
        return self.basis.dim


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
    # the lattice index of -k for every mode k
    coords, grid = _mode_grid(lattice)
    mirror = grid[tuple(((lattice.m_per_dim - 1) // 2 - coords).T)]
    if (np.abs(u_int - u_int[mirror]) > 1e-12 * scale).any():
        raise ConfigurationError(
            "u_int_k must be conjugate-symmetric (even) across k -> -k"
        )
    check_kinetic_scale(hbar2_over_2m)

    k2 = np.array([lattice.k_squared(m) for m in lattice.modes])
    kinetic = hbar2_over_2m * (basis.occupations.astype(float) @ k2)
    diagonal = kinetic + (u0_ext - mu) * float(basis.n_particles)
    if not np.isfinite(diagonal).all():
        raise ConfigurationError(_NON_FINITE)
    return FockHamiltonian(basis, diagonal, u_int * (1.0 / lattice.volume), bool(normal_order))


def _terms(basis: FockBasis, sectors: np.ndarray) -> list[_Terms]:
    """The terms of `sectors`, one `_Terms` for each build they lie in.

    Those not built yet are built first, together in one pass.
    """
    if not sectors.size:
        return []
    store = basis._store
    where = store.where[sectors]
    if (where[:, 0] < 0).any():
        _build(basis, np.unique(sectors[where[:, 0] < 0]))
        where = store.where[sectors]
    pieces = []
    for build in np.unique(where[:, 0]):
        here = where[where[:, 0] == build]
        terms = store.builds[build]
        blocks, _ = _ranges(here[:, 1], here[:, 2])
        pieces.append(terms if blocks.size == terms.offsets.size - 1 else terms.take(blocks))
    return pieces


def _entries(h: FockHamiltonian, terms: _Terms) -> np.ndarray:
    """H on the slots of `terms`.

    Refuses non-finite entries (`ConfigurationError`) and entries that
    differ from their mirror's by more than 1e-13 max|H_ij| (`SolverError`).
    """
    # every entry summed as a chain of scipy sparse adds would sum it, the
    # diagonal first and then one scaled term per mode in mode order
    coefficients = np.concatenate((h.diagonal, h.couplings))
    values = np.bincount(
        terms.slot,
        coefficients[terms.coef] * (terms.normal if h.normal_order else terms.value),
        terms.slot_offsets[-1],
    )
    if not np.isfinite(values).all():
        raise ConfigurationError(_NON_FINITE)
    herm_err = np.abs(values - values[terms.mirror]).max(initial=0.0)
    if herm_err > 1e-13 * max(np.abs(values).max(initial=0.0), 1e-300):
        raise SolverError(f"Hamiltonian assembly lost Hermiticity: max deviation {herm_err:.3e}")
    return values


def _weyl_bounds(h: FockHamiltonian):
    """(bound, margin): a lower bound on the levels of each sector, from H's diagonal alone.

    (None, None) when some U^I_k < 0, or when a bound or the margin is not
    finite; see `ground_pair`.
    """
    c = h.couplings
    if (c < 0.0).any():
        return None, None
    basis = h.basis
    n, part = float(basis.n_particles), basis._sectors
    diagonal = h.diagonal
    with np.errstate(over="ignore", invalid="ignore"):
        if h.normal_order:
            # sum_k c_k sum_{q in S_k} n_q, the diagonal that normal ordering
            # takes from the terms; S_0 is every mode
            src, _, mode = _move_pairs(basis.lattice)
            weight = c[0] + np.bincount(src, c[mode], c.size)
            diagonal = diagonal - basis.occupations @ weight
        bound = np.minimum.reduceat(diagonal[part.members], part.offsets[:-1]) + c[0] * n * n
        size = float(part.sizes.max())
        peak = np.abs(h.diagonal).max() + np.abs(c).sum() * n * n
        margin = 4.0 * size * (size + n + c.size + 10) * (np.finfo(float).eps * peak + 2.0**-1074)
    if not (np.isfinite(bound).all() and np.isfinite(margin)):
        return None, None
    return bound, float(margin)


def ground_pair(h: FockHamiltonian):
    """(lowest eigenvalue, float64 eigenvector), residual-validated against 1e-10*|H|.

    H is block diagonal over the momentum sectors of its basis, and each
    sector is formed and diagonalized one block (a connected component of
    its pattern) at a time by a real `eigh`, up to `operator.DENSE_DIM_LIMIT`
    states a sector.  The result is the all-blocks answer, the lowest level
    over every block with a tie going to the block with the smallest state
    index, but only the sectors that can hold it are built, and only the
    blocks that can hold it reach `eigh`.

    Sectors first.  n~_k n~_{-k} = n~_k n~_k+ is positive semidefinite and
    the k = 0 term is N^2 I, so for U^I_k >= 0 Weyl's inequality (H. Weyl,
    Math. Ann. 71, 441, 1912) puts every level of a sector at or above
    B = min over its states of the diagonal + U^I_0 N^2 / V.  In the
    normal-ordered form each term also takes sum_{q in S_k} n_q from the
    diagonal, so B takes sum_k (U^I_k / V) sum_{q in S_k} n_q from each
    state's diagonal first.  The sector of lowest B is solved first; then
    one build forms every sector whose B less the margin below does not
    exceed the level E found, and those go through the block steps below.
    A sector left out could neither beat nor tie E.  H's computed entries
    differ from the exact sum of the float diagonal and couplings times the
    exact terms by rounding: each entry sums at most N + M + 10 rounded
    products and adds, M the number of modes, of parts whose sizes add up
    to at most 2a, a = max|diagonal| + N^2 sum_k |U^I_k| / V (every |H_ij|
    lies below a, as every term entry lies below N^2), so by at most
    1.01 (N + M + 10) eps a, and in 2-norm by n times that, n the largest
    sector.  B itself rounds by at most (N + M + 10) eps a, and `eigh` may
    report a level up to n^2 eps a low (the backward error taken below),
    which is doubled.  The margin 4 n (n + N + M + 10) (eps a + 2^-1074)
    covers these, and each rounding in the subnormal range, at most
    2^-1075.  With a U^I_k < 0 there is no such bound, and every sector is
    built.

    Then blocks.  By the Gershgorin circle theorem (S. Gershgorin, 1931)
    every eigenvalue of a block lies above min_i (H_ii - sum_{j != i} |H_ij|)
    over its rows, where the sum runs over the symmetric matrix `eigh` sees,
    the lower triangle and its transpose.  Each formed set of sectors takes
    its bounds on H / 2^e, with 2^e the power of two just above its
    max|H_ij|, so no disc overflows at any scale of H; dividing by a power
    of two is exact but where an entry falls into the subnormal range, which
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

    A block that passes the bound, once a level is found, reaches `eigh`
    only if a certificate fails: LAPACK's Cholesky (`potrf`) on the lower
    triangle of A - sigma I, A = H_b / 2^e, with sigma = E + delta, E the
    lowest level found over 2^e, a = max|H_ij| / 2^e in [1/2, 1), n the
    block's size and delta = 8 n^3 eps (a + |E|).  If it factors, every
    eigenvalue `eigh` would compute for the block, over 2^e, lies strictly
    above E, and the block is skipped.  A factorization that runs to
    completion is exact for a perturbation of norm <= n gamma_{n+1}
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

    The residual is taken on the returned block and |H| over the sectors
    formed, both over their max|H_ij|, so neither overflows at any scale of
    H.  |H| over the formed sectors is at most |H| over the basis, so the
    check is at least as strict as one over every sector.
    """
    basis = h.basis
    sizes = basis._sectors.sizes
    if sizes.max() > DENSE_DIM_LIMIT:
        raise ConfigurationError(
            f"dense solve capped at block dimension {DENSE_DIM_LIMIT} (largest block "
            f"{sizes.max()} of dimension {basis.dim})"
        )
    bound, margin = _weyl_bounds(h)
    formed = []
    if bound is None:
        best = _solve(h, np.arange(sizes.size), None, formed)
    else:
        first = int(np.argmin(bound))
        best = _solve(h, np.array([first]), None, formed)
        rest = np.flatnonzero(bound - margin <= best[0])
        best = _solve(h, rest[rest != first], best, formed)
    energy, _, block, states, block_vec = best
    vec = np.zeros(basis.dim)
    vec[states] = block_vec
    values = np.concatenate(formed)
    peak = np.abs(values).max(initial=0.0)
    scale = peak if peak > 0.0 else 1.0
    resid = float(np.linalg.norm((block / scale) @ block_vec - (energy / scale) * block_vec))
    h_norm = float(np.linalg.norm(values / scale))
    if resid > 1e-10 * max(h_norm, 1e-300):
        raise SolverError(
            f"ground-state residual {resid:.3e} exceeds 1e-10 * |H| = {1e-10 * h_norm:.3e}"
            f" (both on H / max|H_ij| = H / {scale:.3e})"
        )
    return energy, vec


def _solve(h: FockHamiltonian, sectors: np.ndarray, best, formed: list):
    """The lowest level over `best` and the blocks of `sectors`, by `ground_pair`'s block steps.

    `best` and the result are None or (level, smallest state of its block,
    the block as the dense array `eigh` took, its states, the block's
    eigenvector of that level).  H's entries on each piece of terms formed
    are appended to `formed`.
    """
    for terms in _terms(h.basis, sectors):
        values = _entries(h, terms)
        formed.append(values)
        offsets = terms.offsets
        sizes = np.diff(offsets)
        peak = np.abs(values).max(initial=0.0)
        exponent = int(np.frexp(peak)[1])
        unit = np.ldexp(peak, -exponent)
        # one block with no level found yet is solved whatever its bound
        order = [0]
        if best is not None or sizes.size > 1:
            # Gershgorin bound of each block, on H / 2^e with max|H_ij| = f 2^e
            # and f in [1/2, 1): the lower triangle (eigh's default) enters the
            # discs of its row and of its column
            scaled = np.ldexp(values, -exponent)
            lower = terms.rows > terms.cols
            low = np.abs(scaled[lower])
            radius = np.bincount(terms.rows[lower], low, offsets[-1]) + np.bincount(
                terms.cols[lower], low, offsets[-1]
            )
            bound = np.minimum.reduceat(scaled[terms.diag] - radius, offsets[:-1])
            margin = 4.0 * float(sizes.max()) ** 2 * np.finfo(float).eps * unit
            order = np.argsort(bound, kind="stable")
        for n in order:
            level = None if best is None else np.ldexp(best[0], -exponent)
            if level is not None and bound[n] - margin > level:
                break
            size, own = sizes[n], slice(terms.slot_offsets[n], terms.slot_offsets[n + 1])
            block = np.zeros(size * size)
            block[terms.flat[own]] = values[own]
            block = block.reshape(size, size)
            if level is not None and _above(np.ldexp(block, -exponent), level, unit):
                continue
            vals, vecs = np.linalg.eigh(block)
            states = terms.states[offsets[n] : offsets[n + 1]]
            if best is None or vals[0] < best[0] or (vals[0] == best[0] and states[0] < best[1]):
                best = (float(vals[0]), states[0], block, states, vecs[:, 0])
    return best


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
    """<c|H|c> for the condensate state (all N particles in the zero mode): state 0, in sector 0."""
    (terms,) = _terms(h.basis, np.zeros(1, dtype=np.int64))
    return float(_entries(h, terms)[terms.diag[0]])


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
