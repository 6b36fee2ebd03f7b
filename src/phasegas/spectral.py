"""Eigen-analysis of the assembled non-Hermitian mode operators.

Ground states carry the largest real part of the spectrum; energies follow
from an operator eigenvalue lam through E = hbar2_over_2m * (-lam).

Both solvers work one exact symmetry block at a time.  The blocks are the
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
So every check -- residuals, L^H R = I, the eigenvalue condition number --
runs on the block, and only the pairs a caller asks for are expanded to
full-length vectors.

The iterative path (`method="arpack"`) splits the same way.  1x1 blocks are
read off the diagonal and blocks of fewer than count + 2 states go through the
dense block code, so at epsilon = 0 no Arnoldi run happens at all.  Each larger
block gets ARPACK for its `count` leading pairs.  When the weight of
`operator.symmetry_weight` makes W L symmetric -- a certificate tested on the
matrix at every call -- one run on the balanced block D B D^-1 suffices: the
left eigenvectors are conj(W R).  Otherwise (a nonzero potential u_k, or
d = 2) a second run on the adjoint supplies them.  Left vectors of every
source -- LAPACK `eig`, the weight, adjoint Ritz vectors, `eigh` on a balanced
block -- go through the same checks, so a degenerate cluster cut inside a
block raises SolverError instead of returning a wrong pair.

Both solvers work in real arithmetic when the operator has a real form.  In
the Hermite basis the entries of L that change the total degree by an even
amount are real and those that change it by an odd amount -- the quadratic
drift i*epsilon*d(phi phi .), like the i*phi^3 coupling of PT-symmetric
quantum mechanics (C. M. Bender and S. Boettcher, Phys. Rev. Lett. 80, 5243,
1998), and the potential term -- are imaginary.  With S = diag(i^deg), deg the
total Hermite degree of a basis state, A = S^-1 L S is then exactly real
(`_real_form`, a certificate tested on every call).  LAPACK runs dgeev and
ARPACK its real iteration on the blocks of A, and the weight certificate
uses W' = (-1)^deg W on A.  The vectors never leave A's basis inside the
solver: the phase choice `_fix_phases`, the bi-orthonormalization and every
check run on the block of A, in float64 when dgeev returns a real spectrum.
Checking there is exact, not a relaxation.  The pairs of L are R = S v c and
L = S l c, with S and the column phases c diagonal with entries of unit
modulus, so in exact arithmetic |L^H R - I| = |l^H v - I| entrywise, |L| =
|l|, and the residuals on L's block M equal those on A's:
|M R - R lam| = |A v - v lam| and |M^H L - L conj(lam)| = |A^H l - l conj(lam)|.
A pair is mapped to L's basis only when `Spectrum.pair` or the reduced
resolvent expands it.  An operator without a real form is solved the same
way, in complex arithmetic, with S = I.  Every eigenvalue is read off A, so
two operators with one real form bit for bit (`Spectrum.shares_form`, e.g.
L(epsilon) and L(-epsilon) = conj L(epsilon)) have the same spectrum array.

The weight certificate also serves the dense path.  W' has a constant sign
on every block of a certified real form (the blocks split the reflection
sectors, and sign W' = (-1)^(sum n_y)), so its balanced block B = D A D^-1 is
exactly +-a real symmetric matrix: detailed balance, as for a Fokker-Planck
operator.  Such a block goes to the symmetric `eigh` on sign(W') (B + B^T)/2,
its right vectors map back through D^-1 and its left vectors are W' r scaled
to l^H v = 1: the vectors of a symmetric matrix are orthonormal, so W' r is
already bi-orthogonal to every other right vector and no solve is needed.
Mapping back amplifies eigh's backward error by max D / min D, so a block
whose a-priori bound (max D / min D) u max|B| (u the unit roundoff) already
exceeds the residual tolerance skips the attempt, and a block whose
symmetric result fails any check is solved again by the general `eig`.
Both go through the same phase choice and checks.

No block is sliced by scipy.  Each multi-state block of the working matrix
is gathered once from its CSR arrays, its columns renumbered within the
block (`_diagonal_block`): the arrays of `work[idx][:, idx]` bit for bit,
so every product and sum over a block runs as before.  The balance is
formed on the stored entries, with the working matrix's pattern, so the
same gather orders it; its symmetry certificate, the Gershgorin bounds and
ARPACK's shift are passes over those arrays.

Blocks that the quarter-period translation T = T_{L/4} maps onto each other
are solved once.  With no potential the operator commutes with T, which
permutes the Hermite states up to sign.  `solve` works that signed
permutation Q out from `basis_dims` (`operator.quarter_translation`), as it
does the phases S and the weight W, so an assembled, a loaded and a
hand-built operator on one basis get the same map.  T maps a block onto
itself or onto a partner similar to it by Q, and `solve` certifies each
such pair on every call, on the gathered working blocks
(`_translation_partners`): Q A_n Q^T must have A_p's pattern and data bit
for bit, so a map that does not hold -- a potential u_k != 0, a pair of a
d = 2 operator -- only means no reuse.  The lower-indexed block of a
certified pair is its representative, whatever order the blocks are
visited in: only it reaches `eigh`, `eig` or ARPACK, and its Gershgorin
bound serves both, for the loop order and for the skip.  The partner takes
the values as exact copies and the Q-images of the vectors, which then go
through the phase choice and `_check_pairs` on the partner's own block like
any solved block's (an ARPACK partner solves for its own left vectors).

The same balance decides which blocks a request for the `count` leading
values needs.  B is similar to the block of L, so by the Gershgorin circle
theorem every eigenvalue of the block has real part at most
max_i (B_ii + sum_{j != i} |B_ij|).  A block that goes to `eigh` is skipped
when that bound, plus a margin for the solvers' rounding, lies below the
count-th largest value already known; every other block is always solved,
so each refusal fires as in a solve of every block (`solve`).

The epsilon series for the ground eigenvalue uses the standard
Rayleigh-Schrodinger recursion with bi-orthogonal projectors,

    e_n   = <L_g| V |psi_{n-1}>,
    (H0 - lam_g) |psi_n> = -V |psi_{n-1}> + sum_{m=1..n} e_m |psi_{n-m}>,

solved by the ground's reduced resolvent (Kato),
psi_n = sum_{j != g} R_j <L_j|rhs> / (lam_j - lam_g), read off the validated
eigendecomposition of H0 that `solve` returns.  Leaving the ground's own
column out is the intermediate normalization <L_g|psi_n> = 0.  The sum
splits over the blocks of H0: one vectorized division on the 1x1 blocks and
R_b ((L_b^H rhs_b) / (lam_b - lam_g)) on the others, so no D x D array is
formed.  A near-degenerate ground level aborts with a diagnostic rather than
returning unreliable coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sparse
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .errors import ConfigurationError, SolverError, is_integer
from .hermite import HermiteBasis
from .operator import DENSE_DIM_LIMIT, OperatorMatrix, assemble
from .operator import hermite_degrees, quarter_translation, symmetry_weight
from .params import ModelParams

# Beyond this eigenvalue condition number half the digits of the eigenvalue
# are lost to roundoff, the signature of a (numerically) defective eigenvalue.
CONDITION_LIMIT = 1.0 / np.sqrt(np.finfo(float).eps)
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
# the perturbation series refuses a ground level closer than this to another level
DEGENERACY_TOL = 1e-8
# seed of the ARPACK start vectors, one fresh generator per block
_ARPACK_SEED = 20260816


@dataclass(frozen=True)
class EigenPair:
    """One validated eigenpair: lambda, right/left vectors, residual |(M-lam)v|/|v|."""

    eigenvalue: complex
    right_vector: np.ndarray
    left_vector: np.ndarray
    residual: float


@dataclass(frozen=True)
class PerturbationSeries:
    """Ground-eigenvalue expansion coefficients in epsilon, order 0 first."""

    orders: tuple

    def evaluate(self, eps: float) -> complex:
        total = 0.0 + 0.0j
        for j, c in enumerate(self.orders):
            total += c * eps ** j
        return total


def _sorted_order(w: np.ndarray) -> np.ndarray:
    """Descending real part, then ascending |imag|, then original index."""
    return np.lexsort((np.arange(w.size), np.abs(w.imag), -w.real))


def _fix_phases(v: np.ndarray, s: np.ndarray):
    """(unit-norm columns of v, unit phase c per column): S v c has its largest entry real positive.

    v holds vectors of the working matrix and s = diag S the unit phases of
    `_real_form`.  v keeps its arithmetic; the phase is formed by real
    divisions, so for real v it is exactly one of 1, i, -1, -i.
    """
    nrm = np.linalg.norm(v, axis=0)
    if not nrm.all():
        raise SolverError("solver returned a zero eigenvector")
    v = v / nrm
    rows = np.argmax(np.abs(v), axis=0)
    top = s[rows] * v[rows, np.arange(v.shape[1])]
    mag = np.abs(top)
    c = np.empty(top.size, dtype=complex)
    c.real, c.imag = top.real / mag, -top.imag / mag
    return v, c


@dataclass(frozen=True, eq=False)
class BlockPartition:
    """The blocks of `connected_blocks`: a partition of the states 0..dim-1, built once.

    Blocks are numbered by their smallest state.  `label[i]` is state i's
    block and `position[i]` its place within that block; `members` lists
    the states block after block, each block ascending, and block n is
    `members[offsets[n]:offsets[n + 1]]`, of `sizes[n]` states.  `offsets`
    count states, unlike `Spectrum.starts`, which count value slots.  The
    arrays are read-only.  `len` is the number of blocks, and `[n]` (so
    also iteration) gives block n as a view of `members`.
    """

    label: np.ndarray
    members: np.ndarray
    offsets: np.ndarray
    sizes: np.ndarray
    position: np.ndarray

    def __len__(self) -> int:
        return self.sizes.size

    def __getitem__(self, n) -> np.ndarray:
        n = range(self.sizes.size)[n]
        return self.members[self.offsets[n] : self.offsets[n + 1]]


def connected_blocks(matrix) -> BlockPartition:
    """The weakly connected components of a square matrix's pattern, as a `BlockPartition`.

    Two indices share a block when a stored entry links them in either
    direction, so the matrix is block-diagonal over the blocks: every
    stored entry has its row and column in the same block.  Each block is
    an ascending index array, and the blocks are ordered by their smallest
    index.  The graph has unit weights on the stored positions, so complex
    (even purely imaginary) data is never cast.
    """
    csr = sparse.csr_matrix(matrix)
    pattern = sparse.csr_matrix(
        (np.ones(csr.indices.size, dtype=np.int8), csr.indices, csr.indptr),
        shape=csr.shape,
    )
    n_blocks, labels = csgraph.connected_components(pattern, directed=True, connection="weak")
    # renumber the components by the rank of their smallest state
    label = np.argsort(np.argsort(np.unique(labels, return_index=True)[1]))[labels]
    # the argsort is stable, so each block's states ascend
    members = np.argsort(label, kind="stable")
    sizes = np.bincount(label, minlength=n_blocks)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    # argsort inverts the permutation `members`: each state's place in it,
    # less its block's offset
    position = np.argsort(members) - offsets[label]
    for a in (label, members, offsets, sizes, position):
        a.flags.writeable = False
    return BlockPartition(label, members, offsets, sizes, position)


_UNIT_PHASES = np.array([1.0, 1.0j, -1.0, -1.0j])


def _real_form(matrix: sparse.csr_matrix, basis_dims):
    """(real A = S^-1 L S, unit phases diag S) if the operator has a real form, else (L, None).

    S = diag(i^deg), with deg the total Hermite degree of a basis state
    (`operator.hermite_degrees`).  Entry (r, c) of S^-1 L S is
    i^((deg_c - deg_r) mod 4) L_rc, formed by swapping and negating real and
    imaginary parts, so the map is exact.  It is a real form when every
    imaginary part comes out exactly 0: a certificate checked in one pass
    over the stored entries at every call.  When the first stored entry with
    an odd degree difference comes out negative, conj(S) is used instead,
    which negates every odd entry; so L(epsilon) and its conjugate
    L(-epsilon) have the same real form bit for bit.  Any nonzero imaginary
    part leaves L as it is.
    """
    dim = matrix.shape[0]
    deg = hermite_degrees(basis_dims)
    rows = np.repeat(np.arange(dim), np.diff(matrix.indptr))
    turn = (deg[matrix.indices] - deg[rows]) & 3
    odd = (turn & 1).astype(bool)
    re, im = matrix.data.real, matrix.data.imag
    # i^turn L_rc keeps the real part of L_rc for an even turn and the
    # imaginary part for an odd one; the other part must be 0
    if not (np.where(odd, re, im) == 0.0).all():
        return matrix, None
    real = np.where(odd, im, re)
    np.negative(real, out=real, where=(turn == 1) | (turn == 2))
    phase = _UNIT_PHASES[deg & 3]
    if odd.any() and real[np.argmax(odd)] < 0.0:
        real[odd] = -real[odd]
        phase = phase.conj()
    form = sparse.csr_matrix((real, matrix.indices, matrix.indptr), shape=matrix.shape)
    return form, phase


def _form_matches(matrix: sparse.csr_matrix, form: sparse.csr_matrix, phase) -> bool:
    """Whether `form` is S^-1 L S entry by entry for L = `matrix` and S = diag(phase).

    The checks of `_check_pairs` run on the form and hold for L's pairs only
    if this does, so `solve` tests it on every call instead of trusting the
    pair `_real_form` returns: every phase must be one of 1, i, -1, -i, the
    stored patterns equal, and conj(s_r) L_rc s_c equal to the form's entry,
    a product by unit phases and so exact.  One pass over the stored entries.
    """
    if not (
        np.isin(phase, _UNIT_PHASES).all()
        and np.array_equal(matrix.indptr, form.indptr)
        and np.array_equal(matrix.indices, form.indices)
    ):
        return False
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    return bool((np.conj(phase[rows]) * matrix.data * phase[matrix.indices] == form.data).all())


def _weight_balance(matrix: sparse.csr_matrix, basis_dims):
    """(balanced matrix D M D^-1, D, sign of the weight) if the weight certifies M, else None.

    The weight is W = `symmetry_weight` for a complex matrix, and
    W' = (-1)^deg W for a real one, the real form A = S^-1 L S of
    `_real_form`: with s = diag S, s^2 = (-1)^deg, and W' A = (W' A)^T holds
    exactly when W L = (W L)^T does.  Either way the test decides.
    D = sqrt(|W| / max|W|), and B = D M D^-1 is formed on the stored entries
    of M, B_rc = M_rc D_r (1/D)_c, so it has M's pattern.  The weight
    symmetrizes M exactly when sign(W) B is symmetric, so the test runs on
    B, where every entry is measured against the scale of the matrix the
    iteration sees: |sign(W)_r B_rc - sign(W)_c B_cr| <= 1e-13 max|B| for
    every stored entry, in one pass.  The stored pattern must be symmetric:
    an entry whose transpose position holds none certifies nothing, however
    small (a sparse difference would hold it to the bound against 0).
    `matrix` must be canonical CSR (sorted indices, no duplicates), as
    `solve` holds it.  A weight that overflows certifies nothing.
    """
    dim = matrix.shape[0]
    weight = symmetry_weight(basis_dims)
    if not np.iscomplexobj(matrix):
        weight = np.where(hermite_degrees(basis_dims) % 2 == 0, weight, -weight)
    if not np.isfinite(weight).all():
        return None
    cols = matrix.indices
    # scipy's counting transpose carries the entry numbers: entry k of M^T in
    # CSR order is the stored entry numbers.data[k] of M, transposed
    numbers = sparse.csr_matrix((np.arange(cols.size), cols, matrix.indptr), shape=matrix.shape)
    numbers = numbers.T.tocsr()
    if not (np.array_equal(numbers.indptr, matrix.indptr) and np.array_equal(numbers.indices, cols)):
        # an entry whose transpose position holds none certifies nothing
        return None
    scale = np.sqrt(np.abs(weight) / np.abs(weight).max())
    sign = np.sign(weight)
    rows = np.repeat(np.arange(dim, dtype=cols.dtype), np.diff(matrix.indptr))
    data = matrix.data * scale[rows]
    data *= (1.0 / scale)[cols]
    # M^T has M's pattern, so entry k's transpose partner is entry numbers.data[k]
    gap = sign[rows] * data
    gap -= gap[numbers.data]
    if not np.abs(gap).max(initial=0.0) <= 1e-13 * np.abs(data).max(initial=0.0):
        return None
    balanced = sparse.csr_matrix((data, cols, matrix.indptr), shape=matrix.shape)
    return balanced, scale, sign


def _symmetric_fits(balance, residual_tol: float) -> bool:
    """Whether a block's (balanced block B, D, sign W') admits the symmetric solve.

    sign(W') B is then a real symmetric matrix: B must be real and sign(W')
    constant on the block.  `eigh`'s backward error, about u max|B| with u
    the unit roundoff, reaches the block's vectors through D^-1 and grows by
    max D / min D on the way, so a block whose a-priori bound
    (max D / min D) u max|B| already exceeds `residual_tol` goes to the
    general path without an attempt.
    """
    balanced, scale, sign = balance
    return bool(
        np.isrealobj(balanced.data)
        and (sign == sign[0]).all()
        and scale.max() / scale.min() * _UNIT_ROUNDOFF * np.abs(balanced.data).max(initial=0.0)
        <= residual_tol
    )


def _row_abs_sums(matrix) -> np.ndarray:
    """sum_j |M_ij| of every row of a CSR matrix, as scipy sums `abs(M).sum(axis=1)`.

    One `np.add.reduceat` over the stored entries of the non-empty rows, in
    stored order, so the sums are scipy's bit for bit.
    """
    sums = np.zeros(matrix.shape[0])
    rows = np.flatnonzero(np.diff(matrix.indptr))
    if rows.size:
        sums[rows] = np.add.reduceat(np.abs(matrix.data), matrix.indptr[rows])
    return sums


def _gershgorin_bound(block) -> float:
    """max_i (B_ii + sum_{j != i} |B_ij|) over the rows of a real canonical CSR block B."""
    size = block.shape[0]
    rows = np.repeat(np.arange(size), np.diff(block.indptr))
    on = block.indices == rows
    diag = np.zeros(size)
    diag[rows[on]] = block.data[on]
    return float((diag - np.abs(diag) + _row_abs_sums(block)).max())


def _diagonal_block(matrix: sparse.csr_matrix, idx, position):
    """(`matrix[idx][:, idx]` for a block idx of `connected_blocks`, gather of its entries).

    Every stored entry of a row in the block has its column in the block, so
    the block's rows are gathered whole from the CSR arrays and their
    columns renumbered by `position`, each state's place within its block
    (`BlockPartition.position`).  The members ascend, so renumbering keeps
    each row's entry order: the arrays are scipy's fancy slice bit for bit,
    and every sum over a row runs in the same order.  `data[gather]` orders
    any matrix on the same pattern (the balance) in one more pass.
    """
    counts = np.diff(matrix.indptr)[idx]
    indptr = np.zeros(idx.size + 1, dtype=matrix.indptr.dtype)
    np.cumsum(counts, out=indptr[1:])
    gather = np.repeat(matrix.indptr[idx] - indptr[:-1], counts) + np.arange(indptr[-1])
    indices = position[matrix.indices[gather]].astype(matrix.indices.dtype)
    block = sparse.csr_matrix((matrix.data[gather], indices, indptr), shape=(idx.size, idx.size))
    return block, gather


def _translation_partners(blocks, parts, translation) -> dict:
    """{partner: (representative, local positions, signs)} of the block pairs the translation maps exactly.

    `blocks` is the operator's `BlockPartition` and `translation` the
    (perm, sign) of `operator.quarter_translation` on its `basis_dims`, or
    None: state i goes to sign[i] times state perm[i].  A multi-state block
    n and the block p its first state goes to (`label`) are a pair when the
    map sends p back to n, n < p, and it maps
    block n onto block p entry for entry: the states of n go onto those of p
    with signs +-1, and the image of the gathered block of n (`parts`),
    Q A_n Q^T, has the gathered block of p's pattern and data bit for bit.
    Then A_p is similar to A_n by a signed permutation, exactly: its values
    are A_n's, and A_p (Q v) = (Q v) lam and A_p^T (Q l) = (Q l) lam hold
    for every pair (v, l) of A_n.  State a of n goes to position `local[a]`
    of p, times `signs[a]`.  The representative n is the lower index of the
    two, so it does not depend on the order blocks are solved in.  A map
    that fails any test for a pair (a potential u_k != 0, a d = 2 operator,
    whose pairs the map numbers as in d = 1) pairs nothing there.
    """
    if translation is None:
        return {}
    perm, sign = translation
    partners = {}
    for n in parts:
        p = int(blocks.label[perm[blocks[n][0]]])
        if not (p > n and p in parts and blocks.label[perm[blocks[p][0]]] == n):
            continue
        image, signs = perm[blocks[n]], sign[blocks[n]]
        if not (np.array_equal(np.sort(image), blocks[p]) and (np.abs(signs) == 1.0).all()):
            continue
        local = blocks.position[image]
        a, b = parts[n][0], parts[p][0]
        rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
        cols = local[a.indices]
        # a canonical block stores each position once, so the keys are distinct
        order = np.argsort(local[rows] * a.shape[0] + cols)
        data = (a.data * signs[rows] * signs[a.indices])[order]
        if (
            np.array_equal(np.diff(b.indptr)[local], np.diff(a.indptr))
            and np.array_equal(cols[order], b.indices)
            and data.tobytes() == b.data.tobytes()
        ):
            partners[p] = (n, local, signs)
    return partners


def _dense_block(block, s, balance, residual_tol: float):
    """(values, v, l, c, two-sided residuals) of one block solved densely.

    `block` is a block of the working matrix of `_real_form` and s its unit
    phases diag S; v and l are the right and left vectors of `block`, and c
    the column phases of `_fix_phases`, so the pairs of L are S v c and
    S l c.  When `balance` holds the block's (balanced block B, D, sign W')
    and `_symmetric_fits`, `eigh` (LAPACK's divide-and-conquer driver)
    solves sign(W') (B + B^T) / 2: the values are sign(W') times its
    eigenvalues, the right vectors its vectors mapped back through D^-1, and
    the left vectors W' r scaled by `_balanced_left`, real like r.  If that
    result fails a check or `residual_tol`, and for every other block,
    LAPACK `eig` supplies both vector sets and `_biorthonormalize` solves
    for l.  Either way `_check_pairs` checks the result on `block`.
    """
    if balance is not None and _symmetric_fits(balance, residual_tol):
        balanced, scale, sign = balance
        dense = sign[0] * balanced.toarray()
        try:
            ev, v = sla.eigh(0.5 * (dense + dense.T), driver="evd")
            wb = sign[0] * ev
            vrb, c = _fix_phases(v / scale[:, None], s)
            left = _balanced_left(vrb, (sign * scale**2)[:, None] * vrb)
            residual = _check_pairs(block, wb, vrb, left)
            if residual.max() <= residual_tol:
                return wb, vrb, left, c, residual
        except (SolverError, np.linalg.LinAlgError):
            pass
    wb, cand, vrb = sla.eig(block.toarray(), left=True, right=True)
    vrb, c = _fix_phases(vrb, s)
    left = _biorthonormalize(vrb, cand)
    return wb, vrb, left, c, _check_pairs(block, wb, vrb, left)


class _BlockOperator(spla.LinearOperator):
    """A sparse block as ARPACK's operator: `matvec` is the block's own `@`.

    `eigs` calls `matvec` once per Arnoldi step; a sparse matrix handed to it
    directly is wrapped so that each call first checks and reshapes its
    argument.  The product is the same CSR kernel, so the Ritz pairs are
    those of `eigs(matrix)` bit for bit.
    """

    def __init__(self, matrix):
        super().__init__(matrix.dtype, matrix.shape)
        self.matrix = matrix

    def matvec(self, x):
        return self.matrix @ x

    _matvec = matvec


def _arpack_block(sub, count: int, balance):
    """(values, right vectors, left candidates) of the `count` LR-most pairs of a block.

    `sub` is a block of the working matrix, real or complex, and the run is
    in its arithmetic.  `balance` is the block's (balanced block, D, sign W)
    when the weight certificate holds: one Arnoldi run on the balanced
    block, whose right vectors map back through D^-1, and left candidates
    conj(W R).  Otherwise a second run on the adjoint supplies the left
    candidates, paired to the right values by scipy's min-sum assignment
    (`_min_sum_assignment`).  The
    start vector is seeded and non-symmetric, so no sign symmetry of the
    block hides a level from it.
    """
    size = sub.shape[0]
    rng = np.random.default_rng(_ARPACK_SEED)
    v0 = rng.standard_normal(size)
    if np.iscomplexobj(sub):
        v0 = v0 + 1j * rng.standard_normal(size)

    def run(matrix, k):
        # ARPACK's restarted Arnoldi can lose an eigenvalue sitting exactly at
        # zero (the generator's stationary mode); a real positive diagonal
        # shift keeps the wanted values away from zero and leaves vectors and
        # LR ordering untouched
        shift = 1.0 + float(_row_abs_sums(matrix).max())
        shifted = _BlockOperator(
            (matrix + shift * sparse.identity(size, dtype=matrix.dtype, format="csr")).tocsr()
        )
        try:
            try:
                w, v = spla.eigs(shifted, k=k, which="LR", v0=v0)
            except spla.ArpackNoConvergence:
                # a tight cluster just behind the wanted values: retry once
                # with twice the default Krylov dimension
                ncv = min(size, 2 * max(2 * k + 1, 20))
                w, v = spla.eigs(shifted, k=k, which="LR", v0=v0, ncv=ncv)
        except spla.ArpackError as exc:
            raise SolverError(f"iterative eigensolver failed: {exc}") from None
        return w - shift, v

    if balance is not None:
        balanced, scale, sign = balance
        w, vr = run(balanced, count)
        vr = vr / scale[:, None]
        return w, vr, np.conj((sign * scale**2)[:, None] * vr)
    w, vr = run(sub, count)
    # two spare adjoint pairs, so a conjugate pair or a double level that the
    # cut at `count` splits still finds its partner
    wl, vl = run(sub.conj().T.tocsr(), min(count + 2, size - 2))
    # adjoint eigenvalues are conjugates; pair them to the right set
    cost = np.abs(np.conj(wl)[None, :] - w[:, None])
    rows, cols = _min_sum_assignment(cost)
    if np.max(cost[rows, cols]) > 1e-6 * max(1.0, np.max(np.abs(w))):
        raise SolverError("left/right iterative eigenvalues do not pair up")
    return w, vr, vl[:, cols[np.argsort(rows)]]


def _biorthonormalize(vrb, cand):
    """Left vectors l with l^H v = I for the unit right vectors `vrb`, from left candidates `cand`.

    Both are vectors of the working matrix.  One solve serves the candidates
    of LAPACK `eig` and of ARPACK (the weight certificate or adjoint Ritz
    vectors), in their arithmetic: float64 when LAPACK (`dgeev`) returns a
    real spectrum.  `_check_pairs` verifies the result.
    """
    try:
        left_h = np.linalg.solve(cand.conj().T @ vrb, cand.conj().T)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"defective eigenbasis, cannot bi-orthonormalize: {exc}")
    return left_h.conj().T


def _balanced_left(vrb, cand):
    """Left vectors cand / conj(diag(cand^H v)) of a symmetric balance, with no solve.

    When `cand` is W' v for the right vectors v of a balanced block that is
    +-a real symmetric matrix, cand^H v is diagonal up to rounding (the
    vectors of `eigh` are orthonormal), so scaling each column is the
    bi-orthonormalization solve in O(n^2).  `_check_pairs` verifies
    L^H R = I to 1e-9 as for any other source, and a block that fails goes
    to `eig`.
    """
    return cand / np.conj(np.einsum("ij,ij->j", cand.conj(), vrb))


def _check_pairs(block, wb, vrb, left):
    """Two-sided residuals of a block's pairs (wb, v, l), after the checks on l.

    `block` is the working block A = S^-1 M S of `_real_form` (M the block of
    L), v unit columns and l the left vectors, and the checks run in A's
    arithmetic: real products for a real spectrum of a real form.  They
    check M's pairs R = S v c, L = S l c exactly, since S and the phases c
    of `_fix_phases` are diagonal with entries of unit modulus: with unit
    right vectors and L^H R = I, |l| = |L| is the eigenvalue condition
    number, held to CONDITION_LIMIT; |l^H v - I| = |L^H R - I| entrywise is
    held to 1e-9; and the residuals |A v - v lam| and
    |A^H l - l conj(lam)| / |l| are those on M.
    """
    # `eig` returns even a real spectrum as complex; real values keep the products real
    if np.iscomplexobj(wb) and not wb.imag.any():
        wb = wb.real
    lnorm = np.linalg.norm(left, axis=0)
    if not lnorm.max() <= CONDITION_LIMIT:
        raise SolverError(
            f"defective eigenbasis: eigenvalue condition number {lnorm.max():.3e} "
            f"exceeds {CONDITION_LIMIT:.1e}"
        )
    # the supports of different blocks are disjoint, so their cross terms vanish
    cross = np.abs(left.conj().T @ vrb - np.eye(wb.size)).max()
    if not cross <= 1e-9:
        raise SolverError(f"bi-orthonormalization failed, max |L^H R - I| = {cross:.3e}")
    # residuals on the matrix part (a scalar offset shifts values, not residuals)
    right_res = np.linalg.norm(block @ vrb - vrb * wb, axis=0)
    left_res = np.linalg.norm(block.conj().T @ left - left * wb.conj(), axis=0) / lnorm
    return np.maximum(right_res, left_res)


def _check_request(op: OperatorMatrix, count, method: str) -> None:
    dim = op.dim
    if count is not None:
        if not is_integer(count) or not (1 <= count <= dim):
            raise ConfigurationError(f"count must be in [1, {dim}], got {count}")
    if method == "arpack":
        if count is None:
            raise ConfigurationError("iterative method requires an explicit count")
    elif method != "dense":
        raise ConfigurationError(f"unknown eigensolver method {method!r}")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Validated head of an operator's spectrum, as `solve` returns it.

    `values` (ground first, matrix + offset) and their two-sided `residuals`,
    plus the block-local pieces the solve held: the `blocks`, the
    `BlockPartition` of `connected_blocks` (its `offsets` count states), the
    working matrix's `block_values` with block n from value slot
    `starts[n]` on, each value's slot (`slots`) and block (`owners`), and
    the `vectors` (v, l, c) of each multi-state block with a
    value here (1x1 blocks carry unit vectors): right and left vectors of
    the working matrix, l^H v = I, and one unit phase per column.  With
    `phases` = diag S of `_real_form` (all 1 without a real form), the pairs
    of the operator are R = S v c and L = S l c; `pair` and the reduced
    resolvent form them when they expand, so a real block keeps real
    vectors.  `solved` marks the blocks that were solved: a block that
    `solve` proved unable to hold a returned value is not, and has NaN slots
    in `block_values` and no `vectors` entry; `values`, `residuals`,
    `slots`, `owners` and `pair` only ever refer to solved blocks.
    `real_form` is the real form the values were read off (None if the
    operator has none), and `dim` and `offset` are the operator's.
    """

    values: np.ndarray
    residuals: np.ndarray
    dim: int
    blocks: BlockPartition
    block_values: np.ndarray
    starts: np.ndarray
    slots: np.ndarray
    owners: np.ndarray
    vectors: dict
    phases: np.ndarray
    solved: np.ndarray
    real_form: sparse.csr_matrix | None
    offset: float

    def pair(self, i: int) -> EigenPair:
        """The i-th value's EigenPair, its vectors mapped to L's basis and expanded to full length."""
        n = self.owners[i]
        idx = self.blocks[n]
        right = np.zeros(self.dim, dtype=complex)
        left = np.zeros(self.dim, dtype=complex)
        if n in self.vectors:
            v, l, c = self.vectors[n]
            col = self.slots[i] - self.starts[n]
            phase = self.phases[idx] * c[col]
            right[idx] = phase * v[:, col]
            left[idx] = phase * l[:, col]
        else:
            right[idx] = 1.0
            left[idx] = 1.0
        return EigenPair(
            eigenvalue=complex(self.values[i]),
            right_vector=right,
            left_vector=left,
            residual=float(self.residuals[i]),
        )

    def shares_form(self, op: OperatorMatrix) -> bool:
        """Whether `op` has this spectrum's real form bit for bit and its offset.

        `solve` reads every value off the real form and the offset, so a solve
        of `op` with the same settings would return these values: `scan`
        solves L(epsilon) once and uses its values for
        L(-epsilon) = conj L(epsilon).  One O(nnz) pass over `op`.
        """
        if self.real_form is None or op.offset != self.offset:
            return False
        form, phase = _real_form(op.matrix.tocsr(), op.basis_dims)
        return phase is not None and all(
            getattr(form, attr).tobytes() == getattr(self.real_form, attr).tobytes()
            for attr in ("indptr", "indices", "data")
        )


def solve(
    op: OperatorMatrix,
    count: int | None = None,
    *,
    method: str = "dense",
    residual_tol: float = 1e-9,
) -> Spectrum:
    """Validated head of the spectrum, one block of `connected_blocks` at a time.

    Returns the `count` (all when None) leading eigenvalues of matrix +
    offset as a `Spectrum`, ground first, with their two-sided residuals,
    every one within `residual_tol`; `Spectrum.pair(i)` expands the i-th to
    an EigenPair with full-length vectors, so a caller that reads only
    values and a few pairs never holds the rest.
    Each block contributes its values to one slot range in block order, so
    the sort breaks exact ties by block order.  1x1 blocks are read off the
    diagonal.  The dense path solves the other blocks (given a `count`,
    only those that can hold the head; see below), up to
    DENSE_DIM_LIMIT states: by the symmetric `eigh` on the balanced block
    when `operator.symmetry_weight` certifies the real form and its sign is
    constant on the block, unless the a-priori bound (max D / min D) u max|B|
    on the error mapped back through the balance D^-1 exceeds
    `residual_tol`; by the general `eig` otherwise, and for any block whose
    symmetric result fails a check (`_dense_block`).  The iterative path
    (`method="arpack"`, requires `count`) runs ARPACK for the `count`
    LR-most pairs of each block of at least count + 2 states -- once, on the
    balanced block, when the weight certifies the operator, otherwise on the
    block and its adjoint -- and solves smaller blocks densely, so a count
    of dim - 1 or dim solves every block densely.  Both run on
    the working matrix of `_real_form` -- the real A = S^-1 L S when it
    exists, so LAPACK and ARPACK work in real arithmetic and complex values
    come in exact conjugate pairs, else L itself -- and the values, 1x1
    blocks included, are read off it.  The vectors stay in the working
    basis and arithmetic, and every check runs on the working block
    (`_check_pairs`): L^H R = I -- by one solve for `eig` and ARPACK, by a
    column scaling for `eigh` (`_balanced_left`) -- verified to 1e-9, a
    (numerically) defective eigenbasis rejected, and every returned pair
    residual-validated on both sides; failure raises SolverError with the
    worst value reported.  The checks hold for L's pairs R = S v c and
    L = S l c exactly, as S and the column phases c are diagonal with
    entries of unit modulus; `Spectrum.pair` forms them on expansion.
    Every source (dense, ARPACK, translation partner) ends in one tail: a
    (v, l, c) record per solved block, an ARPACK block's l its left
    candidates until the cut at `count` is known.  The Spectrum keeps the
    records of the blocks that own a returned value, and ARPACK's are then
    bi-orthonormalized and checked on their returned columns, in solve order.
    The operator is brought to canonical CSR once; each multi-state block
    of the working matrix and of its balance is gathered from the CSR
    arrays once (`_diagonal_block`, the arrays of `work[idx][:, idx]`), so
    no scipy slice or sparse product runs outside the solvers and checks.

    Each block pair that the quarter-period translation maps onto each
    other exactly, as certified on every call, is solved once: the partner
    takes its representative's values, vectors and Gershgorin bound (see
    the module docstring).

    Given a `count`, both paths solve only the blocks that can hold one of
    the count leading values.  The result is the all-blocks answer bit for
    bit -- values, residuals, slots, owners and pairs -- since the blocks
    solved are solved as in a loop over all of them.  A block may be skipped
    only if it passes `_symmetric_fits`, which holds exactly when the dense
    path would send it to `eigh`: the weight certifies the real form, its
    sign is constant on the block and (max D / min D) u max|B| <=
    `residual_tol`.  Then sign(W') B, with B = D A D^-1 the balanced block, is
    real symmetric up to the certificate's 1e-13 max|B| (max|B| over the
    whole balanced matrix), and B is similar to the block of A and of L, so
    by the Gershgorin circle theorem (S. Gershgorin, 1931) every eigenvalue
    of the block has real part at most g = max_i (B_ii + sum_{j != i}
    |B_ij|) over its rows (a translation partner inherits its
    representative's g, since it returns the same values; its own differs
    in the last bits, as its rows sum in another order).  The blocks that
    fail `_symmetric_fits` are always solved, first and in block order; the
    others follow highest g first, and the loop stops at the first block whose
    g + CONDITION_LIMIT n^2 u (1 + max|B|) (n the largest block) lies
    strictly below the count-th largest real part known so far, over the
    1x1 diagonal values and the blocks already solved.  That margin
    bounds how far a value the skipped block would have returned can lie
    above g:
    - `eigh` sees (B + B^T) / 2 up to the sign, whose largest eigenvalue
      exceeds g by at most n 1e-13 max|B| / 2, the certificate's asymmetry
      summed over a row, and its values are exact for a perturbation of
      norm <= p(n) u |B|_2, with p(n) a modest function of n taken as n and
      |B|_2 <= n max|B|, so by Weyl's theorem they move by n^2 u max|B|;
    - the `eig` fallback, whose values move by at most the condition number
      it accepts, CONDITION_LIMIT, times a backward error of the same size
      (LAPACK balances the block before it solves it);
    - ARPACK's Ritz values, which lie in the field of values of the balanced
      block it runs on, and so at most n 1e-13 max|B| / 2 above g, and come
      back through its shift by 1 + |B|_inf <= 1 + n max|B|, rounded at u
      (the 1 in the margin covers the 1 in the shift).
    So no skipped block holds a value of the all-blocks head.  A skipped
    block reaches no solver and no check (it is similar to a symmetric
    matrix, so its eigenbasis cannot be defective); its `block_values` slots
    are NaN and `Spectrum.solved` marks it.
    """
    _check_request(op, count, method)
    dim = op.dim
    matrix = op.matrix.tocsr()
    if not matrix.has_canonical_format:
        matrix = matrix.copy()
        matrix.sum_duplicates()
    blocks = connected_blocks(matrix)
    sizes = blocks.sizes
    heads = sizes.copy()
    iterative = np.zeros(sizes.size, dtype=bool)
    if method == "arpack":
        iterative = sizes >= count + 2
        heads[iterative] = count
    largest = sizes[~iterative].max(initial=0)
    if largest > DENSE_DIM_LIMIT:
        raise ConfigurationError(
            f"dense solve capped at block dimension {DENSE_DIM_LIMIT} (largest block "
            f"{largest} of dimension {dim}); use method='arpack'"
        )
    starts = np.cumsum(heads) - heads
    # slots of blocks never solved stay NaN, so they sort last
    w = np.full(heads.sum(), np.nan, dtype=complex)
    residual = np.zeros(w.size)  # exact for 1x1 blocks: both vectors are unit vectors
    work, phase = _real_form(matrix, op.basis_dims)
    if phase is not None and not _form_matches(matrix, work, phase):
        raise SolverError("the real form does not match the operator: S^-1 L S differs from it")
    real_form = None if phase is None else work
    if phase is None:
        phase = np.ones(dim)
    # every value comes from the working matrix, so one real form gives one spectrum
    w[starts[sizes == 1]] = work.diagonal()[blocks.members[blocks.offsets[:-1][sizes == 1]]]
    multi = np.flatnonzero(sizes > 1)
    # each multi-state block of the working matrix and of its balance
    parts = {}
    # Gershgorin bound of each block that may be skipped; +inf: always solved
    bound = np.full(sizes.size, np.inf)
    partners = {}
    if multi.size:
        balance = _weight_balance(work, op.basis_dims)
        for n in multi:
            block, gather = _diagonal_block(work, blocks[n], blocks.position)
            sub = None
            if balance is not None:
                # the balance has the working matrix's pattern, so the same gather orders it
                balanced = sparse.csr_matrix(
                    (balance[0].data[gather], block.indices, block.indptr), shape=block.shape
                )
                sub = (balanced, balance[1][blocks[n]], balance[2][blocks[n]])
            parts[n] = (block, sub)
        translation = quarter_translation(op.basis_dims)
        partners = _translation_partners(blocks, parts, translation)
        if count is not None and balance is not None and np.isrealobj(balance[0].data):
            for n in multi:
                if n not in partners and _symmetric_fits(parts[n][1], residual_tol):
                    bound[n] = _gershgorin_bound(parts[n][1][0])
            for n, (rep, _, _) in partners.items():
                bound[n] = bound[rep]
            peak = np.abs(balance[0].data).max(initial=0.0)
            margin = CONDITION_LIMIT * float(sizes.max()) ** 2 * _UNIT_ROUNDOFF * (1.0 + peak)
        # the blocks hold all the loop needs, so the whole balance is freed before it
        del balance
    solved = sizes == 1
    records = {}  # (v, l, c) per solved block; ARPACK's l: its left candidates until the cut
    # a partner shares its representative's bound and comes after it, so the
    # stable order reaches the representative first
    for n in multi[np.argsort(-bound[multi], kind="stable")]:
        if np.isfinite(bound[n]):
            known = w.real[~np.isnan(w.real)]
            if known.size >= count and bound[n] + margin < np.partition(known, -count)[-count]:
                break
        idx, start = blocks[n], starts[n]
        block, local = parts.pop(n)
        if n in partners:
            rep, mapped, signs = partners[n]
            wb = w[starts[rep] : starts[rep] + heads[rep]]
            # Q x of the representative's vectors, in their memory layout
            vrb, left = (np.empty_like(x) for x in records[rep][:2])
            vrb[mapped], left[mapped] = (signs[:, None] * x for x in records[rep][:2])
            vrb, c = _fix_phases(vrb, phase[idx])
            if not iterative[n]:
                residual[start : start + wb.size] = _check_pairs(block, wb, vrb, left)
        elif iterative[n]:
            wb, vrb, left = _arpack_block(block, count, local)
            vrb, c = _fix_phases(vrb, phase[idx])
        else:
            wb, vrb, left, c, residual[start : start + wb.size] = _dense_block(
                block, phase[idx], local, residual_tol
            )
        records[n] = (vrb, left, c)
        w[start : start + wb.size] = wb
        solved[n] = True

    keep = _sorted_order(w)[: w.size if count is None else count]
    owner = np.repeat(np.arange(len(blocks)), heads)
    owning = set(owner[keep].tolist())
    records = {n: vlc for n, vlc in records.items() if n in owning}
    # an ARPACK block validates only the heads it returns: a cluster split by
    # the block's own cut at `count` can fail the checks only if returned; its
    # block is gathered again, so no solved block is held through the loop
    for n, (vrb, cand, c) in records.items():
        if iterative[n]:
            block = _diagonal_block(work, blocks[n], blocks.position)[0]
            cols = keep[owner[keep] == n] - starts[n]
            left = np.zeros_like(vrb)
            left[:, cols] = _biorthonormalize(vrb[:, cols], cand[:, cols])
            residual[starts[n] + cols] = _check_pairs(
                block, w[starts[n] + cols], vrb[:, cols], left[:, cols]
            )
            records[n] = (vrb, left, c)
    worst = residual[keep].max()
    if not worst <= residual_tol:
        raise SolverError(
            f"eigenpair residual {worst:.3e} exceeds tolerance {residual_tol:.1e}"
        )
    return Spectrum(
        values=w[keep] + op.offset,
        residuals=residual[keep],
        dim=dim,
        blocks=blocks,
        block_values=w,
        starts=starts,
        slots=keep,
        owners=owner[keep],
        vectors=records,
        phases=phase,
        solved=solved,
        real_form=real_form,
        offset=op.offset,
    )


def energy_from_eigenvalue(e, *, hbar2_over_2m: float = 1.0):
    """Physical energy from an operator eigenvalue: E = hbar2_over_2m * (-e).

    The ground state carries the largest operator eigenvalue, so energies come
    out lowest-first under this sign convention.
    """
    check_kinetic_scale(hbar2_over_2m)
    return -hbar2_over_2m * e


def check_kinetic_scale(hbar2_over_2m) -> None:
    """Refuse a kinetic scale hbar2_over_2m that is not positive and finite."""
    if not (0.0 < hbar2_over_2m < np.inf):
        raise ConfigurationError(f"hbar2_over_2m must be positive and finite, got {hbar2_over_2m}")


def calibrate_mu(
    params: ModelParams,
    basis: HermiteBasis | None = None,
    variant: str = "weak",
) -> float:
    """u_0 that zeroes the ground eigenvalue (chemical-potential calibration).

    u_0 enters the assembled matrix only through the scalar offset
    -ebar_N = -N(u_0 + gamma_0 N), so the root-find in u_0 is exactly linear:
    with lam_mat the ground eigenvalue of the differential part,
    u_0 = lam_mat/N - gamma_0 N.  The weak variant has lam_mat = 0 by the
    ladder structure; the full variant solves for it once on `basis`.
    """
    n = params.n_particles
    if n == 0:
        raise ConfigurationError("calibration requires n_particles > 0")
    g0 = params.gamma_zero
    if variant == "weak":
        lam_mat = 0.0
    elif variant == "full":
        if basis is None:
            raise ConfigurationError("full-variant calibration needs a basis")
        op = assemble(params, basis).at(params.epsilon)
        lam_total = solve(op, 1).values[0]
        scale = max(1.0, abs(lam_total))
        if abs(lam_total.imag) > 1e-9 * scale:
            raise SolverError(
                f"ground eigenvalue has imaginary part {lam_total.imag:.3e}; "
                "cannot calibrate a real chemical potential"
            )
        lam_mat = lam_total.real - op.offset
    else:
        raise ConfigurationError(f"unknown calibration variant {variant!r}")
    return lam_mat / n - g0 * n


def _reduced_resolvent(spectrum: Spectrum, i: int):
    """rhs -> sum_{j != i} R_j (L_j^H rhs) / (lam_j - lam_i), level i's reduced resolvent.

    The reduced resolvent (T. Kato, Perturbation Theory for Linear
    Operators, 1966) is read off the block eigendecomposition of a complete
    `spectrum` (a dense `solve` with count None): a vectorized division by
    lam_j - lam_i on the 1x1 blocks, R_b ((L_b^H rhs_b) / (lam_b - lam_i)) on
    every other block, with level i's own column left out, so the result is
    bi-orthogonal to L_i.  Each block's pairs are mapped to L's basis here,
    R_b = S v c and L_b = S l c, once per resolvent.  No D x D array is
    formed.  A spectrum that lacks any block's full eigendecomposition -- a
    block `solve` skipped or whose vectors it dropped (a `count` it owns no
    value of), or the heads of an ARPACK run -- raises SolverError.
    """
    blocks, sizes = spectrum.blocks, spectrum.blocks.sizes
    multi = np.flatnonzero(sizes > 1)
    if spectrum.block_values.size != spectrum.dim or not all(n in spectrum.vectors for n in multi):
        raise SolverError("the reduced resolvent needs the eigendecomposition of every block")
    lam = spectrum.block_values + spectrum.offset
    lam_i = spectrum.values[i]
    home = spectrum.owners[i]
    singles = sizes == 1
    singles[home] = False
    rows = blocks.members[blocks.offsets[:-1][singles]]
    pivots = lam[spectrum.starts[singles]] - lam_i
    solves = []
    for n in multi:
        v, l, c = spectrum.vectors[n]
        phases = spectrum.phases[blocks[n]][:, None] * c
        right, left = phases * v, phases * l
        denom = lam[spectrum.starts[n] : spectrum.starts[n] + sizes[n]] - lam_i
        if n == home:
            others = np.arange(sizes[n]) != spectrum.slots[i] - spectrum.starts[n]
            right, left, denom = right[:, others], left[:, others], denom[others]
        solves.append((blocks[n], right, left.conj().T, denom))

    def apply(rhs: np.ndarray) -> np.ndarray:
        out = np.zeros(spectrum.dim, dtype=complex)
        out[rows] = rhs[rows] / pivots
        for idx, right, left_h, denom in solves:
            out[idx] = right @ ((left_h @ rhs[idx]) / denom)
        return out

    return apply


def perturbation_series(
    op0: OperatorMatrix,
    op1: OperatorMatrix,
    max_order: int,
    *,
    residual_tol: float = 1e-9,
) -> PerturbationSeries:
    """Rayleigh-Schrodinger coefficients e_0..e_max_order for op0 + eps*op1.

    op0 is the unperturbed operator (its total ground eigenvalue is e_0) and
    op1 the unit-strength perturbation matrix.  Aborts if the ground level of
    op0 is degenerate within DEGENERACY_TOL.  op0 is solved once, densely and
    one block of `connected_blocks` at a time, up to DENSE_DIM_LIMIT states a
    block; each order applies the ground's reduced resolvent read off that
    eigendecomposition (`_reduced_resolvent`), and op1 acts as a sparse
    matvec, so no D x D array is formed.
    """
    if not is_integer(max_order) or max_order < 0:
        raise ConfigurationError(f"max_order must be a non-negative integer, got {max_order}")
    if op0.dim != op1.dim:
        raise ConfigurationError(
            f"operator dimensions differ: {op0.dim} vs {op1.dim}"
        )
    spectrum = solve(op0, None, residual_tol=residual_tol)
    ground = spectrum.pair(0)
    lam_g = ground.eigenvalue
    if spectrum.values.size > 1:
        gap = np.abs(spectrum.values[1:] - lam_g).min()
        if gap < DEGENERACY_TOL:
            raise SolverError(
                f"ground level is (near-)degenerate: nearest gap {gap:.3e} < "
                f"{DEGENERACY_TOL:.1e}; series aborted"
            )
    orders = [complex(lam_g)]
    if max_order == 0:
        return PerturbationSeries(tuple(orders))

    right = ground.right_vector
    # intermediate normalization <L|psi_0> = 1; `solve` has already enforced
    # |L^H R - I| <= 1e-9 on the ground's block, so <L|R> is 1 up to roundoff
    left = ground.left_vector / np.conj(np.vdot(ground.left_vector, right))
    resolvent = _reduced_resolvent(spectrum, 0)

    psi = {0: right}
    for n in range(1, max_order + 1):
        w = op1.apply(psi[n - 1])
        e_n = complex(np.vdot(left, w))
        orders.append(e_n)
        rhs = -w
        for m in range(1, n + 1):
            rhs = rhs + orders[m] * psi[n - m]
        # <L|rhs> = 0 by the choice of e_n, so rhs is in the range of H0 - lam_g
        psi[n] = resolvent(rhs)
    return PerturbationSeries(tuple(orders))


def _min_sum_assignment(cost: np.ndarray):
    """(rows, cols) of `scipy.optimize.linear_sum_assignment` on an n x m cost matrix, n <= m.

    scipy's solver is loaded on first use; a cost it rejects (NaN, or no
    finite assignment) raises SolverError.
    """
    from scipy.optimize import linear_sum_assignment

    try:
        return linear_sum_assignment(cost)
    except ValueError as exc:
        raise SolverError(f"no valid assignment for the cost matrix: {exc}") from None


def multiset_match_error(a, b) -> float:
    """Max pairing distance between two equal-size complex multisets.

    The pairing minimizes the summed distance |a_i - b_j| over all
    permutations (`_min_sum_assignment`); the largest distance in that pairing
    is returned.  Two equal finite multisets (equal once sorted, e.g. a real
    operator's spectrum against its own conjugate) give 0.0 directly, which
    is what every optimal pairing gives, even with exactly repeated values,
    without loading scipy's assignment solver; any other pair of multisets
    goes to that solver.  Sizes that differ raise ConfigurationError.  A NaN or
    infinite entry raises SolverError: its row of distances is all infinite or
    NaN, so no valid pairing exists.
    """
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.size != b.size:
        raise ConfigurationError(f"multiset sizes differ: {a.size} vs {b.size}")
    if np.isfinite(a).all() and np.array_equal(np.sort(a), np.sort(b)):
        return 0.0
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = _min_sum_assignment(cost)
    return float(cost[rows, cols].max())

