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
source -- LAPACK `eig`, the weight, adjoint Ritz vectors -- go through the same
bi-orthonormalization and checks, so a degenerate cluster cut inside a block
raises SolverError instead of returning a wrong pair.

Both solvers work in real arithmetic when the operator has a real form.  In
the Hermite basis the entries of L that change the total degree by an even
amount are real and those that change it by an odd amount -- the quadratic
drift i*epsilon*d(phi phi .), like the i*phi^3 coupling of PT-symmetric
quantum mechanics (C. M. Bender and S. Boettcher, Phys. Rev. Lett. 80, 5243,
1998), and the potential term -- are imaginary.  With S = diag(i^deg), deg the
total Hermite degree of a basis state, A = S^-1 L S is then exactly real
(`_real_form`, a certificate tested on every call).  LAPACK runs dgeev and
ARPACK its real iteration on the blocks of A, and the weight certificate
uses W' = (-1)^deg W on A.  The vectors stay in A's basis for the phase
choice and the bi-orthonormalization solve, in float64 when dgeev returns a
real spectrum; then they map to L's basis, R = S v c and L = S l c with
unit column phases c, and every check runs against the original complex
block.  An operator without a real form is solved the same way, in complex
arithmetic, with S = I.  Every eigenvalue is read off A, so two operators
with one real form bit for bit (`Spectrum.shares_form`, e.g. L(epsilon) and
L(-epsilon) = conj L(epsilon)) have the same spectrum array.

The weight certificate also serves the dense path.  W' has a constant sign
on every block of a certified real form (the blocks split the reflection
sectors, and sign W' = (-1)^(sum n_y)), so its balanced block B = D A D^-1 is
exactly +-a real symmetric matrix: detailed balance, as for a Fokker-Planck
operator.  Such a block goes to the symmetric `eigh` on sign(W') (B + B^T)/2,
its right vectors map back through D^-1 and its left candidates are W' r.
Mapping back amplifies eigh's backward error by max D / min D, so a block
whose a-priori bound (max D / min D) u max|B| (u the unit roundoff) already
exceeds the residual tolerance skips the attempt, and a block whose
symmetric result fails any check is solved again by the general `eig`.
Both go through the same phase choice, bi-orthonormalization and checks.

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

from ._tables import csv_text
from .errors import ConfigurationError, SolverError
from .hermite import HermiteBasis
from .operator import DENSE_DIM_LIMIT, OperatorMatrix, assemble, hermite_degrees, symmetry_weight
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
    L(-epsilon) have the same real form bit for bit.  A dimension that does
    not match `basis_dims`, or any nonzero imaginary part, leaves L as it is.
    """
    dim = matrix.shape[0]
    if int(np.prod(basis_dims)) != dim:
        return matrix, None
    deg = hermite_degrees(basis_dims)
    rows = np.repeat(np.arange(dim), np.diff(matrix.indptr))
    turn = (deg[matrix.indices] - deg[rows]) % 4
    re, im = matrix.data.real, matrix.data.imag
    if not (np.choose(turn, (im, re, -im, -re)) == 0.0).all():
        return matrix, None
    real = np.choose(turn, (re, -im, -re, im))
    phase = _UNIT_PHASES[deg % 4]
    odd = turn % 2 == 1
    if odd.any() and real[np.argmax(odd)] < 0.0:
        real[odd] = -real[odd]
        phase = phase.conj()
    form = sparse.csr_matrix((real, matrix.indices, matrix.indptr), shape=matrix.shape)
    return form, phase


def _weight_balance(matrix: sparse.csr_matrix, basis_dims):
    """(balanced matrix D M D^-1, D, sign of the weight) if the weight certifies M, else None.

    The weight is W = `symmetry_weight` for a complex matrix, and
    W' = (-1)^deg W for a real one, the real form A = S^-1 L S of
    `_real_form`: with s = diag S, s^2 = (-1)^deg, and W' A = (W' A)^T holds
    exactly when W L = (W L)^T does.  Either way the test decides.
    D = sqrt(|W| / max|W|).  The weight symmetrizes M exactly when sign(W) B
    is symmetric for B = D M D^-1, so the test runs on B, where every entry
    is measured against the scale of the matrix the iteration sees:
    max|sign(W) B - (sign(W) B)^T| <= 1e-13 max|B|, in one pass over the
    stored entries.  A weight that does not match the dimension or overflows
    certifies nothing.
    """
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
        and scale.max() / scale.min() * _UNIT_ROUNDOFF * abs(balanced).max() <= residual_tol
    )


def _dense_block(sub, block, s, balance, residual_tol: float):
    """(values, R, L, two-sided residuals) of one block solved densely.

    `sub` is the complex block, `block` the working block of `_real_form`
    and s its unit phases diag S.  When `balance` holds the block's
    (balanced block B, D, sign W') and `_symmetric_fits`, `eigh` (LAPACK's
    divide-and-conquer driver) solves sign(W') (B + B^T) / 2: the values are
    sign(W') times its eigenvalues, the right vectors its vectors mapped back
    through D^-1, and the left candidates W' r, real like r, as in
    `_arpack_block`'s balanced run.  If that result fails a check or
    `residual_tol`, and for every other block, LAPACK `eig` supplies both
    vector sets.  Either way the vectors go through `_fix_phases` and
    `_biorthonormalize`, so every check runs against `sub`.
    """
    if balance is not None and _symmetric_fits(balance, residual_tol):
        balanced, scale, sign = balance
        dense = sign[0] * balanced.toarray()
        try:
            ev, v = sla.eigh(0.5 * (dense + dense.T), driver="evd")
            wb = sign[0] * ev
            vrb, c = _fix_phases(v / scale[:, None], s)
            solved = _biorthonormalize(sub, wb, s, c, vrb, (sign * scale**2)[:, None] * vrb)
            if solved[2].max() <= residual_tol:
                return (wb, *solved)
        except (SolverError, np.linalg.LinAlgError):
            pass
    wb, cand, vrb = sla.eig(block.toarray(), left=True, right=True)
    vrb, c = _fix_phases(vrb, s)
    return (wb, *_biorthonormalize(sub, wb, s, c, vrb, cand))


def _arpack_block(sub, count: int, balance):
    """(values, right vectors, left candidates) of the `count` LR-most pairs of a block.

    `sub` is a block of the working matrix, real or complex, and the run is
    in its arithmetic.  `balance` is the block's (balanced block, D, sign W)
    when the weight certificate holds: one Arnoldi run on the balanced
    block, whose right vectors map back through D^-1, and left candidates
    conj(W R).  Otherwise a second run on the adjoint supplies the left
    candidates, paired to the right values by `_min_sum_assignment`.  The
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
        shift = 1.0 + float(np.abs(matrix).sum(axis=1).max())
        shifted = (matrix + shift * sparse.identity(size, dtype=matrix.dtype, format="csr")).tocsr()
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


def _biorthonormalize(sub, wb, s, c, vrb, cand):
    """(R, L, two-sided residuals) of a block, with L^H R = I from left candidates `cand`.

    `vrb` (unit columns) and `cand` are vectors of the working matrix, s the
    block's unit phases diag S and c the column phases of `_fix_phases`.
    One solve serves every source of candidates (LAPACK `eig`'s left
    vectors, the weight certificate, adjoint Ritz vectors), and it runs in
    their arithmetic: float64 when LAPACK (`dgeev`) returns a real spectrum.
    Then the vectors map to L's basis, R = S v c and L = S l c, and every
    check runs against the original complex block `sub`: the eigenvalue
    condition number against CONDITION_LIMIT, |L^H R - I| <= 1e-9, and
    residuals on both sides.
    """
    try:
        left_h = np.linalg.solve(cand.conj().T @ vrb, cand.conj().T)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"defective eigenbasis, cannot bi-orthonormalize: {exc}")
    # with C = S cand and R = S v c, solve(C^H R, C^H) = c^-1 left_h S^H, so L = S l c
    phases = s[:, None] * c
    right = phases * vrb
    left = phases * left_h.conj().T
    # with unit right vectors and L^H R = I, |l| is the eigenvalue condition number
    lnorm = np.linalg.norm(left, axis=0)
    if not lnorm.max() <= CONDITION_LIMIT:
        raise SolverError(
            f"defective eigenbasis: eigenvalue condition number {lnorm.max():.3e} "
            f"exceeds {CONDITION_LIMIT:.1e}"
        )
    # the supports of different blocks are disjoint, so their cross terms vanish
    cross = np.abs(left.conj().T @ right - np.eye(wb.size)).max()
    if not cross <= 1e-9:
        raise SolverError(f"bi-orthonormalization failed, max |L^H R - I| = {cross:.3e}")
    # residuals on the matrix part (a scalar offset shifts values, not residuals)
    right_res = np.linalg.norm(sub @ right - right * wb, axis=0)
    left_res = np.linalg.norm(sub.conj().T @ left - left * wb.conj(), axis=0) / lnorm
    return right, left, np.maximum(right_res, left_res)


def _check_request(op: OperatorMatrix, count, method: str) -> None:
    dim = op.dim
    if count is not None:
        if not isinstance(count, (int, np.integer)) or not (1 <= count <= dim):
            raise ConfigurationError(f"count must be in [1, {dim}], got {count}")
    if method == "arpack":
        if count is None:
            raise ConfigurationError("iterative method requires an explicit count")
        if count > dim - 2:
            raise ConfigurationError(
                f"iterative method needs count <= dim-2 (= {dim - 2}); use dense"
            )
    elif method != "dense":
        raise ConfigurationError(f"unknown eigensolver method {method!r}")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Validated head of an operator's spectrum, as `solve` returns it.

    `values` (ground first, matrix + offset) and their two-sided `residuals`,
    plus the block-local pieces the solve held: the `blocks` of
    `connected_blocks`, the working matrix's `block_values` with block n
    from slot `starts[n]` on, each value's slot (`slots`) and block
    (`owners`), and the (R, L) `vectors`, L^H R = I, of each multi-state
    block with a value here (1x1 blocks carry unit vectors).  `real_form` is
    the real form the values were read off (None if the operator has none),
    and `dim` and `offset` are the operator's.
    """

    values: np.ndarray
    residuals: np.ndarray
    dim: int
    blocks: list
    block_values: np.ndarray
    starts: np.ndarray
    slots: np.ndarray
    owners: np.ndarray
    vectors: dict
    real_form: sparse.csr_matrix | None
    offset: float

    def pair(self, i: int) -> EigenPair:
        """The i-th value's EigenPair, its vectors expanded to full length."""
        n = self.owners[i]
        col = self.slots[i] - self.starts[n]
        right = np.zeros(self.dim, dtype=complex)
        left = np.zeros(self.dim, dtype=complex)
        if n in self.vectors:
            vrb, vlb = self.vectors[n]
            right[self.blocks[n]] = vrb[:, col]
            left[self.blocks[n]] = vlb[:, col]
        else:
            right[self.blocks[n]] = 1.0
            left[self.blocks[n]] = 1.0
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
    diagonal.  The dense path solves every other block, up to
    DENSE_DIM_LIMIT states: by the symmetric `eigh` on the balanced block
    when `operator.symmetry_weight` certifies the real form and its sign is
    constant on the block, unless the a-priori bound (max D / min D) u max|B|
    on the error mapped back through the balance D^-1 exceeds
    `residual_tol`; by the general `eig` otherwise, and for any block whose
    symmetric result fails a check (`_dense_block`).  The iterative path
    (`method="arpack"`, requires `count`) runs ARPACK for the `count`
    LR-most pairs of each block of at least count + 2 states -- once, on the
    balanced block, when the weight certifies the operator, otherwise on the
    block and its adjoint -- and solves smaller blocks densely.  Both run on
    the working matrix of `_real_form` -- the real A = S^-1 L S when it
    exists, so LAPACK and ARPACK work in real arithmetic and complex values
    come in exact conjugate pairs, else L itself -- and the values, 1x1
    blocks included, are read off it.  Phases and the bi-orthonormalization
    solve stay in the working arithmetic; the vectors then map to L's basis,
    R = S v c and L = S l c, and every check runs against the original
    complex block: L^H R = I enforced by one solve and verified, a
    (numerically) defective eigenbasis rejected, and every returned pair
    residual-validated on both sides; failure raises SolverError with the
    worst value reported.
    """
    _check_request(op, count, method)
    dim = op.dim
    matrix = op.matrix.tocsr()
    blocks = connected_blocks(matrix)
    sizes = np.array([b.size for b in blocks])
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
    w = np.empty(heads.sum(), dtype=complex)
    residual = np.zeros(w.size)  # exact for 1x1 blocks: both vectors are unit vectors
    work, phase = _real_form(matrix, op.basis_dims)
    real_form = None if phase is None else work
    if phase is None:
        phase = np.ones(dim)
    # every value comes from the working matrix, so one real form gives one spectrum
    w[starts[sizes == 1]] = work.diagonal()[[b[0] for b in blocks if b.size == 1]]
    balance = _weight_balance(work, op.basis_dims) if (sizes > 1).any() else None
    vectors, pending = {}, {}
    for n, (idx, start) in enumerate(zip(blocks, starts)):
        if idx.size == 1:
            continue
        sub, block = matrix[idx][:, idx], work[idx][:, idx]
        local = None
        if balance is not None:
            local = (balance[0][idx][:, idx], balance[1][idx], balance[2][idx])
        if iterative[n]:
            wb, vrb, cand = _arpack_block(block, count, local)
            vrb, c = _fix_phases(vrb, phase[idx])
            pending[n] = (sub, c, vrb, cand)
        else:
            wb, right, left, residual[start : start + wb.size] = _dense_block(
                sub, block, phase[idx], local, residual_tol
            )
            vectors[n] = (right, left)
        w[start : start + wb.size] = wb

    keep = _sorted_order(w)[: w.size if count is None else count]
    owner = np.repeat(np.arange(len(blocks)), heads)
    # an ARPACK block validates only the heads it returns: a cluster split by
    # the block's own cut at `count` can fail the checks only if returned
    for n, (sub, c, vrb, cand) in pending.items():
        cols = keep[owner[keep] == n] - starts[n]
        if cols.size:
            right = np.zeros((sub.shape[0], heads[n]), dtype=complex)
            left = np.zeros_like(right)
            right[:, cols], left[:, cols], residual[starts[n] + cols] = _biorthonormalize(
                sub, w[starts[n] + cols], phase[blocks[n]], c[cols], vrb[:, cols], cand[:, cols]
            )
            vectors[n] = (right, left)
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
        vectors=vectors,
        real_form=real_form,
        offset=op.offset,
    )


def eigen_spectrum(
    op: OperatorMatrix,
    count: int | None = None,
    *,
    method: str = "dense",
    residual_tol: float = 1e-9,
) -> list:
    """Eigenpairs of the total operator (matrix + offset), sorted ground-first.

    Every pair of `solve`, expanded to full-length left and right vectors,
    so with `count` None that is 2 D^2 complex entries in all; a caller that
    needs only values and residuals (the CLI's `spectrum`) reads them off
    `solve` and expands just the pairs it uses.
    """
    spectrum = solve(op, count, method=method, residual_tol=residual_tol)
    return [spectrum.pair(i) for i in range(spectrum.values.size)]


def energy_from_eigenvalue(e, *, hbar2_over_2m: float = 1.0):
    """Physical energy from an operator eigenvalue: E = hbar2_over_2m * (-e).

    The ground state carries the largest operator eigenvalue, so energies come
    out lowest-first under this sign convention.
    """
    if not (hbar2_over_2m > 0.0):
        raise ConfigurationError(f"hbar2_over_2m must be positive, got {hbar2_over_2m}")
    return -hbar2_over_2m * e


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
    u0 = lam_mat / n - g0 * n
    achieved = lam_mat - n * (u0 + g0 * n)
    if abs(achieved) > 1e-10 * max(1.0, abs(lam_mat)):
        raise SolverError(f"calibration residual {achieved:.3e} out of tolerance")
    return u0


def _reduced_resolvent(spectrum: Spectrum, i: int):
    """rhs -> sum_{j != i} R_j (L_j^H rhs) / (lam_j - lam_i), level i's reduced resolvent.

    The reduced resolvent (T. Kato, Perturbation Theory for Linear
    Operators, 1966) is read off the block eigendecomposition of a complete
    `spectrum` (a dense `solve` with count None): a vectorized division by
    lam_j - lam_i on the 1x1 blocks, R_b ((L_b^H rhs_b) / (lam_b - lam_i)) on
    every other block, with level i's own column left out, so the result is
    bi-orthogonal to L_i.  No D x D array is formed.
    """
    lam = spectrum.block_values + spectrum.offset
    lam_i = spectrum.values[i]
    home = spectrum.owners[i]
    sizes = np.array([b.size for b in spectrum.blocks])
    singles = sizes == 1
    singles[home] = False
    rows = np.array([b[0] for b, single in zip(spectrum.blocks, singles) if single], dtype=int)
    pivots = lam[spectrum.starts[singles]] - lam_i
    solves = []
    for n in np.flatnonzero(sizes > 1):
        right, left = spectrum.vectors[n]
        denom = lam[spectrum.starts[n] : spectrum.starts[n] + sizes[n]] - lam_i
        if n == home:
            others = np.arange(sizes[n]) != spectrum.slots[i] - spectrum.starts[n]
            right, left, denom = right[:, others], left[:, others], denom[others]
        solves.append((spectrum.blocks[n], right, left.conj().T, denom))

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
    if not isinstance(max_order, (int, np.integer)) or max_order < 0:
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
    left = ground.left_vector
    # intermediate normalization <L|psi_0> = 1
    d = np.vdot(left, right)
    if abs(d) < 1e-12:
        raise SolverError("ill-conditioned ground pair: <L|R> ~ 0")
    left = left / np.conj(d)
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
    """(rows, cols) of a min-sum assignment of an n x m cost matrix, n <= m.

    Every row is assigned a distinct column.  Returns exactly what
    `scipy.optimize.linear_sum_assignment` returns.  When every entry is
    finite, every row minimum is strictly below the rest of its row and the
    row argmins are distinct columns, the argmin assignment is the unique
    optimum -- any other assignment leaves some row's minimum for a strictly
    larger entry -- and scipy's shortest-augmenting-path solver takes
    exactly these one-step paths, so it is returned without loading scipy's
    solver.  Anything else (ties, repeated argmins, non-finite entries) goes to
    scipy; a cost it rejects (NaN, or no finite assignment) raises SolverError.
    """
    n = cost.shape[0]
    if np.isfinite(cost).all():
        cols = np.argmin(cost, axis=1)
        second = np.partition(cost, 1, axis=1)[:, 1] if cost.shape[1] > 1 else np.inf
        if (cost[np.arange(n), cols] < second).all() and np.unique(cols).size == n:
            return np.arange(n), cols
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
    is what every optimal pairing gives, even with exactly repeated values.
    Multisets whose nearest partners are unique and distinct are paired
    directly too; only ties or repeated nearest partners load scipy's
    assignment solver.  Sizes that differ raise ConfigurationError.  A NaN or
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


def spectrum_table(pairs) -> str:
    """CSV text (index, re, im, residual) with 17-significant-digit floats."""
    rows = [(i, p.eigenvalue.real, p.eigenvalue.imag, p.residual) for i, p in enumerate(pairs)]
    return csv_text(("index", "re", "im", "residual"), rows)


def series_table(series: PerturbationSeries) -> str:
    """CSV text (order, re, im) of the expansion coefficients."""
    return csv_text(("order", "re", "im"), [(j, c.real, c.imag) for j, c in enumerate(series.orders)])
