"""Mode-space Fokker-Planck operators in the tensor Hermite basis.

The number-conserving phase-functional operator acts on functions of the
nonzero Fourier modes phi_k of a real phase field (the k = 0 mode is not a
dynamical coordinate; its physics enters only through the sector constant
ebar_n).  With d_k = d/d(phi_k) and the drift

    A_k = -k^2 phi_k + i [ u_k - epsilon * sum_q  q.(k-q) phi_q phi_{k-q} ],

the operator family assembled here is

    L = sum_{k != 0} [ -d_k (A_k .) + gamma_k d_k d_{-k} ]  -  ebar_n,

whose weak-coupling limit (epsilon = 0, u_{k!=0} = 0) is

    L_W = sum_{k != 0} d_k ( k^2 phi_k . + gamma d_{-k} . )  -  ebar_n,

annihilating the Gaussian exp(-(1/2 gamma) sum_k k^2 |phi_k|^2) up to
-ebar_n.  Conjugate mode pairs are reduced to real coordinates through

    phi_k = x + i y,   phi_{-k} = x - i y,
    d_k   = (d_x - i d_y)/2,   d_{-k} = (d_x + i d_y)/2,

the unique linear reduction consistent with that annihilation property; in
these coordinates the Gaussian factorizes as prod_c exp(-k_c^2 x_c^2 / gamma)
and the weak operator becomes exactly diagonal in the variance-matched
Hermite basis with the ladder spectrum -sum_c n_c k_c^2 - ebar_n.

Every operator term is a finite product of per-coordinate multiplications
and derivatives, so matrix elements are computed exactly (see `hermite`).
The operator is affine in epsilon, L(epsilon) = L0 + epsilon L1, because the
perturbing term is part of the kinetic energy: `assemble` builds L0 (pair
drift/diffusion and potential, offset -ebar_n) and, on first use, L1 (the
unit-strength quadratic drift), and `AffineOperator.at` forms their sum.
For a constant potential L0 is real and L1 imaginary, which realizes the
conjugation symmetry matrix(-epsilon) = conj(matrix(epsilon)) entry for
entry.

Determinism contract: L0 accumulates its terms in a fixed documented order --
pair drift/diffusion in lattice mode order, then potential terms in mode
order -- and L1 its quadratic-drift terms ordered by (k index, q index).
Each is materialized once by a key-order fold (`_materialize`): every matrix
entry, keyed row * dim + col, sums its terms' contributions in term order
starting from +0.0, and an entry whose sum is exactly zero is dropped --
bit for bit what adding the terms one sparse matrix at a time gives -- and
then pruned once.  L(epsilon) is scipy's sparse sum L0 + epsilon L1, pruned
the same way.  So rebuilding with identical inputs is bit-identical, and
L(0) is L0 itself.

With no potential the operator is invariant under translations of the box.
In d = 1 the quarter-period translation T = T_{L/4} sends phi_k to
i^n phi_k (n the mode number of the +-k pair), which permutes the tensor
Hermite states up to sign (`quarter_translation`).  `spectral.solve` works
that map out from `basis_dims` and certifies it block by block on the
matrix before it reuses one block's eigensolve for its image.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .errors import ConfigurationError, TruncationWarning, is_integer
from .hermite import HermiteBasis
from .lattice import ModeLattice
from .params import ModelParams

PRUNE_REL = 1e-15
# the largest side of a dense array: one symmetry block handed to LAPACK
DENSE_DIM_LIMIT = 4096


# -- real-coordinate bookkeeping ---------------------------------------------


def pair_and_sign(mode_index: int):
    """(pair index, sign) of a nonzero lattice mode index under the +-pair layout."""
    if mode_index < 1:
        raise ConfigurationError("the zero mode is not a dynamical coordinate")
    return (mode_index - 1) // 2, +1 if (mode_index - 1) % 2 == 0 else -1


def phi_factors(pair: int, sign: int):
    """Multiplication by phi_k as coordinate factors: x + i*sign*y on pair coords."""
    return [(1.0 + 0.0j, (2 * pair, "mult")), (1.0j * sign, (2 * pair + 1, "mult"))]


def deriv_factors(pair: int, sign: int):
    """d/d(phi_k) as coordinate factors: (d_x - i*sign*d_y)/2."""
    return [(0.5 + 0.0j, (2 * pair, "deriv")), (-0.5j * sign, (2 * pair + 1, "deriv"))]


def _expand(coeff, factor_lists, acc):
    """Distribute a product of coordinate-factor sums into `acc` (keyed monomials).

    Keys group the factors per coordinate, preserving the operator order
    within each coordinate (factors on distinct coordinates commute).
    """
    for combo in itertools.product(*factor_lists):
        c = coeff
        for fc, _ in combo:
            c *= fc
        groups: dict = {}
        for _, (coord, kind) in combo:
            groups.setdefault(coord, []).append(kind)
        key = tuple(sorted((coord, tuple(kinds)) for coord, kinds in groups.items()))
        acc[key] = acc.get(key, 0.0 + 0.0j) + c


def _materialize(acc, basis: HermiteBasis) -> sparse.csr_matrix:
    """The sum of the keyed monomials of `acc` as a CSR matrix on `basis`.

    Each term is a Kronecker product over the coordinates, built by index
    arithmetic from the nonzeros of its per-coordinate blocks (cached for the
    call): entries multiply left to right, identity factors by an exact 1.0,
    and then by the term's coefficient.  Entries are keyed row-major,
    row * dim + col, so one key names one matrix entry.  One stable sort of
    every term's keys puts each entry's contributions in term order, and a
    bincount per real and imaginary part adds each run in that order from
    +0.0; the entries that come out exactly zero are dropped at the end.
    That is bit for bit the chain total = total + coeff * term of sparse
    adds: the chain computes 0 + b for an entry new to the total and drops
    an entry whose sum is exactly zero, to be re-added as 0 + b by a later
    term.
    """
    dim = basis.dim
    side = basis.n_max + 1
    key_type = np.int32 if dim * dim <= np.iinfo(np.int32).max else np.int64
    eye = (np.arange(side, dtype=key_type) * (dim + 1), np.ones(side))
    pieces: dict = {}
    all_keys = [np.zeros(0, dtype=key_type)]
    all_vals = [np.zeros(0, dtype=complex)]
    for key, coeff in acc.items():
        if coeff == 0.0:
            continue
        blocks = dict(key)
        # key = sum_c (r_c dim + c_c) side^(n_coords - 1 - c) = row * dim + col
        term_keys = np.zeros(1, dtype=key_type)
        term_vals = np.ones(1)
        for coord in range(basis.n_coords):
            piece = eye
            if coord in blocks:
                piece = pieces.get((coord, blocks[coord]))
                if piece is None:
                    block = basis.block(coord, blocks[coord])
                    r, c = np.nonzero(block)
                    piece = (r * dim + c).astype(key_type), block[r, c]
                    pieces[coord, blocks[coord]] = piece
            term_keys = (term_keys[:, None] * side + piece[0]).ravel()
            term_vals = (term_vals[:, None] * piece[1]).ravel()
        all_keys.append(term_keys)
        all_vals.append(term_vals * coeff)
    keys, vals = np.concatenate(all_keys), np.concatenate(all_vals)
    # the transient, not the result, bounds memory: drop each array once used
    del all_keys, all_vals
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    del order
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    # the entry of each contribution, in key order
    run = np.cumsum(first) - 1
    del first
    sums = np.empty(keys.size, dtype=complex)
    sums.real = np.bincount(run, vals.real)
    sums.imag = np.bincount(run, vals.imag)
    nonzero = sums != 0.0
    if not nonzero.all():
        keys, sums = keys[nonzero], sums[nonzero]
    indptr = np.searchsorted(keys, (np.arange(dim + 1, dtype=np.int64) * dim).astype(key_type))
    np.remainder(keys, dim, out=keys)
    return sparse.csr_matrix((sums, keys, indptr), shape=(dim, dim))


def _prune(matrix: sparse.csr_matrix) -> sparse.csr_matrix:
    matrix = matrix.tocsr()
    matrix.sum_duplicates()
    if matrix.nnz:
        peak = np.max(np.abs(matrix.data))
        if peak > 0.0:
            matrix.data[np.abs(matrix.data) < PRUNE_REL * peak] = 0.0
    matrix.eliminate_zeros()
    matrix.sort_indices()
    return matrix


def _check_basis_dims(basis_dims, dim) -> None:
    """Refuse a dim below 1, or basis_dims that are not positive integers multiplying to dim."""
    positive = all(is_integer(s) and s >= 1 for s in basis_dims)
    if not (dim >= 1 and positive and math.prod(basis_dims) == dim):
        raise ConfigurationError(
            f"dim {dim} must be >= 1 and the product of basis_dims {tuple(basis_dims)}, "
            "each a positive integer"
        )


@dataclass(frozen=True)
class OperatorMatrix:
    """Assembled operator: sparse differential part plus a separate scalar offset.

    The full action on a coefficient vector v is matrix @ v + offset * v;
    the offset (-ebar_n) is kept out of the matrix so exports and pruning
    never touch it.  The matrix must be a square scipy sparse matrix of
    dimension >= 1, `basis_dims` positive integers whose product is that
    dimension, and every stored entry and the offset finite, else
    ConfigurationError: a NaN offset, or a NaN on a 1x1 block (whose value
    is read off the diagonal with residual 0), would pass every residual
    check of the solvers.  So the solvers read the real form, the weight
    and the translation off `basis_dims` without checking it again.
    """

    matrix: sparse.csr_matrix
    offset: float
    basis_dims: tuple
    provenance: str

    def __post_init__(self):
        m = self.matrix
        if not (sparse.issparse(m) and m.ndim == 2 and m.shape[0] == m.shape[1] >= 1):
            raise ConfigurationError(
                "operator matrix must be a square scipy sparse matrix of dimension >= 1, "
                f"got {type(m).__name__} of shape {getattr(m, 'shape', None)}"
            )
        _check_basis_dims(self.basis_dims, m.shape[0])
        if not (np.isfinite(self.offset) and np.isfinite(m.tocsr().data).all()):
            raise ConfigurationError("operator holds a non-finite offset or entry")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec)
        if vec.shape != (self.dim,):
            raise ConfigurationError(
                f"vector has shape {vec.shape}, operator dimension is {self.dim}"
            )
        return self.matrix @ vec + self.offset * vec


# -- term generators -----------------------------------------------------------


def _weak_terms(params: ModelParams, lattice: ModeLattice, acc):
    for i in lattice.nonzero_indices():
        pair, sign = pair_and_sign(i)
        ksq = lattice.k_squared(lattice.modes[i])
        # d_k (k^2 phi_k .)
        _expand(ksq, [deriv_factors(pair, sign), phi_factors(pair, sign)], acc)
        # gamma_k d_k d_{-k}
        _expand(params.gamma_at(i), [deriv_factors(pair, sign), deriv_factors(pair, -sign)], acc)


def _potential_terms(params: ModelParams, lattice: ModeLattice, acc):
    if params.u_k is None:
        return
    for i in lattice.nonzero_indices():
        u = params.u_at(i)
        if u != 0.0:
            pair, sign = pair_and_sign(i)
            # -d_k (i u_k .) = -i u_k d_k
            _expand(-1.0j * u, [deriv_factors(pair, sign)], acc)


def _convolution(lattice: ModeLattice):
    """(k index, q index, k-q index, q.(k-q)) of every nonzero term of sum_q q.(k-q) phi_q phi_{k-q}.

    Sharp mode cutoff: only q with both q and k-q on the lattice.  Terms come
    ordered by (k index, q index) over every lattice mode k, k = 0 included.
    """
    unit2 = lattice.k_unit ** 2
    for i, mode_k in enumerate(lattice.modes):
        for j in lattice.nonzero_indices():
            mode_q = lattice.modes[j]
            mode_kq = tuple(a - b for a, b in zip(mode_k, mode_q))
            if not lattice.contains(mode_kq):
                continue
            weight = unit2 * float(sum(a * b for a, b in zip(mode_q, mode_kq)))
            if weight != 0.0:
                yield i, j, lattice.index(mode_kq), weight


def _cubic_terms(lattice: ModeLattice, acc):
    """i * sum_{k!=0} d_k ( sum_q q.(k-q) phi_q phi_{k-q} . ): the drift at unit epsilon."""
    for i, j, r, weight in _convolution(lattice):
        if i == 0:
            continue
        pk, sk = pair_and_sign(i)
        pq, sq = pair_and_sign(j)
        pr, sr = pair_and_sign(r)
        _expand(
            1.0j * weight,
            [deriv_factors(pk, sk), phi_factors(pq, sq), phi_factors(pr, sr)],
            acc,
        )


# -- the affine operator ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AffineOperator:
    """The operator family of one parameter set on one basis: L(epsilon) = L0 + epsilon L1.

    `l0` holds the pair drift/diffusion and potential terms with the offset
    -ebar_n; it is L(0), the weak-coupling operator when u_{k!=0} = 0.  `l1`
    is the unit-strength quadratic drift dL/d(epsilon) with a zero offset,
    materialized on first use and kept, so a caller that reads only L(0)
    never builds it.  For a constant potential L0 is real and L1 imaginary,
    so conj(L(epsilon)) = L(-epsilon) entry for entry.
    """

    l0: OperatorMatrix
    basis: HermiteBasis

    @functools.cached_property
    def l1(self) -> OperatorMatrix:
        acc: dict = {}
        _cubic_terms(self.basis.lattice, acc)
        return OperatorMatrix(
            _prune(_materialize(acc, self.basis)),
            0.0,
            self.basis.dims,
            "cubic-drift",
        )

    def at(self, epsilon: float) -> OperatorMatrix:
        """L(epsilon): L0 itself at epsilon = 0, else the pruned sum L0 + epsilon L1."""
        if epsilon == 0.0:
            return self.l0
        if self.basis.n_max < 2:
            warnings.warn(
                f"n_max={self.basis.n_max} cannot resolve the quadratic-drift term "
                "(it couples degrees up to 3); results are heavily truncated",
                TruncationWarning,
                stacklevel=2,
            )
        return OperatorMatrix(
            _prune(self.l0.matrix + epsilon * self.l1.matrix),
            self.l0.offset,
            self.basis.dims,
            f"affine(epsilon={epsilon:.17g})",
        )


def assemble(params: ModelParams, basis: HermiteBasis) -> AffineOperator:
    """L(epsilon) = sum_k [-d_k (A_k .) + gamma_k d_k d_{-k}] - ebar_n on `basis`, affine in epsilon.

    Reads every field of `params` but epsilon, which callers pass to
    `AffineOperator.at`.  The lattice is the basis's, and the basis must be
    variance-matched to params.gamma.  Substitutions give the variants:
    the weak operator is L(0) with no potential beyond u_0, and the scaling
    family is `scaled_params` on a basis matched to its gamma.
    """
    lattice = basis.lattice
    params.validate_against(lattice)
    if basis.gamma != params.gamma:
        raise ConfigurationError(
            f"basis variance-matched to gamma={basis.gamma} but the operator "
            f"requires gamma={params.gamma}; rebuild the basis"
        )
    acc: dict = {}
    _weak_terms(params, lattice, acc)
    _potential_terms(params, lattice, acc)
    l0 = OperatorMatrix(
        _prune(_materialize(acc, basis)),
        -params.ebar_n,
        basis.dims,
        "affine(epsilon=0)",
    )
    return AffineOperator(l0, basis)


def scaled_params(params: ModelParams) -> ModelParams:
    """The coefficients of the scaling family substituted into `params`.

    kappa^p multiplies the quadratic drift (it becomes epsilon), kappa^(q-p)
    the potential and kappa^(1-2p) the diffusion coefficients; the basis of a
    scaled operator is variance-matched to the returned gamma.  With
    p = q = 1/2 (diffusion coefficient 1) the scaled operator is L at
    epsilon = sqrt(kappa) on the unscaled basis.
    """
    kappa, p, q = params.kappa, params.p_exp, params.q_exp
    return replace(
        params,
        gamma=params.gamma * kappa ** (1.0 - 2.0 * p),
        gamma_k=None if params.gamma_k is None else params.gamma_k * kappa ** (1.0 - 2.0 * p),
        u_k=None if params.u_k is None else params.u_k * kappa ** (q - p),
        epsilon=kappa ** p,
    )


def conjugate_params(params: ModelParams) -> ModelParams:
    """The parameters of the conjugate operator: conj L(epsilon, u) = L(-epsilon, -u).

    In the real Hermite basis conjugation flips the sign of i, which the
    drift carries on both the quadratic term and the potential.  u_0 enters
    only the real offset -ebar_N, so it keeps its sign; every u_k with
    k != 0 flips, as does epsilon.  For a real potential (u_{-k} = u_k) the
    two operators are equal entry for entry, so they have one real form bit
    for bit.
    """
    u_k = params.u_k
    if u_k is not None:
        u_k = np.where(np.arange(u_k.size) == 0, u_k, -u_k)
    return replace(params, u_k=u_k, epsilon=-params.epsilon)


def gaussian_ground_coeffs(params: ModelParams, basis: HermiteBasis) -> np.ndarray:
    """Coefficients of the weak-coupling Gaussian ground state: degree 0 everywhere.

    Exact by construction when the basis is variance-matched to params.gamma;
    a mismatched basis is a configuration error (expand a mismatched Gaussian
    with hermite.gaussian_expansion_1d instead).
    """
    if basis.gamma != params.gamma:
        raise ConfigurationError(
            f"basis gamma={basis.gamma} does not match params gamma={params.gamma}"
        )
    v = np.zeros(basis.dim, dtype=complex)
    v[0] = 1.0
    return v


def symmetry_weight(basis_dims) -> np.ndarray:
    """Diagonal weight W = (-1)^(sum of x degrees) * prod_c n_c! of the tensor basis.

    Coordinates 2p and 2p+1 are the x and y of mode pair p (`phi_factors`);
    entries follow the basis order, the first coordinate slowest.  prod_c n_c!
    is the Gram matrix of the bilinear pairing (f, g) = int f g / rho over the
    stationary Gaussian rho of the weak operator (up to a constant; see the
    duals in `hermite`), and the sign is the reflection x -> -x of every pair,
    which maps phi_k to -phi_{-k}.  For a constant potential in d = 1:
      - the weak part is diagonal;
      - the quadratic drift C is antisymmetric in the pairing and odd under
        the reflection (P C P = -C),
    so W L = (W L)^T, the detailed-balance symmetrization of a Fokker-Planck
    operator (H. Risken, The Fokker-Planck Equation, 1989).  Then
    conj(W r) is a left eigenvector for every right eigenvector r.  A nonzero
    u_k (a pure raising term) or d = 2 (where the pairing no longer makes C
    antisymmetric) breaks the symmetry, so it is a certificate to test on the
    assembled matrix, never an assumption.  Factorials beyond the float range
    come back infinite.
    """
    w = np.ones(1)
    for coord, size in enumerate(basis_dims):
        n = np.arange(size)
        with np.errstate(over="ignore"):
            factor = np.cumprod(np.maximum(n, 1), dtype=float)
        if coord % 2 == 0:
            factor = np.where(n % 2 == 0, factor, -factor)
        w = np.outer(w, factor).ravel()
    return w


def quarter_translation(basis_dims):
    """(perm, sign) of the quarter-period translation T = T_{L/4} on the tensor basis, or None.

    T sends phi_k to i^n phi_k, n the mode number of the +-k pair, so on the
    pair's coordinates phi_k = x + i y it turns (x, y) by a quarter turn n
    times.  On the pair's Hermite states b_{n_x}(x) b_{n_y}(y), with b_n of
    parity (-1)^n, that is:
      - n = 1 (mod 4): swap n_x and n_y, with sign (-1)^{n_x};
      - n = 2: keep the state, with sign (-1)^{n_x + n_y};
      - n = 3: swap, with sign (-1)^{n_y};
      - n = 0: the identity.
    Coordinates 2p and 2p+1 are the x and y of pair p, which has mode number
    p + 1, the d = 1 lattice order; so the map is built for an even number
    of equal sides and is None for any other `basis_dims`.  State i maps to
    sign[i] times state perm[i], the basis order being the first coordinate
    slowest.  T preserves the total degree, so it acts the same way on the
    real form S^-1 L S.  With no potential beyond u_0 the d = 1 operator
    commutes with it, and T^2, the half-box translation, is diagonal, so T
    maps each symmetry block onto itself or onto one partner.  That is a
    property of the exact operator, not of its rounding, and nothing here
    knows the lattice: `spectral.solve` tests the map entry for entry.
    """
    if len(basis_dims) % 2 or len(set(basis_dims)) != 1:
        return None
    side = basis_dims[0]
    n_x, n_y = np.divmod(np.arange(side * side), side)
    swapped = n_y * side + n_x
    perm = np.zeros(1, dtype=np.int64)
    sign = np.ones(1)
    for p in range(len(basis_dims) // 2):
        turn = (p + 1) % 4
        target = swapped if turn % 2 else np.arange(side * side)
        flips = {0: 0 * n_x, 1: n_x, 2: n_x + n_y, 3: n_y}[turn]
        perm = (perm[:, None] * side * side + target).ravel()
        sign = np.outer(sign, np.where(flips % 2, -1.0, 1.0)).ravel()
    return perm, sign


def hermite_degrees(basis_dims) -> np.ndarray:
    """Total Hermite degree sum_c n_c of every tensor basis state, in basis order.

    For the operators assembled here S^-1 L S is real, with S = diag(i^deg):
    the entries that change the total degree by an even amount are real and
    those that change it by an odd amount are imaginary, the PT symmetry of
    an i*epsilon coupling.  `spectral._real_form` tests this on the assembled
    matrix, entry by entry, rather than assuming it.
    """
    deg = np.zeros(1, dtype=np.int64)
    for size in basis_dims:
        deg = (deg[:, None] + np.arange(size)).ravel()
    return deg


# -- diagnostics ----------------------------------------------------------------


def drift_term(phi_modes, params: ModelParams, lattice: ModeLattice) -> np.ndarray:
    """First-order drift A_k = -k^2 phi_k + i(u_k - eps * sum_q q.(k-q) phi_q phi_{k-q}).

    phi_modes is indexed per lattice mode (conjugate symmetric for a real
    phase field); the convolution runs only over q with both q and k-q on
    the lattice (sharp cutoff).  Returned for every lattice mode including
    k = 0.
    """
    params.validate_against(lattice)
    phi = np.asarray(phi_modes, dtype=complex)
    if phi.shape != (lattice.num_modes,):
        raise ConfigurationError(
            f"phi_modes has shape {phi.shape}, lattice carries {lattice.num_modes} modes"
        )
    conv = np.zeros(lattice.num_modes, dtype=complex)
    for i, j, r, weight in _convolution(lattice):
        conv[i] += weight * phi[j] * phi[r]
    out = np.zeros(lattice.num_modes, dtype=complex)
    for i, mode_k in enumerate(lattice.modes):
        out[i] = -lattice.k_squared(mode_k) * phi[i] + 1j * (
            params.u_at(i) - params.epsilon * conv[i]
        )
    return out


# -- sparse text export ----------------------------------------------------------

_TRIPLET_HEADER = "# phasegas sparse operator triplet v1"


def export_triplets(op: OperatorMatrix, path=None) -> str:
    """Deterministic text export: header with dims/offset, then `row col re im` lines.

    Entries appear in canonical CSR order (row-major, ascending column), all
    floats with 17 significant digits so a reload is bit-exact.
    """
    coo = op.matrix.tocoo()
    lines = [
        _TRIPLET_HEADER,
        f"# basis_dims: {' '.join(str(s) for s in op.basis_dims)}",
        f"# dim: {op.dim}",
        f"# offset: {op.offset:.17g}",
        f"# provenance: {op.provenance}",
        f"# nnz: {op.matrix.nnz}",
    ]
    for r, c, v in zip(coo.row, coo.col, coo.data):
        lines.append(f"{r} {c} {v.real:.17g} {v.imag:.17g}")
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    return text


def load_triplets(source) -> OperatorMatrix:
    """Rebuild an OperatorMatrix from export_triplets text (or a path to it).

    A string that starts with the export header is the text itself; anything
    else is a path.  Unreadable paths and malformed exports raise
    ConfigurationError: among them a missing basis_dims, dim or offset line,
    entry lines that miscount a `# nnz:` line (a truncated export), a dim
    below 1 or too large to allocate, basis_dims that do not multiply to dim
    (refused before anything is allocated), and (through OperatorMatrix) a
    non-finite offset or entry.
    """
    if isinstance(source, str) and source.lstrip().startswith(_TRIPLET_HEADER):
        text = source
    else:
        try:
            with open(source, "r", encoding="ascii") as fh:
                text = fh.read()
        except (OSError, ValueError) as exc:
            raise ConfigurationError(
                f"triplet source is neither export text nor a readable file: {exc}"
            ) from exc
    lines = text.strip().splitlines()
    if not lines or lines[0] != _TRIPLET_HEADER:
        raise ConfigurationError("not a phasegas triplet export")
    meta = {}
    rows, cols, vals = [], [], []
    for lineno, ln in enumerate(lines[1:], start=2):
        if ln.startswith("#"):
            key, _, val = ln[1:].partition(":")
            meta[key.strip()] = val.strip()
            continue
        try:
            r, c, re_s, im_s = ln.split()
            row, col, val = int(r), int(c), complex(float(re_s), float(im_s))
        except ValueError:
            raise ConfigurationError(
                f"triplet export line {lineno}: expected 'row col re im', got {ln!r}"
            ) from None
        rows.append(row)
        cols.append(col)
        vals.append(val)
    for key in ("basis_dims", "dim", "offset"):
        if key not in meta:
            raise ConfigurationError(f"triplet export has no '# {key}:' header line")
    try:
        dims = tuple(int(s) for s in meta["basis_dims"].split())
        dim = int(meta["dim"])
        offset = float(meta["offset"])
        nnz = int(meta.get("nnz", len(vals)))
    except ValueError as exc:
        raise ConfigurationError(f"invalid triplet export: {exc}") from exc
    if nnz != len(vals):
        raise ConfigurationError(f"triplet export has {len(vals)} entry lines, '# nnz:' says {nnz}")
    _check_basis_dims(dims, dim)
    values = np.array(vals, dtype=complex)
    try:
        matrix = sparse.csr_matrix(
            (values, (np.array(rows, dtype=int), np.array(cols, dtype=int))),
            shape=(dim, dim),
        )
    except ValueError as exc:
        raise ConfigurationError(f"invalid triplet export: {exc}") from exc
    except MemoryError:
        raise ConfigurationError(f"triplet export dim {dim} does not fit in memory") from None
    matrix.sort_indices()
    return OperatorMatrix(matrix, offset, dims, meta.get("provenance", "loaded"))
