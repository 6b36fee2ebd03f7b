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
and derivatives, so matrix elements are computed exactly (see `hermite`);
entries are polynomial in epsilon with real coefficients multiplying even
powers and imaginary coefficients multiplying odd powers, which realizes the
conjugation symmetry matrix(-epsilon) = conj(matrix(epsilon)) entry for
entry when the potential is constant.

Determinism contract: terms are accumulated in a fixed documented order --
pair drift/diffusion in lattice mode order, then potential terms in mode
order, then quadratic-drift terms ordered by (k index, q index) -- and the
assembly is sequential, so rebuilding with identical inputs is bit-identical.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .errors import ConfigurationError, TruncationWarning
from .hermite import HermiteBasis
from .lattice import ModeLattice
from .params import ModelParams

PRUNE_REL = 1e-15


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
    dim = basis.dim
    side = basis.n_max + 1
    total = sparse.csr_matrix((dim, dim), dtype=complex)
    eye = (np.arange(side), np.arange(side), np.ones(side))
    for key, coeff in acc.items():
        if coeff == 0.0:
            continue
        blocks = dict(key)
        # Kronecker product over the coordinates by index arithmetic; entries
        # multiply left to right, identity factors by an exact 1.0, so the
        # values equal those of chained sparse.kron calls
        rows = cols = np.zeros(1, dtype=np.intp)
        vals = np.ones(1)
        for coord in range(basis.n_coords):
            if coord in blocks:
                block = basis.block(coord, blocks[coord])
                r, c = np.nonzero(block)
                piece = (r, c, block[r, c])
            else:
                piece = eye
            rows = (rows[:, None] * side + piece[0]).ravel()
            cols = (cols[:, None] * side + piece[1]).ravel()
            vals = (vals[:, None] * piece[2]).ravel()
        mat = sparse.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
        total = total + coeff * mat
    return total


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


@dataclass(frozen=True)
class OperatorMatrix:
    """Assembled operator: sparse differential part plus a separate scalar offset.

    The full action on a coefficient vector v is matrix @ v + offset * v;
    the offset (-ebar_n) is kept out of the matrix so exports and pruning
    never touch it.
    """

    matrix: sparse.csr_matrix
    offset: float
    basis_dims: tuple
    provenance: str

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

    def total_dense(self) -> np.ndarray:
        out = np.asarray(self.matrix.todense(), dtype=complex)
        out[np.diag_indices_from(out)] += self.offset
        return out


def apply(op: OperatorMatrix, vec: np.ndarray) -> np.ndarray:
    """Matrix-vector action including the scalar offset."""
    return op.apply(vec)


# -- term generators -----------------------------------------------------------


def _check_setup(params: ModelParams, lattice: ModeLattice, basis: HermiteBasis, gamma_ref: float):
    params.validate_against(lattice)
    if basis.lattice != lattice:
        raise ConfigurationError("basis was built for a different lattice")
    if basis.gamma != gamma_ref:
        raise ConfigurationError(
            f"basis variance-matched to gamma={basis.gamma} but the operator "
            f"requires gamma={gamma_ref}; rebuild the basis"
        )


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


def _cubic_terms(epsilon: float, lattice: ModeLattice, acc):
    """i*eps * sum_{k!=0} d_k ( sum_q q.(k-q) phi_q phi_{k-q} . ), sharp mode cutoff."""
    if epsilon == 0.0:
        return
    unit2 = lattice.k_unit ** 2
    for i in lattice.nonzero_indices():
        mode_k = lattice.modes[i]
        pk, sk = pair_and_sign(i)
        for j in lattice.nonzero_indices():
            mode_q = lattice.modes[j]
            mode_kq = tuple(a - b for a, b in zip(mode_k, mode_q))
            if not any(mode_kq) or not lattice.contains(mode_kq):
                continue
            weight = unit2 * float(sum(a * b for a, b in zip(mode_q, mode_kq)))
            if weight == 0.0:
                continue
            pq, sq = pair_and_sign(j)
            pr, sr = pair_and_sign(lattice.index(mode_kq))
            _expand(
                1.0j * epsilon * weight,
                [deriv_factors(pk, sk), phi_factors(pq, sq), phi_factors(pr, sr)],
                acc,
            )


# -- public assemblers ---------------------------------------------------------


def assemble_weak(params: ModelParams, lattice: ModeLattice, basis: HermiteBasis) -> OperatorMatrix:
    """Weak-coupling operator sum_k d_k (k^2 phi_k . + gamma_k d_{-k} .) - ebar_n.

    Exactly diagonal in the variance-matched basis (when gamma_k is the
    constant gamma), with entries -sum_c n_c k_c^2 and offset -ebar_n.
    """
    _check_setup(params, lattice, basis, params.gamma)
    acc: dict = {}
    _weak_terms(params, lattice, acc)
    matrix = _prune(_materialize(acc, basis))
    return OperatorMatrix(matrix, -params.ebar_n, basis.dims, "weak")


def assemble_full(params: ModelParams, lattice: ModeLattice, basis: HermiteBasis) -> OperatorMatrix:
    """Full operator sum_k [-d_k (A_k .) + gamma_k d_k d_{-k}] - ebar_n.

    Includes the potential term -i u_k d_k for k != 0 and the
    epsilon-weighted quadratic-drift term i*eps*d_k(q.(k-q) phi_q phi_{k-q} .).
    """
    _check_setup(params, lattice, basis, params.gamma)
    if params.epsilon != 0.0 and basis.n_max < 2:
        warnings.warn(
            f"n_max={basis.n_max} cannot resolve the quadratic-drift term "
            "(it couples degrees up to 3); results are heavily truncated",
            TruncationWarning,
            stacklevel=2,
        )
    acc: dict = {}
    _weak_terms(params, lattice, acc)
    _potential_terms(params, lattice, acc)
    _cubic_terms(params.epsilon, lattice, acc)
    matrix = _prune(_materialize(acc, basis))
    return OperatorMatrix(matrix, -params.ebar_n, basis.dims, "full")


def cubic_drift_operator(
    params: ModelParams, lattice: ModeLattice, basis: HermiteBasis
) -> OperatorMatrix:
    """The unit-strength quadratic-drift matrix: d(assemble_full)/d(epsilon).

    Equals assemble_full(epsilon=1) - assemble_full(epsilon=0) and carries a
    zero offset; used as the perturbation in the epsilon series.
    """
    _check_setup(params, lattice, basis, params.gamma)
    acc: dict = {}
    _cubic_terms(1.0, lattice, acc)
    matrix = _prune(_materialize(acc, basis))
    return OperatorMatrix(matrix, 0.0, basis.dims, "cubic-drift")


def scaled_operator(params: ModelParams, basis: HermiteBasis) -> OperatorMatrix:
    """Scaling family: kappa^p on the quadratic drift, kappa^(q-p) on u, kappa^(1-2p) on gamma.

    Direct substitution of those three coefficients into assemble_full; with
    p = q = 1/2 (diffusion coefficient 1) this is assemble_full at
    epsilon = sqrt(kappa) on the same basis.
    """
    kappa, p, q = params.kappa, params.p_exp, params.q_exp
    eff = replace(
        params,
        gamma=params.gamma * kappa ** (1.0 - 2.0 * p),
        gamma_k=None if params.gamma_k is None else params.gamma_k * kappa ** (1.0 - 2.0 * p),
        u_k=None if params.u_k is None else params.u_k * kappa ** (q - p),
        epsilon=kappa ** p,
    )
    lattice = basis.lattice
    _check_setup(eff, lattice, basis, eff.gamma)
    if eff.epsilon != 0.0 and basis.n_max < 2:
        warnings.warn(
            f"n_max={basis.n_max} cannot resolve the quadratic-drift term",
            TruncationWarning,
            stacklevel=2,
        )
    acc: dict = {}
    _weak_terms(eff, lattice, acc)
    _potential_terms(eff, lattice, acc)
    _cubic_terms(eff.epsilon, lattice, acc)
    matrix = _prune(_materialize(acc, basis))
    return OperatorMatrix(
        matrix,
        -eff.ebar_n,
        basis.dims,
        f"scaled(kappa={kappa:.17g},p={p:.17g},q={q:.17g})",
    )


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
    unit2 = lattice.k_unit ** 2
    out = np.zeros(lattice.num_modes, dtype=complex)
    for i, mode_k in enumerate(lattice.modes):
        conv = 0.0 + 0.0j
        for j, mode_q in enumerate(lattice.modes):
            mode_kq = tuple(a - b for a, b in zip(mode_k, mode_q))
            if not lattice.contains(mode_kq):
                continue
            weight = unit2 * float(sum(a * b for a, b in zip(mode_q, mode_kq)))
            if weight != 0.0:
                conv += weight * phi[j] * phi[lattice.index(mode_kq)]
        out[i] = -lattice.k_squared(mode_k) * phi[i] + 1j * (
            params.u_at(i) - params.epsilon * conv
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
    ConfigurationError.
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
    for key in ("dim", "offset"):
        if key not in meta:
            raise ConfigurationError(f"triplet export has no '# {key}:' header line")
    try:
        dims = tuple(int(s) for s in meta.get("basis_dims", "").split())
        dim = int(meta["dim"])
        offset = float(meta["offset"])
        matrix = sparse.csr_matrix(
            (np.array(vals, dtype=complex), (np.array(rows, dtype=int), np.array(cols, dtype=int))),
            shape=(dim, dim),
        )
    except ValueError as exc:
        raise ConfigurationError(f"invalid triplet export: {exc}") from exc
    matrix.sort_indices()
    return OperatorMatrix(matrix, offset, dims, meta.get("provenance", "loaded"))
