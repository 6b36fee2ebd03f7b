"""Operator assembly: reduction to real coordinates, symmetries, round trips.

The heavyweight check here applies the mode-space differential operator
symbolically in the complex mode variables (sympy, no shared code with the
assembly path) and compares values pointwise against the assembled matrix.
"""

import itertools
import math

import numpy as np
import pytest
from numpy.polynomial import hermite_e as he

from phasegas.errors import ConfigurationError, TruncationWarning
from phasegas.hermite import HermiteBasis
from phasegas.lattice import ModeLattice, TAU
from phasegas.operator import (
    OperatorMatrix,
    apply,
    assemble_full,
    assemble_weak,
    cubic_drift_operator,
    drift_term,
    export_triplets,
    gaussian_ground_coeffs,
    load_triplets,
    scaled_operator,
)
from phasegas.params import ModelParams

SEED = 20260816


def _setup(m=5, gamma=0.5, n_particles=2, epsilon=1.0, n_max=3, **kw):
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=m)
    par = ModelParams(gamma=gamma, n_particles=n_particles, epsilon=epsilon, **kw)
    bas = HermiteBasis(lat, gamma, n_max)
    return lat, par, bas


def _symmetric_modes(lat, rng):
    phi = rng.normal(size=lat.num_modes) + 1j * rng.normal(size=lat.num_modes)
    out = np.zeros_like(phi)
    out[0] = phi[0].real
    for i_pos, i_neg in lat.pair_list():
        out[i_pos] = phi[i_pos]
        out[i_neg] = np.conj(phi[i_pos])
    return out


# -- drift convolution -----------------------------------------------------------


def _drift_oracle(phi, par, lat):
    """Direct double-loop convolution, no vectorization shared with drift_term."""
    out = np.zeros(lat.num_modes, dtype=complex)
    for i, mode in enumerate(lat.modes):
        k = mode[0]
        conv = 0.0 + 0.0j
        for j, qmode in enumerate(lat.modes):
            q = qmode[0]
            rest = (k - q,)
            if q == 0 or (k - q) == 0 or not lat.contains(rest):
                continue
            conv += (
                (q * lat.k_unit)
                * ((k - q) * lat.k_unit)
                * phi[j]
                * phi[lat.index(rest)]
            )
        u = par.u_at(i)
        out[i] = -lat.k_squared(mode) * phi[i] + 1j * (u - par.epsilon * conv)
    return out


def test_drift_term_matches_convolution_oracle():
    lat, par, _ = _setup()
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        phi = _symmetric_modes(lat, rng)
        got = drift_term(phi, par, lat)
        ref = _drift_oracle(phi, par, lat)
        assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_drift_term_quadratic_example():
    # phi_1 = c, phi_-1 = conj(c), rest zero, eps = 1, u = 0:
    #   A_0 = 2i|c|^2, A_1 = -c, A_2 = -i c^2
    lat, par, _ = _setup()
    c = 0.3 - 0.7j
    phi = np.zeros(lat.num_modes, dtype=complex)
    phi[lat.index((1,))] = c
    phi[lat.index((-1,))] = np.conj(c)
    a = drift_term(phi, par, lat)
    assert abs(a[lat.index((0,))] - 2j * abs(c) ** 2) <= 1e-15
    assert abs(a[lat.index((1,))] - (-c)) <= 1e-15
    assert abs(a[lat.index((2,))] - (-1j * c**2)) <= 1e-15
    assert abs(a[lat.index((-2,))] - (-1j * np.conj(c) ** 2)) <= 1e-15


def test_drift_term_with_potential():
    lat, _, _ = _setup()
    u_k = np.array([0.2, 0.05, 0.05, -0.1, -0.1])
    par = ModelParams(gamma=0.5, n_particles=2, epsilon=0.0, u_k=tuple(u_k))
    phi = np.zeros(lat.num_modes, dtype=complex)
    a = drift_term(phi, par, lat)
    assert np.max(np.abs(a - 1j * u_k)) == 0.0


# -- weak operator ---------------------------------------------------------------


def test_weak_matrix_is_diagonal_ladder():
    lat, par, bas = _setup(n_max=4)
    op = assemble_weak(par, lat, bas)
    m = op.matrix.tocsr()
    # strictly diagonal after pruning; the all-zeros state contributes an
    # exact 0 that the pruning drops
    assert m.nnz == op.dim - 1
    coo = m.tocoo()
    assert np.all(coo.row == coo.col)
    diag = m.diagonal()
    ref = np.zeros(op.dim)
    for flat, multi in enumerate(itertools.product(*(range(d) for d in bas.dims))):
        ref[flat] = -sum(n * k2 for n, k2 in zip(multi, bas.coord_k2))
    assert np.array_equal(diag, ref.astype(complex))
    assert op.offset == -par.ebar_n


def test_weak_annihilates_gaussian_ground_exactly():
    for gamma in (0.1, 0.5, 2.0):
        for m in (5, 9):
            lat, par, bas = _setup(m=m, gamma=gamma, n_particles=3, n_max=2)
            op = assemble_weak(par, lat, bas)
            g = gaussian_ground_coeffs(par, bas)
            resid = apply(op, g) - (-par.ebar_n) * g
            assert np.max(np.abs(resid)) == 0.0


def test_offset_example():
    lat, par, bas = _setup(gamma=0.5, n_particles=3, n_max=1)
    assert par.ebar_n == 4.5
    assert assemble_weak(par, lat, bas).offset == -4.5
    par_u = ModelParams(gamma=0.5, n_particles=3, u_k=(0.2, 0.0, 0.0, 0.0, 0.0))
    assert par_u.ebar_n == 3 * (0.2 + 0.5 * 3)


def test_weak_equals_full_at_zero_epsilon():
    lat, par, bas = _setup(epsilon=0.0)
    w = assemble_weak(par, lat, bas)
    f = assemble_full(par, lat, bas)
    diff = (w.matrix - f.matrix).tocsr()
    diff.eliminate_zeros()
    assert diff.nnz == 0
    assert w.offset == f.offset


# -- conjugation and parity structure type checks --------------------------------


def test_sign_flip_conjugates_matrix_exactly():
    lat, _, bas = _setup(n_max=3)
    for eps in (0.1, 0.5, 1.0):
        plus = assemble_full(ModelParams(gamma=0.5, n_particles=2, epsilon=eps), lat, bas)
        minus = assemble_full(ModelParams(gamma=0.5, n_particles=2, epsilon=-eps), lat, bas)
        diff = (minus.matrix - plus.matrix.conj()).tocsr()
        diff.eliminate_zeros()
        assert diff.nnz == 0
        assert minus.offset == plus.offset


def test_nonzero_potential_breaks_conjugation():
    lat, _, bas = _setup(n_max=2)
    u_k = (0.0, 0.3, 0.3, 0.0, 0.0)
    plus = assemble_full(
        ModelParams(gamma=0.5, n_particles=2, epsilon=0.4, u_k=u_k), lat, bas
    )
    minus = assemble_full(
        ModelParams(gamma=0.5, n_particles=2, epsilon=-0.4, u_k=u_k), lat, bas
    )
    diff = (minus.matrix - plus.matrix.conj()).tocsr()
    diff.eliminate_zeros()
    assert diff.nnz > 0


def test_cubic_entries_flip_total_parity():
    """Every cubic-drift entry connects opposite total-degree parities."""
    lat, par, bas = _setup(epsilon=1.0, n_max=3)
    v = cubic_drift_operator(par, lat, bas).matrix.tocoo()
    parity = np.zeros(bas.dim, dtype=int)
    for flat, multi in enumerate(itertools.product(*(range(d) for d in bas.dims))):
        parity[flat] = sum(multi) % 2
    assert v.nnz > 0
    assert np.all(parity[v.row] != parity[v.col])
    # and the matrix is purely imaginary in this representation
    assert np.max(np.abs(v.data.real)) == 0.0


def test_cubic_row_zero_vanishes():
    # divergence form: constant left functional annihilates the drift terms
    lat, par, bas = _setup(epsilon=1.0, n_max=4)
    v = cubic_drift_operator(par, lat, bas).matrix.tocsr()
    assert np.max(np.abs(v[0].toarray())) == 0.0


# -- symbolic oracle over complex mode variables ---------------------------------


def _he_poly_sympy(n, xi):
    import sympy as sp

    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    mono = he.herme2poly(coeffs)
    return sum(sp.Integer(round(c)) * xi**j for j, c in enumerate(mono))


def test_full_operator_matches_symbolic_mode_space_oracle():
    """Apply L = sum_k [-d/dphi_k (A_k .) + gamma d2/dphi_k dphi_{-k}] - ebar
    symbolically in the complex variables and compare pointwise."""
    import sympy as sp

    gamma, n_particles, eps = 0.5, 2, 0.7
    # the cubic term raises any one coordinate degree by at most 2, so a
    # basis with that much headroom holds the complete image of low columns
    lat, par, bas = _setup(gamma=gamma, n_particles=n_particles, epsilon=eps, n_max=4)
    op = assemble_full(par, lat, bas)
    dense = op.matrix.toarray() + op.offset * np.eye(op.dim)

    # complex mode symbols in lattice order [0, +1, -1, +2, -2]; the 0 mode
    # never appears in the operator
    syms = sp.symbols("p0 pp1 pm1 pp2 pm2")
    mode_of = {1: syms[1], -1: syms[2], 2: syms[3], -2: syms[4]}

    def conv(k):
        total = sp.Integer(0)
        for q in (-2, -1, 1, 2):
            r = k - q
            if r == 0 or r not in mode_of:
                continue
            total += sp.Integer(q) * sp.Integer(r) * mode_of[q] * mode_of[r]
        return total * lat.k_unit**2

    # real coordinates in basis order (x0, y0 for |k| = 1; x1, y1 for |k| = 2)
    xs = sp.symbols("x0 y0 x1 y1", real=True)
    subs_complex = {
        mode_of[1]: xs[0] + sp.I * xs[1],
        mode_of[-1]: xs[0] - sp.I * xs[1],
        mode_of[2]: xs[2] + sp.I * xs[3],
        mode_of[-2]: xs[2] - sp.I * xs[3],
    }

    def apply_symbolic(multi):
        weight = sp.exp(
            -sum(x**2 / (2 * sp.Float(s) ** 2) for x, s in zip(xs, bas.sigmas))
        )
        f = weight
        for n, x, s in zip(multi, xs, bas.sigmas):
            f *= _he_poly_sympy(n, x / sp.Float(s))
        f_modes = f.subs(
            {
                xs[0]: (mode_of[1] + mode_of[-1]) / 2,
                xs[1]: (mode_of[1] - mode_of[-1]) / (2 * sp.I),
                xs[2]: (mode_of[2] + mode_of[-2]) / 2,
                xs[3]: (mode_of[2] - mode_of[-2]) / (2 * sp.I),
            }
        )
        total = -sp.Float(par.ebar_n) * f_modes
        for k in (-2, -1, 1, 2):
            pk, mk = mode_of[k], mode_of[-k]
            a_k = -sp.Integer(k**2) * lat.k_unit**2 * pk + sp.I * (
                0 - sp.Float(eps) * conv(k)
            )
            total += -sp.diff(a_k * f_modes, pk) + sp.Float(gamma) * sp.diff(
                f_modes, pk, mk
            )
        return sp.simplify(total.subs(subs_complex))

    rng = np.random.default_rng(SEED + 1)
    points = rng.normal(scale=0.4, size=(6, 4))

    def column_values(col):
        tensor = dense[:, col].reshape(bas.dims)
        vals = []
        for pt in points:
            vecs = []
            for c, (x, s) in enumerate(zip(pt, bas.sigmas)):
                xi = x / s
                ident = np.eye(bas.dims[c])
                hv = np.array([he.hermeval(xi, ident[n]) for n in range(bas.dims[c])])
                vecs.append(hv * math.exp(-(xi**2) / 2.0))
            acc = tensor
            for v in vecs:
                acc = np.tensordot(v, acc, axes=(0, 0))
            vals.append(complex(acc))
        return np.array(vals)

    # columns kept low enough (degree <= 2 per coordinate) that their image
    # fits inside n_max = 4 without cropping
    cols = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 1, 0), (2, 0, 0, 1), (1, 1, 1, 1)]
    for multi in cols:
        flat = int(np.ravel_multi_index(multi, bas.dims))
        expr = apply_symbolic(multi)
        fn = sp.lambdify(xs, expr, modules="numpy")
        ref = np.array([complex(fn(*pt)) for pt in points])
        got = column_values(flat)
        scale = max(np.max(np.abs(ref)), 1e-10)
        assert np.max(np.abs(got - ref)) <= 1e-10 * scale, multi


# -- truncation nesting ----------------------------------------------------------


def test_matrix_entries_nest_across_truncation():
    lat, par, bas_small = _setup(n_max=2)
    bas_big = HermiteBasis(lat, par.gamma, 4)
    small = assemble_full(par, lat, bas_small).matrix.toarray()
    big = assemble_full(par, lat, bas_big).matrix.toarray()
    idx = np.array(
        [
            np.ravel_multi_index(multi, bas_big.dims)
            for multi in itertools.product(*(range(d) for d in bas_small.dims))
        ]
    )
    embedded = big[np.ix_(idx, idx)]
    assert np.array_equal(small, embedded)


# -- scaling ---------------------------------------------------------------------


def test_scaled_operator_equals_full_at_sqrt_kappa():
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=5)
    bas = HermiteBasis(lat, 0.5, 3)
    for kappa in (0.04, 0.25, 1.0):
        par = ModelParams(gamma=0.5, n_particles=2, kappa=kappa)
        s = scaled_operator(par, bas)
        f = assemble_full(
            ModelParams(gamma=0.5, n_particles=2, epsilon=kappa**0.5), lat, bas
        )
        diff = (s.matrix - f.matrix).tocsr()
        diff.eliminate_zeros()
        assert diff.nnz == 0
        assert s.offset == f.offset


def test_scaled_operator_general_exponents():
    # p = 1, q = 0: gamma -> gamma/kappa, eps -> kappa, u -> u/kappa
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=5)
    kappa = 0.3
    gamma = 0.5 / kappa
    bas = HermiteBasis(lat, gamma, 2)
    par = ModelParams(
        gamma=0.5, n_particles=2, kappa=kappa, p_exp=1.0, q_exp=0.0
    )
    s = scaled_operator(par, bas)
    f = assemble_full(
        ModelParams(gamma=gamma, n_particles=2, epsilon=kappa), lat, bas
    )
    assert np.max(np.abs((s.matrix - f.matrix).toarray())) <= 1e-14
    assert abs(s.offset - f.offset) <= 1e-14 * abs(f.offset)


# -- misc API ---------------------------------------------------------------------


def test_apply_matches_dense_action():
    lat, par, bas = _setup(n_max=2)
    op = assemble_full(par, lat, bas)
    rng = np.random.default_rng(SEED + 2)
    v = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
    ref = op.total_dense() @ v
    assert np.max(np.abs(apply(op, v) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_gaussian_ground_requires_matching_width():
    lat, par, bas = _setup()
    with pytest.raises(ConfigurationError):
        gaussian_ground_coeffs(ModelParams(gamma=0.7, n_particles=2), bas)
    g = gaussian_ground_coeffs(par, bas)
    assert g[0] == 1.0 and np.count_nonzero(g) == 1


def test_truncation_warning_for_tiny_basis():
    lat, par, _ = _setup()
    tiny = HermiteBasis(lat, par.gamma, 1)
    with pytest.warns(TruncationWarning):
        assemble_full(par, lat, tiny)


def test_triplet_export_round_trip(tmp_path):
    lat, par, bas = _setup(n_max=2)
    op = assemble_full(par, lat, bas)
    path = tmp_path / "op.txt"
    text = export_triplets(op, path)
    assert path.read_text() == text
    for back in (load_triplets(path), load_triplets(text)):
        assert back.offset == op.offset
        assert back.basis_dims == op.basis_dims
        assert back.provenance == op.provenance
        a, b = op.matrix.tocsr(), back.matrix.tocsr()
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)


def _small_export():
    lat, par, bas = _setup(n_max=2)
    return export_triplets(assemble_full(par, lat, bas))


def test_triplet_missing_dim_line_rejected():
    text = "\n".join(ln for ln in _small_export().splitlines() if not ln.startswith("# dim:"))
    with pytest.raises(ConfigurationError, match="no '# dim:' header line"):
        load_triplets(text)


def test_triplet_malformed_entry_rejected():
    lines = _small_export().splitlines()
    lines.append("3 4 0.5")
    with pytest.raises(ConfigurationError, match=f"line {len(lines)}: expected 'row col re im'"):
        load_triplets("\n".join(lines))


def test_triplet_missing_path_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match="neither export text nor a readable file"):
        load_triplets(str(tmp_path / "absent.txt"))


def test_two_dimensional_lattice_smoke():
    lat = ModeLattice(d=2, box_len=TAU, m_per_dim=3)
    assert lat.num_modes == 9 and lat.n_pairs == 4
    par = ModelParams(gamma=0.8, n_particles=2, epsilon=0.3)
    bas = HermiteBasis(lat, 0.8, 1)
    with pytest.warns(TruncationWarning):
        op = assemble_full(par, lat, bas)
    w = assemble_weak(par, lat, bas)
    g = gaussian_ground_coeffs(par, bas)
    assert np.max(np.abs(apply(w, g) - (-par.ebar_n) * g)) == 0.0
    with pytest.warns(TruncationWarning):
        minus = assemble_full(
            ModelParams(gamma=0.8, n_particles=2, epsilon=-0.3), lat, bas
        )
    diff = (minus.matrix - op.matrix.conj()).tocsr()
    diff.eliminate_zeros()
    assert diff.nnz == 0


def test_gamma_mismatch_rejected():
    lat, par, _ = _setup(gamma=0.5)
    bas = HermiteBasis(lat, 0.9, 2)
    with pytest.raises(ConfigurationError):
        assemble_weak(par, lat, bas)
