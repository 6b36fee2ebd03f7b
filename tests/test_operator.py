"""Operator assembly: reduction to real coordinates, symmetries, round trips.

The heavyweight check here applies the mode-space differential operator
symbolically in the complex mode variables (sympy, no shared code with the
assembly path) and compares values pointwise against the assembled matrix.
"""

import itertools
import math

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import hermite_e as he

import phasegas.operator as operator
from phasegas.errors import ConfigurationError, PhasegasError, TruncationWarning
from phasegas.hermite import HermiteBasis
from phasegas.lattice import ModeLattice, TAU
from phasegas.operator import (
    OperatorMatrix,
    assemble,
    drift_term,
    export_triplets,
    gaussian_ground_coeffs,
    load_triplets,
    scaled_params,
)
from phasegas.params import ModelParams
from phasegas.spectral import eigen_spectrum

SEED = 20260816


def _setup(m=5, gamma=0.5, n_particles=2, epsilon=1.0, n_max=3, **kw):
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=m)
    par = ModelParams(gamma=gamma, n_particles=n_particles, epsilon=epsilon, **kw)
    bas = HermiteBasis(lat, gamma, n_max)
    return lat, par, bas


def _scaled(params, basis):
    """The scaling family: `scaled_params` substituted into `assemble`."""
    eff = scaled_params(params)
    return assemble(eff, basis).at(eff.epsilon)


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


def _drift_term_loop(phi, par, lat):
    """The double loop `drift_term` had before the convolution generator, kept as the reference."""
    unit2 = lat.k_unit ** 2
    out = np.zeros(lat.num_modes, dtype=complex)
    for i, mode_k in enumerate(lat.modes):
        conv = 0.0 + 0.0j
        for j, mode_q in enumerate(lat.modes):
            mode_kq = tuple(a - b for a, b in zip(mode_k, mode_q))
            if not lat.contains(mode_kq):
                continue
            weight = unit2 * float(sum(a * b for a, b in zip(mode_q, mode_kq)))
            if weight != 0.0:
                conv += weight * phi[j] * phi[lat.index(mode_kq)]
        out[i] = -lat.k_squared(mode_k) * phi[i] + 1j * (par.u_at(i) - par.epsilon * conv)
    return out


def test_drift_term_bit_identical_to_the_double_loop():
    rng = np.random.default_rng(SEED)
    for d, m in ((1, 3), (1, 5), (1, 7), (2, 3)):
        lat = ModeLattice(d=d, box_len=TAU, m_per_dim=m)
        for u in (None, 0.3):
            u_k = None if u is None else np.full(lat.num_modes, u)
            for eps in (1.0, -0.4):
                par = ModelParams(gamma=0.5, n_particles=2, epsilon=eps, u_k=u_k)
                for _ in range(20):
                    phi = _symmetric_modes(lat, rng)
                    got = drift_term(phi, par, lat)
                    assert got.tobytes() == _drift_term_loop(phi, par, lat).tobytes()


# -- the affine operator L0 + eps L1 ---------------------------------------------


def _cubic_terms_loop(epsilon, lat, acc):
    """The quadratic-drift loop of the one-dictionary assembly, epsilon in each coefficient."""
    if epsilon == 0.0:
        return
    unit2 = lat.k_unit ** 2
    for i in lat.nonzero_indices():
        mode_k = lat.modes[i]
        pk, sk = operator.pair_and_sign(i)
        for j in lat.nonzero_indices():
            mode_q = lat.modes[j]
            mode_kq = tuple(a - b for a, b in zip(mode_k, mode_q))
            if not any(mode_kq) or not lat.contains(mode_kq):
                continue
            weight = unit2 * float(sum(a * b for a, b in zip(mode_q, mode_kq)))
            if weight == 0.0:
                continue
            pq, sq = operator.pair_and_sign(j)
            pr, sr = operator.pair_and_sign(lat.index(mode_kq))
            operator._expand(
                1.0j * epsilon * weight,
                [
                    operator.deriv_factors(pk, sk),
                    operator.phi_factors(pq, sq),
                    operator.phi_factors(pr, sr),
                ],
                acc,
            )


def _single_dictionary(par, bas):
    """The one-dictionary assembly `assemble` replaced, kept as the reference.

    Every term goes into one dictionary, the quadratic drift's with epsilon
    in its coefficient, and the sum is materialized and pruned once.
    """
    acc = {}
    operator._weak_terms(par, bas.lattice, acc)
    operator._potential_terms(par, bas.lattice, acc)
    _cubic_terms_loop(par.epsilon, bas.lattice, acc)
    matrix = operator._prune(operator._materialize(acc, bas))
    return OperatorMatrix(matrix, -par.ebar_n, bas.dims, "reference")


def _same_arrays(a, b):
    a, b = a.tocsr(), b.tocsr()
    return all(
        getattr(a, attr).tobytes() == getattr(b, attr).tobytes()
        for attr in ("indptr", "indices", "data")
    )


def test_affine_sum_matches_the_single_dictionary_assembly():
    lat1 = ModeLattice(d=1, box_len=TAU, m_per_dim=5)
    lat2 = ModeLattice(d=2, box_len=TAU, m_per_dim=3)
    u_k = np.zeros(lat1.num_modes, dtype=complex)
    u_k[1:] = (0.3 + 0.1j, 0.3 - 0.1j, -0.2j, 0.2j)
    cases = [
        (ModelParams(gamma=0.5, n_particles=2), HermiteBasis(lat1, 0.5, 3)),
        (ModelParams(gamma=0.5, n_particles=3, u_k=u_k), HermiteBasis(lat1, 0.5, 3)),
        (ModelParams(gamma=0.8, n_particles=2), HermiteBasis(lat2, 0.8, 2)),
    ]
    for par, bas in cases:
        affine = assemble(par, bas)
        # L(0), and the weak operator of the parameters without a potential
        for p in (par, replace(par, u_k=None)):
            ref = _single_dictionary(replace(p, epsilon=0.0), bas)
            got = assemble(p, bas).at(0.0)
            assert _same_arrays(got.matrix, ref.matrix) and got.offset == ref.offset
        for eps in (0.05, -0.05, 0.2, -0.2, 0.4):
            ref = _single_dictionary(replace(par, epsilon=eps), bas).matrix
            got = affine.at(eps)
            assert np.array_equal(got.matrix.indptr, ref.indptr)
            assert np.array_equal(got.matrix.indices, ref.indices)
            rel = np.abs(got.matrix.data - ref.data) / np.abs(ref.data)
            assert rel.max() <= 2e-15, (eps, rel.max())
            assert got.offset == -par.ebar_n


def test_l1_bit_identical_to_the_unit_strength_drift():
    for d, m, n_max in ((1, 3, 3), (1, 5, 3), (1, 7, 2), (2, 3, 2)):
        lat = ModeLattice(d=d, box_len=TAU, m_per_dim=m)
        bas = HermiteBasis(lat, 0.5, n_max)
        l1 = assemble(ModelParams(gamma=0.5, n_particles=2), bas).l1
        acc = {}
        _cubic_terms_loop(1.0, lat, acc)
        assert _same_arrays(l1.matrix, operator._prune(operator._materialize(acc, bas)))
        assert l1.offset == 0.0
        # at m = 3 in d = 1 no q has both q and k - q nonzero on the lattice
        assert (l1.matrix.nnz > 0) == ((d, m) != (1, 3))


def test_at_zero_is_l0_and_never_builds_l1(monkeypatch):
    lat, par, bas = _setup(n_max=1)
    calls = []
    materialize = operator._materialize
    monkeypatch.setattr(
        operator, "_materialize", lambda acc, b: calls.append(b) or materialize(acc, b)
    )
    affine = assemble(par, bas)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a tiny basis warns only when L1 enters
        assert affine.at(0.0) is affine.l0 and affine.at(-0.0) is affine.l0
    assert len(calls) == 1
    with pytest.warns(TruncationWarning):
        affine.at(0.3)
    with pytest.warns(TruncationWarning):
        affine.at(-0.3)
    assert len(calls) == 2
    assert affine.l1 is affine.l1


# -- weak operator ---------------------------------------------------------------


def test_weak_matrix_is_diagonal_ladder():
    lat, par, bas = _setup(n_max=4)
    op = assemble(par, bas).at(0.0)
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
            op = assemble(par, bas).at(0.0)
            g = gaussian_ground_coeffs(par, bas)
            resid = op.apply(g) - (-par.ebar_n) * g
            assert np.max(np.abs(resid)) == 0.0


def test_offset_example():
    lat, par, bas = _setup(gamma=0.5, n_particles=3, n_max=1)
    assert par.ebar_n == 4.5
    assert assemble(par, bas).at(0.0).offset == -4.5
    par_u = ModelParams(gamma=0.5, n_particles=3, u_k=(0.2, 0.0, 0.0, 0.0, 0.0))
    assert par_u.ebar_n == 3 * (0.2 + 0.5 * 3)


def test_weak_equals_full_at_zero_epsilon():
    lat, par, bas = _setup(epsilon=0.0)
    w = assemble(par, bas).at(0.0)
    f = assemble(par, bas).at(par.epsilon)
    diff = (w.matrix - f.matrix).tocsr()
    diff.eliminate_zeros()
    assert diff.nnz == 0
    assert w.offset == f.offset


# -- conjugation and parity structure type checks --------------------------------


def test_sign_flip_conjugates_matrix_exactly():
    lat, _, bas = _setup(n_max=3)
    for eps in (0.1, 0.5, 1.0):
        plus = assemble(ModelParams(gamma=0.5, n_particles=2, epsilon=eps), bas).at(eps)
        minus = assemble(ModelParams(gamma=0.5, n_particles=2, epsilon=-eps), bas).at(-eps)
        diff = (minus.matrix - plus.matrix.conj()).tocsr()
        diff.eliminate_zeros()
        assert diff.nnz == 0
        assert minus.offset == plus.offset


def test_nonzero_potential_breaks_conjugation():
    lat, _, bas = _setup(n_max=2)
    u_k = (0.0, 0.3, 0.3, 0.0, 0.0)
    plus = assemble(ModelParams(gamma=0.5, n_particles=2, epsilon=0.4, u_k=u_k), bas).at(0.4)
    minus = assemble(ModelParams(gamma=0.5, n_particles=2, epsilon=-0.4, u_k=u_k), bas).at(-0.4)
    diff = (minus.matrix - plus.matrix.conj()).tocsr()
    diff.eliminate_zeros()
    assert diff.nnz > 0


def test_cubic_entries_flip_total_parity():
    """Every cubic-drift entry connects opposite total-degree parities."""
    lat, par, bas = _setup(epsilon=1.0, n_max=3)
    v = assemble(par, bas).l1.matrix.tocoo()
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
    v = assemble(par, bas).l1.matrix.tocsr()
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
    op = assemble(par, bas).at(par.epsilon)
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
    small = assemble(par, bas_small).at(par.epsilon).matrix.toarray()
    big = assemble(par, bas_big).at(par.epsilon).matrix.toarray()
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
        s = _scaled(par, bas)
        f = assemble(ModelParams(gamma=0.5, n_particles=2, epsilon=kappa**0.5), bas).at(kappa**0.5)
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
    s = _scaled(par, bas)
    f = assemble(ModelParams(gamma=gamma, n_particles=2, epsilon=kappa), bas).at(kappa)
    assert np.max(np.abs((s.matrix - f.matrix).toarray())) <= 1e-14
    assert abs(s.offset - f.offset) <= 1e-14 * abs(f.offset)


# -- misc API ---------------------------------------------------------------------


def test_apply_matches_dense_action():
    lat, par, bas = _setup(n_max=2)
    op = assemble(par, bas).at(par.epsilon)
    rng = np.random.default_rng(SEED + 2)
    v = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
    ref = (op.matrix.toarray() + op.offset * np.eye(op.dim)) @ v
    assert np.max(np.abs(op.apply(v) - ref)) <= 1e-12 * np.max(np.abs(ref))


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
        assemble(par, tiny).at(par.epsilon)


def test_triplet_export_round_trip(tmp_path):
    lat, par, bas = _setup(n_max=2)
    op = assemble(par, bas).at(par.epsilon)
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
    return export_triplets(assemble(par, bas).at(par.epsilon))


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


def _edit_header(text, key, value):
    """The export text with its `# key:` header line set to `value`."""
    return "\n".join(
        f"# {key}: {value}" if ln.startswith(f"# {key}:") else ln for ln in text.splitlines()
    )


def test_triplet_nan_offset_rejected():
    # the residuals exclude the offset, so a NaN offset would pass every check
    with pytest.raises(ConfigurationError, match="non-finite offset or entry"):
        load_triplets(_edit_header(_small_export(), "offset", "nan"))


def test_triplet_nan_entry_rejected():
    lines = _small_export().splitlines()
    row, col, _, imag = lines[-1].split()
    lines[-1] = f"{row} {col} nan {imag}"
    with pytest.raises(ConfigurationError, match="non-finite offset or entry"):
        load_triplets("\n".join(lines))


def test_triplet_unallocatable_dim_rejected():
    text = "\n".join(ln for ln in _small_export().splitlines() if not ln.startswith("# basis_dims:"))
    with pytest.raises(ConfigurationError, match="does not fit in memory"):
        load_triplets(_edit_header(text, "dim", "100000000000000000"))
    with pytest.raises(ConfigurationError, match="must be >= 1"):
        load_triplets(_edit_header(text, "dim", "0"))


def test_triplet_basis_dims_must_multiply_to_dim():
    text = _small_export()
    with pytest.raises(ConfigurationError, match="product of basis_dims"):
        load_triplets(_edit_header(text, "basis_dims", "3 3 3 2"))
    with pytest.raises(ConfigurationError, match="product of basis_dims"):
        load_triplets(_edit_header(text, "basis_dims", "-3 -3 3 3"))


_TRIPLET_FLOATS = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "5e-324", "x"]),
)


@st.composite
def _triplet_texts(draw):
    """Export-like text of dimension <= 6, with headers and entries that may be invalid."""
    dim = draw(st.one_of(st.integers(1, 6), st.sampled_from([0, -1, 10**17])))
    lines = ["# phasegas sparse operator triplet v1"]
    if draw(st.booleans()):
        dims = draw(st.sampled_from([(dim,), (2, 3), (1, dim), (-2, -3), (2, 2)]))
        lines.append(f"# basis_dims: {' '.join(str(n) for n in dims)}")
    lines.append(f"# dim: {dim}")
    lines.append(f"# offset: {draw(_TRIPLET_FLOATS)}")
    for _ in range(draw(st.integers(0, 12))):
        row, col = draw(st.integers(-1, 6)), draw(st.integers(-1, 6))
        lines.append(f"{row} {col} {draw(_TRIPLET_FLOATS)} {draw(_TRIPLET_FLOATS)}")
    return "\n".join(lines) + "\n"


# entries near 1e308 overflow the residual norms, which then fail the residual check
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(text=_triplet_texts())
def test_triplet_text_raises_only_phasegas_errors(text):
    try:
        pairs = eigen_spectrum(load_triplets(text))
    except PhasegasError:
        return
    assert np.isfinite([p.eigenvalue for p in pairs]).all()


def test_two_dimensional_lattice_smoke():
    lat = ModeLattice(d=2, box_len=TAU, m_per_dim=3)
    assert lat.num_modes == 9 and lat.n_pairs == 4
    par = ModelParams(gamma=0.8, n_particles=2, epsilon=0.3)
    bas = HermiteBasis(lat, 0.8, 1)
    with pytest.warns(TruncationWarning):
        op = assemble(par, bas).at(par.epsilon)
    w = assemble(par, bas).at(0.0)
    g = gaussian_ground_coeffs(par, bas)
    assert np.max(np.abs(w.apply(g) - (-par.ebar_n) * g)) == 0.0
    with pytest.warns(TruncationWarning):
        minus = assemble(ModelParams(gamma=0.8, n_particles=2, epsilon=-0.3), bas).at(-0.3)
    diff = (minus.matrix - op.matrix.conj()).tocsr()
    diff.eliminate_zeros()
    assert diff.nnz == 0


def test_gamma_mismatch_rejected():
    lat, par, _ = _setup(gamma=0.5)
    bas = HermiteBasis(lat, 0.9, 2)
    with pytest.raises(ConfigurationError):
        assemble(par, bas).at(0.0)
