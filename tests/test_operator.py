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
from scipy import sparse

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
    quarter_translation,
    scaled_params,
)
from phasegas.params import ModelParams
from phasegas.spectral import solve

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


def _sparse_add_chain(acc, basis):
    """`operator._materialize` as it was written, one scipy sparse add per term, kept as the reference."""
    dim = basis.dim
    side = basis.n_max + 1
    total = sparse.csr_matrix((dim, dim), dtype=complex)
    eye = (np.arange(side), np.arange(side), np.ones(side))
    for key, coeff in acc.items():
        if coeff == 0.0:
            continue
        blocks = dict(key)
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


@st.composite
def _small_models(draw, n_max_min=0):
    """(params, basis) on a small d = 1 or d = 2 lattice with a random gamma and potential."""
    d = draw(st.sampled_from([1, 1, 2]))
    m = draw(st.sampled_from([3, 5, 7])) if d == 1 else 3
    top = {(1, 3): 4, (1, 5): 4, (1, 7): 3, (2, 3): 2}[d, m]
    n_max = draw(st.integers(n_max_min, top))
    lat = ModeLattice(d=d, box_len=TAU, m_per_dim=m)
    gamma = draw(st.floats(0.2, 2.0))
    u_k = None
    if draw(st.booleans()):
        # a conjugate-symmetric potential: u_{-k} = conj(u_k)
        u_k = np.zeros(lat.num_modes, dtype=complex)
        u_k[0] = draw(st.floats(-1.0, 1.0))
        for i_plus, i_minus in lat.pair_list():
            u = complex(draw(st.floats(-1.0, 1.0)), draw(st.sampled_from([0.0, 0.25, -0.5])))
            u_k[i_plus], u_k[i_minus] = u, u.conjugate()
    return ModelParams(gamma=gamma, n_particles=2, u_k=u_k), HermiteBasis(lat, gamma, n_max)


def _term_dictionaries(par, bas):
    """The keyed monomials of L0 (drift, diffusion, potential) and of L1."""
    acc0, acc1 = {}, {}
    operator._weak_terms(par, bas.lattice, acc0)
    operator._potential_terms(par, bas.lattice, acc0)
    operator._cubic_terms(bas.lattice, acc1)
    return acc0, acc1


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=_small_models())
def test_materialize_folds_as_the_sparse_add_chain(case):
    # each entry's contributions add in term order from +0.0, so the bits
    # (signed zeros included, e.g. the -0.0 real part of a purely imaginary
    # L1 contribution) are those of the chain
    par, bas = case
    for acc in _term_dictionaries(par, bas):
        got, ref = operator._materialize(acc, bas), _sparse_add_chain(acc, bas)
        assert _same_arrays(got, ref)
        assert got.indices.dtype == ref.indices.dtype and got.indptr.dtype == ref.indptr.dtype


# sha256 of the triplet exports of L0, L1, L(0.2) and L(-0.2) at gamma = 0.5:
# the two benchmark operators of dims 625 and 4096, and CI's potential config
_EXPORT_SHA256 = {
    (5, 4, None): (
        "807df1ae03d249bacaa7d2e8cbbdfe980f51d85588737b36d154f2d82c464dd7",
        "8934bc3dfa2ef6da60769fe375aa4345a0d4ab2a4132c3d88aa0f4b8a6b5eac2",
        "dc677e2a33c7606180bcb30bac206361f2610e7b3a27819f3e63e3aa9473c088",
        "7ae8125d4846544348512456eb82e5ab29e26ed7776198ef625397b1834e2114",
    ),
    (7, 3, None): (
        "75e16158030dbd624ed4ec6068c1b4d01a34ab041201a3b14511fadd00e07010",
        "141c97ab9f2c92281e8aad3729a1483888800b8520e6d9385791c959a5a43284",
        "5728bf391ebebd89f0cb6cacc9079486a1a872ca7e5e247a9b2ecef00a833948",
        "7589b7c250683448732b10e6456db983968b72ff43ad42f887b8bf428c2abd88",
    ),
    (5, 3, (0.0, 0.3, 0.3, -0.2, -0.2)): (
        "c4a250493559cc7c4e23ea2231ddb1a1572f50c37e4a28ebed19b33190c26324",
        "314f4074b0c66cc7331b35845a9c3bf2cb8b65d774638ad3a26ee047607db735",
        "ce962d94e4a47a9997ef4c1002a35967ad75d76802a42b0549849a980dcb4706",
        "108a42d31958a949cdd955e53f374f26ebeb0d9b0928d6fc76c6f3618f5d0629",
    ),
}


@pytest.mark.parametrize("m, n_max, u_k", list(_EXPORT_SHA256))
def test_the_exported_operators_keep_their_bytes(m, n_max, u_k):
    # a change to assembly or to the affine sum must keep every exported byte
    import hashlib

    _, par, bas = _setup(m=m, n_max=n_max, u_k=None if u_k is None else np.array(u_k, dtype=complex))
    family = assemble(par, bas)
    ops = (family.l0, family.l1, family.at(0.2), family.at(-0.2))
    got = tuple(hashlib.sha256(export_triplets(op).encode("ascii")).hexdigest() for op in ops)
    assert got == _EXPORT_SHA256[m, n_max, u_k]


def test_building_l1_holds_a_bounded_transient():
    # L1 at m = 7, n_max = 3 has 62592 entries, 1.21 MiB of CSR arrays, from
    # 131328 term contributions.  Traced peak of the build: 3.61 MiB (3.0x)
    # with a chunked merge into a sorted running sum, 6.13 MiB (5.1x) with
    # one stable sort of all contributions and a bincount per part.  The
    # bound, 5.5x, leaves 8% of headroom and fails a build that keeps its
    # argsort order alive through the bincounts (6.0x)
    import tracemalloc

    _, par, bas = _setup(m=7, n_max=3)
    family = assemble(par, bas)
    tracemalloc.start()
    try:
        l1 = family.l1.matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    csr_bytes = l1.data.nbytes + l1.indices.nbytes + l1.indptr.nbytes
    assert l1.nnz == 62592
    assert peak < 5.5 * csr_bytes, peak / csr_bytes


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(case=_small_models(n_max_min=1))
def test_truncation_nests_bit_for_bit(case):
    # the n_max - 1 operator is the crop of the n_max operator to the states
    # with every n_c <= n_max - 1, L0 and L1 alike
    par, big = case
    small = HermiteBasis(big.lattice, big.gamma, big.n_max - 1)
    degrees = np.array(np.unravel_index(np.arange(big.dim), big.dims))
    crop = np.flatnonzero((degrees < big.n_max).all(axis=0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        wide, narrow = assemble(par, big), assemble(par, small)
    for a, b in ((wide.l0, narrow.l0), (wide.l1, narrow.l1)):
        cropped = a.matrix[crop][:, crop]
        cropped.sort_indices()
        assert _same_arrays(cropped, b.matrix)


def test_conjugate_params_give_the_conjugate_operator():
    lat, par, bas = _setup(n_max=3, epsilon=0.3)
    u_k = np.array([0.4, 0.3, 0.3, -0.2, -0.2], dtype=complex)
    for p in (par, replace(par, u_k=u_k)):
        conj = operator.conjugate_params(p)
        assert conj.epsilon == -p.epsilon and conj.ebar_n == p.ebar_n
        plus = assemble(p, bas).at(p.epsilon)
        minus = assemble(conj, bas).at(conj.epsilon)
        assert np.array_equal(minus.matrix.indptr, plus.matrix.indptr)
        assert np.array_equal(minus.matrix.indices, plus.matrix.indices)
        assert np.array_equal(minus.matrix.data, plus.matrix.data.conj())
        assert minus.offset == plus.offset
        # so both have one real form, and a scan solves once per epsilon
        assert solve(plus).shares_form(minus)


def test_model_params_refuse_bad_values():
    with pytest.raises(ConfigurationError, match="kappa must be positive"):
        ModelParams(gamma=0.5, n_particles=2, kappa=0.0)
    with pytest.raises(ConfigurationError, match="epsilon must be finite"):
        ModelParams(gamma=0.5, n_particles=2, epsilon=math.nan)
    # u_0 shifts the real sector constant, so an imaginary one is refused when read
    par = ModelParams(gamma=0.5, n_particles=2, u_k=(0.3j, 0.0, 0.0))
    with pytest.raises(ConfigurationError, match="u_0 must be real"):
        par.ebar_n


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
    for key in ("dim", "basis_dims"):
        text = "\n".join(ln for ln in _small_export().splitlines() if not ln.startswith(f"# {key}:"))
        with pytest.raises(ConfigurationError, match=f"no '# {key}:' header line"):
            load_triplets(text)


def test_triplet_malformed_entry_rejected():
    lines = _small_export().splitlines()
    lines.append("3 4 0.5")
    with pytest.raises(ConfigurationError, match=f"line {len(lines)}: expected 'row col re im'"):
        load_triplets("\n".join(lines))


def test_triplet_truncated_export_rejected():
    # L(0.2) at m=3, n_max=3 has 15 entries; an export cut after 10 of them
    # must not load as a smaller operator
    lat, par, bas = _setup(m=3, epsilon=0.2, n_max=3)
    lines = export_triplets(assemble(par, bas).at(par.epsilon)).splitlines()
    assert _edit_header("\n".join(lines), "nnz", "15") == "\n".join(lines)
    with pytest.raises(ConfigurationError, match="has 10 entry lines, '# nnz:' says 15"):
        load_triplets("\n".join(lines[:-5]))
    # hand-written text with no nnz line loads what it lists
    text = "\n".join(ln for ln in lines[:-5] if not ln.startswith("# nnz:"))
    assert load_triplets(text).matrix.nnz == 10


def test_triplet_missing_path_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match="neither export text nor a readable file"):
        load_triplets(str(tmp_path / "absent.txt"))


def test_triplet_readable_file_that_is_not_an_export_rejected(tmp_path):
    path = tmp_path / "notes.txt"
    path.write_text("row col re im\n0 0 1.0 0.0\n")
    with pytest.raises(ConfigurationError, match="not a phasegas triplet export"):
        load_triplets(path)


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
    text = _edit_header(_small_export(), "basis_dims", "100000000000000000")
    with pytest.raises(ConfigurationError, match="does not fit in memory"):
        load_triplets(_edit_header(text, "dim", "100000000000000000"))
    text = _edit_header(_small_export(), "basis_dims", "")
    with pytest.raises(ConfigurationError, match="must be >= 1"):
        load_triplets(_edit_header(text, "dim", "0"))


def test_triplet_basis_dims_must_multiply_to_dim():
    text = _small_export()
    with pytest.raises(ConfigurationError, match="product of basis_dims"):
        load_triplets(_edit_header(text, "basis_dims", "3 3 3 2"))
    with pytest.raises(ConfigurationError, match="product of basis_dims"):
        load_triplets(_edit_header(text, "basis_dims", "-3 -3 3 3"))


# -- the OperatorMatrix boundary --------------------------------------------------


def test_operator_nan_diagonal_entry_rejected():
    # a 1x1 block's value is read off the diagonal with residual 0, so the
    # solver would return nan with a passing residual
    matrix = sparse.csr_matrix(np.diag([0.0, np.nan]).astype(complex))
    with pytest.raises(ConfigurationError, match="non-finite offset or entry"):
        OperatorMatrix(matrix, 0.0, (2,), "test-nan-diagonal")


def test_operator_nan_offset_rejected():
    matrix = sparse.identity(2, dtype=complex, format="csr")
    with pytest.raises(ConfigurationError, match="non-finite offset or entry"):
        OperatorMatrix(matrix, float("nan"), (2,), "test-nan-offset")


def test_operator_inf_off_diagonal_entry_rejected():
    matrix = sparse.csr_matrix(np.array([[0.0, np.inf], [1.0, -1.0]], dtype=complex))
    with pytest.raises(ConfigurationError, match="non-finite offset or entry"):
        OperatorMatrix(matrix, 0.0, (2,), "test-inf-entry")


def test_operator_non_square_matrix_rejected():
    matrix = sparse.csr_matrix(np.ones((2, 3), dtype=complex))
    with pytest.raises(ConfigurationError, match="square scipy sparse matrix"):
        OperatorMatrix(matrix, 0.0, (2,), "test-2x3")


def test_operator_dense_array_rejected():
    with pytest.raises(ConfigurationError, match="square scipy sparse matrix"):
        OperatorMatrix(np.eye(2, dtype=complex), 0.0, (2,), "test-dense")


def test_operator_empty_matrix_rejected():
    with pytest.raises(ConfigurationError, match="dimension >= 1"):
        OperatorMatrix(sparse.csr_matrix((0, 0), dtype=complex), 0.0, (), "test-empty")


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
        values = solve(load_triplets(text)).values
    except PhasegasError:
        return
    assert np.isfinite(values).all()


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


def test_the_quarter_translation_maps_the_operator_onto_itself():
    # T = T_{L/4} permutes the Hermite states up to sign and commutes with
    # the operator without a potential, bit for bit, at every epsilon
    for m, n_max in ((3, 3), (5, 2), (7, 2), (9, 1)):
        lat = ModeLattice(d=1, box_len=TAU, m_per_dim=m)
        bas = HermiteBasis(lat, 0.5, n_max)
        # the map numbers pair p as mode p + 1, the d = 1 lattice order
        assert lat.modes[1::2] == tuple((p + 1,) for p in range(lat.n_pairs))
        affine = assemble(ModelParams(gamma=0.5, n_particles=2), bas)
        perm, sign = quarter_translation(bas.dims)
        assert np.array_equal(np.sort(perm), np.arange(bas.dim)) and set(sign.tolist()) <= {1.0, -1.0}
        # T^2, the half-box translation, is diagonal
        assert np.array_equal(perm[perm], np.arange(bas.dim))
        q = sparse.csr_matrix((sign, (perm, np.arange(bas.dim))), shape=(bas.dim, bas.dim))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            ops = (affine.l0, affine.l1, affine.at(0.3), affine.at(-0.1))
        for op in ops:
            image = (q @ op.matrix @ q.T).tocsr()
            image.sort_indices()
            assert _same_arrays(image, op.matrix)
    # a potential u_k != 0 is not translation invariant; the map of its
    # dims is still formed, and `solve` certifies it before any use
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=5)
    u_k = np.array([0.0, 0.3, 0.3, -0.2, -0.2], dtype=complex)
    op = assemble(ModelParams(gamma=0.5, n_particles=2, u_k=u_k), HermiteBasis(lat, 0.5, 2)).at(0.2)
    perm, sign = quarter_translation(op.basis_dims)
    q = sparse.csr_matrix((sign, (perm, np.arange(op.dim))), shape=(op.dim, op.dim))
    assert not _same_arrays((q @ op.matrix @ q.T).tocsr(), op.matrix)
    # dims that are not an even number of equal sides have no map
    for dims in ((), (3,), (3, 3, 3), (3, 4), (2, 2, 2, 3)):
        assert quarter_translation(dims) is None
