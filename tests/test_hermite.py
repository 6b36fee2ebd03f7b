"""Gaussian-weighted Hermite ladder blocks checked against polynomial algebra."""

import math

import numpy as np
import pytest
from numpy.polynomial import hermite_e as he

from phasegas.errors import ConfigurationError
from phasegas.hermite import (
    STATE_LIMIT,
    HermiteBasis,
    coordinate_block,
    deriv_matrix,
    gaussian_expansion_1d,
    mult_matrix,
)
from phasegas.lattice import ModeLattice, TAU


# -- symbolic oracle -------------------------------------------------------------
#
# Represent f(x) = p(x/sigma) exp(-x^2/(2 sigma^2)) by the He-coefficient vector
# of p.  Multiplication by x and d/dx act exactly on that vector:
#   x f      -> sigma * (xi p)                       (xi = x/sigma)
#   d/dx f   -> (1/sigma) * (p' - xi p)
# Both stay polynomial, so compositions can be checked with no quadrature error.


def _apply_kind_sym(kind, coeffs, sigma):
    if kind == "mult":
        return sigma * he.hermemulx(coeffs)
    mulx = he.hermemulx(coeffs)
    der = np.zeros(len(mulx))
    d = he.hermeder(coeffs)
    der[: len(d)] = d
    return (der - mulx) / sigma


def _column_oracle(kinds, sigma, n, length):
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    for kind in reversed(kinds):
        coeffs = _apply_kind_sym(kind, coeffs, sigma)
    out = np.zeros(length)
    out[: len(coeffs)] = coeffs[:length]
    return out


def test_ladder_matrices_match_recurrences():
    m = mult_matrix(6)
    d = deriv_matrix(6)
    for n in range(5):
        e = np.zeros(6)
        e[n] = 1.0
        up = m @ e
        # X He_n = He_{n+1} + n He_{n-1}
        assert up[n + 1] == 1.0
        if n > 0:
            assert up[n - 1] == n
        dn = d @ e
        assert dn[n + 1] == -1.0
        assert np.count_nonzero(dn) == 1


def test_coordinate_block_against_symbolic_oracle():
    rng = np.random.default_rng(7)
    kinds_list = [
        ("mult",),
        ("deriv",),
        ("deriv", "mult"),
        ("mult", "deriv"),
        ("deriv", "deriv"),
        ("deriv", "mult", "mult"),
    ]
    for kinds in kinds_list:
        sigma = float(rng.uniform(0.3, 2.0))
        n_max = 5
        block = coordinate_block(kinds, sigma, n_max)
        assert block.shape == (n_max + 1, n_max + 1)
        for n in range(n_max + 1):
            ref = _column_oracle(kinds, sigma, n, n_max + 1)
            assert np.max(np.abs(block[:, n] - ref)) <= 1e-13 * max(
                1.0, np.max(np.abs(ref))
            ), kinds


def test_weak_column_action():
    # per-coordinate weak operator k^2 d/dx (x .) + (gamma/2) d2/dx2 is lower
    # triangular with diagonal -n k^2 at sigma = sqrt(gamma / (2 k^2))
    gamma, k2 = 0.7, 4.0
    sigma = math.sqrt(gamma / (2.0 * k2))
    n_max = 6
    w = k2 * coordinate_block(("deriv", "mult"), sigma, n_max) + (
        gamma / 2.0
    ) * coordinate_block(("deriv", "deriv"), sigma, n_max)
    diag_ref = -k2 * np.arange(n_max + 1)
    assert np.max(np.abs(np.diag(w) - diag_ref)) <= 1e-13 * k2 * n_max
    off = w - np.diag(np.diag(w))
    assert np.max(np.abs(off)) <= 1e-14 * k2 * n_max


def test_gaussian_expansion_reconstructs_target():
    """Expansion of a mismatched-width Gaussian converges pointwise for t > 1/2."""
    x = np.linspace(-2.5, 2.5, 41)
    for t in (0.7, 0.8, 1.0, 1.3, 1.7, 2.5):
        sigma_b = 0.9
        sigma_t = sigma_b / math.sqrt(t)
        c = gaussian_expansion_1d(t, 160)
        xi = x / sigma_b
        rec = he.hermeval(xi, c) * np.exp(-(xi**2) / 2)
        target = np.exp(-(x**2) / (2 * sigma_t**2))
        assert np.max(np.abs(rec - target)) <= 1e-12, t


def test_gaussian_expansion_identity_case():
    c = gaussian_expansion_1d(1.0, 8)
    ref = np.zeros(9)
    ref[0] = 1.0
    assert np.array_equal(c, ref)


def test_gaussian_expansion_odd_coefficients_vanish():
    c = gaussian_expansion_1d(0.6, 11)
    assert np.all(c[1::2] == 0.0)


def test_basis_geometry():
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=5)
    gamma = 0.5
    basis = HermiteBasis(lat, gamma, 3)
    assert basis.n_coords == 2 * lat.n_pairs == 4
    assert basis.dims == (4, 4, 4, 4)
    assert basis.dim == 256
    # pair p covers modes at lattice slots (2p+1, 2p+2); both coordinates share sigma
    for p, (i_pos, _i_neg) in enumerate(lat.pair_list()):
        k2 = lat.k_squared(lat.modes[i_pos])
        for c in (2 * p, 2 * p + 1):
            assert basis.coord_k2[c] == k2
            assert abs(basis.sigmas[c] - math.sqrt(gamma / (2 * k2))) <= 1e-15


def test_basis_blocks_are_cached_copies_consistent():
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=3)
    basis = HermiteBasis(lat, 1.1, 4)
    b1 = basis.block(0, ("deriv", "mult"))
    b2 = coordinate_block(("deriv", "mult"), basis.sigmas[0], 4)
    assert np.array_equal(b1, b2)


def test_block_refuses_an_unknown_factor_kind():
    basis = HermiteBasis(ModeLattice(d=1, box_len=TAU, m_per_dim=3), 0.5, 2)
    with pytest.raises(ConfigurationError, match="unknown factor kind 'foo'"):
        basis.block(0, ("foo",))


def test_basis_rejects_scales_that_are_not_finite_and_positive():
    # k^2 underflows to 0 on a huge box (sigma = inf), and gamma / 2 to 0 for
    # the smallest subnormal gamma (sigma = 0)
    for box_len, gamma in ((1e308, 0.5), (TAU, 5e-324)):
        lat = ModeLattice(d=1, box_len=box_len, m_per_dim=3)
        with pytest.raises(ConfigurationError, match="must be finite and positive"):
            HermiteBasis(lat, gamma, 2)


def test_basis_refuses_more_states_than_the_guard():
    # d = 2, m = 5 has 24 coordinates: 4^24 states at n_max = 3, whose
    # operator keys alone would need gigabytes
    lat2 = ModeLattice(d=2, box_len=TAU, m_per_dim=5)
    with pytest.raises(ConfigurationError, match="state guard"):
        HermiteBasis(lat2, 0.5, 3)
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=5)
    # 37^4 states fit under the guard, 38^4 do not
    assert 37**4 <= STATE_LIMIT < 38**4
    assert HermiteBasis(lat, 0.5, 36).dim == 37**4
    for n_max in (37, 10**6):
        with pytest.raises(ConfigurationError, match="state guard"):
            HermiteBasis(lat, 0.5, n_max)


def test_a_bool_is_not_a_truncation_or_a_particle_number():
    from phasegas.params import ModelParams

    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=3)
    with pytest.raises(ConfigurationError, match="n_max"):
        HermiteBasis(lat, 0.5, True)
    with pytest.raises(ConfigurationError, match="n_particles"):
        ModelParams(gamma=0.5, n_particles=True)
    assert HermiteBasis(lat, 0.5, np.int64(2)).dims == HermiteBasis(lat, 0.5, 2).dims
