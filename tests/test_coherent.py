"""Overlap algebra: exponent routes, number projection, quadrature aliasing."""

import math
from itertools import product

import numpy as np
import pytest

from phasegas.coherent import (
    CoherentField,
    aliasing_tail,
    cross_sector_quadrature,
    exponent_g,
    kernel_gram,
    number_overlap_closed,
    number_overlap_quadrature,
    overlap,
    phase_kernel_exponent,
    projected_exponent_closed,
    projected_exponent_quadrature,
)
from phasegas.errors import ConfigurationError, RangeOverflowError
from phasegas.lattice import ModeLattice, TAU

RNG_SEED = 42


def _lattice(m=5):
    return ModeLattice(d=1, box_len=TAU, m_per_dim=m)


def _random_field(lat, rng, r=0.4, m_grid=12):
    return CoherentField(lat, r, rng.uniform(-np.pi, np.pi, size=m_grid))


# -- independent oracle: truncated boson algebra --------------------------------


def _boson_overlap_oracle(a, b, n_cut=18):
    """<a||b> from an explicit Fock expansion of each discretized site mode.

    Site amplitudes are alpha(x_j) sqrt(dV) so that the grid sum reproduces the
    integral normalization.  The Gaussian normalization factors are divided back
    out to match the bare kernel exp(G).
    """
    amp_a = a.amplitude() * math.sqrt(a.cell_volume)
    amp_b = b.amplitude() * math.sqrt(b.cell_volume)
    total = 1.0 + 0.0j
    for za, zb in zip(amp_a, amp_b):
        site = sum(
            (np.conj(za) * zb) ** n / math.factorial(n) for n in range(n_cut)
        )
        total *= site
    return total


def _projected_overlap_oracle(a, b, n_total):
    """Sum over site occupation compositions with sum(n) = n_total."""
    amp_a = a.amplitude() * math.sqrt(a.cell_volume)
    amp_b = b.amplitude() * math.sqrt(b.cell_volume)
    w = np.conj(amp_a) * amp_b
    total = 0.0 + 0.0j
    for occ in product(range(n_total + 1), repeat=len(w)):
        if sum(occ) != n_total:
            continue
        term = 1.0 + 0.0j
        for wj, nj in zip(w, occ):
            term *= wj**nj / math.factorial(nj)
        total += term
    return total


def test_overlap_matches_boson_expansion_oracle():
    lat = _lattice()
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(5):
        a = _random_field(lat, rng, m_grid=6)
        b = _random_field(lat, rng, m_grid=6)
        got = overlap(a, b).value
        ref = _boson_overlap_oracle(a, b)
        assert abs(got - ref) <= 1e-13 * abs(ref)


def test_number_projection_matches_composition_oracle():
    lat = _lattice()
    rng = np.random.default_rng(RNG_SEED + 1)
    a = _random_field(lat, rng, m_grid=5)
    b = _random_field(lat, rng, m_grid=5)
    for n in range(5):
        got = number_overlap_closed(a, b, n)
        ref = _projected_overlap_oracle(a, b, n)
        assert abs(got - ref) <= 1e-13 * max(abs(ref), 1.0)


def test_exponent_routes_agree():
    # amplitude route and phase-kernel route compute the same grid sum
    lat = _lattice()
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(10):
        a = _random_field(lat, rng)
        b = _random_field(lat, rng)
        g1 = exponent_g(a, b)
        g2 = phase_kernel_exponent(a, b)
        assert abs(g1 - g2) <= 1e-14 * abs(g1)
        res = overlap(a, b)
        assert res.g == g1
        assert abs(res.value - np.exp(g1)) <= 1e-15 * abs(np.exp(g1))


def test_overlap_hermitian_symmetry():
    lat = _lattice()
    rng = np.random.default_rng(RNG_SEED + 3)
    for _ in range(10):
        a = _random_field(lat, rng)
        b = _random_field(lat, rng)
        v = overlap(a, b).value
        w = overlap(b, a).value
        assert abs(v - np.conj(w)) <= 1e-14 * abs(v)


def test_self_overlap_is_real_norm():
    lat = _lattice()
    rng = np.random.default_rng(RNG_SEED + 4)
    a = _random_field(lat, rng, r=0.7)
    g = exponent_g(a, a)
    assert abs(g.imag) <= 1e-15 * abs(g)
    assert abs(g.real - 0.7**2 * lat.volume) <= 1e-13


def test_vacuum_overlap():
    lat = _lattice()
    vac = CoherentField(lat, 0.0, np.zeros(8))
    assert overlap(vac, vac).value == 1.0
    assert number_overlap_closed(vac, vac, 0) == 1.0
    assert number_overlap_quadrature(vac, vac, 0, 16) == pytest.approx(1.0, abs=1e-15)


def test_quadrature_alias_identity():
    """mq-point trapezoid equals the aliased series sum_{m = N mod mq} G^m / m!.

    For G = 2, N = 2, mq = 4 the series is 2^2/2! + 2^6/6! + 2^10/10! + ...
    = 2.0891712638153... and the quadrature must land on it to rounding.
    """
    lat = _lattice()
    r = math.sqrt(2.0 / lat.volume)
    a = CoherentField(lat, r, np.zeros(8))
    g = exponent_g(a, a)
    q = number_overlap_quadrature(a, a, 2, 4)
    series = sum(g**m / math.factorial(m) for m in range(2, 30, 4))
    assert abs(q - series) <= 1e-14 * abs(series)
    assert q.real == pytest.approx(2.0891712638153, abs=1e-12)
    # and the quadrature error equals the tail bound for real positive G
    closed = number_overlap_closed(a, a, 2)
    tail = aliasing_tail(abs(g), 2, 4)
    assert abs((q - closed).real - tail) <= 1e-13 * tail


def test_quadrature_converges_to_closed():
    lat = _lattice()
    rng = np.random.default_rng(RNG_SEED + 5)
    a = _random_field(lat, rng, r=0.5, m_grid=10)
    b = _random_field(lat, rng, r=0.5, m_grid=10)
    g = exponent_g(a, b)
    for n in range(6):
        closed = number_overlap_closed(a, b, n)
        prev = np.inf
        for mq in (8, 16, 32):
            err = abs(number_overlap_quadrature(a, b, n, mq) - closed)
            bound = aliasing_tail(abs(g), n, mq) + 64 * np.finfo(float).eps * math.exp(abs(g))
            assert err <= bound
            assert err <= prev + 1e-15
            prev = err


def test_projected_exponent_quadrature_against_direct_trapezoid():
    # independent 3-line reimplementation of the phase integral
    g = 1.3 - 0.8j
    for n, mq in ((0, 16), (2, 16), (3, 32)):
        theta = TAU * np.arange(mq) / mq
        ref = np.mean(np.exp(g * np.exp(1j * theta)) * np.exp(-1j * n * theta))
        got = projected_exponent_quadrature(g, n, mq)
        assert abs(got - ref) <= 1e-14 * max(abs(ref), 1.0)
        assert abs(projected_exponent_closed(g, n) - g**n / math.factorial(n)) <= 1e-15 * max(
            abs(g) ** n, 1.0
        )


def test_cross_sector_orthogonality():
    lat = _lattice()
    rng = np.random.default_rng(RNG_SEED + 6)
    a = _random_field(lat, rng, r=0.5)
    b = _random_field(lat, rng, r=0.5)
    for n_bra in range(4):
        for n_ket in range(4):
            v = cross_sector_quadrature(a, b, n_bra, n_ket, 32)
            if n_bra == n_ket:
                continue
            assert abs(v) <= 1e-12


def test_aliasing_tail_properties():
    assert aliasing_tail(2.0, 2, 4) == pytest.approx(0.08917126381538679, rel=1e-13)
    # monotone decreasing in mq, increasing in |G|
    assert aliasing_tail(4.0, 3, 8) > aliasing_tail(4.0, 3, 16)
    assert aliasing_tail(4.0, 3, 16) > aliasing_tail(2.0, 3, 16)
    # first alias term for |G| = 4, N = 8, mq = 64 is 4^72/72! ~ 3.6e-61
    assert aliasing_tail(4.0, 8, 64) < 1e-60


@pytest.mark.parametrize(
    "g_abs, mq", [(math.inf, 4), (math.nan, 4), (2.0, math.nan), (2.0, 2.5), (2.0, 4.0), (2.0, True)]
)
def test_aliasing_tail_refuses_a_non_finite_modulus_or_a_non_integer_order(g_abs, mq):
    with pytest.raises(ConfigurationError):
        aliasing_tail(g_abs, 2, mq)


def test_aliasing_tail_overflow_keeps_exponent():
    # the first term |G|^6 / 6! overflows
    with pytest.raises(RangeOverflowError) as info:
        aliasing_tail(1e300, 2, 4)
    assert info.value.exponent == pytest.approx(6 * math.log(1e300) - math.log(720.0), rel=1e-15)
    # every term fits, but their sum, about exp(711) / 2, does not
    with pytest.raises(RangeOverflowError) as info:
        aliasing_tail(711.0, 0, 2)
    assert 709.0 < info.value.exponent < 711.0
    assert aliasing_tail(700.0, 0, 2) == pytest.approx(math.exp(700.0) / 2, rel=1e-12)


def test_kernel_gram_positive_semidefinite():
    lat = _lattice()
    rng = np.random.default_rng(RNG_SEED + 7)
    states = [_random_field(lat, rng, r=0.45) for _ in range(6)]
    gram = kernel_gram(states)
    assert np.max(np.abs(gram - gram.conj().T)) <= 1e-14 * np.max(np.abs(gram))
    eig = np.linalg.eigvalsh(gram)
    assert eig[0] >= -1e-10 * np.linalg.norm(gram, 2)
    # projected Gram in a fixed sector is PSD as well
    gram_n = kernel_gram(states, n_total=3)
    eig_n = np.linalg.eigvalsh(gram_n)
    assert eig_n[0] >= -1e-10 * max(np.linalg.norm(gram_n, 2), 1e-30)


def test_phi_modes_round_trip():
    lat = _lattice()
    rng = np.random.default_rng(RNG_SEED + 8)
    a = _random_field(lat, rng, m_grid=lat.num_modes)
    modes = a.phi_modes()
    back = CoherentField.from_phi_modes(lat, a.r, modes)
    assert np.max(np.abs(back.phi - a.phi)) <= 1e-12
    assert abs(overlap(a, back).value - overlap(a, a).value) <= 1e-12


def test_overflow_guard_keeps_exponent():
    lat = _lattice()
    big = CoherentField(lat, 12.0, np.zeros(8))
    with pytest.raises(RangeOverflowError) as info:
        overlap(big, big)
    assert info.value.exponent == pytest.approx(12.0**2 * lat.volume, rel=1e-12)


def test_mismatched_grids_rejected():
    lat = _lattice()
    a = CoherentField(lat, 0.3, np.zeros(8))
    b = CoherentField(lat, 0.3, np.zeros(10))
    with pytest.raises(ConfigurationError):
        exponent_g(a, b)


def test_negative_sector_rejected():
    lat = _lattice()
    a = CoherentField(lat, 0.3, np.zeros(8))
    with pytest.raises(ConfigurationError):
        number_overlap_closed(a, a, -1)


def test_a_bool_is_not_a_sector_or_a_quadrature_order():
    lat = _lattice()
    a = CoherentField(lat, 0.3, np.zeros(8))
    with pytest.raises(ConfigurationError, match="particle number"):
        projected_exponent_closed(0.5, True)
    with pytest.raises(ConfigurationError, match="mq"):
        projected_exponent_quadrature(0.5, 2, True)
    with pytest.raises(ConfigurationError, match="mq"):
        cross_sector_quadrature(a, a, 2, 2, True)
    assert projected_exponent_closed(0.5, np.int64(2)) == projected_exponent_closed(0.5, 2)
