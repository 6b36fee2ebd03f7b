"""Overlap algebra for un-normalized coherent field states.

A coherent functional state is labeled by a complex amplitude field
alpha(x) = r * exp(i*phi(x)) with constant magnitude r and a real phase
field phi(x) sampled on a uniform periodic grid.  Two states overlap as

    <alpha||alpha'> = exp(G[alpha, alpha']),
    G[alpha, alpha'] = integral_V  conj(alpha) * alpha'  dx,

so all overlap computations reduce to the scalar exponent G.  For constant
magnitudes the same exponent reads r r' * integral exp(i(phi' - phi)) dx,
exposed separately as the phase-kernel route.

Fixed particle number N is reached with the phase-average projector,

    <alpha||alpha'>_N = (1/2pi) * integral dphi exp(-i phi N) exp(G e^{i phi})
                      = G^N / N!,

and the mq-point trapezoid quadrature of that integral equals the aliased
series sum_{m >= 0, m = N (mod mq)} G^m / m!, which converges to G^N/N! as
mq grows.  The aliasing tail is computable analytically and is used by the
tests as a sharp error bound.

All functions here are pure and hold no mutable state, so they are safe to
call concurrently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, RangeOverflowError, is_integer
from .lattice import ModeLattice

# exp overflows double precision just above exp(709.78)
_EXP_OVERFLOW = 709.0
# `aliasing_tail` stops at a term below this, whatever the running total
_TAIL_FLOOR = 1e-320


class CoherentField:
    """Constant-magnitude coherent amplitude r*exp(i*phi(x)) on a periodic grid.

    The phase field is stored as real samples phi(x_j) on a uniform grid of
    shape (m, ..., m) covering the box; the grid resolution is independent of
    the lattice's mode count.  A Fourier representation with conjugate
    symmetry is available through phi_modes()/from_phi_modes().
    """

    def __init__(self, lattice: ModeLattice, r: float, phi):
        phi = np.array(phi, dtype=float)
        if phi.ndim != lattice.d:
            raise ConfigurationError(
                f"phase grid has {phi.ndim} axes but the lattice dimension is {lattice.d}"
            )
        if any(s < 1 for s in phi.shape) or len(set(phi.shape)) > 1:
            raise ConfigurationError(f"phase grid must be uniform per axis, got shape {phi.shape}")
        if not np.all(np.isfinite(phi)):
            raise ConfigurationError("phase field contains non-finite samples")
        r = float(r)
        if not (r >= 0.0) or not math.isfinite(r):
            raise ConfigurationError(f"magnitude r must be finite and >= 0, got {r}")
        self.lattice = lattice
        self.r = r
        self.phi = phi
        self.phi.setflags(write=False)

    # -- basic geometry ----------------------------------------------------

    @property
    def grid_shape(self):
        return self.phi.shape

    @property
    def n_grid(self) -> int:
        return int(self.phi.size)

    @property
    def cell_volume(self) -> float:
        return self.lattice.volume / self.n_grid

    def amplitude(self) -> np.ndarray:
        """Complex samples alpha(x_j) = r * exp(i*phi(x_j))."""
        return self.r * np.exp(1j * self.phi)

    # -- Fourier representation --------------------------------------------

    def phi_modes(self) -> np.ndarray:
        """DFT coefficients c_m with phi(x_j) = sum_m c_m exp(2*pi*i m.j / M).

        Returned on the numpy fft frequency grid (same shape as phi), with
        conjugate symmetry c_{-m} = conj(c_m) enforced exactly, which forces
        any unpaired Nyquist coefficient on even grids to be real.
        """
        c = np.fft.fftn(self.phi) / self.n_grid
        rev = tuple((-np.arange(s)) % s for s in c.shape)
        c_neg = c[np.ix_(*rev)] if c.ndim > 0 else c
        return 0.5 * (c + np.conj(c_neg))

    @classmethod
    def from_phi_modes(cls, lattice: ModeLattice, r: float, modes) -> "CoherentField":
        """Inverse of phi_modes(); the coefficients must be conjugate symmetric."""
        modes = np.asarray(modes, dtype=complex)
        rev = tuple((-np.arange(s)) % s for s in modes.shape)
        asym = np.max(np.abs(modes - np.conj(modes[np.ix_(*rev)]))) if modes.size else 0.0
        scale = max(1.0, float(np.max(np.abs(modes))) if modes.size else 0.0)
        if asym > 1e-10 * scale:
            raise ConfigurationError(
                f"mode coefficients are not conjugate symmetric (defect {asym:.3e})"
            )
        phi = np.fft.ifftn(modes * modes.size)
        return cls(lattice, r, phi.real)


@dataclass(frozen=True)
class OverlapResult:
    """Overlap <a||b> reported as exponent and value: value = exp(g)."""

    g: complex
    value: complex


def _check_compatible(a: CoherentField, b: CoherentField):
    if a.lattice != b.lattice:
        raise ConfigurationError("fields live on different lattices")
    if a.grid_shape != b.grid_shape:
        raise ConfigurationError(
            f"fields sampled on different grids: {a.grid_shape} vs {b.grid_shape}"
        )


def exponent_g(a: CoherentField, b: CoherentField) -> complex:
    """Overlap exponent G[a, b] = integral conj(alpha_a) alpha_b dx (grid sum)."""
    _check_compatible(a, b)
    return a.cell_volume * complex(np.vdot(a.amplitude(), b.amplitude()))


def phase_kernel_exponent(a: CoherentField, b: CoherentField) -> complex:
    """Same exponent through the phase route r_a r_b integral exp(i(phi_b - phi_a)) dx."""
    _check_compatible(a, b)
    return a.cell_volume * a.r * b.r * complex(np.sum(np.exp(1j * (b.phi - a.phi))))


def overlap(a: CoherentField, b: CoherentField) -> OverlapResult:
    """<a||b> = exp(G).  Raises RangeOverflowError (exponent intact) if exp(G) overflows."""
    g = exponent_g(a, b)
    if g.real > _EXP_OVERFLOW:
        raise RangeOverflowError(
            f"overlap magnitude exp({g.real:.6g}) overflows double precision", g
        )
    return OverlapResult(g=g, value=complex(np.exp(g)))


# -- fixed particle number ---------------------------------------------------


def _check_sector(n_total: int):
    if not is_integer(n_total) or n_total < 0:
        raise ConfigurationError(f"particle number must be a non-negative integer, got {n_total}")


def _check_order(mq: int):
    if not is_integer(mq) or mq < 2:
        raise ConfigurationError(f"quadrature order mq must be an integer >= 2, got {mq}")


def _power_over_factorial(g: complex, n: int) -> complex:
    """G^n / n! as exp(n log G - lgamma(n + 1)), for G^n or n! past the double range.

    0 where it underflows, G = 0 included; RangeOverflowError, carrying that
    log as the exponent, where it overflows.
    """
    if g == 0:
        return 0j
    log = n * cmath.log(g) - math.lgamma(n + 1)
    if log.real > _EXP_OVERFLOW:
        raise RangeOverflowError(f"G^N/N! overflows: exp({log.real:.6g})", log)
    return cmath.exp(log)


def projected_exponent_closed(g: complex, n_total: int) -> complex:
    """G^N / N! for a precomputed overlap exponent.

    Where G^N or N! leaves the double range (N! does from N = 171), it is
    taken from its log instead; see `_power_over_factorial`.
    """
    _check_sector(n_total)
    try:
        return complex(g) ** n_total / math.factorial(n_total)
    except OverflowError:
        return _power_over_factorial(complex(g), n_total)


def projected_exponent_quadrature(g: complex, n_total: int, mq: int) -> complex:
    """mq-point phase quadrature of the projector applied to exp(G e^{i phi}).

    Equals the aliased sum over m = N (mod mq) of G^m/m! exactly (up to
    rounding), hence approaches G^N/N! as mq grows.
    """
    _check_sector(n_total)
    _check_order(mq)
    phases = 2.0 * np.pi * np.arange(mq) / mq
    vals = np.exp(-1j * phases * n_total) * np.exp(g * np.exp(1j * phases))
    return complex(np.sum(vals)) / mq


def number_overlap_closed(a: CoherentField, b: CoherentField, n_total: int) -> complex:
    """<a||b>_N = G^N/N! in the fixed-N sector."""
    return projected_exponent_closed(exponent_g(a, b), n_total)


def number_overlap_quadrature(a: CoherentField, b: CoherentField, n_total: int, mq: int) -> complex:
    """Phase-quadrature route to <a||b>_N; converges to the closed form as mq grows."""
    return projected_exponent_quadrature(exponent_g(a, b), n_total, mq)


def cross_sector_quadrature(
    a: CoherentField, b: CoherentField, n_bra: int, n_ket: int, mq: int
) -> complex:
    """Apply the N = n_bra phase quadrature to a ket pre-projected onto n_ket.

    Vanishes (to rounding) unless n_bra = n_ket (mod mq); with n_bra = n_ket
    it reproduces the closed-form sector overlap.  This realizes the
    orthogonality of distinct number sectors at the quadrature level.
    Where G^n_ket or mq n_ket! leaves the double range, G^n_ket / n_ket! is
    taken from its log and the rotations e^{i phi (n_ket - n_bra)} summed
    apart.
    """
    _check_sector(n_bra)
    _check_sector(n_ket)
    _check_order(mq)
    g = exponent_g(a, b)
    phases = 2.0 * np.pi * np.arange(mq) / mq
    # the ket rotated by phi carries (G e^{i phi})^{n_ket} / n_ket!
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.exp(-1j * phases * n_bra) * (g * np.exp(1j * phases)) ** n_ket
        total = complex(np.sum(vals))
    try:
        value = total / (mq * math.factorial(n_ket))
        if cmath.isfinite(value):
            return value
    except OverflowError:
        pass
    rotations = complex(np.sum(np.exp(1j * phases * (n_ket - n_bra)))) / mq
    return rotations * _power_over_factorial(g, n_ket)


def aliasing_tail(g_abs: float, n_total: int, mq: int) -> float:
    """sum_{j >= 1} |G|^(N + j*mq) / (N + j*mq)!  -- the quadrature aliasing bound.

    A non-finite |G| is a ConfigurationError; a partial sum past the double
    range raises RangeOverflowError carrying its log as the exponent.
    """
    _check_sector(n_total)
    _check_order(mq)
    g_abs = abs(float(g_abs))
    if not math.isfinite(g_abs):
        raise ConfigurationError(f"|G| must be finite, got {g_abs}")
    if g_abs == 0.0:
        return 0.0
    total = 0.0
    m = n_total + mq
    while True:
        log_term = m * math.log(g_abs) - math.lgamma(m + 1)
        log_total = float(np.logaddexp(math.log(total), log_term)) if total else log_term
        if log_total > _EXP_OVERFLOW:
            raise RangeOverflowError(
                f"aliasing tail overflows: a partial sum reaches exp({log_total:.6g})", log_total
            )
        term = math.exp(log_term)
        total += term
        if term < _TAIL_FLOOR or term < 1e-30 * total:
            return total
        m += mq


def kernel_gram(states, n_total: int | None = None) -> np.ndarray:
    """Gram matrix of pairwise overlaps, optionally in a fixed-N sector.

    The result is Hermitian positive semidefinite; with n_total given the
    entries are G_ij^N/N! (an entrywise power of a PSD kernel, still PSD).
    """
    states = list(states)
    n = len(states)
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            g = exponent_g(states[i], states[j])
            if n_total is None:
                if g.real > _EXP_OVERFLOW:
                    raise RangeOverflowError(
                        f"Gram entry ({i},{j}) overflows: exponent {g.real:.6g}", g
                    )
                out[i, j] = np.exp(g)
            else:
                out[i, j] = projected_exponent_closed(g, n_total)
    return out
