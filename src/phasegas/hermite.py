"""Variance-matched Hermite function basis for the mode-space operators.

Each +-k mode pair contributes two real coordinates (x, y); per coordinate
the basis functions are

    b_n(x) = He_n(x / sigma_k) * exp(-k^2 x^2 / gamma),   sigma_k = sqrt(gamma / (2 k^2)),

probabilists' Hermite polynomials times the stationary Gaussian of the
weak-coupling operator.  The degree-0 function is that Gaussian itself, and
the variance matching makes the weak operator exactly diagonal: in scaled
units xi = x/sigma the ladder rules are

    xi * b_n      = b_{n+1} + n b_{n-1}
    d/dxi  b_n    = -b_{n+1}

so every polynomial differential operator is a banded matrix.  Finite
truncations are computed *exactly*: a product of t elementary factors has
bandwidth <= t, so composing with t rows/columns of headroom and cropping
afterwards reproduces the infinite-matrix block.  This gives the nesting
property (enlarging n_max never changes previously present entries) for
free.

Basis functions are not L2-orthogonal; their duals are He_n(xi)/(sqrt(2 pi) n!)
with no extra weight, which is the pairing used for coefficient extraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .lattice import ModeLattice


def mult_matrix(size: int) -> np.ndarray:
    """Multiplication by xi in the He_n(xi) exp(-xi^2/2) basis (size x size block)."""
    m = np.zeros((size, size))
    for i in range(size):
        if i + 1 < size:
            m[i + 1, i] = 1.0
        if i >= 1:
            m[i - 1, i] = float(i)
    return m


def deriv_matrix(size: int) -> np.ndarray:
    """d/dxi in the same basis: a pure raising operator, d/dxi b_n = -b_{n+1}."""
    m = np.zeros((size, size))
    for i in range(size - 1):
        m[i + 1, i] = -1.0
    return m


def coordinate_block(kinds, sigma: float, n_max: int) -> np.ndarray:
    """Exact (n_max+1)^2 block of a product of elementary factors on one coordinate.

    `kinds` lists the factors of the operator product left to right (the
    rightmost acts first), each "mult" (multiply by the coordinate) or
    "deriv" (d/dx).  Physical scale: mult carries sigma, deriv carries
    1/sigma.  Headroom len(kinds) makes the cropped block exact.
    """
    size = n_max + 1 + len(kinds)
    out = np.eye(size)
    scale = 1.0
    for kind in kinds:
        if kind == "mult":
            out = out @ mult_matrix(size)
            scale *= sigma
        elif kind == "deriv":
            out = out @ deriv_matrix(size)
            scale /= sigma
        else:
            raise ValueError(f"unknown factor kind {kind!r}")
    return scale * out[: n_max + 1, : n_max + 1]


def gaussian_expansion_1d(t: float, n_max: int) -> np.ndarray:
    """Coefficients of exp(-t xi^2 / 2) in the basis {He_n(xi) exp(-xi^2/2)}.

    Writing exp(-t xi^2/2) = sum_n c_n He_n(xi) exp(-xi^2/2), projecting with
    the He orthogonality weight and evaluating the Gaussian moments through
    the generating function integral int exp(xi s - s^2/2 - t xi^2/2) d xi
    gives

        c_{2m} = ((1 - t)/t)^m / (2^m m! sqrt(t)),   c_odd = 0.

    t = 1 recovers the degree-0 unit vector; t = (sigma_basis/sigma_target)^2
    expands a Gaussian of mismatched width.  The summed series converges to
    the target for t > 1/2 (sup-norm term ratio |1-t|/t < 1), slowly near the
    boundary; the finite truncation is returned regardless.
    """
    if not (t > 0.0):
        raise ConfigurationError(f"width ratio t must be positive, got {t}")
    c = np.zeros(n_max + 1)
    for m in range(0, n_max // 2 + 1):
        c[2 * m] = (1.0 / t - 1.0) ** m / (2.0 ** m * math.factorial(m) * math.sqrt(t))
    return c


@dataclass(frozen=True)
class HermiteBasis:
    """Tensor-product Hermite basis over the real coordinates of a mode lattice.

    One pair of coordinates per +-k mode pair, each truncated at degree
    n_max, with per-coordinate scale sigma_c = sqrt(gamma/(2 k_c^2)) so the
    degree-0 product state is the weak-coupling Gaussian ground state.
    """

    lattice: ModeLattice
    gamma: float
    n_max: int
    coord_k2: tuple = field(init=False, compare=False, repr=False)
    sigmas: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not (self.gamma > 0.0) or not math.isfinite(self.gamma):
            raise ConfigurationError(f"gamma must be positive and finite, got {self.gamma}")
        if not isinstance(self.n_max, (int, np.integer)) or self.n_max < 0:
            raise ConfigurationError(f"n_max must be a non-negative integer, got {self.n_max}")
        k2 = []
        for i_plus, _ in self.lattice.pair_list():
            ksq = self.lattice.k_squared(self.lattice.modes[i_plus])
            k2.extend([ksq, ksq])  # x and y coordinate of the pair
        # k^2 underflows to 0 on a huge box, and gamma / (2 k^2) overflows on a tiny k^2
        sigmas = tuple(math.sqrt(self.gamma / (2.0 * v)) if v > 0.0 else math.inf for v in k2)
        bad = [s for s in sigmas if not 0.0 < s < math.inf]
        if bad:
            raise ConfigurationError(
                f"coordinate scale sigma = sqrt(gamma / (2 k^2)) must be finite and positive, "
                f"got {bad[0]} (box_len or gamma out of range)"
            )
        object.__setattr__(self, "coord_k2", tuple(k2))
        object.__setattr__(self, "sigmas", sigmas)

    @property
    def n_coords(self) -> int:
        return len(self.coord_k2)

    @property
    def dims(self) -> tuple:
        return (self.n_max + 1,) * self.n_coords

    @property
    def dim(self) -> int:
        out = 1
        for s in self.dims:
            out *= s
        return out

    def block(self, coord: int, kinds) -> np.ndarray:
        """Exact truncated block of an operator product acting on one coordinate."""
        return coordinate_block(kinds, self.sigmas[coord], self.n_max)
