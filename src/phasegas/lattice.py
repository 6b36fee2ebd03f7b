"""Periodic momentum-mode lattice for a box of volume V = L^d.

Plane-wave modes live on the integer lattice n with |n_i| <= (m-1)/2 per
dimension, physical wavevector k = 2*pi*n/L.  An odd mode count per dimension
guarantees that every nonzero mode has its negation on the lattice, so modes
come in +-k pairs around the zero mode.

Mode ordering convention (relied on throughout the package):

  index 0          : the zero mode
  indices 1,2      : +k_1, -k_1
  indices 3,4      : +k_2, -k_2   ... and so on,

with the "positive" representative of each pair chosen as the member whose
first nonzero integer component is positive, and pairs sorted by the
lexicographic order of their positive representative.  Arrays indexed "per
mode" (potentials u_k, couplings gamma_k, field coefficients phi_k) follow
this ordering, which keeps the k = 0 entry at position 0 for every lattice.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

TAU = 2.0 * math.pi


def _negate(mode):
    return tuple(-c for c in mode)


def _positive_rep(mode):
    """Return the canonical member of the pair {mode, -mode}."""
    for c in mode:
        if c > 0:
            return mode
        if c < 0:
            return _negate(mode)
    return mode  # zero mode


@dataclass(frozen=True)
class ModeLattice:
    """Cubic momentum lattice: m_per_dim modes per dimension (odd), box length box_len."""

    d: int = 1
    box_len: float = TAU
    m_per_dim: int = 3
    modes: tuple = field(init=False, compare=False, repr=False)
    _index: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.d < 1:
            raise ConfigurationError(f"lattice dimension must be >= 1, got {self.d}")
        if not (self.box_len > 0.0) or not math.isfinite(self.box_len):
            raise ConfigurationError(f"box_len must be positive and finite, got {self.box_len}")
        try:
            # a float power that does not fit raises, where a product would give inf
            self.volume, self.k_unit**2
        except OverflowError:
            raise ConfigurationError(
                f"box_len {self.box_len} overflows the volume L^d or (2 pi / L)^2"
            ) from None
        if self.m_per_dim < 1 or self.m_per_dim % 2 == 0:
            raise ConfigurationError(
                f"m_per_dim must be odd and >= 1 so modes pair as +-k, got {self.m_per_dim}"
            )
        half = (self.m_per_dim - 1) // 2
        rng = range(-half, half + 1)
        nonzero = [m for m in itertools.product(rng, repeat=self.d) if any(m)]
        reps = sorted({_positive_rep(m) for m in nonzero})
        ordered = [(0,) * self.d]
        for rep in reps:
            ordered.append(rep)
            ordered.append(_negate(rep))
        object.__setattr__(self, "modes", tuple(ordered))
        object.__setattr__(self, "_index", {m: i for i, m in enumerate(ordered)})

    # -- geometry ---------------------------------------------------------

    @property
    def volume(self) -> float:
        return self.box_len ** self.d

    @property
    def k_unit(self) -> float:
        """Wavevector of the first harmonic, 2*pi/L."""
        return TAU / self.box_len

    @property
    def num_modes(self) -> int:
        return len(self.modes)

    @property
    def n_pairs(self) -> int:
        return (self.num_modes - 1) // 2

    # -- lookups ----------------------------------------------------------

    def index(self, mode) -> int:
        try:
            return self._index[tuple(mode)]
        except KeyError:
            raise ConfigurationError(f"mode {mode} is not on the lattice") from None

    def contains(self, mode) -> bool:
        return tuple(mode) in self._index

    def k_vector(self, mode) -> np.ndarray:
        return self.k_unit * np.asarray(mode, dtype=float)

    def k_squared(self, mode) -> float:
        return self.k_unit ** 2 * float(sum(c * c for c in mode))

    def pair_list(self):
        """[(index of +k, index of -k)] in pair order."""
        return [(2 * p + 1, 2 * p + 2) for p in range(self.n_pairs)]

    def nonzero_indices(self):
        return range(1, self.num_modes)
