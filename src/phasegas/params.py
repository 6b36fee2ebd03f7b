"""Physical parameters of the phase-functional model, in scaled units.

The operators work with the rescaled quantities

    u(x)    = 2m (U(x) - mu) / hbar^2        (external potential, chemical shift)
    gamma_k = 2m U^I_k / (hbar^2 V)          (interaction diffusion coefficients)

so a functional eigenvalue lam converts back to a physical energy through
E = (hbar^2/2m) * (-lam).  Arrays indexed per mode (u_k, gamma_k) follow the
lattice ordering documented in `lattice`: the k = 0 entry sits at position 0,
which keeps the sector constant

    ebar_n = N (u_0 + gamma_0 N)

computable without a lattice in hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, is_integer
from .lattice import ModeLattice


@dataclass(frozen=True)
class ModelParams:
    """Couplings of the mode-space operator family.

    gamma       constant interaction coefficient (the delta-potential case);
    gamma_k     optional per-mode array overriding gamma mode by mode;
    u_k         optional per-mode potential array (u_k[0] is u_0);
    n_particles N, the conserved particle number;
    epsilon     strength of the quadratic-drift (|grad phi|^2) term;
    kappa, p_exp, q_exp   scaling-family parameters for scaled operators.
    """

    gamma: float
    n_particles: int
    u_k: np.ndarray | None = None
    gamma_k: np.ndarray | None = None
    epsilon: float = 1.0
    kappa: float = 1.0
    p_exp: float = 0.5
    q_exp: float = 0.5

    def __post_init__(self):
        if not (self.gamma > 0.0) or not math.isfinite(self.gamma):
            raise ConfigurationError(f"gamma must be positive and finite, got {self.gamma}")
        if not is_integer(self.n_particles) or self.n_particles < 0:
            raise ConfigurationError(
                f"n_particles must be a non-negative integer, got {self.n_particles}"
            )
        if not (self.kappa > 0.0):
            raise ConfigurationError(f"kappa must be positive, got {self.kappa}")
        for name in ("epsilon", "p_exp", "q_exp"):
            v = getattr(self, name)
            if not math.isfinite(float(v)):
                raise ConfigurationError(f"{name} must be finite, got {v}")
        if self.u_k is not None:
            arr = np.array(self.u_k, dtype=complex)
            arr.setflags(write=False)
            object.__setattr__(self, "u_k", arr)
        if self.gamma_k is not None:
            arr = np.array(self.gamma_k, dtype=float)
            if np.any(arr <= 0.0):
                raise ConfigurationError("gamma_k entries must all be positive")
            arr.setflags(write=False)
            object.__setattr__(self, "gamma_k", arr)

    # -- derived scalars ----------------------------------------------------

    @property
    def u_zero(self) -> float:
        if self.u_k is None:
            return 0.0
        u0 = complex(self.u_k[0])
        if abs(u0.imag) > 1e-12 * max(1.0, abs(u0)):
            raise ConfigurationError(f"u_0 must be real for a real potential, got {u0}")
        return u0.real

    @property
    def gamma_zero(self) -> float:
        return float(self.gamma_k[0]) if self.gamma_k is not None else self.gamma

    @property
    def ebar_n(self) -> float:
        """Sector constant N (u_0 + gamma_0 N) subtracted from the operator."""
        n = self.n_particles
        return n * (self.u_zero + self.gamma_zero * n)

    # -- validation against a concrete lattice ------------------------------

    def validate_against(self, lattice: ModeLattice):
        """Check array lengths and conjugate symmetry for the given lattice."""
        m = lattice.num_modes
        for name, arr in (("u_k", self.u_k), ("gamma_k", self.gamma_k)):
            if arr is not None and arr.shape != (m,):
                raise ConfigurationError(
                    f"{name} has shape {arr.shape} but the lattice carries {m} modes"
                )
        if self.u_k is not None:
            scale = max(1.0, float(np.max(np.abs(self.u_k))))
            for i_plus, i_minus in lattice.pair_list():
                if abs(self.u_k[i_minus] - np.conj(self.u_k[i_plus])) > 1e-12 * scale:
                    raise ConfigurationError(
                        "u_k is not conjugate symmetric: "
                        f"u[{i_minus}] != conj(u[{i_plus}])"
                    )
        if self.gamma_k is not None:
            for i_plus, i_minus in lattice.pair_list():
                if self.gamma_k[i_minus] != self.gamma_k[i_plus]:
                    raise ConfigurationError(
                        "gamma_k must be even in k: "
                        f"gamma[{i_minus}] != gamma[{i_plus}]"
                    )

    def gamma_at(self, mode_index: int) -> float:
        return float(self.gamma_k[mode_index]) if self.gamma_k is not None else self.gamma

    def u_at(self, mode_index: int) -> complex:
        return complex(self.u_k[mode_index]) if self.u_k is not None else 0.0j
