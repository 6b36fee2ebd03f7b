"""The exactly solvable sector: Gaussian ground state and equally spaced ladder.

Assembles the number-conserving operator without the quadratic drift term,
verifies that the variance-matched Gaussian is an exact eigenvector, prints
the low end of the ladder spectrum against the closed form, and calibrates
the constant potential so the ground eigenvalue sits at zero.
"""

import itertools

import numpy as np

from phasegas import (
    TAU,
    HermiteBasis,
    ModeLattice,
    ModelParams,
    assemble,
    calibrate_mu,
    gaussian_ground_coeffs,
    solve,
)

gamma, n_particles, n_max = 0.5, 2, 3
lat = ModeLattice(d=1, box_len=TAU, m_per_dim=5)
par = ModelParams(gamma=gamma, n_particles=n_particles)
bas = HermiteBasis(lat, gamma, n_max)
op = assemble(par, bas).at(0.0)
print(f"lattice modes = {lat.num_modes}, basis dim = {op.dim}, nnz = {op.matrix.nnz}")

v = gaussian_ground_coeffs(par, bas)
resid = np.linalg.norm(op.apply(v) - (-par.ebar_n) * v)
print(f"Gaussian ground state residual |L v + ebar v| = {resid:.3e}")
print(f"ground eigenvalue = -ebar_N = {-par.ebar_n}")
print()

values = solve(op, method="dense").values
expected = sorted(
    (
        -sum(n * k2 for n, k2 in zip(combo, bas.coord_k2)) - par.ebar_n
        for combo in itertools.product(range(n_max + 1), repeat=bas.n_coords)
    ),
    reverse=True,
)
print("rank   computed            ladder value -sum(n k^2) - ebar")
for i in range(8):
    print(f"{i:4d}   {values[i].real:+.12f}     {expected[i]:+.12f}")
print()

u0 = calibrate_mu(par)
print(f"constant potential that zeroes the ground eigenvalue: u0 = {u0}")
par_cal = ModelParams(gamma=gamma, n_particles=n_particles, u_k=[u0] + [0.0] * (lat.num_modes - 1))
op_cal = assemble(par_cal, bas).at(0.0)
print("recalibrated ground eigenvalue:", complex(solve(op_cal, method="dense").values[0]))
