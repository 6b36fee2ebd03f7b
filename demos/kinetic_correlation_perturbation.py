"""Switching on the quadratic drift: where the epsilon dependence actually lives.

The assembled operator is in divergence form, so the constant functional is a
left eigenvector at eigenvalue -ebar_N for every epsilon: the ground
eigenvalue is pinned exactly and every perturbation order above zero
vanishes.  The physical response to the drift term shows up in the excited
levels, which shift quadratically and stay conjugation-symmetric under
epsilon -> -epsilon.  Pushing epsilon toward 1 on a small basis instead
excites a spurious truncation mode — shown last as a cautionary tale.
"""

import numpy as np

from phasegas import (
    TAU,
    HermiteBasis,
    ModeLattice,
    ModelParams,
    assemble,
    perturbation_series,
    solve,
)

lat = ModeLattice(d=1, box_len=TAU, m_per_dim=5)
par = ModelParams(gamma=0.5, n_particles=2)
bas = HermiteBasis(lat, 0.5, 3)
# L(eps) = L0 + eps * L1, both built once
affine = assemble(par, bas)

series = perturbation_series(affine.at(0.0), affine.l1, max_order=4)
print("ground-level perturbation orders:", series.orders)
print("(divergence form pins the ground eigenvalue: all orders above zero vanish)")
print()


def spectrum(eps):
    return solve(affine.at(eps), method="dense").values


def excited(eps):
    values = spectrum(eps)
    return 0.5 * (values[1].real + values[2].real)


e0 = excited(0.0)
print("first excited level: quadratic response with a quartic remainder")
print("  eps     e1(eps)           (e1 - e1(0))/eps^2")
for eps in (0.05, 0.1, 0.2, 0.4):
    val = excited(eps)
    print(f"  {eps:4.2f}   {val:+.10f}    {(val - e0) / eps**2:+.8f}")
print()

eps = 0.2
plus = spectrum(+eps)
minus = spectrum(-eps)
print(f"conjugation check at eps = {eps}: max |spectrum(-eps) - conj(spectrum(eps))| =",
      np.max(np.abs(np.sort_complex(minus) - np.sort_complex(np.conj(plus)))))
print()

print("truncation warning: dominant eigenvalue at eps = 1 as the basis grows")
for n_max in (2, 3, 4):
    b = HermiteBasis(lat, 0.5, n_max)
    top = complex(solve(assemble(par, b).at(1.0), method="dense").values[0])
    print(f"  n_max = {n_max}: dim = {b.dim:5d}, top eigenvalue = {top:+.6f}")
print("(the true ground stays at -ebar_N; the intruder is a truncation artifact,")
print(" so keep epsilon small or raise n_max until the top eigenvalue settles)")
