"""Acceptance gate: nine desk-scale checks, one verdict line each.

Every test times its own body, prints a single `criterion N: ...: pass|FAIL`
line (shown under `pytest -s`, and in the captured output of any failure),
and enforces the stated tolerances with plain asserts.
"""

import cmath
import itertools
import math
import time

import numpy as np

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
)
from phasegas.fock import (
    build_hamiltonian,
    enumerate_basis,
    ground_pair,
    mean_field_comparison,
    state_momentum,
)
from phasegas.hermite import HermiteBasis
from phasegas.lattice import ModeLattice, TAU
from phasegas.operator import (
    assemble,
    gaussian_ground_coeffs,
    scaled_params,
)
from phasegas.params import ModelParams
from phasegas.spectral import (
    energy_from_eigenvalue,
    multiset_match_error,
    perturbation_series,
    solve,
)

EPS = float(np.finfo(float).eps)


def _scaled(params, basis):
    """The scaling family: `scaled_params` substituted into `assemble`."""
    eff = scaled_params(params)
    return assemble(eff, basis).at(eff.epsilon)


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> str:
    status = "pass" if ok else "FAIL"
    line = f"criterion {num}: {label}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    return line


def test_criterion_1_overlap_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=5)
    fields = [
        CoherentField(lat, float(rng.uniform(0.3, 1.1)), rng.uniform(0.0, TAU, 16))
        for _ in range(100)
    ]

    gram = kernel_gram(fields)
    herm = float(np.max(np.abs(gram - gram.conj().T))) / float(np.max(np.abs(gram)))

    idx = rng.integers(0, len(fields), size=(400, 2))
    rel = 0.0
    for i, j in idx:
        a, b = fields[i], fields[j]
        ref = cmath.exp(exponent_g(a, b))
        ov = overlap(a, b).value
        kv = cmath.exp(phase_kernel_exponent(a, b))
        rel = max(rel, abs(ov - ref) / abs(ref), abs(kv - ref) / abs(ref))

    elapsed = time.perf_counter() - t0
    ok = rel < 1e-12 and herm < 1e-14 and elapsed < 1.0
    line = _verdict(1, "overlap identities", ok, f"rel={rel:.2e} herm={herm:.2e} t={elapsed:.2f}s")
    assert ok, line


def test_criterion_2_number_projection():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=5)
    r_cap = math.sqrt(4.0 / lat.volume)  # keeps |G| <= 4 for any field pair
    mq = 64

    worst_abs = 0.0
    bound_ok = True
    cross = 0.0
    for _ in range(12):
        a = CoherentField(lat, float(rng.uniform(0.2, 1.0)) * r_cap, rng.uniform(0.0, TAU, 12))
        b = CoherentField(lat, float(rng.uniform(0.2, 1.0)) * r_cap, rng.uniform(0.0, TAU, 12))
        g_abs = abs(exponent_g(a, b))
        assert g_abs <= 4.0
        for n in range(9):
            err = abs(number_overlap_quadrature(a, b, n, mq) - number_overlap_closed(a, b, n))
            worst_abs = max(worst_abs, err)
            if err > aliasing_tail(g_abs, n, mq) + mq * EPS * math.exp(g_abs):
                bound_ok = False
        for n_bra, n_ket in itertools.permutations(range(9), 2):
            cross = max(cross, abs(cross_sector_quadrature(a, b, n_bra, n_ket, mq)))

    elapsed = time.perf_counter() - t0
    ok = worst_abs < 1e-12 and bound_ok and cross < 1e-12 and elapsed < 1.0
    line = _verdict(
        2,
        "number projection",
        ok,
        f"abs={worst_abs:.2e} tail_bound={'ok' if bound_ok else 'violated'} "
        f"cross={cross:.2e} t={elapsed:.2f}s",
    )
    assert ok, line


def test_criterion_3_gaussian_ground_state():
    t0 = time.perf_counter()
    worst = 0.0
    for n_pairs in range(2, 7):
        lat = ModeLattice(d=1, box_len=TAU, m_per_dim=2 * n_pairs + 1)
        n_max = 2 if n_pairs <= 4 else 1
        for gamma in (0.1, 0.5, 2.0):
            par = ModelParams(gamma=gamma, n_particles=3)
            bas = HermiteBasis(lat, gamma, n_max)
            op = assemble(par, bas).at(0.0)
            v = gaussian_ground_coeffs(par, bas)
            worst = max(worst, float(np.linalg.norm(op.apply(v) - (-par.ebar_n) * v)))

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    line = _verdict(3, "Gaussian ground state", ok, f"resid={worst:.2e} t={elapsed:.2f}s")
    assert ok, line


def test_criterion_4_ou_ladder_spectrum():
    t0 = time.perf_counter()
    worst = 0.0
    for n_pairs, n_max in ((2, 4), (3, 2)):
        lat = ModeLattice(d=1, box_len=TAU, m_per_dim=2 * n_pairs + 1)
        par = ModelParams(gamma=0.5, n_particles=2)
        bas = HermiteBasis(lat, 0.5, n_max)
        op = assemble(par, bas).at(0.0)
        assert op.dim <= 4000
        computed = solve(op, method="dense").values
        expected = np.array(
            [
                -sum(n * k2 for n, k2 in zip(combo, bas.coord_k2)) - par.ebar_n
                for combo in itertools.product(range(n_max + 1), repeat=bas.n_coords)
            ],
            dtype=complex,
        )
        worst = max(worst, multiset_match_error(expected, computed))

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 60.0
    line = _verdict(4, "harmonic ladder spectrum", ok, f"err={worst:.2e} t={elapsed:.2f}s")
    assert ok, line


def test_criterion_5_conjugation_symmetry():
    t0 = time.perf_counter()
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=5)
    par = ModelParams(gamma=0.5, n_particles=2)
    bas = HermiteBasis(lat, 0.5, 3)

    entrywise_exact = True
    spec_err = 0.0
    for eps in (0.1, 0.5, 1.0):
        mp = assemble(par, bas).at(eps)
        mm = assemble(par, bas).at(-eps)
        diff = (mm.matrix - mp.matrix.conj()).tocsr()
        diff.eliminate_zeros()
        if diff.nnz != 0 or mm.offset != mp.offset:
            entrywise_exact = False
        sp = solve(mp, method="dense").values
        sm = solve(mm, method="dense").values
        spec_err = max(spec_err, multiset_match_error(np.conj(sp), sm))

    # fitted odd orders of e(eps) must vanish: checked on the pinned ground
    # level and on the first excited level, where the response is nonzero
    fit_grid = np.array([-0.3, -0.2, -0.1, 0.1, 0.2, 0.3])
    ground_vals, excited_vals = [], []
    for eps in fit_grid:
        values = solve(assemble(par, bas).at(float(eps)), method="dense").values
        ground_vals.append(values[0].real)
        excited_vals.append(0.5 * (values[1].real + values[2].real))
    co_g = np.polyfit(fit_grid, ground_vals, 4)
    co_e = np.polyfit(fit_grid, excited_vals, 4)
    odd = max(abs(co_g[1]), abs(co_g[3]), abs(co_e[1]), abs(co_e[3]))

    elapsed = time.perf_counter() - t0
    ok = entrywise_exact and spec_err <= 1e-9 and odd < 1e-9 and elapsed < 120.0
    line = _verdict(
        5,
        "conjugation symmetry",
        ok,
        f"entrywise={'exact' if entrywise_exact else 'BROKEN'} spectra={spec_err:.2e} "
        f"odd={odd:.2e} t={elapsed:.2f}s",
    )
    assert ok, line


def test_criterion_6_scaling_consistency():
    t0 = time.perf_counter()
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=5)
    bas = HermiteBasis(lat, 0.5, 3)
    worst = 0.0
    for kappa in (0.04, 0.25, 1.0):
        s = _scaled(ModelParams(gamma=0.5, n_particles=2, kappa=kappa), bas)
        f = assemble(ModelParams(gamma=0.5, n_particles=2, epsilon=kappa**0.5), bas).at(kappa**0.5)
        d = (s.matrix - f.matrix).tocsr()
        d.eliminate_zeros()
        entry = 0.0 if d.nnz == 0 else float(np.max(np.abs(d.data)))
        worst = max(worst, entry, abs(s.offset - f.offset))

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-14 and elapsed < 10.0
    line = _verdict(6, "scaling consistency", ok, f"entry={worst:.2e} t={elapsed:.2f}s")
    assert ok, line


def test_criterion_7_mean_field_energy():
    t0 = time.perf_counter()

    # functional side, u0 = 0: ground energy must equal U N^2 / V exactly;
    # a power-of-two box volume keeps every factor representable
    lat1 = ModeLattice(d=1, box_len=2.0, m_per_dim=3)
    u_int = 1.0
    gamma = u_int / lat1.volume
    par = ModelParams(gamma=gamma, n_particles=2)
    bas = HermiteBasis(lat1, gamma, 2)
    e_func = energy_from_eigenvalue(solve(assemble(par, bas).at(0.0), 1).values[0])
    pred = u_int * 2**2 / lat1.volume
    ok_func = e_func.real == pred and e_func.imag == 0.0

    # single-mode oracle: E/N = U N^2 / (N V) with no kinetic term to truncate
    latm1 = ModeLattice(d=1, box_len=TAU, m_per_dim=1)
    basis1 = enumerate_basis(latm1, 2)
    h1 = build_hamiltonian(basis1, np.array([0.8]), 0.0, 0.0)
    ok_single = ground_pair(h1)[0] / 2 == 0.8 * (1.0 / latm1.volume) * 4.0 / 2

    # three modes, three particles, two-decade coupling scan.  The oracle keeps
    # the bare density-density interaction, so as U -> 0 its ground state tends
    # to the condensate and E/N tends to <c|H|c>/N = U (N+M-1)/V, not U N/V:
    # rel_dev (measured against U N/V) rises toward (M-1)/N rather than to 0.
    # So the law checked is that of this convention: the closed form matches
    # the condensate column, and the oracle's relative deviation from it
    # shrinks at every step and vanishes at first order in U.
    n3, m3 = 3, 3
    lat3 = ModeLattice(d=1, box_len=TAU, m_per_dim=m3)
    scan = np.geomspace(1.0, 0.01, 9)
    rows = mean_field_comparison(lat3, n3, scan, n_max=2)
    mf_epp = scan * (n3 + m3 - 1) / lat3.volume
    cond_gap = max(abs(row["condensate_epp"] - e) / e for row, e in zip(rows, mf_epp))
    ok_closed = cond_gap <= 1e-15
    devs = np.array([abs(row["oracle_epp"] - e) / e for row, e in zip(rows, mf_epp)])
    ok_mono = bool(np.all(devs[1:] < devs[:-1]))
    slope = float(np.polyfit(np.log(scan), np.log(devs), 1)[0])
    ok_slope = abs(slope - 1.0) <= 0.1
    rel_devs = [row["rel_dev"] for row in rows]

    elapsed = time.perf_counter() - t0
    ok = ok_func and ok_single and ok_closed and ok_mono and ok_slope and elapsed < 60.0
    detail = (
        f"functional={'exact' if ok_func else 'off'} single_mode={'exact' if ok_single else 'off'} "
        f"condensate_gap={cond_gap:.1e} "
        f"dev {'->'.join(f'{d:.2e}' for d in devs)} "
        f"{'monotone' if ok_mono else 'NOT monotone'} slope={slope:.3f} "
        f"rel_dev {rel_devs[0]:.4f}->{rel_devs[-1]:.4f} (limit (M-1)/N={(m3 - 1) / n3:.4f}) "
        f"t={elapsed:.2f}s"
    )
    line = _verdict(7, "mean-field energy law", ok, detail)
    assert ok, line


def test_criterion_8_perturbation_consistency():
    t0 = time.perf_counter()
    lat = ModeLattice(d=1, box_len=TAU, m_per_dim=5)
    par = ModelParams(gamma=0.5, n_particles=2)
    bas = HermiteBasis(lat, 0.5, 3)
    op0 = assemble(par, bas).at(0.0)
    series = perturbation_series(op0, assemble(par, bas).l1, max_order=2)
    first_order = abs(series.orders[1])

    grid = (0.05, 0.1, 0.2, 0.4)
    spectra = {}
    for eps in grid + (0.0,):
        spectra[eps] = solve(assemble(par, bas).at(eps), method="dense").values

    # ground-level remainder |e(eps) - e0 - eps^2 e2|: the divergence-form
    # operator pins the ground eigenvalue at -ebar_N for every eps, so the
    # remainder sits at the rounding floor; the slope fit is the active check
    # only if a finite remainder ever appears
    resid = np.array(
        [
            abs(
                spectra[eps][0]
                - (series.orders[0] + eps**2 * series.orders[2])
            )
            for eps in grid
        ]
    )
    floor = 100.0 * EPS * abs(series.orders[0])
    if float(resid.max()) <= floor:
        ground_ok = True
        ground_note = f"remainder<= {floor:.1e} floor"
    else:
        slope = float(np.polyfit(np.log(grid), np.log(resid), 1)[0])
        ground_ok = 3.5 <= slope <= 4.5
        ground_note = f"slope={slope:.2f}"

    # the same quartic-remainder law carries real signal on the first excited
    # level; its eps^2 coefficient comes from Richardson extrapolation
    def excited(eps):
        values = spectra[eps]
        return 0.5 * (values[1].real + values[2].real)

    e0 = excited(0.0)
    d1 = (excited(0.05) - e0) / 0.05**2
    d2 = (excited(0.1) - e0) / 0.1**2
    c2 = (4.0 * d1 - d2) / 3.0
    exc_resid = np.array([abs(excited(eps) - e0 - c2 * eps**2) for eps in grid])
    exc_slope = float(np.polyfit(np.log(grid), np.log(exc_resid), 1)[0])

    elapsed = time.perf_counter() - t0
    ok = first_order < 1e-12 and ground_ok and 3.5 <= exc_slope <= 4.5 and elapsed < 120.0
    line = _verdict(
        8,
        "perturbation consistency",
        ok,
        f"e1={first_order:.1e} ground:{ground_note} excited_slope={exc_slope:.2f} t={elapsed:.2f}s",
    )
    assert ok, line


def test_criterion_9_oracle_integrity():
    t0 = time.perf_counter()

    lat5 = ModeLattice(d=1, box_len=TAU, m_per_dim=5)
    b5 = enumerate_basis(lat5, 4)
    h5 = build_hamiltonian(b5, np.array([0.7, 0.4, 0.4, 0.2, 0.2]), 0.3, 0.1)
    m = h5.matrix.toarray()
    herm = float(np.max(np.abs(m - m.conj().T))) / float(np.max(np.abs(m)))

    lat3 = ModeLattice(d=1, box_len=TAU, m_per_dim=3)
    blocks_ok = True
    for n in range(1, 5):
        b = enumerate_basis(lat3, n)
        h = build_hamiltonian(b, 0.6, 0.0, 0.0)
        p = state_momentum(b)[:, 0]
        coo = h.matrix.tocoo()
        keep = coo.data != 0.0
        if not np.all(p[coo.row[keep]] == p[coo.col[keep]]):
            blocks_ok = False

    rows = mean_field_comparison(lat3, 3, np.geomspace(1.0, 0.01, 9), n_max=2)
    variational_ok = all(
        row["oracle_epp"] <= row["condensate_epp"] * (1.0 + 1e-12) for row in rows
    )

    elapsed = time.perf_counter() - t0
    ok = herm <= 1e-13 and blocks_ok and variational_ok and elapsed < 30.0
    line = _verdict(
        9,
        "oracle integrity",
        ok,
        f"herm={herm:.2e} blocks={'ok' if blocks_ok else 'BROKEN'} "
        f"variational={'ok' if variational_ok else 'VIOLATED'} t={elapsed:.2f}s",
    )
    assert ok, line
