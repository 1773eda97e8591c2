"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with  pytest -s tests/test_acceptance.py -v  to see the report lines.
Criteria with runtime budgets time the operation under test (not the
high-precision oracle scaffolding around it).
"""

import math
import time
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from test_abwave import stencil_residual
from test_smatrix_properties import two_valued

from abscatter.abwave import ABWaveSpec, eval_ab_wave_grid
from abscatter.gaugefield import (
    EikonalPhase,
    GaussianBump,
    GaussianScalar,
    ScalarMixture,
    VectorPotential,
    gradient_formula,
    phase_gradient,
    phase_gradient_check,
)
from abscatter.inverse import _flux_from_eigenvalues, detect_conjugation, recover_flux_from_modes
from abscatter.smatrix import (
    StripDomain,
    _spectrum,
    conjugate_kernel,
    sample_kernel,
    strip_integral,
)
from abscatter.specfun import bessel_j_ladder
from abscatter.xray import (
    a_line_sinogram,
    flux_parity_test,
    line_integrals,
    radon_forward,
    radon_invert,
    reconstruction_axes,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_bessel_series_oracle():
    rng = np.random.default_rng(101)
    pts = rng.uniform([0.0, 0.0], [10.0, 20.0], size=(200, 2))
    with mp.workdps(50):
        oracle = []
        for nu, x in pts:
            nu_, half = mp.mpf(nu), mp.mpf(x) / 2
            s = mp.mpf(0)
            for k in range(60):
                s += (-1) ** k * half ** (nu_ + 2 * k) / (mp.factorial(k) * mp.gamma(nu_ + k + 1))
            oracle.append(float(s))
    t0 = time.perf_counter()
    vals = [bessel_j_ladder(nu, 1, x)[0] for nu, x in pts]
    dt = time.perf_counter() - t0
    err = max(abs(v - o) for v, o in zip(vals, oracle))
    report(1, err <= 1e-10 and dt < 1.0,
           f"max |J - oracle| = {err:.2e} (tol 1e-10), runtime {dt:.2f}s (< 1s)")


def test_criterion_02_plane_wave_reduction():
    axis = np.linspace(-10.0, 10.0, 141)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) <= 10.0]
    spec = ABWaveSpec(alpha=0.0, lam=1.0, omega=(1.0, 0.0), sign=1)
    t0 = time.perf_counter()
    vals = eval_ab_wave_grid(spec, pts)
    dt = time.perf_counter() - t0
    sup = float(np.max(np.abs(vals - np.exp(1j * pts[:, 0]))))
    report(2, sup <= 1e-8 and dt < 5.0,
           f"sup error = {sup:.2e} (tol 1e-8) on {len(pts)} points, runtime {dt:.2f}s (< 5s)")


def test_criterion_03_pde_residual_mesh_halving():
    rng = np.random.default_rng(103)
    th = rng.uniform(0.0, 2.0 * math.pi, 100)
    rr = rng.uniform(1.0, 5.0, 100)
    pts = np.stack([rr * np.cos(th), rr * np.sin(th)], axis=1)
    spec = ABWaveSpec(alpha=0.5, lam=1.0, omega=(1.0, 0.0), sign=1)
    ratio = stencil_residual(spec, pts, 0.02) / stencil_residual(spec, pts, 0.01)
    worst = float(np.min(ratio))
    report(3, worst >= 3.5, f"min residual shrink factor = {worst:.3f} (>= 3.5)")


def test_criterion_04_spectrum_from_quadrature():
    worst = 0.0
    for k in range(1, 20):
        alpha = 0.1 * k
        if abs(alpha - 1.0) < 1e-12:
            continue
        eigs = _spectrum(sample_kernel(alpha, 1024))[np.arange(-8, 9)]
        worst = max(worst, float(np.max(np.abs(eigs - two_valued(alpha, 8)))))
        flip = next(m for m, q in zip(range(-8, 9), eigs)
                    if abs(q - np.exp(1j * math.pi * alpha)) < 1e-6)
        assert flip == math.ceil(alpha)
    report(4, worst <= 1e-6, f"max |quadrature - exact eigenvalue| = {worst:.2e} (tol 1e-6)")


def test_criterion_05_strip_integral_log2():
    t0 = time.perf_counter()
    grid = sample_kernel(0.5, 4096)
    val = -strip_integral(grid, StripDomain(0.0, math.pi, 0.025)).real
    dt = time.perf_counter() - t0
    rel = abs(val - math.log(2.0)) / math.log(2.0)
    report(5, rel <= 0.05 and dt < 10.0,
           f"-Re strip = {val:.6f} vs log 2 = {math.log(2):.6f} "
           f"(rel {rel:.2e}, tol 5%), runtime {dt:.1f}s (< 10s)")


def test_criterion_06_flux_recovery_round_trip():
    rng = np.random.default_rng(106)
    fluxes = []
    while len(fluxes) < 20:
        a = float(rng.uniform(-3.0, 3.0))
        if abs(a - round(a)) > 0.02:
            fluxes.append(a)
    worst_pw = max(abs(_flux_from_eigenvalues(two_valued(a, 8), 8).alpha - a) for a in fluxes)
    worst_grid = max(abs(recover_flux_from_modes(sample_kernel(a, 1024)).alpha - a)
                     for a in fluxes[:8])
    report(6, worst_pw <= 1e-9 and worst_grid <= 1e-4,
           f"partial-wave worst = {worst_pw:.2e} (tol 1e-9), "
           f"1024-grid worst = {worst_grid:.2e} (tol 1e-4)")


def test_criterion_07_gauge_conjugation():
    worst = 0.0
    alpha = 0.5
    base, modes = two_valued(alpha, 10), np.arange(-8, 9)
    for n in range(-2, 3):
        conj_eig = (-1.0) ** n * base[modes - n + 10]
        worst = max(worst, float(np.max(np.abs(conj_eig - two_valued(alpha + n, 10)[modes + 10]))))
    grid = sample_kernel(0.5, 256)
    detected = all(detect_conjugation(grid, conjugate_kernel(grid, n), 3).n == n
                   for n in range(-2, 3))
    report(7, worst <= 1e-9 and detected,
           f"mode-space conjugation error = {worst:.2e} (tol 1e-9), "
           f"winding detection exact = {detected}")


def test_criterion_08_xray_phase_gauge_invariance():
    rng = np.random.default_rng(108)
    base = VectorPotential(alpha=0.4, bumps=(GaussianBump((1.0, 0.3), 0.9, 0.6),))
    # the gauge e^{i (2 theta + L)}: flux alpha + 2, and grad L added to A'
    other = replace(base, alpha=base.alpha + 2,
                    grad_l=ScalarMixture((GaussianScalar((0.4, -0.2), 0.5, 0.8),)))
    worst_phase, worst_int = 0.0, 0.0
    for _ in range(50):
        p = float(rng.uniform(2.0, 9.0) * rng.choice([-1.0, 1.0]))
        phi = float(rng.uniform(0.0, math.pi))
        r1 = line_integrals(base, [p], [phi], "A")[0, 0]
        r2 = line_integrals(other, [p], [phi], "A")[0, 0]
        worst_phase = max(worst_phase, abs(np.exp(1j * r2) - np.exp(1j * r1)))
        k = (r2 - r1) / (2.0 * math.pi)
        worst_int = max(worst_int, abs(k - round(k)))
    offsets = np.concatenate([np.linspace(-8.0, -2.5, 8), np.linspace(2.5, 8.0, 8)])
    angles = np.linspace(0.0, math.pi, 6, endpoint=False)
    cert = flux_parity_test(a_line_sinogram(base, offsets, angles),
                            a_line_sinogram(other, offsets, angles)).certificate
    report(8, worst_phase <= 1e-8 and worst_int <= 1e-8 and cert == 2,
           f"max phase gap = {worst_phase:.2e} (tol 1e-8), raw/2pi deviation = "
           f"{worst_int:.2e}, parity certificate = {cert} (expect 2)")


def test_criterion_09_radon_reconstruction():
    pot = VectorPotential(alpha=0.0,
                          v=ScalarMixture((GaussianScalar((3.0, 0.0), 1.0, 0.5),)))
    t0 = time.perf_counter()
    sino = radon_forward(pot, 128, 180, 8.0)
    image = radon_invert(sino, 128)
    dt = time.perf_counter() - t0
    axes = reconstruction_axes(sino, 128)
    xx, yy = np.meshgrid(axes, axes, indexing="ij")
    truth = np.exp(-((xx - 3.0) ** 2 + yy ** 2) / (2 * 0.5 ** 2))
    r = np.hypot(xx, yy)
    annulus = (r > 2.2) & (r < 7.0)
    rel = float(np.linalg.norm((image - truth)[annulus]) / np.linalg.norm(truth[annulus]))
    report(9, rel <= 0.05 and dt < 30.0,
           f"relative L2 error on annulus = {rel:.3f} (tol 5%), runtime {dt:.1f}s (< 30s)")


def test_criterion_10_eikonal_identities():
    rng = np.random.default_rng(110)
    pot = VectorPotential(alpha=0.8,
                          bumps=(GaussianBump((1.5, -0.5), 1.0, 0.9),),
                          grad_l=ScalarMixture((GaussianScalar((0.0, 1.0), 0.6, 1.1),)))
    worst_orth, worst_form = 0.0, 0.0
    checked = 0
    while checked < 100:
        x = rng.uniform(-5.0, 5.0, 2)
        xi = rng.uniform(-2.0, 2.0, 2)
        nx, nxi = float(np.hypot(*x)), float(np.hypot(*xi))
        if nx <= 0.3 or nxi <= 0.3:
            continue
        sign = 1 if checked % 2 == 0 else -1
        if sign * float(x @ xi) / (nx * nxi) < -0.8:
            continue
        ph = EikonalPhase(sign=sign, potential=pot)
        worst_orth = max(worst_orth, phase_gradient_check(ph, x, xi))
        diff = np.abs(phase_gradient(ph, x, xi) - gradient_formula(ph, x, xi))
        worst_form = max(worst_form, float(np.max(diff)))
        checked += 1
    report(10, worst_orth <= 1e-6 and worst_form <= 1e-6,
           f"max |xi.(grad - A)| = {worst_orth:.2e}, max gradient-formula gap = "
           f"{worst_form:.2e} (tol 1e-6 each)")
