"""Library steps of the benchmark: short pipelines calling the abscatter API.

    python3 perfbench/libsteps.py kernel-lib PARAMS.json OUTDIR
    python3 perfbench/libsteps.py xray-lib PARAMS.json OUTDIR

Each step reads its generated inputs from PARAMS.json and writes what the
correctness checks need into OUTDIR.  The harness runs a step as its own
process (or in-process under tracer.py) and checks the outputs afterwards.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np


def smooth_noise(n: int, seed: int, size: float) -> np.ndarray:
    """Dense, non-circulant smooth perturbation with sup-norm `size`, zero diagonal.

    A sum of e^{i(a theta + b theta')} with a + b != 0, so no term is a
    function of theta - theta' alone and the perturbed kernel is not circulant.
    """
    rng = np.random.default_rng(seed)
    theta = 2.0 * math.pi * np.arange(n) / n
    noise = np.zeros((n, n), dtype=complex)
    for _ in range(3):
        a, b = 0, 0
        while a + b == 0:
            a, b = (int(v) for v in rng.integers(-3, 4, size=2))
        c = rng.normal() + 1j * rng.normal()
        noise += c * np.outer(np.exp(1j * a * theta), np.exp(1j * b * theta))
    noise *= size / float(np.max(np.abs(noise)))
    np.fill_diagonal(noise, 0.0)
    return noise


def perturbed_kernel(clean, seed: int, size: float):
    """The clean kernel plus smooth_noise, delta part unchanged."""
    from abscatter.smatrix import KernelGrid

    return KernelGrid(n=clean.n, values=clean.values + smooth_noise(clean.n, seed, size),
                      delta_coeff=clean.delta_coeff)


def single_mode(m: int, c: complex):
    """Amplitude F(theta, omega) = c e^{i m (theta - omega)}."""
    return lambda theta, omega: c * np.exp(1j * m * (theta - omega))


def _verdict(v) -> dict:
    return {"alpha": v.alpha, "ceil_alpha": v.ceil_alpha, "sin_pi_alpha": v.sin_pi_alpha,
            "residual": v.residual, "witness": bool(v.witness)}


def kernel_lib(p: dict, out: Path) -> None:
    from abscatter.inverse import detect_conjugation, recover_flux
    from abscatter.smatrix import (
        compose_with_amplitude,
        conjugate_kernel,
        extract_mode,
        sample_kernel,
    )

    clean = sample_kernel(p["alpha"], p["n"])
    shifted = conjugate_kernel(clean, p["winding"])
    report = detect_conjugation(clean, shifted, p["n_range"])
    perturbed = perturbed_kernel(clean, p["noise_seed"], p["noise_size"])
    amp = single_mode(p["mode"], complex(*p["coeff"]))
    comp_clean = compose_with_amplitude(clean, amp)
    comp_pert = compose_with_amplitude(perturbed, amp)
    m_max = p["m_max"]
    eig = [extract_mode(comp_clean, m) for m in range(-m_max, m_max + 1)]
    v_clean = recover_flux(clean, obstacle_convex=True)
    v_shift = recover_flux(shifted, obstacle_convex=True)
    np.save(out / "composed_perturbed.npy", comp_pert.values)
    result = {
        "winding": report.n, "winding_residual": report.residual,
        "equivalent": bool(report.equivalent),
        "composed_delta": [comp_pert.delta_coeff.real, comp_pert.delta_coeff.imag],
        "eig_re": [e.real for e in eig], "eig_im": [e.imag for e in eig],
        "clean": _verdict(v_clean), "shifted": _verdict(v_shift),
    }
    (out / "kernel_lib.json").write_text(json.dumps(result))


def xray_lib(p: dict, out: Path) -> None:
    from abscatter.gaugefield import (
        EikonalPhase,
        eikonal_phase,
        gradient_formula,
        load_potential_json,
        phase_gradient_check,
    )
    from abscatter.xray import flux_parity_test, load_sinogram_csv

    raw1 = load_sinogram_csv(p["sinogram1"])
    raw2 = load_sinogram_csv(p["sinogram2"])
    parity = flux_parity_test(raw1, raw2)
    pot = load_potential_json(p["config"])
    phases = {s: EikonalPhase(sign=s, potential=pot) for s in (1, -1)}
    values, checks, formulas = [], [], []
    for x, xi, s in p["pairs"]:
        ph = phases[s]
        values.append(eikonal_phase(ph, x, xi))
        checks.append(phase_gradient_check(ph, x, xi))
        formulas.append([float(g) for g in gradient_formula(ph, x, xi)])
    result = {"matched": bool(parity.matched), "certificate": parity.certificate,
              "phase": values, "gradient_check": checks, "gradient_formula": formulas}
    (out / "xray_lib.json").write_text(json.dumps(result))


STEPS = {"kernel-lib": kernel_lib, "xray-lib": xray_lib}

# program modules each step uses; the traced launcher imports them up front
MODULES = {"kernel-lib": ("abscatter.smatrix", "abscatter.inverse"),
           "xray-lib": ("abscatter.gaugefield", "abscatter.xray")}


def main(argv: list[str]) -> int:
    name, params, out = argv
    STEPS[name](json.loads(Path(params).read_text()), Path(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
