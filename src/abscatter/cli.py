"""Command-line orchestration: simulate, dump artifacts, run inverse pipelines.

Subcommands
    wave         distorted plane wave on a square grid -> CSV x1,x2,re,im
    kernel       flux-alpha kernel grid -> kernel CSV (optional smooth noise)
    flux         circulation-based flux of a potential config -> JSON
    strip        strip integral of a kernel CSV -> JSON
    recover      full flux recovery pipeline on a kernel CSV -> verdict JSON
    radon        V (or raw A) sinogram of a potential config -> sinogram CSV,
                 optionally followed by FBP reconstruction -> wave-style CSV
    gauge-check  winding search relating two kernel CSVs -> JSON report

Exit codes: 0 ok, 2 schema/argument violation, 3 numeric-domain error.
Outputs are deterministic for a fixed config; synthetic noise is drawn only
when --perturb is set and is pinned by --seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__, abwave, inverse, smatrix, xray
from .errors import AbScatterError, SchemaError
from .gaugefield import flux as flux_op
from .gaugefield import load_potential_json
from .smatrix import KernelGrid, StripDomain


def _json_out(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="ascii") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _floats(text: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",") if t != ""]
    except ValueError as exc:
        raise SchemaError(f"expected comma-separated numbers, got {text!r}") from exc


def _cmd_wave(args) -> None:
    if args.grid < 2:
        raise SchemaError(f"--grid must be >= 2, got {args.grid}")
    if not math.isfinite(args.omega_deg):
        raise SchemaError(f"--omega-deg must be finite, got {args.omega_deg}")
    if not 0.0 < args.extent < math.inf:
        raise SchemaError(f"--extent must be finite and > 0, got {args.extent}")
    sign = 1 if args.sign == "plus" else -1
    phi = math.radians(args.omega_deg)
    omega = (math.cos(phi), math.sin(phi))
    r_max = args.extent * math.sqrt(2.0)
    if args.truncation is not None:
        spec = abwave.ABWaveSpec(alpha=args.alpha, lam=args.energy, omega=omega,
                                 sign=sign, truncation=args.truncation)
    else:
        spec = abwave.ABWaveSpec.for_radius(args.alpha, args.energy, omega, sign, r_max)
    axis = np.linspace(-args.extent, args.extent, args.grid)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    # keep the flux line out of the evaluation set
    r = np.hypot(pts[:, 0], pts[:, 1])
    pts = pts[r > 1e-9]
    vals = abwave.eval_ab_wave_grid(spec, pts)
    abwave.save_wave_csv(args.out, pts, vals)


def _cmd_kernel(args) -> None:
    if not 0.0 <= args.perturb < math.inf:
        raise SchemaError(f"--perturb must be finite and >= 0, got {args.perturb}")
    grid = smatrix.sample_kernel(args.alpha, args.n)
    if args.perturb > 0.0:
        rng = np.random.default_rng(args.seed)
        th = grid.theta
        noise = np.zeros((args.n, args.n), dtype=complex)
        for _ in range(3):
            a, b = rng.integers(-3, 4, size=2)
            c = rng.normal() + 1j * rng.normal()
            noise += c * np.exp(1j * (a * th[:, None] + b * th[None, :]))
        sup = float(np.max(np.abs(noise)))
        if sup > 0.0:
            noise *= args.perturb / sup
        vals = grid.values + noise
        np.fill_diagonal(vals, 0.0)
        grid = KernelGrid(n=args.n, values=vals, delta_coeff=grid.delta_coeff,
                          alpha_hint=None)
    smatrix.save_kernel_csv(grid, args.out)


def _cmd_flux(args) -> None:
    pot = load_potential_json(args.config)
    radii = _floats(args.radii)
    result = flux_op(pot, radii)
    _json_out({"alpha": result.estimate, "sequence": list(result.sequence)}, args.out)


def _cmd_strip(args) -> None:
    grid = smatrix.load_kernel_csv(args.kernel)
    strip = StripDomain(a=args.a, b=args.b, eps=args.eps)
    val = smatrix.strip_integral(grid, strip)
    _json_out({"re": val.real, "im": val.imag, "minus_re": -val.real}, args.out)


def _cmd_recover(args) -> None:
    grid = smatrix.load_kernel_csv(args.kernel)
    if args.strips is None:
        strips = inverse.default_strips(grid.n, args.a, args.b)
    else:
        strips = [StripDomain(a=args.a, b=args.b, eps=e) for e in _floats(args.strips)]
    verdict = inverse.recover_flux(grid, obstacle_convex=args.convex,
                                   strips=strips, m_max=args.m_max)
    _json_out(dataclasses.asdict(verdict), args.out)


def _cmd_radon(args) -> None:
    pot = load_potential_json(args.config)
    if args.quantity == "V":
        sino = xray.radon_forward(pot, args.n_p, args.n_phi, args.p_max)
    else:
        sino = xray.a_line_sinogram(pot, *xray.sinogram_axes(args.n_p, args.n_phi, args.p_max))
    xray.save_sinogram_csv(sino, args.out)
    if args.invert is not None:
        if args.quantity != "V":
            raise SchemaError("--invert applies to V sinograms only")
        image = xray.radon_invert(sino, args.invert)
        axes = xray.reconstruction_axes(sino, args.invert)
        xx, yy = np.meshgrid(axes, axes, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        abwave.save_wave_csv(args.recon, pts, image.ravel().astype(complex))


def _cmd_gauge_check(args) -> None:
    g1 = smatrix.load_kernel_csv(args.kernel1)
    g2 = smatrix.load_kernel_csv(args.kernel2)
    rep = inverse.detect_conjugation(g1, g2, args.n_range)
    _json_out({"n": rep.n, "residual": rep.residual, "equivalent": rep.equivalent},
              args.out)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="abscatter",
                                description="Aharonov-Bohm scattering toolkit")
    p.add_argument("--version", action="version", version=f"abscatter {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    w = sub.add_parser("wave", help="evaluate a distorted plane wave on a grid")
    w.add_argument("--alpha", type=float, required=True)
    w.add_argument("--energy", type=float, default=1.0)
    w.add_argument("--omega-deg", type=float, default=0.0)
    w.add_argument("--sign", choices=["plus", "minus"], default="plus")
    w.add_argument("--extent", type=float, default=5.0)
    w.add_argument("--grid", type=int, default=101)
    w.add_argument("--truncation", type=int, default=None)
    w.add_argument("--out", required=True)
    w.set_defaults(func=_cmd_wave)

    k = sub.add_parser("kernel", help="sample the flux-alpha scattering kernel")
    k.add_argument("--alpha", type=float, required=True)
    k.add_argument("--n", type=int, default=256)
    k.add_argument("--perturb", type=float, default=0.0,
                   help="sup-norm of an added smooth synthetic perturbation")
    k.add_argument("--seed", type=int, default=0)
    k.add_argument("--out", required=True)
    k.set_defaults(func=_cmd_kernel)

    f = sub.add_parser("flux", help="flux of a potential config by circulation")
    f.add_argument("--config", required=True)
    f.add_argument("--radii", required=True, help="comma-separated ascending radii")
    f.add_argument("--out", default=None)
    f.set_defaults(func=_cmd_flux)

    s = sub.add_parser("strip", help="strip integral of a kernel CSV")
    s.add_argument("--kernel", required=True)
    s.add_argument("--a", type=float, default=0.0)
    s.add_argument("--b", type=float, default=math.pi)
    s.add_argument("--eps", type=float, required=True)
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_strip)

    r = sub.add_parser("recover", help="recover the flux from a kernel CSV")
    r.add_argument("--kernel", required=True)
    r.add_argument("--strips", default=None,
                   help="comma-separated decreasing strip widths (default: halving "
                        "from max(0.1, 8h) down to 4h, h = 2*pi/n)")
    r.add_argument("--a", type=float, default=0.0)
    r.add_argument("--b", type=float, default=math.pi)
    r.add_argument("--m-max", type=int, default=8)
    r.add_argument("--convex", action="store_true",
                   help="assert the convex-obstacle hypothesis")
    r.add_argument("--out", default=None)
    r.set_defaults(func=_cmd_recover)

    d = sub.add_parser("radon", help="sinogram of a potential config")
    d.add_argument("--config", required=True)
    d.add_argument("--quantity", choices=["V", "A"], default="V")
    d.add_argument("--n-p", type=int, default=128)
    d.add_argument("--n-phi", type=int, default=180)
    d.add_argument("--p-max", type=float, default=8.0)
    d.add_argument("--out", required=True)
    d.add_argument("--invert", type=int, default=None,
                   help="also reconstruct on an N x N grid")
    d.add_argument("--recon", default=None, help="reconstruction CSV path")
    d.set_defaults(func=_cmd_radon)

    g = sub.add_parser("gauge-check", help="winding search between two kernels")
    g.add_argument("--kernel1", required=True)
    g.add_argument("--kernel2", required=True)
    g.add_argument("--n-range", type=int, default=3)
    g.add_argument("--out", default=None)
    g.set_defaults(func=_cmd_gauge_check)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "radon" and args.invert is not None and args.recon is None:
        parser.error("--invert requires --recon")
    try:
        args.func(args)
    except SchemaError as exc:
        print(f"abscatter: schema error: {exc}", file=sys.stderr)
        return 2
    except (AbScatterError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"abscatter: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"abscatter: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
