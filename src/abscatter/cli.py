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

Exit codes: 0 ok, 2 schema/argument violation (an argument outside its fixed
range, recover without --convex, or radon's --invert without --recon, --recon
without --invert, or --invert with --quantity A, is refused before any work; a
config or artifact that is not ASCII, or a config that is not JSON, names its file),
3 numeric-domain error or a path that cannot be read or written.
Outputs are deterministic for a fixed config; synthetic noise is drawn only
when --perturb is set and is pinned by --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

# numpy and the layer modules load inside the command that uses them, so
# --version, --help and refused arguments return without importing them
from . import __version__, errors
from .errors import AbScatterError, SchemaError


def _json_out(payload: dict, path: str | None) -> None:
    try:
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError:      # NaN or infinity: not JSON under RFC 8259
        raise AbScatterError("the result holds NaN or infinity; nothing written") from None
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
    if not math.isfinite(args.omega_deg):
        raise SchemaError(f"--omega-deg must be finite, got {args.omega_deg}")
    if not 0.0 < args.extent < math.inf:
        raise SchemaError(f"--extent must be finite and > 0, got {args.extent}")
    import numpy as np
    from . import abwave
    sign = 1 if args.sign == "plus" else -1
    phi = math.radians(args.omega_deg)
    omega = (math.cos(phi), math.sin(phi))
    spec = abwave.ABWaveSpec(args.alpha, args.energy, omega, sign)
    errors.allocatable((args.grid, args.grid, 2), f"a {args.grid} x {args.grid} grid")
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
    from . import smatrix
    grid = smatrix.sample_kernel(args.alpha, args.n)
    if args.perturb > 0.0:
        grid = smatrix.perturb_kernel(grid, args.perturb, args.seed)
    smatrix.save_kernel_csv(grid, args.out)


def _cmd_flux(args) -> None:
    from . import gaugefield
    pot = gaugefield.load_potential_json(args.config)
    radii = _floats(args.radii)
    result = gaugefield.flux(pot, radii)
    _json_out({"alpha": result.estimate, "sequence": list(result.sequence)}, args.out)


def _cmd_strip(args) -> None:
    from . import smatrix
    strip = smatrix.StripDomain(a=args.a, b=args.b, eps=args.eps)
    grid = smatrix.load_kernel_csv(args.kernel)
    val = smatrix.strip_integral(grid, strip)
    _json_out({"re": val.real, "im": val.imag, "minus_re": -val.real}, args.out)


def _cmd_recover(args) -> None:
    import dataclasses
    from . import inverse, smatrix
    verdict = inverse.recover_flux(smatrix.load_kernel_csv(args.kernel),
                                   obstacle_convex=args.convex)
    _json_out(dataclasses.asdict(verdict), args.out)


def _cmd_radon(args) -> None:
    from . import gaugefield, xray
    pot = gaugefield.load_potential_json(args.config)
    if args.quantity == "V":
        sino = xray.radon_forward(pot, args.n_p, args.n_phi, args.p_max)
    else:
        sino = xray.a_line_sinogram(pot, *xray.sinogram_axes(args.n_p, args.n_phi, args.p_max))
    # the reconstruction before any file, so a failed one leaves none
    image = None if args.invert is None else xray.radon_invert(sino, args.invert)
    xray.save_sinogram_csv(sino, args.out)
    if image is not None:
        import numpy as np
        from . import abwave
        axes = xray.reconstruction_axes(sino, args.invert)
        xx, yy = np.meshgrid(axes, axes, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        abwave.save_wave_csv(args.recon, pts, image.ravel().astype(complex))


def _cmd_gauge_check(args) -> None:
    from . import inverse, smatrix
    g1 = smatrix.load_kernel_csv(args.kernel1)
    g2 = smatrix.load_kernel_csv(args.kernel2)
    rep = inverse.detect_conjugation(g1, g2, args.n_range)
    _json_out({"n": rep.n, "residual": rep.residual, "equivalent": rep.equivalent},
              args.out)


# Lowest value of each bounded integer flag, per command (and radon quantity):
# a value below it (an unset flag has none) is refused with exit 2 before any work.
_FLOORS = {
    "wave": {"--grid": 2},
    "kernel": {"--n": 64, "--seed": 0},
    "radon --quantity V": {"--n-p": 64, "--n-phi": 64, "--invert": 1},
    "radon --quantity A": {"--n-p": 1, "--n-phi": 1},
    "gauge-check": {"--n-range": 0},
}


def _check_floors(args) -> None:
    command = f"radon --quantity {args.quantity}" if args.command == "radon" else args.command
    for flag, low in _FLOORS.get(command, {}).items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value < low:
            raise SchemaError(f"{flag} must be >= {low}, got {value}")
    if args.command == "recover" and not args.convex:
        raise SchemaError("recover needs --convex: flux recovery from kernel data rests on "
                          "the convex-obstacle hypothesis, which the kernel cannot certify")
    if args.command == "radon":
        if (args.invert is None) != (args.recon is None):
            raise SchemaError("--invert and --recon must be given together")
        if args.invert is not None and args.quantity != "V":
            raise SchemaError("--invert applies to V sinograms only")


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
    try:
        _check_floors(args)
        args.func(args)
    except SchemaError as exc:
        print(f"abscatter: schema error: {exc}", file=sys.stderr)
        return 2
    # OSError: a path that is missing, a directory or unreadable
    except (AbScatterError, OSError) as exc:
        print(f"abscatter: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"abscatter: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
