"""Workloads: inputs generated from the seed, the fixed step sequence, and checks.

Each workload is a closed loop of steps run one at a time by one client.
A step is a CLI invocation (`python -m abscatter.cli ...`) or a library step
from libsteps.py; every step has a check that compares the step's outputs
with an independent computation or a property the method must have.  Checks
run after the step, outside the timed region, and raise CheckError.

Steps that fail today because of a named program fault carry `fault`; they
use inputs that do not depend on the seed, so they fail on every run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


class CheckError(Exception):
    """A step's output disagrees with its independent check."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


@dataclass
class Step:
    name: str
    kind: str                      # "cli" or "lib"
    args: list[str]                # CLI argv, or [libstep name, params, outdir]
    check: Callable[[], None]
    expect_exit: int = 0
    fault: str | None = None       # the program fault that makes this step fail today


# ---------------------------------------------------------------- helpers

def data_rows(path: Path, skip: int, cols: int) -> np.ndarray:
    """Numeric rows of an artifact after `skip` lines (comment line included)."""
    rows = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    expect(rows.shape[1] == cols, f"{path.name}: {rows.shape[1]} columns, expected {cols}")
    return rows


def kernel_closed_form(alpha: float, n: int, j: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Regular part (i sin(pi a)/pi) e^{i ceil(a) tau} / (1 - e^{i tau}), tau = theta_j - theta_k."""
    tau = 2.0 * math.pi * ((j - k) % n) / n
    return (1j * math.sin(math.pi * alpha) / math.pi) * np.exp(1j * math.ceil(alpha) * tau) \
        / (1.0 - np.exp(1j * tau))


def read_kernel_lines(path: Path, n: int) -> list[bytes]:
    """Data lines of a kernel CSV, checking the row count and header."""
    lines = path.read_bytes().split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    body = [ln for ln in lines if not ln.startswith(b"#")]
    expect(body[:1] == [b"n,delta_re,delta_im,alpha_hint"] and body[2:3] == [b"j,k,re,im"],
           f"{path.name}: unexpected kernel header")
    expect(int(body[1].split(b",")[0]) == n, f"{path.name}: wrong n")
    expect(len(body) - 3 == n * n, f"{path.name}: {len(body) - 3} rows, expected {n * n}")
    return body[3:]


def spot_entries(lines: list[bytes], n: int, rng: np.random.Generator, count: int):
    """(j, k, value) of `count` seeded off-diagonal entries, read by row position."""
    idx = rng.choice(n * n, size=count, replace=False)
    idx = idx[idx // n != idx % n]
    vals = np.empty(idx.size, dtype=complex)
    for t, i in enumerate(idx):
        j, k, re, im = lines[int(i)].split(b",")
        expect(int(j) == i // n and int(k) == i % n, f"row {i} holds entry ({j}, {k})")
        vals[t] = float(re) + 1j * float(im)
    return idx // n, idx % n, vals


def write_truncated_kernel(path: Path, alpha: float, n: int) -> None:
    """Kernel CSV of flux alpha in the program's layout, cut after its first n/2 rows."""
    j, k = np.divmod(np.arange(n * n // 2), n)
    vals = np.zeros(j.size, dtype=complex)
    off = j != k
    vals[off] = kernel_closed_form(alpha, n, j[off], k[off])
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write("# abscatter 0.1.0\nn,delta_re,delta_im,alpha_hint\n")
        f.write(f"{n},{math.cos(math.pi * alpha)!r},0.0,{alpha!r}\nj,k,re,im\n")
        f.writelines(f"{a},{b},{re!r},{im!r}\n" for a, b, re, im in
                     zip(j.tolist(), k.tolist(), vals.real.tolist(), vals.imag.tolist()))


SHIFT_SIN_TOL = 2e-2


def check_verdict(verdict: Path | dict, alpha: float, sin_tol: float = 5e-3) -> None:
    """Recovered flux against the seeded alpha (a verdict JSON file or dict).

    The strip estimate of sin(pi alpha) carries a bias that grows with
    ceil(alpha) at the default strip widths, so shifted kernels are checked
    with SHIFT_SIN_TOL (the bias is below 9e-3 for ceil(alpha) <= 3).
    """
    v = verdict if isinstance(verdict, dict) else json.loads(verdict.read_text())
    expect(abs(v["alpha"] - alpha) <= 1e-4, f"alpha {v['alpha']} vs seeded {alpha}")
    expect(v["ceil_alpha"] == math.ceil(alpha), f"ceil_alpha {v['ceil_alpha']}")
    expect(abs(v["sin_pi_alpha"] - math.sin(math.pi * alpha)) <= sin_tol,
           f"sin_pi_alpha {v['sin_pi_alpha']} vs {math.sin(math.pi * alpha)}")
    expect(v["witness"] is True, "witness is not true")


# ---------------------------------------------------------------- recover-cli

class RecoverCli:
    """kernel -> recover / gauge-check through CSV artifacts at n = 1024."""

    N = 1024
    TRUNC_ALPHA = 0.7

    def __init__(self, seed: int, inputs: Path):
        rng = np.random.default_rng([seed, 1])
        self.alpha = float(rng.uniform(0.2, 0.8))
        self.spot_seed = int(rng.integers(1, 2**31))
        self.truncated = inputs / "kernel_half.csv"
        write_truncated_kernel(self.truncated, self.TRUNC_ALPHA, self.N)

    def prepare(self, work: Path) -> None:
        pass

    def _check_kernel(self, path: Path, alpha: float) -> None:
        lines = read_kernel_lines(path, self.N)
        j, k, vals = spot_entries(lines, self.N, np.random.default_rng(self.spot_seed), 256)
        ref = kernel_closed_form(alpha, self.N, j, k)
        err = float(np.max(np.abs(vals - ref) / np.maximum(1.0, np.abs(ref))))
        expect(err <= 1e-12, f"{path.name}: kernel entries off by {err:.2e}")

    def _check_gauge(self, path: Path) -> None:
        g = json.loads(path.read_text())
        expect(g["n"] == 2 and g["equivalent"] is True, f"gauge-check reported {g}")

    def steps(self, work: Path) -> list[Step]:
        a, n = repr(self.alpha), str(self.N)
        k1, k2 = work / "k.csv", work / "k_shift.csv"
        r1, r2, g = work / "r_clean.json", work / "r_shift.json", work / "gauge.json"
        return [
            Step("kernel-clean", "cli", ["kernel", "--alpha", a, "--n", n, "--out", str(k1)],
                 lambda: self._check_kernel(k1, self.alpha)),
            Step("kernel-shift", "cli",
                 ["kernel", "--alpha", repr(self.alpha + 2.0), "--n", n, "--out", str(k2)],
                 lambda: self._check_kernel(k2, self.alpha + 2.0)),
            Step("recover-clean", "cli", ["recover", "--kernel", str(k1), "--convex", "--out", str(r1)],
                 lambda: check_verdict(r1, self.alpha)),
            Step("recover-shift", "cli",
                 ["recover", "--kernel", str(k2), "--convex", "--out", str(r2)],
                 lambda: check_verdict(r2, self.alpha + 2.0, SHIFT_SIN_TOL)),
            Step("gauge-check", "cli",
                 ["gauge-check", "--kernel1", str(k1), "--kernel2", str(k2), "--n-range", "3",
                  "--out", str(g)],
                 lambda: self._check_gauge(g)),
            Step("recover-truncated", "cli",
                 ["recover", "--kernel", str(self.truncated), "--convex",
                  "--out", str(work / "r_trunc.json")],
                 lambda: None, expect_exit=2,
                 fault="load_kernel_csv zero-fills the missing rows of a truncated kernel CSV "
                       "instead of raising SchemaError, so recover exits 0"),
        ]


# ---------------------------------------------------------------- kernel-lib

class KernelLib:
    """In-process kernel operations on dense n = 2048 grids, no files."""

    N = 2048
    M_MAX = 8

    def __init__(self, seed: int, inputs: Path):
        rng = np.random.default_rng([seed, 2])
        phase = rng.uniform(0.0, 2.0 * math.pi)
        size = rng.uniform(0.005, 0.02)
        self.params = {
            "n": self.N, "n_range": 3, "m_max": self.M_MAX,
            "alpha": float(rng.uniform(0.2, 0.8)),
            "winding": int(rng.choice([-2, -1, 1, 2])),
            "noise_seed": int(rng.integers(1, 2**31)), "noise_size": 0.02,
            "mode": int(rng.integers(-6, 7)),
            "coeff": [size * math.cos(phase), size * math.sin(phase)],
        }
        self.scale = complex(*rng.normal(size=2))

    def prepare(self, work: Path) -> None:
        (work / "kernel_lib_params.json").write_text(json.dumps(self.params))

    def _check(self, work: Path) -> None:
        from abscatter.smatrix import compose_with_amplitude, sample_kernel
        from libsteps import perturbed_kernel, single_mode

        p = self.params
        r = json.loads((work / "kernel_lib.json").read_text())
        expect(r["winding"] == p["winding"] and r["equivalent"],
               f"winding search found {r['winding']}, applied {p['winding']}")
        alpha = p["alpha"]
        check_verdict(r["clean"], alpha)
        check_verdict(r["shifted"], alpha + p["winding"], SHIFT_SIN_TOL)

        # single-mode amplitude c e^{im(t - w)} moves only eigenvalue m,
        # to lambda_m (1 - 4 pi^2 i c)
        modes = np.arange(-self.M_MAX, self.M_MAX + 1)
        lam = np.where(modes >= alpha, np.exp(1j * math.pi * alpha), np.exp(-1j * math.pi * alpha))
        c = complex(*p["coeff"])
        want = np.where(modes == p["mode"], lam * (1.0 - 4.0 * math.pi ** 2 * 1j * c), lam)
        got = np.array(r["eig_re"]) + 1j * np.array(r["eig_im"])
        err = float(np.max(np.abs(got - want)))
        expect(err <= 1e-4, f"composed eigenvalues off by {err:.2e}")

        # composition is linear in the amplitude (checked on the dense perturbed kernel)
        pert = perturbed_kernel(sample_kernel(alpha, self.N), p["noise_seed"], p["noise_size"])
        once = np.load(work / "composed_perturbed.npy") - pert.values
        z = self.scale
        base = single_mode(p["mode"], c)
        scaled = compose_with_amplitude(pert, lambda t, w: z * base(t, w)).values - pert.values
        gap = float(np.max(np.abs(scaled - z * once)))
        expect(gap <= 1e-9 * abs(z) * float(np.max(np.abs(once))),
               f"composition not linear in the amplitude: gap {gap:.2e}")

    def steps(self, work: Path) -> list[Step]:
        return [Step("kernel-lib", "lib",
                     ["kernel-lib", str(work / "kernel_lib_params.json"), str(work)],
                     lambda: self._check(work))]


# ---------------------------------------------------------------- wave-cli

def ab_wave_series(alpha: float, lam: float, omega_deg: float, pts: np.ndarray) -> np.ndarray:
    """Mode series with scipy.special.jv, summed far past the program's truncation."""
    from scipy.special import jv

    z = math.sqrt(lam) * np.hypot(pts[:, 0], pts[:, 1])
    gam = np.arctan2(pts[:, 1], pts[:, 0]) - math.radians(omega_deg)
    zmax = float(np.max(z))
    top = int(math.ceil(zmax + 30.0 * zmax ** (1.0 / 3.0) + 60.0))
    ls = np.arange(-top, top + 1)[:, None]
    nu = np.abs(ls - alpha)
    terms = np.exp(0.5j * math.pi * nu) * np.exp(1j * ls * gam[None, :]) * jv(nu, z[None, :])
    return terms.sum(axis=0)


class WaveCli:
    """Three `wave --grid 201 --extent 10` runs: the Bessel ladder and dense mode sum."""

    GRID = 201
    EXTENT = 10.0
    SAMPLES = 32
    TAIL_TOL = 1e-12      # truncation tail bound promised at the certified radius
    POINT_TOL = 1e-11     # interior points: tail bound plus Bessel evaluation error

    def __init__(self, seed: int, inputs: Path):
        rng = np.random.default_rng([seed, 3])
        self.omega = [float(rng.uniform(0.0, 360.0)) for _ in range(2)]
        self.sample_seed = int(rng.integers(1, 2**31))

    def prepare(self, work: Path) -> None:
        pass

    def _check(self, path: Path, alpha: float, lam: float, omega_deg: float) -> None:
        rows = data_rows(path, 2, 4)
        expect(rows.shape[0] == self.GRID ** 2 - 1,
               f"{path.name}: {rows.shape[0]} rows, expected {self.GRID ** 2 - 1}")
        pts, vals = rows[:, :2], rows[:, 2] + 1j * rows[:, 3]
        axis = np.linspace(-self.EXTENT, self.EXTENT, self.GRID)
        got_x = np.unique(pts[:, 0])
        expect(got_x.size == self.GRID and np.allclose(got_x, axis, rtol=0, atol=1e-12),
               f"{path.name}: grid coordinates are wrong")
        r = np.hypot(pts[:, 0], pts[:, 1])
        corners = np.nonzero(r >= r.max() * (1.0 - 1e-12))[0]
        rng = np.random.default_rng(self.sample_seed)
        sample = rng.choice(np.nonzero(r < r.max() * (1.0 - 1e-12))[0], self.SAMPLES, replace=False)
        ref = ab_wave_series(alpha, lam, omega_deg, pts[np.concatenate([corners, sample])])
        err = np.abs(vals[np.concatenate([corners, sample])] - ref)
        tail = float(np.max(err[:corners.size]))
        expect(tail <= self.TAIL_TOL,
               f"{path.name}: error {tail:.2e} at the certified radius exceeds {self.TAIL_TOL:g}")
        inner = float(np.max(err[corners.size:]))
        expect(inner <= self.POINT_TOL, f"{path.name}: error {inner:.2e} at sample points")
        if alpha == 0.0:
            w = math.radians(omega_deg)
            plane = np.exp(1j * math.sqrt(lam) * (pts[:, 0] * math.cos(w) + pts[:, 1] * math.sin(w)))
            gap = float(np.max(np.abs(vals - plane)))
            expect(gap <= self.POINT_TOL, f"{path.name}: plane wave off by {gap:.2e}")

    def steps(self, work: Path) -> list[Step]:
        runs = [("wave-a0-l25", 0.0, 25.0, self.omega[0], None),
                ("wave-a05-l25", 0.5, 25.0, self.omega[1], None),
                ("wave-a05-l100", 0.5, 100.0, 0.0,
                 "ABWaveSpec.for_radius keeps a fixed TRUNCATION_MARGIN = 40 while the Bessel "
                 "transition region widens like z^(1/3); the dropped tail at the corners is "
                 "above 1e-12")]
        out = []
        for name, alpha, lam, omega, fault in runs:
            path = work / f"{name}.csv"
            out.append(Step(name, "cli",
                            ["wave", "--alpha", repr(alpha), "--energy", repr(lam),
                             "--omega-deg", repr(omega), "--grid", str(self.GRID),
                             "--extent", repr(self.EXTENT), "--out", str(path)],
                            lambda p=path, a=alpha, l=lam, o=omega: self._check(p, a, l, o),
                            fault=fault))
        return out


# ---------------------------------------------------------------- xray-gauge

def gaussian(entry: dict, y: np.ndarray) -> np.ndarray:
    d = y - np.asarray(entry["center"])
    return entry["strength"] * np.exp(-(d * d).sum(axis=-1) / (2.0 * entry["width"] ** 2))


def line_integrals(cfg: dict, p: np.ndarray, phi: np.ndarray, quantity: str) -> np.ndarray:
    """Closed-form full-line integrals on the (p, phi) grid, line x0 = p n, n = (-sin, cos)."""
    pp, ff = np.meshgrid(p, phi, indexing="ij")
    normal = np.stack([-np.sin(ff), np.cos(ff)], axis=-1)
    omega = np.stack([np.cos(ff), np.sin(ff)], axis=-1)
    x0 = pp[..., None] * normal
    out = np.zeros(pp.shape)
    if quantity == "V":
        for e in cfg["V"]:
            d = pp - normal @ np.asarray(e["center"])
            w = e["width"]
            out += e["strength"] * math.sqrt(2.0 * math.pi) * w * np.exp(-d * d / (2.0 * w * w))
        return out
    # flux part: alpha * pi * sgn(x0 x omega) = -alpha * pi * sgn(p); gradient pieces give 0
    out += -cfg["alpha"] * math.pi * np.sign(pp)
    for e in cfg["bumps"]:
        u = x0 - np.asarray(e["center"])
        q = u[..., 0] * omega[..., 1] - u[..., 1] * omega[..., 0]
        w = e["width"]
        out += e["strength"] * q * math.sqrt(2.0 * math.pi) / w * np.exp(-q * q / (2.0 * w * w))
    return out


def eikonal_closed_form(cfg: dict, x: np.ndarray, xi: np.ndarray, s: int) -> float:
    """Phi_s(x, xi) = -s int_0^inf A(x + s t xi) . xi dt in closed form."""
    cross = x[0] * xi[1] - x[1] * xi[0]
    dot = float(x @ xi)
    ray = cfg["alpha"] * cross * (0.5 * math.pi - math.atan(s * dot / abs(cross))) / abs(cross)
    nxi2 = float(xi @ xi)
    for e in cfg["bumps"]:
        u = x - np.asarray(e["center"])
        w2 = e["width"] ** 2
        q = u[0] * xi[1] - u[1] * xi[0]
        a = nxi2 / (2.0 * w2)
        b = s * float(u @ xi) / w2
        c0 = float(u @ u) / (2.0 * w2)
        gauss = 0.5 * math.sqrt(math.pi / a) * math.exp(b * b / (4.0 * a) - c0) \
            * math.erfc(b / (2.0 * math.sqrt(a)))
        ray += e["strength"] * q / w2 * gauss
    # gradient pieces: int_0^inf grad L . xi dt = -s L(x)
    ray += sum(-s * float(gaussian(e, x)) for e in cfg["gradL"])
    return -s * ray


class XrayGauge:
    """flux, V sinogram + FBP, two A sinograms related by a winding-2 gauge, parity, eikonal."""

    N_P_A = 24
    N_PHI_A = 24
    P_MAX = 8.0
    PAIRS = 200
    WINDING = 2

    def __init__(self, seed: int, inputs: Path):
        rng = np.random.default_rng([seed, 4])
        alpha = float(rng.uniform(0.2, 0.8))
        self.cfg = {
            "alpha": alpha,
            "bumps": [{"center": [2.0, 0.0], "strength": 1.5, "width": 1.0}],
            "gradL": [{"center": [0.0, 1.0], "strength": 0.6, "width": 1.1}],
            "V": [{"center": [0.5, 0.5], "strength": 0.7, "width": 0.8},
                  {"center": [-2.0, -1.5], "strength": 0.4, "width": 0.6}],
            "R0": 0.5,
        }
        # gauge g = exp(i (2 theta + L)): flux gains the winding, gradL gains L
        gauge_l = {"center": [-1.0, -0.5], "strength": 0.8, "width": 0.9}
        self.cfg2 = dict(self.cfg, alpha=alpha + self.WINDING,
                         gradL=self.cfg["gradL"] + [gauge_l])
        self.pairs = []
        while len(self.pairs) < self.PAIRS:
            rx, ax, rxi, axi = rng.uniform([0.5, 0.0, 0.5, 0.0], [4.0, 2 * math.pi, 2.0, 2 * math.pi])
            s = int(rng.choice([-1, 1]))
            x = [rx * math.cos(ax), rx * math.sin(ax)]
            xi = [rxi * math.cos(axi), rxi * math.sin(axi)]
            cos = math.cos(axi - ax)
            if s * cos >= -0.7 and abs(math.sin(axi - ax)) >= 0.05:
                self.pairs.append([x, xi, s])

    def prepare(self, work: Path) -> None:
        (work / "pot.json").write_text(json.dumps(self.cfg))
        (work / "pot_gauge.json").write_text(json.dumps(self.cfg2))
        (work / "xray_lib_params.json").write_text(json.dumps({
            "sinogram1": str(work / "a.csv"), "sinogram2": str(work / "a_gauge.csv"),
            "config": str(work / "pot.json"), "pairs": self.pairs}))

    def _check_flux(self, path: Path) -> None:
        got = json.loads(path.read_text())["alpha"]
        expect(abs(got - self.cfg["alpha"]) <= 1e-9, f"flux {got} vs {self.cfg['alpha']}")

    def _sinogram(self, path: Path, n_p: int, n_phi: int) -> np.ndarray:
        rows = data_rows(path, 4, 3)
        expect(rows.shape[0] == n_p * n_phi, f"{path.name}: {rows.shape[0]} rows")
        return rows[:, 2].reshape(n_p, n_phi)

    def _grid(self, n_p: int, n_phi: int):
        return np.linspace(-self.P_MAX, self.P_MAX, n_p), np.arange(n_phi) * math.pi / n_phi

    def _check_v(self, sino: Path, recon: Path) -> None:
        vals = self._sinogram(sino, 128, 180)
        err = float(np.max(np.abs(vals - line_integrals(self.cfg, *self._grid(128, 180), "V"))))
        expect(err <= 1e-8, f"V sinogram off the closed form by {err:.2e}")
        rows = data_rows(recon, 2, 4)
        expect(rows.shape[0] == 128 * 128, f"{recon.name}: {rows.shape[0]} rows")
        truth = sum(gaussian(e, rows[:, :2]) for e in self.cfg["V"])
        rel = float(np.linalg.norm(rows[:, 2] - truth) / np.linalg.norm(truth))
        expect(rel <= 0.05, f"FBP relative L2 error {rel:.3f} > 5%")

    def _check_a(self, path: Path, cfg: dict) -> None:
        vals = self._sinogram(path, self.N_P_A, self.N_PHI_A)
        ref = line_integrals(cfg, *self._grid(self.N_P_A, self.N_PHI_A), "A")
        err = float(np.max(np.abs(vals - ref)))
        expect(err <= 1e-8, f"{path.name}: A sinogram off the closed form by {err:.2e}")

    def _check_lib(self, work: Path) -> None:
        r = json.loads((work / "xray_lib.json").read_text())
        expect(r["matched"] and r["certificate"] == self.WINDING,
               f"parity certificate {r['certificate']}, applied winding {self.WINDING}")
        for (x, xi, s), phase, chk, formula in zip(self.pairs, r["phase"], r["gradient_check"],
                                                   r["gradient_formula"]):
            x, xi = np.asarray(x), np.asarray(xi)
            want = eikonal_closed_form(self.cfg, x, xi, s)
            expect(abs(phase - want) <= 1e-8, f"eikonal phase {phase} vs closed form {want}")
            expect(chk <= 1e-6, f"phase_gradient_check {chk:.2e} > 1e-6")
            h = 1e-5
            fd = [(eikonal_closed_form(self.cfg, x + e, xi, s)
                   - eikonal_closed_form(self.cfg, x - e, xi, s)) / (2 * h)
                  for e in (np.array([h, 0.0]), np.array([0.0, h]))]
            gap = float(np.max(np.abs(np.asarray(formula) - fd)))
            expect(gap <= 1e-6, f"gradient_formula off the closed-form gradient by {gap:.2e}")

    def steps(self, work: Path) -> list[Step]:
        pot, pot2 = str(work / "pot.json"), str(work / "pot_gauge.json")
        sino, recon = work / "v.csv", work / "recon.csv"
        a1, a2, flux = work / "a.csv", work / "a_gauge.csv", work / "flux.json"
        a_args = ["--quantity", "A", "--n-p", str(self.N_P_A), "--n-phi", str(self.N_PHI_A),
                  "--p-max", repr(self.P_MAX)]
        return [
            Step("flux", "cli", ["flux", "--config", pot, "--radii", "10,20,40", "--out", str(flux)],
                 lambda: self._check_flux(flux)),
            Step("radon-v", "cli",
                 ["radon", "--config", pot, "--n-p", "128", "--n-phi", "180",
                  "--p-max", repr(self.P_MAX), "--out", str(sino), "--invert", "128",
                  "--recon", str(recon)],
                 lambda: self._check_v(sino, recon)),
            Step("radon-a", "cli", ["radon", "--config", pot, *a_args, "--out", str(a1)],
                 lambda: self._check_a(a1, self.cfg)),
            Step("radon-a-gauge", "cli", ["radon", "--config", pot2, *a_args, "--out", str(a2)],
                 lambda: self._check_a(a2, self.cfg2)),
            Step("xray-lib", "lib", ["xray-lib", str(work / "xray_lib_params.json"), str(work)],
                 lambda: self._check_lib(work)),
        ]


WORKLOADS = {"recover-cli": RecoverCli, "kernel-lib": KernelLib,
             "wave-cli": WaveCli, "xray-gauge": XrayGauge}
