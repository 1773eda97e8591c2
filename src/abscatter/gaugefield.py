"""Vector potentials, the flux functional, eikonal phases.

A potential is the singular flux part alpha*(-x2, x1)/|x|^2 plus a smooth
short-range part A' and a scalar potential V.  The built-in analytic family
keeps every oracle in closed form:

* A' swirl bumps: curls of Gaussian stream functions (divergence free, zero
  net circulation, analytic magnetic field);
* A' gradient pieces: exact differentials of Gaussian mixtures (zero field);
* V: Gaussian mixtures.

The eikonal phase of a ray is
    Phi_s(x, xi) = -s * int_0^inf A(x + s*t*xi) . xi dt,       s = +1 or -1,
defined off the backward cone (s * xhat.xihat >= -1 + delta with delta = 0.1).
The flux part enters every integral of A as alpha times the angle its path
sweeps about the flux line, added to the integral of A' (_path_integral).  Fields take
finite (n, 2) point arrays (errors.points); the ray functions take (phase, x, xi) with
finite 2-vectors x and xi (errors.vector), and their sign s from the EikonalPhase, which
checks it.

Every integral of a smooth part along a piece of a line (full lines for the
X-ray data, half rays for the eikonal phases and the ray field integral) goes
through _segment_integrals, one pass over (m, 2) rows of base points per ray function
call, with one Gauss-Legendre rule per Gaussian component: the segment is clipped to the
component's own disk |y - c| <= 8.5 w, with the same 51 nodes for every component and row.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import errors
from .errors import DomainError, FluxConvergenceWarning, SchemaError

__all__ = [
    "GaussianBump",
    "GaussianScalar",
    "ScalarMixture",
    "VectorPotential",
    "FluxResult",
    "flux",
    "EikonalPhase",
    "eikonal_phase",
    "phase_gradient",
    "phase_gradient_check",
    "gradient_formula",
    "ray_field_integral",
    "save_potential_json",
    "load_potential_json",
]

# Region parameter for eikonal phases: |x| > DELTA_REGION, |xi| > DELTA_REGION
# and s * xhat.xihat >= -1 + DELTA_REGION.
DELTA_REGION = 0.1

# Gaussian envelopes are treated as zero beyond this many widths.
_ENVELOPE_CUT = 8.5

# Gauss-Legendre nodes per width across a component's integration window.
_NODES_PER_WIDTH = 6.0

# Trapezoid nodes on each circle of the flux functional.
_CIRCLE_NODES = 2048


@lru_cache(maxsize=8)
def _leggauss(nodes: int):
    return np.polynomial.legendre.leggauss(nodes)


def _segment_integrals(parts, x0, d, lo: float = -math.inf) -> np.ndarray:
    """Sum over (component, field) parts of int_lo^inf field(x0 + t*d) dt per (m, 2) row x0.

    field maps (k, 2) points to k values; a vector field (k x 2 values) is
    integrated as the 1-form field . d.  A field is negligible beyond
    H = _ENVELOPE_CUT * w from its component's center c.  Each segment is
    clipped to the disk |y - c| <= H, and one that misses it costs nothing; an
    offset from c that overflows counts as a miss.  Central nodes of an n-point
    rule on a chord of the disk sit at most about pi*H/n apart, which integrates
    a Gaussian of width w to about exp(-2*(n*w/H)**2); each component's rule has
    n = _NODES_PER_WIDTH * _ENVELOPE_CUT = 51 nodes, whatever x0 is, so the
    integrals are smooth in the base point.
    """
    nd = math.hypot(d[0], d[1])
    u = d / nd
    out = np.zeros(x0.shape[0])
    for comp, field in parts:
        h = _ENVELOPE_CUT * comp.width
        with np.errstate(over="ignore", invalid="ignore"):
            r = x0 - np.asarray(comp.center)
            miss = np.abs(r[:, 0] * u[1] - r[:, 1] * u[0])  # distance of c from the line
            half = np.sqrt(h - miss) * np.sqrt(h + miss) / nd  # NaN where the line misses
            mid = -(r @ u) / nd
            a, b = np.maximum(mid - half, lo), mid + half
            idx = np.flatnonzero(b > a)
        if idx.size == 0:
            continue
        a, b = a[idx], b[idx]
        gx, gw = _leggauss(math.ceil(_NODES_PER_WIDTH * _ENVELOPE_CUT))
        center, radius = 0.5 * (a + b), 0.5 * (b - a)
        t = center[:, None] + radius[:, None] * gx
        vals = np.asarray(field((x0[idx][:, None, :] + t[:, :, None] * d).reshape(-1, 2)))
        with np.errstate(over="ignore", invalid="ignore"):     # refused below by name
            if vals.ndim == 2:
                vals = vals @ d
            out[idx] += (vals.reshape(t.shape) @ gw) * radius
        if not np.isfinite(out[idx]).all():
            raise DomainError(f"the integral along a line through the component of strength "
                              f"{comp.strength:g} and width {comp.width:g} overflows")
    return out


def _path_integral(alpha: float, angle, aprime):
    """alpha * angle + aprime, the integral of A along a path that sweeps angle about the flux
    line and along which A' integrates to aprime; DomainError naming the flux where the
    product or the sum overflows."""
    with np.errstate(over="ignore"):
        term = alpha * np.asarray(angle)
        total = term + aprime
    if not np.isfinite(total).all():
        plus = ", plus the integral of A' along it," if np.isfinite(term).all() else ""
        raise DomainError(f"flux alpha = {alpha:g} times the angle its path sweeps{plus} overflows")
    return total


def _aprime_parts(pot) -> list:
    """A' as (component, field) parts: swirl vectors and grad(L) gradients."""
    return ([(b, b.vector) for b in pot.bumps]
            + [(c, c.gradient) for c in pot.grad_l.components])


@dataclass(frozen=True)
class _Gaussian:
    """Envelope strength * exp(-|x - center|^2 / (2 width^2)): a finite 2-vector
    center, and a width > 0 whose square is a finite, normal float (the fields
    divide by it, none by a higher power), with 2 |strength| / width^2 finite."""

    center: tuple[float, float]
    strength: float
    width: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(errors.vector(self.center, "center").tolist()))
        object.__setattr__(self, "strength", errors.real(self.strength, "strength"))
        object.__setattr__(self, "width", errors.real(self.width, "width"))
        w2 = self.width * self.width
        if not (self.width > 0.0 and np.finfo(float).tiny <= w2 < math.inf):
            raise DomainError(f"width must be positive with a finite square of at least "
                              f"{np.finfo(float).tiny:.4g}, got {self.width}")
        if not math.isfinite(self.bound):
            raise DomainError(f"2 |strength| / width^2 overflows: {self.strength} / {self.width}^2")

    @property
    def bound(self) -> float:
        """max(|strength|, 2 |strength| / w^2): no field exceeds it (the curl at the center);
        w^2 is formed as the fields form it (x ** 2 and x * x can differ in the last bit)."""
        return max(abs(self.strength), 2.0 * (abs(self.strength) / self.width ** 2))

    def _envelope(self, x):
        """(x - center, envelope) at (n, 2) points x; both are 0 where the scaled
        squared offset overflows, so every field is 0 there."""
        with np.errstate(over="ignore"):
            d = errors.points(x) - np.asarray(self.center)
            q = (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) / (2.0 * self.width ** 2)
        d[np.isinf(q)] = 0.0
        return d, self.strength * np.exp(-q)


class GaussianBump(_Gaussian):
    """Divergence-free swirl: the curl of a Gaussian stream function."""

    def vector(self, x) -> np.ndarray:
        d, env = self._envelope(x)
        env = env / self.width ** 2
        return np.stack([-d[:, 1] * env, d[:, 0] * env], axis=1)

    def curl(self, x) -> np.ndarray:
        d, env = self._envelope(x)
        # rho2 / w^2 is 2q, finite wherever the envelope's q is; where q
        # overflows, _envelope has zeroed d
        w2 = self.width ** 2
        return env / w2 * (2.0 - (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) / w2)


class GaussianScalar(_Gaussian):
    """Gaussian scalar component for L fields and V potentials."""

    def value(self, x) -> np.ndarray:
        return self._envelope(x)[1]

    def gradient(self, x) -> np.ndarray:
        d, env = self._envelope(x)
        return -d * (env / self.width ** 2)[:, None]


def _component_configs(components) -> list[dict]:
    return [{"center": list(c.center), "strength": c.strength, "width": c.width}
            for c in components]


def _components(cls, entries) -> tuple:
    return tuple(cls(center=e["center"], strength=e["strength"], width=e["width"])
                 for e in entries)


def _parts(parts, cls, name: str) -> tuple:
    """parts as a tuple of cls instances; DomainError naming `name` otherwise."""
    try:
        out = tuple(parts)
        ok = all(isinstance(p, cls) for p in out)
    except TypeError:       # not iterable
        ok = False
    if not ok:
        raise DomainError(f"{name} must be a sequence of {cls.__name__}, got {parts!r:.80}")
    return out


@dataclass(frozen=True)
class ScalarMixture:
    """Finite sum of Gaussian scalars with analytic gradient."""

    components: tuple[GaussianScalar, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "components",
                           _parts(self.components, GaussianScalar, "components"))

    def __call__(self, x) -> np.ndarray:
        p = errors.points(x)
        return sum((c.value(p) for c in self.components), np.zeros(len(p)))

    def gradient(self, x) -> np.ndarray:
        p = errors.points(x)
        return sum((c.gradient(p) for c in self.components), np.zeros_like(p))


@dataclass(frozen=True)
class VectorPotential:
    """Flux part alpha*(-x2, x1)/|x|^2 plus smooth A' = swirls + grad(L), and V."""

    alpha: float
    bumps: tuple[GaussianBump, ...] = ()
    grad_l: ScalarMixture = ScalarMixture()
    v: ScalarMixture = ScalarMixture()
    obstacle_radius: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", errors.real(self.alpha, "flux alpha"))
        object.__setattr__(self, "obstacle_radius", errors.real(self.obstacle_radius, "R0"))
        object.__setattr__(self, "bumps", _parts(self.bumps, GaussianBump, "bumps"))
        for name, part in (("grad_l", self.grad_l), ("v", self.v)):
            if not isinstance(part, ScalarMixture):
                raise DomainError(f"{name} must be a ScalarMixture, got {part!r:.80}")
        # a sum of components stays below the sum of their bounds: A' sums the bumps
        # and grad(L) (so its check covers B, the bumps alone), V its own
        for name, comps in (("bumps and gradL", (*self.bumps, *self.grad_l.components)),
                            ("V", self.v.components)):
            if not math.isfinite(sum(c.bound for c in comps)):
                raise DomainError(f"the summed bound max(|strength|, 2 |strength| / width^2) "
                                  f"of the {name} components overflows")

    def flux_part(self, x) -> np.ndarray:
        """alpha * ((-x2, x1) / |x|^2), 0 where |x|^2 overflows; DomainError for a point whose
        |x|^2 underflows or is 0, or where the field itself overflows."""
        p = errors.points(x)
        with np.errstate(all="ignore"):     # both refusals below read the non-finite entries
            r2 = (p * p).sum(axis=1)
            field = self.alpha * (np.stack([-p[:, 1], p[:, 0]], axis=1) / r2[:, None])
        tiny = np.finfo(float).tiny
        bad = np.nonzero((r2 < tiny) | ~np.isfinite(field).all(axis=1))[0]
        if bad.size:
            why = ("its |x|^2 underflows" if r2[bad[0]] < tiny
                   else f"the field of flux alpha = {self.alpha:g} overflows there")
            raise DomainError(f"point {p[bad[0]].tolist()} is too close to the flux line: {why}")
        return field

    def aprime(self, x) -> np.ndarray:
        p = errors.points(x)
        return sum((b.vector(p) for b in self.bumps), np.zeros_like(p)) + self.grad_l.gradient(p)

    def a_total(self, x) -> np.ndarray:
        return self.flux_part(x) + self.aprime(x)

    def to_config(self) -> dict:
        return {
            "alpha": self.alpha,
            "bumps": _component_configs(self.bumps),
            "gradL": _component_configs(self.grad_l.components),
            "V": _component_configs(self.v.components),
            "R0": self.obstacle_radius,
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "VectorPotential":
        if not isinstance(cfg, dict):
            raise SchemaError(f"bad potential config: expected a JSON object, "
                              f"got {type(cfg).__name__}")
        try:
            return cls(alpha=cfg["alpha"],
                       bumps=_components(GaussianBump, cfg.get("bumps", [])),
                       grad_l=ScalarMixture(_components(GaussianScalar, cfg.get("gradL", []))),
                       v=ScalarMixture(_components(GaussianScalar, cfg.get("V", []))),
                       obstacle_radius=cfg.get("R0", 0.0))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad potential config: {exc}") from exc


def save_potential_json(pot: VectorPotential, path) -> None:
    with open(path, "w", encoding="ascii") as f:
        json.dump(pot.to_config(), f, indent=2)
        f.write("\n")


def load_potential_json(path) -> VectorPotential:
    with open(path, "r", encoding="ascii") as f:
        try:
            config = json.load(f)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:   # not ASCII, or not JSON
            raise SchemaError(f"{path}: {exc}") from exc
    return VectorPotential.from_config(config)


@dataclass(frozen=True)
class FluxResult:
    estimate: float
    sequence: tuple[float, ...]


def flux(pot: VectorPotential, radii) -> FluxResult:
    """(1/2pi) * circulation of A over circles |x| = r, reported per radius: a circle sweeps
    2pi, so each value is alpha plus the trapezoid circulation of A' over 2pi.

    The estimate is the largest-radius value; a FluxConvergenceWarning fires when
    the A' circulations at the top two radii still differ by more than 1e-3.
    """
    radii = errors.array(radii, "radii", 1)
    if radii.size == 0 or np.any(np.diff(radii) <= 0.0):
        raise DomainError("radii must be a nonempty ascending sequence")
    if radii[0] <= pot.obstacle_radius:
        raise DomainError("radii must exceed the obstacle radius")
    th = 2.0 * math.pi * np.arange(_CIRCLE_NODES) / _CIRCLE_NODES
    circle, tangent = (np.stack([np.cos(th), np.sin(th)], axis=1),
                       np.stack([-np.sin(th), np.cos(th)], axis=1))
    with np.errstate(over="ignore", invalid="ignore"):      # refused below by name
        # r * mean(A' . t), divided before the sum: 2048 terms near 1e307 sum past the floats
        circ = np.array([r * (pot.aprime(r * circle) * tangent / _CIRCLE_NODES).sum()
                         for r in radii])
        seq = pot.alpha + circ
    if not np.isfinite(seq).all():
        raise DomainError(f"the flux at radius {radii[~np.isfinite(seq)][0]:.6g} is not finite")
    if len(circ) >= 2 and abs(circ[-1] - circ[-2]) > 1e-3:
        warnings.warn(f"flux values at the top radii differ by {abs(circ[-1] - circ[-2]):.2e}",
                      FluxConvergenceWarning)
    return FluxResult(estimate=float(seq[-1]), sequence=tuple(seq.tolist()))


@dataclass(frozen=True)
class EikonalPhase:
    """Phase-correction integral along forward (+) or backward (-) rays."""

    sign: int
    potential: VectorPotential

    def __post_init__(self):
        object.__setattr__(self, "sign", errors.integer(self.sign, "sign"))
        if self.sign not in (-1, 1):
            raise DomainError(f"sign must be +1 or -1, got {self.sign!r}")
        if not isinstance(self.potential, VectorPotential):
            raise DomainError(f"potential must be a VectorPotential, got {self.potential!r:.80}")


def _ray_args(x, xi) -> tuple[np.ndarray, np.ndarray]:
    """(x, xi) as finite 2-vectors; DomainError unless they are, and xi is nonzero."""
    x, xi = errors.vector(x, "x"), errors.vector(xi, "xi")
    if not np.any(xi):
        raise DomainError("xi must be nonzero")
    return x, xi


def _phases(phase: EikonalPhase, rows: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Phi_s at each (m, 2) base point row, its region checked in order: -alpha times the angle
    the ray sweeps, less A' integrated in one pass over all rows."""
    d, pot = phase.sign * xi, phase.potential      # the ray direction
    nxi = float(np.hypot(*xi))
    angles = []
    for x in rows:
        nx = float(np.hypot(*x))
        if not (nx > DELTA_REGION and nxi > DELTA_REGION and math.isfinite(nx * nxi)):
            raise DomainError(f"|x| and |xi| must exceed {DELTA_REGION} with a finite product "
                              f"(it bounds x . xi), got {nx:.6g} and {nxi:.6g}")
        dot = float(x @ d)
        cos = dot / (nx * nxi)
        if cos < -1.0 + DELTA_REGION:
            raise DomainError(f"(x, xi) in the backward cone: sign*cos = {cos:.4f} < "
                              f"{-1 + DELTA_REGION}")
        angles.append(math.atan2(x[0] * d[1] - x[1] * d[0], dot))    # swept from x to d
    # Phi_s = -s * int_0^inf A(x + s*t*xi) . xi dt = -int_0^inf A(x + t*d) . d dt, the
    # integral of A along the ray run backwards
    return _path_integral(pot.alpha, -np.array(angles),
                          -_segment_integrals(_aprime_parts(pot), rows, d, lo=0.0))


def eikonal_phase(phase: EikonalPhase, x, xi) -> float:
    """Phi_s(x, xi) = -s * int_0^inf A(x + s*t*xi) . xi dt on the allowed region."""
    x, xi = _ray_args(x, xi)
    return float(_phases(phase, x[None], xi)[0])


def phase_gradient(phase: EikonalPhase, x, xi) -> np.ndarray:
    """Central-difference gradient of the phase in x (step h = 1e-5 * (1 + |x|)), from the
    phases at x + h e1, x - h e1, x + h e2, x - h e2."""
    x, xi = _ray_args(x, xi)
    h = 1e-5 * (1.0 + float(np.hypot(*x)))
    with np.errstate(over="ignore"):    # _phases refuses a row past the floats by name
        rows = x + h * np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    p = _phases(phase, rows, xi)
    return (p[0::2] - p[1::2]) / (2.0 * h)


def phase_gradient_check(phase: EikonalPhase, x, xi) -> float:
    """|xi . (grad_x Phi - A(x))|; zero for exact phases, <= 1e-6 here."""
    x, xi = _ray_args(x, xi)
    return abs(float(xi @ (phase_gradient(phase, x, xi) - phase.potential.a_total(x[None])[0])))


def ray_field_integral(phase: EikonalPhase, x, xi) -> float:
    """int_0^inf B(x + s*t*xi) dt along the phase ray (smooth part only)."""
    x, xi = _ray_args(x, xi)
    return float(_segment_integrals([(b, b.curl) for b in phase.potential.bumps], x[None],
                                    phase.sign * xi, lo=0.0)[0])


def gradient_formula(phase: EikonalPhase, x, xi) -> np.ndarray:
    """Closed-form gradient: (-s*xi2*I_B + A1, +s*xi1*I_B + A2), I_B the ray field integral."""
    s = phase.sign
    x, xi = _ray_args(x, xi)
    ib = ray_field_integral(phase, x, xi)
    a = phase.potential.a_total(x[None])[0]
    return np.array([-s * xi[1] * ib + a[0], s * xi[0] * ib + a[1]])
