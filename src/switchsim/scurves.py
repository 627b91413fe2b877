"""S-curves: switching probability versus readout bias, per qubit state.

The bare detector switches with rate-times-duration e^{s(x-2)} or e^{s x}
depending on which probe state the qubit occupies (x is the dimensionless
readout bias, s the device steepness).  Near the qubit's degeneracy point
the energy eigenstates are probe-state mixtures and the S-curves for them
depend on how the detector operates:

- strong coupling averages the switching *probabilities*,
- a weakly coupled incoherent detector averages the *rates*,
- a weakly coupled coherent detector averages the *bias* itself.

The maximal vertical separation between the two S-curves bounds the
readout fidelity; sweeping it against the probe angle reproduces each
detector type's fidelity law.  For every kind that separation is
f |e^{-c0 A} - e^{-c1 A}| with A = pulse e^{s x}, so its bias optimum and
peak value are closed forms (`max_separation`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .measurement import FidelityCurve, two_rate_overall_fidelity

KINDS = ("strong", "weak_incoherent", "weak_coherent")

# bias displacement between the two probe states' S-curves
BIAS_OFFSET = 2.0

DEFAULT_STEEPNESS = 5.0
DEFAULT_X_RANGE = (-1.0, 3.0, 201)


@dataclass(frozen=True)
class SCurveSpec:
    """Detector kind, probe-state mixing weight |<L|0>|^2, bias sweep and
    device steepness; `pulse` rescales the fixed rate-duration products."""

    detector_kind: str
    mixing_p: float = 0.7
    x_range: tuple[float, float, int] = DEFAULT_X_RANGE
    steepness: float = DEFAULT_STEEPNESS
    pulse: float = 1.0

    def __post_init__(self):
        lo, hi, n = self.x_range
        if not n >= 2:
            raise ValueError(f"x_range needs n >= 2 points, got {n}")
        _check_inputs(
            self.detector_kind, self.mixing_p, self.steepness, self.pulse, (lo, hi)
        )


def _check_inputs(
    kind: str,
    mixing_p: float,
    steepness: float,
    pulse: float,
    x_range: tuple[float, float],
) -> None:
    """Reject what no S-curve is defined for: an unknown kind, a mixing
    weight outside [0, 1], a steepness or pulse that is not finite and
    positive, or a bias range without finite hi > lo."""
    if kind not in KINDS:
        raise ValueError(f"detector_kind must be one of {KINDS}")
    if not 0.0 <= mixing_p <= 1.0:
        raise ValueError(f"mixing_p must lie in [0, 1], got {mixing_p}")
    for name, v in (("steepness", steepness), ("pulse", pulse)):
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {v}")
    lo, hi = x_range
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise ValueError(f"x_range needs finite hi > lo, got {x_range}")


@dataclass(frozen=True)
class SCurvePoint:
    x: float
    pL: float
    pR: float
    p0: float
    p1: float


def bare_rates(x: float, steepness: float = DEFAULT_STEEPNESS) -> tuple[float, float]:
    """Rate-duration products of the two probe states at bias x:
    (e^{s(x-2)}, e^{s x})."""
    return math.exp(steepness * (x - BIAS_OFFSET)), math.exp(steepness * x)


def _switch_prob(rate_t: float, pulse: float) -> float:
    return -math.expm1(-rate_t * pulse)


def _state_probs(kind: str, m: float, x: float, steepness: float, pulse: float):
    """Switching probabilities (p0, p1) of the energy eigenstates at bias x."""
    g_l, g_r = bare_rates(x, steepness)
    if kind == "strong":
        p_l = _switch_prob(g_l, pulse)
        p_r = _switch_prob(g_r, pulse)
        return m * p_l + (1.0 - m) * p_r, (1.0 - m) * p_l + m * p_r
    if kind == "weak_incoherent":
        return (
            _switch_prob(m * g_l + (1.0 - m) * g_r, pulse),
            _switch_prob((1.0 - m) * g_l + m * g_r, pulse),
        )
    # weak_coherent: the bias itself is averaged, and the rates follow
    x0 = x - BIAS_OFFSET * m
    x1 = x - BIAS_OFFSET * (1.0 - m)
    return (
        _switch_prob(math.exp(steepness * x0), pulse),
        _switch_prob(math.exp(steepness * x1), pulse),
    )


def scurve(spec: SCurveSpec) -> list[SCurvePoint]:
    """Sample the four S-curves (bare L/R and eigenstate 0/1) over the bias
    sweep."""
    lo, hi, n = spec.x_range
    points = []
    for x in np.linspace(lo, hi, n):
        x = float(x)
        g_l, g_r = bare_rates(x, spec.steepness)
        p0, p1 = _state_probs(
            spec.detector_kind, spec.mixing_p, x, spec.steepness, spec.pulse
        )
        points.append(
            SCurvePoint(
                x=x,
                pL=_switch_prob(g_l, spec.pulse),
                pR=_switch_prob(g_r, spec.pulse),
                p0=p0,
                p1=p1,
            )
        )
    return points


def _rate_factors(kind: str, m: float, steepness: float) -> tuple[float, float, float]:
    """(c0, c1, f): the eigenstates switch with probability 1 - e^{-c A}
    at A = pulse e^{s x} (for `strong`, up to the common weights that scale
    their separation by f = |2m - 1|)."""
    low = math.exp(-BIAS_OFFSET * steepness)
    if kind == "strong":
        return low, 1.0, abs(2.0 * m - 1.0)
    if kind == "weak_incoherent":
        return m * low + 1.0 - m, (1.0 - m) * low + m, 1.0
    return (
        math.exp(-BIAS_OFFSET * steepness * m),
        math.exp(-BIAS_OFFSET * steepness * (1.0 - m)),
        1.0,
    )


def max_separation(
    kind: str,
    mixing_p: float,
    steepness: float = DEFAULT_STEEPNESS,
    pulse: float = 1.0,
    x_range: tuple[float, float] = (DEFAULT_X_RANGE[0], DEFAULT_X_RANGE[1]),
) -> float:
    """Largest vertical separation |p1 - p0| over the bias sweep.

    The separation f |e^{-c0 A} - e^{-c1 A}| is unimodal in A = pulse e^{s x}
    with its peak at A* = ln(c1/c0)/(c1 - c0), where it equals f times the
    two-rate fidelity of (c0, c1).  When A* falls outside the sweep, the
    nearer end of the range is the maximum.
    """
    _check_inputs(kind, mixing_p, steepness, pulse, x_range)
    lo, hi = x_range
    c0, c1, scale = _rate_factors(kind, mixing_p, steepness)
    if scale == 0.0 or c0 == c1:
        return 0.0
    a_peak = math.log(c1 / c0) / (c1 - c0) if c0 > 0.0 and c1 > 0.0 else math.inf
    x_peak = math.log(a_peak / pulse) / steepness
    if lo <= x_peak <= hi:
        return scale * two_rate_overall_fidelity(c0, c1)
    p0, p1 = _state_probs(kind, mixing_p, min(max(x_peak, lo), hi), steepness, pulse)
    return abs(p1 - p0)


def max_fidelity_vs_beta(
    kind: str,
    beta_grid: Sequence[float],
    steepness: float = DEFAULT_STEEPNESS,
    pulse: float = 1.0,
    x_range: tuple[float, float] = (DEFAULT_X_RANGE[0], DEFAULT_X_RANGE[1]),
) -> FidelityCurve:
    """Readout fidelity (max S-curve separation, bias-optimized) versus the
    probe angle, with mixing weight cos^2(beta/2)."""
    betas = np.asarray(beta_grid, dtype=float)
    fids = np.array(
        [
            max_separation(
                kind, math.cos(0.5 * b) ** 2, steepness, pulse, x_range
            )
            for b in betas
        ]
    )
    return FidelityCurve(betas, fids, "beta")


def write_scurve_csv(points: Sequence[SCurvePoint], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,pL,pR,p0,p1\n")
        for pt in points:
            row = ",".join(
                repr(float(v)) for v in (pt.x, pt.pL, pt.pR, pt.p0, pt.p1)
            )
            fh.write(row + "\n")


def write_fidelity_csv(curve: FidelityCurve, path, label: str = "beta") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{label},fidelity\n")
        for x, f in zip(curve.abscissa, curve.fidelity):
            fh.write(f"{repr(float(x))},{repr(float(f))}\n")
