"""Measurement content of a conditional evolution operator.

Any detector record maps the initial qubit state through one fixed operator
U.  Factoring U into a positive "measurement" part and a residual rotation
exposes what the record measured: the eigenbasis of U^dag U is the
measurement basis of that outcome and its eigenvalues are the outcome
probabilities per basis state.  The fidelity conventions, the numerical
outcome averaging, and the closed forms for the aligned-probe and
slow-measurement regimes live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad

from . import mat2 as m2
from .detector import DetectorParams, _half_gap, rate_matrix
from .errors import (
    DegenerateRatesError,
    FlatObjectiveError,
    QuadratureFailureError,
    WrongRegimeError,
    ZeroOutcomeProbabilityError,
    ZeroRateError,
)
from .tolerances import (
    DECOMPOSE_DEGENERATE_TOL,
    QUADRATURE_TOL,
    REGIME_FACTOR,
    ZERO_OUTCOME_TOL,
)


@dataclass(frozen=True)
class MeasurementDecomposition:
    """Outcome basis (psi1, psi2), probabilities (p1 >= p2) and the residual
    rotation with rotation @ (sqrt(p1)|psi1><psi1| + sqrt(p2)|psi2><psi2|)
    reconstructing the original operator."""

    psi1: np.ndarray
    psi2: np.ndarray
    p1: float
    p2: float
    rotation: np.ndarray
    degenerate: bool


@dataclass(frozen=True)
class FidelityCurve:
    """Fidelity sampled along a strictly increasing abscissa."""

    abscissa: np.ndarray
    fidelity: np.ndarray
    label: str = ""

    def __post_init__(self):
        x = np.asarray(self.abscissa, dtype=float)
        f = np.asarray(self.fidelity, dtype=float)
        if x.shape != f.shape or x.ndim != 1:
            raise ValueError("abscissa and fidelity must be matching 1-D arrays")
        if np.any(np.diff(x) <= 0.0):
            raise ValueError("abscissa must be strictly increasing")
        if np.any(f < -1e-12) or np.any(f > 1.0 + 1e-12):
            raise ValueError("fidelities must lie in [0, 1]")
        object.__setattr__(self, "abscissa", x)
        object.__setattr__(self, "fidelity", np.clip(f, 0.0, 1.0))


def _orthogonal_complement(w: np.ndarray) -> np.ndarray:
    return np.array([-w[1].conjugate(), w[0].conjugate()], dtype=complex)


def decompose(u: np.ndarray) -> MeasurementDecomposition:
    """Split U into rotation times positive measurement operator.

    The measurement part depends on U only through U^dag U.  When the two
    outcome probabilities coincide the basis is arbitrary; the canonical
    basis is returned with the degenerate flag set, and consumers must
    branch on the flag rather than interpret the basis.
    """
    u = np.asarray(u, dtype=complex)
    if not np.all(np.isfinite(u.view(float))):
        raise ValueError("operator entries must be finite")
    eig = m2.hermitian_eig(m2.dag(u) @ u)
    p1 = max(eig.eval_hi, 0.0)
    p2 = max(eig.eval_lo, 0.0)
    degenerate = eig.degenerate or (p1 - p2) <= DECOMPOSE_DEGENERATE_TOL * p1
    if degenerate:
        psi1, psi2 = m2.KET_0.copy(), m2.KET_1.copy()
    else:
        psi1, psi2 = eig.evec_hi, eig.evec_lo

    # Columns of the rotation: images of the basis under U, renormalized;
    # zero-probability directions are completed orthogonally.  A probability
    # at or below the floor is rounding noise of a rank-deficient U^dag U,
    # so it is set to zero to keep reconstruct exact.
    floor = 1e-14 * max(p1, 1e-300)
    if p1 > floor:
        w1 = u @ psi1 / math.sqrt(p1)
        w1 = w1 / np.linalg.norm(w1)
    else:
        w1, p1 = m2.KET_0.copy(), 0.0
    if p2 > floor:
        w2 = u @ psi2 / math.sqrt(p2)
        w2 = w2 - np.vdot(w1, w2) * w1
        nrm = np.linalg.norm(w2)
        w2 = w2 / nrm if nrm > 1e-14 else _orthogonal_complement(w1)
    else:
        w2, p2 = _orthogonal_complement(w1), 0.0
    rotation = np.outer(w1, psi1.conj()) + np.outer(w2, psi2.conj())
    return MeasurementDecomposition(psi1, psi2, p1, p2, rotation, degenerate)


def reconstruct(d: MeasurementDecomposition) -> np.ndarray:
    """rotation @ measurement operator; inverse of decompose."""
    meas = math.sqrt(d.p1) * m2.projector(d.psi1) + math.sqrt(d.p2) * m2.projector(d.psi2)
    return d.rotation @ meas


def outcome_fidelity(d: MeasurementDecomposition) -> float:
    """(p1 - p2)/(p1 + p2): excess probability of a correct inference.

    Zero when the outcome carries no information, one for perfect
    discrimination.
    """
    total = d.p1 + d.p2
    if total <= ZERO_OUTCOME_TOL:
        raise ZeroOutcomeProbabilityError("both outcome probabilities vanish")
    if d.degenerate:
        return 0.0
    return (d.p1 - d.p2) / total


def overall_fidelity_numeric(
    p: DetectorParams, tau: float, resolve_switch_time: bool = True
) -> float:
    """Outcome-averaged fidelity of a pulse of duration tau.

    With switch-time resolution, each switching instant contributes its own
    fidelity weighted by its occurrence probability (for the maximally
    mixed input the weighted integrand reduces to half the eigenvalue gap
    of the per-time switching matrix U^dag Gamma U); the no-switch record
    adds half the gap of U^dag U.  Without resolution only "switched during
    the pulse" vs "did not" is known, and the two measurement matrices
    share one eigenbasis gap.  Valid at any probe angle and energy.
    """
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    if p.gamma_L == 0.0 and p.gamma_R == 0.0:
        return 0.0  # a detector that never switches gives no information
    no_switch = _half_gap(p, m2.IDENTITY)(float(tau))
    if not resolve_switch_time:
        return min(2.0 * no_switch, 1.0)

    integrand = _half_gap(p, rate_matrix(p))
    # the integrand oscillates with period pi/|Im r| under e^{2mt}, and quad
    # loses its accuracy over many periods: up to 40/|m| it runs in pieces
    # of at most 10 (and at most 1000 pieces), then once over the tail
    horizon = min(tau, 40.0 / -integrand.propagator.m)
    n = min(max(math.ceil(horizon * abs(integrand.propagator.r.imag) / (10 * math.pi)), 1), 1000)
    pieces = [horizon * k / n for k in range(n)] + [horizon] + ([tau] if tau > horizon else [])
    if p.beta == 0.0 and p.gamma_L > 0.0 and p.gamma_R > 0.0 and p.gamma_L != p.gamma_R:
        t0 = case1_tau0(p)
        if t0 < tau:
            # fidelity kink: split the quadrature there, by hand, as quad
            # takes no break points on an infinite range
            pieces = sorted({*pieces, t0})
    integral = err = 0.0
    for lo, hi in zip(pieces, pieces[1:]):
        part, part_err = quad(integrand, lo, hi, limit=300, epsabs=1e-12, epsrel=1e-12)
        integral += part
        err += part_err
    if err > QUADRATURE_TOL:
        raise QuadratureFailureError(f"quadrature error estimate {err} above target")
    return min(integral + no_switch, 1.0)


def two_rate_overall_fidelity(rate_a: float, rate_b: float) -> float:
    """Best average fidelity of a two-rate switching readout.

    Equals the pulse fidelity e^{-g_lo t} - e^{-g_hi t} at its optimal
    duration; reaches one when the slow rate vanishes, zero for equal
    rates.
    """
    lo, hi = sorted((float(rate_a), float(rate_b)))
    if lo < 0.0:
        raise ValueError("rates must be >= 0")
    if hi <= 0.0:
        return 0.0
    if math.isclose(lo, hi, rel_tol=1e-15):
        return 0.0
    if lo == 0.0:
        return 1.0
    ratio = hi / lo
    return ratio ** (-lo / (hi - lo)) - ratio ** (-hi / (hi - lo))


def case1_tau0(p: DetectorParams) -> float:
    """Switching time at which the aligned-probe fidelity vanishes:
    (log gR - log gL)/(gR - gL).  Also the optimal pulse duration."""
    if p.gamma_L <= 0.0 or p.gamma_R <= 0.0:
        raise ZeroRateError("tau0 requires both rates positive")
    if p.gamma_L == p.gamma_R:
        raise DegenerateRatesError("tau0 undefined for equal rates")
    return (math.log(p.gamma_R) - math.log(p.gamma_L)) / (p.gamma_R - p.gamma_L)


def case1_switch_fidelity(p: DetectorParams, t: float) -> float:
    """Fidelity of a switching event at time t for an aligned probe:
    |gL e^{-gL t} - gR e^{-gR t}| / (gL e^{-gL t} + gR e^{-gR t})."""
    if p.beta != 0.0:
        raise WrongRegimeError("closed form requires beta = 0")
    if not t >= 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    a = p.gamma_L * math.exp(-p.gamma_L * t)
    b = p.gamma_R * math.exp(-p.gamma_R * t)
    if a + b <= ZERO_OUTCOME_TOL:
        raise ZeroOutcomeProbabilityError("switching probability vanished")
    return abs(a - b) / (a + b)


def case1_pulse_fidelity(p: DetectorParams, tau: float) -> float:
    """Overall fidelity when only switched-or-not is read out after tau:
    |e^{-gL tau} - e^{-gR tau}|; maximal at tau0."""
    if p.beta != 0.0:
        raise WrongRegimeError("closed form requires beta = 0")
    if not tau >= 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    return abs(math.exp(-p.gamma_L * tau) - math.exp(-p.gamma_R * tau))


def _check_slow_regime(p: DetectorParams, override_regime: bool) -> None:
    if not override_regime and p.E < REGIME_FACTOR * p.gamma_plus:
        raise WrongRegimeError(
            f"slow-measurement closed forms need E >= {REGIME_FACTOR} * gamma_plus "
            f"(E={p.E}, gamma_plus={p.gamma_plus}); pass override_regime=True to force"
        )


class Case3Basis(NamedTuple):
    """Per-switching-time measurement axis and outcome-probability split.

    theta is the acute angle between the measurement axis and the energy
    axis (theta(0) = beta for beta <= pi/2, decaying to zero once the probe
    information is overwhelmed); phi the accumulated azimuth; p_sum/p_diff
    the outcome-probability sum and absolute difference per unit switch
    window; denominator the signed axis z-component whose zero crossing
    marks the axis passing the equator.
    """

    theta: float
    phi: float
    p_sum: float
    p_diff: float
    denominator: float


def effective_precession(p: DetectorParams) -> float:
    """Slow-regime azimuthal rate of the measurement basis:
    E - gamma_minus^2 sin^2(beta) / (2 E).

    This is the second-order expansion of the imaginary part of the
    generator's eigenvalue split, Re sqrt(E^2 - gamma_minus^2
    - 2i E gamma_minus cos(beta)); at beta = pi/2 it is the expansion of
    sqrt(E^2 - gamma_minus^2).  The exact basis azimuth also carries an
    O(gamma / E) displacement about this secular advance, which the
    leading-order closed form leaves out.
    """
    if p.E <= 0.0:
        raise WrongRegimeError("effective precession undefined for E = 0")
    return p.E - (p.gamma_minus * math.sin(p.beta)) ** 2 / (2.0 * p.E)


def case3_basis(
    p: DetectorParams, t: float, override_regime: bool = False
) -> Case3Basis:
    """Slow-measurement (E >> gamma) closed form for the outcome at time t."""
    _check_slow_regime(p, override_regime)
    if not t >= 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    g = p.gamma_minus * math.cos(p.beta)
    c2 = math.cos(0.5 * p.beta) ** 2
    s2 = math.sin(0.5 * p.beta) ** 2
    ep, em = math.exp(g * t), math.exp(-g * t)
    num = (p.gamma_L - p.gamma_R) * math.sin(p.beta)
    den = p.gamma_L * (ep * c2 - em * s2) + p.gamma_R * (ep * s2 - em * c2)
    theta = math.atan2(abs(num), abs(den))
    decay = math.exp(-p.gamma_plus * t)
    p_sum = decay * (
        p.gamma_L * (ep * c2 + em * s2) + p.gamma_R * (ep * s2 + em * c2)
    )
    p_diff = decay * math.hypot(num, den)
    return Case3Basis(theta, effective_precession(p) * t, p_sum, p_diff, den)


def case3_pulse_fidelity(
    p: DetectorParams, tau: float, override_regime: bool = False
) -> float:
    """Energy-eigenbasis fidelity of an unresolved pulse in the slow regime:
    |e^{-(g+ - g- cos b) tau} - e^{-(g+ + g- cos b) tau}|."""
    _check_slow_regime(p, override_regime)
    if not tau >= 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    g = p.gamma_minus * math.cos(p.beta)
    return abs(
        math.exp(-(p.gamma_plus - g) * tau) - math.exp(-(p.gamma_plus + g) * tau)
    )


def case3_max_fidelity(
    p: DetectorParams, override_regime: bool = False
) -> tuple[float, float]:
    """Optimal pulse duration and maximal unresolved fidelity, slow regime.

    At beta = pi/2 the pulse fidelity is identically zero and the
    continuous limit (tau -> 1/gamma_plus, F -> 0) is returned; for equal
    rates the objective is flat at zero everywhere and no optimum exists.
    """
    _check_slow_regime(p, override_regime)
    gp = p.gamma_plus
    if gp <= 0.0:
        raise FlatObjectiveError("no switching at all; fidelity identically zero")
    x = abs(p.gamma_minus * math.cos(p.beta))
    if x < 1e-14 * gp:
        if abs(p.gamma_minus) < 1e-14 * gp:
            raise FlatObjectiveError("equal rates: fidelity identically zero")
        return 1.0 / gp, 0.0
    if gp - x <= 1e-14 * gp:
        # one rate vanishes with an aligned probe: no false switches, so
        # waiting forever discriminates perfectly
        return math.inf, 1.0
    tau_opt = math.log((gp + x) / (gp - x)) / (2.0 * x)
    r = (gp - x) / (gp + x)
    f_max = r ** ((gp - x) / (2.0 * x)) - r ** ((gp + x) / (2.0 * x))
    return tau_opt, f_max


def slow_regime_max_fidelity_curve(
    gamma_R: float, betas: np.ndarray, override_regime: bool = True
) -> FidelityCurve:
    """Maximal unresolved-pulse fidelity versus probe angle for a one-sided
    detector (gamma_L = 0); the slow-regime closed form is angle-only."""
    vals = []
    for b in np.asarray(betas, dtype=float):
        params = DetectorParams(0.0, gamma_R, float(b), 0.0)
        _, f = case3_max_fidelity(params, override_regime=override_regime)
        vals.append(min(f, 1.0))
    return FidelityCurve(np.asarray(betas, dtype=float), np.asarray(vals), "beta")
