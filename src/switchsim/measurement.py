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

from . import mat2 as m2
from .detector import DetectorParams, _TraceForms, rate_matrix
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


# QUADPACK's qk21 rule (Piessens et al., QUADPACK, 1983): the Kronrod nodes
# in (0, 1], descending, and their weights, then the weight of the node 0;
# the 10-point Gauss rule uses every second node, from the first
_KRONROD_HALF_NODES = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_KRONROD_HALF_WEIGHTS = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208048952225, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_GAUSS_HALF_WEIGHTS = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# the 21 nodes on [-1, 1] in ascending order, and the columns of weights
# whose sums give K21 and K21 - G10
_NODES = np.concatenate((np.negative(_KRONROD_HALF_NODES), [0.0], _KRONROD_HALF_NODES[::-1]))
_WEIGHTS = np.stack((np.concatenate((_KRONROD_HALF_WEIGHTS, _KRONROD_HALF_WEIGHTS[-2::-1])),) * 2, axis=1)
_WEIGHTS[1::2, 1] -= np.concatenate((_GAUSS_HALF_WEIGHTS, _GAUSS_HALF_WEIGHTS[::-1]))

_PANELS_PER_PIECE = 16
_PANEL_TOL = 1e-12  # the error allowed to all panels together, shared by width
_MAX_ROUNDS = 40
_MAX_PANELS = 1 << 12  # open panels per round: ~20 MB of trace-form temporaries


def _adaptive_kronrod(f, edges: np.ndarray) -> float:
    """Integral of f over the panels between consecutive edges, by adaptive
    Gauss-Kronrod quadrature; f maps an array of points to the integrand.

    The panels are taken in batches of at most _MAX_PANELS, which bounds
    the memory of a long range.  Each round evaluates the 21 nodes of every
    open panel of a batch in one call of f.  A panel whose |K21 - G10|
    exceeds _PANEL_TOL times its share of the whole range is halved for the
    next round; the others are accepted.  After _MAX_ROUNDS rounds, or once
    halving would open more than _MAX_PANELS panels, every open panel is
    accepted as it stands.  The summed |K21 - G10| of the accepted panels
    of all batches is the error estimate: above QUADRATURE_TOL it raises
    QuadratureFailureError, so a capped run fails rather than returning a
    poor value.
    """
    tol = _PANEL_TOL / (edges[-1] - edges[0])
    integral = err = 0.0
    for first in range(0, edges.size - 1, _MAX_PANELS):
        lo, hi = edges[:-1][first : first + _MAX_PANELS], edges[1:][first : first + _MAX_PANELS]
        for round_ in range(1, _MAX_ROUNDS + 1):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            vals = f((mid[:, None] + half[:, None] * _NODES).ravel()).reshape(-1, _NODES.size)
            kronrod, diff = (vals @ _WEIGHTS).T * half
            diff = np.abs(diff)
            split = diff > 2.0 * tol * half
            if round_ == _MAX_ROUNDS or 2 * np.count_nonzero(split) > _MAX_PANELS:
                split[:] = False  # the cap: every open panel is accepted as it stands
            done = ~split
            integral += kronrod[done].sum()
            err += diff[done].sum()
            if done.all():
                break
            lo, mid, hi = lo[split], mid[split], hi[split]
            lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
    if err > QUADRATURE_TOL:
        raise QuadratureFailureError(f"quadrature error estimate {err} above target")
    return float(integral)


# rho = sigma_k / 2 for k = x, y, z, then I / 2
_HALF_PAULIS = 0.5 * np.array([m2.SIGMA_X, m2.SIGMA_Y, m2.SIGMA_Z, m2.IDENTITY])


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
    share one eigenbasis gap.  Valid at any probe angle and energy, and for
    an unbounded pulse.  _adaptive_kronrod takes the integral up to 40/|m|,
    a closed form the rest.
    """
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    if p.gamma_L == 0.0 and p.gamma_R == 0.0:
        return 0.0  # a detector that never switches gives no information
    # half the gap of a Hermitian U^dag op U is the length of its traceless
    # part, whose Pauli components are the trace forms with rho = sigma_k / 2.
    # The sum of squares keeps a closing gap exact to rounding, where
    # sqrt((tr/2)^2 - det) would lose half the digits.  Rows: (rho, op) for
    # op = Gamma, I; the last is S(t), the survival of the mixed state.
    forms = _TraceForms(p, _HALF_PAULIS, [rate_matrix(p), m2.IDENTITY])

    def half_gap(rows, op):
        x, y, z = rows[op:6:2]
        return np.sqrt(x * x + y * y + z * z)

    at_tau = forms(float(tau))
    no_switch = float(half_gap(at_tau, 1))
    if not resolve_switch_time:
        return min(2.0 * no_switch, 1.0)

    # the integrand oscillates with period pi/|Im r| under e^{2mt}: up to
    # 40/|m| the range starts as pieces of at most 10 periods, each cut into
    # equal panels
    prop = forms.propagator
    horizon = min(tau, 40.0 / -prop.m)
    pieces = max(math.ceil(horizon * abs(prop.r.imag) / (10 * math.pi)), 1)
    edges = np.linspace(0.0, horizon, _PANELS_PER_PIECE * pieces + 1)
    if p.beta == 0.0 and p.gamma_L > 0.0 and p.gamma_R > 0.0 and p.gamma_L != p.gamma_R:
        t0 = case1_tau0(p)
        if t0 < horizon:
            edges = np.union1d(edges, t0)  # the fidelity's kink is a panel edge
    integral = _adaptive_kronrod(lambda t: half_gap(forms(t), 0), edges)
    if tau > horizon:
        # beyond 40/|m| the smaller eigenvalue of U^dag Gamma U is at most
        # ||Gamma|| sigma_min(U)^2 <= ||Gamma|| |det U| = ||Gamma|| e^{2mt},
        # below e^{-80} ||Gamma||: half the gap is half the trace, -dS/dt,
        # so the tail is S(horizon) - S(tau) to within 1e-34
        integral += forms(horizon)[-1] - at_tau[-1]
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
