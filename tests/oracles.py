"""Independent reference implementations used only to cross-check the
package.  These deliberately take different computational routes from the
code under test."""

import math

import numpy as np
from scipy.integrate import quad

from switchsim import detector as det
from switchsim import mat2 as m2
from switchsim import measurement as meas
from switchsim.detector import DetectorParams


def u_ns_half_angle_form(p: DetectorParams, t: float) -> np.ndarray:
    """No-switch propagator via the half-angle parametrization.

    Writes the traceless part of the generator as mu*(cos(eta) sz + sin(eta) sx)
    with a complex mixing angle eta, and assembles the propagator from
    cos^2(eta/2), sin^2(eta/2) weights.  Only valid away from the defective
    point mu = 0.
    """
    gp, gm = p.gamma_plus, p.gamma_minus
    a = 0.5j * p.E + 0.5 * gm * np.cos(p.beta)
    b = 0.5 * gm * np.sin(p.beta)
    mu = np.sqrt(a * a + b * b)  # principal branch
    if abs(mu) == 0.0:
        raise ValueError("defective generator; half-angle form undefined")
    lam_hi = -0.5 * gp + mu
    lam_lo = -0.5 * gp - mu
    cos_eta = a / mu
    sin_eta = b / mu
    c2 = 0.5 * (1.0 + cos_eta)  # cos^2(eta/2)
    s2 = 0.5 * (1.0 - cos_eta)  # sin^2(eta/2)
    sc = 0.5 * sin_eta          # sin(eta/2) cos(eta/2)
    e_hi = np.exp(lam_hi * t)
    e_lo = np.exp(lam_lo * t)
    return np.array(
        [
            [c2 * e_hi + s2 * e_lo, sc * (e_hi - e_lo)],
            [sc * (e_hi - e_lo), s2 * e_hi + c2 * e_lo],
        ],
        dtype=complex,
    )


def u_ns_stepped(p: DetectorParams, t: float, n_steps: int) -> np.ndarray:
    """Discretized no-switch propagator: n alternating free/no-switch steps,
    first-order accurate in t/n."""
    step = t / n_steps
    return np.linalg.matrix_power(det.u_ham(p, step) @ det.p_no_switch(p, step), n_steps)


def stepped_switch_times(p: DetectorParams, rho0: np.ndarray, cfg, dt: float):
    """First-order stepped sampler: (switch times, no-switch count).

    The pulse is cut into ceil(tau/dt) equal steps.  Conditioned on no
    switch, every trajectory carries the same state, so one chain of
    per-step switch probabilities serves the ensemble.  Trajectory i draws
    one uniform per step from its own Philox(seed) substream (counter word
    3 = 1 + i) and switches in the first step whose uniform falls below
    that step's probability, reported at the step midpoint.
    """
    n_steps = max(int(math.ceil(cfg.tau / dt)), 1)
    dt = cfg.tau / n_steps
    gam = det.rate_matrix(p)
    step_op = det.u_ham(p, dt) @ det.p_no_switch(p, dt)
    rho = np.asarray(rho0, dtype=complex)
    probs = np.empty(n_steps)
    for k in range(n_steps):
        probs[k] = dt * m2.trace(gam @ rho).real
        rho = step_op @ rho @ m2.dag(step_op)
        rho = rho / m2.trace(rho).real
    times = []
    for i in range(cfg.n_traj):
        bits = np.random.Philox(key=np.uint64(cfg.seed), counter=[0, 0, 0, 1 + i])
        hit = np.flatnonzero(np.random.Generator(bits).random(n_steps) < probs)
        if hit.size:
            times.append((hit[0] + 0.5) * dt)
    return np.array(times), cfg.n_traj - len(times)


def model_density_slow_form(p: DetectorParams, b, t: float) -> float:
    """Slow-regime (E >> gamma_plus) closed form of the switching-time
    density for Bloch vector b: the coherence terms carry the full
    gamma_minus sin(beta) weight and precess at effective_precession(p)."""
    gp, gm = p.gamma_plus, p.gamma_minus
    g = gm * math.cos(p.beta)
    e_eff = meas.effective_precession(p)
    r00 = 0.5 * (1.0 - b.z)
    r11 = 0.5 * (1.0 + b.z)
    val = (
        r00 * math.exp(g * t) * (gp - g)
        + r11 * math.exp(-g * t) * (gp + g)
        - gm
        * math.sin(p.beta)
        * (b.x * math.cos(e_eff * t) + b.y * math.sin(e_eff * t))
    )
    return math.exp(-gp * t) * max(val, 0.0)


def basis_azimuth(p: DetectorParams, ts: np.ndarray) -> np.ndarray:
    """Azimuth about the energy axis of the exact measurement basis
    (decompose(u_s(p, t, 1e-4)).psi1) at each time, in (-pi, pi]."""
    azs = []
    for t in ts:
        v = meas.decompose(det.u_s(p, float(t), 1e-4)).psi1
        ratio = v[1] / v[0]
        azs.append(math.atan2(ratio.imag, ratio.real))
    return np.array(azs)


def azimuth_displacement(
    p: DetectorParams, ts: np.ndarray, phi: np.ndarray
) -> np.ndarray:
    """First-order displacement of the basis azimuth about its secular
    advance phi(t): az(t) - az(0) = phi + [2 gamma_plus - S(t) cos(phi)] / (2E)
    + O((gamma/E)^2).

    The azimuth of the top eigenvector of M = U^dag Gamma U is arg M_10.
    Expanding U = exp(G t) over the eigenvectors of G, which lean from the
    energy states by -i gamma_minus sin(beta) / (2E), leaves beside the
    rotating term Gamma_01 e^{i phi} the two O(gamma/E) terms that make up
    the displacement, with S(t) = A e^{g t} + C e^{-g t}, A = Gamma_00,
    C = Gamma_11 and g = gamma_minus cos(beta) (S(0) = 2 gamma_plus).
    """
    g = p.gamma_minus * math.cos(p.beta)
    a = p.gamma_plus - g
    c = p.gamma_plus + g
    s = a * np.exp(g * ts) + c * np.exp(-g * ts)
    return (2.0 * p.gamma_plus - s * np.cos(phi)) / (2.0 * p.E)


def integrate_matrix(fn, lo: float, hi: float, **kw):
    """Entrywise adaptive quadrature of a Hermitian-matrix-valued function.

    Returns (matrix, max reported error)."""
    out = np.zeros((2, 2), dtype=complex)
    max_err = 0.0
    v00, e1 = quad(lambda s: fn(s)[0, 0].real, lo, hi, **kw)
    v11, e2 = quad(lambda s: fn(s)[1, 1].real, lo, hi, **kw)
    v01r, e3 = quad(lambda s: fn(s)[0, 1].real, lo, hi, **kw)
    v01i, e4 = quad(lambda s: fn(s)[0, 1].imag, lo, hi, **kw)
    out[0, 0] = v00
    out[1, 1] = v11
    out[0, 1] = v01r + 1j * v01i
    out[1, 0] = v01r - 1j * v01i
    max_err = max(e1, e2, e3, e4)
    return out, max_err


def bisect_survival(surv, u: np.ndarray, tau: float) -> np.ndarray:
    """Solve S(t) = u for each u in (S(tau), S(0)] on [0, tau] by bisection
    to 1e-10 tau: the reference for the sampler's inversion."""
    lo = np.zeros_like(u)
    hi = np.full_like(u, tau)
    for _ in range(200):
        if np.max(hi - lo) <= 1e-10 * tau:
            break
        mid = 0.5 * (lo + hi)
        above = surv(mid) >= u
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return 0.5 * (lo + hi)
