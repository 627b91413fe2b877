"""Independent reference implementations used only to cross-check the
package.  These deliberately take different computational routes from the
code under test."""

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.optimize import least_squares

from switchsim import detector as det
from switchsim import mat2 as m2
from switchsim import measurement as meas
from switchsim import scurves as sc
from switchsim import tomography as tomo
from switchsim import trajectory as traj
from switchsim.detector import DetectorParams
from switchsim.errors import BisectionFailureError
from switchsim.tolerances import FIT_GRADIENT_TOL, HERMITIAN_TOL, INVERSION_RESIDUAL_TOL, INVERSION_STEP_REL_TOL

# Norm or trace below which a state cannot be normalized.
ZERO_TRACE_TOL = 1e-15


def mat2(a00, a01, a10, a11) -> np.ndarray:
    """Assemble a complex 2x2 matrix from its four entries."""
    m = np.array([[a00, a01], [a10, a11]], dtype=complex)
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix entries must be finite")
    return m


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    return bool(np.max(np.abs(m - m2.dag(m))) <= tol * max(1.0, m2.norm2(m)))


def pure_state(c0, c1) -> np.ndarray:
    """Build a normalized pure state, fixing the global phase convention."""
    psi = np.array([c0, c1], dtype=complex)
    nrm = np.linalg.norm(psi)
    if not np.isfinite(nrm) or nrm <= ZERO_TRACE_TOL:
        raise ValueError("state amplitudes must be finite and not all zero")
    return m2.normalize_phase(psi / nrm)


def purity(rho: np.ndarray) -> float:
    """Information content of a state: sqrt(2 Tr(rho_n^2) - 1) in [0, 1].

    The state is trace-normalized first, so sub-normalized conditional
    states are handled transparently.  One is returned exactly for rank-1
    states, zero for the maximally mixed state.
    """
    tr = m2.trace(rho).real
    if tr <= ZERO_TRACE_TOL:
        raise ValueError("cannot normalize a zero-trace density matrix")
    rho_n = np.asarray(rho, dtype=complex) / tr
    val = 2.0 * m2.trace(rho_n @ rho_n).real - 1.0
    return float(np.sqrt(min(max(val, 0.0), 1.0)))


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


def exp_slopes(p: DetectorParams, rho: np.ndarray, t: float, names) -> np.ndarray:
    """Derivatives of the survival and density trace forms,
    (Tr{U^dag U rho}, Tr{U^dag Gamma U rho}), in each named parameter at
    time t, shape (len(names), 2).

    dU, the slope of U = exp(G t) along G', takes the Daleckii-Krein form
    V (F o (V^-1 G' V)) V^-1 over G = V diag(lam) V^-1, F the divided
    differences of exp(lam t) (Daleckii & Krein, AMS Transl. 47, 1965),
    where V is well conditioned.  Near the exceptional point, where it is
    not, dU is the upper-right block of the Van Loan exponential
    expm([[G, G'], [0, G]] t) = [[U, dU], [0, U]] (Van Loan, IEEE TAC 23,
    1978), whose rounding grows with |G| t.  Then d Tr{U^dag op U rho} =
    2 Re Tr(rho U^dag op dU) + Tr{U^dag op' U rho}, with
    Gamma' = -(G' + G'^dag).
    """
    g, gam = det.generator(p), det.rate_matrix(p)
    lam, v = np.linalg.eig(g)
    eigen = np.linalg.cond(v) <= 10.0
    if eigen:
        v_inv = np.linalg.inv(v)
        e = np.exp(lam * t)
        # (e^{lam_b t} - e^{lam_a t}) / (lam_b - lam_a) from the mode a that
        # decays slower, so that expm1 cannot overflow; at a tiny gap
        # (zero or subnormal, where dividing by it overflows) expm1(x) / d
        # is t (1 + x/2 + x^2/6), off by |x|^3 / 24 relative
        a = int(lam[1].real > lam[0].real)
        d = lam[1 - a] - lam[a]
        x = d * t
        if abs(x) < 1e-5:
            f01 = t * e[a] * (1.0 + x / 2.0 + x * x / 6.0)
        else:
            f01 = e[a] * np.expm1(x) / d
        f = np.array([[t * e[0], f01], [f01, t * e[1]]])
        u = v @ np.diag(e) @ v_inv
    out = []
    for g_dot in det._generator_slopes([p], names)[0]:
        if eigen:
            du = v @ (f * (v_inv @ g_dot @ v)) @ v_inv
        else:
            block = np.zeros((4, 4), dtype=complex)
            block[:2, :2] = block[2:, 2:] = g
            block[:2, 2:] = g_dot
            e_block = expm(block * t)
            u, du = e_block[:2, :2], e_block[:2, 2:]
        gam_dot = -(g_dot + m2.dag(g_dot))
        out.append([
            2.0 * m2.trace(rho @ m2.dag(u) @ du).real,
            2.0 * m2.trace(rho @ m2.dag(u) @ gam @ du).real + m2.trace(m2.dag(u) @ gam_dot @ u @ rho).real,
        ])
    return np.array(out)


def continuous_information(p: DetectorParams, free) -> np.ndarray:
    """The switching times' Poisson information in the free names, as
    identifiability formed it before it took survival cells: a Riemann sum
    of the density's, d' d'^T / d times t_max / n over n times spanning
    [0, t_max], plus the survival's at t_max, s' s'^T / s.  It has
    identifiability's t_max, n, state (0.25, 0.25, 0.25) and per-relative
    scales; the traces come from scipy's expm, the detector parameters'
    slopes from exp_slopes."""
    t_max = 5.0 / max(p.gamma_plus, 1e-12) if p.gamma_plus > 0 else 5.0
    n = int(min(max(256.0, 16.0 * max(p.E, 1.0) * t_max / (2.0 * math.pi)), 8192.0))
    b0 = tomo.BlochComponents(0.25, 0.25, 0.25)
    # rho0 and the traceless parts of the three Bloch directions
    rhos = [b0.to_density()] + [
        tomo.BlochComponents(*e).to_density() - 0.5 * np.eye(2) for e in np.eye(3)
    ]
    params = [name for name in free if name in tomo.PARAM_NAMES]
    values = {**vars(b0), **vars(p)}
    scales = np.array([max(abs(values[name]), 0.1) for name in free])
    g, gam = det.generator(p), det.rate_matrix(p)

    def columns(t):
        """(S, d) of rho0, and the free names' (S', d') at t, scaled."""
        u = expm(g * t)
        forms = [[m2.trace(m2.dag(u) @ op @ u @ rho).real for op in (np.eye(2), gam)] for rho in rhos]
        slopes = dict(zip(("x", "y", "z"), forms[1:]))
        if params:
            slopes.update(zip(params, exp_slopes(p, rhos[0], t, params)))
        return np.array(forms[0]), np.array([slopes[name] for name in free]) * scales[:, None]

    info = np.zeros((len(free), len(free)))
    for t in np.linspace(0.0, t_max, n):
        (_, d0), jac = columns(t)
        info += np.outer(jac[:, 1], jac[:, 1]) / max(d0, 1e-12) * (t_max / n)
    (s0, _), jac = columns(t_max)
    return info + np.outer(jac[:, 0], jac[:, 0]) / max(s0, 1e-12)


def p_no_switch(p: DetectorParams, dt: float) -> np.ndarray:
    """No-switch operator sqrt(1-gL dt)|L><L| + sqrt(1-gR dt)|R><R|.

    The exact square-root form is used rather than its first-order
    expansion: it satisfies p_switch^2 + p_no_switch^2 = identity at any
    admissible step size, not just asymptotically.
    """
    det._check_step(p, dt)
    basis = det.probe_basis(p)
    return math.sqrt(1.0 - p.gamma_L * dt) * np.outer(basis.L, basis.L.conj()) + math.sqrt(
        1.0 - p.gamma_R * dt
    ) * np.outer(basis.R, basis.R.conj())


def u_ham(p: DetectorParams, dt: float) -> np.ndarray:
    """Free-evolution unitary diag(e^{iE dt/2}, e^{-iE dt/2})."""
    phase = 0.5 * p.E * dt
    return np.array(
        [[np.exp(1j * phase), 0.0], [0.0, np.exp(-1j * phase)]], dtype=complex
    )


def u_ns_stepped(p: DetectorParams, t: float, n_steps: int) -> np.ndarray:
    """Discretized no-switch propagator: n alternating free/no-switch steps,
    first-order accurate in t/n."""
    step = t / n_steps
    return np.linalg.matrix_power(u_ham(p, step) @ p_no_switch(p, step), n_steps)


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
    step_op = u_ham(p, dt) @ p_no_switch(p, dt)
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


def bin_switch_times(times: np.ndarray, no_switch: int, cfg) -> traj.Histogram:
    """Histogram of cfg.n_bins equal bins over [0, tau] of the given times."""
    edges = np.linspace(0.0, cfg.tau, cfg.n_bins + 1)
    counts, _ = np.histogram(times, bins=edges)
    return traj.Histogram(edges, counts.astype(np.int64), no_switch, cfg.n_traj)


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


def purity_equals_fidelity_check(u: np.ndarray) -> tuple[float, float]:
    """Fidelity of the outcome and purity of the post-outcome state for a
    maximally mixed input; the two must agree."""
    fid = meas.outcome_fidelity(meas.decompose(u))
    rho = u @ (0.5 * m2.IDENTITY) @ m2.dag(u)
    return fid, purity(rho)


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


def table_newton_inverter(p: DetectorParams, rho0: np.ndarray, tau: float):
    """(S(tau), u -> t) by safeguarded Newton steps on the propagator
    alone, the rule the sampler's open solves follow, with no unmasked
    first step, each bracket found by binary search in the 4097-point table
    and each solve seeded by linear interpolation in it: a second route to
    the same roots, two Newton steps per solve."""
    surv = det.survival_function(p, rho0)
    paired = det._survival_and_density(p, rho0)
    grid = np.linspace(0.0, tau, traj._TABLE_POINTS)
    table = np.minimum.accumulate(surv(grid))
    step_tol = INVERSION_STEP_REL_TOL * tau

    def invert(u: np.ndarray) -> np.ndarray:
        k = np.clip(np.searchsorted(-table, -u, side="right"), 1, grid.size - 1)
        lo, hi = grid[k - 1], grid[k]
        drop = table[k - 1] - table[k]
        frac = np.divide(table[k - 1] - u, drop, out=np.zeros_like(u), where=drop > 0.0)
        t = np.clip(lo + frac * (hi - lo), lo, hi)
        times = np.empty_like(u)
        todo, target, last = np.arange(u.size), u, hi - lo
        for _ in range(traj._MAX_STEPS):
            s, rate = paired(t)
            above = s >= target
            lo, hi = np.where(above, t, lo), np.where(above, hi, t)
            step = np.divide(s - target, rate, out=np.full_like(t, np.inf), where=rate > 0.0)
            nxt = t + step
            newton = (lo <= nxt) & (nxt <= hi) & (2.0 * np.abs(step) <= last)
            nxt = np.where(newton, nxt, 0.5 * (lo + hi))
            last = np.abs(nxt - t)
            done = last <= step_tol
            times[todo[done]] = nxt[done]
            keep = ~done
            todo, target, t, lo, hi, last = (a[keep] for a in (todo, target, nxt, lo, hi, last))
            if not todo.size:
                break
        times[todo] = t
        if times.size and np.max(np.abs(surv(times) - u)) > INVERSION_RESIDUAL_TOL:
            raise BisectionFailureError("survival inversion residual too large")
        return times

    return float(surv(tau)), invert


def multistart_state_fit(h, p: DetectorParams, n_starts: int = 8, seed: int = 0):
    """State-only fit by multi-start least squares: (Bloch vector, covariance).

    Deviance residuals of the clipped model cell probabilities, minimized
    by bounded least squares from n_starts Latin-hypercube starts in the
    cube [-1, 1]^3, the Bloch vector clamped radially into the unit ball;
    the lowest deviance wins, and the covariance is the Gauss-Newton
    pseudo-inverse there.  The reference for the convex state fit.
    """
    observed = np.append(h.counts, h.no_switch_count).astype(float)

    def clamp(v):
        r = np.linalg.norm(v)
        return v * (1.0 - 1e-12) / r if r > 1.0 else v

    def residuals(v):
        rho = tomo.BlochComponents(*clamp(v)).to_density()
        probs = traj.expected_cell_probabilities(h, p, rho)
        return tomo._deviance_residuals(observed, probs * h.total)

    rng = np.random.default_rng(np.random.Philox(key=np.uint64(seed)))
    starts = np.empty((n_starts, 3))
    for j in range(3):
        starts[:, j] = -1.0 + 2.0 * (rng.permutation(n_starts) + rng.random(n_starts)) / n_starts
    best, best_dev = None, math.inf
    for x0 in starts:
        res = least_squares(
            residuals, x0, bounds=(-1.0, 1.0), method="trf",
            xtol=1e-14, ftol=1e-14, gtol=1e-12, max_nfev=2000,
        )
        deviance = float(np.sum(res.fun**2))
        if deviance < best_dev - 1e-12:
            best, best_dev = res, deviance
    covariance = np.linalg.pinv(best.jac.T @ best.jac, hermitian=True)
    return clamp(best.x), 0.5 * (covariance + covariance.T)


def joint_free_fit(h, fixed: DetectorParams, free_params, bounds, n_starts: int = 8, seed: int = 0):
    """Joint fit of the Bloch vector and the free detector parameters by
    multi-start least squares: (Bloch vector, free parameter values,
    covariance, deviance).

    Deviance residuals of the clipped model cell probabilities, minimized
    by bounded least squares over the whole box of `bounds` (Bloch
    components included) from n_starts Latin-hypercube starts, the Bloch
    vector clamped radially into the unit ball; the lowest deviance wins
    (index tie-break), and the covariance is the Gauss-Newton
    pseudo-inverse there.  The reference for the profiled free fit.
    """
    free, names, lo, hi = tomo.search_box(bounds, tomo.BLOCH_NAMES, free_params, n_starts)
    # the Bloch components' box, [-1, 1] each, ahead of the parameters'
    lo, hi = np.append(-np.ones(3), lo), np.append(np.ones(3), hi)
    observed = np.append(h.counts, h.no_switch_count).astype(float)
    base = {"gamma_L": fixed.gamma_L, "gamma_R": fixed.gamma_R, "beta": fixed.beta, "E": fixed.E}

    def clamp(v):
        r = np.linalg.norm(v)
        return v * (1.0 - 1e-12) / r if r > 1.0 else v

    def unpack(vec):
        params = DetectorParams(**{**base, **dict(zip(names, vec[3:]))})
        return clamp(vec[:3]), params

    def residuals(vec):
        b, params = unpack(vec)
        probs = traj.expected_cell_probabilities(h, params, tomo.BlochComponents(*b).to_density())
        return tomo._deviance_residuals(observed, probs * h.total)

    rng = np.random.default_rng(np.random.Philox(key=np.uint64(seed)))
    starts = np.empty((n_starts, len(free)))
    for j in range(len(free)):
        strata = (rng.permutation(n_starts) + rng.random(n_starts)) / n_starts
        starts[:, j] = lo[j] + strata * (hi[j] - lo[j])
    best, best_dev = None, math.inf
    for x0 in starts:
        res = least_squares(
            residuals, x0, bounds=(lo, hi), method="trf",
            xtol=1e-14, ftol=1e-14, gtol=1e-12, max_nfev=2000,
        )
        deviance = float(np.sum(res.fun**2))
        if deviance < best_dev - 1e-12:
            best, best_dev = res, deviance
    covariance = np.linalg.pinv(best.jac.T @ best.jac, hermitian=True)
    b, _ = unpack(best.x)
    return b, best.x[3:], 0.5 * (covariance + covariance.T), best_dev


def multistart_free_fit(h, fixed: DetectorParams, free_params, bounds, n_starts: int = 8, seed: int = 0):
    """The profiled free fit searched without a scan: (deviance, free
    parameter values).

    Bounded Levenberg-Marquardt (tomography._bounded_lm) on the profiled
    deviance residuals from n_starts Latin-hypercube starts over the whole
    box, stepped together, each first solving its state from scratch; the
    lowest deviance over the starts that ended wins (a retired start stands
    for the start it joined).  The reference for the scan-then-polish
    search of `fit`, which must reach as low a deviance.
    """
    free, names, lo, hi = tomo.search_box(bounds, tomo.BLOCH_NAMES, free_params, n_starts)
    base = {"gamma_L": fixed.gamma_L, "gamma_R": fixed.gamma_R, "beta": fixed.beta, "E": fixed.E}

    def params_at(theta):
        return DetectorParams(**{**base, **dict(zip(names, map(float, theta)))})

    rng = np.random.default_rng(np.random.Philox(key=np.uint64(seed)))
    starts = np.clip(tomo._latin_hypercube(rng, n_starts, lo, hi), lo, hi)
    profile = tomo._Profile(h, tomo._StateSolver(h, tomo.BLOCH_NAMES), params_at, names, n_starts)
    res = tomo._bounded_lm(
        profile.residuals, profile.jacobian, starts, lo, hi,
        gtol=0.1 * FIT_GRADIENT_TOL * h.total, max_nfev=2000,
    )
    ended = [k for k, exc in enumerate(res.errors) if exc is None]
    deviances = {k: float(np.sum(res.fun[k if res.status[k] != 3 else res.joined[k]] ** 2)) for k in ended}
    best = min(ended, key=deviances.get)
    return deviances[best], res.x[best if res.status[best] != 3 else res.joined[best]]


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(f, lo: float, hi: float, tol: float = 1e-10):
    """Maximize a unimodal function on [lo, hi] by golden-section search.

    Returns (argmax, max).  Deterministic; tol bounds the abscissa error.
    """
    if hi < lo:
        raise ValueError("need lo <= hi")
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def grid_then_golden_max(f, lo: float, hi: float, n_grid: int = 2000, tol: float = 1e-10):
    """Coarse grid presearch followed by golden-section refinement: the
    brute-force reference for closed-form maxima.

    Robust against multiple local maxima as long as the grid resolves them.
    """
    if n_grid < 3:
        raise ValueError("n_grid must be >= 3")
    step = (hi - lo) / (n_grid - 1)
    best_i, best_v = 0, -math.inf
    for i in range(n_grid):
        v = f(lo + i * step)
        if v > best_v:
            best_i, best_v = i, v
    a = lo + max(best_i - 1, 0) * step
    b = lo + min(best_i + 1, n_grid - 1) * step
    return golden_section_max(f, a, b, tol)


def max_separation_search(kind, mixing_p, steepness, pulse, x_range) -> float:
    """Largest eigenstate S-curve separation |p1 - p0| found by grid plus
    golden-section search over the bias range: the reference for the
    closed-form peak."""

    def sep(x: float) -> float:
        p0, p1 = sc._state_probs(kind, mixing_p, x, steepness, pulse)
        return abs(p1 - p0)

    return grid_then_golden_max(sep, x_range[0], x_range[1])[1]


def _half_split(m: np.ndarray) -> float:
    """Half the eigenvalue gap of a Hermitian 2x2 matrix."""
    return math.hypot(0.5 * (m[0, 0].real - m[1, 1].real), abs(m[0, 1]))


def overall_fidelity_quad(
    p: DetectorParams, tau: float, resolve_switch_time: bool = True
) -> float:
    """Outcome-averaged fidelity by QUADPACK's quad, one scalar call of the
    half gap per node: the reference for the package's vectorised
    integrator.  Up to 40/|m| the range runs in pieces of at most 10
    precession periods (and at most 1000 pieces), then once over the tail,
    split at case1_tau0 for an aligned probe."""
    if p.gamma_L == 0.0 and p.gamma_R == 0.0:
        return 0.0
    forms = det._TraceForms(p, meas._HALF_PAULIS, [det.rate_matrix(p), m2.IDENTITY])

    def half_gap(t: float, op: int) -> float:
        x, y, z = forms(t)[op:6:2]
        return math.sqrt(x * x + y * y + z * z)

    no_switch = half_gap(float(tau), 1)
    if not resolve_switch_time:
        return min(2.0 * no_switch, 1.0)
    prop = forms.propagator
    horizon = min(tau, 40.0 / -prop.m)
    n = min(max(math.ceil(horizon * abs(prop.r.imag) / (10 * math.pi)), 1), 1000)
    pieces = [horizon * k / n for k in range(n)] + [horizon] + ([tau] if tau > horizon else [])
    if p.beta == 0.0 and p.gamma_L > 0.0 and p.gamma_R > 0.0 and p.gamma_L != p.gamma_R:
        t0 = meas.case1_tau0(p)
        if t0 < tau:
            pieces = sorted({*pieces, t0})
    integral = 0.0
    for lo, hi in zip(pieces, pieces[1:]):
        integral += quad(half_gap, lo, hi, args=(0,), limit=300, epsabs=1e-12, epsrel=1e-12)[0]
    return min(integral + no_switch, 1.0)


def overall_fidelity_products(
    p: DetectorParams, tau: float, resolve_switch_time: bool = True
) -> float:
    """Outcome-averaged fidelity with the half eigenvalue gaps taken from the
    2x2 products U(t)^dag Gamma U(t) and U(tau)^dag U(tau) at every
    quadrature node, under the same adaptive quadrature as the package:
    the reference for its trace-and-determinant integrand."""
    prop = det.propagator(p)
    gam = det.rate_matrix(p)
    u_tau = prop(float(tau))
    no_switch = _half_split(m2.dag(u_tau) @ u_tau)
    if not resolve_switch_time:
        return min(2.0 * no_switch, 1.0)

    def integrand(t: float) -> float:
        u = prop(t)
        return _half_split(m2.dag(u) @ gam @ u)

    points = None
    if p.beta == 0.0 and p.gamma_L > 0.0 and p.gamma_R > 0.0 and p.gamma_L != p.gamma_R:
        t0 = meas.case1_tau0(p)
        if t0 < tau:
            points = [t0]
    integral, _ = quad(
        integrand, 0.0, tau, points=points, limit=300, epsabs=1e-12, epsrel=1e-12
    )
    return min(integral + no_switch, 1.0)
