"""Single-setting state tomography from switching-time histograms.

The switching-time distribution of one fixed detector configuration
depends on all three Bloch components of the initial state (the azimuthal
precession of the measurement basis scans the equator while the rate
asymmetry probes the poles), so fitting the histogram reconstructs the
full state, and optionally the detector parameters with it.  This fails in
the known degenerate configurations; the identifiability check quantifies
which directions the data cannot see.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import least_squares

from . import mat2 as m2
from .detector import (
    DetectorParams,
    _survival_and_density,
    survival_function,
    switch_density,
    switch_density_function,
)
from .errors import (
    InsufficientDataError,
    NoConvergenceError,
    NotIdentifiableError,
    UnphysicalBlochError,
)
from .tolerances import (
    FIT_GRADIENT_TOL,
    FIT_NEWTON_STEP_TOL,
    IDENTIFIABILITY_REL_TOL,
    RANK_DEFICIENCY_TOL,
)
from .trajectory import Histogram, expected_cell_probabilities

BLOCH_NAMES = ("x", "y", "z")
PARAM_NAMES = ("gamma_L", "gamma_R", "beta", "E")

DEFAULT_BOUNDS = {
    "x": (-1.0, 1.0),
    "y": (-1.0, 1.0),
    "z": (-1.0, 1.0),
    "gamma_L": (0.0, 100.0),
    "gamma_R": (1e-6, 100.0),
    "beta": (0.0, math.pi),
    "E": (0.0, 1000.0),
}


@dataclass(frozen=True)
class BlochComponents:
    """Bloch vector with z = rho_11 - rho_00, x = rho_10 + rho_01,
    y = (rho_10 - rho_01)/i."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        r2 = self.x**2 + self.y**2 + self.z**2
        if not math.isfinite(r2) or r2 > 1.0 + 1e-9:
            raise UnphysicalBlochError(f"Bloch vector norm^2 = {r2} exceeds 1")

    def to_density(self) -> np.ndarray:
        return 0.5 * np.array(
            [
                [1.0 - self.z, self.x - 1j * self.y],
                [self.x + 1j * self.y, 1.0 + self.z],
            ],
            dtype=complex,
        )

    @classmethod
    def from_density(cls, rho: np.ndarray) -> "BlochComponents":
        rho = np.asarray(rho, dtype=complex)
        return cls(
            x=float((rho[1, 0] + rho[0, 1]).real),
            y=float((rho[1, 0] - rho[0, 1]).imag),
            z=float((rho[1, 1] - rho[0, 0]).real),
        )


@dataclass(frozen=True)
class TomographyResult:
    bloch: BlochComponents
    params: DetectorParams
    covariance: np.ndarray
    converged: bool
    chi2: float
    dof: int
    free_names: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "bloch": {"x": self.bloch.x, "y": self.bloch.y, "z": self.bloch.z},
            "params": {
                "gamma_L": self.params.gamma_L,
                "gamma_R": self.params.gamma_R,
                "beta": self.params.beta,
                "E": self.params.E,
            },
            "covariance": [float(v) for v in np.asarray(self.covariance).ravel()],
            "chi2": float(self.chi2),
            "dof": int(self.dof),
            "converged": bool(self.converged),
            "free_names": list(self.free_names),
        }


def model_density(p: DetectorParams, b: BlochComponents, t: float) -> float:
    """Switching-time density for initial state b; exact at any E/gamma."""
    return switch_density(p, b.to_density(), t)


@dataclass(frozen=True)
class IdentifiabilityReport:
    """Information spectrum of the free parameters at one configuration."""

    free: tuple[str, ...]
    info: np.ndarray
    singular_values: np.ndarray
    rel_threshold: float
    degenerate_directions: tuple[tuple[str, ...], ...]
    flagged: bool


_CANONICAL_BLOCH = BlochComponents(0.25, 0.25, 0.25)

# rho(b) = I/2 + sum_k b_k _BLOCH_BASIS[k]: the density matrix, and with it
# every survival and switching-density value, is affine in the Bloch vector
_MIXED = 0.5 * np.eye(2, dtype=complex)
_BLOCH_BASIS = {
    name: BlochComponents(*np.eye(3)[k]).to_density() - _MIXED
    for k, name in enumerate(BLOCH_NAMES)
}


def _density_rows(
    p: DetectorParams, b: BlochComponents, grid: np.ndarray, tau: float
) -> tuple[np.ndarray, float]:
    dens = switch_density_function(p, b.to_density())
    surv = survival_function(p, b.to_density())
    return dens(grid), float(surv(tau))


def identifiability(
    p: DetectorParams,
    free: Sequence[str] = BLOCH_NAMES,
    bloch_point: Optional[BlochComponents] = None,
    rel_threshold: float = IDENTIFIABILITY_REL_TOL,
) -> IdentifiabilityReport:
    """Rank analysis of the switching-time model in the free directions.

    Builds the Poisson information matrix of the density (plus the
    no-switch weight) on a canonical time grid, then flags singular
    directions whose singular value falls below rel_threshold times the
    largest.  The Bloch columns are exact, as the density is affine in the
    Bloch vector: the density and survival of its traceless part; detector
    parameter columns are central differences.  Sensitivities are taken
    per relative parameter change (each direction scaled by its magnitude),
    so directions with different units compare meaningfully.  Direction
    names list the parameters with non-negligible weight in the flagged
    singular vectors.
    """
    free = tuple(free)
    for name in free:
        if name not in BLOCH_NAMES + PARAM_NAMES:
            raise ValueError(f"unknown parameter name {name!r}")
    b0 = bloch_point if bloch_point is not None else _CANONICAL_BLOCH
    # weigh at a point strictly inside the ball, where the density has no zeros
    r0 = math.sqrt(b0.x**2 + b0.y**2 + b0.z**2)
    if r0 > 0.99:
        shrink = 0.99 / r0
        b0 = BlochComponents(b0.x * shrink, b0.y * shrink, b0.z * shrink)

    t_max = 5.0 / max(p.gamma_plus, 1e-12) if p.gamma_plus > 0 else 5.0
    n = int(min(max(256.0, 16.0 * max(p.E, 1.0) * t_max / (2.0 * math.pi)), 8192.0))
    grid = np.linspace(0.0, t_max, n)
    weight = t_max / n

    theta0 = {"x": b0.x, "y": b0.y, "z": b0.z,
              "gamma_L": p.gamma_L, "gamma_R": p.gamma_R, "beta": p.beta, "E": p.E}

    def rows_at(theta: dict) -> tuple[np.ndarray, float]:
        params = DetectorParams(
            theta["gamma_L"], theta["gamma_R"], theta["beta"], theta["E"]
        )
        b = BlochComponents(theta["x"], theta["y"], theta["z"])
        return _density_rows(params, b, grid, t_max)

    d0, s0 = rows_at(theta0)
    d0 = np.maximum(d0, 1e-12)
    s0 = max(s0, 1e-12)

    jac_d = np.empty((len(free), n))
    jac_s = np.empty(len(free))
    for i, name in enumerate(free):
        scale = max(abs(theta0[name]), 0.1)
        if name in BLOCH_NAMES:
            # the grid ends at t_max, so the last survival value is S(t_max)
            surv, dens = _survival_and_density(p, _BLOCH_BASIS[name])(grid)
            jac_d[i] = dens * scale
            jac_s[i] = surv[-1] * scale
            continue
        h = 1e-5 * scale
        hi = dict(theta0)
        lo = dict(theta0)
        hi[name] = theta0[name] + h
        lo[name] = theta0[name] - h
        # keep rates/energies non-negative and beta inside [0, pi]
        lo[name] = max(lo[name], 0.0)
        if name == "beta":
            hi[name] = min(hi[name], math.pi)
        step = hi[name] - lo[name]
        d_hi, s_hi = rows_at(hi)
        d_lo, s_lo = rows_at(lo)
        jac_d[i] = (d_hi - d_lo) / step * scale
        jac_s[i] = (s_hi - s_lo) / step * scale

    info = (jac_d / d0) @ jac_d.T * weight + np.outer(jac_s, jac_s) / s0
    svals, vecs = np.linalg.eigh(info)
    order = np.argsort(svals)[::-1]
    svals = np.maximum(svals[order], 0.0)
    vecs = vecs[:, order]
    top = max(svals[0], 1e-300)

    degenerate = []
    for k, sv in enumerate(svals):
        if sv < rel_threshold * top:
            v = np.abs(vecs[:, k])
            names = tuple(nm for nm, wgt in zip(free, v) if wgt > 0.3)
            degenerate.append(names if names else (free[int(np.argmax(v))],))
    return IdentifiabilityReport(
        free=free,
        info=info,
        singular_values=svals,
        rel_threshold=rel_threshold,
        degenerate_directions=tuple(degenerate),
        flagged=bool(degenerate),
    )


def _deviance_residuals(observed: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """Signed square roots of per-cell Poisson deviance contributions."""
    expected = np.maximum(expected, 1e-12)
    with np.errstate(divide="ignore", invalid="ignore"):
        logterm = np.where(observed > 0.0, observed * np.log(observed / expected), 0.0)
    dev = 2.0 * (expected - observed + logterm)
    return np.sign(observed - expected) * np.sqrt(np.maximum(dev, 0.0))


def _clamp_bloch(x: float, y: float, z: float) -> BlochComponents:
    r = math.sqrt(x * x + y * y + z * z)
    if r > 1.0:
        scale = (1.0 - 1e-12) / r
        x, y, z = x * scale, y * scale, z * scale
    return BlochComponents(x, y, z)


def _latin_hypercube(rng: np.random.Generator, n: int, lo: np.ndarray, hi: np.ndarray):
    d = len(lo)
    pts = np.empty((n, d))
    for j in range(d):
        strata = (rng.permutation(n) + rng.random(n)) / n
        pts[:, j] = lo[j] + strata * (hi[j] - lo[j])
    return pts


def search_box(
    fixed: Optional[DetectorParams] = None,
    bounds: Optional[dict] = None,
    free_bloch: Sequence[str] = BLOCH_NAMES,
    free_params: Optional[Sequence[str]] = None,
    n_starts: int = 8,
) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray, np.ndarray]:
    """Check fit's options without fitting: (free names, free detector
    parameter names, lower and upper corners of the search box).

    Raises ValueError on an unknown name, nothing to fit, an empty box or
    n_starts < 1.
    """
    if n_starts < 1:
        raise ValueError(f"n_starts must be >= 1, got {n_starts}")
    free_bloch = tuple(free_bloch)
    for name in free_bloch:
        if name not in BLOCH_NAMES:
            raise ValueError(f"unknown Bloch component {name!r}")
    if fixed is None:
        free_param_names = PARAM_NAMES
    else:
        free_param_names = tuple(free_params or ())
        for name in free_param_names:
            if name not in PARAM_NAMES:
                raise ValueError(f"unknown detector parameter {name!r}")
    free = free_bloch + free_param_names
    if not free:
        raise ValueError("nothing to fit")

    box = dict(DEFAULT_BOUNDS)
    if bounds:
        unknown = set(bounds) - set(box)
        if unknown:
            raise ValueError(f"unknown bound names {sorted(unknown)}")
        box.update(bounds)
    lo = np.array([box[name][0] for name in free])
    hi = np.array([box[name][1] for name in free])
    if np.any(hi <= lo):
        raise ValueError("bounds box is empty")
    return free, free_param_names, lo, hi


def _ball_step(hess: np.ndarray, c: np.ndarray, radius: float) -> tuple[np.ndarray, float]:
    """Minimizer x of x.hess.x/2 + c.x over |x| <= radius, hess positive
    definite, and its multiplier lam >= 0: (hess + lam I) x = -c.

    On the sphere lam solves the secular equation 1/|x(lam)| = 1/radius.
    1/|x(lam)| is increasing and concave, so Newton's method from lam = 0
    climbs to the root without overshooting (Moré & Sorensen, "Computing a
    trust region step", SIAM J. Sci. Stat. Comput. 4, 1983).
    """
    if radius == 0.0:
        return np.zeros_like(c), 0.0
    evals, vecs = np.linalg.eigh(hess)
    w = vecs.T @ c
    lam = 0.0
    for _ in range(100):
        x = w / (evals + lam)
        norm = math.sqrt(x @ x)
        if norm <= radius:
            break
        step = (norm - radius) / radius * norm**2 / (x @ (x / (evals + lam)))
        if step <= 1e-15 * lam:
            break
        lam += step
    return -(vecs @ x), lam


def _fit_state(
    h: Histogram, p: DetectorParams, free_bloch: tuple[str, ...], base_bloch: dict
) -> tuple[BlochComponents, np.ndarray, bool, float]:
    """Maximum-likelihood Bloch components at fixed detector parameters:
    (state, covariance, converged, deviance).

    Each cell probability is affine in the Bloch vector, probs = a0 + A b,
    with a0 and the columns of A the cells of rho = I/2 and of the traceless
    basis, so the Poisson deviance is convex in b.  It is minimized by
    damped Newton over the ball left by the fixed components, each step
    the ball-constrained minimizer of the local quadratic model.
    """
    s_edges = np.array([
        survival_function(p, rho)(h.bin_edges)
        for rho in (_MIXED, *_BLOCH_BASIS.values())
    ])
    cells = np.hstack([-np.diff(s_edges, axis=1), s_edges[:, -1:]])
    free_idx = [BLOCH_NAMES.index(name) for name in free_bloch]
    fixed = np.array([0.0 if name in free_bloch else base_bloch[name] for name in BLOCH_NAMES])
    a0 = cells[0] + fixed @ cells[1:]
    design = cells[1:][free_idx].T
    radius = math.sqrt(max(1.0 - fixed @ fixed, 0.0))

    observed = np.append(h.counts, h.no_switch_count).astype(float)
    seen = observed > 0.0
    counts, a_seen, design_seen = observed[seen], a0[seen], design[seen]

    def derivatives(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian of the negative log-likelihood
        -sum n log(probs); the cell probabilities sum to one for every b."""
        ratio = counts / (a_seen + design_seen @ b)
        grad = -design_seen.T @ ratio
        return grad, (design_seen.T * (ratio * ratio / counts)) @ design_seen

    def cost(b: np.ndarray) -> float:
        probs = a_seen + design_seen @ b
        return -float(counts @ np.log(probs)) if probs.min() > 0.0 else math.inf

    b = np.zeros(design.shape[1])
    for _ in range(50):
        grad, hess = derivatives(b)
        x, lam = _ball_step(hess, grad - hess @ b, radius)
        step = x - b
        # the step's length in standard deviations (the Newton decrement);
        # -n log p is self-concordant, so a step under 1/4 keeps every cell
        # probability positive and converges quadratically
        size = math.sqrt(max(step @ hess @ step, 0.0))
        t = 1.0
        if size > 0.25:
            # far from the optimum: backtrack to sufficient decrease
            f0, slope = cost(b), grad @ step
            while t > 1e-12 and cost(b + t * step) > f0 + 1e-4 * t * slope:
                t *= 0.5
        b = b + t * step
        if size <= FIT_NEWTON_STEP_TOL:
            break

    grad, _ = derivatives(b)
    # KKT: grad + lam b = 0 with lam >= 0 (lam = 0 inside the ball); the
    # gradient is in counts, as in the free-parameter fit's criterion
    converged = bool(np.max(np.abs(grad + lam * b)) < FIT_GRADIENT_TOL * h.total)

    probs = a0 + design @ b
    fisher = h.total * (design.T / probs) @ design
    covariance = np.linalg.inv(fisher)
    deviance = float(np.sum(_deviance_residuals(observed, probs * h.total) ** 2))
    bloch = fixed.copy()
    bloch[free_idx] = b
    state = BlochComponents(*(float(v) for v in bloch))
    return state, 0.5 * (covariance + covariance.T), converged, deviance


def fit(
    h: Histogram,
    fixed: Optional[DetectorParams] = None,
    init: Optional[TomographyResult] = None,
    bounds: Optional[dict] = None,
    free_bloch: Sequence[str] = BLOCH_NAMES,
    free_params: Optional[Sequence[str]] = None,
    seed: int = 0,
    n_starts: int = 8,
) -> TomographyResult:
    """Fit the switching-time histogram by Poisson deviance minimization.

    With `fixed` given, the requested Bloch components are free and
    detector parameters stay at their fixed values unless named in
    `free_params`; with `fixed=None` all four parameters are fitted.
    Note the model carries an exact one-dimensional gauge freedom when
    both rates, the angle and the coherences are all free (only
    gamma_minus cos(beta) and gamma_minus sin(beta) times the coherence
    magnitude are observable), so an all-parameter fit is rejected as not
    identifiable; pinning one rate or the angle breaks the gauge.

    With the detector parameters fixed (`free_params` empty) the deviance
    is convex in the Bloch vector and is minimized in one Newton solve over
    the Bloch ball; components not in `free_bloch` keep `init`'s values
    (0 without `init`).  `converged` then holds when the KKT conditions of
    the ball constraint do, and the covariance is the inverse Fisher
    information.  `seed`, `n_starts`, `init`'s starting point and the
    Bloch bounds serve only the free-parameter fit below.

    With detector parameters free: multi-start damped least squares
    (n_starts Latin-hypercube starts drawn deterministically from the
    bounds box, plus the optional `init` seed point); the winner is the
    lowest deviance with index tie-break.  Covariance is the Gauss-Newton
    inverse at the optimum.
    """
    if h.total < 1000:
        raise InsufficientDataError(f"histogram total {h.total} below 1000")
    free, free_param_names, lo, hi = search_box(fixed, bounds, free_bloch, free_params, n_starts)

    base_bloch = {"x": 0.0, "y": 0.0, "z": 0.0}
    if init is not None:
        base_bloch = {"x": init.bloch.x, "y": init.bloch.y, "z": init.bloch.z}

    dof = max(len(h.counts) - len(free), 1)  # cells, less the total and the free names
    if not free_param_names:
        # pure state fit: the information structure is known up front
        report = identifiability(fixed, free=free, rel_threshold=RANK_DEFICIENCY_TOL)
        if report.flagged:
            raise NotIdentifiableError(
                f"degenerate directions {report.degenerate_directions} at the "
                "fixed detector parameters"
            )
        b_fit, covariance, converged, deviance = _fit_state(h, fixed, free, base_bloch)
        return TomographyResult(b_fit, fixed, covariance, converged, deviance, dof, free)

    observed = np.append(h.counts, h.no_switch_count).astype(float)
    base_params = {
        "gamma_L": fixed.gamma_L if fixed else 0.0,
        "gamma_R": fixed.gamma_R if fixed else 0.0,
        "beta": fixed.beta if fixed else 0.0,
        "E": fixed.E if fixed else 0.0,
    }

    def unpack(vec: np.ndarray) -> tuple[BlochComponents, DetectorParams]:
        vals = dict(zip(free, vec))
        b = _clamp_bloch(
            vals.get("x", base_bloch["x"]),
            vals.get("y", base_bloch["y"]),
            vals.get("z", base_bloch["z"]),
        )
        params = DetectorParams(
            vals.get("gamma_L", base_params["gamma_L"]),
            vals.get("gamma_R", base_params["gamma_R"]),
            vals.get("beta", base_params["beta"]),
            vals.get("E", base_params["E"]),
        )
        return b, params

    def residuals(vec: np.ndarray) -> np.ndarray:
        b, params = unpack(vec)
        probs = expected_cell_probabilities(h, params, b.to_density())
        return _deviance_residuals(observed, probs * h.total)

    rng = np.random.default_rng(np.random.Philox(key=np.uint64(seed)))
    starts = list(_latin_hypercube(rng, n_starts, lo, hi))
    if init is not None:
        vals = {
            "x": init.bloch.x, "y": init.bloch.y, "z": init.bloch.z,
            "gamma_L": init.params.gamma_L, "gamma_R": init.params.gamma_R,
            "beta": init.params.beta, "E": init.params.E,
        }
        starts.insert(0, np.array([vals[name] for name in free]))

    best = None
    for idx, x0 in enumerate(starts):
        x0 = np.clip(x0, lo, hi)
        try:
            res = least_squares(
                residuals, x0, bounds=(lo, hi), method="trf",
                xtol=1e-14, ftol=1e-14, gtol=1e-12, max_nfev=2000,
            )
        except Exception:
            continue
        if not np.all(np.isfinite(res.x)):
            continue
        deviance = float(np.sum(res.fun**2))
        grad_norm = float(np.max(np.abs(res.jac.T @ res.fun)))
        interior = bool(
            np.all(res.x > lo + 1e-9 * (hi - lo)) and np.all(res.x < hi - 1e-9 * (hi - lo))
        )
        # the deviance is measured in counts, so its gradient scale is the
        # histogram total; a stalled or boundary-pinned start sits orders of
        # magnitude above this threshold
        converged = bool(res.success and grad_norm < FIT_GRADIENT_TOL * h.total and interior)
        cand = (deviance, idx, res, converged)
        if best is None or cand[0] < best[0] - 1e-12:
            best = cand
    if best is None:
        raise NoConvergenceError("all fit starts failed")

    deviance, _, res, converged = best
    b_fit, p_fit = unpack(res.x)
    jtj = res.jac.T @ res.jac
    covariance = np.linalg.pinv(jtj, hermitian=True)
    covariance = 0.5 * (covariance + covariance.T)

    # with parameters free, rank deficiency (such as the gauge null
    # direction of the all-parameter model) is only visible at the fitted
    # point
    report = identifiability(
        p_fit, free=free, bloch_point=b_fit, rel_threshold=RANK_DEFICIENCY_TOL
    )
    if report.flagged:
        raise NotIdentifiableError(
            f"degenerate directions {report.degenerate_directions} at the "
            "fitted parameters"
        )
    return TomographyResult(
        bloch=b_fit,
        params=p_fit,
        covariance=covariance,
        converged=converged,
        chi2=deviance,
        dof=dof,
        free_names=free,
    )
