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
from .detector import DetectorParams, _generator_slopes, _TraceForms, rate_matrix, switch_density
from .errors import (
    InsufficientDataError,
    NoConvergenceError,
    NotIdentifiableError,
    SwitchSimError,
    UnphysicalBlochError,
)
from .tolerances import (
    FIT_GRADIENT_TOL,
    FIT_NEWTON_STEP_TOL,
    IDENTIFIABILITY_REL_TOL,
    RANK_DEFICIENCY_TOL,
)
from .trajectory import Histogram

BLOCH_NAMES = ("x", "y", "z")
PARAM_NAMES = ("gamma_L", "gamma_R", "beta", "E")

DEFAULT_BOUNDS = {
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
_CELL_STATES = np.array([_MIXED, *_BLOCH_BASIS.values()])


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
    largest.  The columns are exact: the density and survival of the
    state's traceless parts for the Bloch vector, on which they are affine,
    and their trace-form slopes for the detector parameters.  Sensitivities
    are taken per relative parameter change (each direction scaled by its
    magnitude), so directions with different units compare meaningfully.
    Direction names list the parameters with non-negligible weight in the
    flagged singular vectors.
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

    # survival and density of each state on the grid, shape (4, 2, n), and
    # rho0's slopes; the grid ends at t_max, so the last survival value is S(t_max)
    forms = _TraceForms(p, [b0.to_density(), *_BLOCH_BASIS.values()], [m2.IDENTITY, rate_matrix(p)])
    coefficients = forms.propagator.coefficients(grid)
    rows = forms.combine(*coefficients).reshape(4, 2, n)
    columns = dict(zip(BLOCH_NAMES, rows[1:]))
    param_names = [name for name in free if name in PARAM_NAMES]
    if param_names:
        g_dot = _generator_slopes(p, param_names)
        gam_dot = -(g_dot + g_dot.conj().transpose(0, 2, 1))
        slopes = forms.slopes(param_names, grid, coefficients, np.stack((0 * gam_dot, gam_dot), 1))
        columns.update(zip(param_names, slopes[:, :2]))
    d0, s0 = np.maximum(rows[0, 1], 1e-12), max(rows[0, 0, -1], 1e-12)

    values = {**vars(b0), **vars(p)}
    scales = np.array([max(abs(values[name]), 0.1) for name in free])
    jac_d = np.array([columns[name][1] for name in free]) * scales[:, None]
    jac_s = np.array([columns[name][0, -1] for name in free]) * scales

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
    parameter names, lower and upper corners of their search box).

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

    box = {**DEFAULT_BOUNDS, **(bounds or {})}
    if len(box) > len(DEFAULT_BOUNDS):
        raise ValueError(f"unknown bound names {sorted(set(box) - set(DEFAULT_BOUNDS))}")
    lo = np.array([box[name][0] for name in free_param_names])
    hi = np.array([box[name][1] for name in free_param_names])
    if np.any(hi <= lo):
        raise ValueError("bounds box is empty")
    return free, free_param_names, lo, hi


def _ball_step(hess: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimizer x of x.hess.x/2 + c.x over |x| <= 1, hess positive
    definite, and its multiplier lam >= 0: (hess + lam I) x = -c.

    On the sphere lam solves the secular equation 1/|x(lam)| = 1.
    1/|x(lam)| is increasing and concave, so Newton's method from lam = 0
    climbs to the root without overshooting (Moré & Sorensen, "Computing a
    trust region step", SIAM J. Sci. Stat. Comput. 4, 1983).
    """
    evals, vecs = np.linalg.eigh(hess)
    w = vecs.T @ c
    lam = 0.0
    for _ in range(100):
        x = w / (evals + lam)
        norm = math.sqrt(x @ x)
        if norm <= 1.0:
            break
        step = (norm - 1.0) * norm**2 / (x @ (x / (evals + lam)))
        if step <= 1e-15 * lam:
            break
        lam += step
    return -(vecs @ x), lam


def _cells(surv: np.ndarray) -> np.ndarray:
    """Cell probabilities from survival at the edges (last axis), no-switch last."""
    cells = np.empty_like(surv)
    np.subtract(surv[..., :-1], surv[..., 1:], out=cells[..., :-1])
    cells[..., -1] = surv[..., -1]
    return cells


def _covariance(total: int, probs: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Inverse Fisher information of the cell probabilities, whose
    derivatives in the free names are the columns."""
    covariance = np.linalg.inv(total * (columns.T / probs) @ columns)
    return 0.5 * (covariance + covariance.T)


class _StateSolver:
    """Maximum-likelihood Bloch components of one histogram at one
    parameter point at a time.

    Each cell probability is affine in the Bloch vector, probs = a0 + A b,
    with a0 and the columns of A the cell rows of rho = I/2 and of the
    traceless basis (components not in free_bloch held at 0), so the
    Poisson deviance is convex in b.  It is minimized by damped Newton over
    the unit ball, each step the ball-constrained minimizer of the local
    quadratic model.
    """

    def __init__(self, h: Histogram, free_bloch: tuple[str, ...]):
        self.total = h.total
        self.observed = np.append(h.counts, h.no_switch_count).astype(float)
        # only cells with counts enter the likelihood (a slice, a view, when
        # all have counts)
        seen = self.observed > 0.0
        self.seen = slice(None) if seen.all() else seen
        self.free_idx = [BLOCH_NAMES.index(name) for name in free_bloch]

    def solve(self, a0: np.ndarray, design: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
        """(minimizer, ball multiplier), starting from b, or from the mixed
        state if b leaves a seen cell no probability."""
        if not self.free_idx:
            return b, 0.0
        counts = self.observed[self.seen]
        a_seen, design_seen = a0[self.seen], design[self.seen]

        def cost(b: np.ndarray) -> float:
            probs = a_seen + design_seen @ b
            return -float(counts @ np.log(probs)) if probs.min() > 0.0 else math.inf

        probs = a_seen + design_seen @ b
        if probs.min() <= 0.0:
            b = np.zeros_like(b)
            probs = a_seen
        for _ in range(50):
            # gradient and Hessian of the negative log-likelihood
            # -sum n log(probs); the cell probabilities sum to one for every b
            ratio = counts / probs
            grad = -(ratio @ design_seen)
            hess = (design_seen.T * (ratio / probs)) @ design_seen
            x, lam = _ball_step(hess, grad - hess @ b)
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
            probs = a_seen + design_seen @ b
        return b, lam

    def converged(self, a0: np.ndarray, design: np.ndarray, b: np.ndarray, lam: float) -> bool:
        """KKT test of a solution: grad + lam b = 0 with lam >= 0 (lam = 0
        inside the ball), the gradient in counts, as in the free-parameter
        fit's criterion."""
        seen = self.seen
        grad = -(self.observed[seen] / (a0[seen] + design[seen] @ b)) @ design[seen]
        return bool(np.max(np.abs(grad + lam * b), initial=0.0) < FIT_GRADIENT_TOL * self.total)

    def state(self, b: np.ndarray) -> BlochComponents:
        bloch = np.zeros(3)
        bloch[self.free_idx] = b
        return BlochComponents(*(float(v) for v in bloch))


def _residual_slopes(observed: np.ndarray, expected: np.ndarray, res: np.ndarray) -> np.ndarray:
    """Derivatives of the deviance residuals res in the expected counts.

    That is (1 - observed/expected) / res, which loses digits where the
    counts nearly agree; for |v| < 1e-4, v = expected/observed - 1, its
    expansion -(1 + v/3) / ((1 + v) sqrt(observed)) is used instead.
    """
    expected = np.maximum(expected, 1e-12)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = expected / observed - 1.0
        return np.where(
            np.abs(v) < 1e-4,
            -(1.0 + v / 3.0) / ((1.0 + v) * np.sqrt(observed)),
            (1.0 - observed / expected) / res,
        )


class _Profile:
    """Profiled deviance residuals r(theta) = r(theta, b*(theta)) over the
    free detector parameters theta, and their Jacobian, along one start.

    Residuals and Jacobian share one evaluation per theta, and each inner
    solve starts from the previous b*.  The Jacobian is Kaufman's: the
    exact slopes of the cell probabilities in theta at fixed b*, from the
    coefficients the rows were evaluated with, projected off the exact
    residual columns of the directions in which b* can move (Kaufman,
    BIT 15, 1975; O'Leary & Rust, Comput. Optim. Appl. 54, 2013).  At b*
    the residuals are orthogonal to those columns, so its gradient J^T r is
    the profiled deviance's.
    """

    def __init__(self, h: Histogram, solver: _StateSolver, params_at, names: tuple[str, ...]):
        self.edges, self.solver, self.params_at, self.names = h.bin_edges, solver, params_at, names
        self.key = None
        self.b = np.zeros(len(solver.free_idx))

    def at(self, theta: np.ndarray) -> "_Profile":
        """Solve for b* at theta unless theta was the last point solved."""
        key = theta.tobytes()
        if key != self.key:
            self.forms = _TraceForms(self.params_at(theta), _CELL_STATES, [m2.IDENTITY])
            self.coefficients = self.forms.propagator.coefficients(self.edges)
            cells = _cells(self.forms.combine(*self.coefficients))
            self.a0, self.design = cells[0], cells[1:][self.solver.free_idx].T
            self.b, self.lam = self.solver.solve(self.a0, self.design, self.b)
            self.probs = self.a0 + self.design @ self.b
            self.res = _deviance_residuals(self.solver.observed, self.probs * self.solver.total)
            self.key = key
        return self

    def residuals(self, theta: np.ndarray) -> np.ndarray:
        return self.at(theta).res

    def converged(self) -> bool:
        """The inner solve's KKT test at the last point solved."""
        return self.solver.converged(self.a0, self.design, self.b, self.lam)

    def columns(self) -> np.ndarray:
        """Cell-probability slopes in theta at the last point solved and b*."""
        slopes = _cells(self.forms.slopes(self.names, self.edges, self.coefficients))
        return (slopes[:, 0] + self.b @ slopes[:, 1:][:, self.solver.free_idx]).T

    def jacobian(self, theta: np.ndarray) -> np.ndarray:
        self.at(theta)
        total = self.solver.total
        slopes = total * _residual_slopes(self.solver.observed, self.probs * total, self.res)
        jac = slopes[:, None] * self.columns()
        moves = self.design
        if self.lam > 0.0:
            # on the sphere b* moves only along it
            moves = moves @ np.linalg.svd(self.b[None, :])[2][1:].T
        if moves.shape[1]:
            q, _ = np.linalg.qr(slopes[:, None] * moves)
            jac -= q @ (q.T @ jac)
        return jac


def fit(
    h: Histogram,
    fixed: Optional[DetectorParams] = None,
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

    The deviance is convex in the Bloch vector at fixed detector
    parameters, and is minimized there in one Newton solve over the Bloch
    ball; components not in `free_bloch` are held at 0.  With the detector
    parameters fixed (`free_params` empty) that is the whole fit:
    `converged` holds when the KKT conditions of the ball constraint do,
    and `seed` and `n_starts` go unused.

    With detector parameters free, the state is profiled out: bounded
    least squares searches the free parameters alone, on the residuals of
    the profiled deviance min_b D(params, b), from n_starts Latin-hypercube
    starts drawn deterministically from the parameters' `bounds` (names in
    PARAM_NAMES; DEFAULT_BOUNDS for the others); the winner is the lowest
    deviance with index tie-break.  `converged` holds when the profiled
    gradient is below FIT_GRADIENT_TOL times the histogram total, the
    parameters lie strictly inside their box, and the inner solve meets
    its KKT test.  A start that raises is recorded; NoConvergenceError
    lists the records when every start fails.

    The covariance is the inverse Fisher information at the optimum, over
    the free names in `free_names` order; its columns are exact, the
    detector parameters' from the trace-form slopes.
    """
    if h.total < 1000:
        raise InsufficientDataError(f"histogram total {h.total} below 1000")
    free, free_param_names, lo, hi = search_box(fixed, bounds, free_bloch, free_params, n_starts)
    free_bloch = free[: len(free) - len(free_param_names)]

    dof = max(len(h.counts) - len(free), 1)  # cells, less the total and the free names
    if not free_param_names:
        # pure state fit: the information structure is known up front
        report = identifiability(fixed, free=free, rel_threshold=RANK_DEFICIENCY_TOL)
        if report.flagged:
            raise NotIdentifiableError(
                f"degenerate directions {report.degenerate_directions} at the "
                "fixed detector parameters"
            )
        # one convex solve: the profile at the fixed parameters
        profile = _Profile(h, _StateSolver(h, free), lambda theta: fixed, ()).at(np.empty(0))
        covariance = _covariance(h.total, profile.probs, profile.design)
        state, deviance = profile.solver.state(profile.b), float(np.sum(profile.res**2))
        return TomographyResult(state, fixed, covariance, profile.converged(), deviance, dof, free)

    base_params = {name: getattr(fixed, name) if fixed else 0.0 for name in PARAM_NAMES}

    def params_at(theta: np.ndarray) -> DetectorParams:
        return DetectorParams(**{**base_params, **dict(zip(free_param_names, map(float, theta)))})

    solver = _StateSolver(h, free_bloch)
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(seed)))
    starts = _latin_hypercube(rng, n_starts, lo, hi)

    best, failures = None, []
    for idx, x0 in enumerate(starts):
        profile = _Profile(h, solver, params_at, free_param_names)
        try:
            res = least_squares(
                profile.residuals, np.clip(x0, lo, hi), jac=profile.jacobian,
                bounds=(lo, hi), method="trf",
                xtol=1e-14, ftol=1e-14, gtol=1e-12, max_nfev=2000,
            )
            if not np.all(np.isfinite(res.x)):
                raise FloatingPointError(f"non-finite parameters {res.x.tolist()}")
            inner_converged = profile.at(res.x).converged()
        except (SwitchSimError, ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
            failures.append(f"start {idx}: {type(exc).__name__}: {exc}")
            continue
        deviance = float(np.sum(res.fun**2))
        grad_norm = float(np.max(np.abs(res.jac.T @ res.fun)))
        interior = bool(
            np.all(res.x > lo + 1e-9 * (hi - lo)) and np.all(res.x < hi - 1e-9 * (hi - lo))
        )
        # the deviance is measured in counts, so its gradient scale is the
        # histogram total; a stalled or boundary-pinned start sits orders of
        # magnitude above this threshold
        converged = bool(
            res.success and grad_norm < FIT_GRADIENT_TOL * h.total and interior
            and inner_converged
        )
        if best is None or deviance < best[0] - 1e-12:
            best = (deviance, res.x, profile, converged)
    if best is None:
        raise NoConvergenceError(f"all {len(starts)} fit starts failed: " + "; ".join(failures))

    deviance, theta, profile, converged = best
    p_fit, b_fit = params_at(theta), solver.state(profile.b)
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
    columns = np.hstack([profile.design, profile.columns()])
    return TomographyResult(
        bloch=b_fit,
        params=p_fit,
        covariance=_covariance(h.total, profile.probs, columns),
        converged=converged,
        chi2=deviance,
        dof=dof,
        free_names=free,
    )
