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

import functools
import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

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
    FIT_START_TIE_TOL,
    IDENTIFIABILITY_REL_TOL,
    RANK_DEFICIENCY_TOL,
)
from .trajectory import Histogram, _cells

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
class FitStart:
    """How one free-parameter start ended: its starting point, how its
    Levenberg-Marquardt search stopped, the residual (nfev) and Jacobian
    (njev) evaluations it took, and the deviance and max|J^T r| at its end;
    or the text of the exception it raised.

    status is positive on a normal stop: 1 once the projected gradient is
    at most a tenth of the convergence threshold, 2 once a step is below
    1e-14 of the parameters; 0 when the evaluation cap ran out.
    """

    x0: tuple[float, ...]
    status: Optional[int] = None
    nfev: Optional[int] = None
    njev: Optional[int] = None
    deviance: Optional[float] = None
    grad_max: Optional[float] = None
    converged: bool = False
    error: Optional[str] = None


@dataclass(frozen=True)
class TomographyResult:
    bloch: BlochComponents
    params: DetectorParams
    covariance: np.ndarray
    converged: bool
    chi2: float
    dof: int
    free_names: tuple[str, ...]
    # free-parameter fits only: one record per start, and the winner's index
    starts: tuple[FitStart, ...] = ()
    best_start: Optional[int] = None

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
            "starts": [asdict(start) for start in self.starts],
            "best_start": self.best_start,
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


@functools.lru_cache(maxsize=128)
def _fixed_point_degeneracy(p: DetectorParams, free: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    """The degenerate directions that refuse a state-only fit at p, the
    same for every histogram, so kept per (p, free) for the process."""
    return identifiability(p, free=free, rel_threshold=RANK_DEFICIENCY_TOL).degenerate_directions


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


def _secular_step(evals: np.ndarray, w: np.ndarray, radius: float) -> tuple[np.ndarray, float]:
    """In the eigenbasis of a positive definite model Hessian (eigenvalues
    evals, gradient components w): the minimizer x of the quadratic model
    over |x| <= radius and its multiplier lam >= 0, x = -w / (evals + lam).

    On the sphere lam solves the secular equation 1/|x(lam)| = 1/radius.
    1/|x(lam)| is increasing and concave, so Newton's method from lam = 0
    climbs to the root without overshooting (Moré & Sorensen, "Computing a
    trust region step", SIAM J. Sci. Stat. Comput. 4, 1983).
    """
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
    return -x, lam


def _ball_step(hess: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimizer x of x.hess.x/2 + c.x over |x| <= 1, hess positive
    definite, and its multiplier lam >= 0: (hess + lam I) x = -c."""
    evals, vecs = np.linalg.eigh(hess)
    x, lam = _secular_step(evals, vecs.T @ c, 1.0)
    return vecs @ x, lam


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


@dataclass
class _LMResult:
    """Where _bounded_lm stopped: the parameters, the residuals and
    Jacobian there, the stop's status and the evaluations it took."""

    x: np.ndarray
    fun: np.ndarray
    jac: np.ndarray
    status: int
    nfev: int
    njev: int


def _bounded_lm(fun, jac, x0, lo: np.ndarray, hi: np.ndarray, gtol: float, max_nfev: int) -> _LMResult:
    """Minimize |fun(x)|^2 over the box lo <= x <= hi by projected
    Levenberg-Marquardt.

    The variables are scaled by the running maximum of the Jacobian's
    column norms (Moré, "The Levenberg-Marquardt algorithm: implementation
    and theory", 1978).  Each step minimizes the linear model |r + J p| in
    the scaled trust region, from the SVD of the scaled Jacobian with the
    multiplier of the secular equation (_secular_step), over the
    components not held at a bound by the gradient, and is projected onto
    the box (Kanzow, Yamashita & Fukushima, J. Comput. Appl. Math. 172,
    2004).  The ratio of actual to predicted reduction takes the step
    (above 1e-4) and sets the radius as Moré does: below 1/4 it halves, to
    at most five step lengths; above 3/4, or after an undamped step, it
    becomes twice the step.  The Jacobian is evaluated only at a point
    taken.

    The status is 1 once the projected gradient max|J^T r| (components
    held at a bound left out) is at most gtol, 2 once a step is below
    1e-14 of |x| (scaled), and 0 once max_nfev residual evaluations are
    spent.
    """
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    r = fun(x)
    if not np.all(np.isfinite(r)):
        raise FloatingPointError(f"residuals are not finite at {x.tolist()}")
    jacobian = jac(x)
    nfev = njev = 1
    scale = np.zeros_like(x)
    radius = None
    while True:
        g = jacobian.T @ r
        held = ((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0))
        if np.max(np.abs(np.where(held, 0.0, g))) <= gtol:
            status = 1
            break
        if nfev >= max_nfev:
            status = 0
            break
        scale = np.maximum(scale, np.linalg.norm(jacobian, axis=0))
        d = np.where(scale > 0.0, scale, 1.0)
        if radius is None:
            radius = float(np.linalg.norm(d * (hi - lo)))
        free = ~held
        u, s, vt = np.linalg.svd(jacobian[:, free] / d[free], full_matrices=False)
        keep = s > 0.0
        z, lam = _secular_step(s[keep] ** 2, s[keep] * (u[:, keep].T @ r), radius)
        step = np.zeros_like(x)
        step[free] = (vt[keep].T @ z) / d[free]
        step = np.clip(x + step, lo, hi) - x
        step_norm = float(np.linalg.norm(d * step))
        if step_norm <= 1e-14 * np.linalg.norm(d * x):
            status = 2
            break
        r_new = fun(x + step)
        nfev += 1
        jp = jacobian @ step
        predicted = -(2.0 * (r @ jp) + jp @ jp)
        # |r|^2 - |r_new|^2 without the cancellation of the two sums
        actual = float((r - r_new) @ (r + r_new))
        ratio = actual / predicted if predicted > 0.0 else -math.inf
        if not ratio >= 0.25:
            radius = 0.5 * min(radius, 10.0 * step_norm)
        elif ratio >= 0.75 or lam == 0.0:
            radius = 2.0 * step_norm
        if ratio >= 1e-4:
            x, r = x + step, r_new
            jacobian = jac(x)
            njev += 1
    return _LMResult(x, r, jacobian, status, nfev, njev)


def fit(
    h: Histogram,
    fixed: DetectorParams,
    bounds: Optional[dict] = None,
    free_bloch: Sequence[str] = BLOCH_NAMES,
    free_params: Optional[Sequence[str]] = None,
    seed: int = 0,
    n_starts: int = 8,
) -> TomographyResult:
    """Fit the switching-time histogram by Poisson deviance minimization.

    `fixed` is required: the requested Bloch components are free, and the
    detector parameters stay at their `fixed` values unless named in
    `free_params`.  Note the model carries an exact one-dimensional gauge
    freedom when both rates, the angle and the coherences are all free
    (only gamma_minus cos(beta) and gamma_minus sin(beta) times the
    coherence magnitude are observable), so a fit with `free_params` =
    PARAM_NAMES is rejected as not identifiable; pinning one rate or the
    angle breaks the gauge.

    The deviance is convex in the Bloch vector at fixed detector
    parameters, and is minimized there in one Newton solve over the Bloch
    ball; components not in `free_bloch` are held at 0.  With the detector
    parameters fixed (`free_params` empty) that is the whole fit:
    `converged` holds when the KKT conditions of the ball constraint do,
    and `seed` and `n_starts` go unused.  Such a fit first refuses a
    configuration rank-deficient at the fixed parameters; that verdict
    depends on the parameters and the free names alone, so it is taken
    once per process for each pair (the last 128 pairs are kept).

    With detector parameters free, the state is profiled out: bounded
    Levenberg-Marquardt (_bounded_lm) searches the free parameters alone,
    on the residuals of the profiled deviance min_b D(params, b), from
    n_starts Latin-hypercube starts drawn deterministically from the
    parameters' `bounds` (names in PARAM_NAMES; DEFAULT_BOUNDS for the
    others); the winner is the lowest start index whose deviance lies
    within FIT_START_TIE_TOL (relative, at least 1 count) of the lowest.
    `converged` holds when the profiled gradient is below FIT_GRADIENT_TOL
    times the histogram total, the parameters lie strictly inside their
    box, and the inner solve meets its KKT test.  Each start stops once its
    projected profiled gradient is a tenth of that threshold, before the
    deviance flattens to its rounding floor.  Every start leaves a FitStart
    record in `starts`, the winner's index in `best_start`; a start that
    raises records the exception, and NoConvergenceError carries the
    records when every start fails.

    The covariance is the inverse Fisher information at the optimum, over
    the free names in `free_names` order; its columns are exact, the
    detector parameters' from the trace-form slopes.
    """
    if h.total < 1000:
        raise InsufficientDataError(f"histogram total {h.total} below 1000")
    free, free_param_names, lo, hi = search_box(bounds, free_bloch, free_params, n_starts)
    free_bloch = free[: len(free) - len(free_param_names)]

    dof = max(len(h.counts) - len(free), 1)  # cells, less the total and the free names
    if not free_param_names:
        # pure state fit: the information structure is known up front
        degenerate = _fixed_point_degeneracy(fixed, free)
        if degenerate:
            raise NotIdentifiableError(
                f"degenerate directions {degenerate} at the fixed detector parameters"
            )
        # one convex solve: the profile at the fixed parameters
        profile = _Profile(h, _StateSolver(h, free), lambda theta: fixed, ()).at(np.empty(0))
        covariance = _covariance(h.total, profile.probs, profile.design)
        state, deviance = profile.solver.state(profile.b), float(np.sum(profile.res**2))
        return TomographyResult(state, fixed, covariance, profile.converged(), deviance, dof, free)

    base_params = {name: getattr(fixed, name) for name in PARAM_NAMES}

    def params_at(theta: np.ndarray) -> DetectorParams:
        return DetectorParams(**{**base_params, **dict(zip(free_param_names, map(float, theta)))})

    solver = _StateSolver(h, free_bloch)
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(seed)))
    starts = _latin_hypercube(rng, n_starts, lo, hi)

    ended, records = [], []
    for idx, x0 in enumerate(starts):
        x0 = tuple(map(float, np.clip(x0, lo, hi)))
        profile = _Profile(h, solver, params_at, free_param_names)
        try:
            # stop on the profiled gradient, at a tenth of `converged`'s bound
            # below, before the deviance flattens to its rounding floor
            res = _bounded_lm(
                profile.residuals, profile.jacobian, x0, lo, hi,
                gtol=0.1 * FIT_GRADIENT_TOL * h.total, max_nfev=2000,
            )
            if not np.all(np.isfinite(res.x)):
                raise FloatingPointError(f"non-finite parameters {res.x.tolist()}")
            inner_converged = profile.at(res.x).converged()
        except (SwitchSimError, ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
            records.append(FitStart(x0, error=f"{type(exc).__name__}: {exc}"))
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
            res.status > 0 and grad_norm < FIT_GRADIENT_TOL * h.total and interior
            and inner_converged
        )
        records.append(FitStart(
            x0, int(res.status), int(res.nfev), int(res.njev), deviance, grad_norm, converged
        ))
        ended.append((idx, res.x, profile))
    if not ended:
        raise NoConvergenceError(
            f"all {len(starts)} fit starts failed: "
            + "; ".join(f"start {idx}: {record.error}" for idx, record in enumerate(records)),
            starts=records,
        )

    # the first start tied with the lowest deviance wins (FIT_START_TIE_TOL)
    lowest = min(records[idx].deviance for idx, _, _ in ended)
    tie = lowest + FIT_START_TIE_TOL * max(1.0, lowest)
    best_idx, theta, profile = next(end for end in ended if records[end[0]].deviance <= tie)
    deviance, converged = records[best_idx].deviance, records[best_idx].converged
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
        starts=tuple(records),
        best_start=best_idx,
    )
