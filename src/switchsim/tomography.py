"""Single-setting state tomography from switching-time histograms.

The switching-time distribution of one fixed detector configuration
depends on all three Bloch components of the initial state (the azimuthal
precession of the measurement basis scans the equator while the rate
asymmetry probes the poles), so fitting the histogram reconstructs the
full state, and optionally the detector parameters with it.  This fails in
the known degenerate configurations and on too few bins; `fit` refuses
both, and `identifiability` names what the switching times cannot see.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from . import mat2 as m2
from .detector import DetectorParams, _TraceForms, switch_density
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
    FIT_PLAUSIBLE_SIGMAS,
    FIT_POLISH_CAP,
    FIT_RETIRE_TOL,
    FIT_SCAN_POINTS,
    FIT_START_TIE_TOL,
    IDENTIFIABILITY_REL_TOL,
    RANK_DEFICIENCY_TOL,
)
from .trajectory import Histogram, _cells, _checked_seed

BLOCH_NAMES = ("x", "y", "z")
PARAM_NAMES = ("gamma_L", "gamma_R", "beta", "E")

DEFAULT_BOUNDS = {
    "gamma_L": (0.0, 100.0),
    "gamma_R": (1e-6, 100.0),
    "beta": (0.0, math.pi / 2),
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
    """How one polished free-parameter start ended: its starting point, a
    scan point, and the deviance the scan found there (scan_deviance, None
    if the scan failed there), how its Levenberg-Marquardt search stopped,
    the residual (nfev, the scan's included) and Jacobian (njev)
    evaluations it took, and the deviance and max|J^T r| at its end; or the
    text of the exception it raised.  The starts are stepped together, and
    nfev and njev count this start's own evaluations (the batched rounds it
    took part in); a start that stops on its own has every field it gives
    when run alone.

    status is positive on a normal stop: 1 once the projected gradient is
    at most a tenth of the convergence threshold, 2 once a step is below
    1e-14 of the parameters, 3 once the start retired into the start
    `joined`, which stopped with status 1 and whose quadratic model
    predicts this start's excess deviance (_bounded_lm); 0 when the
    evaluation cap ran out.  A retired start ends where it ends alone with
    its evaluations capped at its nfev.
    """

    x0: tuple[float, ...]
    status: Optional[int] = None
    nfev: Optional[int] = None
    njev: Optional[int] = None
    deviance: Optional[float] = None
    grad_max: Optional[float] = None
    converged: bool = False
    error: Optional[str] = None
    joined: Optional[int] = None
    scan_deviance: Optional[float] = None


@dataclass(frozen=True)
class TomographyResult:
    bloch: BlochComponents
    params: DetectorParams
    covariance: np.ndarray
    converged: bool
    chi2: float
    dof: int
    free_names: tuple[str, ...]
    # free-parameter fits only: one record per polished start, the winner's
    # index, and the number of points the scan evaluated
    starts: tuple[FitStart, ...] = ()
    best_start: Optional[int] = None
    scan_points: int = 0

    def to_json_dict(self) -> dict:
        record = {
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
        if self.scan_points:
            record["scan_points"] = self.scan_points
        return record


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
    rel_threshold: float = IDENTIFIABILITY_REL_TOL,
) -> IdentifiabilityReport:
    """Rank analysis of the switching-time model in the free directions.

    Builds the Fisher information of the survival cells (_fisher) of a
    canonical state on a canonical grid, n equal cells to t_max = 5 /
    gamma_plus (16 per precession period, 256 <= n <= 8192) and the
    no-switch cell beyond it, then flags singular directions whose
    singular value falls below rel_threshold times the largest; it sees the
    switching times on that grid, not a histogram's bins, and no fit calls
    it.  The columns are exact: the cells of the state's traceless parts
    for the Bloch vector, on which they are affine, and their trace-form
    slopes for the detector parameters.  Sensitivities are taken per
    relative parameter change (each direction scaled by its magnitude), so
    directions with different units compare meaningfully.  Direction names
    list the parameters weighing over 0.3 in the flagged singular vectors.
    """
    free = tuple(free)
    for name in free:
        if name not in BLOCH_NAMES + PARAM_NAMES:
            raise ValueError(f"unknown parameter name {name!r}")
    t_max = 5.0 / max(p.gamma_plus, 1e-12) if p.gamma_plus > 0 else 5.0
    n = int(min(max(256.0, 16.0 * max(p.E, 1.0) * t_max / (2.0 * math.pi)), 8192.0))
    edges = np.linspace(0.0, t_max, n + 1)

    # the cells of the canonical state and of the traceless basis, shape
    # (4, n + 1), and the canonical state's slopes, from a stack of one
    forms = _TraceForms([p], [_CANONICAL_BLOCH.to_density(), *_BLOCH_BASIS.values()], [m2.IDENTITY])
    coefficients = forms.propagator.coefficients(edges)
    cells = _cells(forms.combine(*coefficients)[0])
    columns = dict(zip(BLOCH_NAMES, cells[1:]))
    param_names = [name for name in free if name in PARAM_NAMES]
    if param_names:
        columns.update(zip(param_names, _cells(forms.slopes(param_names, edges, coefficients))[0, :, 0]))

    values = {**vars(_CANONICAL_BLOCH), **vars(p)}
    scales = np.array([max(abs(values[name]), 0.1) for name in free])
    info = _fisher(np.array([columns[name] for name in free]) * scales[:, None], cells[0])
    svals, degenerate = _degenerate_directions(*np.linalg.eigh(info), free, rel_threshold)
    return IdentifiabilityReport(free, info, svals, rel_threshold, degenerate, flagged=bool(degenerate))


def _fisher(slopes: np.ndarray, probs: np.ndarray, total=1.0) -> np.ndarray:
    """The multinomial Fisher information total * sum_c dp_c dp_c^T / p_c
    of cell probabilities probs, slopes (free, cells) their dp_c, over the
    cells with p_c > 0: a cell whose probability underflows to 0, as far
    into a long pulse's tail, would add 0/0."""
    if probs.min() <= 0.0:
        slopes, probs = slopes[:, probs > 0.0], probs[probs > 0.0]
    return (total * (slopes / probs)) @ slopes.T


def _degenerate_directions(svals: np.ndarray, vecs: np.ndarray, free: tuple[str, ...], rel_threshold: float):
    """From eigh of an information matrix: its eigenvalues, largest first and
    clipped at 0, and the free names of each below rel_threshold * largest."""
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
    return svals, tuple(degenerate)


def _refuse_rank_deficient(slopes: np.ndarray, probs: np.ndarray, free: tuple[str, ...], where: str) -> None:
    """Raise NotIdentifiableError unless the cells locally identify the free
    names (Rothenberg, Econometrica 39, 1971): the cells' Fisher information
    (_fisher), slopes (free, cells) their dp_c, has every eigenvalue >=
    RANK_DEFICIENCY_TOL times its largest."""
    evals, vecs = np.linalg.eigh(_fisher(slopes, probs))
    ascending = evals.tolist()  # eigh's order
    if ascending[0] < RANK_DEFICIENCY_TOL * max(ascending[-1], 1e-300):
        _, degenerate = _degenerate_directions(evals, vecs, free, RANK_DEFICIENCY_TOL)
        raise NotIdentifiableError(f"degenerate directions {degenerate} at the {where}")


@functools.lru_cache(maxsize=128)
def _cell_model(p: DetectorParams, edges: bytes) -> np.ndarray:
    """The cell rows of _CELL_STATES at p over the bin edges (float64
    bytes), shape (4, cells), rho = I/2's first: the same for every
    histogram binned on those edges, so kept per (p, edges) for the process;
    read-only, as every fit there shares them."""
    cells = _cells(_TraceForms([p], _CELL_STATES, [m2.IDENTITY])(np.frombuffer(edges))[0])
    cells.flags.writeable = False
    return cells


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


def _apart(points: np.ndarray, deviance: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The indices of the scan points that lie apart, lowest deviance first
    (a tie to the lower index): each at least one point spacing,
    len(points)^(-1/d) in the box scaled to the unit cube, from every point
    taken before it.  The polish starts from them in turn, one per basin the
    scan resolves (multi-level single linkage, Rinnooy Kan & Timmer, Math.
    Prog. 39, 1987)."""
    unit = (points - lo) / (hi - lo)
    near = np.sum((unit[:, None, :] - unit[None, :, :]) ** 2, axis=2) < len(points) ** (-2.0 / points.shape[1])
    taken, blocked = [], np.zeros(len(points), dtype=bool)
    for k in np.argsort(deviance, kind="stable"):
        if not blocked[k]:
            taken.append(k)
            blocked |= near[k]
    return np.array(taken, dtype=int)


def _refuse_mirror(beta: float, lo: float, hi: float) -> None:
    """Raise NotIdentifiableError when the mirror pi - beta of a fitted beta
    is another point of beta's box [lo, hi].  H is real and diagonal and
    Gamma real, so G(pi - beta) = sigma_x G(beta)* sigma_x and
    S(t; pi - beta) of (x, y, -z) equals S(t; beta) of (x, y, z) at every
    parameter point: the two are exact optima alike, however near pi/2, and
    the sign of z, the energy-basis population, is not determined."""
    mirror = math.pi - beta
    if lo <= mirror <= hi and mirror != beta:
        raise NotIdentifiableError(
            f"beta = {beta!r} and its mirror pi - beta = {mirror!r}, both within the beta bounds "
            f"[{lo!r}, {hi!r}], fit alike with z of opposite signs; bound beta on one side of pi/2"
        )


def search_box(
    bounds: Optional[dict] = None,
    free_bloch: Sequence[str] = BLOCH_NAMES,
    free_params: Optional[Sequence[str]] = None,
    n_starts: int = 2,
) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray, np.ndarray]:
    """Check fit's options without fitting: (free names, free detector
    parameter names, lower and upper corners of their search box).

    Raises ValueError on an unknown name, nothing to fit, n_starts < 1, an
    empty box, or a free parameter's bound that is not finite or leaves
    DetectorParams' domain (rates and E >= 0, 0 <= beta <= pi).
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
    for name, a, b in zip(free_param_names, lo, hi):
        top = math.pi if name == "beta" else math.inf
        if not (0.0 <= a and b <= top and math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"bounds of {name} must be finite and lie in [0, {top}], got [{a}, {b}]")
    return free, free_param_names, lo, hi


# A batch of K starts is stepped together, one row each.  Every contraction
# keeps the shape and summation order one row has alone (a BLAS dot, gemv or
# gemm per row, never one product over the rows), and each stacked LAPACK call
# factors each matrix on its own, so a row's arithmetic never depends on the
# others in its batch; only _bounded_lm's retire rule reads across rows, and
# it ends a row's search without changing its values.
_START_FAILURES = (SwitchSimError, ValueError, FloatingPointError, np.linalg.LinAlgError)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_k . b_k for each row k of stacks (K, n), a 1-d a broadcast."""
    return (a[..., None, :] @ b[..., None])[..., 0, 0]


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m_k @ v_k for each row k of stacks (K, p, q) and (K, q)."""
    return (m @ v[..., None])[..., 0]


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean length of each row of a stack (K, n), as np.linalg.norm of the row."""
    return np.sqrt(_dot(v, v))


def _lapack(fn, *stacks):
    """fn over stacks of matrices in one call, and the rows whose matrices it
    cannot factor, {row: LinAlgError}.  numpy's stacked call raises for the
    whole stack, so then each row is tried alone and the failing rows'
    matrices are replaced by the identity (their results are meaningless);
    the others' results are those their factorizations give alone."""
    try:
        return fn(*stacks), {}
    except np.linalg.LinAlgError:
        pass
    errors = {}
    for k in range(len(stacks[0])):
        try:
            fn(*(stack[k : k + 1] for stack in stacks))
        except np.linalg.LinAlgError as exc:
            errors[k] = exc
    stacks = [np.array(stack) for stack in stacks]
    for stack in stacks:
        stack[list(errors)] = np.eye(*stack.shape[-2:])
    return fn(*stacks), errors


def _secular_step(evals: np.ndarray, w: np.ndarray, radius) -> tuple[np.ndarray, np.ndarray]:
    """In the eigenbasis of positive definite model Hessians, one per row of
    the stacks evals (eigenvalues) and w (gradient components), (K, n), and
    radius (K,), or one float for every row: the minimizers -x of the
    quadratic models over |x| <= radius, x = w / (evals + lam), and their
    multipliers lam >= 0.

    On the sphere lam solves the secular equation 1/|x(lam)| = 1/radius.
    1/|x(lam)| is increasing and concave, so Newton's method from lam = 0
    climbs to the root without overshooting (Moré & Sorensen, "Computing a
    trust region step", SIAM J. Sci. Stat. Comput. 4, 1983).  The rows
    whose unconstrained minimizer lies inside take one stacked pass; the
    others take their Newton steps together, each row ending once its
    minimizer lies inside or its step is below 1e-15 of lam.
    """
    x, lam = w / (evals + 0.0), np.zeros(len(w))
    norm = np.sqrt(_dot(x, x))
    out = np.flatnonzero(~(norm <= radius))
    if out.size:
        evals, w, radius = evals[out], w[out], np.broadcast_to(radius, len(lam))[out]
        x_o, norm, lam_o = x[out], norm[out], lam[out]
        for _ in range(100):
            step = (norm - radius) / radius * norm**2 / _dot(x_o, x_o / (evals + lam_o[:, None]))
            go = step > 1e-15 * lam_o
            if not go.any():
                break
            lam_o = np.where(go, lam_o + step, lam_o)
            x_o = np.where(go[:, None], w / (evals + lam_o[:, None]), x_o)
            norm = np.sqrt(_dot(x_o, x_o))
        x[out], lam[out] = x_o, lam_o
    return -x, lam


def _ball_step(hess: np.ndarray, c: np.ndarray):
    """For each row k: the minimizer x of x.hess.x/2 + c.x over |x| <= 1,
    hess[k] positive semidefinite, and its multiplier lam >= 0:
    (hess + lam I) x = -c, c and x columns (K, n, 1).  Also the rows whose
    hess cannot be factored.

    An eigen-direction whose eigenvalue is at most a few eps times the
    largest is one the cells cannot see (the x and y rows at beta = 0 or
    pi): x takes 0 there, as _bounded_lm's step does along the singular
    values it drops, where dividing by the eigenvalue would blow up."""
    (evals, vecs), errors = _lapack(np.linalg.eigh, hess)
    w = (vecs.swapaxes(1, 2) @ c)[:, :, 0]
    blind = evals <= 4.0 * np.finfo(float).eps * evals[:, -1:]
    if blind.any():
        evals, w = np.where(blind, 1.0, evals), np.where(blind, 0.0, w)
    x, lam = _secular_step(evals, w, 1.0)
    return vecs @ x[:, :, None], lam, errors


def _covariance(total: int, probs: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """Inverse Fisher information (_fisher) of total counts over the cell
    probabilities, whose derivatives in the free names are the rows of
    slopes."""
    covariance = np.linalg.inv(_fisher(slopes, probs, total))
    return 0.5 * (covariance + covariance.T)


class _StateSolver:
    """Maximum-likelihood Bloch components of one histogram, at a batch of
    parameter points at a time.

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
        self.counts = self.observed[self.seen]
        self.free_bloch = free_bloch
        self.free_idx = [BLOCH_NAMES.index(name) for name in free_bloch]

    def start(self, a0: np.ndarray, basis: np.ndarray) -> np.ndarray:
        """A first b for each row of the stacks a0 and basis (as in solve),
        near its minimizer: the minimizer over the ball of Neyman's
        chi-squared, the squared misfit of the cell probabilities weighted
        by the inverse counts, which the deviance approaches for large
        counts; the mixed state where its Hessian cannot be factored."""
        design_t = basis[:, :, self.seen]
        weighted = design_t / self.counts
        freqs = self.counts / self.total - a0[:, self.seen]
        x, _, failed = _ball_step(weighted @ design_t.swapaxes(1, 2), -(weighted @ freqs[:, :, None]))
        if failed:
            x[list(failed)] = 0.0
        return x[:, :, 0]

    def solve(self, a0: np.ndarray, basis: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
        """For each row k of the stacks a0 (K, cells), basis (K, len(b[k]),
        cells), the rows of A^T, and b (K, len(b[k])): the minimizer, from
        b[k], or from the mixed state if b[k] leaves a seen cell no
        probability, and its ball multiplier; also the rows that failed,
        {row: exception}.  Each row takes its own Newton steps and leaves
        the batch once its own step is below FIT_NEWTON_STEP_TOL.

        Each b[k] must lie in the unit ball.  From outside it, a row whose
        unconstrained minimizer lies outside too cannot converge: every
        step back into the ball raises the cost, so backtracking shrinks it
        to nothing.  `start` and `_ball_step` return points in the ball and
        each step moves b towards one of them, so the earlier solutions that
        fit starts from lie in it as well."""
        b, lam, errors = np.array(b, dtype=float), np.zeros(len(b)), {}
        if not self.free_idx:
            return b, lam, errors
        counts = self.counts
        # the rows still stepping, compacted whenever one leaves; vectors are
        # columns (K, n, 1) and the cell probabilities rows (K, 1, cells)
        rows = np.arange(len(b))
        a_l = a0[:, None, self.seen]
        design_t = np.ascontiguousarray(basis[:, :, self.seen])
        design = design_t.swapaxes(1, 2)

        def cost(b):
            probs = a_l + (design @ b).swapaxes(1, 2)
            inside = probs.min(axis=2)[:, 0] > 0.0
            logs = np.log(np.where(inside[:, None, None], probs, 1.0))
            return np.where(inside, -(counts @ logs.swapaxes(1, 2))[:, 0], math.inf)

        b_l = b[:, :, None]
        probs = a_l + (design @ b_l).swapaxes(1, 2)
        outside = probs.min(axis=2)[:, 0] <= 0.0
        if any(outside):
            b_l = np.where(outside[:, None, None], 0.0, b_l)
            probs[outside] = a_l[outside]
        for _ in range(50):
            # gradient and Hessian of the negative log-likelihood
            # -sum n log(probs); the cell probabilities sum to one for every b
            ratio = counts / probs
            grad = -(ratio @ design)
            hess = (design_t * (ratio / probs)) @ design
            x, lam_l, failed = _ball_step(hess, grad.swapaxes(1, 2) - hess @ b_l)
            if failed:
                errors.update((rows[k], exc) for k, exc in failed.items())
                ok = np.isin(np.arange(len(rows)), list(failed), invert=True)
                rows, a_l, design_t, b_l, x, lam_l, grad, hess = (
                    v[ok] for v in (rows, a_l, design_t, b_l, x, lam_l, grad, hess)
                )
                design = design_t.swapaxes(1, 2)
            step = x - b_l
            # the step's length in standard deviations (the Newton decrement);
            # -n log p is self-concordant, so a step under 1/4 keeps every cell
            # probability positive and converges quadratically
            size = np.sqrt(np.maximum(step.swapaxes(1, 2) @ hess @ step, 0.0))[:, 0, 0]
            backtrack = size > 0.25
            if any(backtrack):
                # far from the optimum: backtrack to sufficient decrease,
                # halving t while t > 1e-12 and the decrease falls short
                f0, slope, t = cost(b_l), (grad @ step)[:, 0, 0], np.ones(len(rows))
                while True:
                    trial = cost(b_l + t[:, None, None] * step)
                    if not any(backtrack := backtrack & (trial > f0 + 1e-4 * t * slope)):
                        break
                    t[backtrack] *= 0.5
                    backtrack &= t > 1e-12
                step = t[:, None, None] * step
            b_l = b_l + step
            done = size <= FIT_NEWTON_STEP_TOL
            if any(done):
                if all(done):
                    break
                b[rows], lam[rows] = b_l[:, :, 0], lam_l
                rows, a_l, design_t, b_l, lam_l = (v[~done] for v in (rows, a_l, design_t, b_l, lam_l))
                design = design_t.swapaxes(1, 2)
            probs = a_l + (design @ b_l).swapaxes(1, 2)
        b[rows], lam[rows] = b_l[:, :, 0], lam_l
        return b, lam, errors

    def converged(self, a0: np.ndarray, design: np.ndarray, b: np.ndarray, lam: float) -> bool:
        """KKT test of a solution: grad + lam b = 0 with lam >= 0 (lam = 0
        inside the ball), the gradient in counts, as in the free-parameter
        fit's criterion."""
        seen = self.seen
        grad = -(self.counts / (a0[seen] + design[seen] @ b)) @ design[seen]
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
    free detector parameters theta, and their Jacobian, for a batch of
    starts (a free fit's scan points), one row each.

    `residuals(rows, theta)` and `jacobian(rows, theta)` evaluate the starts
    `rows` at theta (one point per row) and return their values with the
    starts that failed, {position in rows: exception}.  Residuals and
    Jacobian share one evaluation per theta, and each start's inner solve
    starts from its previous b* (its first from _StateSolver.start).  The
    Jacobian is Kaufman's: the exact slopes of the cell probabilities in
    theta at fixed b*, from the coefficients the rows were evaluated with,
    projected off the exact residual columns of the directions in which b*
    can move (Kaufman, BIT 15, 1975; O'Leary & Rust, Comput. Optim. Appl.
    54, 2013).  At b* the residuals are orthogonal to those columns, so its
    gradient J^T r is the profiled deviance's.  With no free parameter
    (`names` empty) the cell rows are the calibration's, from _cell_model.
    """

    def __init__(self, h: Histogram, solver: _StateSolver, params_at, names: tuple[str, ...], n_rows: int):
        self.edges, self.solver, self.params_at, self.names = h.bin_edges, solver, params_at, names
        n_cells = len(solver.observed)
        self.keys, self.params = [None] * n_rows, [None] * n_rows
        self.b, self.lam = np.zeros((n_rows, len(solver.free_idx))), np.zeros(n_rows)
        self.a0, self.probs, self.res = np.zeros((3, n_rows, n_cells))
        # the cell rows of the free Bloch directions, A^T, per start
        self.basis = np.zeros((n_rows, len(solver.free_idx), n_cells))
        # the last batch solved: its starts, trace forms and coefficients
        self.last = (), None, None

    def at(self, rows: np.ndarray, theta: np.ndarray) -> dict:
        """Solve for b* at theta[i] for each start rows[i] whose last point
        solved was another; the starts that failed, {i: exception}."""
        errors, stale, keys = {}, [], []
        for i, (k, point) in enumerate(zip(rows, theta)):
            key = point.tobytes()
            if key != self.keys[k]:
                try:
                    self.params[k] = self.params_at(point)
                except _START_FAILURES as exc:
                    errors[i] = exc
                    continue
                stale.append(i)
                keys.append(key)
        if not stale:
            return errors
        ks = rows[stale]
        if self.names:
            forms = _TraceForms([self.params[k] for k in ks], _CELL_STATES, [m2.IDENTITY])
            c, s = forms.propagator.coefficients(self.edges)
            cells = _cells(forms.combine(c, s))
            self.last = ks, forms, (c, s)
        else:
            # no free parameter: the rows depend on the calibration alone
            edges = self.edges.tobytes()
            cells = np.array([_cell_model(self.params[k], edges) for k in ks])
        a0, basis = cells[:, 0], cells[:, 1:][:, self.solver.free_idx]
        if not self.names:
            for a0_k, basis_k in zip(a0, basis):
                _refuse_rank_deficient(basis_k, a0_k, self.solver.free_bloch, "fixed detector parameters")
        b = self.b[ks]
        cold = [self.keys[k] is None for k in ks]
        if self.solver.free_idx and any(cold):
            # a start's first solve begins near its minimizer
            b[cold] = self.solver.start(a0[cold], basis[cold])
        b, lam, failed = self.solver.solve(a0, basis, b)
        probs = a0 + _matvec(basis.swapaxes(1, 2), b)
        res = _deviance_residuals(self.solver.observed, probs * self.solver.total)
        for j, exc in failed.items():
            errors[stale[j]] = exc
        solved = [j for j in range(len(ks)) if j not in failed]
        for j in solved:
            self.keys[ks[j]] = keys[j]
        if failed:
            ks, a0, basis, b, lam, probs, res = (v[solved] for v in (ks, a0, basis, b, lam, probs, res))
        self.a0[ks], self.basis[ks], self.b[ks], self.lam[ks] = a0, basis, b, lam
        self.probs[ks], self.res[ks] = probs, res
        return errors

    def residuals(self, rows: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, dict]:
        errors = self.at(rows, theta)
        return self.res[rows], errors

    def converged(self, k: int) -> bool:
        """Start k's inner KKT test at its last point solved."""
        return self.solver.converged(self.a0[k], self.basis[k].T, self.b[k], self.lam[k])

    def columns(self, rows: np.ndarray) -> np.ndarray:
        """Cell-probability slopes in theta at each start's last point
        solved and b*, shape (len(rows), len(names), cells)."""
        ks, forms, coefficients = self.last
        position = {k: j for j, k in enumerate(ks)}
        if all(k in position for k in rows):
            # the forms the rows were last evaluated with, every row of them
            picked = [position[k] for k in rows]
        else:
            forms = _TraceForms([self.params[k] for k in rows], _CELL_STATES, [m2.IDENTITY])
            coefficients, picked = forms.propagator.coefficients(self.edges), slice(None)
        slopes = _cells(forms.slopes(self.names, self.edges, coefficients))[picked]
        moved = self.b[rows][:, None, None, :] @ slopes[:, :, 1:][:, :, self.solver.free_idx]
        return slopes[:, :, 0] + moved[:, :, 0]

    def jacobian(self, rows: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, dict]:
        errors = self.at(rows, theta)
        jac = np.zeros((len(rows), len(self.solver.observed), len(self.names)))
        ok = np.array([i not in errors for i in range(len(rows))], dtype=bool)
        ks = rows[ok]
        if not len(ks):
            return jac, errors
        total = self.solver.total
        slopes = total * _residual_slopes(self.solver.observed, self.probs[ks] * total, self.res[ks])
        # J^T per start, so that each J is Fortran-ordered
        jac_t = slopes[:, None, :] * self.columns(ks)
        # on the sphere b* moves only along it: one stacked projection for
        # the starts inside the ball and one for those on the sphere
        on_sphere = self.lam[ks] > 0.0
        for group in (np.flatnonzero(~on_sphere), np.flatnonzero(on_sphere)):
            if not len(group):
                continue
            moves, failed = self.basis[ks[group]].swapaxes(1, 2), {}
            if on_sphere[group[0]]:
                (_, _, vt), failed = _lapack(np.linalg.svd, self.b[ks[group]][:, None, :])
                moves = moves @ vt[:, 1:].swapaxes(1, 2)
            if moves.shape[2]:
                q, failed_qr = _lapack(lambda a: np.linalg.qr(a)[0], slopes[group][:, :, None] * moves)
                failed.update(failed_qr)
                part = jac_t[group].swapaxes(1, 2)
                part -= q @ (q.swapaxes(1, 2) @ part)
                jac_t[group] = part.swapaxes(1, 2)
            for j, exc in failed.items():
                errors[np.flatnonzero(ok)[group[j]]] = exc
        jac[ok] = jac_t.swapaxes(1, 2)
        return jac, errors


@dataclass
class _LMResult:
    """Where _bounded_lm stopped each start: the parameters, the residuals
    and Jacobian there, the stop's status and the evaluations it took, or
    the exception that ended it (None for a normal stop)."""

    x: np.ndarray
    fun: np.ndarray
    jac: np.ndarray
    status: np.ndarray
    nfev: np.ndarray
    njev: np.ndarray
    errors: list
    # the start each retired start (status 3) joined, -1 for the others
    joined: np.ndarray


def _bounded_lm(fun, jac, x0, lo: np.ndarray, hi: np.ndarray, gtol: float, max_nfev: int) -> _LMResult:
    """Minimize |fun(x)|^2 over the box lo <= x <= hi by projected
    Levenberg-Marquardt, from each start x0[k] of a batch (K, n) at once.

    fun(rows, x) and jac(rows, x) give the residuals (len(rows), m) and
    Jacobian (len(rows), m, n) of the starts `rows` at their points x, with
    the starts that failed, {position in rows: exception}.  Each round
    evaluates every start still searching in one call; a start leaves the
    batch once it stops, and a start whose evaluation fails, or whose
    residuals are not finite, or whose scaled Jacobian cannot be factored,
    records its exception and leaves alone.  No start's arithmetic depends
    on another's: a held column is zeroed, not dropped.

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
    spent; nfev and njev count each start's own evaluations.

    Each start that stops with status 1 becomes a reference: its point
    x_r, |r_r|^2 and J_r^T J_r.  Every round, each start still searching
    retires at its accepted point x (status 3, the reference's index in
    `joined`) into the first reference whose quadratic model predicts its
    actual excess to within FIT_RETIRE_TOL: ||r|^2 - |r_r|^2 - (x -
    x_r)^T J_r^T J_r (x - x_r)| <= FIT_RETIRE_TOL.  The two lie in one
    basin (multi-level single linkage, Rinnooy Kan & Timmer, Math. Prog.
    39, 1987), and a start below the model, in a lower basin or a mirror
    optimum, is never retired.  So each start that stops on its own
    (status 0, 1 or 2) is bit-identical alone and in the batch, and a
    retired start ends where it ends alone capped at its nfev.
    """
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    n_rows, n = x.shape
    errors = [None] * n_rows
    searching = np.ones(n_rows, dtype=bool)

    def evaluate(f, rows, points, residuals=False):
        """f at the starts' points: the values, and which starts did not fail
        (the others' exceptions recorded and their search ended)."""
        values, failed = f(rows, points)
        if residuals:
            for i in np.flatnonzero(~np.all(np.isfinite(values), axis=1)):
                failed.setdefault(i, FloatingPointError(f"residuals are not finite at {points[i].tolist()}"))
        for i, exc in failed.items():
            errors[rows[i]] = exc
            searching[rows[i]] = False
        return values, searching[rows]

    rows = np.arange(n_rows)
    r = np.array(evaluate(fun, rows, x, residuals=True)[0], dtype=float)
    # each start's J^T, so that J is Fortran-ordered
    jac_t = np.zeros((n_rows, n, r.shape[1]))
    rows = np.flatnonzero(searching)
    jacobian, ok = evaluate(jac, rows, x[rows])
    jac_t[rows[ok]] = jacobian[ok].swapaxes(1, 2)
    nfev, njev = np.ones(n_rows, dtype=int), np.ones(n_rows, dtype=int)
    status, joined = np.zeros(n_rows, dtype=int), np.full(n_rows, -1)
    # the starts stopped on their gradient, in the order they stopped, and
    # each one's Gauss-Newton Hessian J^T J there
    refs, bowl = np.zeros(0, dtype=int), np.zeros((0, n, n))
    scale, radius = np.zeros((n_rows, n)), np.full(n_rows, math.nan)
    while (live := np.flatnonzero(searching)).size:
        x_l, jt = x[live], jac_t[live]
        g = _matvec(jt, r[live])
        held = ((x_l <= lo) & (g > 0.0)) | ((x_l >= hi) & (g < 0.0))
        done = np.max(np.abs(np.where(held, 0.0, g)), axis=1) <= gtol
        status[live[done]] = 1
        refs, bowl = np.append(refs, live[done]), np.concatenate([bowl, jt[done] @ jt[done].swapaxes(1, 2)])
        if refs.size:
            # retire into the first reference whose quadratic model predicts
            # the start's actual excess deviance to within FIT_RETIRE_TOL
            dx = x_l[:, None, :] - x[refs]
            model = (dx[:, :, None, :] @ bowl @ dx[:, :, :, None])[:, :, 0, 0]
            excess = _dot(r[live], r[live])[:, None] - _dot(r[refs], r[refs])
            on_bowl = ~done[:, None] & (np.abs(excess - model) <= FIT_RETIRE_TOL)
            retired = on_bowl.any(axis=1)
            status[live[retired]] = 3
            joined[live[retired]] = refs[on_bowl.argmax(axis=1)[retired]]
            done |= retired
        searching[live[done | (nfev[live] >= max_nfev)]] = False
        go = searching[live]
        live, x_l, jt, held = live[go], x_l[go], jt[go], held[go]
        if not live.size:
            break
        scale[live] = np.maximum(scale[live], np.linalg.norm(jt, axis=2))
        d = np.where(scale[live] > 0.0, scale[live], 1.0)
        unset = np.isnan(radius[live])
        radius[live[unset]] = _norm(d[unset] * (hi - lo))
        free = ~held
        (u, s, vt), failed = _lapack(
            lambda a: np.linalg.svd(a, full_matrices=False),
            np.where(free[:, :, None], jt / d[:, :, None], 0.0).swapaxes(1, 2),
        )
        # the held columns' singular values are zero: the smallest ones
        keep = (s > 0.0) & (np.arange(n) < n - held.sum(axis=1)[:, None])
        # U^T r with U^T C-ordered, as the transpose of a column selection
        w = np.where(keep, s * _matvec(np.ascontiguousarray(u.swapaxes(1, 2)), r[live]), 0.0)
        z, lam = _secular_step(np.where(keep, s**2, 1.0), w, radius[live])
        step = np.where(free, _matvec(vt.swapaxes(1, 2), z) / d, 0.0)
        step = np.clip(x_l + step, lo, hi) - x_l
        step_norm = _norm(d * step)
        small = step_norm <= 1e-14 * _norm(d * x_l)
        status[live[small]] = 2
        searching[live[small]] = False
        for j, exc in failed.items():
            errors[live[j]] = exc
            searching[live[j]] = False
        go = searching[live]
        live, x_l, jt, step, step_norm, lam = (a[go] for a in (live, x_l, jt, step, step_norm, lam))
        if not live.size:
            break
        trial = x_l + step
        r_new, ok = evaluate(fun, live, trial, residuals=True)
        nfev[live] += 1
        live, jt, step, step_norm, lam, trial, r_new = (
            a[ok] for a in (live, jt, step, step_norm, lam, trial, r_new)
        )
        r_l = r[live]
        jp = _matvec(jt.swapaxes(1, 2), step)
        predicted = -(2.0 * _dot(r_l, jp) + _dot(jp, jp))
        # |r|^2 - |r_new|^2 without the cancellation of the two sums
        actual = _dot(r_l - r_new, r_l + r_new)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(predicted > 0.0, actual / predicted, -math.inf)
        shrink = ~(ratio >= 0.25)
        radius[live[shrink]] = 0.5 * np.minimum(radius[live[shrink]], 10.0 * step_norm[shrink])
        grow = ~shrink & ((ratio >= 0.75) | (lam == 0.0))
        radius[live[grow]] = 2.0 * step_norm[grow]
        taken = ratio >= 1e-4
        moved = live[taken]
        if moved.size:
            x[moved], r[moved] = trial[taken], r_new[taken]
            jacobian, ok = evaluate(jac, moved, x[moved])
            njev[moved] += 1
            jac_t[moved[ok]] = jacobian[ok].swapaxes(1, 2)
    return _LMResult(x, r, jac_t.swapaxes(1, 2), status, nfev, njev, errors, joined)


def fit(
    h: Histogram,
    fixed: DetectorParams,
    bounds: Optional[dict] = None,
    free_bloch: Sequence[str] = BLOCH_NAMES,
    free_params: Optional[Sequence[str]] = None,
    seed: int = 0,
    n_starts: int = 2,
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
    and `seed` and `n_starts` go unused.  Its cell model, the cell
    probabilities of rho = I/2 and of the three Bloch directions, depends
    on the parameters and the bin edges alone, and is kept for the last 128
    pairs (read-only, shared by every fit there), so fitting many
    histograms binned alike at one calibration evaluates it once.  A fit
    whose cells cannot resolve every free name raises NotIdentifiableError
    (_refuse_rank_deficient), a state-only fit before its solve; `dof`, the
    bins less the free names, is then >= 0, and 0 when exactly determined.

    With detector parameters free, the state is profiled out, and the
    free parameters alone are searched on the profiled deviance
    min_b D(params, b) over their `bounds` box (names in PARAM_NAMES;
    DEFAULT_BOUNDS for the others, beta's [0, pi/2]) in two stages.  The
    scan evaluates it at FIT_SCAN_POINTS Latin-hypercube points drawn
    deterministically from `seed`, all in one stacked evaluation.
    The polish runs bounded Levenberg-Marquardt (_bounded_lm) on its
    residuals from the n_starts lowest scan points that lie apart
    (_apart), each going on from its scan point's state, and then from the
    next n_starts, until a start converges to a deviance within
    FIT_PLAUSIBLE_SIGMAS standard deviations, sqrt(2 dof), above dof, or
    max(n_starts, FIT_POLISH_CAP) points are polished.  The starts of one
    call are stepped together, each
    round evaluating every start still searching in one batch, and a
    start retires (status 3) once it sits on the quadratic bowl of a start
    that stopped on its gradient, recording that start in `joined`; each
    start that stops on its own has the result it has run alone.  A
    retired start stands for the start it joined: the winner is the start
    standing for the first start, in polish order, whose deviance (its
    own, or its reference's if it retired) lies within FIT_START_TIE_TOL
    (relative, at least 1 count) of the lowest, so a retired start never
    wins.  `converged` holds when the profiled gradient is below
    FIT_GRADIENT_TOL times the histogram total, the parameters lie strictly
    inside their box, and the inner solve meets its KKT test.  Each start
    stops once its projected profiled gradient is a tenth of that
    threshold, before the deviance flattens to its rounding floor.  Every
    polished start leaves a FitStart record in `starts`, with the scan's
    deviance at its x0, the winner's index in `best_start`, and the scan's
    size in `scan_points`; a start that fails records its exception, and
    NoConvergenceError carries the records when every start fails.

    With beta free, a fit whose mirror pi - beta is another point of beta's
    box raises NotIdentifiableError (_refuse_mirror): both fit alike, with
    z of opposite signs.

    The covariance is the inverse Fisher information at the optimum, over
    the free names in `free_names` order; its columns are exact, the
    detector parameters' from the trace-form slopes.

    A seed outside [0, 2^64) raises ValueError, whether or not the fit
    draws starts.
    """
    _checked_seed(seed)
    if h.total < 1000:
        raise InsufficientDataError(f"histogram total {h.total} below 1000")
    free, free_param_names, lo, hi = search_box(bounds, free_bloch, free_params, n_starts)
    free_bloch = free[: len(free) - len(free_param_names)]

    dof = len(h.counts) - len(free)  # cells, less the total and the free names
    if not free_param_names:
        # one convex solve: the profile at the fixed parameters
        profile = _Profile(h, _StateSolver(h, free), lambda theta: fixed, (), 1)
        errors = profile.at(np.zeros(1, dtype=int), np.empty((1, 0)))
        if errors:
            raise errors[0]
        covariance = _covariance(h.total, profile.probs[0], profile.basis[0])
        state, deviance = profile.solver.state(profile.b[0]), float(np.sum(profile.res[0] ** 2))
        return TomographyResult(state, fixed, covariance, profile.converged(0), deviance, dof, free)

    base_params = {name: getattr(fixed, name) for name in PARAM_NAMES}

    def params_at(theta: np.ndarray) -> DetectorParams:
        return DetectorParams(**{**base_params, **dict(zip(free_param_names, map(float, theta)))})

    solver = _StateSolver(h, free_bloch)
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(seed)))
    points = np.clip(_latin_hypercube(rng, FIT_SCAN_POINTS, lo, hi), lo, hi)
    profile = _Profile(h, solver, params_at, free_param_names, len(points))
    fun, failed = profile.residuals(np.arange(len(points)), points)
    scan = np.sum(fun**2, axis=1)
    scan[list(failed)] = math.inf
    scan[~np.isfinite(scan)] = math.inf
    # the polish's first Jacobian forms its own rows' slopes, not the scan's
    profile.last = (), None, None
    order = _apart(points, scan, lo, hi)[: max(n_starts, FIT_POLISH_CAP)]
    # the deviance of the model at its optimum is chi-squared on dof degrees
    # of freedom: until a start converges below dof + FIT_PLAUSIBLE_SIGMAS
    # standard deviations, the starts so far lie in wrong basins or stalled
    plausible = dof + FIT_PLAUSIBLE_SIGMAS * math.sqrt(2.0 * max(dof, 1))
    records, ends = [], []
    for first in range(0, len(order), n_starts):
        picked = order[first : first + n_starts]
        # each polished start is its scan point's row of the profile, so its
        # first evaluation is the scan's; stop on the profiled gradient, at a
        # tenth of `converged`'s bound below, before the deviance flattens to
        # its rounding floor
        res = _bounded_lm(
            lambda rows, theta: profile.residuals(picked[rows], theta),
            lambda rows, theta: profile.jacobian(picked[rows], theta),
            points[picked], lo, hi, gtol=0.1 * FIT_GRADIENT_TOL * h.total, max_nfev=2000,
        )
        errors = list(res.errors)
        for idx, x in enumerate(res.x):
            if errors[idx] is None and not np.all(np.isfinite(x)):
                errors[idx] = FloatingPointError(f"non-finite parameters {x.tolist()}")
        ended = np.array([idx for idx, exc in enumerate(errors) if exc is None], dtype=int)
        for i, exc in profile.at(picked[ended], res.x[ended]).items():
            errors[ended[i]] = exc

        for idx, k in enumerate(picked):
            x0 = tuple(map(float, points[k]))
            scan_deviance = float(scan[k]) if math.isfinite(scan[k]) else None
            if errors[idx] is not None:
                records.append(FitStart(
                    x0, error=f"{type(errors[idx]).__name__}: {errors[idx]}", scan_deviance=scan_deviance
                ))
                continue
            x, fun, jac = res.x[idx], res.fun[idx], res.jac[idx]
            deviance = float(np.sum(fun**2))
            grad_norm = float(np.max(np.abs(jac.T @ fun)))
            interior = bool(np.all(x > lo + 1e-9 * (hi - lo)) and np.all(x < hi - 1e-9 * (hi - lo)))
            # the deviance is measured in counts, so its gradient scale is the
            # histogram total; a stalled or boundary-pinned start sits orders
            # of magnitude above this threshold
            converged = bool(
                res.status[idx] > 0 and grad_norm < FIT_GRADIENT_TOL * h.total and interior
                and profile.converged(k)
            )
            joined = first + int(res.joined[idx]) if res.status[idx] == 3 else None
            records.append(FitStart(
                x0, int(res.status[idx]), int(res.nfev[idx]), int(res.njev[idx]), deviance, grad_norm, converged,
                joined=joined, scan_deviance=scan_deviance,
            ))
        ends.extend(res.x)
        if any(record.converged and record.deviance <= plausible for record in records):
            break
    ended = [idx for idx, record in enumerate(records) if record.error is None]
    if not ended:
        raise NoConvergenceError(
            f"all {len(records)} fit starts failed: "
            + "; ".join(f"start {idx}: {record.error}" for idx, record in enumerate(records)),
            starts=records,
            scan_points=len(points),
        )

    # a retired start stands for the optimum it joined, and the first start
    # tied with the lowest deviance (FIT_START_TIE_TOL) gives the winner
    basin = [idx if record.joined is None else record.joined for idx, record in enumerate(records)]
    lowest = min(records[basin[idx]].deviance for idx in ended)
    tie = lowest + FIT_START_TIE_TOL * max(1.0, lowest)
    best = basin[next(idx for idx in ended if records[basin[idx]].deviance <= tie)]
    deviance, converged = records[best].deviance, records[best].converged
    row = order[best]
    p_fit, b_fit = params_at(ends[best]), solver.state(profile.b[row])
    columns = np.hstack([profile.basis[row].T, profile.columns(np.array([row]))[0].T])
    # with parameters free, rank deficiency (such as the gauge null
    # direction of the all-parameter model) is only visible at the fitted
    # point; directions are per relative change, as identifiability's
    values = {**vars(b_fit), **vars(p_fit)}
    scales = np.array([max(abs(values[name]), 0.1) for name in free])
    _refuse_rank_deficient(columns.T * scales[:, None], profile.probs[row], free, "fitted parameters")
    if "beta" in free_param_names:
        k = free_param_names.index("beta")
        _refuse_mirror(p_fit.beta, float(lo[k]), float(hi[k]))
    return TomographyResult(
        bloch=b_fit,
        params=p_fit,
        covariance=_covariance(h.total, profile.probs[row], columns.T),
        converged=converged,
        chi2=deviance,
        dof=dof,
        free_names=free,
        starts=tuple(records),
        best_start=best,
        scan_points=len(points),
    )
