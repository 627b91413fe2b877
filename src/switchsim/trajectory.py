"""Stochastic unraveling of the switching measurement.

Each trajectory is one experimental run: the detector either switches at
some random time in [0, tau] or survives the whole pulse, and the qubit
ends in the state conditioned on that record.  The run's record is drawn
by inverting the survival probability exactly, so no discretization error
enters.

Randomness is counter-based (Philox) and keyed by (seed, trajectory
index): trajectory i consumes the i-th variate of the Philox(seed) stream,
so it sees the same number no matter how many trajectories run, in which
order, or on how many workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import mat2 as m2
from .detector import (
    DetectorParams,
    _survival_and_density,
    _TraceForms,
    generator,
    propagator,
    sqrt_rate_matrix,
    survival_function,
)
from .errors import BisectionFailureError, InsufficientCountsError
from .tolerances import INVERSION_RESIDUAL_TOL, INVERSION_STEP_REL_TOL

# Trajectories per Philox draw.  A multiple of 4, so every chunk starts on
# a whole counter step of the stream.
CHUNK = 1 << 14
# glibc's malloc hands the free top of its heap back to the OS once it
# exceeds twice the largest mmap'd block freed so far.  Each chunk frees
# its numpy temporaries, so in a long-lived process a repeated run would
# fault pages in afresh at every chunk (~1.3k minor faults per 1e6
# trajectories at C1, ~440 per 8-chunk run) unless a block of this size
# has been freed first.
_HEAP_HEADROOM = 32 * CHUNK * 8
_TABLE_POINTS = 4097
# The smallest switched u: 1 - U for the largest double U < 1 a Generator
# draws, 1 - 2^-53.
_U_MIN = 2.0**-53
# The highest Taylor degree a table cell may carry.  A degree qualifies
# only where ||B_k|| ~ (2 ||G|| h)^k / k! falls below 2^-52, one rounding of
# S <= 1, by k = _MAX_DEGREE + 1, which keeps the terms of the cell
# polynomial, and so its rounding, within an order of magnitude of S; each
# degree costs two multiply-adds per evaluation.
_MAX_DEGREE = 14
# Bisection alone narrows a grid bracket to the step tolerance in ~22 steps.
_MAX_STEPS = 100
# chi2_vs_analytic merges cells until each expects this many counts.
_MIN_EXPECTED = 5.0


def _checked_seed(seed: int) -> int:
    """seed, if it can key a Philox stream: an integer in [0, 2^64)."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


@dataclass(frozen=True)
class SimConfig:
    """Ensemble size, pulse duration, RNG seed and histogram bin count."""

    n_traj: int
    tau: float
    seed: int
    n_bins: int = 50

    def __post_init__(self):
        if self.n_traj < 1:
            raise ValueError("n_traj must be >= 1")
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise ValueError("tau must be positive and finite")
        if self.n_bins < 2:
            raise ValueError("n_bins must be >= 2")
        _checked_seed(self.seed)


@dataclass(frozen=True)
class TrajectoryOutcome:
    """One run: whether/when the detector switched and the conditional
    (trace-normalized) final state of the qubit."""

    switched: bool
    switch_time: Optional[float]
    final_state: np.ndarray


@dataclass(frozen=True)
class Histogram:
    """Binned switching times plus the count of runs that never switched."""

    bin_edges: np.ndarray
    counts: np.ndarray
    no_switch_count: int
    total: int

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        counts = np.asarray(self.counts, dtype=np.int64)
        if edges.ndim != 1 or len(edges) != len(counts) + 1:
            raise ValueError("need len(bin_edges) == len(counts) + 1")
        # "not all >" also stops at a NaN edge, which every comparison fails
        rising = np.diff(edges) > 0.0
        if not np.all(rising):
            i = int(np.argmin(rising))
            raise ValueError(
                f"bin edges must be strictly increasing: edge {i + 1} ({edges[i + 1]}) follows edge {i} ({edges[i]})"
            )
        if not edges[0] >= 0.0:
            raise ValueError(f"bin edges must not be negative: edge 0 is {edges[0]}")
        if np.any(counts < 0) or int(self.no_switch_count) < 0:
            raise ValueError("counts and no_switch_count must be >= 0")
        if int(counts.sum()) + int(self.no_switch_count) != int(self.total):
            raise ValueError("counts + no_switch_count must equal total")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "counts", counts)


def _uniforms(seed: int, start: int, n: int) -> np.ndarray:
    """Variates start .. start + n - 1 of the Philox(seed) stream, as 1 - U
    in (0, 1].  Philox yields four doubles per counter step, so the stream
    is advanced by whole steps and the remainder drawn and dropped."""
    bits = np.random.Philox(key=np.uint64(seed))
    bits.advance(start // 4)
    skip = start % 4
    return 1.0 - np.random.Generator(bits).random(skip + n)[skip:]


def _normalize(rho: np.ndarray) -> np.ndarray:
    return rho / m2.trace(rho).real


def _checked_state(rho0: np.ndarray) -> np.ndarray:
    m2.check_density_matrix(rho0)
    if abs(m2.trace(rho0).real - 1.0) > 1e-10:
        raise ValueError("rho0 must have unit trace")
    return np.asarray(rho0, dtype=complex)


def _bracket_finder(table: np.ndarray):
    """u -> k with table[k - 1] >= u > table[k], k clipped to [1, len - 1]:
    np.searchsorted(-table, -u, side="right") for a non-increasing table,
    found in O(1) per u.

    A guide table (Chen & Asau 1974) splits [table[-1], table[0]] into
    4 (len - 1) equal u-cells; each stores the bracket of its top edge, a
    lower bound on that of any u inside.  Two compare-and-increment steps
    from it and an exact check settle almost every u; the rest (rounding at
    a cell edge, or more than two table values in one u-cell) fall back to
    the binary search.
    """
    n = table.size
    rising = -table
    cells = 4 * (n - 1)
    lo, span = table[-1], table[0] - table[-1]
    scale = cells / span if span > 0.0 else 0.0
    tops = lo + span * (np.arange(1, cells + 1) / cells)
    guide = np.clip(np.searchsorted(rising, -tops, side="right"), 1, n - 3)

    def bracket(u: np.ndarray) -> np.ndarray:
        cell = (u - lo) * scale
        k = guide[np.clip(cell, 0, cells - 1, out=cell).astype(np.intp)]
        k += table[k] >= u
        k += table[k] >= u
        bad = (table[k - 1] < u) | (u <= table[k])
        if bad.any():
            k[bad] = np.clip(np.searchsorted(rising, -u[bad], side="right"), 1, n - 1)
        return k

    return bracket


def _taylor_ops(p: DetectorParams, h: float):
    """(B_0 .. B_K, R_K): the operators whose trace forms give the Taylor
    coefficients of S on a cell of width h, and their remainder bound; None
    where no degree K in 1 .. _MAX_DEGREE has R_K <= 2^-52.

    With X(t) = U_ns rho0 U_ns^dag, dX/dt = G X + X G^dag, so
    S^(k)(t) h^k / k! = Tr{X(t) B_k} for B_0 = I and
    B_{k+1} = (B_k G + G^dag B_k) h / (k + 1), each B_k Hermitian.  As
    X >= 0 with trace S <= 1, |Tr(X B)| <= ||B||_2, so the Lagrange
    remainder of degree K anywhere in a cell is at most
    R_K = ||B_{K+1}||_2.  A norm that overflows certifies nothing.
    """
    g = generator(p)
    g_dag = m2.dag(g)
    ops = [m2.IDENTITY]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, _MAX_DEGREE + 2):
            b = (ops[-1] @ g + g_dag @ ops[-1]) * (h / k)
            # |mean| + radius of the eigenvalues; nothing is squared, so a
            # norm below 1e-154 does not underflow to 0
            (b00, b01), (_, b11) = b.tolist()
            remainder = abs(b00.real + b11.real) / 2.0 + math.hypot((b00.real - b11.real) / 2.0, abs(b01))
            if k > 1 and remainder <= 2.0**-52:
                return np.array(ops), remainder
            ops.append(b)
    return None


def _cell_polynomials(rows: np.ndarray, grid: np.ndarray, h: float):
    """(t, j) -> (S, rho) at times t in grid cells j, cell j being
    [grid[j], grid[j] + h], from rows[k, j] = S^(k)(grid[j]) h^k / k!.

    One Horner pass in x = (t - grid[j]) / h forms the polynomial and its
    slope together, gathering the coefficients one row at a time, so no
    (K + 1, len(t)) block is held.
    """
    inv_h, rate_scale = 1.0 / h, -1.0 / h

    def evaluate(t: np.ndarray, j: np.ndarray):
        x = t - grid[j]
        x *= inv_h
        # gathers are copies, so both sums are formed in place
        s = rows[-1][j]
        ds = s.copy()
        s *= x
        s += rows[-2][j]
        for row in rows[:-2][::-1]:
            ds *= x
            ds += s
            s *= x
            s += row[j]
        ds *= rate_scale
        return s, ds

    return evaluate


def _table(surv, tau: float):
    """(grid, S on it): _TABLE_POINTS equal steps over [0, end], where end is
    tau halved while S(end / 2) < _U_MIN.

    No switched u lies below _U_MIN, so no root lies beyond end, and a long
    pulse whose S underflows keeps its cells within reach of the roots.
    S(end / 2^i) for i up to log2(_TABLE_POINTS - 1) lies on the grid, so
    a pulse whose S(tau) >= _U_MIN takes one grid evaluation and no probe.
    """
    end = tau
    while True:
        grid = np.linspace(0.0, end, _TABLE_POINTS)
        raw = surv(grid)
        halvings, half = 0, _TABLE_POINTS // 2
        while half and raw[half] < _U_MIN:
            halvings, half = halvings + 1, half // 2
        if not halvings:
            return grid, raw
        end /= 2.0**halvings


def _survival_inverter(p: DetectorParams, rho0: np.ndarray, tau: float):
    """(S(tau), u -> t): the pulse's survival and a solver of S(t) = u on
    [0, tau] for an array of u with S(tau) < u <= 1 and u >= _U_MIN.

    S is tabulated once on _TABLE_POINTS grid times over [0, end] and made
    monotone, and rho = -dS/dt is evaluated at the same times; end is tau,
    or tau halved while S stays below _U_MIN from end / 2 on (_table), and
    the cell width h and the step tolerance INVERSION_STEP_REL_TOL * end
    scale with it.  Each u takes its grid cell from a guide table
    (_bracket_finder) and its seed from the cubic Hermite interpolant of the
    inverse on that cell (Hoermann & Leydold 2003): with w the fraction of
    the cell's drop in S that lies above u, the fraction of its width h is
    w + w (1 - w) ((1 - w) c0 - w c1), where c = drop / (rho h) - 1 at
    either end.  A cell whose end slope drop / (rho h) is not finite, not
    positive or not below 3 (the Fritsch-Carlson monotone bound) takes the
    linear seed w instead.

    Each solve runs one sequence of Newton steps; a route, chosen once per
    call from the parameters and the grid, sets only where they take S and
    rho:

    - Taylor cells (Derflinger, Hoermann & Leydold 2010): each grid cell
      carries the degree-K Taylor polynomial of S at its left end, its
      coefficients the trace forms of _taylor_ops' operators on the grid
      (_cell_polynomials), with K the smallest degree whose remainder R_K
      is below one rounding of S (K = 5 to 7 on the benchmark
      configurations);
    - the propagator (_survival_and_density), where no degree up to
      _MAX_DEGREE qualifies: a pulse with many precession or decay times
      per cell.

    Every solve first takes one Newton step t' = t + (s - u) / rho from its
    seed t, over the whole array with no mask, and ends there where
    rho > 0, t' lies in its cell [grid[j], grid[j + 1]] (so in [0, tau]),
    |t' - t| is within the step tolerance and the residual bound below is
    within INVERSION_RESIDUAL_TOL: every solve on the benchmark
    configurations.  The solves it leaves open go on from the
    seed, with the s and rho already evaluated there, by safeguarded
    Newton steps (Numerical Recipes' rtsafe): each shrinks the bracket, and
    a step that would leave it, or not halve the previous step, or meets
    rho = 0, is a bisection instead.  Such a solve ends once its step is
    within the step tolerance and its residual bound within
    INVERSION_RESIDUAL_TOL (the u-resolution stop of Derflinger, Hoermann &
    Leydold), or once its step is at t's rounding, 4e-16 |t|; S flat or
    staircase-like on the grid's scale (a long pulse with many precession
    periods, or rho near zero) falls back towards bisection.  Where S falls
    by much within one step tolerance (a fast rate), the stop in u goes on
    stepping after the stop in t would have ended.  A seed that rounding
    puts an ulp outside its cell is evaluated there: S lies on the same
    side of u as at the cell's edge, so the bracket still encloses the
    root.

    Every returned time t' meets |S(t') - u| <= INVERSION_RESIDUAL_TOL, or
    the call raises BisectionFailureError, since a larger residual would
    indicate a broken survival function rather than bad data.  The residual
    is bounded from values the last Newton step holds: the solve evaluated
    s at t, within R_K of S(t) (R_K = 0 on the propagator's route, whose S
    row is bit-identical to survival_function), and returns t' with
    |t' - t| within the step tolerance.  As
    dS/dt = -Tr{Gamma U rho0 U^dag}, U rho0 U^dag >= 0 has trace S <= 1 and
    Gamma's largest eigenvalue is max(gamma_L, gamma_R),
    |dS/dt| <= max(gamma_L, gamma_R), so

        |S(t') - u| <= |s - u| + max(gamma_L, gamma_R) |t' - t| + R_K.

    Only where the largest bound of a call exceeds the tolerance (a solve
    ended at t's rounding above it, or still open after _MAX_STEPS
    safeguarded steps) is survival_function evaluated, once, at all the
    returned times.  The tabulated S, before it is made monotone,
    must not rise by more than the tolerance either.
    """
    surv = survival_function(p, rho0)
    grid, raw = _table(surv, tau)
    table = np.minimum.accumulate(raw)
    if np.max(raw - table) > INVERSION_RESIDUAL_TOL:
        raise BisectionFailureError("tabulated survival rises; S(t) appears non-monotone")
    bracket = _bracket_finder(table)
    step_tol = INVERSION_STEP_REL_TOL * grid[-1]
    gamma_max = max(p.gamma_L, p.gamma_R)

    h = grid[-1] / (_TABLE_POINTS - 1)
    taylor = _taylor_ops(p, h)
    if taylor is None:
        paired = _survival_and_density(p, rho0)
        rho = paired(grid)[1]
        remainder = 0.0

        def evaluate(t, j):
            return paired(t)
    else:
        ops, remainder = taylor
        rows = _TraceForms(p, [rho0], ops)(grid)
        rho = rows[1] * (-1.0 / h)
        evaluate = _cell_polynomials(rows[:, :-1], grid, h)

    # cell j = [grid[j], grid[j + 1]]: the seed grid[j] + w (b1 + w (b2 + w b3))
    # is the Hermite form above expanded in w and scaled by the width h.  A
    # cell below _U_MIN, which no solve reaches, may drop by a subnormal.
    drop = table[:-1] - table[1:]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv_drop = np.divide(1.0, drop, out=np.zeros_like(drop), where=drop > 0.0)
        m0, m1 = drop / (rho[:-1] * h), drop / (rho[1:] * h)
    hermite = (0.0 < m0) & (m0 < 3.0) & (0.0 < m1) & (m1 < 3.0)
    c0, c1 = np.where(hermite, m0 - 1.0, 0.0), np.where(hermite, m1 - 1.0, 0.0)
    b1, b2, b3 = h * (1.0 + c0), -h * (2.0 * c0 + c1), h * (c0 + c1)

    def seed(u, j, lo):
        # gathers are copies, so the seed is formed in place
        w = table[j]
        w -= u
        w *= inv_drop[j]
        t = b3[j]
        t *= w
        t += b2[j]
        t *= w
        t += b1[j]
        t *= w
        t += lo
        return t

    def safeguarded(u, j, t, gap, rate):
        """Times and the largest residual bound, less R_K, of the solves
        of S(t) = u in cells j, by safeguarded Newton steps from the
        evaluated times t, where S - u = gap and rho = rate."""
        lo, hi = grid[j], grid[j + 1]
        times, todo, last = np.empty_like(u), np.arange(u.size), hi - lo
        worst = 0.0  # the largest residual bound over the ended solves, less R_K
        for _ in range(_MAX_STEPS):
            above = gap >= 0.0
            lo, hi = np.where(above, t, lo), np.where(above, hi, t)
            step = np.divide(gap, rate, out=np.full_like(t, np.inf), where=rate > 0.0)
            nxt = t + step
            newton = (lo <= nxt) & (nxt <= hi) & (2.0 * np.abs(step) <= last)
            nxt = np.where(newton, nxt, 0.5 * (lo + hi))
            last = np.abs(nxt - t)
            bound = np.abs(gap, out=gap)
            bound += gamma_max * last
            done = ((last <= step_tol) & (bound <= INVERSION_RESIDUAL_TOL - remainder)) | (last <= 4e-16 * np.abs(t))
            worst = np.max(bound, where=done, initial=worst)
            times[todo[done]] = nxt[done]
            keep = ~done
            if not keep.any():
                return times, worst
            todo, u, t, j, lo, hi, last = (a[keep] for a in (todo, u, nxt, j, lo, hi, last))
            gap, rate = evaluate(t, j)
            gap -= u
        times[todo] = t
        return times, np.inf  # a solve still open has no bound

    def invert(u: np.ndarray) -> np.ndarray:
        k = bracket(u)
        j = k - 1
        lo = grid[j]
        times = seed(u, j, lo)
        gap, rate = evaluate(times, j)
        gap -= u
        # rho = 0, or a step too large to take, ends no solve, and their
        # bounds are left out of the max
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            step = gap / rate
            times += step
            bound = np.abs(step, out=step)
            ended = bound <= step_tol
            bound *= gamma_max
        ended &= rate > 0.0
        ended &= lo <= times
        ended &= times <= grid[k]
        bound += np.abs(gap)
        ended &= bound <= INVERSION_RESIDUAL_TOL - remainder
        worst = 0.0
        if not ended.all():
            # the open solves go on from their seeds, where S is evaluated
            rest = np.flatnonzero(~ended)
            u_open, j_open = u[rest], j[rest]
            times[rest], worst = safeguarded(u_open, j_open, seed(u_open, j_open, lo[rest]), gap[rest], rate[rest])
        worst = np.max(bound, where=ended, initial=worst)
        # "not <=" sends a NaN bound to the exact check
        if not worst + remainder <= INVERSION_RESIDUAL_TOL and np.max(np.abs(surv(times) - u)) > INVERSION_RESIDUAL_TOL:
            raise BisectionFailureError(
                "survival inversion residual too large; S(t) appears non-monotone"
            )
        return times

    return float(surv(tau)), invert


def run_trajectory(
    p: DetectorParams, rho0: np.ndarray, cfg: SimConfig, stream_index: int
) -> TrajectoryOutcome:
    """Simulate the single trajectory with the given stream index.

    Reproduces exactly the record that run_ensemble attributes to the same
    index under the same config, at a cost independent of the index.
    """
    rho0 = _checked_state(rho0)
    if not 0 <= stream_index < cfg.n_traj:
        raise ValueError("stream_index must lie in [0, n_traj)")
    u = _uniforms(cfg.seed, stream_index, 1)
    s_tau, invert = _survival_inverter(p, rho0, cfg.tau)
    prop = propagator(p)
    if s_tau >= u[0]:
        u_tau = prop(cfg.tau)
        return TrajectoryOutcome(False, None, _normalize(u_tau @ rho0 @ m2.dag(u_tau)))
    t = float(invert(u)[0])
    k = sqrt_rate_matrix(p) @ prop(t)
    return TrajectoryOutcome(True, t, _normalize(k @ rho0 @ m2.dag(k)))


def _chunked_switch_times(p: DetectorParams, rho0: np.ndarray, cfg: SimConfig):
    """Yield (switching times, no-switch count) for trajectories taken CHUNK
    at a time in index order, so memory stays O(CHUNK) for any n_traj."""
    rho0 = _checked_state(rho0)
    np.empty(_HEAP_HEADROOM, dtype=np.uint8)  # freed at once: see _HEAP_HEADROOM
    s_tau, invert = _survival_inverter(p, rho0, cfg.tau)
    for start in range(0, cfg.n_traj, CHUNK):
        u = _uniforms(cfg.seed, start, min(CHUNK, cfg.n_traj - start))
        switched = u > s_tau
        yield invert(u[switched]), int(u.size - np.count_nonzero(switched))


def sample_switch_times(
    p: DetectorParams, rho0: np.ndarray, cfg: SimConfig
) -> tuple[np.ndarray, int]:
    """Switching times of the trajectories that switched (in trajectory
    order), and the count of those that survived the pulse.

    Each chunk's times are copied into one n_traj buffer as they are solved,
    so no chunk's array outlives its chunk; the result is a view of that
    buffer.  A caller that needs only the histogram uses run_ensemble,
    whose memory does not grow with n_traj.
    """
    times = np.empty(cfg.n_traj)
    switched = no_switch = 0
    for chunk, n in _chunked_switch_times(p, rho0, cfg):
        times[switched : switched + chunk.size] = chunk
        switched += chunk.size
        no_switch += n
    return times[:switched], no_switch


def _binned_ensemble(p: DetectorParams, rho0: np.ndarray, cfg: SimConfig) -> tuple[Histogram, float]:
    """The histogram of cfg.n_traj trajectories and the sum of their
    switching times, both taken chunk by chunk, so memory stays O(CHUNK)
    for any n_traj."""
    edges = np.linspace(0.0, cfg.tau, cfg.n_bins + 1)
    counts = np.zeros(cfg.n_bins, dtype=np.int64)
    no_switch, time_sum = 0, 0.0
    for times, n in _chunked_switch_times(p, rho0, cfg):
        counts += np.histogram(times, bins=edges)[0]
        time_sum += float(times.sum())
        no_switch += n
    return Histogram(edges, counts, no_switch, cfg.n_traj), time_sum


def run_ensemble(p: DetectorParams, rho0: np.ndarray, cfg: SimConfig) -> Histogram:
    """Run cfg.n_traj independent trajectories and bin the switching times.

    Deterministic: identical (params, rho0, config) give identical
    histograms, and per-trajectory records are independent of ensemble
    size ordering, so the counts of partial histograms over disjoint index
    ranges sum to the same result.  Times are binned chunk by chunk, so
    memory stays O(CHUNK) for any n_traj.
    """
    return _binned_ensemble(p, rho0, cfg)[0]


def _cells(surv: np.ndarray) -> np.ndarray:
    """Cell probabilities from survival at the edges (last axis), no-switch last."""
    cells = np.empty_like(surv)
    np.subtract(surv[..., :-1], surv[..., 1:], out=cells[..., :-1])
    cells[..., -1] = surv[..., -1]
    return cells


def expected_cell_probabilities(
    h: Histogram, p: DetectorParams, rho0: np.ndarray
) -> np.ndarray:
    """Model probability of each histogram cell, no-switch cell last.

    Bin probabilities are exact survival differences, so no quadrature
    error enters the comparison.
    """
    return np.clip(_cells(survival_function(p, rho0)(h.bin_edges)), 0.0, None)


def _chi2_tail(k: int, x: float) -> float:
    """P(X > x) for X chi-squared with k degrees of freedom.

    That is Q(k/2, x/2), a finite series at integer k (Abramowitz & Stegun
    26.4.4-26.4.5): e^{-x/2} sum_{j<k/2} (x/2)^j / j! for even k, and
    erfc(sqrt(x/2)) + e^{-x/2} sum_{j=1}^{(k-1)/2} (x/2)^{j-1/2} / Gamma(j+1/2)
    for odd k.  Each term is taken as one exponential of its logarithm, so
    none underflows before the sum does (e^{-x/2} alone would beyond
    x ~ 1490).
    """
    if x <= 0.0:
        return 1.0
    half = 0.5 * x
    log_half = math.log(half)
    if k % 2 == 0:
        terms = [math.exp(j * log_half - half - math.lgamma(j + 1.0)) for j in range(k // 2)]
    else:
        terms = [math.erfc(math.sqrt(half))] + [
            math.exp((j - 0.5) * log_half - half - math.lgamma(j + 0.5)) for j in range(1, (k + 1) // 2)
        ]
    return min(math.fsum(terms), 1.0)


def chi2_vs_analytic(h: Histogram, p: DetectorParams, rho0: np.ndarray) -> tuple[float, int, float]:
    """Pearson chi-squared of a histogram against the model distribution.

    Cells (bins plus the no-switch cell) with expected count below
    _MIN_EXPECTED are merged into their neighbor before the statistic is
    formed.  Returns (statistic, dof, p_value).
    """
    if h.total <= 0 or (int(h.counts.sum()) + h.no_switch_count) <= 0:
        raise InsufficientCountsError("empty histogram")
    expected = expected_cell_probabilities(h, p, rho0) * h.total
    observed = np.append(h.counts, h.no_switch_count).astype(float)

    # merge adjacent low-expectation cells left to right; the no-switch
    # cell folds into the last time bin if it is itself too thin
    exp_m, obs_m = [], []
    acc_e = acc_o = 0.0
    for e, o in zip(expected, observed):
        acc_e += e
        acc_o += o
        if acc_e >= _MIN_EXPECTED:
            exp_m.append(acc_e)
            obs_m.append(acc_o)
            acc_e = acc_o = 0.0
    if acc_e > 0.0 or acc_o > 0.0:
        if exp_m:
            exp_m[-1] += acc_e
            obs_m[-1] += acc_o
        else:
            exp_m.append(acc_e)
            obs_m.append(acc_o)
    if len(exp_m) < 2:
        raise InsufficientCountsError(
            "fewer than two cells with sufficient expected counts"
        )
    exp_arr = np.asarray(exp_m)
    obs_arr = np.asarray(obs_m)
    stat = float(np.sum((obs_arr - exp_arr) ** 2 / exp_arr))
    dof = len(exp_arr) - 1
    return stat, dof, _chi2_tail(dof, stat)


def _check_time_scale(time_scale: float) -> None:
    if not (time_scale > 0.0 and math.isfinite(time_scale)):
        raise ValueError(f"time_scale must be positive and finite, got {time_scale}")


def write_histogram_csv(h: Histogram, path, time_scale: float = 1.0) -> None:
    """Write `bin_start,bin_end,count` rows with trailing metadata rows.

    Edge values are multiplied by time_scale (e.g. gamma_R to express times
    in units of 1/gamma_R), which must be positive and finite.
    """
    _check_time_scale(time_scale)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bin_start,bin_end,count\n")
        for i, c in enumerate(h.counts):
            start = repr(float(h.bin_edges[i] * time_scale))
            end = repr(float(h.bin_edges[i + 1] * time_scale))
            fh.write(f"{start},{end},{int(c)}\n")
        fh.write(f"#no_switch,{h.no_switch_count}\n")
        fh.write(f"#total,{h.total}\n")


def read_histogram_csv(path, time_scale: float = 1.0) -> Histogram:
    """Inverse of write_histogram_csv (divides edges by time_scale).

    Rows must tile the time axis: each bin_start equals the previous
    row's bin_end, compared as written in the file.  The file is read in
    one call and parsed in one pass; a bin_start written as the previous
    bin_end is that value, so only the others are converted.
    """
    _check_time_scale(time_scale)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "bin_start,bin_end,count":
            raise ValueError(f"unexpected histogram header {header!r}")
        text = fh.read()
    edges, counts, meta, written = [], [], {}, None
    for line in text.split("\n"):
        line = line.strip()
        if line.startswith(("#no_switch,", "#total,")):
            key, value = line.split(",")[:2]
            meta[key] = int(value)
        elif line:
            start, end, count = line.split(",")
            if start != written:
                value = float(start)
                if not edges:
                    edges.append(value)
                elif value != edges[-1]:
                    raise ValueError(f"bin_start {value} does not follow bin_end {edges[-1]}")
            elif edges[-1] != edges[-1]:  # the same text: equal unless NaN
                raise ValueError(f"bin_start {edges[-1]} does not follow bin_end {edges[-1]}")
            written = end
            edges.append(float(end))
            counts.append(int(count))
    if "#no_switch" not in meta or "#total" not in meta:
        raise ValueError("histogram file missing #no_switch or #total rows")
    return Histogram(np.array(edges) / time_scale, np.array(counts, dtype=np.int64), meta["#no_switch"], meta["#total"])
