import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import chdtrc
from scipy.stats import chi2 as chi2_dist
from scipy.stats import kstest

import switchsim
from switchsim import detector as det
from switchsim import mat2 as m2
from switchsim import trajectory as traj
from switchsim.errors import BisectionFailureError, InsufficientCountsError
from switchsim.tomography import BlochComponents
from switchsim.tolerances import INVERSION_RESIDUAL_TOL

from oracles import (
    bin_switch_times,
    bisect_survival,
    p_no_switch,
    pure_state,
    purity,
    stepped_switch_times,
    table_newton_inverter,
    u_ham,
)

MIXED = 0.5 * np.eye(2, dtype=complex)
# (gamma_L, gamma_R, beta, E) of the benchmark configurations C1-C4, each
# simulated over tau = 3.6 / gamma_plus
CONFIGS = (
    (1.0, 5.0, math.pi / 4, 60.0),
    (0.0, 10.0, math.pi / 3, 200.0),
    (2.0, 8.0, 1.0, 20.0),
    (1.0, 4.0, 0.6, 120.0),
)


def two_sample_chi2(h1: traj.Histogram, h2: traj.Histogram):
    """Pearson two-sample statistic over bins plus the no-switch cell."""
    o1 = np.append(h1.counts, h1.no_switch_count).astype(float)
    o2 = np.append(h2.counts, h2.no_switch_count).astype(float)
    # merge thin cells pairwise so the chi2 approximation holds
    keep1, keep2 = [], []
    a1 = a2 = 0.0
    for x, y in zip(o1, o2):
        a1 += x
        a2 += y
        if a1 + a2 >= 10:
            keep1.append(a1)
            keep2.append(a2)
            a1 = a2 = 0.0
    if a1 + a2 > 0 and keep1:
        keep1[-1] += a1
        keep2[-1] += a2
    o1, o2 = np.asarray(keep1), np.asarray(keep2)
    k1 = math.sqrt(h2.total / h1.total)
    k2 = math.sqrt(h1.total / h2.total)
    stat = float(np.sum((k1 * o1 - k2 * o2) ** 2 / (o1 + o2)))
    dof = len(o1) - 1
    return stat, dof, float(chi2_dist.sf(stat, dof))


def euler_law_cell_probabilities(p, rho0, tau, dt, edges):
    """Distribution the stepped sampler draws from, computed exactly:
    survival after k steps is the trace of the stepped chain."""
    n_steps = max(int(math.ceil(tau / dt)), 1)
    step = tau / n_steps
    a = u_ham(p, step) @ p_no_switch(p, step)
    rho = np.asarray(rho0, dtype=complex)
    surv = [1.0]
    for _ in range(n_steps):
        rho = a @ rho @ m2.dag(a)
        surv.append(m2.trace(rho).real)
    surv = np.asarray(surv)
    step_probs = -np.diff(surv)  # switch within step k, reported at midpoint
    mids = (np.arange(n_steps) + 0.5) * step
    bin_probs = np.zeros(len(edges) - 1)
    idx = np.clip(np.searchsorted(edges, mids, side="right") - 1, 0, len(edges) - 2)
    np.add.at(bin_probs, idx, step_probs)
    return np.append(bin_probs, surv[-1])


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            traj.SimConfig(n_traj=0, tau=1.0, seed=1)
        with pytest.raises(ValueError):
            traj.SimConfig(n_traj=10, tau=-1.0, seed=1)
        with pytest.raises(ValueError):
            traj.SimConfig(n_traj=10, tau=1.0, seed=1, n_bins=1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_philox_key_rejected(self, seed):
        # a Philox key is a uint64: such a seed would fail only when the
        # first chunk is drawn, after the set-up
        with pytest.raises(ValueError, match="seed"):
            traj.SimConfig(n_traj=10, tau=1.0, seed=seed)


class TestExactSampling:
    def test_equal_rates_exponential_ks(self):
        gamma, tau = 2.0, 1.5
        p = det.DetectorParams(gamma, gamma, 1.0, 3.0)
        cfg = traj.SimConfig(n_traj=20000, tau=tau, seed=42)
        times, no_switch = traj.sample_switch_times(p, MIXED, cfg)
        trunc = 1.0 - math.exp(-gamma * tau)

        def cdf(t):
            return (1.0 - np.exp(-gamma * np.asarray(t))) / trunc

        res = kstest(times, cdf)
        assert res.pvalue > 0.001
        # no-switch fraction binomial check
        s_tau = math.exp(-gamma * tau)
        sigma = math.sqrt(s_tau * (1 - s_tau) / cfg.n_traj)
        assert abs(no_switch / cfg.n_traj - s_tau) < 4.0 * sigma

    def test_aligned_excited_state_pinned(self):
        p = det.DetectorParams(1.0, 4.0, 0.0, 2.0)
        rho0 = m2.projector(m2.KET_1)
        cfg = traj.SimConfig(n_traj=64, tau=1.0, seed=7)
        for i in range(64):
            out = traj.run_trajectory(p, rho0, cfg, i)
            np.testing.assert_allclose(out.final_state, rho0, atol=1e-10)

    def test_dark_state_never_switches(self):
        p = det.DetectorParams(0.0, 3.0, 0.0, 2.0)
        rho0 = m2.projector(m2.KET_0)
        cfg = traj.SimConfig(n_traj=5000, tau=5.0, seed=3)
        h = traj.run_ensemble(p, rho0, cfg)
        assert h.no_switch_count == cfg.n_traj
        assert h.counts.sum() == 0

    def test_deterministic(self):
        p = det.DetectorParams(1.0, 4.0, 0.7, 5.0)
        cfg = traj.SimConfig(n_traj=4000, tau=1.0, seed=99)
        h1 = traj.run_ensemble(p, MIXED, cfg)
        h2 = traj.run_ensemble(p, MIXED, cfg)
        np.testing.assert_array_equal(h1.counts, h2.counts)
        assert h1.no_switch_count == h2.no_switch_count

    def test_partial_histograms_merge(self):
        # trajectory i reads the i-th variate of the stream, so worker
        # partials over disjoint index ranges merge to the full ensemble
        p = det.DetectorParams(1.0, 3.0, 0.8, 2.0)
        full_cfg = traj.SimConfig(n_traj=400, tau=0.5, seed=19, n_bins=8)
        full = traj.run_ensemble(p, MIXED, full_cfg)
        parts = []
        edges = full.bin_edges
        splits = [(0, 150), (150, 400)]
        for a, b in splits:
            times = []
            no_switch = 0
            for i in range(a, b):
                out = traj.run_trajectory(p, MIXED, full_cfg, i)
                if out.switched:
                    times.append(out.switch_time)
                else:
                    no_switch += 1
            counts, _ = np.histogram(times, bins=edges)
            parts.append(traj.Histogram(edges, counts.astype(np.int64), no_switch, b - a))
        np.testing.assert_array_equal(sum(h.counts for h in parts), full.counts)
        assert sum(h.no_switch_count for h in parts) == full.no_switch_count
        assert sum(h.total for h in parts) == full.total

    def test_single_trajectory_matches_ensemble(self):
        p = det.DetectorParams(1.0, 4.0, 0.7, 5.0)
        cfg = traj.SimConfig(n_traj=300, tau=1.0, seed=17, n_bins=10)
        h = traj.run_ensemble(p, MIXED, cfg)
        times = []
        no_switch = 0
        for i in range(cfg.n_traj):
            out = traj.run_trajectory(p, MIXED, cfg, i)
            if out.switched:
                assert 0.0 <= out.switch_time <= cfg.tau
                times.append(out.switch_time)
            else:
                no_switch += 1
        counts, _ = np.histogram(times, bins=h.bin_edges)
        np.testing.assert_array_equal(counts, h.counts)
        assert no_switch == h.no_switch_count

    def test_integer_tau_surviving_trajectory(self):
        # SimConfig accepts an integer tau; a surviving index evaluates the
        # propagator at it and gets the outcome of tau = 1.0 bit for bit
        p = det.DetectorParams(1.0, 4.0, 0.7, 5.0)
        whole, real = (traj.run_trajectory(p, MIXED, traj.SimConfig(10, tau, 3), 0) for tau in (1, 1.0))
        assert not whole.switched and not real.switched
        assert whole.final_state.shape == (2, 2)
        assert whole.final_state.tobytes() == real.final_state.tobytes()

    def test_single_trajectory_far_into_stream(self):
        # the stream is advanced, not drawn, up to the index: 2**40 costs
        # the same as 0, and reads the double built from that raw word
        p = det.DetectorParams(1.0, 4.0, 0.7, 5.0)
        index = 2**40 + 3
        cfg = traj.SimConfig(n_traj=index + 1, tau=1.0, seed=17)
        bits = np.random.Philox(key=np.uint64(cfg.seed))
        bits.advance(index // 4)
        raw = int(bits.random_raw(4)[index % 4])
        u = 1.0 - (raw >> 11) * 2.0**-53
        out = traj.run_trajectory(p, MIXED, cfg, index)
        surv = det.survival_function(p, MIXED)
        assert out.switched == (u > float(surv(cfg.tau)))
        if out.switched:
            assert abs(float(surv(out.switch_time)) - u) < INVERSION_RESIDUAL_TOL

    def test_no_switch_fraction_various_params(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            p = det.DetectorParams(
                float(rng.uniform(0, 2)),
                float(rng.uniform(0, 4)),
                float(rng.uniform(0, math.pi)),
                float(rng.uniform(0, 6)),
            )
            cfg = traj.SimConfig(n_traj=20000, tau=1.0, seed=int(rng.integers(1 << 30)))
            h = traj.run_ensemble(p, MIXED, cfg)
            s_tau = det.survival_probability(p, MIXED, cfg.tau)
            sigma = math.sqrt(max(s_tau * (1 - s_tau), 1e-12) / cfg.n_traj)
            assert abs(h.no_switch_count / cfg.n_traj - s_tau) < 4.0 * sigma + 1e-9

    def test_mean_switch_time(self):
        p = det.DetectorParams(1.0, 4.0, 0.9, 6.0)
        tau = 1.2
        cfg = traj.SimConfig(n_traj=40000, tau=tau, seed=11)
        times, _ = traj.sample_switch_times(p, MIXED, cfg)
        surv = det.survival_function(p, MIXED)
        s_tau = float(surv(tau))
        integral_s, _ = quad(lambda t: float(surv(t)), 0.0, tau, limit=200)
        mean_analytic = (integral_s - tau * s_tau) / (1.0 - s_tau)
        se = times.std(ddof=1) / math.sqrt(len(times))
        assert abs(times.mean() - mean_analytic) < 4.0 * se

    def test_exceptional_point_matches_model(self):
        # beta = pi/2, E = |gamma_minus| makes G defective; the sampler must
        # invert the survival function on it and next to it
        rho0 = m2.projector(pure_state(1.0, 0.6 + 0.3j))
        cfg = traj.SimConfig(n_traj=100_000, tau=1.5, seed=29, n_bins=60)
        for delta in (1e-11, 1e-13, 0.0):
            p = det.DetectorParams(0.0, 4.0, math.pi / 2, 2.0 * (1.0 + delta))
            h = traj.run_ensemble(p, rho0, cfg)
            stat, dof, pval = traj.chi2_vs_analytic(h, p, rho0)
            assert pval > 1e-3


def assert_inversion_matches_bisection(p, rho0, tau, flat=None):
    """The sampler's solve of S(t) = u against the bisection reference, at
    256 targets spread over the switched range (S(tau), 1], within 1e-9 tau.
    With flat, a target whose time is further off passes if S at the
    sampler's time is within flat of u: where S is flat to its own rounding
    over 1e-9 tau, every time in that stretch is a root to that rounding."""
    s_tau, invert = traj._survival_inverter(p, rho0, tau)
    u = s_tau + (1.0 - s_tau) * np.linspace(0.0, 1.0, 257)[1:]
    surv = det.survival_function(p, rho0)
    ref = bisect_survival(surv, u, tau)
    times = invert(u)
    off = np.abs(times - ref) > 1e-9 * tau
    if flat is not None:
        off &= np.abs(surv(times) - u) > flat
    err = np.max(np.abs(times - ref)[off], initial=0.0)
    assert not off.any(), f"inverted times off by {err / tau:.2e} tau"


def assert_propagator_route(p, rho0, tau):
    """The sampler's Newton steps evaluate _survival_and_density, at least
    once per solve, and no cell polynomial."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        exact = count_points(monkeypatch, "_survival_and_density")
        cells = count_points(monkeypatch, "_cell_polynomials")
        s_tau, invert = traj._survival_inverter(p, rho0, tau)
        exact.clear()  # the set-up's grid call
        invert(switched_uniforms(s_tau, 256))
    assert cells == [] and sum(exact) >= 256


unit = st.floats(-1.0, 1.0)


class TestInversion:
    @settings(max_examples=200)
    @given(
        st.floats(0.0, 100.0),
        st.floats(0.0, 100.0),
        st.floats(0.0, math.pi),
        st.floats(0.0, 1000.0),
        st.floats(1e-3, 1.0),
        st.tuples(unit, unit, unit, unit).filter(lambda v: sum(x * x for x in v) > 1e-6),
    )
    # a density of ~6e-11 at some targets: S moves by one rounding over
    # ~5e-10 tau, and the sampler's times there are 1.04e-9 tau from
    # bisection's, both roots to that rounding
    @example(1e-9, 0.0, 2.0, 1.0, 0.25, (0.0, 1.0, 0.0, 1.0))
    def test_matches_bisection_over_parameter_box(self, gamma_l, gamma_r, beta, e, frac, amps):
        """Pulses up to 30 decay times (gamma_plus floored at 1e-3), which
        at E = 1000 spans ~5e3 precession periods, about one per grid cell
        of the table.  Pulses that switch with probability below 1e-6 are
        skipped: their roots move by the 1e-16 rounding of S over a density
        of ~1e-6 / tau, beyond 1e-9 tau for any solver.  Above it, a
        density may still fall that low at some targets, so a time further
        than 1e-9 tau from bisection's passes where |S(t) - u| is within
        four roundings of S, as bisection's own is."""
        p = det.DetectorParams(gamma_l, gamma_r, beta, e)
        tau = frac * 30.0 / max(p.gamma_plus, 1e-3)
        rho = m2.projector(pure_state(amps[0] + 1j * amps[1], amps[2] + 1j * amps[3]))
        assume(det.survival_probability(p, rho, tau) < 1.0 - 1e-6)
        assert_inversion_matches_bisection(p, rho, tau, flat=4.0 * np.finfo(float).eps)

    @settings(max_examples=200)
    @given(
        st.floats(0.0, 100.0),
        st.floats(0.0, 100.0),
        st.floats(0.0, math.pi),
        st.floats(0.0, 1000.0),
        st.floats(1e-3, 1.0),
        st.tuples(unit, unit, unit, unit).filter(lambda v: sum(x * x for x in v) > 1e-6),
    )
    # the exceptional point: beta = pi/2, E = |gamma_minus|
    @example(0.0, 4.0, math.pi / 2, 2.0, 0.05, (1.0, 0.0, 0.6, 0.3))
    def test_cell_polynomials_within_remainder(self, gamma_l, gamma_r, beta, e, frac, amps):
        """Where a degree K is certified, the cell polynomial's S is within
        R_K of the propagator's, and its rho within the slope's remainder
        (K + 1) R_K / h, each plus 8 roundings: of 1, and of
        max(gamma_L, gamma_R) or, at rates near the subnormal range, of
        rho and of the rows S^(k) h^k / k! it is scaled back from by 1/h.
        Where none is, the Newton steps evaluate the propagator."""
        p = det.DetectorParams(gamma_l, gamma_r, beta, e)
        tau = frac * 30.0 / max(p.gamma_plus, 1e-3)
        rho = m2.projector(pure_state(amps[0] + 1j * amps[1], amps[2] + 1j * amps[3]))
        h = tau / (traj._TABLE_POINTS - 1)
        taylor = traj._taylor_ops(p, h)
        if taylor is None:
            assert_propagator_route(p, rho, tau)
            return
        ops, remainder = taylor
        degree = len(ops) - 1
        assert 1 <= degree <= traj._MAX_DEGREE and remainder <= 2.0**-52
        grid = np.linspace(0.0, tau, traj._TABLE_POINTS)
        rows = det._TraceForms(p, [rho], ops)(grid)
        rng = np.random.default_rng(0)
        j = rng.integers(0, traj._TABLE_POINTS - 1, 1024)
        t = grid[j] + h * rng.random(j.size)
        s, rate = traj._cell_polynomials(rows[:, :-1], grid, h)(t, j)
        ref_s, ref_rate = det._survival_and_density(p, rho)(t)
        eps = np.finfo(float).eps
        assert np.max(np.abs(s - ref_s)) <= remainder + 8.0 * eps
        rate_ulp = max(eps * max(gamma_l, gamma_r), np.finfo(float).smallest_subnormal * (1.0 + 1.0 / h))
        rate_tol = (degree + 1) * remainder / h + 8.0 * rate_ulp
        assert np.max(np.abs(rate - ref_rate)) <= rate_tol

    def test_long_pulse_keeps_the_propagator(self):
        # max(gamma_L, gamma_R) h = 0.73 per cell: no degree up to
        # _MAX_DEGREE is certified (test_unbounded_residual_evaluated_exactly
        # runs this pulse through the exact residual check); at beta = 0.1
        # half the mixed state switches slowly, so S(tau) = 0.11 and the
        # table spans the whole pulse
        p, tau = det.DetectorParams(0.0, 100.0, 0.1, 25.0), 30.0
        assert traj._taylor_ops(p, tau / (traj._TABLE_POINTS - 1)) is None
        assert_propagator_route(p, MIXED, tau)

    @pytest.mark.parametrize("delta", [0.0, 1e-13, 1e-11])
    def test_matches_bisection_at_exceptional_point(self, delta):
        p = det.DetectorParams(0.0, 4.0, math.pi / 2, 2.0 * (1.0 + delta))
        assert_inversion_matches_bisection(p, m2.projector(pure_state(1.0, 0.6 + 0.3j)), 1.5)

    def test_matches_bisection_near_dark_state(self):
        # |0> is dark (gamma_L = 0, beta = 0); tilted by 0.01 it switches
        # with probability ~1e-4
        p = det.DetectorParams(0.0, 3.0, 0.0, 2.0)
        rho = m2.projector(pure_state(math.cos(0.01), math.sin(0.01)))
        assert_inversion_matches_bisection(p, rho, 5.0)

    def test_prefix_across_chunk_boundaries(self):
        # trajectory i reads variate i however the stream is cut into chunks
        p = det.DetectorParams(1.0, 4.0, 0.7, 5.0)
        big = traj.SimConfig(n_traj=3 * traj.CHUNK + 5, tau=1.0, seed=41)
        big_times, _ = traj.sample_switch_times(p, MIXED, big)
        for n in (traj.CHUNK - 1, traj.CHUNK + 1, 2 * traj.CHUNK - 1, 2 * traj.CHUNK + 1):
            cfg = traj.SimConfig(n_traj=n, tau=1.0, seed=41)
            times, no_switch = traj.sample_switch_times(p, MIXED, cfg)
            assert times.size + no_switch == n
            np.testing.assert_array_equal(times, big_times[: times.size])
            last = traj.run_trajectory(p, MIXED, big, n - 1)
            if last.switched:
                assert last.switch_time == times[-1]

    @pytest.mark.parametrize(
        "params, tau",
        [
            # C1 past the underflow of S: the table ends where S falls below
            # the smallest switched u, a few decay times in
            ((1.0, 5.0, math.pi / 4, 60.0), 1e3),
            ((1.0, 5.0, math.pi / 4, 60.0), 1e6),
            ((1.0, 5.0, math.pi / 4, 60.0), 1e9),
            # both rates fast, so S underflows early in the pulse: the
            # propagator's route on the shortened table, and Taylor cells
            ((1e3, 1e6, math.pi / 4, 60.0), 27.9),
            ((1.0, 1e6, math.pi / 4, 1e6), 27.9),
            # C1 with gamma_R = 1e6: S(tau) = 3.1e-13 keeps the table on
            # [0, tau] and S falls to its plateau within the first cell; a
            # step within the step tolerance there can leave |S(t) - u| at
            # 1.2e-3, so the solves stop on their residual bound (the stop
            # in u) rather than on the step alone
            ((1.0, 1e6, math.pi / 4, 60.0), 27.9),
        ],
    )
    def test_long_pulse_inverted(self, params, tau):
        p = det.DetectorParams(*params)
        rho = BlochComponents(0.3, -0.4, 0.5).to_density()
        cfg = traj.SimConfig(n_traj=200_000, tau=tau, seed=7, n_bins=150)
        times, no_switch = traj.sample_switch_times(p, rho, cfg)
        surv = det.survival_function(p, rho)
        u = traj._uniforms(cfg.seed, 0, cfg.n_traj)
        u = u[u > float(surv(tau))]
        assert times.size == u.size == cfg.n_traj - no_switch
        assert np.all((0.0 <= times) & (times <= tau))
        assert np.max(np.abs(surv(times) - u)) <= INVERSION_RESIDUAL_TOL
        h = traj.run_ensemble(p, rho, cfg)
        assert h.no_switch_count == no_switch
        np.testing.assert_array_equal(h.counts, np.histogram(times, bins=h.bin_edges)[0])

    def test_open_solves_stay_in_their_cells(self, monkeypatch):
        # S is a staircase on the grid's scale, so the first Newton step
        # leaves solves open for the safeguarded steps, which go on from
        # the seed that step evaluated rather than evaluate it again
        evaluated = []
        points = count_points(monkeypatch, "_cell_polynomials", evaluated)
        p, tau = det.DetectorParams(0.0, 1.0, 1.0, 25.0), 60.0
        s_tau, invert = traj._survival_inverter(p, MIXED, tau)
        surv = det.survival_function(p, MIXED)
        grid = np.linspace(0.0, tau, traj._TABLE_POINTS)
        table = np.minimum.accumulate(surv(grid))
        u = switched_uniforms(s_tau, 1 << 14)
        points.clear()
        evaluated.clear()
        times = invert(u)
        assert sum(points) > 1.05 * u.size
        k = np.clip(np.searchsorted(-table, -u, side="right"), 1, table.size - 1)
        assert np.all((grid[k - 1] <= times) & (times <= grid[k]))
        assert np.max(np.abs(surv(times) - u)) <= INVERSION_RESIDUAL_TOL
        evaluated = np.concatenate(evaluated)
        repeats = evaluated.size - np.unique(evaluated).size
        assert repeats == 0, f"{repeats} times evaluated twice"

    @pytest.fixture
    def wiggly_survival(self, monkeypatch):
        exact = det.survival_function

        def wiggly(p, rho0):
            s = exact(p, rho0)
            return lambda t: s(t) + 0.05 * np.sin(40.0 * np.asarray(t))

        monkeypatch.setattr(traj, "survival_function", wiggly)

    # _binned_ensemble is CLI simulate's path
    @pytest.mark.parametrize("sampler", ["run_ensemble", "sample_switch_times", "_binned_ensemble"])
    def test_non_monotone_survival_raises(self, sampler, wiggly_survival):
        p = det.DetectorParams(1.0, 4.0, 0.7, 5.0)
        with pytest.raises(BisectionFailureError):
            getattr(traj, sampler)(p, MIXED, traj.SimConfig(n_traj=2000, tau=1.0, seed=3))

    def test_rising_table_raises_before_any_solve(self, wiggly_survival):
        # the table itself is checked, not only the solves' residuals
        with pytest.raises(BisectionFailureError, match="tabulated"):
            traj._survival_inverter(det.DetectorParams(1.0, 4.0, 0.7, 5.0), MIXED, 1.0)

    def test_ensemble_memory_independent_of_size(self):
        # ~4 MB, the same as for one chunk of 2**14; drawing all 2e6
        # trajectories at once peaks at ~270 MB
        p = det.DetectorParams(1.0, 5.0, math.pi / 4, 60.0)
        cfg = traj.SimConfig(n_traj=2_000_000, tau=1.2, seed=5, n_bins=150)
        tracemalloc.start()
        try:
            traj.run_ensemble(p, MIXED, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * traj.CHUNK * 8, f"peak {peak / 1e6:.1f} MB"

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap trimming")
    def test_repeated_ensemble_keeps_its_pages(self):
        # a fresh process, as earlier tests may already have lifted glibc's
        # trim threshold; without _HEAP_HEADROOM each of the 8 chunks of a
        # repeated run faults ~400 pages in again
        script = (
            "import math, resource\n"
            "import numpy as np\n"
            "from switchsim import detector as det, trajectory as traj\n"
            "p = det.DetectorParams(1.0, 5.0, math.pi / 4, 60.0)\n"
            "cfg = traj.SimConfig(n_traj=8 * traj.CHUNK, tau=1.2, seed=5, n_bins=150)\n"
            "for _ in range(3):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    traj.run_ensemble(p, 0.5 * np.eye(2, dtype=complex), cfg)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = os.path.dirname(os.path.dirname(switchsim.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True, timeout=120
        )
        assert int(out.stdout) < 200


def benchmark_pulse(config):
    p = det.DetectorParams(*config)
    return p, 3.6 / p.gamma_plus


def switched_uniforms(s_tau, n, seed=0):
    """n targets drawn uniformly from the switched range (S(tau), 1]."""
    return s_tau + (1.0 - s_tau) * (1.0 - np.random.default_rng(seed).random(n))


def count_points(monkeypatch, factory, evaluated=None):
    """Patch trajectory.<factory> so that its evaluators record the number
    of times of each call in the returned list, and a copy of the times
    themselves in the list evaluated, if given."""
    points = []
    make = getattr(traj, factory)

    def counted(*args):
        f = make(*args)

        def g(t, *rest):
            points.append(np.size(t))
            if evaluated is not None:
                evaluated.append(np.array(t, dtype=float))
            return f(t, *rest)

        return g

    monkeypatch.setattr(traj, factory, counted)
    return points


class TestInversionRoute:
    """The guide-table bracket and Hermite seed against the route they
    replace (binary-search bracket, linear seed)."""

    @pytest.mark.parametrize(
        "params, rho, tau",
        [(p, MIXED, tau) for p, tau in map(benchmark_pulse, CONFIGS)]
        + [
            # the exceptional point and the near-dark state of TestInversion
            (det.DetectorParams(0.0, 4.0, math.pi / 2, 2.0),
             m2.projector(pure_state(1.0, 0.6 + 0.3j)), 1.5),
            (det.DetectorParams(0.0, 3.0, 0.0, 2.0),
             m2.projector(pure_state(math.cos(0.01), math.sin(0.01))), 5.0),
            # Taylor cells where about half the solves stay open after the
            # first Newton step, and the propagator's route
            (det.DetectorParams(10.0, 2.0, 0.9, 700.0), BlochComponents(1.0, 0.0, 0.0).to_density(), 0.5),
            (det.DetectorParams(0.0, 100.0, 0.1, 25.0), MIXED, 30.0),
        ],
    )
    def test_matches_table_newton_oracle(self, params, rho, tau):
        s_tau, invert = traj._survival_inverter(params, rho, tau)
        ref_s_tau, ref_invert = table_newton_inverter(params, rho, tau)
        assert s_tau == ref_s_tau
        u = switched_uniforms(s_tau, 1 << 14)
        times, ref = invert(u), ref_invert(u)
        # a root is fixed only to the rounding of S over the density, so
        # where S is flat to rounding (late times of the near-dark state)
        # each solve may stop anywhere in that window; elsewhere it is
        # far below 1e-12 tau
        window = 4.0 * np.finfo(float).eps / det.switch_density_function(params, rho)(ref)
        err = np.max(np.abs(times - ref) - window)
        assert err <= 1e-12 * tau, f"times differ by {err / tau:.2e} tau beyond rounding"

    @pytest.mark.parametrize("config", CONFIGS)
    def test_histogram_matches_oracle(self, config):
        p, tau = benchmark_pulse(config)
        cfg = traj.SimConfig(n_traj=200_000, tau=tau, seed=17, n_bins=150)
        h = traj.run_ensemble(p, MIXED, cfg)
        s_tau, ref_invert = table_newton_inverter(p, MIXED, tau)
        u = traj._uniforms(cfg.seed, 0, cfg.n_traj)
        ref_times = ref_invert(u[u > s_tau])
        np.testing.assert_array_equal(h.counts, np.histogram(ref_times, bins=h.bin_edges)[0])
        assert h.no_switch_count == cfg.n_traj - ref_times.size

    def test_bracket_matches_searchsorted(self):
        rng = np.random.default_rng(3)
        p, tau = benchmark_pulse(CONFIGS[1])
        surv = det.survival_function(p, MIXED)
        # staircases: monotone tables with flat runs of 1 to 40 points
        steps = np.sort(rng.random(300))[::-1]
        stairs = np.repeat(steps, rng.integers(1, 41, steps.size))
        tables = [
            np.minimum.accumulate(surv(np.linspace(0.0, tau, traj._TABLE_POINTS))),
            stairs,
            np.concatenate([np.ones(100), stairs, np.full(100, stairs[-1])]),
            np.ones(50),
        ]
        for table in tables:
            lo, hi = table[-1], table[0]
            u = np.concatenate([
                lo + (hi - lo) * rng.random(20_000),
                table,
                np.nextafter(table, 2.0),
                np.nextafter(table, -1.0),
                [hi + 0.1, lo - 0.1],
            ])
            ref = np.clip(np.searchsorted(-table, -u, side="right"), 1, table.size - 1)
            np.testing.assert_array_equal(traj._bracket_finder(table)(u), ref)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_one_evaluation_per_solve(self, config, monkeypatch):
        exact = count_points(monkeypatch, "_survival_and_density")
        points = count_points(monkeypatch, "_cell_polynomials")
        p, tau = benchmark_pulse(config)
        s_tau, invert = traj._survival_inverter(p, MIXED, tau)
        exact.clear()  # set-up calls
        points.clear()
        n = 1 << 16
        invert(switched_uniforms(s_tau, n))
        assert exact == [], "the sampler evaluates the propagator after set-up"
        assert points, "the sampler no longer evaluates trajectory._cell_polynomials"
        per_solve = sum(points) / n
        assert per_solve <= 1.05, f"{per_solve:.3f} survival points per solve"

    def test_residual_bound_skips_survival_function(self, monkeypatch):
        # survival_function tabulates S and gives S(tau); every residual
        # is bounded from the Newton step's own values
        points = count_points(monkeypatch, "survival_function")
        p, tau = benchmark_pulse(CONFIGS[0])
        traj.run_ensemble(p, MIXED, traj.SimConfig(n_traj=3 * traj.CHUNK, tau=tau, seed=17))
        assert points == [traj._TABLE_POINTS, 1]

    @pytest.mark.parametrize(
        "params, tau, max_steps",
        [
            # on the propagator's route, with max(gamma_L, gamma_R) tau =
            # 3000, a step within the step tolerance leaves a bound above
            # the residual tolerance, so solves step on past it: two
            # safeguarded steps leave some open in every chunk
            ((0.0, 100.0, 0.1, 25.0), 30.0, 2),
            # S is a staircase on the grid's scale, so one step leaves
            # solves open
            ((0.0, 1.0, 1.0, 25.0), 60.0, 1),
        ],
    )
    def test_unbounded_residual_evaluated_exactly(self, params, tau, max_steps, monkeypatch):
        points = count_points(monkeypatch, "survival_function")
        monkeypatch.setattr(traj, "_MAX_STEPS", max_steps)
        cfg = traj.SimConfig(n_traj=2 * traj.CHUNK + 5, tau=tau, seed=3)
        times, _ = traj.sample_switch_times(det.DetectorParams(*params), MIXED, cfg)
        assert times.size > 0
        assert points[:2] == [traj._TABLE_POINTS, 1]
        assert sum(points[2:]) == times.size


class TestPurity:
    def test_pure_stays_pure_exact(self):
        rng = np.random.default_rng(21)
        p = det.DetectorParams(1.0, 4.0, 1.1, 8.0)
        psi = pure_state(0.8, 0.6j)
        cfg = traj.SimConfig(n_traj=100, tau=1.0, seed=13)
        for i in range(100):
            out = traj.run_trajectory(p, m2.projector(psi), cfg, i)
            assert purity(out.final_state) == pytest.approx(1.0, abs=1e-10)


class TestChi2:
    def test_self_consistency(self):
        p = det.DetectorParams(1.0, 5.0, 0.8, 4.0)
        cfg = traj.SimConfig(n_traj=30000, tau=1.0, seed=23, n_bins=25)
        h = traj.run_ensemble(p, MIXED, cfg)
        stat, dof, pval = traj.chi2_vs_analytic(h, p, MIXED)
        assert pval > 0.001

    def test_discriminates_wrong_rates(self):
        p = det.DetectorParams(1.0, 5.0, 0.8, 4.0)
        cfg = traj.SimConfig(n_traj=30000, tau=1.0, seed=23, n_bins=25)
        h = traj.run_ensemble(p, MIXED, cfg)
        p_wrong = det.DetectorParams(1.0, 10.0, 0.8, 4.0)
        stat, dof, pval = traj.chi2_vs_analytic(h, p_wrong, MIXED)
        assert pval < 1e-6

    def test_empty_histogram_rejected(self):
        h = traj.Histogram(np.linspace(0, 1, 5), np.zeros(4, dtype=np.int64), 0, 0)
        with pytest.raises(InsufficientCountsError):
            traj.chi2_vs_analytic(h, det.DetectorParams(1, 2, 0.3, 1.0), MIXED)

    def test_thin_tail_folds_into_last_kept_cell(self):
        """At tau = 20 on C1 the cells from t ~ 5 on, and the no-switch
        cell, expect under 5 counts: cells 12-14 gather to one kept cell,
        and the 36 thin cells left after it fold into that cell, so cells
        12-50 form one.  Four trajectories expect too few counts for two
        cells."""
        p = det.DetectorParams(1.0, 5.0, math.pi / 4, 60.0)
        rho = BlochComponents(0.3, 0.0, -0.4).to_density()
        h = traj.run_ensemble(p, rho, traj.SimConfig(n_traj=20000, tau=20.0, seed=1, n_bins=50))
        expected = traj.expected_cell_probabilities(h, p, rho) * h.total
        observed = np.append(h.counts, h.no_switch_count)
        assert np.all(expected[:12] >= 5.0) and expected[12:14].sum() < 5.0 <= expected[12:15].sum()
        assert 0.0 < expected[15:].sum() < 5.0
        merged_e = np.append(expected[:12], expected[12:].sum())
        merged_o = np.append(observed[:12], observed[12:].sum())
        stat, dof, pval = traj.chi2_vs_analytic(h, p, rho)
        assert dof == 12
        assert stat == pytest.approx(np.sum((merged_o - merged_e) ** 2 / merged_e), rel=1e-12)
        assert pval == traj._chi2_tail(12, stat)

        few = traj.run_ensemble(p, rho, traj.SimConfig(n_traj=4, tau=1.2, seed=1, n_bins=50))
        with pytest.raises(InsufficientCountsError, match="fewer than two cells"):
            traj.chi2_vs_analytic(few, p, rho)

    def test_tail_matches_chdtrc(self):
        """The p-value's finite series Q(k/2, x/2) agrees with scipy's
        chdtrc to 1e-12 relative over k = 1-400, out beyond x ~ 1490 where
        e^{-x/2} alone underflows, and is 1 at x = 0."""
        xs = np.concatenate((np.geomspace(1e-3, 3000.0, 61), [1490.0, 1600.0, 2500.0]))
        for k in range(1, 401):
            assert traj._chi2_tail(k, 0.0) == 1.0
            refs = chdtrc(k, xs)
            for x, ref in zip(xs[refs > 1e-300], refs[refs > 1e-300]):
                assert abs(traj._chi2_tail(k, float(x)) - ref) <= 1e-12 * ref, (k, x)
        assert traj._chi2_tail(400, 1600.0) > 1e-150

    def test_cell_probabilities_sum_to_one(self):
        p = det.DetectorParams(1.0, 5.0, 0.8, 4.0)
        h = traj.run_ensemble(p, MIXED, traj.SimConfig(n_traj=100, tau=1.0, seed=1))
        probs = traj.expected_cell_probabilities(h, p, MIXED)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestEuler:
    def test_law_converges_first_order(self):
        # deterministic: the stepped chain's distribution approaches the
        # exact one linearly in dt
        p = det.DetectorParams(1.0, 5.0, 0.9, 2.0)
        tau = 1.0
        edges = np.linspace(0.0, tau, 21)
        h_dummy = traj.Histogram(edges, np.zeros(20, dtype=np.int64), 1, 1)
        exact = traj.expected_cell_probabilities(h_dummy, p, MIXED)
        errs = []
        for dt in (0.004, 0.002, 0.001):
            law = euler_law_cell_probabilities(p, MIXED, tau, dt, edges)
            errs.append(np.abs(law - exact).sum())
        assert errs[1] < 0.6 * errs[0]
        assert errs[2] < 0.6 * errs[1]

    def test_sampler_matches_law(self):
        p = det.DetectorParams(1.0, 3.0, 0.8, 2.0)
        tau, dt = 1.0, 0.004
        cfg = traj.SimConfig(n_traj=20000, tau=tau, seed=31, n_bins=20)
        h = bin_switch_times(*stepped_switch_times(p, MIXED, cfg, dt), cfg)
        probs = euler_law_cell_probabilities(p, MIXED, tau, dt, h.bin_edges)
        expected = probs * h.total
        observed = np.append(h.counts, h.no_switch_count).astype(float)
        keep = expected >= 5
        stat = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))
        pval = float(chi2_dist.sf(stat, keep.sum() - 1))
        assert pval > 0.001

    def test_cross_method_consistency(self):
        # exact and stepped samplers agree statistically at 1e5 trajectories
        p = det.DetectorParams(0.8, 2.2, 0.9, 2.0)
        tau = 1.0
        cfg_exact = traj.SimConfig(n_traj=100000, tau=tau, seed=301, n_bins=20)
        cfg_euler = traj.SimConfig(n_traj=100000, tau=tau, seed=302, n_bins=20)
        h1 = traj.run_ensemble(p, MIXED, cfg_exact)
        h2 = bin_switch_times(*stepped_switch_times(p, MIXED, cfg_euler, 0.001), cfg_euler)
        stat, dof, pval = two_sample_chi2(h1, h2)
        assert pval > 0.001


class TestHistogramCsv:
    def test_round_trip(self, tmp_path):
        p = det.DetectorParams(1.0, 4.0, 0.7, 3.0)
        h = traj.run_ensemble(p, MIXED, traj.SimConfig(n_traj=2000, tau=1.0, seed=5))
        path = tmp_path / "hist.csv"
        traj.write_histogram_csv(h, path, time_scale=p.gamma_R)
        back = traj.read_histogram_csv(path, time_scale=p.gamma_R)
        np.testing.assert_allclose(back.bin_edges, h.bin_edges, atol=1e-15)
        np.testing.assert_array_equal(back.counts, h.counts)
        assert back.no_switch_count == h.no_switch_count
        assert back.total == h.total

    def test_format(self, tmp_path):
        h = traj.Histogram(np.array([0.0, 0.5, 1.0]), np.array([3, 4]), 2, 9)
        path = tmp_path / "hist.csv"
        traj.write_histogram_csv(h, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_start,bin_end,count"
        assert lines[-2] == "#no_switch,2"
        assert lines[-1] == "#total,9"

    def test_histogram_invariants(self):
        with pytest.raises(ValueError):
            traj.Histogram(np.array([0.0, 1.0]), np.array([3]), 2, 9)
        with pytest.raises(ValueError):
            traj.Histogram(np.array([1.0, 0.0]), np.array([3]), 6, 9)
        with pytest.raises(ValueError):
            traj.Histogram(np.array([0.0, 0.5, 1.0]), np.array([-1, 8]), 2, 9)
        with pytest.raises(ValueError):
            traj.Histogram(np.array([0.0, 1.0]), np.array([10]), -1, 9)
        # a NaN first or last edge, and a negative first edge, named in the message
        for edges, named in (([math.nan, 0.5, 1.0], "edge 0 (nan)"), ([0.0, 0.5, math.nan], "edge 2 (nan)"),
                             ([-0.5, 0.5, 1.0], "edge 0 is -0.5")):
            with pytest.raises(ValueError, match=re.escape(named)):
                traj.Histogram(np.array(edges), np.array([3, 4]), 2, 9)

    @pytest.mark.parametrize("scale", [0.0, -2.0, math.nan, math.inf])
    def test_bad_time_scale_rejected(self, tmp_path, scale):
        h = traj.Histogram(np.array([0.0, 0.5, 1.0]), np.array([3, 4]), 2, 9)
        path = tmp_path / "hist.csv"
        with pytest.raises(ValueError):
            traj.write_histogram_csv(h, path, time_scale=scale)
        traj.write_histogram_csv(h, path)
        with pytest.raises(ValueError):
            traj.read_histogram_csv(path, time_scale=scale)

    def test_non_contiguous_rows_rejected(self, tmp_path):
        path = tmp_path / "hist.csv"
        for rows in ("0.0,0.5,3\n0.6,1.0,4\n", "0.0,0.5,3\n0.4,1.0,4\n"):
            path.write_text("bin_start,bin_end,count\n" + rows + "#no_switch,2\n#total,9\n")
            with pytest.raises(ValueError):
                traj.read_histogram_csv(path, time_scale=2.0)

    @pytest.mark.parametrize(
        "body",
        [
            "0.0,0.5,3\n0.5,1.0,4\n#total,9\n",
            "0.0,0.5,3\n0.5,1.0,4\n#no_switch,2\n",
            "0.0,0.5,-3\n0.5,1.0,10\n#no_switch,2\n#total,9\n",
            "0.0,0.5,3\n0.5,1.0,4\n#no_switch,2\n#total,10\n",
            "0.0,0.5\n0.5,1.0,4\n#no_switch,2\n#total,9\n",
            "0.0,0.5,3,1\n0.5,1.0,4\n#no_switch,2\n#total,9\n",
            "0.0,0.5,three\n0.5,1.0,4\n#no_switch,2\n#total,9\n",
        ],
        ids=["no_no_switch", "no_total", "negative_count", "total_mismatch", "two_fields", "four_fields", "text_count"],
    )
    def test_malformed_rows_rejected(self, tmp_path, body):
        path = tmp_path / "hist.csv"
        path.write_text("bin_start,bin_end,count\n" + body)
        with pytest.raises(ValueError):
            traj.read_histogram_csv(path, time_scale=2.0)
