import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from switchsim import detector as det
from switchsim import mat2 as m2
from switchsim.errors import StepTooLargeError

from oracles import (
    integrate_matrix,
    p_no_switch,
    u_ham,
    u_ns_half_angle_form,
    u_ns_stepped,
    van_loan_slopes,
)


def random_params(rng, beta_range=(0.0, math.pi)):
    return det.DetectorParams(
        gamma_L=float(rng.uniform(0.0, 3.0)),
        gamma_R=float(rng.uniform(0.0, 3.0)),
        beta=float(rng.uniform(*beta_range)),
        E=float(rng.uniform(0.0, 5.0)),
    )


class TestParams:
    def test_derived_rates(self):
        p = det.DetectorParams(1.0, 4.0, 0.3, 2.0)
        assert p.gamma_plus == pytest.approx(2.5)
        assert p.gamma_minus == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            det.DetectorParams(-1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            det.DetectorParams(1.0, 1.0, 4.0, 1.0)
        with pytest.raises(ValueError):
            det.DetectorParams(1.0, math.inf, 0.0, 1.0)


class TestProbeBasis:
    def test_beta_zero(self):
        b = det.probe_basis(det.DetectorParams(1.0, 2.0, 0.0, 1.0))
        np.testing.assert_allclose(b.L, m2.KET_0, atol=1e-15)
        # -|1> phase-normalized to |1>
        np.testing.assert_allclose(b.R, m2.KET_1, atol=1e-15)

    def test_beta_half_pi(self):
        b = det.probe_basis(det.DetectorParams(1.0, 2.0, math.pi / 2, 1.0))
        s = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(b.L, [s, s], atol=1e-15)
        np.testing.assert_allclose(b.R, [s, -s], atol=1e-15)

    def test_beta_third_pi(self):
        b = det.probe_basis(det.DetectorParams(1.0, 2.0, math.pi / 3, 1.0))
        np.testing.assert_allclose(b.L, [math.sqrt(3.0) / 2.0, 0.5], atol=1e-15)

    def test_orthonormal(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            b = det.probe_basis(random_params(rng))
            assert abs(np.vdot(b.L, b.R)) < 1e-12
            assert np.vdot(b.L, b.L).real == pytest.approx(1.0, abs=1e-12)


class TestSwitchOperators:
    def test_equal_rates_isotropic(self):
        p = det.DetectorParams(2.0, 2.0, 1.1, 3.0)
        np.testing.assert_allclose(
            det.p_switch(p, 0.1), math.sqrt(0.2) * np.eye(2), atol=1e-12
        )

    def test_beta_zero_diagonal(self):
        p = det.DetectorParams(1.0, 4.0, 0.0, 1.0)
        np.testing.assert_allclose(
            det.p_switch(p, 0.01), np.diag([0.1, 0.2]), atol=1e-14
        )
        np.testing.assert_allclose(
            p_no_switch(p, 0.01),
            np.diag([math.sqrt(0.99), math.sqrt(0.96)]),
            atol=1e-14,
        )

    def test_single_rate_projector(self):
        p = det.DetectorParams(0.0, 2.0, math.pi / 2, 1.0)
        s = 1.0 / math.sqrt(2.0)
        proj_r = m2.projector(np.array([s, -s]))
        np.testing.assert_allclose(
            det.p_switch(p, 0.3), math.sqrt(0.6) * proj_r, atol=1e-12
        )

    def test_no_measurement_identity(self):
        p = det.DetectorParams(0.0, 0.0, 0.7, 2.0)
        np.testing.assert_allclose(p_no_switch(p, 0.5), np.eye(2), atol=1e-14)

    def test_completeness_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = random_params(rng)
            dt = float(rng.uniform(1e-4, 1.0 / max(p.gamma_R, p.gamma_L, 1e-9)))
            ps = det.p_switch(p, dt)
            pns = p_no_switch(p, dt)
            np.testing.assert_allclose(ps @ ps + pns @ pns, np.eye(2), atol=1e-12)

    def test_step_too_large(self):
        p = det.DetectorParams(1.0, 4.0, 0.0, 1.0)
        with pytest.raises(StepTooLargeError):
            det.p_switch(p, 0.3)
        with pytest.raises(ValueError):
            p_no_switch(p, 0.0)


class TestUHam:
    def test_zero_energy(self):
        p = det.DetectorParams(1.0, 2.0, 0.1, 0.0)
        np.testing.assert_allclose(u_ham(p, 5.0), np.eye(2), atol=1e-15)

    def test_half_period(self):
        p = det.DetectorParams(1.0, 2.0, 0.1, 1.0)
        np.testing.assert_allclose(u_ham(p, 2 * math.pi), -np.eye(2), atol=1e-12)

    def test_quarter_rotation(self):
        p = det.DetectorParams(1.0, 2.0, 0.1, 1.0)
        np.testing.assert_allclose(u_ham(p, math.pi), np.diag([1j, -1j]), atol=1e-12)

    def test_unitary(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = random_params(rng)
            u = u_ham(p, float(rng.uniform(0, 10)))
            np.testing.assert_allclose(u @ m2.dag(u), np.eye(2), atol=1e-12)


class TestGenerator:
    def test_beta_zero(self):
        p = det.DetectorParams(1.0, 4.0, 0.0, 3.0)
        g = det.generator(p)
        np.testing.assert_allclose(
            g, np.diag([1.5j - 0.5, -1.5j - 2.0]), atol=1e-14
        )

    def test_equal_rates(self):
        p = det.DetectorParams(2.0, 2.0, 1.234, 3.0)
        g = det.generator(p)
        expected = -1.0 * np.eye(2) + 1.5j * m2.SIGMA_Z
        np.testing.assert_allclose(g, expected, atol=1e-14)

    def test_pure_mixing(self):
        p = det.DetectorParams(0.0, 2.0, math.pi / 2, 0.0)
        np.testing.assert_allclose(
            det.generator(p), -0.5 * np.eye(2) + 0.5 * m2.SIGMA_X, atol=1e-14
        )


class TestUNoSwitch:
    def test_t_zero_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            np.testing.assert_allclose(
                det.u_ns(random_params(rng), 0.0), np.eye(2), atol=1e-14
            )

    def test_beta_zero_closed_form(self):
        p = det.DetectorParams(1.0, 4.0, 0.0, 3.0)
        for t in (0.1, 0.7, 2.5):
            lam_hi = -0.5 * p.gamma_L + 0.5j * p.E
            lam_lo = -0.5 * p.gamma_R - 0.5j * p.E
            np.testing.assert_allclose(
                det.u_ns(p, t),
                np.diag([np.exp(lam_hi * t), np.exp(lam_lo * t)]),
                atol=1e-12,
            )

    def test_free_evolution(self):
        p = det.DetectorParams(0.0, 0.0, 0.9, 2.0)
        for t in (0.3, 1.7):
            np.testing.assert_allclose(det.u_ns(p, t), u_ham(p, t), atol=1e-12)

    def test_matches_expm(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = random_params(rng)
            t = float(rng.uniform(0.0, 3.0))
            np.testing.assert_allclose(
                det.u_ns(p, t), expm(det.generator(p) * t), atol=1e-10
            )

    def test_matches_half_angle_form(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 1000:
            p = random_params(rng)
            t = float(rng.uniform(0.0, 4.0))
            try:
                ref = u_ns_half_angle_form(p, t)
            except ValueError:  # defective generator: the oracle is undefined
                continue
            u = det.u_ns(p, t)
            assert np.max(np.abs(u - ref)) < 1e-8 * max(1.0, np.max(np.abs(ref)))
            checked += 1

    def test_degenerate_generator(self):
        # E = 0 and beta = 0 make G defective-adjacent only when rates are
        # equal; force exact degeneracy and compare against expm.
        p = det.DetectorParams(2.0, 2.0, 0.0, 0.0)
        for t in (0.5, 2.0):
            np.testing.assert_allclose(
                det.u_ns(p, t), expm(det.generator(p) * t), atol=1e-12
            )
        # The exceptional point beta = pi/2, E = |gamma_minus| (here with
        # gamma_L = 0) and its neighbourhood: G is defective or nearly so,
        # and the propagator and survival must stay exact through it.
        rho = m2.projector(m2.pure_state(1.0, 0.6 + 0.3j))
        grid = np.linspace(0.0, 3.0, 61)
        for gamma_r in (0.1, 4.0, 400.0):
            for delta in (0.0, 1e-15, -1e-15, 1e-13, -1e-13, 1e-11, 1e-9):
                p = det.DetectorParams(0.0, gamma_r, math.pi / 2, 0.5 * gamma_r * (1.0 + delta))
                refs = [expm(det.generator(p) * t) for t in grid]
                for t, ref in zip(grid, refs):
                    assert np.max(np.abs(det.u_ns(p, float(t)) - ref)) <= 1e-12
                s_ref = [m2.trace(u @ rho @ m2.dag(u)).real for u in refs]
                s = det.survival_function(p, rho)(grid)
                assert np.max(np.abs(s - s_ref)) <= 1e-12
                assert float(s[0]) == pytest.approx(1.0, abs=1e-15)

    def test_semigroup(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            p = random_params(rng)
            t1, t2 = rng.uniform(0.0, 2.0, 2)
            lhs = det.u_ns(p, t1 + t2)
            rhs = det.u_ns(p, t2) @ det.u_ns(p, t1)
            assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(lhs)))

    def test_stepped_oracle_first_order(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            p = random_params(rng)
            t = 0.5
            n0 = max(int(t / (0.01 * min(1.0 / p.gamma_plus, 1.0 / p.E))) + 1, 200)
            exact = det.u_ns(p, t)
            errs = [
                np.max(np.abs(u_ns_stepped(p, t, n) - exact))
                for n in (n0, 2 * n0, 4 * n0)
            ]
            # halving the step should roughly halve the error
            assert errs[1] < 0.6 * errs[0] + 1e-14
            assert errs[2] < 0.6 * errs[1] + 1e-14


class TestUSwitch:
    def test_t_zero(self):
        p = det.DetectorParams(1.0, 3.0, 0.8, 2.0)
        np.testing.assert_allclose(det.u_s(p, 0.0, 0.05), det.p_switch(p, 0.05), atol=1e-13)

    def test_beta_zero_eigenvalues(self):
        p = det.DetectorParams(1.0, 4.0, 0.0, 2.0)
        t, dt = 0.4, 0.01
        us = det.u_s(p, t, dt)
        eig = m2.hermitian_eig(m2.dag(us) @ us)
        expected = sorted(
            [
                p.gamma_L * dt * math.exp(-p.gamma_L * t),
                p.gamma_R * dt * math.exp(-p.gamma_R * t),
            ],
            reverse=True,
        )
        assert eig.eval_hi == pytest.approx(expected[0], rel=1e-10)
        assert eig.eval_lo == pytest.approx(expected[1], rel=1e-10)

    def test_equal_rates_scalar(self):
        p = det.DetectorParams(2.0, 2.0, 1.0, 3.0)
        t, dt = 0.7, 0.05
        us = det.u_s(p, t, dt)
        np.testing.assert_allclose(
            m2.dag(us) @ us,
            2.0 * dt * math.exp(-2.0 * t) * np.eye(2),
            atol=1e-12,
        )


class TestSurvival:
    def test_equal_rates_exponential(self):
        rng = np.random.default_rng(8)
        p = det.DetectorParams(1.5, 1.5, 2.0, 4.0)
        for _ in range(10):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            rho = a @ m2.dag(a)
            rho /= m2.trace(rho).real
            t = float(rng.uniform(0, 2))
            assert det.survival_probability(p, rho, t) == pytest.approx(
                math.exp(-1.5 * t), abs=1e-12
            )

    def test_beta_zero_excited(self):
        p = det.DetectorParams(1.0, 4.0, 0.0, 2.0)
        rho = m2.projector(m2.KET_1)
        for t in (0.2, 1.0, 3.0):
            assert det.survival_probability(p, rho, t) == pytest.approx(
                math.exp(-4.0 * t), rel=1e-12
            )

    def test_starts_at_one_and_decreases(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = random_params(rng)
            rho = m2.projector(m2.pure_state(*(rng.standard_normal(2) + 1j * rng.standard_normal(2))))
            s = det.survival_function(p, rho)
            grid = np.linspace(0.0, 5.0, 400)
            vals = s(grid)
            assert vals[0] == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.diff(vals) <= 1e-12)
            assert np.all(vals >= -1e-12) and np.all(vals <= 1.0 + 1e-12)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(10)
        p = random_params(rng)
        rho = 0.5 * np.eye(2, dtype=complex)
        s = det.survival_function(p, rho)
        for t in (0.0, 0.3, 1.1, 2.7):
            u = det.u_ns(p, t)
            direct = m2.trace(u @ rho @ m2.dag(u)).real
            assert float(s(t)) == pytest.approx(direct, abs=1e-13)

    @pytest.mark.parametrize(
        "params", [(1.0, 10.0, 0.3, 30.0), (0.0, 10.0, 0.0, 30.0), (0.0, 4.0, math.pi / 2, 2.0)]
    )
    def test_infinite_time_in_array_matches_float(self, params):
        # (0, 10, 0, 30) leaves |0> dark, (0, 4, pi/2, 2) is the exceptional
        # point; an infinite array element takes the float limit, without
        # a RuntimeWarning
        p = det.DetectorParams(*params)
        rho = 0.5 * np.eye(2, dtype=complex)
        for f in (det.survival_function(p, rho), det.switch_density_function(p, rho)):
            np.testing.assert_allclose(
                f(np.array([1.0, np.inf])), [f(1.0), f(math.inf)], rtol=0.0, atol=1e-14
            )


class TestSwitchDensity:
    def test_maximally_mixed_at_zero(self):
        p = det.DetectorParams(1.0, 4.0, 0.9, 2.0)
        rho = 0.5 * np.eye(2, dtype=complex)
        assert det.switch_density(p, rho, 0.0) == pytest.approx(p.gamma_plus, rel=1e-12)

    def test_equal_rates(self):
        p = det.DetectorParams(2.0, 2.0, 1.3, 3.0)
        rho = m2.projector(m2.pure_state(0.6, 0.8))
        for t in (0.0, 0.5, 1.5):
            assert det.switch_density(p, rho, t) == pytest.approx(
                2.0 * math.exp(-2.0 * t), rel=1e-12
            )

    def test_beta_zero_ground(self):
        p = det.DetectorParams(1.0, 4.0, 0.0, 2.0)
        rho = m2.projector(m2.KET_0)
        for t in (0.1, 0.9):
            assert det.switch_density(p, rho, t) == pytest.approx(
                1.0 * math.exp(-1.0 * t), rel=1e-12
            )

    def test_density_is_minus_ds_dt(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = random_params(rng)
            rho = 0.5 * np.eye(2, dtype=complex)
            s = det.survival_function(p, rho)
            t = float(rng.uniform(0.1, 2.0))
            h = 1e-6
            numeric = -(float(s(t + h)) - float(s(t - h))) / (2 * h)
            assert det.switch_density(p, rho, t) == pytest.approx(numeric, abs=1e-6)

    def test_survival_plus_integrated_density_is_one(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            p = random_params(rng)
            rho = 0.5 * np.eye(2, dtype=complex)
            tau = float(rng.uniform(0.5, 3.0))
            dens = det.switch_density_function(p, rho)
            integral, err = quad(lambda u: float(dens(u)), 0.0, tau, limit=200)
            total = det.survival_probability(p, rho, tau) + integral
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_vectorized_density_matches_scalar(self):
        rng = np.random.default_rng(13)
        p = random_params(rng)
        rho = m2.projector(m2.pure_state(1.0, 0.5j))
        d = det.switch_density_function(p, rho)
        for t in (0.0, 0.4, 1.9):
            assert float(d(t)) == pytest.approx(det.switch_density(p, rho, t), abs=1e-13)


class TestCompletenessFlow:
    def test_operator_completeness(self):
        # U_ns^dag U_ns(t) + integral of U_ns^dag Gamma U_ns over [0, t] = identity
        rng = np.random.default_rng(14)
        for _ in range(25):
            p = random_params(rng)
            t_max = 10.0 / max(p.gamma_plus, p.E, 1.0)
            gam = det.rate_matrix(p)

            def integrand(s):
                u = det.u_ns(p, s)
                return m2.dag(u) @ gam @ u

            for t in (t_max, t_max / 3.0):
                integral, err = integrate_matrix(integrand, 0.0, t, limit=200)
                u = det.u_ns(p, t)
                total = m2.dag(u) @ u + integral
                assert np.max(np.abs(total - np.eye(2))) < 1e-8


rates = st.floats(0.0, 100.0)
unit = st.floats(-1.0, 1.0)


@settings(max_examples=200)
@given(
    rates,
    rates,
    st.floats(0.0, math.pi),
    st.floats(0.0, 1000.0),
    st.floats(0.0, 1.0),
    st.tuples(unit, unit, unit, unit).filter(lambda v: sum(x * x for x in v) > 1e-6),
)
def test_propagator_and_survival_over_parameter_box(gamma_l, gamma_r, beta, e, frac, amps):
    """Invariants at any admissible parameters, exceptional point included.

    Times run over 30 decay times (a vanishing gamma_plus is floored at
    1e-3).  The propagator must match expm to 1e-12 where |G t| <= 1e3;
    beyond that, rounding G t alone moves the phase by ~eps |G t|, in
    expm as in the closed form, and the bound grows with it.  The
    integral check stops after ~30 precession periods, all that adaptive
    quadrature resolves to 1e-8.
    """
    p = det.DetectorParams(gamma_l, gamma_r, beta, e)
    horizon = 30.0 / max(p.gamma_plus, 1e-3)
    t = frac * horizon
    g = det.generator(p)
    g_norm = np.linalg.norm(g, 2)
    u = expm(g * t)
    bound = 1e-12 * max(1.0, g_norm * t / 1e3)
    assert np.max(np.abs(det.u_ns(p, t) - u)) <= bound

    rho = m2.projector(m2.pure_state(amps[0] + 1j * amps[1], amps[2] + 1j * amps[3]))
    # the trace forms and the half gap weigh U by Gamma, so their bound
    # carries its norm
    gam = det.rate_matrix(p)
    moved = m2.dag(u) @ gam @ u
    rows = det._survival_and_density(p, rho)(np.array([t]))[:, 0]
    expected = [m2.trace(m2.dag(u) @ u @ rho).real, m2.trace(moved @ rho).real]
    gam_bound = bound * max(1.0, gamma_l, gamma_r)
    np.testing.assert_allclose(rows, expected, rtol=0.0, atol=gam_bound)
    low, high = np.linalg.eigvalsh(moved)
    assert det._half_gap(p, gam)(t) == pytest.approx(0.5 * (high - low), abs=gam_bound)
    s = det.survival_function(p, rho)
    assert float(s(0.0)) == pytest.approx(1.0, abs=1e-12)
    vals = s(np.linspace(0.0, horizon, 400))
    assert np.all(vals >= -1e-12) and np.all(vals <= 1.0 + 1e-12)
    assert np.all(np.diff(vals) <= 1e-12)

    # written so that a subnormal g_norm does not overflow 100 / g_norm
    tau = t if g_norm * t <= 100.0 else 100.0 / g_norm
    dens = det.switch_density_function(p, rho)
    # quad's default tolerance, 1.5e-8, is coarser than the 1e-8 checked
    integral, _ = quad(
        lambda u: float(dens(u)), 0.0, tau, limit=200, epsabs=1e-10, epsrel=1e-10
    )
    assert float(s(tau)) + integral == pytest.approx(1.0, abs=1e-8)


NAMES = ("gamma_L", "gamma_R", "beta", "E")
SLOPE_CASES = (
    (1.0, 5.0, math.pi / 4, 60.0),
    (0.0, 10.0, math.pi / 3, 200.0),
    (2.0, 8.0, 1.0, 20.0),
    (1.0, 4.0, 0.6, 120.0),
    (0.0, 4.0, math.pi / 2, 2.0),  # exceptional point: r = 0
    (0.0, 4.0, math.pi / 2, 2.0 + 1e-7),  # 1e-7 from it
    (0.0, 4.0, math.pi / 2, 1.9),  # |r t| = 0.09 at t = 0.3, by the series' edge
    (0.0, 0.0, 0.3, 1.0),  # a detector that never switches
)


def survival_and_density_slopes(p, rhos, ts):
    """The package's slopes of the trace forms with op = I and op = Gamma,
    the latter with Gamma's own slope -(G' + G'^dag); shape
    (len(NAMES), len(rhos), 2, len(ts))."""
    g_dot = det._generator_slopes(p, NAMES)
    gam_dot = -(g_dot + g_dot.conj().transpose(0, 2, 1))
    forms = det._TraceForms(p, rhos, [np.eye(2), det.rate_matrix(p)])
    op_slopes = np.stack((np.zeros_like(gam_dot), gam_dot), axis=1)
    slopes = forms.slopes(NAMES, ts, forms.propagator.coefficients(ts), op_slopes)
    return slopes.reshape(len(NAMES), len(rhos), 2, len(ts))


def slope_bound(p, t, ref):
    """The bound of test_propagator_and_survival_over_parameter_box,
    1e-12 max(1, |G| t / 1e3) max(1, gamma_L, gamma_R), relative to the
    slope where it exceeds 1."""
    g_norm = np.linalg.norm(det.generator(p), 2)
    bound = 1e-12 * max(1.0, g_norm * t / 1e3) * max(1.0, p.gamma_L, p.gamma_R)
    return bound * np.maximum(1.0, np.abs(ref))


class TestSlopes:
    @pytest.mark.parametrize("params", SLOPE_CASES)
    def test_generator_slopes_match_differences(self, params):
        # G is linear in the rates and E, so a one-sided difference at a
        # zero rate is as good as a central one
        p = det.DetectorParams(*params)
        g_dot = det._generator_slopes(p, NAMES)
        for j, name in enumerate(NAMES):
            v = getattr(p, name)
            h = 1e-6 * max(1.0, abs(v))
            hi, lo = (
                dataclasses.replace(p, **{name: x}) for x in (v + h, max(v - h, 0.0))
            )
            step = getattr(hi, name) - getattr(lo, name)
            tol = 1e-8 * max(1.0, p.gamma_L, p.gamma_R, p.E)
            np.testing.assert_allclose(
                g_dot[j], (det.generator(hi) - det.generator(lo)) / step, rtol=0, atol=tol
            )
            np.testing.assert_allclose(
                -(g_dot[j] + m2.dag(g_dot[j])),
                (det.rate_matrix(hi) - det.rate_matrix(lo)) / step,
                rtol=0,
                atol=tol,
            )

    @pytest.mark.parametrize("params", SLOPE_CASES)
    def test_match_van_loan_block(self, params):
        p = det.DetectorParams(*params)
        rhos = [
            m2.projector(m2.pure_state(0.6, 0.8j)),
            0.5 * np.eye(2, dtype=complex),
            np.array([[0.3, 0.1 - 0.2j], [0.1 + 0.2j, 0.7]]),
        ]
        ts = np.array([0.01, 0.3, 1.2])
        got = survival_and_density_slopes(p, rhos, ts)
        for i, rho in enumerate(rhos):
            for k, t in enumerate(ts):
                ref = van_loan_slopes(p, rho, t, NAMES)
                assert np.all(np.abs(got[:, i, :, k] - ref) <= slope_bound(p, t, ref))


@settings(max_examples=200)
@given(
    rates,
    rates,
    st.floats(0.0, math.pi),
    st.floats(0.0, 1000.0),
    st.floats(0.0, 1.0),
    st.tuples(unit, unit, unit, unit).filter(lambda v: sum(x * x for x in v) > 1e-6),
)
def test_slopes_over_parameter_box(gamma_l, gamma_r, beta, e, frac, amps):
    """The survival and density slopes match the Van Loan block at any
    admissible parameters, over 30 decay times as in
    test_propagator_and_survival_over_parameter_box."""
    p = det.DetectorParams(gamma_l, gamma_r, beta, e)
    t = frac * 30.0 / max(p.gamma_plus, 1e-3)
    rho = m2.projector(m2.pure_state(amps[0] + 1j * amps[1], amps[2] + 1j * amps[3]))
    got = survival_and_density_slopes(p, [rho], np.array([t]))[:, 0, :, 0]
    ref = van_loan_slopes(p, rho, t, NAMES)
    assert np.all(np.abs(got - ref) <= slope_bound(p, t, ref))
