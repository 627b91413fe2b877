import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from switchsim import detector as det
from switchsim import mat2 as m2
from switchsim import measurement as meas
from switchsim.errors import (
    DegenerateRatesError,
    FlatObjectiveError,
    WrongRegimeError,
    ZeroOutcomeProbabilityError,
    ZeroRateError,
)
from switchsim.tolerances import QUADRATURE_TOL

from oracles import (
    basis_azimuth,
    grid_then_golden_max,
    overall_fidelity_products,
    purity_equals_fidelity_check,
)


def random_operator(rng, scale=1.0):
    return scale * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))


def random_unitary(rng):
    a = random_operator(rng)
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def state_angle(a, b):
    """Bloch-axis angle between two pure states (0 for parallel/antipodal phases)."""
    return math.acos(min(abs(np.vdot(a, b)), 1.0))


MIXED = 0.5 * np.eye(2, dtype=complex)
SLOW = det.DetectorParams(1.0, 2.0, 0.7, 30.0)
ALIGNED = det.DetectorParams(1.0, 2.0, 0.0, 3.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: det.u_ns(SLOW, math.nan),
        lambda: det.u_s(SLOW, math.nan, 1e-3),
        lambda: det.u_s(SLOW, 0.1, math.nan),
        lambda: det.survival_probability(SLOW, MIXED, math.nan),
        lambda: det.switch_density(SLOW, MIXED, math.nan),
        lambda: meas.case1_switch_fidelity(ALIGNED, math.nan),
        lambda: meas.case1_pulse_fidelity(ALIGNED, math.nan),
        lambda: meas.case3_basis(SLOW, math.nan, override_regime=True),
        lambda: meas.case3_pulse_fidelity(SLOW, math.nan, override_regime=True),
    ],
    ids=[
        "u_ns", "u_s-t", "u_s-dt", "survival_probability", "switch_density",
        "case1_switch_fidelity", "case1_pulse_fidelity", "case3_basis", "case3_pulse_fidelity",
    ],
)
def test_nan_time_raises(call):
    with pytest.raises(ValueError):
        call()


class TestDecompose:
    def test_identity(self):
        d = meas.decompose(m2.IDENTITY)
        assert d.degenerate
        assert d.p1 == pytest.approx(1.0, abs=1e-12)
        assert d.p2 == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(d.rotation, np.eye(2), atol=1e-12)

    def test_aligned_probe_basis_and_probabilities(self):
        p = det.DetectorParams(1.0, 4.0, 0.0, 2.0)
        basis = det.probe_basis(p)
        for t in (0.05, 0.5, 2.0):
            d = meas.decompose(det.u_s(p, t, 0.01))
            expected = sorted(
                [
                    (p.gamma_L * 0.01 * math.exp(-p.gamma_L * t), basis.L),
                    (p.gamma_R * 0.01 * math.exp(-p.gamma_R * t), basis.R),
                ],
                key=lambda x: -x[0],
            )
            assert d.p1 == pytest.approx(expected[0][0], rel=1e-10)
            assert d.p2 == pytest.approx(expected[1][0], rel=1e-10)
            assert state_angle(d.psi1, expected[0][1]) < 1e-10
            assert state_angle(d.psi2, expected[1][1]) < 1e-10

    def test_scaled_unitary(self):
        rng = np.random.default_rng(0)
        v = random_unitary(rng)
        u = v @ np.diag([2.0, 1.0]).astype(complex)
        d = meas.decompose(u)
        assert d.p1 == pytest.approx(4.0, rel=1e-12)
        assert d.p2 == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(meas.reconstruct(d), u, atol=1e-10)

    def test_round_trip_random(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            u = random_operator(rng, scale=float(rng.uniform(0.1, 3.0)))
            d = meas.decompose(u)
            err = np.max(np.abs(meas.reconstruct(d) - u))
            assert err <= 1e-8 * max(m2.norm2(u), 1e-12)
            if d.p2 > 1e-12:
                np.testing.assert_allclose(
                    d.rotation @ m2.dag(d.rotation), np.eye(2), atol=1e-8
                )

    def test_rank_one_operator(self):
        p = det.DetectorParams(0.0, 2.0, 0.9, 50.0)
        d = meas.decompose(det.u_s(p, 0.7, 0.01))
        assert d.p2 == pytest.approx(0.0, abs=1e-15)
        assert meas.outcome_fidelity(d) == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_round_trip(self):
        # one-sided detector: U^dag U has rank one, so p2 is rounding noise
        # and must not enter the reconstruction
        p = det.DetectorParams(0.0, 1.0, math.pi / 4, 100.0)
        for t in np.linspace(0.0, 3.0, 601):
            u = det.u_s(p, float(t), 1e-3)
            err = np.max(np.abs(meas.reconstruct(meas.decompose(u)) - u))
            assert err <= 1e-12 * m2.norm2(u), t

    def test_basis_covariance(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            u = random_operator(rng)
            d = meas.decompose(u)
            if d.degenerate or (d.p1 - d.p2) < 1e-6 * d.p1:
                continue
            v = random_unitary(rng)
            dv = meas.decompose(v @ u)
            assert dv.p1 == pytest.approx(d.p1, rel=1e-9)
            assert dv.p2 == pytest.approx(d.p2, rel=1e-9)
            # acos resolution near zero angle is sqrt(machine eps)
            assert state_angle(dv.psi1, d.psi1) < 1e-7
            np.testing.assert_allclose(dv.rotation, v @ d.rotation, atol=1e-8)


class TestOutcomeFidelity:
    def test_no_information(self):
        d = meas.decompose(0.3 * m2.IDENTITY)
        assert meas.outcome_fidelity(d) == 0.0

    def test_perfect_discrimination(self):
        d = meas.decompose(m2.projector(m2.KET_0))
        assert meas.outcome_fidelity(d) == pytest.approx(1.0, abs=1e-12)

    def test_rate_ratio_ten(self):
        # early switching at gR/gL = 10: (10-1)/(10+1)
        p = det.DetectorParams(1.0, 10.0, 0.0, 0.0)
        d = meas.decompose(det.u_s(p, 0.0, 0.01))
        assert meas.outcome_fidelity(d) == pytest.approx(9.0 / 11.0, rel=1e-10)

    def test_zero_operator(self):
        with pytest.raises(ZeroOutcomeProbabilityError):
            meas.outcome_fidelity(meas.decompose(np.zeros((2, 2))))


class TestPurityFidelityEquivalence:
    def test_identity(self):
        fid, pur = purity_equals_fidelity_check(m2.IDENTITY)
        assert fid == pytest.approx(0.0, abs=1e-12)
        assert pur == pytest.approx(0.0, abs=1e-12)

    def test_projective(self):
        fid, pur = purity_equals_fidelity_check(m2.projector(m2.KET_0))
        assert fid == pytest.approx(1.0, abs=1e-12)
        assert pur == pytest.approx(1.0, abs=1e-12)

    def test_random_operators(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            u = random_operator(rng)
            if m2.norm2(u) < 1e-3:
                continue
            fid, pur = purity_equals_fidelity_check(u)
            assert fid == pytest.approx(pur, abs=1e-10)


class TestOverallFidelityNumeric:
    def test_aligned_ratio_ten(self):
        p = det.DetectorParams(1.0, 10.0, 0.0, 0.0)
        expected = 10.0 ** (-1.0 / 9.0) - 10.0 ** (-10.0 / 9.0)
        f = meas.overall_fidelity_numeric(p, tau=8.0, resolve_switch_time=True)
        assert f == pytest.approx(expected, abs=1e-6)

    def test_resolved_equals_pulse_maximum(self):
        p = det.DetectorParams(1.0, 10.0, 0.0, 2.0)
        tau0 = meas.case1_tau0(p)
        resolved = meas.overall_fidelity_numeric(p, tau=5.0, resolve_switch_time=True)
        assert resolved == pytest.approx(meas.case1_pulse_fidelity(p, tau0), abs=1e-6)

    def test_unresolved_equals_pulse_fidelity_when_aligned(self):
        p = det.DetectorParams(1.0, 10.0, 0.0, 2.0)
        for tau in (0.05, 0.2556, 1.0):
            f = meas.overall_fidelity_numeric(p, tau, resolve_switch_time=False)
            assert f == pytest.approx(meas.case1_pulse_fidelity(p, tau), abs=1e-10)

    def test_degeneracy_point_unresolved_vanishes(self):
        gamma = 1.0
        p = det.DetectorParams(0.2 * gamma, 1.8 * gamma, math.pi / 2, 100.0)
        f = meas.overall_fidelity_numeric(p, tau=5.0, resolve_switch_time=False)
        assert f < 1e-3

    def test_equal_rates_zero(self):
        p = det.DetectorParams(2.0, 2.0, 0.7, 3.0)
        for resolved in (True, False):
            f = meas.overall_fidelity_numeric(p, 1.0, resolve_switch_time=resolved)
            assert f == pytest.approx(0.0, abs=1e-10)

    def test_tau_guard(self):
        # NaN fails every comparison, so only "not tau > 0" rejects it;
        # an unbounded pulse stays a valid quadrature range
        p = det.DetectorParams(1.0, 10.0, 0.5, 30.0)
        for resolved in (True, False):
            for tau in (float("nan"), 0.0, -1.0):
                with pytest.raises(ValueError):
                    meas.overall_fidelity_numeric(p, tau, resolve_switch_time=resolved)
            f = meas.overall_fidelity_numeric(p, math.inf, resolve_switch_time=resolved)
            assert f == pytest.approx(
                overall_fidelity_products(p, math.inf, resolved), abs=QUADRATURE_TOL
            )

    def test_unbounded_pulse_aligned_probe(self):
        # beta = 0 splits the quadrature at case1_tau0, which must work on
        # [0, inf) too, where the pulse keeps its optimal fidelity
        p = det.DetectorParams(1.0, 10.0, 0.0, 30.0)
        assert meas.overall_fidelity_numeric(p, math.inf) == pytest.approx(
            meas.two_rate_overall_fidelity(p.gamma_L, p.gamma_R), abs=1e-8
        )

    @pytest.mark.parametrize(
        "params",
        [
            (0.0, 10.0, 0.0, 30.0),  # |0> is dark: one mode never decays
            (0.0, 10.0, math.pi / 2, 5.0),  # exceptional point, r = 0
        ],
    )
    def test_unbounded_pulse_limit(self, params):
        # at tau = 12 the decaying modes are below e^{-50}: the limit
        p = det.DetectorParams(*params)
        for resolved in (True, False):
            f = meas.overall_fidelity_numeric(p, math.inf, resolved)
            assert 0.0 <= f <= 1.0
            assert f == pytest.approx(meas.overall_fidelity_numeric(p, 12.0, resolved), abs=1e-8)

    @pytest.mark.parametrize("beta", [math.pi / 4, 0.3])
    @pytest.mark.parametrize("tau", [1.0, 50.0, math.inf])
    def test_one_sided_long_pulses(self, beta, tau):
        # criterion 05's one-sided detector: Gamma has rank one, so the
        # switching integrand, half the gap of U^dag Gamma U, is half its
        # trace, -dS/dt of the mixed state, and the fidelity is
        # 1 - S(tau) + half the gap of U^dag U(tau), one less the smaller
        # eigenvalue of U^dag U(tau); tau = 50 spans ~800 precession periods
        p = det.DetectorParams(0.0, 1.0, beta, 100.0)
        expected = 1.0
        if tau < math.inf:
            u = expm(det.generator(p) * tau)
            expected = 1.0 - np.linalg.eigvalsh(m2.dag(u) @ u)[0]
        assert meas.overall_fidelity_numeric(p, tau) == pytest.approx(expected, abs=1e-10)

    def test_detector_that_never_switches(self):
        p = det.DetectorParams(0.0, 0.0, 0.3, 1.0)
        for resolved in (True, False):
            for tau in (1.0, math.inf):
                assert meas.overall_fidelity_numeric(p, tau, resolved) == 0.0

    @pytest.mark.parametrize(
        "params, tau",
        [
            ((0.0, 4.0, math.pi / 2, 2.0), 0.3),  # exceptional point: G defective
            ((0.0, 4.0, math.pi / 2, 2.0), 2.5),
            ((1.0, 10.0, 0.0, 2.0), 1.0),  # beta = 0: quadrature split at case1_tau0
            ((1.0, 10.0, 0.0, 2.0), 0.1),  # beta = 0 with tau below case1_tau0
        ],
    )
    def test_matches_products_at_special_points(self, params, tau):
        p = det.DetectorParams(*params)
        for resolved in (True, False):
            assert meas.overall_fidelity_numeric(p, tau, resolved) == pytest.approx(
                overall_fidelity_products(p, tau, resolved), abs=QUADRATURE_TOL
            )

    @settings(max_examples=200)
    @given(
        gamma_L=st.floats(0.0, 20.0),
        gamma_R=st.floats(0.0, 20.0),
        beta=st.floats(0.0, math.pi),
        E=st.floats(0.0, 100.0),
        tau=st.floats(0.05, 3.0),
        resolved=st.booleans(),
    )
    def test_matches_products(self, gamma_L, gamma_R, beta, E, tau, resolved):
        p = det.DetectorParams(gamma_L, gamma_R, beta, E)
        assert meas.overall_fidelity_numeric(p, tau, resolved) == pytest.approx(
            overall_fidelity_products(p, tau, resolved), abs=QUADRATURE_TOL
        )


class TestCase1ClosedForms:
    def test_tau0_values(self):
        assert meas.case1_tau0(det.DetectorParams(1.0, 10.0, 0.0, 0.0)) == pytest.approx(
            math.log(10.0) / 9.0, rel=1e-12
        )
        assert meas.case1_tau0(
            det.DetectorParams(2.0, 2.0 * math.e, 0.0, 0.0)
        ) == pytest.approx(1.0 / (2.0 * math.e - 2.0), rel=1e-12)

    def test_tau0_errors(self):
        with pytest.raises(DegenerateRatesError):
            meas.case1_tau0(det.DetectorParams(2.0, 2.0, 0.0, 0.0))
        with pytest.raises(ZeroRateError):
            meas.case1_tau0(det.DetectorParams(0.0, 2.0, 0.0, 0.0))

    def test_switch_fidelity(self):
        p = det.DetectorParams(1.0, 10.0, 0.0, 0.0)
        assert meas.case1_switch_fidelity(p, 0.0) == pytest.approx(9.0 / 11.0, rel=1e-12)
        assert meas.case1_switch_fidelity(p, meas.case1_tau0(p)) == pytest.approx(
            0.0, abs=1e-12
        )
        assert meas.case1_switch_fidelity(p, 5.0) == pytest.approx(1.0, abs=1e-15)

    def test_switch_fidelity_wrong_regime(self):
        with pytest.raises(WrongRegimeError):
            meas.case1_switch_fidelity(det.DetectorParams(1.0, 2.0, 0.1, 0.0), 0.5)

    def test_pulse_fidelity(self):
        p = det.DetectorParams(1.0, 10.0, 0.0, 0.0)
        assert meas.case1_pulse_fidelity(p, 0.0) == 0.0
        expected = 10.0 ** (-1.0 / 9.0) - 10.0 ** (-10.0 / 9.0)
        assert meas.case1_pulse_fidelity(p, meas.case1_tau0(p)) == pytest.approx(
            expected, rel=1e-12
        )
        assert meas.case1_pulse_fidelity(p, 80.0) == pytest.approx(0.0, abs=1e-30)

    def test_pulse_maximum_at_tau0(self):
        p = det.DetectorParams(1.0, 10.0, 0.0, 0.0)
        tau0 = meas.case1_tau0(p)
        tau_num, f_num = grid_then_golden_max(
            lambda t: meas.case1_pulse_fidelity(p, t), 0.0, 5.0
        )
        assert tau_num == pytest.approx(tau0, abs=1e-7)
        assert f_num == pytest.approx(meas.case1_pulse_fidelity(p, tau0), abs=1e-12)

    def test_two_rate_overall(self):
        assert meas.two_rate_overall_fidelity(1.0, 10.0) == pytest.approx(
            0.6968383, abs=1e-6
        )
        assert meas.two_rate_overall_fidelity(9.0, 1.0) == pytest.approx(
            9.0 ** (-1.0 / 8.0) - 9.0 ** (-9.0 / 8.0), rel=1e-12
        )
        assert meas.two_rate_overall_fidelity(0.0, 3.0) == 1.0
        assert meas.two_rate_overall_fidelity(2.0, 2.0) == 0.0


class TestCase3ClosedForms:
    def test_regime_guard(self):
        p = det.DetectorParams(1.0, 4.0, 0.5, 1.0)
        with pytest.raises(WrongRegimeError):
            meas.case3_basis(p, 0.1)
        # override lets it through
        meas.case3_basis(p, 0.1, override_regime=True)

    def test_short_time_limit(self):
        p = det.DetectorParams(1.0, 4.0, 0.6, 100.0)
        b = meas.case3_basis(p, 0.0)
        assert b.theta == pytest.approx(p.beta, rel=1e-12)
        assert b.phi == 0.0
        assert b.p_sum == pytest.approx(p.gamma_L + p.gamma_R, rel=1e-12)
        assert b.p_diff == pytest.approx(p.gamma_R - p.gamma_L, rel=1e-12)

    def test_one_sided_detector_unit_fidelity(self):
        p = det.DetectorParams(0.0, 2.0, 0.7, 100.0)
        for t in np.linspace(0.0, 3.0, 17):
            b = meas.case3_basis(p, float(t))
            assert b.p_diff == pytest.approx(b.p_sum, rel=1e-12)

    def test_degeneracy_point_constant_fidelity(self):
        p = det.DetectorParams(1.0, 4.0, math.pi / 2, 100.0)
        for t in (0.0, 0.5, 2.0):
            b = meas.case3_basis(p, t)
            assert b.theta == pytest.approx(math.pi / 2, rel=1e-12)
            assert b.p_diff / b.p_sum == pytest.approx(
                (p.gamma_R - p.gamma_L) / (p.gamma_R + p.gamma_L), rel=1e-12
            )

    def test_spiral_denominator_and_angle(self):
        p = det.DetectorParams(1.0, 4.0, 1.1, 200.0)
        grid = np.linspace(0.0, 8.0, 800)
        bases = [meas.case3_basis(p, float(t)) for t in grid]
        dens = np.array([b.denominator for b in bases])
        assert dens[0] < 0.0 and dens[-1] > 0.0
        crossings = np.sum(np.diff(np.sign(dens)) != 0)
        assert crossings == 1
        # after the axis passes the equator, theta decreases monotonically to 0
        after = [b.theta for b, d in zip(bases, dens) if d > 0.0]
        assert all(x >= y - 1e-12 for x, y in zip(after, after[1:]))
        assert after[-1] < 0.05

    def test_azimuth_is_linear(self):
        p = det.DetectorParams(1.0, 4.0, 1.1, 200.0)
        e_eff = meas.effective_precession(p)
        assert e_eff == pytest.approx(
            200.0 - (1.5 * math.sin(1.1)) ** 2 / 400.0, rel=1e-14
        )
        # the secular rate is the imaginary part of the generator's
        # eigenvalue split, to O(gamma^4 / E^3) (6e-7 here)
        lam = np.linalg.eigvals(det.generator(p))
        assert e_eff == pytest.approx(abs(lam[0].imag - lam[1].imag), abs=1e-7)
        grid = np.linspace(0.0, 2.0, 50)
        for t in grid:
            assert meas.case3_basis(p, float(t)).phi == pytest.approx(
                e_eff * t, rel=1e-12
            )

    def test_closed_form_matches_exact_decomposition(self):
        # accuracy of the slow-measurement forms improves like gamma_plus/E
        p_ref = det.DetectorParams(1.0, 4.0, 0.8, 0.0)
        for e_over_g in (20.0, 80.0, 320.0):
            p = det.DetectorParams(1.0, 4.0, 0.8, e_over_g * p_ref.gamma_plus)
            tol = 3.0 * p.gamma_plus / p.E
            for t in (0.1, 0.5, 1.0):
                b = meas.case3_basis(p, t)
                d = meas.decompose(det.u_s(p, t, 1e-3))
                exact_f = meas.outcome_fidelity(d)
                assert abs(exact_f - b.p_diff / b.p_sum) < tol
                v = d.psi1
                theta_exact = 2.0 * math.atan2(abs(v[1]), abs(v[0]))
                theta_exact = min(theta_exact, math.pi - theta_exact)
                assert abs(theta_exact - min(b.theta, math.pi - b.theta)) < tol

    def test_exact_azimuth_advance_attainable_form(self):
        # the exact basis azimuth follows the closed-form precession up to
        # an interference wiggle of amplitude ~2 gamma_minus / E, and its
        # secular rate carries a sin^2(beta) factor on the second-order
        # deficit
        p = det.DetectorParams(0.0, 1.0, math.pi / 4, 100.0)
        ts = np.linspace(0.0, 3.0, 2000)
        azs = np.unwrap(basis_azimuth(p, ts))
        e_eff = meas.effective_precession(p)
        assert np.abs(azs - azs[0] - e_eff * ts).max() < 3.0 * p.gamma_minus / p.E
        rate = np.polyfit(ts, azs, 1)[0]
        deficit_true = p.gamma_minus**2 * math.sin(p.beta) ** 2 / (2.0 * p.E)
        assert p.E - rate == pytest.approx(deficit_true, rel=0.2)

    def test_pulse_fidelity_reduces_to_aligned_case(self):
        p3 = det.DetectorParams(1.0, 4.0, 0.0, 100.0)
        p1 = det.DetectorParams(1.0, 4.0, 0.0, 100.0)
        for tau in (0.1, 0.5, 2.0):
            assert meas.case3_pulse_fidelity(p3, tau) == pytest.approx(
                meas.case1_pulse_fidelity(p1, tau), rel=1e-12
            )

    def test_pulse_fidelity_degeneracy_point(self):
        p = det.DetectorParams(1.0, 4.0, math.pi / 2, 100.0)
        for tau in (0.3, 1.0, 4.0):
            assert meas.case3_pulse_fidelity(p, tau) == 0.0

    def test_pulse_fidelity_one_sided_value(self):
        g_r = 3.0
        p = det.DetectorParams(0.0, g_r, math.pi / 3, 100.0)
        f = meas.case3_pulse_fidelity(p, 2.1972245773 / g_r)
        assert f == pytest.approx(0.3849002, abs=1e-6)

    def test_max_fidelity_one_sided(self):
        p = det.DetectorParams(0.0, 3.0, math.pi / 3, 100.0)
        tau_opt, f_max = meas.case3_max_fidelity(p)
        t = math.tan(math.pi / 6.0)
        sec = 1.0 / math.cos(math.pi / 3.0)
        assert f_max == pytest.approx(t ** (sec - 1.0) - t ** (sec + 1.0), rel=1e-12)
        assert tau_opt == pytest.approx(
            -math.log(t * t) / (3.0 * math.cos(math.pi / 3.0)), rel=1e-12
        )

    def test_max_fidelity_approaches_one(self):
        vals = []
        for beta in (0.4, 0.2, 0.1, 0.05):
            p = det.DetectorParams(0.0, 3.0, beta, 1000.0)
            vals.append(meas.case3_max_fidelity(p)[1])
        assert all(x < y for x, y in zip(vals, vals[1:]))
        assert vals[-1] > 0.9
        assert meas.case3_max_fidelity(det.DetectorParams(0.0, 3.0, 0.0, 1000.0))[1] == 1.0

    def test_max_fidelity_degeneracy_point(self):
        p = det.DetectorParams(0.0, 3.0, math.pi / 2, 100.0)
        tau_opt, f_max = meas.case3_max_fidelity(p)
        assert f_max == 0.0
        assert tau_opt == pytest.approx(1.0 / p.gamma_plus, rel=1e-12)

    def test_max_fidelity_flat_objective(self):
        with pytest.raises(FlatObjectiveError):
            meas.case3_max_fidelity(det.DetectorParams(2.0, 2.0, 0.3, 100.0))

    def test_max_is_stationary_and_matches_numeric(self):
        p = det.DetectorParams(1.0, 4.0, 0.9, 100.0)
        tau_opt, f_max = meas.case3_max_fidelity(p)
        h = 1e-6 * tau_opt
        deriv = (
            meas.case3_pulse_fidelity(p, tau_opt + h)
            - meas.case3_pulse_fidelity(p, tau_opt - h)
        ) / (2.0 * h)
        assert abs(deriv) < 1e-6
        tau_num, f_num = grid_then_golden_max(
            lambda t: meas.case3_pulse_fidelity(p, t), 0.0, 10.0 * tau_opt
        )
        # comparison-based search cannot localize a flat quadratic peak
        # better than sqrt(machine eps) in the abscissa
        assert tau_num == pytest.approx(tau_opt, abs=1e-6)
        assert f_num == pytest.approx(f_max, abs=1e-12)


class TestCase2Reduction:
    def test_fast_switching_matches_aligned_forms(self):
        # E << gamma_minus: the probe basis freezes and the aligned-probe
        # formulas apply with {|L>, |R>} in place of {|0>, |1>}
        gl, gr, beta = 1.0, 9.0, 0.8
        gm = 0.5 * (gr - gl)
        p = det.DetectorParams(gl, gr, beta, gm / 100.0)
        aligned = det.DetectorParams(gl, gr, 0.0, 0.0)
        basis = det.probe_basis(p)
        for t in (0.05, 0.2, 0.6):
            d = meas.decompose(det.u_s(p, t, 1e-3))
            angles = sorted(
                [
                    min(state_angle(d.psi1, basis.L), state_angle(d.psi1, basis.R)),
                    min(state_angle(d.psi2, basis.L), state_angle(d.psi2, basis.R)),
                ]
            )
            assert angles[-1] < 0.02
            assert meas.outcome_fidelity(d) == pytest.approx(
                meas.case1_switch_fidelity(aligned, t), abs=1e-3
            )
            dns = meas.decompose(det.u_ns(p, t))
            assert min(state_angle(dns.psi1, basis.L), state_angle(dns.psi1, basis.R)) < 0.02


class TestFidelityCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            meas.FidelityCurve(np.array([0.0, 0.0]), np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            meas.FidelityCurve(np.array([0.0, 1.0]), np.array([0.1, 1.5]))
        c = meas.FidelityCurve(np.array([0.0, 1.0]), np.array([0.1, 0.2]), "x")
        assert c.label == "x"

    def test_slow_regime_curve(self):
        betas = np.linspace(0.0, math.pi / 2, 25)
        c = meas.slow_regime_max_fidelity_curve(3.0, betas)
        assert c.fidelity[0] == pytest.approx(1.0)
        assert c.fidelity[-1] == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.diff(c.fidelity) < 1e-12)
