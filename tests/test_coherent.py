import math

import numpy as np
import pytest

from switchsim import coherent as coh


def make_params(beta, g_L=0.0, g_R=1.0, eps_L=0.0, eps_R=0.0, rate_scale=1.0, cap=0.0):
    return coh.CoherentDetectorParams(
        g_L=g_L, g_R=g_R, eps_L=eps_L, eps_R=eps_R,
        beta=beta, rate_scale=rate_scale, gamma1_cap=cap,
    )


class TestEffectiveCouplings:
    def test_no_mixing(self):
        p = make_params(0.0, g_L=0.3, g_R=1.2, eps_L=-0.5, eps_R=2.0)
        e = coh.effective_couplings(p)
        assert e == pytest.approx((0.3, 1.2, -0.5, 2.0))

    def test_equal_weights(self):
        p = make_params(math.pi / 2, g_L=0.3, g_R=1.2, eps_L=-0.5, eps_R=2.0)
        e = coh.effective_couplings(p)
        assert e.g_0 == pytest.approx(0.75)
        assert e.g_1 == pytest.approx(0.75)
        assert e.eps_0 == pytest.approx(0.75)
        assert e.eps_1 == pytest.approx(0.75)

    def test_third_pi(self):
        p = make_params(math.pi / 3, g_L=0.0, g_R=1.0)
        e = coh.effective_couplings(p)
        assert e.g_0 == pytest.approx(0.25, abs=1e-12)
        assert e.g_1 == pytest.approx(0.75, abs=1e-12)


class TestDominantCouplingRates:
    def test_aligned(self):
        r = coh.rates_dominant_coupling(make_params(0.0))
        assert r.gamma_0 == 0.0
        assert r.gamma_1 == pytest.approx(1.0)

    def test_degeneracy_point(self):
        r = coh.rates_dominant_coupling(make_params(math.pi / 2))
        assert r.gamma_0 == pytest.approx(0.25)
        assert r.gamma_1 == pytest.approx(0.25)
        assert coh.coherent_fidelity(r) == 0.0

    def test_third_pi(self):
        r = coh.rates_dominant_coupling(make_params(math.pi / 3))
        assert r.gamma_0 == pytest.approx(1.0 / 16.0, abs=1e-12)
        assert r.gamma_1 == pytest.approx(9.0 / 16.0, abs=1e-12)

    def test_rate_sum_identity(self):
        # gamma_0 + gamma_1 = scale * (1 - sin^2(beta)/2), equality with the
        # scale only at beta in {0, pi/2, pi}
        for beta in np.linspace(0.0, math.pi, 40):
            r = coh.rates_dominant_coupling(make_params(float(beta)))
            expected = 1.0 - 0.5 * math.sin(beta) ** 2
            assert r.gamma_0 + r.gamma_1 == pytest.approx(expected, abs=1e-12)
            assert r.gamma_0 + r.gamma_1 <= 1.0 + 1e-12


class TestLargeBiasRates:
    def test_degeneracy_point(self):
        r = coh.rates_large_bias(make_params(math.pi / 2))
        assert r.gamma_0 == pytest.approx(2.0)
        assert r.gamma_1 == pytest.approx(2.0)
        assert coh.coherent_fidelity(r) == 0.0

    def test_third_pi(self):
        r = coh.rates_large_bias(make_params(math.pi / 3))
        assert r.gamma_0 == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert r.gamma_1 == pytest.approx(4.0, abs=1e-12)

    def test_cap_engages_near_zero(self):
        r = coh.rates_large_bias(make_params(0.001))
        assert r.gamma_1 == pytest.approx(100.0)  # default cap = 100 * scale
        r2 = coh.rates_large_bias(make_params(0.001, cap=7.0))
        assert r2.gamma_1 == pytest.approx(7.0)

    def test_continuous_and_capped_in_beta(self):
        betas = np.linspace(0.001, math.pi, 2000)
        vals = [coh.rates_large_bias(make_params(float(b))) for b in betas]
        g0 = np.array([v.gamma_0 for v in vals])
        g1 = np.array([v.gamma_1 for v in vals])
        assert np.all(np.isfinite(g0)) and np.all(np.isfinite(g1))
        assert np.all(g0 <= 100.0 + 1e-12) and np.all(g1 <= 100.0 + 1e-12)
        # away from the capped divergences both branches vary smoothly
        mid = (betas > 0.5) & (betas < 2.6)
        assert np.all(np.abs(np.diff(g0[mid])) < 0.1)
        assert np.all(np.abs(np.diff(g1[mid])) < 0.2)


class TestCoherentFidelity:
    def test_aligned_perfect(self):
        assert coh.coherent_fidelity(coh.rates_dominant_coupling(make_params(0.0))) == 1.0

    def test_third_pi_dominant(self):
        f = coh.coherent_fidelity(coh.rates_dominant_coupling(make_params(math.pi / 3)))
        expected = 9.0 ** (-1.0 / 8.0) - 9.0 ** (-9.0 / 8.0)
        assert f == pytest.approx(expected, rel=1e-12)
        assert f == pytest.approx(0.6754, abs=1e-4)

    def test_monotone_decreasing_on_first_quadrant(self):
        betas = np.linspace(0.0, math.pi / 2, 1000)
        # dominant coupling reaches unit fidelity at beta = 0; the large-bias
        # law is limited there by the divergence cap (rate ratio cap/scale)
        for law, f0 in (
            (coh.rates_dominant_coupling, 1.0),
            (coh.rates_large_bias, 100.0 ** (-1.0 / 99.0) - 100.0 ** (-100.0 / 99.0)),
        ):
            fids = np.array(
                [coh.coherent_fidelity(law(make_params(float(b)))) for b in betas]
            )
            assert fids[0] == pytest.approx(f0, rel=1e-12)
            assert fids[-1] == pytest.approx(0.0, abs=1e-12)
            assert np.all(np.diff(fids) <= 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_params(-0.1)
        with pytest.raises(ValueError):
            coh.CoherentDetectorParams(0, 1, 0, 0, 0.5, rate_scale=-1.0)
        # NaN fails every comparison, so only "not x > 0" rejects it
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                coh.CoherentDetectorParams(0, 1, 0, 0, 0.5, rate_scale=bad)
            with pytest.raises(ValueError):
                coh.CoherentDetectorParams(0, 1, 0, 0, 0.5, rate_scale=1.0, gamma1_cap=bad)
