import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchsim import detector as det
from switchsim import measurement as meas
from switchsim import scurves as sc

from oracles import max_separation_search


class TestBareRates:
    def test_endpoints(self):
        gl, gr = sc.bare_rates(0.0)
        assert gl == pytest.approx(math.exp(-10.0), rel=1e-12)
        assert gr == pytest.approx(1.0, rel=1e-12)
        gl, gr = sc.bare_rates(2.0)
        assert gl == pytest.approx(1.0, rel=1e-12)
        assert gr == pytest.approx(math.exp(10.0), rel=1e-12)

    def test_constant_ratio(self):
        for x in np.linspace(-1, 3, 17):
            gl, gr = sc.bare_rates(float(x))
            assert gr / gl == pytest.approx(math.exp(10.0), rel=1e-9)


class TestSCurve:
    def test_no_mixing_collapses_all_kinds(self):
        for kind in sc.KINDS:
            spec = sc.SCurveSpec(kind, mixing_p=1.0)
            for pt in sc.scurve(spec):
                assert pt.p0 == pytest.approx(pt.pL, abs=1e-12)
                assert pt.p1 == pytest.approx(pt.pR, abs=1e-12)

    def test_symmetric_mixing_zero_separation(self):
        for kind in sc.KINDS:
            spec = sc.SCurveSpec(kind, mixing_p=0.5)
            for pt in sc.scurve(spec):
                assert pt.p0 == pytest.approx(pt.p1, abs=1e-12)

    def test_strong_rule_is_probability_average(self):
        spec = sc.SCurveSpec("strong", mixing_p=0.7)
        for pt in sc.scurve(spec):
            assert pt.p0 == pytest.approx(0.7 * pt.pL + 0.3 * pt.pR, abs=1e-14)
            assert pt.p1 == pytest.approx(0.3 * pt.pL + 0.7 * pt.pR, abs=1e-14)
        # in the saturated window pL ~ 0, pR ~ 1: p0 ~ 0.3, p1 ~ 0.7
        pt = next(pt for pt in sc.scurve(spec) if abs(pt.x - 1.0) < 1e-9)
        assert pt.p0 == pytest.approx(0.3, abs=0.01)
        assert pt.p1 == pytest.approx(0.7, abs=0.01)

    def test_probabilities_valid_and_ordered(self):
        for kind in sc.KINDS:
            for m in (0.0, 0.3, 0.7, 1.0):
                for pt in sc.scurve(sc.SCurveSpec(kind, mixing_p=m)):
                    for v in (pt.pL, pt.pR, pt.p0, pt.p1):
                        assert -1e-12 <= v <= 1.0 + 1e-12
                    assert pt.pR >= pt.pL - 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            sc.SCurveSpec("squid", mixing_p=0.5)
        with pytest.raises(ValueError):
            sc.SCurveSpec("strong", mixing_p=1.5)
        with pytest.raises(ValueError):
            sc.SCurveSpec("strong", x_range=(1.0, 0.0, 10))


class TestMaxSeparation:
    def test_strong_is_exactly_cos_beta_shaped(self):
        # separation factorizes: (2m-1) times the bare-curve gap, so the
        # beta dependence is exactly cos(beta)
        base = sc.max_separation("strong", mixing_p=1.0)
        for beta in (0.3, math.pi / 3, 1.2):
            m = math.cos(0.5 * beta) ** 2
            assert sc.max_separation("strong", m) == pytest.approx(
                base * math.cos(beta), abs=1e-12
            )

    def test_strong_approximates_cos_beta(self):
        for beta in (0.0, 0.5, math.pi / 3, 1.4):
            m = math.cos(0.5 * beta) ** 2
            assert sc.max_separation("strong", m) == pytest.approx(
                math.cos(beta), abs=1e-3
            )

    def test_weak_incoherent_matches_slow_regime_closed_form(self):
        # the rate-averaged construction realizes the one-sided slow-regime
        # fidelity law; at the default steepness the bare curves' finite
        # contrast e^{-10} limits agreement to ~5e-5, and the residual
        # shrinks with the contrast
        for beta in (0.4, math.pi / 3, 1.1):
            m = math.cos(0.5 * beta) ** 2
            p = det.DetectorParams(0.0, 1.0, beta, 0.0)
            _, f_closed = meas.case3_max_fidelity(p, override_regime=True)
            assert sc.max_separation("weak_incoherent", m) == pytest.approx(
                f_closed, abs=1e-3
            )
            assert sc.max_separation(
                "weak_incoherent", m, steepness=16.0, x_range=(-1.0, 3.0)
            ) == pytest.approx(f_closed, abs=1e-6)


    @settings(max_examples=300)
    @given(
        kind=st.sampled_from(sc.KINDS),
        mixing_p=st.floats(0.0, 1.0),
        steepness=st.floats(0.5, 20.0),
        pulse=st.floats(0.1, 10.0),
        lo=st.floats(-3.0, 3.0),
        width=st.floats(0.05, 4.0),
    )
    def test_closed_form_matches_search(self, kind, mixing_p, steepness, pulse, lo, width):
        # narrow ranges put most peaks at a range end; the search stops
        # 1e-10 inside an end, so it may fall short there by ~slope * 1e-10
        x_range = (lo, lo + width)
        closed = sc.max_separation(kind, mixing_p, steepness, pulse, x_range)
        search = max_separation_search(kind, mixing_p, steepness, pulse, x_range)
        assert search - 1e-15 <= closed <= search + 1e-9


_GOOD = dict(mixing_p=0.7, steepness=5.0, pulse=1.0, x_range=(-1.0, 3.0))
_BAD = [
    dict(mixing_p=1.5),
    dict(mixing_p=-0.1),
    dict(mixing_p=math.nan),
    dict(steepness=math.nan),
    dict(steepness=-1.0),
    dict(steepness=math.inf),
    dict(pulse=-1.0),
    dict(pulse=0.0),
    dict(pulse=math.inf),
    dict(x_range=(1.0, 0.0)),
    dict(x_range=(1.0, 1.0)),
    dict(x_range=(0.0, math.inf)),
    dict(x_range=(math.nan, 1.0)),
]


class TestInputChecks:
    @pytest.mark.parametrize("bad", _BAD)
    def test_rejected_everywhere(self, bad):
        args = {**_GOOD, **bad}
        with pytest.raises(ValueError):
            sc.max_separation("strong", **args)
        lo, hi = args["x_range"]
        with pytest.raises(ValueError):
            sc.SCurveSpec(
                "strong", args["mixing_p"], (lo, hi, 11), args["steepness"], args["pulse"]
            )
        if "mixing_p" not in bad:
            del args["mixing_p"]
            with pytest.raises(ValueError):
                sc.max_fidelity_vs_beta("strong", [0.0, 0.5], **args)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            sc.max_separation("squid", 0.7)
        with pytest.raises(ValueError):
            sc.max_fidelity_vs_beta("squid", [0.0, 0.5])


class TestMaxFidelityVsBeta:
    def test_all_kinds_coincide_at_zero(self):
        betas = np.array([0.0, 0.2])
        curves = {k: sc.max_fidelity_vs_beta(k, betas) for k in sc.KINDS}
        vals = [c.fidelity[0] for c in curves.values()]
        assert max(vals) - min(vals) < 1e-12

    def test_coherent_dominates_incoherent(self):
        betas = np.linspace(0.01, math.pi / 2 - 0.01, 100)
        f_inc = sc.max_fidelity_vs_beta("weak_incoherent", betas).fidelity
        f_coh = sc.max_fidelity_vs_beta("weak_coherent", betas).fidelity
        assert np.all(f_coh >= f_inc - 1e-12)

    def test_coherent_improves_with_steepness(self):
        beta = np.array([math.pi / 3])
        f5 = sc.max_fidelity_vs_beta("weak_coherent", beta, steepness=5.0).fidelity[0]
        f10 = sc.max_fidelity_vs_beta("weak_coherent", beta, steepness=10.0).fidelity[0]
        assert f10 > f5
        f20 = sc.max_fidelity_vs_beta("weak_coherent", beta, steepness=20.0).fidelity[0]
        assert f20 > 0.999

    def test_degeneracy_point_all_zero(self):
        betas = np.array([math.pi / 2 - 1e-9, math.pi / 2])
        for kind in sc.KINDS:
            f = sc.max_fidelity_vs_beta(kind, betas).fidelity
            assert f[-1] < 1e-9


class TestCsv:
    def test_scurve_csv(self, tmp_path):
        points = sc.scurve(sc.SCurveSpec("strong", mixing_p=0.7, x_range=(-1, 3, 5)))
        path = tmp_path / "s.csv"
        sc.write_scurve_csv(points, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,pL,pR,p0,p1"
        assert len(lines) == 6
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == pytest.approx(-1.0)

    def test_fidelity_csv(self, tmp_path):
        curve = sc.max_fidelity_vs_beta("strong", np.linspace(0, 1.5, 4))
        path = tmp_path / "f.csv"
        sc.write_fidelity_csv(curve, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "beta,fidelity"
        assert len(lines) == 5
