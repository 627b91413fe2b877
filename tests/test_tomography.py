import dataclasses
import math

import numpy as np
import pytest

from switchsim import detector as det
from switchsim import mat2 as m2
from switchsim import tomography as tomo
from switchsim import trajectory as traj
from switchsim.errors import (
    InsufficientDataError,
    NoConvergenceError,
    NotIdentifiableError,
    UnphysicalBlochError,
)
from switchsim.tolerances import FIT_GRADIENT_TOL

from oracles import joint_free_fit, model_density_slow_form, multistart_state_fit

IDENTIFIABLE = det.DetectorParams(1.0, 5.0, math.pi / 4, 60.0)  # E = 20 gamma_plus

# (gamma_L, gamma_R, beta, E) of the benchmark configurations C1-C4
CONFIGS = (
    (1.0, 5.0, math.pi / 4, 60.0),
    (0.0, 10.0, math.pi / 3, 200.0),
    (2.0, 8.0, 1.0, 20.0),
    (1.0, 4.0, 0.6, 120.0),
)
# a state per configuration, inside the ball
CONFIG_STATES = ((0.3, -0.4, 0.5), (-0.5, 0.2, 0.4), (0.1, 0.6, -0.3), (-0.2, -0.5, -0.5))


def cell_rows(p, edges):
    """The free fit's cell rows at one parameter point: the survival
    differences of rho = I/2 and of the three traceless Bloch directions."""
    return tomo._cells(det._TraceForms(p, tomo._CELL_STATES, [m2.IDENTITY])(edges))


def synthesize(p, bloch, n_traj, seed, tau=1.2, n_bins=150):
    cfg = traj.SimConfig(n_traj=n_traj, tau=tau, seed=seed, n_bins=n_bins)
    return traj.run_ensemble(p, bloch.to_density(), cfg)


def multinomial_histogram(p, bloch, seed):
    """1e6 counts drawn from the model's cell probabilities over 150 bins
    up to 3.6 / gamma_plus, as the benchmark's tomography batch draws them."""
    edges = np.linspace(0.0, 3.6 / p.gamma_plus, 151)
    empty = traj.Histogram(edges, np.zeros(150, dtype=np.int64), 0, 0)
    probs = traj.expected_cell_probabilities(empty, p, bloch.to_density())
    cells = np.random.default_rng(seed).multinomial(1_000_000, probs / probs.sum())
    return traj.Histogram(edges, cells[:-1], int(cells[-1]), 1_000_000)


class TestBlochComponents:
    def test_round_trip(self):
        b = tomo.BlochComponents(0.3, -0.4, 0.5)
        back = tomo.BlochComponents.from_density(b.to_density())
        assert back.x == pytest.approx(b.x, abs=1e-14)
        assert back.y == pytest.approx(b.y, abs=1e-14)
        assert back.z == pytest.approx(b.z, abs=1e-14)

    def test_unphysical_rejected(self):
        with pytest.raises(UnphysicalBlochError):
            tomo.BlochComponents(0.9, 0.9, 0.9)

    def test_density_valid(self):
        from switchsim.mat2 import check_density_matrix

        check_density_matrix(tomo.BlochComponents(0.6, 0.0, -0.8).to_density())


class TestModelDensity:
    def test_matches_detector_route(self):
        b = tomo.BlochComponents(0.3, -0.2, 0.4)
        rho = b.to_density()
        for t in (0.0, 0.3, 1.1):
            assert tomo.model_density(IDENTIFIABLE, b, t) == pytest.approx(
                det.switch_density(IDENTIFIABLE, rho, t), abs=1e-9
            )

    def test_aligned_probe_ignores_coherences(self):
        p = det.DetectorParams(1.0, 5.0, 0.0, 4.0)
        for t in (0.1, 0.7):
            with_coh = tomo.model_density(p, tomo.BlochComponents(0.6, 0.3, 0.4), t)
            without = tomo.model_density(p, tomo.BlochComponents(0.0, 0.0, 0.4), t)
            assert with_coh == pytest.approx(without, abs=1e-13)

    def test_equal_rates_pure_exponential(self):
        p = det.DetectorParams(2.0, 2.0, 0.8, 4.0)
        for b in (tomo.BlochComponents(0, 0, 0), tomo.BlochComponents(0.5, 0.1, -0.6)):
            for t in (0.0, 0.4, 1.5):
                assert tomo.model_density(p, b, t) == pytest.approx(
                    2.0 * math.exp(-2.0 * t), rel=1e-12
                )

    def test_slow_form_coefficient_pinned_by_exact_route(self):
        # closed-form coherence terms carry gamma_minus (not gamma_minus/4):
        # the discrepancy against the exact density must shrink like 1/E
        b = tomo.BlochComponents(0.5, -0.3, 0.4)
        for e_val, tol in ((200.0, 2e-2), (2000.0, 2e-3)):
            p = det.DetectorParams(1.0, 4.0, 0.9, e_val)
            for t in (0.05, 0.3, 0.8):
                exact = tomo.model_density(p, b, t)
                closed = model_density_slow_form(p, b, t)
                assert abs(closed - exact) < tol

    def test_maximally_mixed_has_no_oscillation(self):
        p = det.DetectorParams(1.0, 4.0, 0.9, 300.0)
        b0 = tomo.BlochComponents(0.0, 0.0, 0.0)
        grid = np.linspace(0.0, 1.0, 400)
        vals = np.array([tomo.model_density(p, b0, float(t)) for t in grid])
        smooth = np.array(
            [model_density_slow_form(p, b0, float(t)) for t in grid]
        )
        # the closed form at b=0 is oscillation-free; the exact density can
        # deviate from it only at the regime-correction scale
        assert np.max(np.abs(vals - smooth)) < 3.0 * p.gamma_plus / p.E


class TestIdentifiability:
    def test_aligned_probe_flags_coherences(self):
        p = det.DetectorParams(1.0, 4.0, 0.0, 30.0)
        report = tomo.identifiability(p)
        assert report.flagged
        flagged_names = set(sum(report.degenerate_directions, ()))
        assert flagged_names == {"x", "y"}

    def test_orthogonal_probe_flags_z(self):
        p = det.DetectorParams(1.0, 4.0, math.pi / 2, 30.0)
        report = tomo.identifiability(p)
        assert report.flagged
        assert ("z",) in report.degenerate_directions

    def test_fast_switching_flags_coherence_directions(self):
        p = det.DetectorParams(40.0, 160.0, math.pi / 4, 1.0)  # gamma_plus = 100 E
        report = tomo.identifiability(p)
        assert report.flagged
        assert len(report.degenerate_directions) >= 2

    def test_identifiable_regime_full_rank(self):
        report = tomo.identifiability(IDENTIFIABLE)
        assert not report.flagged
        assert report.singular_values[-1] > 0.01 * report.singular_values[0]

    def test_info_matrix_psd(self):
        report = tomo.identifiability(IDENTIFIABLE, free=("x", "y", "z", "E"))
        evals = np.linalg.eigvalsh(report.info)
        assert np.all(evals > -1e-10 * max(abs(evals)))

    def test_restricted_mask(self):
        p = det.DetectorParams(1.0, 4.0, 0.0, 30.0)
        report = tomo.identifiability(p, free=("z",))
        assert not report.flagged


class TestFit:
    def test_round_trip_fixed_params(self):
        truth = tomo.BlochComponents(0.3, -0.4, 0.5)
        h = synthesize(IDENTIFIABLE, truth, 200000, seed=8)
        result = tomo.fit(h, fixed=IDENTIFIABLE)
        sigmas = np.sqrt(np.diag(result.covariance))
        for i, (name, true_val) in enumerate(
            zip(("x", "y", "z"), (truth.x, truth.y, truth.z))
        ):
            fitted = getattr(result.bloch, name)
            assert abs(fitted - true_val) < 0.03, name
            assert abs(fitted - true_val) < 3.0 * sigmas[i] + 1e-9, name
        assert result.converged

    def test_deviance_scale_at_truth(self):
        truth = tomo.BlochComponents(0.2, 0.1, -0.3)
        h = synthesize(IDENTIFIABLE, truth, 100000, seed=21)
        observed = np.append(h.counts, h.no_switch_count).astype(float)
        probs = traj.expected_cell_probabilities(h, IDENTIFIABLE, truth.to_density())
        dev = float(np.sum(tomo._deviance_residuals(observed, probs * h.total) ** 2))
        dof = len(observed) - 1
        assert abs(dev - dof) < 4.0 * math.sqrt(2.0 * dof)

    def test_deterministic(self):
        truth = tomo.BlochComponents(0.3, -0.4, 0.5)
        h = synthesize(IDENTIFIABLE, truth, 50000, seed=9)
        r1 = tomo.fit(h, fixed=IDENTIFIABLE, seed=3)
        r2 = tomo.fit(h, fixed=IDENTIFIABLE, seed=3)
        assert r1.bloch == r2.bloch
        np.testing.assert_array_equal(r1.covariance, r2.covariance)
        assert r1.chi2 == r2.chi2

    def test_aligned_probe_not_identifiable(self):
        p = det.DetectorParams(1.0, 5.0, 0.0, 60.0)
        h = synthesize(p, tomo.BlochComponents(0.3, -0.4, 0.5), 20000, seed=10)
        with pytest.raises(NotIdentifiableError):
            tomo.fit(h, fixed=p)

    def test_aligned_probe_z_only_is_fine(self):
        p = det.DetectorParams(1.0, 5.0, 0.0, 60.0)
        truth = tomo.BlochComponents(0.0, 0.0, 0.5)
        h = synthesize(p, truth, 100000, seed=11)
        result = tomo.fit(h, fixed=p, free_bloch=("z",))
        assert abs(result.bloch.z - truth.z) < 0.03

    def test_all_params_free_refused_gauge_freedom(self):
        # only gamma_minus*cos(beta) and gamma_minus*sin(beta)*|coherence|
        # are observable, so freeing both rates, the angle and the
        # coherences leaves an exact null direction
        truth = tomo.BlochComponents(0.3, -0.4, 0.5)
        h = synthesize(IDENTIFIABLE, truth, 100000, seed=55)
        bounds = {
            "gamma_L": (0.3, 2.5),
            "gamma_R": (3.0, 8.0),
            "beta": (0.4, 1.3),
            "E": (55.0, 65.0),
        }
        with pytest.raises(NotIdentifiableError):
            tomo.fit(h, fixed=None, bounds=bounds, seed=11, n_starts=16)

    def test_all_in_one_with_pinned_rate(self):
        # pinning gamma_L breaks the gauge: state and remaining detector
        # parameters are recovered together from one histogram
        truth = tomo.BlochComponents(0.3, -0.4, 0.5)
        h = synthesize(IDENTIFIABLE, truth, 300000, seed=55)
        bounds = {
            "gamma_R": (3.0, 8.0),
            "beta": (0.4, 1.3),
            "E": (55.0, 65.0),
        }
        result = tomo.fit(
            h,
            fixed=IDENTIFIABLE,
            free_params=("gamma_R", "beta", "E"),
            bounds=bounds,
            seed=11,
            n_starts=16,
        )
        assert result.converged
        sigmas = dict(zip(result.free_names, np.sqrt(np.diag(result.covariance))))
        recovered = {
            "x": (result.bloch.x, truth.x),
            "y": (result.bloch.y, truth.y),
            "z": (result.bloch.z, truth.z),
            "gamma_R": (result.params.gamma_R, IDENTIFIABLE.gamma_R),
            "beta": (result.params.beta, IDENTIFIABLE.beta),
            "E": (result.params.E, IDENTIFIABLE.E),
        }
        for name, (fitted, true_val) in recovered.items():
            assert abs(fitted - true_val) < 4.0 * sigmas[name] + 1e-9, name
        assert abs(result.params.E - IDENTIFIABLE.E) < 0.2
        assert abs(result.params.beta - IDENTIFIABLE.beta) < 0.05

    def test_n_starts_honoured(self, monkeypatch):
        h = synthesize(IDENTIFIABLE, tomo.BlochComponents(0.3, -0.4, 0.5), 20000, seed=13)
        real, calls = tomo.least_squares, []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(tomo, "least_squares", counting)
        tomo.fit(h, fixed=IDENTIFIABLE, free_params=("E",), bounds={"E": (55.0, 65.0)}, n_starts=3)
        assert len(calls) == 3
        with pytest.raises(ValueError):
            tomo.fit(h, fixed=IDENTIFIABLE, n_starts=0)
        # with the detector parameters fixed the state is one convex solve
        calls.clear()
        tomo.fit(h, fixed=IDENTIFIABLE, n_starts=3)
        assert calls == []

    def test_insufficient_data(self):
        h = synthesize(IDENTIFIABLE, tomo.BlochComponents(0, 0, 0), 500, seed=12)
        with pytest.raises(InsufficientDataError):
            tomo.fit(h, fixed=IDENTIFIABLE)

    def test_result_json_shape(self):
        truth = tomo.BlochComponents(0.3, -0.4, 0.5)
        h = synthesize(IDENTIFIABLE, truth, 20000, seed=13)
        result = tomo.fit(h, fixed=IDENTIFIABLE)
        d = result.to_json_dict()
        assert set(d) >= {"bloch", "params", "covariance", "chi2", "dof", "converged"}
        assert set(d["bloch"]) == {"x", "y", "z"}
        assert set(d["params"]) == {"gamma_L", "gamma_R", "beta", "E"}
        assert len(d["covariance"]) == 9

    def test_covariance_psd(self):
        truth = tomo.BlochComponents(0.1, 0.2, 0.3)
        h = synthesize(IDENTIFIABLE, truth, 30000, seed=14)
        result = tomo.fit(h, fixed=IDENTIFIABLE)
        evals = np.linalg.eigvalsh(result.covariance)
        assert np.all(evals > -1e-10)


class TestStateFit:
    @pytest.mark.parametrize(
        "params",
        CONFIGS + ((0.0, 4.0, math.pi / 2, 2.0), (0.0, 0.0, 0.3, 1.0)),  # exceptional point, no switching
    )
    def test_cell_rows_match_survival_function(self, params):
        p = det.DetectorParams(*params)
        edges = np.linspace(0.0, 3.0, 41)
        rows = cell_rows(p, edges)
        for row, rho in zip(rows, (tomo._MIXED, *tomo._BLOCH_BASIS.values())):
            surv = det.survival_function(p, rho)(edges)
            np.testing.assert_allclose(row, np.append(-np.diff(surv), surv[-1]), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("k", range(len(CONFIGS)))
    def test_cell_slopes_match_differences(self, k):
        """The free fit's parameter columns, the slopes of the cell
        probabilities at fixed b*, agree with central differences of the
        cell rows (every parameter not at 0, where a central difference
        would leave the admissible box)."""
        p = det.DetectorParams(*CONFIGS[k])
        h = multinomial_histogram(p, tomo.BlochComponents(*CONFIG_STATES[k]), seed=k)
        names = tuple(name for name in tomo.PARAM_NAMES if getattr(p, name) > 0.0)
        theta = np.array([getattr(p, name) for name in names])

        def params_at(theta):
            return dataclasses.replace(p, **dict(zip(names, map(float, theta))))

        profile = tomo._Profile(h, tomo._StateSolver(h, tomo.BLOCH_NAMES), params_at, names)
        columns = profile.at(theta).columns()
        weights = np.append(1.0, profile.b)
        for j, value in enumerate(theta):
            step = 1e-6 * max(1.0, abs(value))
            up, down = theta.copy(), theta.copy()
            up[j] += step
            down[j] -= step
            rows = [cell_rows(params_at(x), h.bin_edges) for x in (up, down)]
            diff = weights @ (rows[0] - rows[1]) / (2.0 * step)
            np.testing.assert_allclose(columns[:, j], diff, rtol=0, atol=1e-7 * np.abs(diff).max())

    @pytest.mark.parametrize("k", range(len(CONFIGS)))
    def test_matches_multistart_reference(self, k):
        p = det.DetectorParams(*CONFIGS[k])
        h = multinomial_histogram(p, tomo.BlochComponents(*CONFIG_STATES[k]), seed=k)
        result = tomo.fit(h, fixed=p)
        b_ref, cov_ref = multistart_state_fit(h, p)
        b = np.array([result.bloch.x, result.bloch.y, result.bloch.z])
        assert result.converged
        assert np.linalg.norm(b_ref) < 0.99
        assert np.max(np.abs(b - b_ref)) <= 1e-6
        np.testing.assert_allclose(
            np.sqrt(np.diag(result.covariance)), np.sqrt(np.diag(cov_ref)), rtol=1e-3
        )

    def test_pure_states_meet_ball_kkt(self):
        """On the sphere the fit satisfies grad D/2 = -lam b with lam >= 0;
        inside, grad D/2 = 0.  The gradient is built here from cell
        probabilities at physical states, which are affine in b."""
        rng = np.random.default_rng(2024)
        on_sphere = 0
        for i in range(20):
            v = rng.standard_normal(3)
            truth = tomo.BlochComponents(*(v / np.linalg.norm(v)))
            h = synthesize(IDENTIFIABLE, truth, 200000, seed=100 + i)
            result = tomo.fit(h, fixed=IDENTIFIABLE)
            b = np.array([result.bloch.x, result.bloch.y, result.bloch.z])
            assert np.linalg.norm(b) <= 1.0 + 1e-12

            def cells(*bloch):
                rho = tomo.BlochComponents(*bloch).to_density()
                return traj.expected_cell_probabilities(h, IDENTIFIABLE, rho)

            a0 = cells(0.0, 0.0, 0.0)
            design = np.array([cells(*(0.5 * e)) - cells(*(-0.5 * e)) for e in np.eye(3)]).T
            observed = np.append(h.counts, h.no_switch_count)
            grad = h.total * design.T @ (1.0 - observed / (h.total * (a0 + design @ b)))
            lam = 0.0
            if np.linalg.norm(b) > 1.0 - 1e-9:
                on_sphere += 1
                lam = -(grad @ b) / (b @ b)
            kkt = lam >= 0.0 and np.max(np.abs(grad + lam * b)) < FIT_GRADIENT_TOL * h.total
            assert result.converged == kkt, i
            assert kkt, i
        assert on_sphere >= 1


class TestFreeFit:
    @pytest.mark.parametrize("k", range(len(CONFIGS)))
    def test_matches_joint_reference(self, k):
        """The profiled search over (gamma_R, beta, E) reaches the optimum
        of the joint fit over state and parameters, and its Fisher
        covariance matches the joint fit's Gauss-Newton one."""
        p = det.DetectorParams(*CONFIGS[k])
        h = multinomial_histogram(p, tomo.BlochComponents(*CONFIG_STATES[k]), seed=10 + k)
        free_params = ("gamma_R", "beta", "E")
        # the benchmark's box: scaled like the README's all-in-one example
        bounds = {
            "gamma_R": (0.6 * p.gamma_R, 1.6 * p.gamma_R),
            "beta": (max(p.beta - 0.385, 0.0), min(p.beta + 0.515, math.pi)),
            "E": (p.E * 11.0 / 12.0, p.E * 13.0 / 12.0),
        }
        result = tomo.fit(h, fixed=p, free_params=free_params, bounds=bounds, n_starts=4)
        b_ref, theta_ref, cov_ref, dev_ref = joint_free_fit(h, p, free_params, bounds, n_starts=4)
        b = np.array([result.bloch.x, result.bloch.y, result.bloch.z])
        theta = np.array([getattr(result.params, name) for name in free_params])
        assert result.converged
        assert result.free_names == tomo.BLOCH_NAMES + free_params
        assert abs(result.chi2 - dev_ref) <= 1e-8 * dev_ref
        assert np.max(np.abs(b - b_ref)) <= 1e-6
        np.testing.assert_allclose(theta, theta_ref, rtol=1e-5)
        np.testing.assert_allclose(
            np.sqrt(np.diag(result.covariance)), np.sqrt(np.diag(cov_ref)), rtol=0.02
        )

    def test_failed_starts_recorded(self, monkeypatch):
        h = synthesize(IDENTIFIABLE, tomo.BlochComponents(0.3, -0.4, 0.5), 20000, seed=13)
        options = dict(fixed=IDENTIFIABLE, free_params=("E",), bounds={"E": (55.0, 65.0)}, n_starts=3)
        real, calls = tomo.least_squares, []

        def second_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise ValueError("residuals are not finite")
            return real(*args, **kwargs)

        monkeypatch.setattr(tomo, "least_squares", second_fails)
        assert tomo.fit(h, **options).converged
        assert len(calls) == 3

        def all_fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(tomo, "least_squares", all_fail)
        with pytest.raises(NoConvergenceError) as err:
            tomo.fit(h, **options)
        for idx in range(3):
            assert f"start {idx}: LinAlgError: SVD did not converge" in str(err.value)

        def bug(*args, **kwargs):
            raise TypeError("not a fit failure")

        monkeypatch.setattr(tomo, "least_squares", bug)
        with pytest.raises(TypeError):
            tomo.fit(h, **options)
