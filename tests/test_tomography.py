import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from switchsim import detector as det
from switchsim import mat2 as m2
from switchsim import tomography as tomo
from switchsim import trajectory as traj
from switchsim.errors import (
    InsufficientDataError,
    NoConvergenceError,
    NotIdentifiableError,
    SwitchSimError,
    UnphysicalBlochError,
)
from switchsim.tolerances import (
    FIT_GRADIENT_TOL,
    FIT_PLAUSIBLE_SIGMAS,
    FIT_POLISH_CAP,
    FIT_SCAN_POINTS,
    FIT_START_TIE_TOL,
    RANK_DEFICIENCY_TOL,
)

from oracles import (
    continuous_information,
    joint_free_fit,
    model_density_slow_form,
    multistart_free_fit,
    multistart_state_fit,
)

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


def noise_free_histogram(p, bloch, edges):
    """The expected counts of each cell at a total of 1e6, rounded."""
    empty = traj.Histogram(edges, np.zeros(len(edges) - 1, dtype=np.int64), 0, 0)
    cells = np.rint(traj.expected_cell_probabilities(empty, p, bloch.to_density()) * 1e6).astype(np.int64)
    return traj.Histogram(edges, cells[:-1], int(cells[-1]), int(cells.sum()))


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

    @pytest.mark.parametrize(
        "params, free",
        [
            # the configurations above, then criterion 08's
            ((1.0, 4.0, 0.0, 30.0), ("x", "y", "z")),
            ((1.0, 4.0, math.pi / 2, 30.0), ("x", "y", "z")),
            ((40.0, 160.0, math.pi / 4, 1.0), ("x", "y", "z")),
            ((1.0, 5.0, math.pi / 4, 60.0), ("x", "y", "z")),
            ((1.0, 5.0, math.pi / 4, 60.0), ("x", "y", "z", "E")),
            ((1.0, 4.0, 0.0, 30.0), ("z",)),
            ((1.0, 5.0, 0.0, 60.0), ("x", "y", "z")),
            ((1.0, 5.0, math.pi / 2, 60.0), ("x", "y", "z")),
        ],
    )
    def test_cells_match_continuous_information(self, params, free):
        """The survival cells' information flags the same directions as the
        switching times' continuous information (continuous_information),
        and each eigenvalue ratio to the largest above rounding (1e-12)
        agrees within 5%.  The cells average the density over a sixteenth
        of a precession period or less, which takes ~1% off the coherence
        directions: the ratios differ by at most 3.1%, with E free at C1
        (2.76e-4 against 2.85e-4)."""
        p = det.DetectorParams(*params)
        report = tomo.identifiability(p, free=free)
        ref = continuous_information(p, free)
        svals, degenerate = tomo._degenerate_directions(*np.linalg.eigh(ref), free, report.rel_threshold)
        assert report.degenerate_directions == degenerate
        ratios, got = svals / svals[0], report.singular_values / report.singular_values[0]
        seen = ratios > 1e-12
        np.testing.assert_allclose(got[seen], ratios[seen], rtol=0.05)


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

    @pytest.mark.parametrize("free_params", [(), ("E",)])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_philox_key_rejected(self, free_params, seed):
        h = synthesize(IDENTIFIABLE, tomo.BlochComponents(0.3, -0.4, 0.5), 5000, seed=9)
        with pytest.raises(ValueError, match="seed"):
            tomo.fit(h, fixed=IDENTIFIABLE, free_params=free_params, seed=seed)

    @pytest.mark.parametrize(
        "name, box",
        [("beta", (math.nan, 1.0)), ("beta", (-1.0, 1.0)), ("beta", (0.5, 4.0)),
         ("E", (55.0, math.inf)), ("gamma_L", (-0.5, 2.0))],
    )
    def test_bounds_outside_domain_rejected(self, name, box):
        """A free parameter's bound that is not finite or leaves the domain
        of DetectorParams is refused before any start runs, as a start
        there could not build its parameters; boxes reaching 0 or pi, and
        a fixed parameter's bounds, pass."""
        h = synthesize(IDENTIFIABLE, tomo.BlochComponents(0.3, -0.4, 0.5), 5000, seed=9)
        with pytest.raises(ValueError, match=f"bounds of {name} must be finite"):
            tomo.fit(h, fixed=IDENTIFIABLE, free_params=(name,), bounds={name: box})
        tomo.search_box({name: box}, free_params=("E" if name == "beta" else "beta",))
        tomo.search_box({"beta": (0.0, math.pi), "gamma_L": (0.0, 1.0)}, free_params=("beta", "gamma_L"))

    def test_repeated_state_fit_identical(self, monkeypatch):
        """A fit, state-only or with a detector parameter free, takes its
        identifiability verdict from the cells it fits, never from the
        continuous-time report, and a fit repeated on one histogram is
        bit-identical."""
        h = synthesize(IDENTIFIABLE, tomo.BlochComponents(0.3, -0.4, 0.5), 50000, seed=9)
        real, calls = tomo.identifiability, []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(tomo, "identifiability", counting)
        for free_params in ((), ("E",)):
            kwargs = dict(fixed=IDENTIFIABLE, free_params=free_params, bounds={"E": (55.0, 65.0)}, n_starts=2)
            first, second = (tomo.fit(h, **kwargs) for _ in range(2))
            assert first.to_json_dict() == second.to_json_dict()
            np.testing.assert_array_equal(first.covariance, second.covariance)
        assert calls == []
        # the public report is not cached: no array is shared between calls
        assert real(IDENTIFIABLE).info is not real(IDENTIFIABLE).info

    def test_cell_model_cache_bit_identical(self):
        """A state-only fit takes its cell rows from a cache kept per (fixed
        parameters, bin edges): fits at p, at p with E moved, and at p with
        one edge moved by an ulp are three entries, and each fit, and a
        repeat at p from the cache, equals the same fit with the cache
        cleared.  The cached rows are read-only."""
        h = synthesize(IDENTIFIABLE, tomo.BlochComponents(0.3, -0.4, 0.5), 50000, seed=9)
        edges = h.bin_edges.copy()
        edges[5] = np.nextafter(edges[5], math.inf)
        moved = traj.Histogram(edges, h.counts, h.no_switch_count, h.total)
        cases = ((h, IDENTIFIABLE), (h, dataclasses.replace(IDENTIFIABLE, E=61.0)), (moved, IDENTIFIABLE), (h, IDENTIFIABLE))
        tomo._cell_model.cache_clear()
        in_turn = [tomo.fit(hist, fixed=p) for hist, p in cases]
        info = tomo._cell_model.cache_info()
        assert (info.misses, info.hits) == (3, 1)
        for result, (hist, p) in zip(in_turn, cases):
            tomo._cell_model.cache_clear()
            alone = tomo.fit(hist, fixed=p)
            assert result.to_json_dict() == alone.to_json_dict()
            np.testing.assert_array_equal(result.covariance, alone.covariance)
        rows = tomo._cell_model(IDENTIFIABLE, h.bin_edges.tobytes())
        with pytest.raises(ValueError):
            rows[0, 0] = 0.0

    def test_aligned_probe_not_identifiable(self):
        p = det.DetectorParams(1.0, 5.0, 0.0, 60.0)
        h = synthesize(p, tomo.BlochComponents(0.3, -0.4, 0.5), 20000, seed=10)
        messages = []
        for _ in range(2):  # refused on every call
            with pytest.raises(NotIdentifiableError) as err:
                tomo.fit(h, fixed=p)
            messages.append(str(err.value))
        report = tomo.identifiability(p, rel_threshold=RANK_DEFICIENCY_TOL)
        assert messages == [f"degenerate directions {report.degenerate_directions} at the fixed detector parameters"] * 2

    def test_aligned_probe_z_only_is_fine(self):
        p = det.DetectorParams(1.0, 5.0, 0.0, 60.0)
        truth = tomo.BlochComponents(0.0, 0.0, 0.5)
        h = synthesize(p, truth, 100000, seed=11)
        result = tomo.fit(h, fixed=p, free_bloch=("z",))
        assert abs(result.bloch.z - truth.z) < 0.03

    def test_underflowing_cells_leave_covariance_finite(self):
        """Over a pulse of tau = 1e3 at C1 the survival underflows to 0
        before t = 475, so the last 80 of the 151 cells have model
        probability and slopes 0, where the Fisher information would add
        0/0: a z-only fit converges with a finite, positive variance."""
        h = synthesize(IDENTIFIABLE, tomo.BlochComponents(0.3, -0.4, 0.5), 200000, seed=7, tau=1e3)
        result = tomo.fit(h, fixed=IDENTIFIABLE, free_bloch=("z",))
        assert result.converged
        assert result.covariance.shape == (1, 1)
        assert np.isfinite(result.covariance[0, 0]) and result.covariance[0, 0] > 0.0

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
            tomo.fit(h, fixed=IDENTIFIABLE, free_params=tomo.PARAM_NAMES, bounds=bounds, seed=11, n_starts=16)

    def test_fixed_params_required(self):
        # fixed has no default; free_params=PARAM_NAMES frees all four
        h = synthesize(IDENTIFIABLE, tomo.BlochComponents(0.3, -0.4, 0.5), 100000, seed=55)
        with pytest.raises(TypeError):
            tomo.fit(h)

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
        real, calls = tomo._bounded_lm, []

        def counting(fun, jac, x0, *args, **kwargs):
            calls.append(len(x0))
            return real(fun, jac, x0, *args, **kwargs)

        monkeypatch.setattr(tomo, "_bounded_lm", counting)
        result = tomo.fit(h, fixed=IDENTIFIABLE, free_params=("E",), bounds={"E": (55.0, 65.0)}, n_starts=3)
        # the scan evaluates FIT_SCAN_POINTS points, and the polish steps three
        # of them together, in one call, as the first reaches a plausible
        # deviance
        assert calls == [3]
        assert result.scan_points == FIT_SCAN_POINTS and len(result.starts) == 3
        assert result.chi2 <= result.dof + FIT_PLAUSIBLE_SIGMAS * math.sqrt(2.0 * result.dof)
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
        assert d["starts"] == [] and d["best_start"] is None
        assert "scan_points" not in d
        # a free fit's start records name the start each retired one joined
        # and the deviance the scan found at x0; the record gives the scan size
        free = tomo.fit(h, fixed=IDENTIFIABLE, free_params=("E",), bounds={"E": (55.0, 65.0)}, n_starts=3)
        record = free.to_json_dict()
        assert record["scan_points"] == FIT_SCAN_POINTS
        for start in record["starts"]:
            assert set(start) == {
                "x0", "status", "nfev", "njev", "deviance", "grad_max", "converged", "error", "joined", "scan_deviance",
            }
            assert (start["joined"] is not None) == (start["status"] == 3)
            assert start["deviance"] <= start["scan_deviance"]

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

        profile = tomo._Profile(h, tomo._StateSolver(h, tomo.BLOCH_NAMES), params_at, names, 1)
        row = np.zeros(1, dtype=int)
        assert profile.at(row, theta[None, :]) == {}
        columns = profile.columns(row)[0].T
        weights = np.append(1.0, profile.b[0])
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

    def test_far_start_backtracks_to_the_fit(self):
        """On the one-sided aligned detector a z-only histogram of z = -0.9,
        solved from z0 = 0.25, takes Newton steps of more than 1/4 standard
        deviation: backtracking halves them, past trial points where a cell's
        probability is not positive (cost inf).  The solve still ends where
        the solve from `start` does, and meets its KKT test."""
        p = det.DetectorParams(0.0, 5.0, 0.0, 60.0)
        h = synthesize(p, tomo.BlochComponents(0.0, 0.0, -0.9), 100_000, seed=3, tau=3.6 / p.gamma_plus, n_bins=50)
        cells = cell_rows(p, h.bin_edges)
        a0, basis = cells[None, 0], cells[None, 3:]
        solver = tomo._StateSolver(h, ("z",))
        b, lam, errors = solver.solve(a0, basis, np.array([[0.25]]))
        ref, _, _ = solver.solve(a0, basis, solver.start(a0, basis))
        assert errors == {}
        assert b[0, 0] == pytest.approx(ref[0, 0], abs=1e-9)
        assert b[0, 0] == pytest.approx(-0.90007, abs=1e-5)
        assert solver.converged(a0[0], basis[0].T, b[0], lam[0])

    def test_exactly_determined_dof(self):
        """Three bins give three independent cell probabilities for the
        three Bloch components: dof 0, with no goodness of fit."""
        truth = tomo.BlochComponents(0.3, -0.4, 0.5)
        result = tomo.fit(noise_free_histogram(IDENTIFIABLE, truth, np.linspace(0.0, 1.2, 4)), fixed=IDENTIFIABLE)
        assert result.converged
        assert result.dof == 0

    @settings(max_examples=59)  # and the explicit example below: 60 fits
    @given(
        st.floats(0.0, 10.0),
        st.floats(0.1, 10.0),
        st.floats(0.0, math.pi),
        st.floats(0.0, 200.0),
        st.tuples(*[st.floats(-0.9, 0.9)] * 3),
        st.sampled_from((2, 3, 4, 6, 8, 150)),
    )
    # README's configuration C1 over two bins
    @example(1.0, 5.0, math.pi / 4, 60.0, (0.3, -0.4, 0.5), 2)
    def test_identified_or_refused(self, gamma_l, gamma_r, beta, e, bloch, n_bins):
        """A state-only fit of noise-free counts either refuses the cells as
        not identifying the state, or converges to the truth within five of
        its own standard deviations (at least 1e-3).  It never fails on a
        singular matrix or steps out of the ball, and (the suite turning
        them into errors) emits no RuntimeWarning: two bins, three cells
        and so two independent probabilities for three components, are
        always refused."""
        p = det.DetectorParams(gamma_l, gamma_r, beta, e)
        truth = np.array(bloch) * min(1.0, 0.9 / max(np.linalg.norm(bloch), 1e-300))
        edges = np.linspace(0.0, 3.6 / p.gamma_plus, n_bins + 1)
        try:
            result = tomo.fit(noise_free_histogram(p, tomo.BlochComponents(*truth), edges), fixed=p)
        except NotIdentifiableError:
            return
        assert n_bins > 2
        assert result.converged
        fitted = np.array([result.bloch.x, result.bloch.y, result.bloch.z])
        sigmas = np.sqrt(np.diag(result.covariance))
        assert np.all(np.abs(fitted - truth) <= np.maximum(1e-3, 5.0 * sigmas))


FREE_PARAMS = ("gamma_R", "beta", "E")


def free_fit_problem(k):
    """Configuration k's parameters, histogram and fit options with gamma_R,
    beta and E free in the benchmark's box (scaled like the README's
    all-in-one example)."""
    p = det.DetectorParams(*CONFIGS[k])
    h = multinomial_histogram(p, tomo.BlochComponents(*CONFIG_STATES[k]), seed=10 + k)
    bounds = {
        "gamma_R": (0.6 * p.gamma_R, 1.6 * p.gamma_R),
        "beta": (max(p.beta - 0.385, 0.0), min(p.beta + 0.515, math.pi)),
        "E": (p.E * 11.0 / 12.0, p.E * 13.0 / 12.0),
    }
    return p, h, dict(fixed=p, free_params=FREE_PARAMS, bounds=bounds, n_starts=4)


class TestFreeFit:
    @pytest.mark.parametrize("k", range(len(CONFIGS)))
    def test_matches_joint_reference(self, k):
        """The profiled search over (gamma_R, beta, E) reaches the optimum
        of the joint fit over state and parameters, and its Fisher
        covariance matches the joint fit's Gauss-Newton one."""
        p, h, options = free_fit_problem(k)
        free_params, bounds = FREE_PARAMS, options["bounds"]
        result = tomo.fit(h, **options)
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

    @pytest.mark.parametrize("k", range(len(CONFIGS)))
    def test_start_alone_equals_in_batch(self, k, monkeypatch):
        """Each polished start that ends by its own stop (status 0, 1 or 2)
        has a record and end point bit-identical whether the scan and polish
        run on its x0 alone or on every scan point: no point's arithmetic
        depends on another's, in the scan's slices or the polish's batch
        (each contraction over the cells keeps one row's shape and summation
        order), and a polished start goes on from its scan point's state.  A
        start that retired (status 3) ends where the same start ends alone
        when its evaluations are capped at its nfev."""
        _, h, options = free_fit_problem(k)
        real, ends, cap = tomo._bounded_lm, [], {}

        def recording(*args, **kwargs):
            res = real(*args, **{**kwargs, **cap})
            ends.append(np.reshape(res.x, (-1, len(FREE_PARAMS))))
            return res

        monkeypatch.setattr(tomo, "_bounded_lm", recording)
        together = tomo.fit(h, **options)
        together_ends = np.concatenate(ends)
        assert len(together.starts) == len(together_ends) == options["n_starts"]
        assert {start.status for start in together.starts} >= {1, 3}
        for idx, start in enumerate(together.starts):
            ends.clear()
            x0 = np.array([start.x0])
            monkeypatch.setattr(tomo, "_latin_hypercube", lambda rng, n, lo, hi, x0=x0: x0)
            cap.clear()
            if start.status == 3:
                cap["max_nfev"] = start.nfev
            alone = tomo.fit(h, **{**options, "n_starts": 1})
            if start.status == 3:
                assert together.starts[start.joined].status == 1, idx
                assert alone.starts[0].status == 0, idx
                start = dataclasses.replace(start, status=0, converged=False, joined=None)
            assert alone.starts == (start,), idx
            np.testing.assert_array_equal(np.concatenate(ends), together_ends[idx : idx + 1])

    def test_failed_starts_recorded(self, monkeypatch):
        h = synthesize(IDENTIFIABLE, tomo.BlochComponents(0.3, -0.4, 0.5), 20000, seed=13)
        options = dict(fixed=IDENTIFIABLE, free_params=("E",), bounds={"E": (55.0, 65.0)}, n_starts=3)
        real, calls = tomo._bounded_lm, []

        def failing(starts, make_error):
            """_bounded_lm whose residual evaluations fail for the given starts."""

            def lm(fun, jac, x0, *args, **kwargs):
                calls.append(len(x0))

                def fun_failing(rows, x):
                    values, errors = fun(rows, x)
                    errors.update((i, make_error()) for i, k in enumerate(rows) if k in starts)
                    return values, errors

                return real(fun_failing, jac, x0, *args, **kwargs)

            return lm

        monkeypatch.setattr(tomo, "_bounded_lm", failing({1}, lambda: ValueError("residuals are not finite")))
        result = tomo.fit(h, **options)
        assert result.converged
        assert calls == [3]
        assert result.starts[1].error == "ValueError: residuals are not finite"
        assert result.starts[1].nfev is None and result.best_start != 1
        assert [start.error for k, start in enumerate(result.starts) if k != 1] == [None, None]

        # with no start ended the polish goes on, three scan points at a time,
        # until FIT_POLISH_CAP points have failed
        calls.clear()
        monkeypatch.setattr(
            tomo, "_bounded_lm", failing({0, 1, 2}, lambda: np.linalg.LinAlgError("SVD did not converge"))
        )
        with pytest.raises(NoConvergenceError) as err:
            tomo.fit(h, **options)
        starts = err.value.starts
        assert calls == [3] * 5 + [1] and len(starts) == FIT_POLISH_CAP == 16
        for idx in range(len(starts)):
            assert f"start {idx}: LinAlgError: SVD did not converge" in str(err.value)
        assert [start.error for start in starts] == ["LinAlgError: SVD did not converge"] * len(starts)
        assert all(55.0 <= start.x0[0] <= 65.0 for start in starts)
        assert len({start.x0 for start in starts}) == len(starts) and err.value.scan_points == FIT_SCAN_POINTS

        def bug(*args, **kwargs):
            raise TypeError("not a fit failure")

        monkeypatch.setattr(tomo, "_bounded_lm", bug)
        with pytest.raises(TypeError):
            tomo.fit(h, **options)
        # a bug inside one start's evaluation is not a fit failure either
        monkeypatch.setattr(tomo, "_bounded_lm", real)
        monkeypatch.setattr(tomo._Profile, "residuals", lambda self, rows, theta: bug())
        with pytest.raises(TypeError):
            tomo.fit(h, **options)

    def test_start_failure_isolated(self, monkeypatch):
        """A polished start whose residuals turn non-finite mid-batch, or
        whose Jacobian the stacked SVD cannot factor (numpy's stacked call
        raises for the whole stack), records its own error; every start that
        is neither that start nor one that retired into it keeps a
        bit-identical record, and the fit returns the same optimum from a
        start that stopped on its own."""
        _, h, options = free_fit_problem(0)
        options = {**options, "n_starts": 6}
        clean = tomo.fit(h, **options)
        assert all(start.error is None for start in clean.starts)
        real_lm = tomo._bounded_lm
        for which, start, message in (
            (0, 1, "FloatingPointError: residuals are not finite at "),
            (1, 4, "LinAlgError: SVD did not converge"),
        ):
            seen = []

            def faulty(evaluate, start=start, seen=seen):
                """evaluate, with start's values NaN at its third call."""

                def wrapped(rows, theta):
                    values, errors = evaluate(rows, theta)
                    seen.extend(k for k in rows if k == start)
                    if start in rows and len(seen) == 3:
                        values = values.copy()
                        values[list(rows).index(start)] = np.nan
                    return values, errors

                return wrapped

            def lm(fun, jac, *args, which=which, **kwargs):
                evaluations = [fun, jac]
                evaluations[which] = faulty(evaluations[which])
                return real_lm(*evaluations, *args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(tomo, "_bounded_lm", lm)
                faulted = tomo.fit(h, **options)
            assert len(seen) >= 3
            assert faulted.starts[start].error.startswith(message)
            assert faulted.starts[start].nfev is None
            kept = [k for k, record in enumerate(clean.starts) if start not in (k, record.joined)]
            assert len(kept) >= 2, which
            for k in kept:
                assert faulted.starts[k] == clean.starts[k], (which, k)
            best = faulted.best_start
            assert best != start and faulted.starts[best].status in (1, 2)
            assert abs(faulted.chi2 - clean.chi2) <= FIT_START_TIE_TOL * clean.chi2

    def test_start_records(self, monkeypatch):
        """One record per polished start: its x0 a scan point, taken lowest
        scan deviance first, and its deviance no higher than the scan's
        there; the scan's FIT_SCAN_POINTS points are drawn from the seed."""
        p, h, options = free_fit_problem(0)
        real, drawn = tomo._latin_hypercube, []
        monkeypatch.setattr(tomo, "_latin_hypercube", lambda *args: drawn.append(real(*args)) or drawn[-1])
        result = tomo.fit(h, **options)
        assert len(result.starts) == 4 and result.scan_points == FIT_SCAN_POINTS == len(drawn[0])
        points = {tuple(map(float, x)) for x in drawn[0]}
        for start in result.starts:
            assert start.error is None and start.status > 0 and start.nfev >= start.njev > 0
            assert all(lo <= x <= hi for x, (lo, hi) in zip(start.x0, options["bounds"].values()))
            assert start.x0 in points and start.deviance <= start.scan_deviance
        scan = [start.scan_deviance for start in result.starts]
        assert scan == sorted(scan) and len(set(scan)) == len(scan)
        best = result.starts[result.best_start]
        lowest = min(start.deviance for start in result.starts)
        assert best.deviance == result.chi2 <= lowest + FIT_START_TIE_TOL * max(1.0, lowest)
        assert best.converged and best.grad_max < FIT_GRADIENT_TOL * h.total
        record = result.to_json_dict()
        assert record["best_start"] == result.best_start
        assert record["starts"][result.best_start]["deviance"] == result.chi2
        # a state-only fit runs no start
        assert tomo.fit(h, fixed=p).to_json_dict()["starts"] == []

    @pytest.mark.parametrize("k", range(len(CONFIGS)))
    def test_start_tie_goes_to_lowest_index(self, k, monkeypatch):
        """The basin rule over the polished starts: a start that retired
        stands for the start it joined, and the winner is the start standing
        for the first start, the lowest in the scan, whose deviance ties with
        the lowest.  Starts that reached one optimum differ in deviance by
        its rounding alone (up to ~1e-10 here), so the first start's basin
        wins; an absolute 1e-12 margin made rounding pick later starts.  A
        basin lower by more than the tie tolerance still wins, and a retired
        start never does, however low its own deviance."""
        _, h, options = free_fit_problem(k)
        result = tomo.fit(h, **options)
        basin = [idx if start.joined is None else start.joined for idx, start in enumerate(result.starts)]
        assert all(result.starts[j].status in (1, 2) for j in basin)
        deviances = [result.starts[j].deviance for j in set(basin)]
        assert max(deviances) - min(deviances) <= FIT_START_TIE_TOL * min(deviances)
        assert result.best_start == basin[0] and result.chi2 == result.starts[basin[0]].deviance

        real = tomo._bounded_lm

        def lowered(starts, factor):
            def lm(*args, **kwargs):
                res = real(*args, **kwargs)
                res.fun[starts(res)] *= factor
                return res

            return lm

        # every start after the first lower by 10 tie tolerances, relative:
        # the first start whose basin is not start 0's gives the winner
        factor = math.sqrt(1.0 - 10.0 * FIT_START_TIE_TOL)
        monkeypatch.setattr(tomo, "_bounded_lm", lowered(lambda res: slice(1, None), factor))
        first_lowered = next(idx for idx, j in enumerate(basin) if j != 0)
        assert tomo.fit(h, **options).best_start == basin[first_lowered]
        # the retired starts far lower: they still stand for their basins
        assert 3 in {start.status for start in result.starts}
        monkeypatch.setattr(tomo, "_bounded_lm", lowered(lambda res: res.status == 3, 0.5))
        assert tomo.fit(h, **options).best_start == result.best_start

    @settings(max_examples=30)
    @given(
        st.floats(0.2, math.pi - 0.2),
        st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
        st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
        st.integers(0, 2**16),
    )
    def test_free_beta_over_the_box(self, beta, below, above, seed):
        """A free-beta fit of noise-free counts, in a box about the truth
        that may reach 0 or pi and hold the mirror optimum pi - beta, either
        converges to the truth within five of its standard deviations or
        raises a named error (the mirror rule's, where the box holds a
        mirror resolvably apart).  A point at beta = 0 or pi leaves the x and
        y cell rows zero, so the state Hessian singular: the ball step must
        not divide by its zero eigenvalues (the suite turns RuntimeWarnings
        into errors).  The winner stopped on its own (status 1 or 2)."""
        p = det.DetectorParams(1.0, 5.0, beta, 60.0)
        h = noise_free_histogram(p, tomo.BlochComponents(0.3, -0.4, 0.5), np.linspace(0.0, 3.6 / p.gamma_plus, 151))
        box = (below * beta, beta + above * (math.pi - beta))
        try:
            result = tomo.fit(h, fixed=p, free_params=("beta",), bounds={"beta": box}, seed=seed)
        except SwitchSimError:
            return
        assert result.converged
        assert result.starts[result.best_start].status in (1, 2)
        sigma = math.sqrt(result.covariance[3, 3])
        assert abs(result.params.beta - beta) <= 5.0 * sigma

    @settings(max_examples=10)  # and the explicit example below: 22 fits
    @given(
        st.floats(0.2, math.pi - 0.2),
        st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
        st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
        st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)),
    )
    # C1 over beta in [0, pi], both mirror optima in the box
    @example(math.pi / 4, 0.0, 1.0, (1, 3))
    def test_mirror_refused_or_recovered(self, beta, below, above, seeds):
        """A free fit of (gamma_R, beta, E) to noise-free counts, in a beta
        box about the truth that may touch 0 or pi and hold the mirror
        pi - beta, either recovers the truth within five of its standard
        deviations or raises NotIdentifiableError, never returning the twin
        with z negated as converged: naming the mirror where the box holds it
        resolvably apart, or the direction z where beta is so near pi/2 that
        the twins merge and z is not resolved.  It emits no RuntimeWarning
        (the suite turns them into errors), and two seeds give one answer."""
        p = det.DetectorParams(1.0, 5.0, beta, 60.0)
        h = noise_free_histogram(p, tomo.BlochComponents(0.3, -0.4, 0.5), np.linspace(0.0, 3.6 / p.gamma_plus, 151))
        bounds = {"gamma_R": (3.0, 8.0), "beta": (below * beta, beta + above * (math.pi - beta)), "E": (55.0, 65.0)}
        truth = np.array([p.gamma_R, p.beta, p.E])
        answers = []
        for seed in seeds:
            try:
                result = tomo.fit(h, fixed=p, free_params=FREE_PARAMS, bounds=bounds, seed=seed)
            except NotIdentifiableError as exc:
                mirror = "its mirror pi - beta = " in str(exc) and "bound beta on one side of pi/2" in str(exc)
                assert mirror or str(exc) == "degenerate directions (('z',),) at the fitted parameters"
                answers.append(mirror)
                continue
            assert result.converged
            theta = np.array([getattr(result.params, name) for name in FREE_PARAMS])
            assert np.all(np.abs(theta - truth) <= 5.0 * np.sqrt(np.diag(result.covariance)[3:]))
            answers.append(theta)
        if isinstance(answers[0], bool) or isinstance(answers[1], bool):
            assert answers[0] is answers[1]
        else:
            np.testing.assert_allclose(answers[0], answers[1], rtol=1e-5)

    @settings(max_examples=8)
    @given(
        st.floats(0.5, 2.0),
        st.floats(3.0, 20.0),
        st.floats(0.2, math.pi / 2 - 0.1),
        st.floats(10.0, 200.0),
        st.tuples(*[st.floats(-0.5, 0.5)] * 3),
        st.integers(0, 2**16),
    )
    def test_scan_reaches_multistart_optimum(self, gamma_l, gamma_r, beta, e, bloch, seed):
        """Over wide boxes, gamma_R in [0.3, 3] and E in [0.5, 2] times the
        truth and beta in [0, pi/2], where the deviance has many local
        optima (E's aliases), the scan-then-polish fit reaches a deviance at
        most one count above that of eight Latin-hypercube starts each
        searched to its end (oracles.multistart_free_fit).  The oracle gives
        no identifiability verdict, so neither does the fit here: with beta
        fitted near pi/2 and switching fast against precession, z can sit
        below the rank test's threshold at the optimum both reach."""
        p = det.DetectorParams(gamma_l, gamma_r, beta, e)
        h = multinomial_histogram(p, tomo.BlochComponents(*bloch), seed)
        bounds = {"gamma_R": (0.3 * gamma_r, 3.0 * gamma_r), "beta": (0.0, math.pi / 2), "E": (0.5 * e, 2.0 * e)}
        with mock.patch.object(tomo, "_refuse_rank_deficient", lambda *args: None):
            result = tomo.fit(h, fixed=p, free_params=FREE_PARAMS, bounds=bounds, seed=seed)
        deviance, _ = multistart_free_fit(h, p, FREE_PARAMS, bounds, seed=seed)
        assert result.chi2 <= deviance + 1.0

    def test_stop_rule_evaluation_count(self):
        """Each polished start stops on the profiled gradient from a scan
        point in its basin: the C1-C4 fits above, four polished starts each,
        take at most half the residual and Jacobian evaluations that eight
        Latin-hypercube starts stopping at the deviance's rounding floor
        (trf's xtol) took, 413 nfev + njev over the four fits (95, 101, 109
        and 108); 160 are measured."""
        counts = []
        for k in range(len(CONFIGS)):
            _, h, options = free_fit_problem(k)
            result = tomo.fit(h, **options)
            assert result.converged
            counts += [start.nfev + start.njev for start in result.starts]
        assert len(counts) == 16
        assert sum(counts) <= 0.5 * 413

    @pytest.mark.parametrize("k", range(len(CONFIGS)))
    def test_one_ulp_reproducible(self, k, monkeypatch):
        """Moving every cell row and slope by one ulp moves the optimum by
        far less than its standard error (at most 1e-9, where ~1e-13 is
        measured): the stop is a property of the fit, not of the rows'
        rounding."""
        _, h, options = free_fit_problem(k)
        base = tomo.fit(h, **options)
        cells = tomo._cells
        for direction in (math.inf, -math.inf):
            monkeypatch.setattr(tomo, "_cells", lambda surv, d=direction: np.nextafter(cells(surv), d))
            moved = tomo.fit(h, **options)
            assert moved.converged
            for name in tomo.BLOCH_NAMES:
                assert abs(getattr(moved.bloch, name) - getattr(base.bloch, name)) <= 1e-9, name
            for name in FREE_PARAMS:
                assert getattr(moved.params, name) == pytest.approx(getattr(base.params, name), rel=1e-9)


def stacked(fun, jac):
    """_bounded_lm's batched evaluations from one start's fun(x) and jac(x),
    row by row."""
    return (
        lambda rows, x: (np.array([fun(xi) for xi in x]), {}),
        lambda rows, x: (np.array([jac(xi) for xi in x]), {}),
    )


class TestBoundedLM:
    # a linear least-squares problem whose unconstrained optimum has x0 < 0:
    # on the box x0 >= 0 the optimum sits on that bound
    A = np.array([[1.0, 0.5], [0.3, 2.0], [-1.0, 1.0], [2.0, 0.1]])
    B = np.array([-2.0, 1.0, 3.0, -1.5])
    LO, HI = np.array([0.0, -10.0]), np.array([10.0, 10.0])
    # stepped together, one row each
    STARTS = np.array([[5.0, 5.0], [0.5, -8.0], [9.0, 9.0]])

    def run(self, gtol):
        return tomo._bounded_lm(
            *stacked(lambda x: self.A @ x - self.B, lambda x: self.A), self.STARTS, self.LO, self.HI, gtol, 100
        )

    def test_optimum_on_bound(self):
        assert np.linalg.lstsq(self.A, self.B, rcond=None)[0][0] < 0.0
        a1 = self.A[:, 1]
        exact = np.array([0.0, (a1 @ self.B) / (a1 @ a1)])
        res = self.run(gtol=1e-10)
        assert res.errors == [None] * len(self.STARTS)
        for k in range(len(self.STARTS)):
            assert res.status[k] == 1 and res.nfev[k] >= res.njev[k] >= 1
            np.testing.assert_allclose(res.x[k], exact, rtol=0, atol=1e-12)
            assert res.x[k, 0] == 0.0
            # the gradient pushes x0 out of the box, so the projected gradient
            # leaves it out: its free part vanishes
            g = res.jac[k].T @ res.fun[k]
            assert g[0] > 1.0 and abs(g[1]) <= 1e-10
            np.testing.assert_array_equal(res.fun[k], self.A @ res.x[k] - self.B)

    def test_step_stop_and_cap(self):
        # a negative gradient tolerance cannot be met: the search ends on
        # the relative step once the linear problem is solved to rounding
        res = self.run(gtol=-1.0)
        assert np.all(res.status == 2) and np.all(res.nfev < 20)
        assert np.all(res.x[:, 0] == 0.0)
        # the cap counts residual evaluations, the start point's included
        rosenbrock = stacked(
            lambda x: np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]),
            lambda x: np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]]),
        )
        box = (np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
        starts = np.array([[-1.2, 1.0], [-1.5, 1.8]])
        for cap in (1, 2, 5):
            res = tomo._bounded_lm(*rosenbrock, starts, *box, 1e-12, cap)
            assert np.all(res.status == 0) and np.all(res.nfev == cap) and np.all(res.njev <= cap)
        res = tomo._bounded_lm(*rosenbrock, starts, *box, 1e-12, 200)
        assert np.all(np.isin(res.status, (1, 2))) and np.all(res.nfev < 200)
        np.testing.assert_allclose(res.x, [[1.0, 1.0]] * 2, rtol=0, atol=1e-10)

    def test_nonfinite_start_refused(self):
        fun, jac = stacked(lambda x: np.array([np.nan if x[0] == 0.0 else x[0] - 0.5, x[1]]), lambda x: np.eye(2))
        res = tomo._bounded_lm(fun, jac, np.array([[0.0, 0.0], [1.0, 0.0]]), self.LO, self.HI, 1e-8, 10)
        assert isinstance(res.errors[0], FloatingPointError)
        assert str(res.errors[0]) == "residuals are not finite at [0.0, 0.0]"
        # the other start is not held up by it
        assert res.errors[1] is None and res.status[1] == 1 and res.x[1, 0] == 0.5

    def test_rows_independent(self):
        """Each start's result is bit-identical alone and in the batch."""
        together = self.run(gtol=1e-10)
        for k, x0 in enumerate(self.STARTS):
            alone = tomo._bounded_lm(
                *stacked(lambda x: self.A @ x - self.B, lambda x: self.A), x0[None], self.LO, self.HI, 1e-10, 100
            )
            for field in ("x", "fun", "jac", "status", "nfev", "njev"):
                np.testing.assert_array_equal(getattr(alone, field)[0], getattr(together, field)[k])

    def test_two_basins(self):
        """r = 3 (x^2 - 1) has two optima, x = -1 and 1, of equal deviance.
        The start at 1 stops at once and becomes the reference; the start at
        1.2 lies on its quadratic bowl and retires into it at once, while the
        start at -1.5, whose excess deviance the reference's model
        overpredicts ~16-fold, is never retired and finds the other optimum."""
        fun, jac = stacked(lambda x: 3.0 * (x**2 - 1.0), lambda x: np.diag(6.0 * x))
        starts = np.array([[1.0], [1.2], [-1.5]])
        res = tomo._bounded_lm(fun, jac, starts, np.array([-2.0]), np.array([2.0]), 1e-10, 100)
        assert res.errors == [None] * 3
        assert res.status.tolist() == [1, 3, 1] and res.joined.tolist() == [-1, 0, -1]
        assert res.nfev[1] == 1 and res.x[1, 0] == 1.2
        np.testing.assert_allclose(res.x[2], [-1.0], rtol=0, atol=1e-10)

    def test_lower_optimum_not_retired(self):
        """A start whose actual deviance lies below the reference's model is
        not retired, though the model predicts it within one count: at
        x = 0.8 a narrow well 10 deep sits on the reference's shallow bowl
        about x = 0."""
        well = lambda x: np.exp(-((x - 0.8) ** 2) / 0.005)
        fun, jac = stacked(
            lambda x: np.array([0.5 * x[0], 10.0 * (1.0 - well(x[0]))]),
            lambda x: np.array([[0.5], [4000.0 * (x[0] - 0.8) * well(x[0])]]),
        )
        starts = np.array([[0.0], [0.3], [0.8]])
        res = tomo._bounded_lm(fun, jac, starts, np.array([-1.0]), np.array([2.0]), 1e-8, 100)
        assert res.errors == [None] * 3
        assert res.status[0] == 1 and res.nfev[0] == 1
        # the model predicts 0.0225 counts at 0.3 (actual: 0.0225) and 0.16
        # at 0.8 (actual: 0.16 - 100)
        assert res.status[1] == 3 and res.joined[1] == 0
        assert res.status[2] in (1, 2) and res.joined[2] == -1
        assert abs(res.x[2, 0] - 0.8) < 0.01 and np.sum(res.fun[2] ** 2) < 0.16
