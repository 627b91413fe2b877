import copy
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import switchsim
from switchsim import cli
from switchsim import detector as det
from switchsim import tomography as tomo
from switchsim import trajectory as traj
from switchsim.errors import BisectionFailureError
from switchsim.tolerances import FIT_POLISH_CAP, FIT_SCAN_POINTS


def run_cli(args):
    return cli.main([str(a) for a in args])


def read_summary(out_dir):
    with open(out_dir / "summary.json") as fh:
        return json.load(fh)


def fresh_process(*args):
    """Run `python *args` in a new interpreter that imports this switchsim."""
    src = os.path.dirname(os.path.dirname(switchsim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run(
        [sys.executable, *map(str, args)], env=env, capture_output=True, text=True, check=True, timeout=120
    )


# (gamma_L, gamma_R, beta, E) of the benchmark configurations C1-C4
CONFIGS = (
    (1.0, 5.0, math.pi / 4, 60.0),
    (0.0, 10.0, math.pi / 3, 200.0),
    (2.0, 8.0, 1.0, 20.0),
    (1.0, 4.0, 0.6, 120.0),
)


def param_sets(params):
    names = ("gamma_L", "gamma_R", "beta", "E")
    return [a for name, v in zip(names, params) for a in ("--set", f"params.{name}={v!r}")]


def strip_elapsed(summary):
    summary = dict(summary)
    summary.pop("elapsed_seconds")
    return summary


class TestFidelityCommand:
    def test_outputs(self, tmp_path):
        assert run_cli(["fidelity", "--out", tmp_path]) == 0
        for name in ("fig2.csv", "fig3.csv", "fig4.csv", "summary.json"):
            assert (tmp_path / name).exists()
        fig2 = (tmp_path / "fig2.csv").read_text().strip().splitlines()
        assert fig2[0] == "t_over_tau0,fidelity"
        rows = [tuple(map(float, r.split(","))) for r in fig2[1:]]
        # zero crossing at t = tau0
        near_tau0 = min(rows, key=lambda r: abs(r[0] - 1.0))
        assert near_tau0[1] < 0.02
        assert rows[0][1] == pytest.approx(9.0 / 11.0, abs=1e-9)

    def test_fig3_endpoints(self, tmp_path):
        assert run_cli(["fidelity", "--out", tmp_path]) == 0
        rows = [
            tuple(map(float, r.split(",")))
            for r in (tmp_path / "fig3.csv").read_text().strip().splitlines()[1:]
        ]
        assert rows[0][1] == pytest.approx(0.0, abs=1e-12)  # ratio 1
        assert rows[-1][1] > 0.99  # ratio 1e6

    def test_fig4_endpoints(self, tmp_path):
        assert run_cli(["fidelity", "--out", tmp_path]) == 0
        rows = [
            tuple(map(float, r.split(",")))
            for r in (tmp_path / "fig4.csv").read_text().strip().splitlines()[1:]
        ]
        assert rows[0][1] == pytest.approx(1.0)
        assert rows[-1][1] == pytest.approx(0.0, abs=1e-9)

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ratioo": 10}))
        assert run_cli(["fidelity", "--config", cfg, "--out", tmp_path]) == 2

    def test_bad_ratio_value(self, tmp_path):
        assert run_cli(["fidelity", "--out", tmp_path, "--set", "ratio=0.5"]) == 2


class TestSimulateCommand:
    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--seed", 5, "--set", "n_traj=5000"]
        assert run_cli(args + ["--out", a]) == 0
        assert run_cli(args + ["--out", b]) == 0
        assert (a / "histogram.csv").read_bytes() == (b / "histogram.csv").read_bytes()
        assert strip_elapsed(read_summary(a)) == strip_elapsed(read_summary(b))

    def test_summary_contents(self, tmp_path):
        assert (
            run_cli(
                [
                    "simulate", "--out", tmp_path, "--seed", 9,
                    "--set", "n_traj=20000",
                    "--set", "params.gamma_L=2", "--set", "params.gamma_R=2",
                ]
            )
            == 0
        )
        s = read_summary(tmp_path)
        assert s["tool_version"]
        assert "config_echo" in s and "elapsed_seconds" in s
        # equal rates: truncated-exponential mean
        gamma, tau = 2.0, s["config_echo"]["tau"]
        trunc = 1.0 - math.exp(-gamma * tau)
        mean = 1.0 / gamma - tau * math.exp(-gamma * tau) / trunc
        assert s["mean_switch_time"] == pytest.approx(mean, abs=0.01)
        assert s["chi2"]["p_value"] > 1e-6

    def test_histogram_round_trips_in_rate_units(self, tmp_path):
        assert (
            run_cli(["simulate", "--out", tmp_path, "--seed", 2, "--set", "n_traj=3000"])
            == 0
        )
        h = traj.read_histogram_csv(tmp_path / "histogram.csv", time_scale=10.0)
        assert h.total == 3000
        assert h.bin_edges[-1] == pytest.approx(1.0)

    @pytest.mark.parametrize("params", CONFIGS)
    def test_histogram_and_mean_match_library(self, tmp_path, params):
        # 20000 trajectories span two sampler chunks
        sets = param_sets(params) + ["--set", "n_traj=20000", "--set", "bloch.x=0.3", "--set", "bloch.z=-0.4"]
        assert run_cli(["simulate", "--out", tmp_path, "--seed", 7] + sets) == 0
        s = read_summary(tmp_path)
        p = det.DetectorParams(*params)
        rho0 = tomo.BlochComponents(0.3, 0.0, -0.4).to_density()
        cfg = traj.SimConfig(n_traj=20000, tau=1.0, seed=7, n_bins=50)
        h = traj.read_histogram_csv(tmp_path / "histogram.csv", time_scale=s["time_unit_scale"])
        ref = traj.run_ensemble(p, rho0, cfg)
        np.testing.assert_array_equal(h.counts, ref.counts)
        assert (h.no_switch_count, h.total) == (ref.no_switch_count, ref.total)
        times, _ = traj.sample_switch_times(p, rho0, cfg)
        assert s["mean_switch_time"] == pytest.approx(float(times.mean()), rel=1e-12, abs=0.0)

    def test_memory_independent_of_size(self, tmp_path):
        # the bound of test_ensemble_memory_independent_of_size: simulate
        # bins and sums each chunk's times, keeping no n_traj buffer
        sets = param_sets(CONFIGS[0]) + ["--set", "n_traj=2000000", "--set", "tau=1.2", "--set", "n_bins=150"]
        tracemalloc.start()
        try:
            assert run_cli(["simulate", "--out", tmp_path, "--seed", 5] + sets) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * traj.CHUNK * 8, f"peak {peak / 1e6:.1f} MB"

    def test_simulation_error_exit_code(self, tmp_path, monkeypatch):
        def broken(*args):
            raise BisectionFailureError("survival inversion residual too large")

        monkeypatch.setattr(traj, "_chunked_switch_times", broken)
        assert run_cli(["simulate", "--out", tmp_path, "--set", "n_traj=2000"]) == 3
        assert not (tmp_path / "summary.json").exists()

    def test_dark_state_reports_null_chi2(self, tmp_path):
        # no run switches, so the chi-squared check has a single cell
        code = run_cli(
            [
                "simulate", "--out", tmp_path, "--seed", 1,
                "--set", "params.gamma_L=0", "--set", "params.beta=0",
                "--set", "bloch.z=-1", "--set", "n_traj=2000",
            ]
        )
        assert code == 0
        s = read_summary(tmp_path)
        assert s["chi2"] is None
        assert s["no_switch_fraction"] == 1.0

    @pytest.mark.parametrize(
        "sets",
        [
            ["n_traj=0"],
            ["params.gamma_L=-1"],
            ["bloch.z=1.5"],
            ["params.gamma_R=0"],
            ["time_unit=0"],
        ],
    )
    def test_bad_values_exit_config(self, tmp_path, sets):
        args = ["simulate", "--out", tmp_path]
        for assignment in sets:
            args += ["--set", assignment]
        assert run_cli(args) == 2
        assert not (tmp_path / "histogram.csv").exists()

    def test_method_key_rejected(self, tmp_path):
        assert run_cli(["simulate", "--out", tmp_path, "--set", "method=euler"]) == 2

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_philox_key_exits_config(self, tmp_path, capsys, seed):
        assert run_cli(["simulate", "--out", tmp_path, "--seed", seed, "--set", "n_traj=1000"]) == 2
        assert "seed must lie in [0, 2**64)" in capsys.readouterr().err
        assert not (tmp_path / "histogram.csv").exists()


START_KEYS = {"x0", "status", "nfev", "njev", "deviance", "grad_max", "converged", "error", "joined", "scan_deviance"}


def check_start_record(start, n_params):
    """Hand-written schema of one per-start record (jsonschema is not a
    test dependency): a polished start either ran to a status or raised,
    names the start it joined exactly when it retired (status 3), and gives
    the deviance the scan found at its x0 (null where the scan failed)."""
    assert set(start) == START_KEYS
    assert len(start["x0"]) == n_params and all(isinstance(v, float) for v in start["x0"])
    assert isinstance(start["converged"], bool) and isinstance(start["scan_deviance"], (float, type(None)))
    if start["error"] is None:
        assert all(isinstance(start[k], int) for k in ("status", "nfev", "njev"))
        assert all(isinstance(start[k], float) for k in ("deviance", "grad_max"))
        assert isinstance(start["joined"], int) if start["status"] == 3 else start["joined"] is None
    else:
        assert isinstance(start["error"], str) and start["converged"] is False
        assert all(start[k] is None for k in ("status", "nfev", "njev", "deviance", "grad_max", "joined"))


def check_tomography_json(record, n_params):
    """Hand-written schema of a fitted tomography.json; a free fit's also
    gives the size of its scan."""
    assert set(record) == {
        "bloch", "params", "covariance", "chi2", "dof", "converged", "free_names",
        "starts", "best_start",
    } | ({"scan_points"} if n_params else set())
    assert set(record["bloch"]) == {"x", "y", "z"}
    assert set(record["params"]) == {"gamma_L", "gamma_R", "beta", "E"}
    for value in [*record["bloch"].values(), *record["params"].values(), record["chi2"]]:
        assert isinstance(value, float)
    n = len(record["free_names"])
    assert all(isinstance(name, str) for name in record["free_names"])
    assert len(record["covariance"]) == n * n
    assert isinstance(record["dof"], int) and isinstance(record["converged"], bool)
    if n_params == 0:
        assert record["starts"] == []  # a state-only fit runs no start
    for start in record["starts"]:
        check_start_record(start, n_params)
    if record["starts"]:
        assert isinstance(record["best_start"], int)
        assert record["starts"][record["best_start"]]["deviance"] == record["chi2"]
    else:
        assert record["best_start"] is None


class TestTomographyCommand:
    def make_histogram(self, tmp_path, p, bloch, n=40000):
        cfg = traj.SimConfig(n_traj=n, tau=1.2, seed=77, n_bins=120)
        h = traj.run_ensemble(p, bloch.to_density(), cfg)
        path = tmp_path / "hist.csv"
        traj.write_histogram_csv(h, path, time_scale=p.gamma_R)
        return path

    def test_round_trip(self, tmp_path):
        p = det.DetectorParams(1.0, 5.0, math.pi / 4, 60.0)
        truth = tomo.BlochComponents(0.3, -0.4, 0.5)
        hist = self.make_histogram(tmp_path, p, truth)
        code = run_cli(
            [
                "tomography", "--out", tmp_path, "--seed", 4,
                "--set", f"histogram={hist}",
                "--set", "params.gamma_L=1", "--set", "params.gamma_R=5",
                "--set", f"params.beta={math.pi / 4}", "--set", "params.E=60",
            ]
        )
        assert code == 0
        with open(tmp_path / "tomography.json") as fh:
            result = json.load(fh)
        assert result["converged"]
        assert abs(result["bloch"]["x"] - truth.x) < 0.05
        assert abs(result["bloch"]["z"] - truth.z) < 0.05

    FREE_E = ["--set", 'free_params=["E"]', "--set", 'bounds={"E": [55, 65]}', "--set", "n_starts=3"]

    def fit_args(self, tmp_path, hist):
        return [
            "tomography", "--out", tmp_path, "--seed", 4, "--set", f"histogram={hist}",
            "--set", "params.gamma_L=1", "--set", "params.gamma_R=5",
            "--set", f"params.beta={math.pi / 4}", "--set", "params.E=60",
        ]

    def test_tomography_json_schema(self, tmp_path):
        p = det.DetectorParams(1.0, 5.0, math.pi / 4, 60.0)
        hist = self.make_histogram(tmp_path, p, tomo.BlochComponents(0.3, -0.4, 0.5))
        assert run_cli(self.fit_args(tmp_path / "state", hist)) == 0
        with open(tmp_path / "state" / "tomography.json") as fh:
            check_tomography_json(json.load(fh), 0)
        assert run_cli(self.fit_args(tmp_path / "free", hist) + self.FREE_E) == 0
        with open(tmp_path / "free" / "tomography.json") as fh:
            record = json.load(fh)
        check_tomography_json(record, 1)
        assert len(record["starts"]) == 3 and record["converged"]
        assert record["scan_points"] == FIT_SCAN_POINTS

    def test_cached_cell_model_writes_same_file(self, tmp_path):
        """Two state-only calls on one histogram, the first filling the
        cell-model cache and the second reading it, write the same bytes."""
        p = det.DetectorParams(1.0, 5.0, math.pi / 4, 60.0)
        hist = self.make_histogram(tmp_path, p, tomo.BlochComponents(0.3, -0.4, 0.5), n=5000)
        tomo._cell_model.cache_clear()
        assert run_cli(self.fit_args(tmp_path / "miss", hist)) == 0
        assert run_cli(self.fit_args(tmp_path / "hit", hist)) == 0
        assert tomo._cell_model.cache_info().hits == 1
        assert (tmp_path / "miss" / "tomography.json").read_bytes() == (tmp_path / "hit" / "tomography.json").read_bytes()

    def test_failed_fit_writes_start_table(self, tmp_path, monkeypatch):
        p = det.DetectorParams(1.0, 5.0, math.pi / 4, 60.0)
        hist = self.make_histogram(tmp_path, p, tomo.BlochComponents(0.3, -0.4, 0.5), n=5000)

        real = tomo._bounded_lm

        def diverges(fun, jac, x0, *args, **kwargs):
            # every start's residuals fail, in the batch that steps them together
            def failing(rows, x):
                values, _ = fun(rows, x)
                return values, {i: FloatingPointError("residuals are not finite") for i in range(len(rows))}

            return real(failing, jac, x0, *args, **kwargs)

        monkeypatch.setattr(tomo, "_bounded_lm", diverges)
        assert run_cli(self.fit_args(tmp_path, hist) + self.FREE_E) == 4
        with open(tmp_path / "tomography.json") as fh:
            record = json.load(fh)
        assert set(record) == {"converged", "error", "starts", "scan_points"} and record["converged"] is False
        assert record["scan_points"] == FIT_SCAN_POINTS
        # with no start ended, the polish goes on, three scan points at a
        # time, up to FIT_POLISH_CAP points
        assert len(record["starts"]) == FIT_POLISH_CAP
        for start in record["starts"]:
            check_start_record(start, 1)
            assert start["error"] == "FloatingPointError: residuals are not finite"
            assert 55.0 <= start["x0"][0] <= 65.0

    def test_not_identifiable_exit(self, tmp_path):
        p = det.DetectorParams(1.0, 5.0, 0.0, 60.0)
        hist = self.make_histogram(tmp_path, p, tomo.BlochComponents(0, 0, 0.5), n=5000)
        code = run_cli(
            [
                "tomography", "--out", tmp_path, "--seed", 4,
                "--set", f"histogram={hist}",
                "--set", "params.gamma_L=1", "--set", "params.gamma_R=5",
                "--set", "params.beta=0", "--set", "params.E=60",
            ]
        )
        assert code == 5
        with open(tmp_path / "tomography.json") as fh:
            assert json.load(fh)["converged"] is False

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_two_bins_not_identifiable(self, tmp_path, seed):
        """Two bins give three cells, two independent probabilities for the
        three Bloch components: a state-only fit is refused (exit 5)."""
        sim = tmp_path / "sim"
        sets = param_sets(CONFIGS[0]) + [
            "--set", "bloch.x=0.3", "--set", "bloch.y=-0.4", "--set", "bloch.z=0.5",
            "--set", "n_traj=300000", "--set", "n_bins=2", "--set", "tau=1.2",
        ]
        assert run_cli(["simulate", "--out", sim, "--seed", seed] + sets) == 0
        fit = ["tomography", "--out", tmp_path / "fit", "--seed", seed, "--set", f"histogram={sim / 'histogram.csv'}"]
        assert run_cli(fit + param_sets(CONFIGS[0])) == 5
        with open(tmp_path / "fit" / "tomography.json") as fh:
            record = json.load(fh)
        assert record["converged"] is False
        assert record["error"].startswith("degenerate directions")

    @pytest.fixture(scope="class")
    def readme_histogram(self, tmp_path_factory):
        """README's all-in-one histogram: C1, 300000 trajectories, seed 7."""
        out = tmp_path_factory.mktemp("readme")
        sets = param_sets((1, 5, 0.785, 60)) + [
            "--set", "bloch.x=0.3", "--set", "bloch.y=-0.4", "--set", "bloch.z=0.5",
            "--set", "n_traj=300000", "--set", "n_bins=150", "--set", "tau=1.2",
        ]
        assert run_cli(["simulate", "--out", out, "--seed", 7] + sets) == 0
        return out / "histogram.csv"

    @pytest.mark.parametrize("seed, beta", [(seed, 0.786047) for seed in range(1, 8)])
    def test_readme_free_beta_twin(self, tmp_path, readme_histogram, seed, beta):
        """README's histogram fitted with beta alone free.  The default
        bounds [0, pi/2] hold one of the mirror optima 0.786 and
        pi - 0.786 = 2.3555, so every --seed converges to beta = 0.786 with
        z = +0.5036.  Bounds [0, pi] hold both: the fit refuses the sign of
        z at every seed (exit 5), naming the mirror point."""
        fit = ["tomography", "--out", tmp_path / "half", "--seed", seed, "--set", f"histogram={readme_histogram}"]
        fit += param_sets((1, 5, 0.785, 60)) + ["--set", 'free_params=["beta"]']
        assert run_cli(fit) == 0
        with open(tmp_path / "half" / "tomography.json") as fh:
            record = json.load(fh)
        assert record["converged"] is True
        assert record["params"]["beta"] == pytest.approx(beta, abs=1e-6)
        assert record["bloch"]["z"] == pytest.approx(0.5036, abs=1e-4)
        assert record["starts"][record["best_start"]]["status"] in (1, 2)
        fit[2] = tmp_path / "full"
        assert run_cli(fit + ["--set", 'bounds={"beta": [0, 3.14159]}']) == 5
        with open(tmp_path / "full" / "tomography.json") as fh:
            record = json.load(fh)
        assert record["converged"] is False
        assert "its mirror pi - beta = " in record["error"] and "bound beta on one side of pi/2" in record["error"]

    @pytest.mark.parametrize(
        "sets",
        [
            ["n_starts=0"],
            ["params.gamma_R=0"],
            ['bounds={"x": [0.5, -0.5]}'],
            # free bounds that are not finite or leave the parameter's domain
            ['free_params=["beta"]', 'bounds={"beta": [NaN, 1]}'],
            ['free_params=["beta"]', 'bounds={"beta": [-1, 1]}'],
            ['free_params=["beta"]', 'bounds={"beta": [0.5, 4]}'],
            ['free_params=["E"]', 'bounds={"E": [55, Infinity]}'],
        ],
    )
    def test_bad_values_exit_config(self, tmp_path, sets):
        p = det.DetectorParams(1.0, 5.0, math.pi / 4, 60.0)
        hist = self.make_histogram(tmp_path, p, tomo.BlochComponents(0, 0, 0.5), n=2000)
        args = ["tomography", "--out", tmp_path, "--set", f"histogram={hist}"]
        for assignment in sets:
            args += ["--set", assignment]
        assert run_cli(args) == 2
        assert not (tmp_path / "tomography.json").exists()

    @pytest.mark.parametrize("free", [[], FREE_E])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_philox_key_exits_config(self, tmp_path, capsys, free, seed):
        p = det.DetectorParams(1.0, 5.0, math.pi / 4, 60.0)
        hist = self.make_histogram(tmp_path, p, tomo.BlochComponents(0, 0, 0.5), n=2000)
        args = self.fit_args(tmp_path / "out", hist) + free + ["--seed", seed]
        assert run_cli(args) == 2
        assert "seed must lie in [0, 2**64)" in capsys.readouterr().err
        assert not (tmp_path / "out" / "tomography.json").exists()

    def test_malformed_histogram_exit_simulation(self, tmp_path):
        hist = tmp_path / "hist.csv"
        hist.write_text("start,end,count\n0.0,1.0,5\n#no_switch,0\n#total,5\n")
        assert run_cli(["tomography", "--out", tmp_path, "--set", f"histogram={hist}"]) == 3

    @pytest.mark.parametrize("edge", ["last_nan", "first_negative"])
    def test_bad_edge_exit_simulation(self, tmp_path, capsys, edge):
        """A NaN last edge or a negative first edge is a malformed file, not
        a fit that fails in LAPACK or converges on cells no model has."""
        p = det.DetectorParams(1.0, 5.0, math.pi / 4, 60.0)
        hist = self.make_histogram(tmp_path, p, tomo.BlochComponents(0.3, -0.4, 0.5), n=5000)
        lines = hist.read_text().splitlines()
        if edge == "last_nan":
            start, _, count = lines[-3].split(",")
            lines[-3] = f"{start},nan,{count}"
        else:
            lines[1] = "-0.5," + lines[1].split(",", 1)[1]
        hist.write_text("\n".join(lines) + "\n")
        assert run_cli(self.fit_args(tmp_path / "out", hist)) == 3
        assert "bin edges must" in capsys.readouterr().err
        assert not (tmp_path / "out" / "tomography.json").exists()


class TestSCurvesCommand:
    def test_outputs_and_separation_bound(self, tmp_path):
        assert run_cli(["scurves", "--out", tmp_path]) == 0
        for kind in ("strong", "weak_incoherent", "weak_coherent"):
            assert (tmp_path / f"scurve_{kind}.csv").exists()
            assert (tmp_path / f"fidelity_{kind}.csv").exists()
        rows = [
            tuple(map(float, r.split(",")))
            for r in (tmp_path / "scurve_strong.csv").read_text().strip().splitlines()[1:]
        ]
        # separation bounded by 2m - 1 = 0.4 at mixing 0.7
        assert all(abs(r[4] - r[3]) <= 0.4 + 1e-9 for r in rows)

    def test_beta_zero_identical_curves(self, tmp_path):
        assert (
            run_cli(["scurves", "--out", tmp_path, "--set", "mixing_p=1.0"]) == 0
        )
        ref = None
        for kind in ("strong", "weak_incoherent", "weak_coherent"):
            rows = (tmp_path / f"scurve_{kind}.csv").read_text()
            if ref is None:
                ref = rows
            else:
                assert rows == ref

    def test_steepness_increases_coherent_fidelity(self, tmp_path):
        a, b = tmp_path / "s5", tmp_path / "s10"
        run_cli(["scurves", "--out", a, "--set", 'kinds=["weak_coherent"]'])
        run_cli(
            ["scurves", "--out", b, "--set", 'kinds=["weak_coherent"]', "--set", "steepness=10"]
        )

        def fidelity_at(path, beta):
            rows = [
                tuple(map(float, r.split(",")))
                for r in (path / "fidelity_weak_coherent.csv").read_text().strip().splitlines()[1:]
            ]
            return min(rows, key=lambda r: abs(r[0] - beta))[1]

        assert fidelity_at(b, math.pi / 3) > fidelity_at(a, math.pi / 3)

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(["scurves", "--out", a])
        run_cli(["scurves", "--out", b])
        for kind in ("strong", "weak_incoherent", "weak_coherent"):
            assert (a / f"scurve_{kind}.csv").read_bytes() == (
                b / f"scurve_{kind}.csv"
            ).read_bytes()


class TestCoherentCommand:
    def test_outputs(self, tmp_path):
        assert run_cli(["coherent", "--out", tmp_path]) == 0
        for law in ("dominant_coupling", "large_bias"):
            rows = [
                tuple(map(float, r.split(",")))
                for r in (tmp_path / f"coherent_{law}.csv").read_text().strip().splitlines()[1:]
            ]
            # fidelity vanishes at the degeneracy point
            assert rows[-1][3] == pytest.approx(0.0, abs=1e-9)
        dom = [
            tuple(map(float, r.split(",")))
            for r in (tmp_path / "coherent_dominant_coupling.csv").read_text().strip().splitlines()[1:]
        ]
        assert dom[0][3] == pytest.approx(1.0)  # beta = 0

    @pytest.mark.parametrize("key", ["g_L", "g_R", "eps_L", "eps_R"])
    def test_coupling_keys_unknown(self, tmp_path, key):
        # neither rate law reads the couplings or biases
        assert run_cli(["coherent", "--out", tmp_path, "--set", f"{key}=1"]) == 2

    def test_rate_scale_changes_outputs(self, tmp_path):
        assert run_cli(["coherent", "--out", tmp_path / "a"]) == 0
        assert run_cli(["coherent", "--out", tmp_path / "b", "--set", "rate_scale=2"]) == 0
        for law in ("dominant_coupling", "large_bias"):
            name = f"coherent_{law}.csv"
            assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()


class TestParser:
    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["frobnicate"])

    def test_parser_built_once_and_reusable(self):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        assert parser.parse_args(["simulate", "--set", "n_traj=5", "--set", "tau=2"]).sets == ["n_traj=5", "tau=2"]
        assert parser.parse_args(["simulate"]).sets is None
        assert parser.parse_args(["simulate", "--set", "seed=3"]).sets == ["seed=3"]
        # the shared parser still rejects an unknown subcommand, through main too
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 2

    def test_repeated_main_calls_match_single_calls(self, tmp_path):
        """main may be called many times in one process: no --set of one
        call reaches the next, so each writes what a call alone writes."""
        first = ["simulate", "--seed", 5, "--set", "n_traj=5000", "--set", "bloch.z=0.5", "--set", "time_unit=2"]
        second = ["simulate", "--seed", 6, "--set", "n_traj=4000"]
        assert run_cli(first + ["--out", tmp_path / "first"]) == 0
        assert run_cli(second + ["--out", tmp_path / "second"]) == 0
        for name, args in (("first", first), ("second", second)):
            alone = tmp_path / f"{name}_alone"
            fresh_process("-m", "switchsim.cli", *args, "--out", alone)
            assert strip_elapsed(read_summary(tmp_path / name)) == strip_elapsed(read_summary(alone))
            assert (tmp_path / name / "histogram.csv").read_bytes() == (alone / "histogram.csv").read_bytes()
        echo = read_summary(tmp_path / "second")["config_echo"]
        assert echo == cli.load_config("simulate", None, ["n_traj=4000"], 6)
        assert echo["bloch"]["z"] == 0.0 and echo["time_unit"] is None

    def test_set_parsing(self):
        cfg = {}
        cli._apply_set(cfg, "a.b=3")
        cli._apply_set(cfg, 'c=["x"]')
        cli._apply_set(cfg, "d=text")
        assert cfg == {"a": {"b": 3}, "c": ["x"], "d": "text"}


class TestConfigAndFiles:
    def test_overrides_leave_defaults_unchanged(self, tmp_path):
        before = copy.deepcopy(cli.DEFAULTS)
        params = param_sets(CONFIGS[0])
        small = ["--set", "n_traj=2000", "--set", "tau=1.2", *params]
        assert run_cli(["simulate", "--out", tmp_path / "a", *small, "--set", "params.gamma_R=4"]) == 0
        assert run_cli(["simulate", "--out", tmp_path / "b", *small, "--set", 'bloch={"x": 0.5}']) == 0
        histogram = f"histogram={tmp_path / 'a' / 'histogram.csv'}"
        fit = ["tomography", "--set", histogram, *params, "--set", "params.gamma_R=4"]
        bounds = ["--set", 'bounds={"E": [0, 10]}', "--set", "bounds.beta=[0, 1]"]
        assert run_cli(fit + ["--out", tmp_path / "c", *bounds]) == 0
        assert read_summary(tmp_path / "b")["config_echo"]["bloch"] == {"x": 0.5, "y": 0.0, "z": 0.0}
        assert read_summary(tmp_path / "c")["config_echo"]["bounds"] == {"E": [0, 10], "beta": [0, 1]}
        assert cli.DEFAULTS == before

    def test_unknown_nested_key(self, tmp_path, capsys):
        assert run_cli(["simulate", "--out", tmp_path, "--set", "params.gamma_X=1"]) == 2
        assert "unknown config key 'params.gamma_X' for simulate" in capsys.readouterr().err

    def test_file_errors_exit_config(self, tmp_path, capsys):
        """A file a command cannot read or write is a config error (exit 2),
        like a missing --config: a missing histogram, and an --out that is
        a file or lies under one."""
        (tmp_path / "file").write_text("")
        cases = (
            ["tomography", "--out", tmp_path / "out", "--set", f"histogram={tmp_path / 'nope.csv'}"],
            ["fidelity", "--out", tmp_path / "file"],
            ["fidelity", "--out", tmp_path / "file" / "sub"],
        )
        for args in cases:
            assert run_cli(args) == 2
            assert capsys.readouterr().err.startswith("config error: ")


def test_import_leaves_out_scipy_integrate():
    # the package integrates with its own Gauss-Kronrod rule; importing
    # scipy.integrate would only lengthen every start-up
    out = fresh_process("-c", "import sys, switchsim, switchsim.cli; print('scipy.integrate' in sys.modules)")
    assert out.stdout.strip() == "False"


# a fresh interpreter in which every import of scipy fails runs the given
# CLI argv lists in the given directory and prints their exit codes
WITHOUT_SCIPY = """
import json, os, sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"import of {name} refused", name=name)
        return None


sys.meta_path.insert(0, RefuseScipy())
os.chdir(sys.argv[1])
from switchsim import cli

print(json.dumps([cli.main(argv) for argv in json.loads(sys.argv[2])]))
"""


def readme_all_in_one():
    """The argv lists of README's all-in-one simulate and tomography pair."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("### All-in-one fitting", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    assert [command[:2] for command in commands] == [["switchsim", "simulate"], ["switchsim", "tomography"]]
    return [command[1:] for command in commands]


def test_cli_runs_without_scipy(tmp_path):
    """numpy is the only run-time dependency: README's all-in-one pair, a
    simulate and a free-parameter tomography, runs where scipy cannot be
    imported."""
    out = fresh_process("-c", WITHOUT_SCIPY, tmp_path, json.dumps(readme_all_in_one()))
    assert json.loads(out.stdout) == [0, 0]
    with open(tmp_path / "out" / "tomography.json") as fh:
        record = json.load(fh)
    assert record["converged"] is True and record["free_names"][3:] == ["gamma_R", "beta", "E"]
