"""Command-line front end.

Each subcommand reads one JSON config (all keys optional, unknown keys
rejected), applies `--set key=value` overrides, and writes CSV/JSON
outputs into `--out`.  Outputs are deterministic given the config and
seed; only the elapsed-time entry of the summary varies between runs.

Exit codes: 0 success, 2 config validation or a file that cannot be read
or written, 3 simulation error, 4 fit non-convergence, 5 not identifiable
(the configuration, or a histogram with too few bins).
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import coherent as coh
from . import measurement as meas
from . import scurves as sc
from . import tomography as tomo
from . import trajectory as traj
from .detector import DetectorParams
from .errors import (
    ConfigError,
    InsufficientCountsError,
    NoConvergenceError,
    NotIdentifiableError,
    SwitchSimError,
    UnphysicalBlochError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIMULATION = 3
EXIT_NO_CONVERGENCE = 4
EXIT_NOT_IDENTIFIABLE = 5

DEFAULT_PARAMS = {"gamma_L": 1.0, "gamma_R": 10.0, "beta": 0.0, "E": 0.0}

DEFAULTS = {
    "fidelity": {
        "ratio": 10.0,
        "n_points": 200,
        "t_max_over_tau0": 6.0,
        "ratio_sweep": {"lo": 1.0, "hi": 1e6, "n": 121},
        "beta_points": 101,
    },
    "simulate": {
        "params": dict(DEFAULT_PARAMS),
        "bloch": {"x": 0.0, "y": 0.0, "z": 0.0},
        "n_traj": 100000,
        "tau": 1.0,
        "n_bins": 50,
        "seed": 1,
        "time_unit": None,
    },
    "tomography": {
        "histogram": "histogram.csv",
        "params": dict(DEFAULT_PARAMS),
        "free_params": [],
        "free_bloch": ["x", "y", "z"],
        "bounds": {},
        "n_starts": 2,
        "seed": 1,
        "time_unit": None,
    },
    "scurves": {
        "kinds": list(sc.KINDS),
        "mixing_p": 0.7,
        "x_range": [-1.0, 3.0, 201],
        "steepness": 5.0,
        "pulse": 1.0,
        "beta_points": 101,
    },
    "coherent": {
        "rate_scale": 1.0,
        "gamma1_cap": None,
        "beta_points": 101,
    },
}

# config subtrees whose keys are validated downstream, not by the schema
_OPEN_SUBTREES = {("tomography", "bounds")}


def _merge(command: str, config: dict, provided: dict, path=()) -> None:
    """Write the provided entries into config, a copy of the defaults, a
    nested dict key by key; a key the defaults lack is a ConfigError,
    except inside _OPEN_SUBTREES, which take the provided dict whole."""
    for key, value in provided.items():
        if key not in config:
            dotted = ".".join(path + (key,))
            raise ConfigError(f"unknown config key {dotted!r} for {command}")
        if isinstance(value, dict) and isinstance(config[key], dict) and (command, *path, key) not in _OPEN_SUBTREES:
            _merge(command, config[key], value, path + (key,))
        else:
            config[key] = value


def _apply_set(config: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"--set expects key=value, got {assignment!r}")
    dotted, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = config
    keys = dotted.split(".")
    for key in keys[:-1]:
        if key not in node or not isinstance(node[key], dict):
            node[key] = {}
        node = node[key]
    node[keys[-1]] = value


def load_config(command: str, config_path, sets, seed) -> dict:
    provided = {}
    if config_path is not None:
        with open(config_path, "r", encoding="utf-8") as fh:
            provided = json.load(fh)
        if not isinstance(provided, dict):
            raise ConfigError("config file must contain a JSON object")
    for assignment in sets or ():
        _apply_set(provided, assignment)
    config = copy.deepcopy(DEFAULTS[command])
    _merge(command, config, provided)
    if seed is not None:
        if "seed" not in DEFAULTS[command]:
            raise ConfigError(f"{command} takes no seed")
        config["seed"] = int(seed)
    return config


def _params_from(config_entry: dict) -> DetectorParams:
    return DetectorParams(
        gamma_L=float(config_entry["gamma_L"]),
        gamma_R=float(config_entry["gamma_R"]),
        beta=float(config_entry["beta"]),
        E=float(config_entry["E"]),
    )


def _write_json(path: Path, payload: dict) -> None:
    # one write of the whole text: json.dump would write each token alone
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _summary(config: dict, started: float, extra: dict) -> dict:
    return {
        "tool_version": __version__,
        "config_echo": config,
        "elapsed_seconds": time.monotonic() - started,
        **extra,
    }


def cmd_fidelity(config: dict, out: Path) -> dict:
    ratio = float(config["ratio"])
    if ratio <= 1.0:
        raise ConfigError("ratio must exceed 1")
    p = DetectorParams(1.0, ratio, 0.0, 0.0)
    tau0 = meas.case1_tau0(p)

    ts = np.linspace(0.0, config["t_max_over_tau0"] * tau0, int(config["n_points"]))
    fid_t = [meas.case1_switch_fidelity(p, float(t)) for t in ts]
    sc.write_fidelity_csv(
        meas.FidelityCurve(ts / tau0, np.array(fid_t), "t_over_tau0"),
        out / "fig2.csv",
        label="t_over_tau0",
    )

    sweep = config["ratio_sweep"]
    ratios = np.geomspace(float(sweep["lo"]), float(sweep["hi"]), int(sweep["n"]))
    overall = [meas.two_rate_overall_fidelity(1.0, float(r)) for r in ratios]
    sc.write_fidelity_csv(
        meas.FidelityCurve(ratios, np.array(overall), "rate_ratio"),
        out / "fig3.csv",
        label="rate_ratio",
    )

    betas = np.linspace(0.0, math.pi / 2, int(config["beta_points"]))
    curve = meas.slow_regime_max_fidelity_curve(1.0, betas)
    sc.write_fidelity_csv(curve, out / "fig4.csv", label="beta")
    return {"tau0": tau0, "files": ["fig2.csv", "fig3.csv", "fig4.csv"]}


@contextlib.contextmanager
def _config_values():
    """Report a value that the library rejects while a command reads its
    config as a config error (exit 2); the command builds every such value
    before it starts work."""
    try:
        yield
    except (TypeError, ValueError, UnphysicalBlochError) as exc:
        raise ConfigError(str(exc)) from exc


def _time_scale(config: dict, p: DetectorParams) -> float:
    """Histogram CSV time unit: `time_unit`, or gamma_R when it is unset."""
    time_unit = config["time_unit"]
    scale = float(time_unit) if time_unit is not None else p.gamma_R
    if not (scale > 0.0 and math.isfinite(scale)):
        raise ConfigError(
            f"histogram time scale is {scale}; set time_unit to a positive value"
        )
    return scale


def cmd_simulate(config: dict, out: Path) -> dict:
    with _config_values():
        p = _params_from(config["params"])
        b = config["bloch"]
        rho0 = tomo.BlochComponents(float(b["x"]), float(b["y"]), float(b["z"])).to_density()
        cfg = traj.SimConfig(
            n_traj=int(config["n_traj"]),
            tau=float(config["tau"]),
            seed=int(config["seed"]),
            n_bins=int(config["n_bins"]),
        )
        scale = _time_scale(config, p)
    h, time_sum = traj._binned_ensemble(p, rho0, cfg)
    switched = cfg.n_traj - h.no_switch_count
    traj.write_histogram_csv(h, out / "histogram.csv", time_scale=scale)
    try:
        stat, dof, pval = traj.chi2_vs_analytic(h, p, rho0)
        chi2 = {"statistic": stat, "dof": dof, "p_value": pval}
    except InsufficientCountsError:
        chi2 = None  # one populated cell, as for a dark state: no statistic
    return {
        "files": ["histogram.csv"],
        "no_switch_fraction": h.no_switch_count / cfg.n_traj,
        "mean_switch_time": time_sum / switched if switched else None,
        "time_unit_scale": scale,
        "chi2": chi2,
    }


def cmd_tomography(config: dict, out: Path) -> dict:
    with _config_values():
        p = _params_from(config["params"])
        scale = _time_scale(config, p)
        options = dict(
            bounds=config["bounds"] or None,
            free_bloch=tuple(config["free_bloch"]),
            free_params=tuple(config["free_params"]),
            n_starts=int(config["n_starts"]),
        )
        tomo.search_box(**options)
        seed = traj._checked_seed(int(config["seed"]))
    h = traj.read_histogram_csv(config["histogram"], time_scale=scale)
    result = tomo.fit(h, p, seed=seed, **options)
    _write_json(out / "tomography.json", result.to_json_dict())
    return {"files": ["tomography.json"], "converged": result.converged}


def cmd_scurves(config: dict, out: Path) -> dict:
    files = []
    x_range = tuple(config["x_range"])
    betas = np.linspace(0.0, math.pi / 2, int(config["beta_points"]))
    for kind in config["kinds"]:
        spec = sc.SCurveSpec(
            detector_kind=kind,
            mixing_p=float(config["mixing_p"]),
            x_range=(float(x_range[0]), float(x_range[1]), int(x_range[2])),
            steepness=float(config["steepness"]),
            pulse=float(config["pulse"]),
        )
        name = f"scurve_{kind}.csv"
        sc.write_scurve_csv(sc.scurve(spec), out / name)
        files.append(name)
        curve = sc.max_fidelity_vs_beta(
            kind,
            betas,
            steepness=float(config["steepness"]),
            pulse=float(config["pulse"]),
            x_range=(float(x_range[0]), float(x_range[1])),
        )
        name = f"fidelity_{kind}.csv"
        sc.write_fidelity_csv(curve, out / name)
        files.append(name)
    return {"files": files}


def cmd_coherent(config: dict, out: Path) -> dict:
    betas = np.linspace(0.0, math.pi / 2, int(config["beta_points"]))
    files = []
    for law_name, law in (
        ("dominant_coupling", coh.rates_dominant_coupling),
        ("large_bias", coh.rates_large_bias),
    ):
        name = f"coherent_{law_name}.csv"
        with open(out / name, "w", encoding="utf-8") as fh:
            fh.write("beta,gamma_0,gamma_1,fidelity\n")
            for beta in betas:
                # neither rate law reads the couplings or biases
                params = coh.CoherentDetectorParams(
                    g_L=0.0,
                    g_R=1.0,
                    eps_L=0.0,
                    eps_R=0.0,
                    beta=float(beta),
                    rate_scale=float(config["rate_scale"]),
                    gamma1_cap=float(config["gamma1_cap"] or 0.0),
                )
                rates = law(params)
                fid = coh.coherent_fidelity(rates)
                fh.write(
                    f"{repr(float(beta))},{repr(rates.gamma_0)},"
                    f"{repr(rates.gamma_1)},{repr(fid)}\n"
                )
        files.append(name)
    return {"files": files}


_COMMANDS = {
    "fidelity": cmd_fidelity,
    "simulate": cmd_simulate,
    "tomography": cmd_tomography,
    "scurves": cmd_scurves,
    "coherent": cmd_coherent,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged (each call gets a fresh namespace, and `append` copies its
    list), so repeated `main` calls share it."""
    parser = argparse.ArgumentParser(
        prog="switchsim",
        description="Switching-detector qubit readout: curves, ensembles, tomography.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", type=Path, default=None, help="JSON config file")
        cmd.add_argument("--out", type=Path, default=Path("."), help="output directory")
        cmd.add_argument(
            "--set",
            dest="sets",
            action="append",
            metavar="KEY=VALUE",
            help="override a config entry (dotted keys, JSON values)",
        )
        cmd.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    out = args.out
    try:
        config = load_config(args.command, args.config, args.sets, args.seed)
        out.mkdir(parents=True, exist_ok=True)
        try:
            extra = _COMMANDS[args.command](config, out)
        except ConfigError:
            raise
        except NotIdentifiableError as exc:
            _write_json(out / "tomography.json", {"converged": False, "error": str(exc)})
            print(f"not identifiable: {exc}", file=sys.stderr)
            return EXIT_NOT_IDENTIFIABLE
        except NoConvergenceError as exc:
            starts = [dataclasses.asdict(start) for start in exc.starts]
            record = {"converged": False, "error": str(exc), "starts": starts, "scan_points": exc.scan_points}
            _write_json(out / "tomography.json", record)
            print(f"fit failed: {exc}", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
        except (SwitchSimError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG if args.command in ("fidelity", "scurves", "coherent") else EXIT_SIMULATION
        _write_json(out / "summary.json", _summary(config, started, extra))
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
