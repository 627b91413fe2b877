"""The three benchmark workloads: inputs from a seed, one job, its checks.

Every job calls switchsim the way a user does: `cli.main(argv)` in-process,
or a library function where no subcommand exists.  A job's program calls
are timed; its output checks run afterwards and are not.

An *operation* is one CLI call, or one library call at one parameter
point.  It fails on an exception, a non-zero exit code or a failed output
check.  An operation marked `known` is expected to fail on the current
code (a defect recorded in ROADMAP.md); it still counts as failed, but it
does not make the run incorrect.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import expm

N_TRAJ = 1_000_000
N_BINS = 150

# (name, gamma_L, gamma_R, beta, E); C1 is acceptance criterion 08.
CONFIGS = (
    ("C1", 1.0, 5.0, math.pi / 4, 60.0),
    ("C2", 0.0, 10.0, math.pi / 3, 200.0),
    ("C3", 2.0, 8.0, 1.0, 20.0),
    ("C4", 1.0, 4.0, 0.6, 120.0),
)
FREE_PARAMS = ["gamma_R", "beta", "E"]

BLOCH_ABS_TOL = 0.02  # criterion 08
BLOCH_SIGMAS = 5.0
CHI2_MIN_P = 1e-6


@dataclass
class Op:
    """Outcome of one operation."""

    name: str
    ok: bool
    detail: str = ""
    known: bool = False


def attempt(fn, *args):
    """Run one program call; return (value, None) or (None, exception)."""
    try:
        return fn(*args), None
    except Exception as exc:  # the benchmark must keep running to count it
        return None, exc


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def random_bloch(rng: np.random.Generator, radius: float = 0.9) -> tuple[float, float, float]:
    """A point drawn uniformly from the ball of the given radius."""
    v = rng.standard_normal(3)
    v *= radius * rng.random() ** (1.0 / 3.0) / np.linalg.norm(v)
    return float(v[0]), float(v[1]), float(v[2])


def tau_of(cfg) -> float:
    _, gl, gr, _, _ = cfg
    return 3.6 / (0.5 * (gl + gr))


def param_sets(cfg) -> list[str]:
    _, gl, gr, beta, e = cfg
    return [
        "--set", f"params.gamma_L={gl!r}",
        "--set", f"params.gamma_R={gr!r}",
        "--set", f"params.beta={beta!r}",
        "--set", f"params.E={e!r}",
    ]


def free_fit_sets(cfg) -> list[str]:
    """Free gamma_R, beta and E inside a box around the truth, scaled like
    the README's all-in-one example ([3, 8], [0.4, 1.3], [55, 65] at C1)."""
    _, _, gr, beta, e = cfg
    box = {
        "gamma_R": [0.6 * gr, 1.6 * gr],
        "beta": [max(beta - 0.385, 0.0), min(beta + 0.515, math.pi)],
        "E": [e * 11.0 / 12.0, e * 13.0 / 12.0],
    }
    return ["--set", "free_params=" + json.dumps(FREE_PARAMS), "--set", "bounds=" + json.dumps(box)]


# ---------------------------------------------------------------- references


def reference_cell_probabilities(cfg, bloch, edges: np.ndarray) -> np.ndarray:
    """Histogram cell probabilities (no-switch cell last) from scipy's expm.

    Independent of switchsim: G = diag(iE/2, -iE/2) - Gamma/2 with
    Gamma = gamma_L |L><L| + gamma_R |R><R| and S(t) = Tr(e^{Gt} rho e^{G^dag t}).
    """
    _, gl, gr, beta, e = cfg
    left = np.array([math.cos(beta / 2), math.sin(beta / 2)])
    right = np.array([math.sin(beta / 2), -math.cos(beta / 2)])
    gamma = gl * np.outer(left, left) + gr * np.outer(right, right)
    gen = np.diag([0.5j * e, -0.5j * e]) - 0.5 * gamma
    x, y, z = bloch
    rho = 0.5 * np.array([[1 - z, x - 1j * y], [x + 1j * y, 1 + z]])
    surv = np.array([np.trace((u := expm(gen * t)) @ rho @ u.conj().T).real for t in edges])
    probs = np.clip(np.append(-np.diff(surv), surv[-1]), 0.0, None)
    return probs / probs.sum()


def write_histogram(path: Path, edges: np.ndarray, cells: np.ndarray, scale: float) -> None:
    """The CLI's histogram CSV format, times in units of 1/scale."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bin_start,bin_end,count\n")
        for i, c in enumerate(cells[:-1]):
            fh.write(f"{float(edges[i] * scale)!r},{float(edges[i + 1] * scale)!r},{int(c)}\n")
        fh.write(f"#no_switch,{int(cells[-1])}\n#total,{int(cells.sum())}\n")


def histogram_total(path: Path) -> tuple[int, int]:
    """(sum of bin counts plus no-switch count, the #total row)."""
    counted = total = 0
    with open(path, "r", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            if line.startswith("#no_switch,"):
                counted += int(line.split(",")[1])
            elif line.startswith("#total,"):
                total = int(line.split(",")[1])
            elif line.strip():
                counted += int(line.rsplit(",", 1)[1])
    return counted, total


def check_fit(name: str, fit_dir: Path, rc, exc, truth, abs_tol: bool) -> tuple[Op, float]:
    """Exit 0, converged, and each Bloch component within BLOCH_SIGMAS of
    the fit's own covariance (and within BLOCH_ABS_TOL when abs_tol)."""
    if exc is not None:
        return Op(name, False, _describe(exc)), 0.0
    if rc != 0:
        return Op(name, False, f"exit code {rc}"), 0.0
    with open(fit_dir / "tomography.json", "r", encoding="utf-8") as fh:
        res = json.load(fh)
    if not res.get("converged"):
        return Op(name, False, "converged: false"), 0.0
    n = len(res["free_names"])
    sigma = np.sqrt(np.diag(np.asarray(res["covariance"], dtype=float).reshape(n, n))[:3])
    errs = np.abs(np.array([res["bloch"][k] for k in "xyz"]) - np.asarray(truth))
    bad = errs > BLOCH_SIGMAS * sigma
    if abs_tol:
        bad |= errs > BLOCH_ABS_TOL
    detail = "" if not bad.any() else f"bloch error {errs.tolist()} sigma {sigma.tolist()}"
    return Op(name, not bad.any(), detail), float(errs.max())


def _read_csv(path: Path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array(rows, dtype=float)


class Roundtrip:
    """CLI simulate (exact sampler, 1e6 trajectories) then CLI tomography."""

    name = "roundtrip"
    cycle = len(CONFIGS)

    def __init__(self, seed: int, cli):
        self.seed = seed
        self.cli = cli

    def make_inputs(self, area: Path) -> None:
        # the sampler's work grows with the switched fraction, which the state
        # sets; a fixed warm-up state keeps setup_s from following the seed
        self.warmup = (CONFIGS[0], (0.0, 0.0, 0.0), self.seed + 1)

    def job_at(self, i):
        rng = np.random.default_rng((self.seed, i))
        return CONFIGS[i % len(CONFIGS)], random_bloch(rng), int(rng.integers(1, 2**31))

    def run(self, job, out: Path):
        cfg, bloch, sim_seed = job
        sim, fit = out / "sim", out / "fit"
        sets = param_sets(cfg) + [
            "--set", f"bloch.x={bloch[0]!r}", "--set", f"bloch.y={bloch[1]!r}",
            "--set", f"bloch.z={bloch[2]!r}", "--set", f"n_traj={N_TRAJ}",
            "--set", f"n_bins={N_BINS}", "--set", f"tau={tau_of(cfg)!r}",
        ]
        sim_res = attempt(self.cli.main, ["simulate", "--out", str(sim), "--seed", str(sim_seed)] + sets)
        fit_argv = ["tomography", "--out", str(fit), "--set", f"histogram={sim / 'histogram.csv'}"]
        fit_res = attempt(self.cli.main, fit_argv + param_sets(cfg))
        return sim_res, fit_res

    def check(self, job, raw, out: Path) -> tuple[list[Op], float]:
        cfg, bloch, _ = job
        (rc, exc), (fit_rc, fit_exc) = raw
        sim_op = Op(f"simulate[{cfg[0]}]", True)
        if exc is not None:
            sim_op = Op(sim_op.name, False, _describe(exc))
        elif rc != 0:
            sim_op = Op(sim_op.name, False, f"exit code {rc}")
        else:
            with open(out / "sim" / "summary.json", "r", encoding="utf-8") as fh:
                pval = json.load(fh)["chi2"]["p_value"]
            counted, total = histogram_total(out / "sim" / "histogram.csv")
            if not pval >= CHI2_MIN_P:
                sim_op = Op(sim_op.name, False, f"chi2 p-value {pval}")
            elif counted != N_TRAJ or total != N_TRAJ:
                sim_op = Op(sim_op.name, False, f"histogram total {counted}/{total}")
        fit_op, err = check_fit(f"tomography[{cfg[0]}]", out / "fit", fit_rc, fit_exc, bloch, True)
        return [sim_op, fit_op], err


class TomoBatch:
    """CLI tomography on pre-drawn histograms, four states per configuration;
    every fourth fit frees gamma_R, beta and E."""

    name = "tomo_batch"
    cycle = 4 * len(CONFIGS)  # each histogram once per cycle

    def __init__(self, seed: int, cli):
        self.seed = seed
        self.cli = cli

    def make_inputs(self, area: Path) -> None:
        """Multinomial histograms: the exact law of a 1e6-trajectory ensemble."""
        rng = np.random.default_rng(self.seed)
        files = {}
        for k in range(4):
            for c, cfg in enumerate(CONFIGS):
                bloch = random_bloch(rng)
                edges = np.linspace(0.0, tau_of(cfg), N_BINS + 1)
                cells = rng.multinomial(N_TRAJ, reference_cell_probabilities(cfg, bloch, edges))
                path = area / f"histogram_{cfg[0]}_{k}.csv"
                write_histogram(path, edges, cells, scale=cfg[2])
                files[c, k] = (cfg, bloch, path)
        # job i fits state i//4 of configuration (i + i//4) % 4, so each
        # configuration has one of its four states fitted with parameters free
        self.jobs = [(files[(i + i // 4) % 4, i // 4], i % 4 == 3) for i in range(self.cycle)]
        self.warmup = (files[0, 0], False)

    def job_at(self, i):
        return self.jobs[i % self.cycle]

    def run(self, job, out: Path):
        (cfg, _, path), free = job
        argv = ["tomography", "--out", str(out), "--set", f"histogram={path}"] + param_sets(cfg)
        if free:
            argv += free_fit_sets(cfg)
        return attempt(self.cli.main, argv)

    def check(self, job, raw, out: Path) -> tuple[list[Op], float]:
        (cfg, bloch, _), free = job
        rc, exc = raw
        # with three detector parameters free, sigma reaches 0.013 (C3, z),
        # so the absolute 0.02 bound applies to state-only fits alone
        name = f"tomography[{cfg[0]}{',free' if free else ''}]"
        op, err = check_fit(name, out, rc, exc, bloch, abs_tol=not free)
        return [op], err


# criterion-05 parameters and the curves workload's fixed grids
P05 = (0.0, 1.0, math.pi / 4, 100.0)
FID_PARAMS = (1.0, 10.0, 30.0, 1.0)  # gamma_L, gamma_R, E, tau
GRID_BETAS = np.linspace(0.0, math.pi / 2, 9)
GRID_ES = np.linspace(0.0, 4.0, 9)
GRID_RATES = (0.0, 4.0)
GRID_TIMES = np.linspace(0.0, 3.0, 201)


def two_rate_closed(lo: float, hi: float) -> float:
    """Criterion 02: r^{-1/(r-1)} - r^{-r/(r-1)} with r = hi/lo."""
    if math.isclose(lo, hi, rel_tol=1e-15):
        return 0.0
    r = hi / lo
    return r ** (-1.0 / (r - 1.0)) - r ** (-r / (r - 1.0))


def one_sided_closed(beta: float) -> float:
    """Criterion 03: tan(b/2)^{sec b - 1} - tan(b/2)^{sec b + 1}."""
    if beta == 0.0:
        return 1.0
    if abs(beta - math.pi / 2) < 1e-12:
        return 0.0
    t, s = math.tan(beta / 2), 1.0 / math.cos(beta)
    return t ** (s - 1.0) - t ** (s + 1.0)


class Curves:
    """CLI scurves, fidelity and coherent, plus library sweeps that have no
    subcommand: overall fidelity over beta, per-time decomposition, and a
    survival-function grid that contains the exceptional point."""

    name = "curves"
    cycle = 1

    def __init__(self, seed: int, cli):
        self.seed = seed
        self.cli = cli
        from switchsim import detector, measurement
        self.det, self.meas = detector, measurement

    def make_inputs(self, area: Path) -> None:
        rng = np.random.default_rng(self.seed)
        self.times = np.sort(rng.uniform(0.0, 3.0, 200))
        self.rho = _density(random_bloch(rng))
        self.betas = np.linspace(0.0, math.pi / 2, 101)
        self.warmup = None
        self.reference = None

    def job_at(self, i):
        return None

    def run(self, job, out: Path):
        det, meas = self.det, self.meas
        cli = [attempt(self.cli.main, [cmd, "--out", str(out / cmd)]) for cmd in ("scurves", "fidelity", "coherent")]
        gl, gr, e, tau = FID_PARAMS
        fid = [attempt(meas.overall_fidelity_numeric, det.DetectorParams(gl, gr, float(b), e), tau) for b in self.betas]
        p05 = det.DetectorParams(*P05)

        def decomposed(t):
            return meas.outcome_fidelity(meas.decompose(det.u_s(p05, t, 1e-3)))

        dec = [attempt(decomposed, float(t)) for t in self.times]

        def survival(beta, e):
            return det.survival_function(det.DetectorParams(*GRID_RATES, beta, e), self.rho)(GRID_TIMES)

        surv = [attempt(survival, float(b), float(e)) for b in GRID_BETAS for e in GRID_ES]
        return cli, fid, dec, surv

    def check(self, job, raw, out: Path) -> tuple[list[Op], float]:
        cli, fid, dec, surv = raw
        ops, errs = [], [0.0]
        checks = (("scurves", self._check_scurves), ("fidelity", self._check_fidelity), ("coherent", self._check_coherent))
        for (name, checker), (rc, exc) in zip(checks, cli):
            if exc is not None:
                ops.append(Op(f"cli.{name}", False, _describe(exc)))
            elif rc != 0:
                ops.append(Op(f"cli.{name}", False, f"exit code {rc}"))
            else:
                err, tol = checker(out / name)
                ops.append(Op(f"cli.{name}", err <= tol, f"error {err:.3g} > {tol:g}" if err > tol else ""))
                errs.append(err)

        values = [v for v, _ in fid]
        if self.reference is None:  # the warm-up job fixes the values every later job must repeat
            self.reference = values
        closed0 = two_rate_closed(FID_PARAMS[0], FID_PARAMS[1])
        for b, (v, exc), ref in zip(self.betas, fid, self.reference):
            name = f"overall_fidelity[beta={b:.4f}]"
            if exc is not None:
                ops.append(Op(name, False, _describe(exc)))
                continue
            detail = ""
            if not 0.0 <= v <= 1.0:
                detail = f"fidelity {v} outside [0, 1]"
            elif v != ref:
                detail = f"fidelity {v} differs from the first job's {ref}"
            elif b == 0.0:
                errs.append(abs(v - closed0))
                if abs(v - closed0) > 1e-6:
                    detail = f"fidelity {v} vs closed form {closed0}"
            ops.append(Op(name, not detail, detail))

        for t, (v, exc) in zip(self.times, dec):
            name = f"decompose[t={t:.4f}]"
            if exc is not None:
                ops.append(Op(name, False, _describe(exc)))
                continue
            # criterion 05: every record of a one-sided detector is fully informative
            ok = v >= 1.0 - 1e-6
            ops.append(Op(name, ok, "" if ok else f"outcome fidelity {v}"))

        gamma_minus = 0.5 * (GRID_RATES[1] - GRID_RATES[0])
        for (b, e), (s, exc) in zip(((b, e) for b in GRID_BETAS for e in GRID_ES), surv):
            name = f"survival[beta={b:.4f},E={e:g}]"
            known = b == math.pi / 2 and e == gamma_minus  # ROADMAP item 2
            if exc is not None:
                ops.append(Op(name, False, _describe(exc), known))
                continue
            detail = ""
            if abs(s[0] - 1.0) > 1e-12:
                detail = f"S(0) = {s[0]}"
            elif s.min() < -1e-12 or s.max() > 1.0 + 1e-12:
                detail = f"S outside [0, 1]: [{s.min()}, {s.max()}]"
            elif np.max(np.diff(s)) > 1e-12:
                detail = f"S increases by {np.max(np.diff(s))}"
            ops.append(Op(name, not detail, detail, known))
        return ops, max(errs)

    @staticmethod
    def _check_scurves(out: Path) -> tuple[float, float]:
        """Criterion 10: strong profile is F(0) cos(beta) to 1e-12; weak
        incoherent meets its closed form to the default-steepness contrast
        floor (~5e-4); weak coherent never falls below weak incoherent."""
        strong = _read_csv(out / "fidelity_strong.csv")
        inc = _read_csv(out / "fidelity_weak_incoherent.csv")
        coh = _read_csv(out / "fidelity_weak_coherent.csv")
        err_strong = np.max(np.abs(strong[:, 1] - strong[0, 1] * np.cos(strong[:, 0])))
        closed = np.array([_case3_one_sided(b) for b in inc[:, 0]])
        err_inc = np.max(np.abs(inc[:, 1] - closed))
        below = max(0.0, float(np.max(inc[:, 1] - coh[:, 1])))
        ok = err_strong <= 1e-12 and below <= 1e-12
        return (float(err_inc) if ok else math.inf), 1e-3

    @staticmethod
    def _check_fidelity(out: Path) -> tuple[float, float]:
        """Criteria 01-03: fig2, fig3, fig4 against their closed forms."""
        fig2 = _read_csv(out / "fig2.csv")
        tau0 = math.log(10.0) / 9.0
        t = fig2[:, 0] * tau0
        a, b = np.exp(-t), 10.0 * np.exp(-10.0 * t)
        err = np.max(np.abs(fig2[:, 1] - np.abs(a - b) / (a + b)))
        fig3 = _read_csv(out / "fig3.csv")
        err = max(err, max(abs(f - two_rate_closed(1.0, r)) for r, f in fig3))
        fig4 = _read_csv(out / "fig4.csv")
        err = max(err, max(abs(f - one_sided_closed(b)) for b, f in fig4))
        return float(err), 1e-6

    @staticmethod
    def _check_coherent(out: Path) -> tuple[float, float]:
        """Criterion 09: dominant-coupling rates sin^4, cos^4 of beta/2 and
        the two-rate fidelity of each row."""
        rows = _read_csv(out / "coherent_dominant_coupling.csv")
        s2, c2 = np.sin(rows[:, 0] / 2) ** 2, np.cos(rows[:, 0] / 2) ** 2
        err = max(np.max(np.abs(rows[:, 1] - s2 * s2)), np.max(np.abs(rows[:, 2] - c2 * c2)))
        for path in ("coherent_dominant_coupling.csv", "coherent_large_bias.csv"):
            for _, g0, g1, f in _read_csv(out / path):
                lo, hi = sorted((g0, g1))
                ref = 1.0 if lo == 0.0 < hi else two_rate_closed(lo, hi)
                err = max(err, abs(f - ref))
        return float(err), 1e-12


def _case3_one_sided(beta: float) -> float:
    """Slow-regime maximal fidelity of a gamma_L = 0, gamma_R = 1 detector."""
    gp, x = 0.5, abs(0.5 * math.cos(beta))
    if x < 1e-14 * gp:
        return 0.0
    if gp - x <= 1e-14 * gp:
        return 1.0
    r = (gp - x) / (gp + x)
    return r ** ((gp - x) / (2 * x)) - r ** ((gp + x) / (2 * x))


def _density(bloch) -> np.ndarray:
    x, y, z = bloch
    return 0.5 * np.array([[1 - z, x - 1j * y], [x + 1j * y, 1 + z]], dtype=complex)


WORKLOADS = {w.name: w for w in (Roundtrip, TomoBatch, Curves)}
