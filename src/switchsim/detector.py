"""Incoherent two-state switching detector coupled to a qubit.

The detector probes the qubit operator at angle ``beta`` from the
Hamiltonian axis and switches irreversibly with rate ``gamma_L`` or
``gamma_R`` depending on which probe eigenstate the qubit occupies.  The
qubit state conditioned on the detector record evolves under non-unitary
propagators: one for "no switch so far", one for "switched in a known
short window".  Both are assembled here, together with the survival
probability and the switching-time density they imply.

Units: hbar = 1, rates and energies in inverse time.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import StepTooLargeError
from .mat2 import IDENTITY, normalize_phase


@dataclass(frozen=True)
class DetectorParams:
    """Switching rates, probe angle and qubit energy splitting.

    ``gamma_plus`` and ``gamma_minus`` are always derived from the two bare
    rates, never stored, so they cannot drift out of sync.
    """

    gamma_L: float
    gamma_R: float
    beta: float
    E: float

    def __post_init__(self):
        for name in ("gamma_L", "gamma_R", "E"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if not 0.0 <= self.beta <= math.pi:
            raise ValueError(f"beta must lie in [0, pi], got {self.beta}")

    @property
    def gamma_plus(self) -> float:
        return 0.5 * (self.gamma_R + self.gamma_L)

    @property
    def gamma_minus(self) -> float:
        return 0.5 * (self.gamma_R - self.gamma_L)


class ProbeBasis(NamedTuple):
    L: np.ndarray
    R: np.ndarray


def probe_basis(p: DetectorParams) -> ProbeBasis:
    """Eigenstates of the probed operator, expressed in the energy basis.

    L = cos(beta/2)|0> + sin(beta/2)|1>, R = sin(beta/2)|0> - cos(beta/2)|1>,
    phase-normalized so the first nonzero amplitude is real positive.
    """
    half = 0.5 * p.beta
    L = np.array([math.cos(half), math.sin(half)], dtype=complex)
    R = np.array([math.sin(half), -math.cos(half)], dtype=complex)
    return ProbeBasis(normalize_phase(L), normalize_phase(R))


def rate_matrix(p: DetectorParams) -> np.ndarray:
    """gamma_L |L><L| + gamma_R |R><R|: the switching-rate operator."""
    c = math.cos(p.beta)
    s = math.sin(p.beta)
    gp, gm = p.gamma_plus, p.gamma_minus
    # gamma_+ I - gamma_- (cos b sz + sin b sx); diagonal in the probe basis.
    return np.array(
        [[gp - gm * c, -gm * s], [-gm * s, gp + gm * c]], dtype=complex
    )


def _check_step(p: DetectorParams, dt: float) -> None:
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if max(p.gamma_L, p.gamma_R) * dt > 1.0:
        raise StepTooLargeError(
            f"rate*dt = {max(p.gamma_L, p.gamma_R) * dt} exceeds 1; "
            "the square-root switching amplitudes are undefined"
        )


def sqrt_rate_matrix(p: DetectorParams) -> np.ndarray:
    """Square root of the rate matrix, sqrt(gL)|L><L| + sqrt(gR)|R><R|: the
    amplitude operator of a switch."""
    basis = probe_basis(p)
    return math.sqrt(p.gamma_L) * np.outer(basis.L, basis.L.conj()) + math.sqrt(
        p.gamma_R
    ) * np.outer(basis.R, basis.R.conj())


def p_switch(p: DetectorParams, dt: float) -> np.ndarray:
    """Switching operator sqrt(gL dt)|L><L| + sqrt(gR dt)|R><R|."""
    _check_step(p, dt)
    return math.sqrt(dt) * sqrt_rate_matrix(p)


def generator(p: DetectorParams) -> np.ndarray:
    """Generator G of the no-switch propagator, dU/dt = G U."""
    gp, gm = p.gamma_plus, p.gamma_minus
    c = math.cos(p.beta)
    s = math.sin(p.beta)
    off = 0.5 * gm * s
    return np.array(
        [
            [0.5j * p.E - 0.5 * gp + 0.5 * gm * c, off],
            [off, -0.5j * p.E - 0.5 * gp - 0.5 * gm * c],
        ],
        dtype=complex,
    )


def _generator_slopes(ps, names) -> np.ndarray:
    """dG/dtheta for each named detector parameter at each of a sequence of
    K DetectorParams, shape (K, len(names), 2, 2); Gamma = -(G + G^dag) has
    slopes -(G' + G'^dag)."""
    rows = []
    for q in ps:
        c, s, gm = 0.25 * math.cos(q.beta), 0.25 * math.sin(q.beta), q.gamma_minus
        table = {
            "gamma_L": ((-0.25 - c, -s), (-s, c - 0.25)),
            "gamma_R": ((c - 0.25, s), (s, -0.25 - c)),
            "beta": ((-2.0 * gm * s, 2.0 * gm * c), (2.0 * gm * c, 2.0 * gm * s)),
            "E": ((0.5j, 0.0), (0.0, -0.5j)),
        }
        rows.append([table[name] for name in names])
    return np.array(rows, dtype=complex).reshape(len(rows), -1, 2, 2)


_SERIES_RADIUS = 1e-2


def _series(z2):
    """cosh(z) and sinhc(z) = sinh(z)/z from z2 = z^2, exact to rounding for
    |z| < _SERIES_RADIUS, where the plain half-sums would cancel."""
    return (
        1.0 + z2 * (1.0 / 2.0 + z2 * (1.0 / 24.0 + z2 / 720.0)),
        1.0 + z2 * (1.0 / 6.0 + z2 * (1.0 / 120.0 + z2 / 5040.0)),
    )


def _series_coefficients(m, r, t):
    e, (ch, sc) = np.exp(m * t), _series((r * t) ** 2)
    return e * ch, e * t * sc


def _exp_coefficients(m, r, half_inv_r, t):
    # e^{(m +- r) t} = a_+- e^{+-iy}, a_- = a_+ (1 + q): expm1 keeps
    # a_+ - a_- exact as r t -> 0, and one cos and sin serve both
    a_hi = np.exp((m + r.real) * t)
    q = np.expm1(-2.0 * r.real * t)
    plus, minus = a_hi * (2.0 + q), -a_hi * q
    cos, sin = np.cos(r.imag * t), np.sin(r.imag * t)
    c = 0.5 * (plus * cos + 1j * (minus * sin))
    s = half_inv_r * (minus * cos + 1j * (plus * sin))
    return c, s


class _Propagator:
    """exp(G t) = C I + S N with C = e^{mt} cosh(rt), S = e^{mt} t sinhc(rt).

    m = tr G / 2 = -gamma_plus / 2, N = G - m I and r^2 = -det N, so
    N^2 = r^2 I (Bernstein & So, IEEE TAC 38, 1993).  cosh and sinhc are
    even in r, so no eigenvalue branch is chosen and the formula stays
    smooth where G is defective (r = 0: beta = pi/2, E = |gamma_minus|).
    C and S are half-sums of e^{(m +- r) t}, which cannot overflow as
    Re(m +- r) <= 0, or Taylor series where |r t| < _SERIES_RADIUS.
    `coefficients` evaluates a float t with cmath and anything else as a
    numpy array; the call gives the (2, 2) matrix at one time, taken as a
    float.

    g is one generator, shape (2, 2), or a stack of K, shape (K, 2, 2),
    whose m and r have shape (K, 1) and broadcast over a 1-d array of times
    to (K, len(t)).  Each row, a stack's or the one generator's over times
    of any shape, takes the series only when it covers the row's every
    time.  Each row's constants (r, 1/2r, ...) are formed in Python's
    complex arithmetic, as for one generator, so a row of a stack is
    bit-identical to its generator evaluated alone; 1/2r^2 is NaN where
    r^2 is 0 or subnormal.  A float t, and so the call, needs one generator.

    t = inf, a float or an array element, gives the limit.  Both modes
    decay, or, where the probe leaves a state dark, the slow one keeps
    modulus 1 (m + Re r = 0 to rounding): then C -> e^{(m+r)t} / 2 and
    S -> e^{(m+r)t} / 2r, whose phase has no limit and is dropped.  No
    trace form Tr{U^dag op U rho0}, and no state conditioned on survival,
    depends on it.
    """

    def __init__(self, g: np.ndarray):
        m = 0.5 * (g[..., 0, 0] + g[..., 1, 1]).real  # tr G is real
        self.n = g - m[..., None, None] * IDENTITY
        entries = self.n.reshape(-1, 4).tolist()
        self._entries = entries[0]
        nan = complex(math.nan, math.nan)  # 1/r where no time takes it
        rows = []
        for n00, n01, n10, n11 in entries:
            r = cmath.sqrt(n01 * n10 - n00 * n11)
            r2 = r**2
            half_inv_r2 = 0.5 / r2 if r2 else nan  # inf where r2 is subnormal
            rows.append((r, abs(r), 0.5 / r if r else nan, r2, half_inv_r2 if cmath.isfinite(half_inv_r2) else nan))
        if g.ndim == 2:
            self.m = float(m)
            self.r, self._abs_r, self._half_inv_r, self._r2, self._half_inv_r2 = rows[0]
        else:
            self.m = m[:, None]
            consts = np.array(rows).T[:, :, None]
            self.r, self._half_inv_r, self._r2, self._half_inv_r2 = consts[[0, 2, 3, 4]]
            self._abs_r = consts[1].real

    def _limit(self):
        """(C, S) as t -> inf."""
        m, r = self.m, self.r
        if np.any(m == 0.0):
            raise ValueError("no limit at t = inf: neither mode decays")
        decays = m + r.real < 1e-12 * m  # both modes decay
        return np.where(decays, 0j, 0.5 + 0j), np.where(decays, 0j, self._half_inv_r)

    def coefficients(self, t):
        """(C, S) at time(s) t."""
        m, r = self.m, self.r
        if isinstance(t, float):
            z = r * t
            if abs(z) < _SERIES_RADIUS:
                e, (ch, sc) = math.exp(m * t), _series(z * z)
                return e * ch, e * t * sc
            if t == math.inf:
                return tuple(map(complex, self._limit()))
            e_hi, e_lo = cmath.exp((m + r) * t), cmath.exp((m - r) * t)
            return 0.5 * (e_hi + e_lo), 0.5 * (e_hi - e_lo) / r
        t = np.asarray(t, dtype=float)
        infinite = t == math.inf
        if infinite.any():
            c, s = self.coefficients(np.where(infinite, 0.0, t))
            c_inf, s_inf = self._limit()
            return np.where(infinite, c_inf, c), np.where(infinite, s_inf, s)
        small = self._abs_r * np.abs(t) < _SERIES_RADIUS
        # each row takes the series only where it covers that row's every
        # time; one generator is one row over all its times, a 0-d flag
        series = small.reshape(np.shape(m)[:1] + (-1,)).all(axis=-1)
        if series.all():
            return _series_coefficients(m, r, t)
        if not series.any():
            return _exp_coefficients(m, r, self._half_inv_r, t)
        c, s = np.empty((2, *small.shape), dtype=complex)
        c[series], s[series] = _series_coefficients(m[series], r[series], t)
        rest = ~series
        c[rest], s[rest] = _exp_coefficients(m[rest], r[rest], self._half_inv_r[rest], t)
        return c, s

    def __call__(self, t) -> np.ndarray:
        """Propagator at one time t, shape (2, 2), of one generator."""
        c, s = self.coefficients(float(t))
        n00, n01, n10, n11 = self._entries
        return np.array([[c + s * n00, s * n01], [s * n10, c + s * n11]])


def propagator(p: DetectorParams) -> _Propagator:
    """No-switch propagator as a reusable callable over time arrays."""
    return _Propagator(generator(p))


def u_ns(p: DetectorParams, t: float) -> np.ndarray:
    """No-switch propagator U_ns(t) = exp(G t) for a single time t >= 0."""
    if not t >= 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    return propagator(p)(t)


def u_s(p: DetectorParams, t: float, dt: float) -> np.ndarray:
    """Propagator for: no switch during [0, t], switch within the next dt."""
    return p_switch(p, dt) @ u_ns(p, t)


def _weights(rhos: np.ndarray, a: np.ndarray, b: np.ndarray, d: np.ndarray) -> tuple:
    """[Tr(a rho), 2 Re Tr(b rho), -2 Im Tr(b rho), Re Tr(d rho)] for each rho
    and each matrix of the equal-length stacks a (Hermitian), b, d, rho-major;
    leading axes of a, b and d broadcast, and each row of them is one
    matrix product of the shape a single stack takes."""
    if a.shape != b.shape:
        a = np.broadcast_to(a, b.shape)
    fixed = np.concatenate((a, b, d), axis=-3)
    lead = fixed.shape[:-3]
    # Tr(A rho) = A.ravel() @ rho.T.ravel(); rows rho-major for each kind
    states = rhos.transpose(0, 2, 1).reshape(-1, 4)
    tr = states @ fixed.reshape(*lead, -1, 4).swapaxes(-1, -2)
    tr = tr.reshape(*lead, len(states), 3, -1).swapaxes(-3, -2).reshape(*lead, 3, -1).swapaxes(0, -2)
    return tr[0].real, 2.0 * tr[1].real, -2.0 * tr[1].imag, tr[2].real


class _TraceForms:
    """t -> Tr{U_ns(t)^dag op U_ns(t) rho} for each Hermitian rho in rhos and
    op in ops, one row per pair (rho-major), over a float t or an array;
    `slopes` gives the rows' derivatives in the detector parameters.

    With U_ns = C I + S N the rows are W @ [|C|^2, Re conj(C) S,
    Im conj(C) S, |S|^2], W's rows [Tr(op rho), 2 Re Tr(op N rho),
    -2 Im Tr(op N rho), Tr(N^dag op N rho)] fixed once (`weights`, its
    columns); `combine(c, s)` gives the rows at coefficients the caller has
    evaluated with `propagator.coefficients`.

    p is a sequence of K DetectorParams, a stack: the propagator's stack,
    weights of shape (K, rows), and rows and slopes with a leading axis of
    K over a 1-d array of times, each row bit-identical to its parameters'
    forms alone.  Slopes, and a fit's rows, take a stack, of one for one
    point.  One DetectorParams p serves only the value-only evaluators on
    hot paths (survival_function, switch_density_function,
    _survival_and_density, measurement.overall_fidelity_numeric), whose
    scalar m and r set up and evaluate faster than a stack of one.
    """

    def __init__(self, p, rhos: np.ndarray, ops: np.ndarray):
        self.p = p
        if isinstance(p, DetectorParams):
            self.propagator = propagator(p)
            n = self.propagator.n
        else:
            self.propagator = _Propagator(np.array([generator(q) for q in p]))
            n = self.propagator.n[:, None]  # an axis to broadcast over the ops
        self.rhos, self.ops = np.asarray(rhos, dtype=complex), np.asarray(ops, dtype=complex)
        op_n = self.ops @ n
        self.weights = _weights(self.rhos, self.ops, op_n, n.conj().swapaxes(-1, -2) @ op_n)

    def __call__(self, t):
        return self.combine(*self.propagator.coefficients(t))

    def combine(self, c, s):
        w_cc, w_re, w_im, w_ss = self.weights
        # weights against the times: np.multiply.outer for one generator,
        # row by row, (K, rows) against (K, times), for a stack
        outer = np.multiply.outer if w_cc.ndim == 1 else lambda w, x: w[..., None] * x[..., None, :]
        c_bar = c.conjugate()
        cs = c_bar * s
        # term by term, as a matrix product's summation order may depend on
        # the number of times
        out = outer(w_cc, (c * c_bar).real)
        out += outer(w_re, cs.real)
        out += outer(w_im, cs.imag)
        out += outer(w_ss, (s * s.conjugate()).real)
        return out

    def slopes(self, names, t: np.ndarray, coefficients) -> np.ndarray:
        """Derivatives of a stack's rows in the named detector parameters
        over an array of finite times t, shape (K, len(names), rows,
        len(t)), from the coefficients (C, S) at t; the ops are held fixed.

        dU = m' t U + (r^2)' (C' I + S' N) + S N', with G' = dG/dtheta,
        m' = Re tr G'/2, N' = G' - m' I, (r^2)' = tr(N N'), and C' = t S/2
        and S' the slopes of C and S in r^2.  With a, b, d the row's traces
        of op, op N and N^dag op N, and B, D those of op N' and
        2 N^dag op N', d Tr{U^dag op U rho} = 2 Re Tr(rho U^dag op dU) is the
        real part of v (below) against [cs, q, t cs, t q, conj(C) S',
        conj(S) S'], cs = conj(C) S and q = |C|^2 + i|S|^2: one complex
        product.
        """
        prop = self.propagator
        n = prop.n[:, None]
        g_dot = _generator_slopes(self.p, names)
        m_dot = 0.5 * (g_dot[..., 0, 0] + g_dot[..., 1, 1]).real[..., None]
        # (r^2)' = tr(N N'), as tr N = 0, summed term by term: an einsum's
        # order may depend on the stack
        nn = (prop.n[..., None, :, :] * g_dot.swapaxes(-1, -2)).reshape(*g_dot.shape[:-2], 4)
        r2_dot = (nn[..., 0] + nn[..., 1] + nn[..., 2] + nn[..., 3])[..., None]
        op_n_dot = self.ops @ (g_dot - m_dot[..., None] * IDENTITY)[..., None, :, :]
        op_n_dot = op_n_dot.reshape(*op_n_dot.shape[:-4], -1, 2, 2)
        # _weights' first kind, the trace of op' = 0, goes unused
        own = _weights(self.rhos, np.zeros_like(op_n_dot), op_n_dot, n.conj().swapaxes(-1, -2) @ (2.0 * op_n_dot))
        # (kind, K, rho, name, op) -> (kind, K, name, rho-major rows)
        k = (len(self.p), len(self.rhos), len(names), len(self.ops))
        own = np.reshape(own, (4, *k)).swapaxes(-3, -2)
        _, w_re, w_im, w_d = own.reshape(4, k[0], k[2], -1)
        a, two_b, d = (w[..., None, :] for w in (
            self.weights[0], self.weights[1] - 1j * self.weights[2], self.weights[3]
        ))
        # 2B, -iD, 4m'b + (r^2)'a, 2m'(a - id) - i Re[(r^2)' conj(b)], 2(r^2)'b, 2(r^2)'d
        v = np.stack((
            w_re - 1j * w_im,
            -1j * w_d,
            2.0 * m_dot * two_b + r2_dot * a,
            2.0 * m_dot * (a - 1j * d) - 0.5j * (r2_dot * two_b.conjugate()).real,
            r2_dot * two_b,
            2.0 * r2_dot * d,
        ), axis=-1)

        c, s = coefficients
        # S' = (t C - S) / 2r^2, or where |r t| < 0.1, where that cancels,
        # its even series e^{mt} t^3 sum_k (rt)^{2k-2} k / (2k+1)!
        small = prop._abs_r * t < 0.1
        z2 = prop._r2 * t * t
        s_dot = np.exp(prop.m * t) * t**3 * (
            1 / 6 + z2 * (1 / 60 + z2 * (1 / 1680 + z2 * (1 / 90720 + z2 / 7983360)))
        )
        if not small.all():
            s_dot = np.where(small, s_dot, (t * c - s) * prop._half_inv_r2)
        c_bar, s_bar = c.conjugate(), s.conjugate()
        cs, q = c_bar * s, (c * c_bar).real + 1j * (s * s_bar).real
        terms = np.stack((cs, q, t * cs, t * q, c_bar * s_dot, s_bar * s_dot), axis=-2)
        return (v @ terms[..., None, :, :]).real


def _survival_and_density(
    p: DetectorParams, rho0: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """Array of times -> rows (S, -dS/dt): both trace forms on one evaluation
    of the coefficients, for solvers that need the value and slope together."""
    return _TraceForms(p, [rho0], [IDENTITY, rate_matrix(p)])


def survival_function(
    p: DetectorParams, rho0: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """S(t) = Tr{U_ns(t) rho0 U_ns(t)^dag}, the trace form with op = I."""
    forms = _TraceForms(p, [rho0], [IDENTITY])
    return lambda t: forms(t)[0]


def survival_probability(p: DetectorParams, rho0: np.ndarray, t: float) -> float:
    """Probability that the detector has not switched by time t."""
    if not t >= 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    val = float(survival_function(p, rho0)(float(t)))
    return min(max(val, 0.0), 1.0)


def switch_density(p: DetectorParams, rho0: np.ndarray, t: float) -> float:
    """Switching-time probability density -dS/dt at time t (units 1/time)."""
    if not t >= 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    return float(switch_density_function(p, rho0)(float(t)))


def switch_density_function(
    p: DetectorParams, rho0: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """-dS/dt = Tr{U_ns(t)^dag Gamma U_ns(t) rho0}, the trace form with the
    rate matrix Gamma, clipped at zero against rounding."""
    forms = _TraceForms(p, [rho0], [rate_matrix(p)])
    return lambda t: np.maximum(forms(t)[0], 0.0)
