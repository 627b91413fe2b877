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
from .mat2 import IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z, dag, normalize_phase


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


def _generator_slopes(p: DetectorParams, names) -> np.ndarray:
    """dG/dtheta for each named detector parameter, shape (len(names), 2, 2);
    Gamma = -(G + G^dag) has slopes -(G' + G'^dag)."""
    c, s, gm = 0.25 * math.cos(p.beta), 0.25 * math.sin(p.beta), p.gamma_minus
    table = {
        "gamma_L": ((-0.25 - c, -s), (-s, c - 0.25)),
        "gamma_R": ((c - 0.25, s), (s, -0.25 - c)),
        "beta": ((-2.0 * gm * s, 2.0 * gm * c), (2.0 * gm * c, 2.0 * gm * s)),
        "E": ((0.5j, 0.0), (0.0, -0.5j)),
    }
    return np.array([table[name] for name in names], dtype=complex).reshape(-1, 2, 2)


_SERIES_RADIUS = 1e-2


def _series(z2):
    """cosh(z) and sinhc(z) = sinh(z)/z from z2 = z^2, exact to rounding for
    |z| < _SERIES_RADIUS, where the plain half-sums would cancel."""
    return (
        1.0 + z2 * (1.0 / 2.0 + z2 * (1.0 / 24.0 + z2 / 720.0)),
        1.0 + z2 * (1.0 / 6.0 + z2 * (1.0 / 120.0 + z2 / 5040.0)),
    )


class _Propagator:
    """exp(G t) = C I + S N with C = e^{mt} cosh(rt), S = e^{mt} t sinhc(rt).

    m = tr G / 2 = -gamma_plus / 2, N = G - m I and r^2 = -det N, so
    N^2 = r^2 I (Bernstein & So, IEEE TAC 38, 1993).  cosh and sinhc are
    even in r, so no eigenvalue branch is chosen and the formula stays
    smooth where G is defective (r = 0: beta = pi/2, E = |gamma_minus|).
    C and S are half-sums of e^{(m +- r) t}, which cannot overflow as
    Re(m +- r) <= 0, or Taylor series where |r t| < _SERIES_RADIUS.  A
    float t is evaluated with cmath; anything else as a numpy array, giving
    shape (..., 2, 2), with the series only when it covers every time.

    t = inf, a float or an array element, gives the limit.  Both modes
    decay, or, where the probe leaves a state dark, the slow one keeps
    modulus 1 (m + Re r = 0 to rounding): then C -> e^{(m+r)t} / 2 and
    S -> e^{(m+r)t} / 2r, whose phase has no limit and is dropped.  No
    trace form Tr{U^dag op U rho0}, and no state conditioned on survival,
    depends on it.
    """

    def __init__(self, g: np.ndarray):
        self.m = float(0.5 * (g[0, 0] + g[1, 1]).real)  # tr G is real
        self.n = g - self.m * IDENTITY
        n00, n01, n10, n11 = self._entries = tuple(complex(v) for v in self.n.ravel())
        self.r = cmath.sqrt(n01 * n10 - n00 * n11)

    def coefficients(self, t):
        """(C, S) at time(s) t."""
        m, r = self.m, self.r
        if isinstance(t, float):
            z = r * t
            if abs(z) < _SERIES_RADIUS:
                e, (ch, sc) = math.exp(m * t), _series(z * z)
                return e * ch, e * t * sc
            if t == math.inf:
                if m == 0.0:
                    raise ValueError("no limit at t = inf: neither mode decays")
                if m + r.real < 1e-12 * m:  # both modes decay
                    return 0j, 0j
                return 0.5 + 0j, 0.5 / r
            e_hi, e_lo = cmath.exp((m + r) * t), cmath.exp((m - r) * t)
            return 0.5 * (e_hi + e_lo), 0.5 * (e_hi - e_lo) / r
        t = np.asarray(t, dtype=float)
        infinite = t == math.inf
        if infinite.any():
            c, s = self.coefficients(np.where(infinite, 0.0, t))
            c_inf, s_inf = self.coefficients(math.inf)
            return np.where(infinite, c_inf, c), np.where(infinite, s_inf, s)
        if (abs(r) * np.abs(t) < _SERIES_RADIUS).all():
            e, (ch, sc) = np.exp(m * t), _series((r * t) ** 2)
            return e * ch, e * t * sc
        # e^{(m +- r) t} = a_+- e^{+-iy}, a_- = a_+ (1 + q): expm1 keeps
        # a_+ - a_- exact as r t -> 0, and one cos and sin serve both
        a_hi = np.exp((m + r.real) * t)
        q = np.expm1(-2.0 * r.real * t)
        plus, minus = a_hi * (2.0 + q), -a_hi * q
        cos, sin = np.cos(r.imag * t), np.sin(r.imag * t)
        c = 0.5 * (plus * cos + 1j * (minus * sin))
        s = (0.5 / r) * (minus * cos + 1j * (plus * sin))
        return c, s

    def __call__(self, t):
        """Propagator at time(s) t; shape (..., 2, 2)."""
        c, s = self.coefficients(t)
        if isinstance(t, float):
            n00, n01, n10, n11 = self._entries
            return np.array([[c + s * n00, s * n01], [s * n10, c + s * n11]])
        return c[..., None, None] * IDENTITY + s[..., None, None] * self.n


def propagator(p: DetectorParams) -> _Propagator:
    """No-switch propagator as a reusable callable over time arrays."""
    return _Propagator(generator(p))


def u_ns(p: DetectorParams, t: float) -> np.ndarray:
    """No-switch propagator U_ns(t) = exp(G t) for a single time t >= 0."""
    if not t >= 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    return propagator(p)(float(t))


def u_s(p: DetectorParams, t: float, dt: float) -> np.ndarray:
    """Propagator for: no switch during [0, t], switch within the next dt."""
    return p_switch(p, dt) @ u_ns(p, t)


def _weights(rhos: np.ndarray, a: np.ndarray, b: np.ndarray, d: np.ndarray) -> tuple:
    """[Tr(a rho), 2 Re Tr(b rho), -2 Im Tr(b rho), Re Tr(d rho)] for each rho
    and each matrix of the equal-length stacks a (Hermitian), b, d, rho-major."""
    fixed = np.concatenate((a, b, d)).reshape(-1, 4)
    # Tr(A rho) = A.ravel() @ rho.T.ravel(); rows rho-major for each kind
    states = rhos.transpose(0, 2, 1).reshape(-1, 4)
    tr = (states @ fixed.T).reshape(len(states), 3, len(a)).transpose(1, 0, 2).reshape(3, -1)
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
    """

    def __init__(self, p: DetectorParams, rhos: np.ndarray, ops: np.ndarray):
        self.p, self.propagator = p, propagator(p)
        self.rhos, self.ops = np.asarray(rhos, dtype=complex), np.asarray(ops, dtype=complex)
        n = self.propagator.n
        op_n = self.ops @ n
        self.weights = _weights(self.rhos, self.ops, op_n, dag(n) @ op_n)

    def __call__(self, t):
        return self.combine(*self.propagator.coefficients(t))

    def combine(self, c, s):
        w_cc, w_re, w_im, w_ss = self.weights
        outer = np.multiply.outer
        c_bar = c.conjugate()
        cs = c_bar * s
        # term by term, as a matrix product's summation order may depend on
        # the number of times
        out = outer(w_cc, (c * c_bar).real)
        out += outer(w_re, cs.real)
        out += outer(w_im, cs.imag)
        out += outer(w_ss, (s * s.conjugate()).real)
        return out

    def slopes(self, names, t: np.ndarray, coefficients, op_slopes=None) -> np.ndarray:
        """Derivatives of the rows in the named detector parameters over an
        array of finite times t, shape (len(names), rows, len(t)), from the
        coefficients (C, S) at t; op_slopes, shape (len(names), len(ops),
        2, 2), are the ops' own (zero when None).

        dU = m' t U + (r^2)' (C' I + S' N) + S N', with G' = dG/dtheta,
        m' = Re tr G'/2, N' = G' - m' I, (r^2)' = tr(N N'), and C' = t S/2
        and S' the slopes of C and S in r^2.  With a, b, d the row's traces
        of op, op N and N^dag op N, and A, B, D those of op', op N' + op' N
        and N^dag (2 op N' + op' N), d Tr{U^dag op U rho} =
        2 Re Tr(rho U^dag op dU) + Tr{U^dag op' U rho} is the real part of v
        (below) against [cs, q, t cs, t q, conj(C) S', conj(S) S'],
        cs = conj(C) S and q = |C|^2 + i|S|^2: one complex product.
        """
        n = self.propagator.n
        g_dot = _generator_slopes(self.p, names)
        m_dot = 0.5 * (g_dot[:, 0, 0] + g_dot[:, 1, 1]).real[:, None]
        r2_dot = np.einsum("ij,kji->k", n, g_dot)[:, None]  # tr(N N'), as tr N = 0
        op_n_dot = (self.ops @ (g_dot - m_dot[:, :, None] * IDENTITY)[:, None]).reshape(-1, 2, 2)
        op_dot = np.zeros_like(op_n_dot) if op_slopes is None else op_slopes.reshape(-1, 2, 2)
        big_b = op_n_dot + op_dot @ n
        own = _weights(self.rhos, op_dot, big_b, dag(n) @ (big_b + op_n_dot))
        # (kind, rho, name, op) -> (kind, name, rho-major rows)
        k = (len(self.rhos), len(names), len(self.ops))
        w_a, w_re, w_im, w_d = np.reshape(own, (4, *k)).transpose(0, 2, 1, 3).reshape(4, k[1], -1)
        a, two_b, d = self.weights[0], self.weights[1] - 1j * self.weights[2], self.weights[3]
        # 2B, A - iD, 4m'b + (r^2)'a, 2m'(a - id) - i Re[(r^2)' conj(b)], 2(r^2)'b, 2(r^2)'d
        v = np.stack((
            w_re - 1j * w_im,
            w_a - 1j * w_d,
            2.0 * m_dot * two_b + r2_dot * a,
            2.0 * m_dot * (a - 1j * d) - 0.5j * (r2_dot * two_b.conjugate()).real,
            r2_dot * two_b,
            2.0 * r2_dot * d,
        ), axis=-1)

        c, s = coefficients
        # S' = (t C - S) / 2r^2, or where |r t| < 0.1, where that cancels,
        # its even series e^{mt} t^3 sum_k (rt)^{2k-2} k / (2k+1)!
        r, m = self.propagator.r, self.propagator.m
        small = abs(r) * t < 0.1
        s_dot = np.empty_like(c) if small.all() else (t * c - s) * (0.5 / r**2)
        ts = t[small]
        z2 = r**2 * ts * ts
        s_dot[small] = np.exp(m * ts) * ts**3 * (
            1 / 6 + z2 * (1 / 60 + z2 * (1 / 1680 + z2 * (1 / 90720 + z2 / 7983360)))
        )
        c_bar, s_bar = c.conjugate(), s.conjugate()
        cs, q = c_bar * s, (c * c_bar).real + 1j * (s * s_bar).real
        return (v @ np.stack((cs, q, t * cs, t * q, c_bar * s_dot, s_bar * s_dot))).real


def _survival_and_density(
    p: DetectorParams, rho0: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """Array of times -> rows (S, -dS/dt): both trace forms on one evaluation
    of the coefficients, for solvers that need the value and slope together."""
    return _TraceForms(p, [rho0], [IDENTITY, rate_matrix(p)])


def _half_gap(p: DetectorParams, op: np.ndarray) -> Callable[[float], float]:
    """Float t -> half the eigenvalue gap of U_ns(t)^dag op U_ns(t), op Hermitian.

    That is the length of the matrix's traceless part, whose Pauli
    components are the trace forms with rho = sigma_k / 2: the product with
    their weights is unrolled, as quad calls this once per node.  The sum of
    squares keeps a closing gap exact to rounding, where sqrt((tr/2)^2 - det)
    would lose half the digits.  The function carries its `propagator`.
    """
    forms = _TraceForms(p, 0.5 * np.array([SIGMA_X, SIGMA_Y, SIGMA_Z]), [op])
    w_cc, w_re, w_im, w_ss = forms.weights
    # b = w_re - i w_im = 2 Tr(op N rho): one complex product gives both middle terms
    (ax, bx, dx), (ay, by, dy), (az, bz, dz) = zip(
        w_cc.tolist(), (w_re - 1j * w_im).tolist(), w_ss.tolist()
    )
    coefficients = forms.propagator.coefficients

    def f(t: float) -> float:
        c, s = coefficients(t)
        c_bar = c.conjugate()
        cc, cs, ss = (c * c_bar).real, c_bar * s, (s * s.conjugate()).real
        wx = cc * ax + (cs * bx).real + ss * dx
        wy = cc * ay + (cs * by).real + ss * dy
        wz = cc * az + (cs * bz).real + ss * dz
        return math.sqrt(wx * wx + wy * wy + wz * wz)

    f.propagator = forms.propagator
    return f


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
