"""Complex 2x2 matrix and qubit-state helpers.

All operators in the package live on a two-dimensional Hilbert space, so
everything here is closed-form: matrices are numpy arrays of shape (2, 2)
and complex dtype, pure states are arrays of shape (2,).  Density matrices
may carry a trace below one; the trace deficit is meaningful (it encodes
the probability weight of the detector record that produced the state).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NonHermitianError
from .tolerances import ALGEBRA_TOL, EIG_DEGENERATE_TOL, HERMITIAN_TOL

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

KET_0 = np.array([1.0, 0.0], dtype=complex)
KET_1 = np.array([0.0, 1.0], dtype=complex)


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def trace(m: np.ndarray) -> complex:
    return complex(m[0, 0] + m[1, 1])


def norm2(m: np.ndarray) -> float:
    """Spectral norm (largest singular value)."""
    # Largest eigenvalue of the 2x2 Hermitian m†m, closed form, in Python
    # scalars: det = h00 h11 - |h01|^2.
    (h00, h01), (_, h11) = (dag(m) @ m).tolist()
    half_tr = 0.5 * (h00.real + h11.real)
    det = h00.real * h11.real - (h01.real * h01.real + h01.imag * h01.imag)
    disc = max(half_tr * half_tr - det, 0.0)
    return math.sqrt(max(half_tr + math.sqrt(disc), 0.0))


def normalize_phase(psi: np.ndarray) -> np.ndarray:
    """Fix the global phase: first amplitude above tolerance is real >= 0."""
    psi = np.asarray(psi, dtype=complex)
    for comp in psi:
        if abs(comp) > ALGEBRA_TOL:
            return psi * (abs(comp) / comp)
    return psi


def check_pure_state(psi: np.ndarray) -> None:
    """Raise unless psi is a normalized two-component state."""
    psi = np.asarray(psi)
    if psi.shape != (2,):
        raise ValueError("pure state must have shape (2,)")
    if abs(np.vdot(psi, psi).real - 1.0) > ALGEBRA_TOL:
        raise ValueError("pure state is not normalized")


def projector(psi: np.ndarray) -> np.ndarray:
    """Rank-1 projector |psi><psi| for a normalized state."""
    check_pure_state(psi)
    return np.outer(psi, psi.conj())


def check_density_matrix(rho: np.ndarray) -> None:
    """Validate Hermiticity, positivity and 0 <= trace <= 1 (+ ALGEBRA_TOL).

    Sub-normalized traces are allowed: a trace below one is the survival
    weight of the conditional state.
    """
    rho = np.asarray(rho)
    if rho.shape != (2, 2):
        raise ValueError("density matrix must have shape (2, 2)")
    if np.max(np.abs(rho - dag(rho))) > ALGEBRA_TOL:
        raise NonHermitianError("density matrix is not Hermitian")
    tr = trace(rho).real
    if tr < -ALGEBRA_TOL or tr > 1.0 + ALGEBRA_TOL:
        raise ValueError(f"density matrix trace {tr} outside [0, 1]")
    ev_lo = hermitian_eig(rho).eval_lo
    if ev_lo < -ALGEBRA_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {ev_lo}")


class EigResult(NamedTuple):
    eval_hi: float
    eval_lo: float
    evec_hi: np.ndarray
    evec_lo: np.ndarray
    degenerate: bool


def hermitian_eig(m: np.ndarray) -> EigResult:
    """Closed-form eigendecomposition of a Hermitian 2x2 matrix.

    Returns eigenvalues sorted descending with orthonormal eigenvectors in
    the fixed global-phase convention.  When the spectrum is degenerate
    (discriminant below tolerance relative to the squared norm, so the
    test is the same for every multiple of m) eigenvector selection is
    numerically meaningless, so the canonical basis is returned and the
    degeneracy flag is set.
    """
    m = np.asarray(m, dtype=complex)
    nrm = norm2(m)
    if np.max(np.abs(m - dag(m))) > HERMITIAN_TOL * max(nrm, 1.0):
        raise NonHermitianError("matrix is not Hermitian within tolerance")

    a = m[0, 0].real
    d = m[1, 1].real
    b = m[0, 1]  # m[1,0] == conj(b)
    half_diff = 0.5 * (a - d)
    mid = 0.5 * (a + d)
    disc = half_diff * half_diff + (b * b.conjugate()).real
    if disc <= EIG_DEGENERATE_TOL * nrm * nrm:
        return EigResult(mid, mid, KET_0.copy(), KET_1.copy(), True)

    root = float(np.sqrt(disc))
    hi = mid + root
    lo = mid - root

    # Eigenvector for `hi` from whichever row keeps the arithmetic
    # well-conditioned; the `lo` vector is its orthogonal complement.
    if half_diff >= 0.0:
        v_hi = np.array([half_diff + root, b.conjugate()], dtype=complex)
    else:
        v_hi = np.array([b, root - half_diff], dtype=complex)
    v_hi = v_hi / np.linalg.norm(v_hi)
    v_lo = np.array([-v_hi[1].conjugate(), v_hi[0].conjugate()], dtype=complex)
    return EigResult(hi, lo, normalize_phase(v_hi), normalize_phase(v_lo), False)
