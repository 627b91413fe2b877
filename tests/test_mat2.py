import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchsim import mat2 as m2
from switchsim.errors import NonHermitianError

from oracles import is_hermitian, mat2, pure_state, purity


def random_matrix(rng):
    return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))


def random_density(rng):
    a = random_matrix(rng)
    rho = a @ m2.dag(a)
    return rho / m2.trace(rho).real


class TestHermitianEig:
    def test_identity(self):
        r = m2.hermitian_eig(m2.IDENTITY)
        assert r.eval_hi == pytest.approx(1.0, abs=1e-12)
        assert r.eval_lo == pytest.approx(1.0, abs=1e-12)
        assert r.degenerate

    def test_diagonal(self):
        r = m2.hermitian_eig(np.diag([2.0, 1.0]).astype(complex))
        assert r.eval_hi == pytest.approx(2.0, abs=1e-12)
        assert r.eval_lo == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(r.evec_hi, m2.KET_0, atol=1e-12)
        np.testing.assert_allclose(r.evec_lo, m2.KET_1, atol=1e-12)

    def test_sigma_x(self):
        r = m2.hermitian_eig(m2.SIGMA_X)
        assert r.eval_hi == pytest.approx(1.0, abs=1e-12)
        assert r.eval_lo == pytest.approx(-1.0, abs=1e-12)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(r.evec_hi, [s, s], atol=1e-12)
        np.testing.assert_allclose(r.evec_lo, [s, -s], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            m2.hermitian_eig(mat2(0, 1, 0, 0))

    @pytest.mark.parametrize("c", [1e-12, 1e-6, 1.0, 1e6])
    def test_scale_invariant(self, c):
        # the degeneracy test is relative to the norm, so a plainly split
        # matrix stays split, with the same eigenvectors, at any scale, and a
        # multiple of the identity stays degenerate
        h = np.array([[2.0, 0.5 - 0.3j], [0.5 + 0.3j, 1.0]])
        ref = m2.hermitian_eig(h)
        r = m2.hermitian_eig(c * h)
        assert not r.degenerate
        assert r.eval_hi == pytest.approx(c * ref.eval_hi, rel=1e-12)
        assert r.eval_lo == pytest.approx(c * ref.eval_lo, rel=1e-12)
        np.testing.assert_allclose(r.evec_hi, ref.evec_hi, atol=1e-12)
        np.testing.assert_allclose(r.evec_lo, ref.evec_lo, atol=1e-12)
        assert m2.hermitian_eig(c * m2.IDENTITY).degenerate

    def test_zero_matrix_degenerate(self):
        r = m2.hermitian_eig(np.zeros((2, 2), dtype=complex))
        assert r.degenerate and r.eval_hi == r.eval_lo == 0.0

    def test_reconstruction_random(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            a = random_matrix(rng)
            h = a + m2.dag(a)
            r = m2.hermitian_eig(h)
            rebuilt = r.eval_hi * m2.projector(r.evec_hi) + r.eval_lo * m2.projector(r.evec_lo)
            assert np.max(np.abs(rebuilt - h)) < 1e-10 * max(1.0, m2.norm2(h))
            # eigen equation + orthonormality
            assert np.linalg.norm(h @ r.evec_hi - r.eval_hi * r.evec_hi) < 1e-10 * max(1.0, m2.norm2(h))
            assert abs(np.vdot(r.evec_hi, r.evec_lo)) < 1e-12


class TestPurity:
    def test_maximally_mixed(self):
        assert purity(0.5 * m2.IDENTITY) == pytest.approx(0.0, abs=1e-12)

    def test_projector(self):
        assert purity(m2.projector(m2.KET_0)) == pytest.approx(1.0, abs=1e-12)

    def test_subnormalized_mixed(self):
        # diag(0.35, 0.15) normalizes to diag(0.7, 0.3):
        # sqrt(2*(0.49 + 0.09) - 1) = sqrt(0.16) = 0.4
        rho = np.diag([0.35, 0.15]).astype(complex)
        assert purity(rho) == pytest.approx(0.4, abs=1e-12)

    def test_zero_trace(self):
        with pytest.raises(ValueError):
            purity(np.zeros((2, 2), dtype=complex))

    def test_invertible_conjugation_preserves_rank1_purity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            u = random_matrix(rng)
            if abs(np.linalg.det(u)) < 1e-3:
                continue
            psi = pure_state(*(rng.standard_normal(2) + 1j * rng.standard_normal(2)))
            rho = u @ m2.projector(psi) @ m2.dag(u)
            assert purity(rho) == pytest.approx(1.0, abs=1e-10)


class TestProjector:
    def test_ket0(self):
        np.testing.assert_allclose(m2.projector(m2.KET_0), np.diag([1.0, 0.0]), atol=1e-15)

    def test_equal_superposition(self):
        s = 1.0 / np.sqrt(2.0)
        p = m2.projector(np.array([s, s]))
        np.testing.assert_allclose(p, 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_idempotent_and_trace_one(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            psi = pure_state(*(rng.standard_normal(2) + 1j * rng.standard_normal(2)))
            p = m2.projector(psi)
            assert np.max(np.abs(p @ p - p)) < 1e-12
            assert m2.trace(p).real == pytest.approx(1.0, abs=1e-12)
            assert is_hermitian(p)


class TestAlgebra:
    def test_cyclic_trace(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            a = random_matrix(rng)
            rho = random_density(rng)
            lhs = m2.trace(a @ rho @ m2.dag(a))
            rhs = m2.trace(m2.dag(a) @ a @ rho)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_norm2_matches_numpy(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            a = random_matrix(rng)
            assert m2.norm2(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-10)

    def test_mat2_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            mat2(np.nan, 0, 0, 0)
        with pytest.raises(ValueError):
            mat2(0, np.inf * 1j, 0, 0)

    def test_phase_convention(self):
        psi = pure_state(-1.0, 1.0j)
        assert psi[0].imag == pytest.approx(0.0, abs=1e-15)
        assert psi[0].real > 0


finite_floats = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(finite_floats, finite_floats, finite_floats, finite_floats)
def test_hermitian_eig_property(a, d, br, bi):
    h = np.array([[a, br + 1j * bi], [br - 1j * bi, d]], dtype=complex)
    r = m2.hermitian_eig(h)
    assert r.eval_hi >= r.eval_lo
    scale = max(1.0, m2.norm2(h))
    rebuilt = r.eval_hi * m2.projector(r.evec_hi) + r.eval_lo * m2.projector(r.evec_lo)
    assert np.max(np.abs(rebuilt - h)) < 1e-10 * scale


@settings(max_examples=200, deadline=None)
@given(finite_floats, finite_floats, finite_floats, finite_floats)
def test_purity_range_property(p00, z, xr, xi):
    # Build a Hermitian PSD matrix from a random factor; purity must be in [0, 1].
    a = np.array([[p00, xr + 1j * xi], [z, 1.0]], dtype=complex)
    rho = a @ m2.dag(a)
    tr = m2.trace(rho).real
    if tr <= 1e-12:
        return
    assert 0.0 <= purity(rho) <= 1.0
