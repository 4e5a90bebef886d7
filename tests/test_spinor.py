import numpy as np
import pytest

from conftest import energy, spectral_projector
from fockcharge import spinor

ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def test_clifford_relations():
    g = spinor.gamma_matrices()
    gammas = (g.gamma0, g.gamma1, g.gamma2, g.gamma3)
    for a in range(4):
        for b in range(4):
            anti = gammas[a] @ gammas[b] + gammas[b] @ gammas[a]
            assert np.allclose(anti, 2 * ETA[a, b] * np.eye(4), atol=1e-15)


def test_gamma0_squares_to_identity():
    g = spinor.gamma_matrices()
    assert np.allclose(g.gamma0 @ g.gamma0, np.eye(4))


def test_gamma1_gamma2_anticommute():
    g = spinor.gamma_matrices()
    assert np.allclose(g.gamma1 @ g.gamma2 + g.gamma2 @ g.gamma1, 0.0)


def test_beta_and_alphas_hermitian():
    g = spinor.gamma_matrices()
    assert np.allclose(g.beta, g.beta.conj().T)
    for a in g.alpha:
        assert np.allclose(a, a.conj().T)


def test_i_gamma2_real():
    g = spinor.gamma_matrices()
    assert np.max(np.abs(np.imag(1j * g.gamma2))) == 0.0


def test_conjugation_matrix_properties():
    c = spinor.conjugation_matrix()
    assert np.isrealobj(c)
    assert np.allclose(c @ c, np.eye(4))
    assert np.allclose(c @ c.T, np.eye(4))  # unitary


def test_energy_values():
    assert energy([0, 0, 0], 1.0) == 1.0
    assert energy([3, 4, 0], 0.0) == 5.0
    assert energy([1, 1, 1], 1.0) == 2.0


def test_energy_rejects_negative_mass():
    with pytest.raises(ValueError):
        energy([1, 0, 0], -0.5)


def test_projector_at_rest():
    P = spectral_projector([0, 0, 0], 1.0, +1)
    assert np.allclose(P, np.diag([1.0, 1.0, 0.0, 0.0]))


def test_projector_completeness_and_idempotence(rng):
    for _ in range(20):
        p = rng.normal(size=3) * 3.0
        m = float(rng.uniform(0.0, 2.0))
        if energy(p, m) == 0.0:
            continue
        plus = spectral_projector(p, m, +1)
        minus = spectral_projector(p, m, -1)
        assert np.max(np.abs(plus + minus - np.eye(4))) < 1e-14
        assert np.max(np.abs(plus @ plus - plus)) < 1e-13
        assert np.max(np.abs(plus @ minus)) < 1e-13
        assert np.max(np.abs(plus - plus.conj().T)) < 1e-14
        assert abs(np.trace(plus).real - 2.0) < 1e-13


def test_projector_conjugation_exchange(rng):
    # C Lambda^{-+}(-p) C^{-1} = Lambda^{+-}(p) with conjugated entries
    c = spinor.conjugation_matrix()
    for _ in range(10):
        p = rng.normal(size=3) * 2.0
        m = 1.0
        for sign in (+1, -1):
            lhs = c @ np.conj(spectral_projector(-p, m, -sign)) @ np.linalg.inv(c)
            rhs = spectral_projector(p, m, sign)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_projector_massless_singular_point():
    with pytest.raises(ValueError):
        spectral_projector([0, 0, 0], 0.0, +1)
    # massless but nonzero momentum is fine
    P = spectral_projector([1.0, 0, 0], 0.0, +1)
    assert abs(np.trace(P).real - 2.0) < 1e-14


def test_projector_sign_validation():
    with pytest.raises(ValueError):
        spectral_projector([1, 0, 0], 1.0, 2)
