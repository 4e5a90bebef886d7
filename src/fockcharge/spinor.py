"""Dirac gamma algebra and the charge-conjugation matrix.

Conventions: standard Dirac representation with beta = diag(1, 1, -1, -1),
inner products conjugate-linear in the first argument, natural units
(hbar = c = 1).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "GammaSet",
    "gamma_matrices",
    "conjugation_matrix",
]


@dataclass(frozen=True)
class GammaSet:
    """The four gamma matrices plus the derived alpha_a = gamma0 gamma_a and
    beta = gamma0 of the free Dirac Hamiltonian."""

    gamma0: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    gamma3: np.ndarray
    alpha: tuple  # (alpha1, alpha2, alpha3)
    beta: np.ndarray


@lru_cache(maxsize=1)
def gamma_matrices() -> GammaSet:
    """Standard Dirac representation of the gamma matrices.

    Satisfies {gamma^a, gamma^b} = 2 eta^{ab} I with eta = diag(1,-1,-1,-1);
    beta and every alpha_a are Hermitian, and i*gamma2 is a real matrix.
    """
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    zero = np.zeros((2, 2), dtype=complex)
    eye = np.eye(2, dtype=complex)

    gamma0 = np.block([[eye, zero], [zero, -eye]])
    gamma1 = np.block([[zero, s1], [-s1, zero]])
    gamma2 = np.block([[zero, s2], [-s2, zero]])
    gamma3 = np.block([[zero, s3], [-s3, zero]])
    alpha = tuple(gamma0 @ g for g in (gamma1, gamma2, gamma3))
    for m in alpha + (gamma0,):
        m.setflags(write=False)
    return GammaSet(gamma0, gamma1, gamma2, gamma3, alpha, gamma0)


@lru_cache(maxsize=1)
def conjugation_matrix() -> np.ndarray:
    """Matrix i*gamma2 of the charge conjugation C f = i gamma2 conj(f).

    The result has real entries and squares to the identity, so C is an
    anti-unitary involution.
    """
    g = gamma_matrices()
    c = 1j * g.gamma2
    c = np.real_if_close(c, tol=1)
    assert np.isrealobj(c)
    c.setflags(write=False)
    return c
