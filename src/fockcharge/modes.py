"""Plane-wave modes on the cube A = x0 + [-pi, pi]^3.

The scalar modes phi_k(x) = (2pi)^(-3/2) exp(i k.(x - x0)) 1_A(x), k integer,
form an ONB of L^2(A); spinor modes attach one of the four spin basis
vectors.  Their Fourier transforms factor per axis into

    D(q) = 2 sin(pi q) / q,   D(0) = 2 pi,

so phi_k^(p) = e^{-i p.x0} (2pi)^(-3) prod_s D(k_s - p_s) in the symmetric
Fourier convention.  Shells |k|_inf <= K are closed under k -> -k, which is
what the shell-level conjugation operator needs.
"""

from dataclasses import dataclass

import numpy as np

from .involution import AntiUnitary
from .spinor import conjugation_matrix

__all__ = [
    "Shell",
    "axis_factor",
    "enumerate_shell",
    "shell_conjugation",
]

_TAYLOR_CUT = 1e-6


def axis_factor(q):
    """D(q) = 2 sin(pi q)/q with the removable singularity at q = 0 filled
    by a 4-term Taylor series (guard |q| < 1e-6)."""
    arr = np.atleast_1d(np.asarray(q, dtype=float))
    small = np.abs(arr) < _TAYLOR_CUT
    out = 2.0 * np.sin(np.pi * arr) / np.where(small, 1.0, arr)
    x2 = (np.pi * arr[small]) ** 2
    out[small] = 2.0 * np.pi * (1.0 - x2 / 6.0 * (1.0 - x2 / 20.0 * (1.0 - x2 / 42.0)))
    return out if np.ndim(q) else float(out[0])


@dataclass(frozen=True)
class Shell:
    """All integer modes with |k|_inf <= K in canonical order: sorted by
    |k|_inf ascending, then lexicographically by (k1, k2, k3)."""

    K: int
    modes: np.ndarray  # (count, 3) integer array

    @property
    def count(self) -> int:
        return self.modes.shape[0]


def enumerate_shell(K: int) -> Shell:
    if K < 0:
        raise ValueError("shell radius must be >= 0")
    rng = np.arange(-K, K + 1)
    grid = np.stack(np.meshgrid(rng, rng, rng, indexing="ij"), axis=-1).reshape(-1, 3)
    order = np.lexsort((grid[:, 2], grid[:, 1], grid[:, 0],
                        np.max(np.abs(grid), axis=1)))
    return Shell(K=K, modes=grid[order])


def shell_conjugation(shell: Shell) -> AntiUnitary:
    """Charge conjugation on the spinor modes of a shell.

    C maps phi_k (x) e_s to phi_{-k} (x) (i gamma2 e_s) and conjugates
    coefficients, i.e. U = P_(k -> -k) (x) (i gamma2) with spin as the fast
    index.  Requires the mode list to be closed under negation.  U is a
    signed permutation and is kept sparse.
    """
    from scipy import sparse

    mode_list = shell.modes
    index = {tuple(m): i for i, m in enumerate(mode_list)}
    perm = np.empty(shell.count, dtype=int)
    for i, m in enumerate(mode_list):
        j = index.get(tuple(-m))
        if j is None:
            raise ValueError("mode set is not closed under k -> -k")
        perm[i] = j
    P = sparse.csr_matrix(
        (np.ones(shell.count), (perm, np.arange(shell.count))),
        shape=(shell.count, shell.count))
    U = sparse.kron(P, sparse.csr_matrix(conjugation_matrix()), format="csr")
    return AntiUnitary(U)
