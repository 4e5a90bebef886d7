"""The central experiment: partial sums S_J = |Q^J Omega|^2 of the truncated
region-charge series across mode shells of the cube.

Two independent evaluation routes are kept side by side:

* trace route: S_J = tr(M+_J) - tr((M+_J)^2) on the spinor-level projector
  Gram M+, for the product basis or for a conjugation-invariant basis
  obtained by rotating the shell modes;
* scalar route: S_J = sum_{i,j<=J} [delta_ij - m^2 |<phi_i, phi_j/lambda>|^2
  - sum_s |<phi_i, (p_s/lambda) phi_j>|^2] over scalar modes, the 4-spin
  reduction of the same quantity.

Both exploit that the identity part of M+ is exact by orthonormality of the
modes; the honest quadrature Gram enters through the 1/lambda and
p_s/lambda weights only.  On complete shells the sums are basis independent
(trace invariance); the basis matters for partial shells, which is exactly
why the series itself is basis sensitive.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import fock
from .charge import SubspaceBasis, bc_psi_omega
from .modes import Shell, enumerate_shell, shell_conjugation
from .quadrature import QuadGrid, GramMatrices, gram_suite, ideal_m_plus, m_plus

__all__ = [
    "DivergenceSeries",
    "vacuum_series_trace",
    "vacuum_series_scalar",
    "growth_diagnostics",
    "toy_oracle_equivalence",
    "c_invariant_transform",
    "mplus_diagonal",
]

PRODUCT = "product"
C_INVARIANT = "c_invariant"
MAX_TAIL = 0.10


@dataclass
class DivergenceSeries:
    """Per-shell partial sums of the vacuum-norm series."""

    shells: list          # shell radii K
    mode_counts: list     # spinor mode count 4 (2K+1)^3 per shell
    S: list               # partial sums at the shell boundaries
    basis_kind: str
    m: float
    grid: str             # grid description string
    tail: float           # estimated quadrature mass loss at the top shell

    def increments(self):
        return [self.S[0]] + [b - a for a, b in zip(self.S, self.S[1:])]


def _check_shells(shells):
    shells = [int(k) for k in shells]
    if not shells or any(k < 0 for k in shells):
        raise ValueError("need a non-empty list of shell radii >= 0")
    if sorted(set(shells)) != shells:
        raise ValueError("shell radii must be strictly ascending")
    return shells


def _check_grid(grid: QuadGrid, kmax: int):
    tail = grid.tail_estimate(kmax)
    if tail > MAX_TAIL:
        raise ValueError(
            f"grid too small for shell {kmax}: tail estimate {tail:.3f} > {MAX_TAIL}")
    return tail


def _check_suite(suite: GramMatrices, kmax: int):
    if suite is not None and suite.shell.K < kmax:
        raise ValueError(
            f"precomputed Gram suite covers shell {suite.shell.K} < {kmax}")


def c_invariant_transform(shell: Shell) -> sparse.csc_matrix:
    """Sparse unitary whose columns express a conjugation-invariant ONB of
    the shell's spinor modes in the product basis.

    The shell conjugation is a signed permutation without fixed indices:
    C e_j = s e_p with p != j.  Each pair j < p yields the two C-fixed columns
    (e_j + s e_p)/sqrt(2) and i(e_j - s e_p)/sqrt(2), emitted in ascending j,
    so every column has exactly two nonzeros.  The shell order is closed
    under k -> -k within each sub-shell, hence the first 4(2k+1)^3 columns
    span sub-shell k.  This is the basis `c_invariant_onb` builds from the
    standard seeds, in closed form.
    """
    U = shell_conjugation(shell).U.tocsc()
    n = U.shape[0]
    partner, sign = U.indices, U.data  # C e_j = sign[j] e_partner[j]
    j = np.flatnonzero(partner > np.arange(n))
    p, s = partner[j], sign[j]
    one = np.ones_like(s)
    rows = np.repeat(np.column_stack([j, p]), 2, axis=0).ravel()
    data = np.sqrt(0.5) * np.column_stack([one, s, 1j * one, -1j * s]).ravel()
    return sparse.csc_matrix((data, rows, np.arange(0, 2 * n + 1, 2)), shape=(n, n))


def vacuum_series_trace(shells, m: float, grid: QuadGrid,
                        basis_kind: str = PRODUCT,
                        suite: GramMatrices = None) -> DivergenceSeries:
    """S_J per shell via S = tr(M+_J) - tr((M+_J)^2).

    basis_kind "product" uses the plane-wave spinor modes; "c_invariant"
    conjugates M+ by the invariant basis built from the shell conjugation,
    realizing the basis whose terms all carry weight 1/2.
    """
    shells = _check_shells(shells)
    kmax = shells[-1]
    tail = _check_grid(grid, kmax)
    _check_suite(suite, kmax)
    top = enumerate_shell(kmax)
    if suite is None:
        suite = gram_suite(top, m, grid)
    M = ideal_m_plus(suite)
    if basis_kind == C_INVARIANT:
        V = c_invariant_transform(top)
        M = V.conj().T @ (M @ V)
    elif basis_kind != PRODUCT:
        raise ValueError(f"unknown basis kind {basis_kind!r}")
    S, counts = [], []
    for K in shells:
        j4 = 4 * (2 * K + 1) ** 3
        sub = M[:j4, :j4]
        # tr(H^2) = |H|_F^2 for Hermitian H
        S.append(float(np.trace(sub).real - np.vdot(sub, sub).real))
        counts.append(j4)
    return DivergenceSeries(shells, counts, S, basis_kind, float(m),
                            grid.describe(), tail)


def vacuum_series_scalar(shells, m: float, grid: QuadGrid,
                         suite: GramMatrices = None) -> DivergenceSeries:
    """S_J per shell from the scalar-mode Gram matrices, with the sum over
    the four spins already carried out:

        S = sum_{ij} [delta_ij - m^2 |G0_ij|^2 - sum_s |Gs_ij|^2].
    """
    shells = _check_shells(shells)
    kmax = shells[-1]
    tail = _check_grid(grid, kmax)
    _check_suite(suite, kmax)
    if suite is None:
        suite = gram_suite(enumerate_shell(kmax), m, grid)
    S, counts = [], []
    for K in shells:
        n = (2 * K + 1) ** 3
        total = float(n)
        total -= m * m * float(np.sum(suite.g0[:n, :n] ** 2))
        for gs in suite.gs:
            total -= float(np.sum(gs[:n, :n] ** 2))
        S.append(total)
        counts.append(4 * n)
    return DivergenceSeries(shells, counts, S, PRODUCT, float(m),
                            grid.describe(), tail)


def mplus_diagonal(suite: GramMatrices, transform=None) -> np.ndarray:
    """Diagonal of the honest (quadrature) M+ in the product basis or, given
    a (dense or sparse) transform V, of V* M+ V.  For a conjugation-invariant
    basis these entries sit at 1/2 up to the quadrature tolerance."""
    M = m_plus(suite)
    if transform is None:
        return np.real(np.diagonal(M)).copy()
    V = sparse.csc_matrix(transform)
    return np.real(np.asarray(V.conj().multiply(M @ V).sum(axis=0))).ravel()


def growth_diagnostics(series: DivergenceSeries) -> dict:
    """Increment table, Cauchy verdict, and descriptive growth fits.

    The verdict is "no Cauchy convergence" when the last shell still adds at
    least half the median increment; an (almost) vanishing last increment
    means the series has stalled and is reported as "converged".  The fits
    regress S on log J and on J^(2/3) (boundary-surface scaling); they are
    descriptive only.
    """
    if len(series.S) < 3:
        raise ValueError("need at least 3 shells for diagnostics")
    S = np.asarray(series.S, dtype=float)
    J = np.asarray(series.mode_counts, dtype=float)
    inc = np.asarray(series.increments(), dtype=float)
    med = float(np.median(inc))
    scale = max(1.0, float(np.max(np.abs(S))))
    if abs(inc[-1]) <= 1e-12 * scale:
        verdict = "converged"
    elif inc[-1] >= 0.5 * med:
        verdict = "no Cauchy convergence"
    else:
        verdict = "converged"

    def fit(design):
        A = np.column_stack([np.ones_like(design), design])
        coef, *_ = np.linalg.lstsq(A, S, rcond=None)
        rms = float(np.sqrt(np.mean((A @ coef - S) ** 2)))
        return {"intercept": float(coef[0]), "slope": float(coef[1]), "rms": rms}

    return {
        "increments": inc.tolist(),
        "median_increment": med,
        "last_increment": float(inc[-1]),
        "verdict": verdict,
        "fit_log": fit(np.log(J)),
        "fit_surface": fit(J ** (2.0 / 3.0)),
    }


def toy_oracle_equivalence(model: fock.ToyModel, basis: SubspaceBasis, J: int) -> float:
    """|Q^J Omega|^2 on the toy Fock space versus tr(M+) - tr(M+^2) with the
    exact toy Gram M+_ij = <f_i, P+ f_j>; returns the absolute deviation."""
    omega = fock.vacuum(model)
    ops = bc_psi_omega(model, basis, J)
    vec = np.sum([op @ omega for op in ops], axis=0) if J else np.zeros_like(omega)
    fock_value = float(np.vdot(vec, vec).real)
    F = basis.vectors[:, :J]
    Mt = F.conj().T @ model.p_plus @ F
    trace_value = float((np.trace(Mt) - np.trace(Mt @ Mt)).real)
    return abs(fock_value - trace_value)
