"""Momentum-space quadrature and weighted Gram-matrix assembly.

The integrals behind the region-charge series are 3d integrals of

    conj(phi_k^(p)) phi_k'^(p) g(p),    g in {1, 1/lambda, p_s/lambda},

over the cube modes of a shell.  The mode transforms factor per axis and the
grid is a tensor product of identical 1d panels, so a Gram matrix is a
three-stage contraction of per-axis factor tables against the non-separable
weight g(p).  Four structural savings make the big shells cheap:

* per axis the two modes enter through the symmetric product
  D(a - p) D(a' - p), so only pairs a <= a' are contracted;
* the node set is symmetric under p -> -p and every weight is even or odd
  in each coordinate, so each axis is folded onto its positive nodes;
* 1/lambda is symmetric under permuting the axes, so G1 and G2 are G3 with
  its axes relabelled, and each plane of nodes only needs E W E^T;
* D is even, so the pairs (a, a') and (-a', -a) share their folded even
  row, and a plane is contracted over one pair of each such class.

The plane loop writes the weights and both products into buffers allocated
once before it, so it allocates nothing per plane.

Panels are aligned to the integers because the integrand oscillates with
unit period in each k_s - p_s; Gauss-Legendre of moderate order per panel
then converges fast.  Accumulation order is fixed by the node ordering, so
results are reproducible run to run.

The Grams reach the spinor level through `m_plus_terms`, the Kronecker terms
of R = M+ - I/2.  The series needs only R, since S_J = n - |R_J|_F^2 with the
identity part of M+ exact.  The dense M+ (`m_plus`, `ideal_m_plus`) is a
small-scale oracle that only the tests call.
"""

from dataclasses import dataclass, field

import numpy as np

from .modes import Shell, axis_factor
from .spinor import gamma_matrices

__all__ = [
    "QuadGrid",
    "build_grid",
    "GramMatrices",
    "gram_suite",
    "m_plus_terms",
    "m_plus",
    "ideal_m_plus",
]

MAX_EFFECTIVE_NODES = 1e9


@dataclass(frozen=True)
class QuadGrid:
    """Tensor-product Gauss-Legendre grid on [-cutoff, cutoff]^3 with panel
    boundaries at multiples of 1/panels_per_unit."""

    cutoff: int
    panels_per_unit: int
    gauss_order: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def nodes_per_axis(self) -> int:
        return self.nodes.size

    def effective_nodes(self) -> float:
        return float(self.nodes.size) ** 3

    def tail_estimate(self, kmax: int = 0) -> float:
        """Estimated relative mass lost outside the cutoff for modes with
        |k|_inf <= kmax, from the 1d envelope 4 sin^2(pi q)/q^2 whose tail
        integrates to ~4/Q per axis against a total of 4 pi^2."""
        Q = self.cutoff - kmax
        if Q <= 0:
            raise ValueError(f"cutoff {self.cutoff} does not cover shell {kmax}")
        per_axis = 1.0 / (np.pi ** 2 * Q)
        return float(1.0 - (1.0 - per_axis) ** 3)

    def describe(self) -> str:
        return (f"cutoff={self.cutoff} panels_per_unit={self.panels_per_unit} "
                f"gauss_order={self.gauss_order}")


def build_grid(cutoff: int, panels_per_unit: int = 2, gauss_order: int = 6) -> QuadGrid:
    """Panelized Gauss-Legendre grid; per axis 2*cutoff*panels_per_unit
    panels of `gauss_order` nodes each."""
    if cutoff < 1 or int(cutoff) != cutoff:
        raise ValueError("cutoff must be a positive integer")
    if panels_per_unit < 1 or int(panels_per_unit) != panels_per_unit:
        raise ValueError("panels_per_unit must be a positive integer")
    if gauss_order < 2:
        raise ValueError("gauss_order must be >= 2")
    per_axis = 2 * cutoff * panels_per_unit * gauss_order
    if float(per_axis) ** 3 > MAX_EFFECTIVE_NODES:
        raise ValueError(f"grid of {per_axis}^3 effective nodes rejected")
    xi, wi = np.polynomial.legendre.leggauss(int(gauss_order))
    width = 1.0 / panels_per_unit
    starts = np.arange(-cutoff * panels_per_unit, cutoff * panels_per_unit) * width
    nodes = (starts[:, None] + 0.5 * width * (xi[None, :] + 1.0)).ravel()
    weights = np.broadcast_to(0.5 * width * wi, (starts.size, gauss_order)).ravel().copy()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadGrid(int(cutoff), int(panels_per_unit), int(gauss_order), nodes, weights)


# ---------------------------------------------------------------------------
# folded per-axis factor tables


def _pair_index(M: int):
    """Index matrix PI[a, a'] into the list of unordered pairs a <= a'."""
    PI = np.empty((M, M), dtype=int)
    pairs = []
    for a in range(M):
        for b in range(a, M):
            PI[a, b] = PI[b, a] = len(pairs)
            pairs.append((a, b))
    return PI, np.array(pairs)


def _axis_tables(K: int, grid: QuadGrid):
    """Even/odd folded pair tables over the positive half-axis.

    Returns (E, Ox, xp, PI, reps, cls) where for the pair r = (a, a')
      E[r, i]  = B(a, x_i) B(a', x_i) + B(a, -x_i) B(a', -x_i)
      Ox[r, i] = x_i * (B(a, x_i) B(a', x_i) - B(a, -x_i) B(a', -x_i))
    with B(a, x) = sqrt(w) D(a - x) / (2 pi).  Since D is even,
    B(a, -x) = B(-a, x), so the pairs (a, a') and (-a', -a) share their E row
    and have opposite Ox rows.  `reps` lists one pair of each such class and
    `cls` gives every pair the position of its class in `reps`.
    """
    N = grid.nodes_per_axis
    xp = grid.nodes[N // 2:]
    wp = grid.weights[N // 2:]
    offsets = np.arange(-K, K + 1, dtype=float)
    sq = np.sqrt(wp)
    Bp = sq[None, :] * axis_factor(offsets[:, None] - xp[None, :]) / (2 * np.pi)
    Bm = sq[None, :] * axis_factor(offsets[:, None] + xp[None, :]) / (2 * np.pi)
    M = offsets.size
    PI, pairs = _pair_index(M)
    a, b = pairs[:, 0], pairs[:, 1]
    prod_p = Bp[a] * Bp[b]
    prod_m = Bm[a] * Bm[b]
    E = prod_p + prod_m
    Ox = xp[None, :] * (prod_p - prod_m)
    mirror = PI[M - 1 - b, M - 1 - a]
    reps, cls = np.unique(np.minimum(np.arange(len(pairs)), mirror),
                          return_inverse=True)
    return E, Ox, xp, PI, reps, cls


def _full_axis_table(K: int, grid: QuadGrid):
    offsets = np.arange(-K, K + 1, dtype=float)
    return (np.sqrt(grid.weights)[None, :]
            * axis_factor(offsets[:, None] - grid.nodes[None, :]) / (2 * np.pi))


def _shell_permutation(shell: Shell):
    """Positions of the canonically ordered shell modes inside the plain
    product enumeration over (k1, k2, k3)."""
    K, M = shell.K, 2 * shell.K + 1
    a = shell.modes + K
    return (a[:, 0] * M + a[:, 1]) * M + a[:, 2]


def _unfold(acc: np.ndarray, PI: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Pair-compressed (npair, npair, npair) accumulator -> (M^3, M^3) Gram
    in canonical shell order."""
    M = PI.shape[0]
    I1 = PI[:, None, None, :, None, None]
    I2 = PI[None, :, None, None, :, None]
    I3 = PI[None, None, :, None, None, :]
    G = acc[I1, I2, I3].reshape(M ** 3, M ** 3)
    return np.ascontiguousarray(G[np.ix_(perm, perm)])


@dataclass
class GramMatrices:
    """Weighted Gram matrices of a shell's modes: G_one (weight 1), G0
    (weight 1/lambda) and G1..G3 (weights p_s/lambda), all real symmetric
    in canonical shell order, plus grid metadata."""

    shell: Shell
    m: float
    grid: QuadGrid
    g_one: np.ndarray
    g0: np.ndarray
    gs: tuple  # (G1, G2, G3)


def gram_suite(shell: Shell, m: float, grid: QuadGrid) -> GramMatrices:
    """Assemble all weighted Gram matrices of a shell in one quadrature pass."""
    m2 = float(m) * float(m)
    if not (m >= 0 and np.isfinite(m2)):
        raise ValueError("mass must be finite and non-negative, with a finite square")
    if grid.cutoff <= shell.K:
        raise ValueError("cutoff must exceed the shell radius")
    E, Ox, xp, PI, reps, cls = _axis_tables(shell.K, grid)
    Er = E[reps]
    Nh = xp.size

    # W = 1/lambda on the plane of the i3-th node, evaluated in place
    x2 = xp ** 2
    plane = x2[:, None] + x2[None, :] + m2
    W = np.empty_like(plane)
    EW = np.empty((reps.size, Nh))
    Yr = np.empty((Nh, reps.size, reps.size))
    for i3 in range(Nh):
        np.add(plane, x2[i3], out=W)
        np.sqrt(W, out=W)
        np.divide(1.0, W, out=W)
        np.matmul(Er, W, out=EW)
        np.matmul(EW, Er.T, out=Yr[i3])
    Y = Yr[:, cls[:, None], cls[None, :]]

    acc0 = np.tensordot(Y, E, axes=([0], [1]))
    acc3 = np.tensordot(Y, Ox, axes=([0], [1]))
    # the weight is symmetric under permuting the axes, so G1 and G2 are G3
    # with its odd axis moved to the first or the second place
    acc1 = acc3.transpose(2, 1, 0)
    acc2 = acc3.transpose(0, 2, 1)

    perm = _shell_permutation(shell)
    B = _full_axis_table(shell.K, grid)
    g1d = B @ B.T
    g_one = np.kron(np.kron(g1d, g1d), g1d)[np.ix_(perm, perm)]

    return GramMatrices(
        shell=shell, m=float(m), grid=grid,
        g_one=np.ascontiguousarray(g_one),
        g0=_unfold(acc0, PI, perm),
        gs=tuple(_unfold(a, PI, perm) for a in (acc1, acc2, acc3)),
    )


def m_plus_terms(suite: GramMatrices):
    """Kronecker terms (X_t, Y_t) of R = M+ - I/2, the spinor-level Gram of
    the positive spectral projector less its identity part, with spin as
    the fast index: R = (m G0) (x) beta/2 + sum_s Gs (x) alpha_s/2.

    The mass sits in the scalar block, so both factors stay of order one up
    to the largest mass whose square is finite.  The identity part is exact
    on the orthonormal modes; `divergence.mplus_diagonal`, which needs the
    quadrature M+, adds (g_one, I/2) itself.
    """
    g = gamma_matrices()
    return ([(suite.m * suite.g0, 0.5 * g.beta)]
            + [(G, 0.5 * a) for G, a in zip(suite.gs, g.alpha)])


def _dense_m_plus(suite: GramMatrices, identity: np.ndarray) -> np.ndarray:
    terms = [(identity, 0.5 * np.eye(4, dtype=complex))] + m_plus_terms(suite)
    return sum(np.kron(X, Y) for X, Y in terms)


def m_plus(suite: GramMatrices) -> np.ndarray:
    """Dense small-scale oracle; the series path does not call it.

    Spinor-level Gram of the positive spectral projector,
    M+_{(i,s),(j,t)} = <f_i^s, Lambda+ f_j^t>, spin as the fast index, with
    the quadrature weight-one Gram as its identity part, so eigenvalues sit
    in [0, 1] up to the quadrature tolerance.
    """
    return _dense_m_plus(suite, suite.g_one)


def ideal_m_plus(suite: GramMatrices) -> np.ndarray:
    """Dense small-scale oracle; the series path does not call it.

    Same as m_plus but with the identity part taken exactly, invoking the
    exact orthonormality of the modes; this is the form whose traces match
    the series routes identically.
    """
    return _dense_m_plus(suite, np.eye(suite.shell.count))
