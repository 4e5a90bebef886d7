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

The Grams stay pair-compressed (`GramMatrices`) and reach the spinor level
through `m_plus_terms`, the Kronecker terms of R = M+ - I/2.  The series
needs only R, since S_J = n - |R_J|_F^2 with the identity part of M+ exact.
The dense M+ (`m_plus`, `ideal_m_plus`) is a small-scale oracle for tests.
"""

from dataclasses import dataclass, field
from functools import partial

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
    a, b = np.triu_indices(M)
    PI = np.empty((M, M), dtype=int)
    PI[a, b] = PI[b, a] = np.arange(a.size)
    return PI, a, b


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
    PI, a, b = _pair_index(M)
    prod_p = Bp[a] * Bp[b]
    prod_m = Bm[a] * Bm[b]
    E = prod_p + prod_m
    Ox = xp[None, :] * (prod_p - prod_m)
    mirror = PI[M - 1 - b, M - 1 - a]
    reps, cls = np.unique(np.minimum(np.arange(a.size), mirror),
                          return_inverse=True)
    return E, Ox, xp, PI, reps, cls


@dataclass
class GramMatrices:
    """Weighted Gram matrices of a shell's modes, real symmetric in canonical
    shell order: "one" (weight 1), "g0" (1/lambda), "g1".."g3" (p_s/lambda),
    stored pair-compressed, never as n x n matrices.  With the per-axis pairs
    p_s = PI[k_s(i) + K, k_s(j) + K] of modes i, j the entries are
    one = g1d[p1] g1d[p2] g1d[p3], g0 = acc0[p1, p2, p3], g3 = acc3[p1, p2, p3];
    g1 and g2 are g3 with the axes relabelled."""

    shell: Shell
    m: float
    grid: QuadGrid
    pair_index: np.ndarray = field(repr=False)  # PI, (2K+1, 2K+1)
    g1d: np.ndarray = field(repr=False)         # (npair,) 1d weight-one Gram
    acc0: np.ndarray = field(repr=False)        # (npair,)*3, weight 1/lambda
    acc3: np.ndarray = field(repr=False)        # (npair,)*3, weight p3/lambda

    def gather(self, name: str, rows, cols) -> np.ndarray:
        """Entries G[rows, cols] of the Gram `name`, with the index arrays
        broadcast against each other as in fancy indexing."""
        a, PI = self.shell.modes + self.shell.K, self.pair_index
        if name == "one":
            g = self.g1d[PI]
            return (g[a[rows, 0], a[cols, 0]] * g[a[rows, 1], a[cols, 1]]
                    * g[a[rows, 2], a[cols, 2]])
        # 1/lambda is symmetric under permuting the axes: gs is acc3 with its
        # odd (last) axis moved to place s
        acc, (i, j, k) = {"g0": (self.acc0, (0, 1, 2)), "g1": (self.acc3, (2, 1, 0)),
                          "g2": (self.acc3, (0, 2, 1)), "g3": (self.acc3, (0, 1, 2))}[name]
        # flat index (p_i npair + p_j) npair + p_k, reading p_i, p_j together
        M, npair = PI.shape[0], acc.shape[0]
        T = (PI[:, None, :, None] * npair + PI[None, :, None, :]) * npair
        c = a[:, i] * M + a[:, j]
        flat = T.reshape(M * M, M * M)[c[rows], c[cols]]
        flat += PI[a[rows, k], a[cols, k]]
        return acc.take(flat)

    def fro2(self, k: int) -> float:
        """sum_{i,j<=n} [(m g0_ij)^2 + sum_s gs_ij^2] over the first
        n = (2k+1)^3 modes (|k|_inf <= k), summed over pair triples with a
        pair a != a' counted twice.  The sub-shell is symmetric under
        permuting the axes, so g1..g3 add up equally; m scales g0 before
        squaring, so the sum is finite wherever m^2 is."""
        a, b = np.triu_indices(2 * k + 1)
        sub = np.ix_(*[self.pair_index[a + self.shell.K - k, b + self.shell.K - k]] * 3)
        w = np.where(a == b, 1.0, 2.0)
        T = (self.m * self.acc0[sub]) ** 2 + 3.0 * self.acc3[sub] ** 2
        return float(w @ (T @ w) @ w)


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

    return GramMatrices(
        shell=shell, m=float(m), grid=grid, pair_index=PI, g1d=E.sum(axis=1),
        acc0=np.tensordot(Y, E, axes=([0], [1])),
        acc3=np.tensordot(Y, Ox, axes=([0], [1])),
    )


def m_plus_terms(suite: GramMatrices):
    """Kronecker terms (X_t, Y_t) of R = M+ - I/2, the spinor-level Gram of
    the positive spectral projector less its identity part, with spin as
    the fast index: R = (m G0) (x) beta/2 + sum_s Gs (x) alpha_s/2.

    Each X_t is a function (rows, cols) -> entries gathered from the suite.
    The mass sits in the scalar block, so both factors stay of order one up
    to the largest mass whose square is finite.  The identity part is exact
    on the orthonormal modes; `divergence.mplus_diagonal`, which needs the
    quadrature M+, adds the weight-one Gram ("one", I/2) itself.
    """
    g = gamma_matrices()
    return ([(lambda rows, cols: suite.m * suite.gather("g0", rows, cols), 0.5 * g.beta)]
            + [(partial(suite.gather, name), 0.5 * a)
               for name, a in zip(("g1", "g2", "g3"), g.alpha)])


def _dense_m_plus(suite: GramMatrices, identity) -> np.ndarray:
    idx = np.arange(suite.shell.count)
    terms = [(identity, 0.5 * np.eye(4, dtype=complex))] + m_plus_terms(suite)
    return sum(np.kron(X(idx[:, None], idx), Y) for X, Y in terms)


def m_plus(suite: GramMatrices) -> np.ndarray:
    """Dense small-scale oracle; the series path does not call it.

    Spinor-level Gram of the positive spectral projector,
    M+_{(i,s),(j,t)} = <f_i^s, Lambda+ f_j^t>, spin as the fast index, with
    the quadrature weight-one Gram as its identity part, so eigenvalues sit
    in [0, 1] up to the quadrature tolerance.
    """
    return _dense_m_plus(suite, partial(suite.gather, "one"))


def ideal_m_plus(suite: GramMatrices) -> np.ndarray:
    """Dense small-scale oracle; the series path does not call it.

    Same as m_plus but with the identity part taken exactly, invoking the
    exact orthonormality of the modes; this is the form whose traces match
    the series routes identically.
    """
    return _dense_m_plus(suite, lambda rows, cols: np.equal(rows, cols) * 1.0)
