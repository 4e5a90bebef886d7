"""Momentum-space quadrature and weighted Gram-matrix assembly.

The integrals behind the region-charge series are 3d integrals of

    conj(phi_k^(p)) phi_k'^(p) g(p),    g in {1, 1/lambda, p_s/lambda},

over the cube modes of a shell.  The mode transforms factor per axis and the
grid is a tensor product of identical 1d panels.  Two savings make the big
shells cheap:

* pair folding: per axis the two modes enter through the symmetric product
  D(a - p) D(a' - p), so only pairs a <= a' are tabulated, and every weight
  is even or odd in each coordinate, so each axis folds onto its positive nodes;
* a separable weight: 1/lambda = sum_r c_r exp(-a_r m^2) prod_s exp(-a_r p_s^2),
  an exponential sum (Beylkin and Monzon, ACHA 28, 2010), so the Gram
  accumulators are rank-R sums of outer products of per-axis tables and
  1/lambda is never evaluated on the 3d node set.  G1 and G2 are G3 with its
  axes relabelled, since 1/lambda is symmetric under permuting the axes.

Panels are aligned to the integers because the integrand oscillates with
unit period in each k_s - p_s; Gauss-Legendre of moderate order per panel
then converges fast.  Accumulation order is fixed by the node and term
ordering, so results are reproducible run to run.

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
    "fits_node_cap",
    "mass_squared",
    "GramMatrices",
    "gram_suite",
    "m_plus_terms",
    "m_plus",
    "ideal_m_plus",
]

MAX_EFFECTIVE_NODES = 1e9
_BLOCK_BYTES = 2 ** 21  # bound on gram_suite's per-block temporary


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
    if gauss_order < 2 or int(gauss_order) != gauss_order:
        raise ValueError("gauss_order must be an integer >= 2")
    if not fits_node_cap(cutoff, panels_per_unit, gauss_order):
        raise ValueError(f"grid of more than {MAX_EFFECTIVE_NODES:.0e} effective nodes rejected")
    xi, wi = np.polynomial.legendre.leggauss(int(gauss_order))
    width = 1.0 / panels_per_unit
    starts = np.arange(-cutoff * panels_per_unit, cutoff * panels_per_unit) * width
    nodes = (starts[:, None] + 0.5 * width * (xi[None, :] + 1.0)).ravel()
    weights = np.broadcast_to(0.5 * width * wi, (starts.size, gauss_order)).ravel().copy()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadGrid(int(cutoff), int(panels_per_unit), int(gauss_order), nodes, weights)


def fits_node_cap(cutoff: int, panels_per_unit: int, gauss_order: int) -> bool:
    """Whether the grid's effective node count is within MAX_EFFECTIVE_NODES."""
    return float(2 * cutoff * panels_per_unit * gauss_order) ** 3 <= MAX_EFFECTIVE_NODES


def mass_squared(m: float) -> float:
    """m^2, for a non-negative mass whose square is finite."""
    m2 = float(m) * float(m)
    if not (m >= 0 and np.isfinite(m2)):
        raise ValueError("mass must be finite and non-negative, with a finite square")
    return m2


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

    Returns (E, Ox, xp, PI) where for the pair r = (a, a')
      E[r, i]  = B(a, x_i) B(a', x_i) + B(a, -x_i) B(a', -x_i)
      Ox[r, i] = x_i * (B(a, x_i) B(a', x_i) - B(a, -x_i) B(a', -x_i))
    with B(a, x) = sqrt(w) D(a - x) / (2 pi).
    """
    N = grid.nodes_per_axis
    xp = grid.nodes[N // 2:]
    wp = grid.weights[N // 2:]
    offsets = np.arange(-K, K + 1, dtype=float)
    sq = np.sqrt(wp)
    Bp = sq[None, :] * axis_factor(offsets[:, None] - xp[None, :]) / (2 * np.pi)
    Bm = sq[None, :] * axis_factor(offsets[:, None] + xp[None, :]) / (2 * np.pi)
    PI, a, b = _pair_index(offsets.size)
    prod_p = Bp[a] * Bp[b]
    prod_m = Bm[a] * Bm[b]
    return prod_p + prod_m, xp[None, :] * (prod_p - prod_m), xp, PI


def _inverse_sqrt_terms(x_min: float, x_max: float):
    """(a_r, c_r) with sum_r c_r exp(-a_r x) = 1/sqrt(x) to a relative error
    below 1e-13 for x in [x_min, x_max]: the trapezoid rule, step h = 0.12,
    for (2/sqrt(pi)) int exp(-e^{2s} x + s) ds over s from -ln(x_max)/2 - 37
    to ln(40/x_min)/2, so a_r = e^{2 s_r}, c_r = (2/sqrt(pi)) h e^{s_r}.  The
    step aliases below 1e-17 and the cut ends lose below e^{-37}; the rest is
    rounding, measured at 6.7e-16 on the headline grid for m <= 10 and at
    4.0e-15 for the largest mass whose square is finite."""
    h = 0.12
    lo, hi = -0.5 * np.log(x_max) - 37.0, 0.5 * np.log(40.0 / x_min)
    s = lo + h * np.arange(int(np.ceil((hi - lo) / h)) + 1)
    return np.exp(2.0 * s), (2.0 / np.sqrt(np.pi)) * h * np.exp(s)


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
    """Assemble all weighted Gram matrices of a shell in one quadrature pass:
    acc0 = sum_r c_r e^{-a_r m^2} g_r (x) g_r (x) g_r and acc3 the same with
    h_r last, where g_r = E phi_r, h_r = Ox phi_r, phi_r = exp(-a_r xp^2),
    built in blocks of the first pair index of at most _BLOCK_BYTES."""
    m2 = mass_squared(m)
    grid.tail_estimate(shell.K)  # rejects a cutoff that does not cover the shell
    E, Ox, xp, PI = _axis_tables(shell.K, grid)
    x2 = xp ** 2
    a, c = _inverse_sqrt_terms(3.0 * x2.min() + m2, 3.0 * x2.max() + m2)
    phi = np.exp(-x2[:, None] * a[None, :])
    g, h = E @ phi, Ox @ phi  # (npair, R)
    cg = g * (c * np.exp(-a * m2))
    npair = g.shape[0]
    acc0 = np.empty((npair,) * 3)
    acc3 = np.empty((npair,) * 3)
    rows = max(1, _BLOCK_BYTES // (8 * npair * a.size))
    for p in range(0, npair, rows):
        U = (cg[p:p + rows, None, :] * g[None, :, :]).reshape(-1, a.size)
        np.matmul(U, g.T, out=acc0[p:p + rows].reshape(-1, npair))
        np.matmul(U, h.T, out=acc3[p:p + rows].reshape(-1, npair))

    return GramMatrices(shell=shell, m=float(m), grid=grid, pair_index=PI,
                        g1d=E.sum(axis=1), acc0=acc0, acc3=acc3)


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
