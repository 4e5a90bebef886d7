"""Momentum-space quadrature and weighted Gram-matrix assembly.

The integrals behind the region-charge series are 3d integrals of

    conj(phi_k^(p)) phi_k'^(p) g(p),    g in {1, 1/lambda, p_s/lambda},

over the cube modes of a shell.  The mode transforms factor per axis and the
grid is a tensor product of identical 1d panels.  Two savings make the big
shells cheap:

* pair folding: per axis the two modes enter through the symmetric product
  D(a - p) D(a' - p), so only pairs a <= a' are tabulated, once per mirror
  class {(a, a'), (-a', -a)} as D is even, and every weight is even or odd
  in each coordinate, so each axis folds onto its positive nodes;
* a separable weight: 1/lambda = sum_r c_r exp(-a_r m^2) prod_s exp(-a_r p_s^2),
  a double exponential sum of 60 to 125 terms (Takahasi and Mori, Publ. RIMS
  9, 1974), so every Gram is a rank-R sum of products of 1d factors
  (`AxisFactors`) and 1/lambda is never evaluated on the 3d node set.

Panels are aligned to the integers because the integrand oscillates with
unit period in each k_s - p_s; Gauss-Legendre of moderate order per panel
then converges fast.  Accumulation order is fixed by the node and term
ordering, so results are reproducible run to run.

A Gram suite keeps its Grams in two nf^2 (2 nf) accumulators over the nf
mirror classes of per-axis pairs and reads them at any modes: `terms` gives
(m G0, G1, G2, G3), the Kronecker partners of the spin factors
`m_plus_terms` in R = M+ - I/2, each flat index one read of an (M^2, M^2)
class table plus one of the pair codes, and `one` the weight-one Gram.  The
scalar route reads |R|_F^2 off the 1d factors (`AxisFactors.fro2`).  The
series needs only R, as S_J = n - |R_J|_F^2; the dense M+ (`m_plus`,
`ideal_m_plus`) is a test oracle.
"""

from dataclasses import dataclass, field

import numpy as np

from .modes import Shell, axis_factor
from .spinor import gamma_matrices

__all__ = [
    "QuadGrid",
    "build_grid",
    "fits_node_cap",
    "mass_squared",
    "AxisFactors",
    "GramMatrices",
    "axis_factors",
    "gram_suite",
    "m_plus_terms",
    "m_plus",
    "ideal_m_plus",
]

MAX_EFFECTIVE_NODES = 1e9
_BLOCK_BYTES = 2 ** 18  # bound on gram_suite's per-block temporary
_LAYOUTS = ((0, 1, 2), (2, 1, 0), (0, 2, 1))  # (i, j, k) of G0 and G3, G1, G2


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


def build_grid(cutoff: int, panels_per_unit: int, gauss_order: int) -> QuadGrid:
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


def _axis_tables(K: int, grid: QuadGrid):
    """Even/odd folded pair tables over the positive half-axis, one row per
    mirror class: D is even, so the unordered pair a <= a' and its mirror
    (-a', -a) share their E row and have opposite Ox rows; the pairs with
    a + a' <= 0 stand for the nf = (npair + K + 1) / 2 classes.  Returns (E,
    Ox, xp, PI), PI[a, a'] = 2 class + mirrored, where for a class r = (a, a')
      E[r, i]  = B(a, x_i) B(a', x_i) + B(a, -x_i) B(a', -x_i)
      Ox[r, i] = x_i * (B(a, x_i) B(a', x_i) - B(a, -x_i) B(a', -x_i))
    with B(a, x) = sqrt(w) D(a - x) / (2 pi).
    """
    N, M = grid.nodes_per_axis, 2 * K + 1
    xp, wp = grid.nodes[N // 2:], grid.weights[N // 2:]
    offsets = np.arange(-K, K + 1, dtype=float)
    sq = np.sqrt(wp)
    Bp = sq[None, :] * axis_factor(offsets[:, None] - xp[None, :]) / (2 * np.pi)
    Bm = sq[None, :] * axis_factor(offsets[:, None] + xp[None, :]) / (2 * np.pi)
    a, b = np.triu_indices(M)
    a, b = a[a + b < M], b[a + b < M]
    PI = np.empty((M, M), dtype=np.min_scalar_type(2 * a.size - 1))
    PI[a, b] = PI[b, a] = 2 * np.arange(a.size)
    PI[M - 1 - b, M - 1 - a] = PI[M - 1 - a, M - 1 - b] = PI[a, b] + (a + b < M - 1)
    prod_p = Bp[a] * Bp[b]
    prod_m = Bm[a] * Bm[b]
    return prod_p + prod_m, xp[None, :] * (prod_p - prod_m), xp, PI


def _inverse_sqrt_terms(x_min: float, x_max: float):
    """(a_r, c_r) with sum_r c_r exp(-a_r x) = 1/sqrt(x) to a relative error
    below 1e-13 for x in [x_min, x_max]: the trapezoid rule, step h = 0.12,
    in t for (2/sqrt(pi)) int exp(-e^{2s} x + s) ds, s = t - e^{-t} - ln(x_max)/2
    (Takahasi and Mori, Publ. RIMS 9, 1974), t from -5 to ln(x_max/x_min)/2 + 2,
    so a_r = e^{2 s_r}, c_r = (2/sqrt(pi)) h e^{s_r} (1 + e^{-t_r}).  The ends
    lose e^{-5-e^5} and erfc(e^{2-e^{-2}}) < 1e-19; the step aliases like
    exp(-4.05/h), 1.01e-13 at h = 0.135 for the largest mass with a finite square;
    at 0.12 the rest is rounding, 1.4e-15 for m <= 10 and 5.7e-15 at that mass."""
    h, lo, hi = 0.12, -5.0, 0.5 * np.log(x_max / x_min) + 2.0
    t = lo + h * np.arange(int(np.ceil((hi - lo) / h)) + 1)
    s = t - np.exp(-t) - 0.5 * np.log(x_max)
    return np.exp(2.0 * s), (2.0 / np.sqrt(np.pi)) * h * np.exp(s) * (1.0 + np.exp(-t))


@dataclass
class AxisFactors:
    """The 1d factors of a shell's Grams: with the per-axis pair codes
    PI[k_s(i) + K, k_s(j) + K] = 2 q_s + e_s of modes i, j (class q_s,
    mirrored bit e_s), G0_ij = sum_r chat_r g[q1, r] g[q2, r] g[q3, r], G3_ij
    the same with (-1)^e3 h[q3, r] last and one_ij = g1d[q1] g1d[q2] g1d[q3];
    g1 and g2 are g3 with the axes relabelled, since 1/lambda is symmetric
    under permuting the axes."""

    shell: Shell
    m: float
    grid: QuadGrid
    pair_index: np.ndarray = field(repr=False)  # PI, (2K+1, 2K+1), 2 class + mirrored
    g1d: np.ndarray = field(repr=False)         # (nf,) 1d weight-one Gram
    g: np.ndarray = field(repr=False)           # (nf, R)
    h: np.ndarray = field(repr=False)           # (nf, R)
    chat: np.ndarray = field(repr=False)        # (R,)

    def fro2(self, k: int) -> float:
        """sum_{i,j<=n} [(m G0_ij)^2 + sum_s Gs_ij^2] over the first
        n = (2k+1)^3 modes: with the sub-shell's pair classes p, each counted w_p
        times, it factors per axis into I_gg = g_p^T diag(w) g_p and I_hh, so
        it is (m chat)^T I_gg^3 (m chat) + 3 chat^T (I_gg^2 I_hh) chat in
        elementwise powers (g1..g3 add up equally), finite wherever m^2 is."""
        sub = slice(self.shell.K - k, self.shell.K + k + 1)
        p, w = np.unique(self.pair_index[sub, sub] >> 1, return_counts=True)
        I_gg, I_hh = (np.dot(F[p].T, w[:, None] * F[p]) for F in (self.g, self.h))
        mc, T = self.m * self.chat, I_gg * I_gg
        I_hh *= T
        T *= I_gg
        return float(mc @ T @ mc + 3.0 * self.chat @ I_hh @ self.chat)


@dataclass
class GramMatrices(AxisFactors):
    """Weighted Gram matrices of a shell's modes, real symmetric in canonical
    shell order: weight 1, 1/lambda (G0) and p_s/lambda (G1..G3), stored
    over the pair classes with the last axis signed, G0 = acc0[q1, q2, PI3]
    and G3 = acc3[q1, q2, PI3]: odd slots copy (acc0) or negate (acc3).
    Gs is acc3 with axis s signed (1/lambda is symmetric under permuting the
    axes), so each layout (i, j, k) of `_LAYOUTS` reads the flat index
    (q_i nf + q_j) 2 nf + PI_k, q = PI >> 1, as one read of class_table[x_i M
    + x_j, y_i M + y_j] = (q[x_i, y_i] nf + q[x_j, y_j]) 2 nf (M = 2K + 1) at
    the modes' codes a_i M + a_j plus one of PI at a_k; table and codes are
    built from pair_index and shell, in the smallest dtype that holds them."""

    acc0: np.ndarray = field(repr=False)        # (nf, nf, 2 nf), weight 1/lambda
    acc3: np.ndarray = field(repr=False)        # (nf, nf, 2 nf), weight p3/lambda
    class_table: np.ndarray = field(init=False, repr=False)  # (M^2, M^2)
    codes: np.ndarray = field(init=False, repr=False)        # (3, 2, n)

    def __post_init__(self):
        a, M, nf = self.shell.modes + self.shell.K, len(self.pair_index), len(self.acc0)
        Q = (self.pair_index >> 1).astype(np.min_scalar_type(self.acc0.size - 1)) * (2 * nf)
        self.class_table = (Q[:, None, :, None] * nf + Q[None, :, None, :]).reshape(M * M, M * M)
        self.codes = np.array([(a[:, i] * M + a[:, j], a[:, k]) for i, j, k in _LAYOUTS],
                              dtype=np.min_scalar_type(M * M - 1))

    def one(self, rows, cols) -> np.ndarray:
        """The weight-one Gram at the modes (rows, cols), broadcast as `terms`."""
        a = self.shell.modes + self.shell.K
        pairs = np.stack([self.pair_index[a[rows, s], a[cols, s]] for s in range(3)])
        return np.prod(self.g1d[pairs >> 1], axis=0)

    def terms(self, rows, cols, out=None) -> np.ndarray:
        """The stack (m G0, G1, G2, G3) at the modes (rows, cols), broadcast
        as in fancy indexing, into `out` if given; IndexError off the shell,
        from the codes, so every flat index is in range and the takes clip
        (a raising take writes through a copy).  A column of rows against 1d
        cols reads the columns of every layout first, then the rows."""
        T, PI = self.class_table, self.pair_index
        if np.shape(rows)[1:] == (1,) and np.ndim(cols) == 1:
            r, c = self.codes[..., rows[:, 0]], self.codes[..., cols]
            Tc = T.take(c[:, 0], axis=1).transpose(1, 0, 2).copy()
            Pc = PI.take(c[:, 1], axis=1).transpose(1, 0, 2).copy()
            parts = ((Tc[l].take(r[l, 0], axis=0), Pc[l].take(r[l, 1], axis=0)) for l in range(3))
        else:
            r, c = self.codes[..., rows], self.codes[..., cols]
            parts = ((T[r[l, 0], c[l, 0]], PI[r[l, 1], c[l, 1]]) for l in range(3))
        reads = (((self.acc0, 0), (self.acc3, 3)), ((self.acc3, 1),), ((self.acc3, 2),))
        flat = None  # one index buffer for all layouts; each layout's parts die in np.add
        for layout_reads in reads:
            flat = np.add(*next(parts), out=flat)
            out = np.empty((4,) + flat.shape) if out is None else out
            for acc, t in layout_reads:
                acc.take(flat, out=out[t], mode="clip")
        out[0] *= self.m
        return out


def axis_factors(shell: Shell, m: float, grid: QuadGrid) -> AxisFactors:
    """The 1d factors of a shell's Grams: g = E phi, h = Ox phi on the
    folded pair tables, phi_r = exp(-a_r xp^2), chat_r = c_r e^{-a_r m^2}."""
    m2 = mass_squared(m)
    grid.tail_estimate(shell.K)  # rejects a cutoff that does not cover the shell
    E, Ox, xp, PI = _axis_tables(shell.K, grid)
    x2 = xp ** 2
    a, c = _inverse_sqrt_terms(3.0 * x2.min() + m2, 3.0 * x2.max() + m2)
    phi = np.exp(-x2[:, None] * a[None, :])
    return AxisFactors(shell=shell, m=float(m), grid=grid, pair_index=PI,
                       g1d=E.sum(axis=1), g=E @ phi, h=Ox @ phi, chat=c * np.exp(-a * m2))


def gram_suite(shell: Shell, m: float, grid: QuadGrid) -> GramMatrices:
    """All weighted Gram matrices of a shell: acc0 = sum_r chat_r g_r (x) g_r
    (x) g_r and acc3 the same with h_r last, on the factors of `axis_factors`,
    written to the even slots of the last axis and copied (acc0) or negated
    (acc3) into the odd ones, in blocks of at most _BLOCK_BYTES."""
    f = axis_factors(shell, m, grid)
    (nf, R), g, cg = f.g.shape, f.g, f.g * f.chat
    acc0, acc3 = np.empty((nf, nf, 2 * nf)), np.empty((nf, nf, 2 * nf))
    rows = max(1, _BLOCK_BYTES // (8 * nf * R))
    for p in range(0, nf, rows):
        U = (cg[p:p + rows, None, :] * g[None, :, :]).reshape(-1, R)
        for acc, F, odd in ((acc0, g, np.positive), (acc3, f.h, np.negative)):
            slots = acc[p:p + rows].reshape(-1, nf, 2)
            np.matmul(U, F.T, out=slots[..., 0])
            odd(slots[..., 0], out=slots[..., 1])
    return GramMatrices(**vars(f), acc0=acc0, acc3=acc3)


def m_plus_terms():
    """Spin factors (Y_t, eps_t) of R = M+ - I/2, the spinor-level Gram of
    the positive spectral projector less its identity part, spin the fast
    index: R = sum_t X_t (x) Y_t, X_t the stack `GramMatrices.terms`
    (m G0, G1, G2, G3) and Y_t = beta/2, alpha_s/2 in that order.

    eps_t is the parity X_t(-k, -k') = eps_t X_t(k, k') under the mirror of
    both modes: phi_{-k}^(p) = phi_k^(-p) on the symmetric grid, 1/lambda is
    even in p and p_s/lambda odd.  The mass sits in the scalar block, so both
    factors stay of order one up to the largest mass whose square is finite.
    The identity part is exact on the orthonormal modes;
    `divergence.mplus_diagonal` adds the quadrature one (`GramMatrices.one`).
    """
    g = gamma_matrices()
    return [(0.5 * g.beta, 1.0)] + [(0.5 * a, -1.0) for a in g.alpha]


def _dense_m_plus(suite: GramMatrices, identity: np.ndarray) -> np.ndarray:
    Xs = [identity, *suite.terms(*np.indices((suite.shell.count,) * 2))]
    Ys = [0.5 * np.eye(4, dtype=complex)] + [Y for Y, _ in m_plus_terms()]
    return sum(np.kron(X, Y) for X, Y in zip(Xs, Ys))


def m_plus(suite: GramMatrices) -> np.ndarray:
    """Dense small-scale oracle, off the series path: the spinor-level Gram
    M+_{(i,s),(j,t)} = <f_i^s, Lambda+ f_j^t> of the positive spectral
    projector, spin as the fast index, with the quadrature weight-one Gram as
    its identity part, so eigenvalues sit in [0, 1] up to the quadrature
    tolerance."""
    return _dense_m_plus(suite, suite.one(*np.indices((suite.shell.count,) * 2)))


def ideal_m_plus(suite: GramMatrices) -> np.ndarray:
    """Dense small-scale oracle, off the series path: m_plus with the exact
    identity part of orthonormal modes, whose traces match the series routes."""
    return _dense_m_plus(suite, np.eye(suite.shell.count))
