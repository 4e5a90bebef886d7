"""Verification suites behind the command-line experiment runner.

Each suite builds its instances from a seeded generator, evaluates the
relevant contracts, and returns per-instance rows (the machine-readable
output) plus named checks with tolerances (the pass/fail summary).  The
acceptance tests drive the same functions.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from . import bessel, charge, divergence, fock, involution, modes, quadrature

__all__ = ["ExperimentConfig", "Check", "SuiteResult", "EXPERIMENTS", "run_experiment"]

# frozen instance for the non-commutation witness of the number-operator
# variant: found by seed search, kept as a regression anchor
QTILDE_WITNESS_SEED = 10


@dataclass(frozen=True)
class ExperimentConfig:
    """The settings of one experiment run and the one place of their defaults.

    Building it checks every setting before any numerics (the rules of
    `quadrature.mass_squared`, `build_grid`, `divergence.checked_tail`,
    `checked_suite_bytes`) and raises ValueError on an unusable one.  It keeps
    vacuum-divergence's grid and reference grid: the order doubled or, past
    the node cap, halved."""

    m: float = 1.0
    shells: int = 3
    cutoff: int = 40
    panels: int = 2
    order: int = 6
    seed: int = 0
    grid: quadrature.QuadGrid = field(init=False, repr=False)
    reference_grid: quadrature.QuadGrid = field(init=False, repr=False)

    def __post_init__(self):
        quadrature.mass_squared(self.m)
        if not all(isinstance(k, (int, np.integer)) and k >= 0 for k in (self.shells, self.seed)):
            raise ValueError(f"shells and seed must be integers >= 0, got "
                             f"shells={self.shells!r}, seed={self.seed!r}")
        grid = quadrature.build_grid(self.cutoff, self.panels, self.order)
        divergence.checked_tail(grid, self.shells)
        divergence.checked_suite_bytes(self.shells)
        doubled = quadrature.fits_node_cap(self.cutoff, self.panels, 2 * self.order)
        ref_order = 2 * self.order if doubled else max(2, self.order // 2)
        if ref_order == self.order:
            raise ValueError(f"no reference grid for the self-convergence check: order "
                             f"{self.order} can neither double within the node cap nor halve")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "reference_grid",
                           quadrature.build_grid(self.cutoff, self.panels, ref_order))


@dataclass
class Check:
    name: str
    value: float
    tolerance: float
    passed: bool

    @classmethod
    def below(cls, name, value, tol):
        return cls(name, float(value), float(tol), bool(value < tol))

    @classmethod
    def at_least(cls, name, value, bound):
        return cls(name, float(value), float(bound), bool(value >= bound))

    @classmethod
    def holds(cls, name, flag):
        return cls(name, 1.0 if flag else 0.0, 1.0, bool(flag))


@dataclass
class SuiteResult:
    experiment: str
    columns: list
    rows: list = field(default_factory=list)
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def check_rows(self):
        return [{"check": c.name, "value": c.value, "tolerance": c.tolerance,
                 "status": "PASS" if c.passed else "FAIL"} for c in self.checks]


def _check_result(experiment, checks):
    res = SuiteResult(experiment, ["check", "value", "tolerance", "status"], checks=checks)
    res.rows = res.check_rows()
    return res


def _random_vec(rng, n, normalize=False):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v) if normalize else v


# ---------------------------------------------------------------------------
# car-check


def run_car_check(cfg: ExperimentConfig) -> SuiteResult:
    rng = np.random.default_rng(cfg.seed)
    plan = [(6, 40), (8, 40), (12, 20)]  # 100 (f, g) pairs total
    names = ["bb", "b*b*", "b*b-car", "cc", "c*c*", "c*c-car",
             "bc", "bc*", "b*c", "b*c*", "PsiPsi", "Psi*Psi-car", "adjoint"]
    worst = dict.fromkeys(names, 0.0)
    for n, pairs in plan:
        model = fock.random_model(n, rng)
        rows = []  # (x, y, shift) of {A, B} - shift I, in the order of `names`
        for _ in range(pairs):
            f = _random_vec(rng, n)
            g = _random_vec(rng, n)
            bs_f, b_f, cs_f, c_f = fock._ladder_coeffs(model, f)
            bs_g, b_g, cs_g, c_g = fock._ladder_coeffs(model, g)
            rows += [(b_f, b_g, 0.0),
                     (bs_f, bs_g, 0.0),
                     (bs_f, b_g, np.vdot(g, model.p_plus @ f)),
                     (c_f, c_g, 0.0),
                     (cs_f, cs_g, 0.0),
                     (cs_f, c_g, np.conj(np.vdot(g, model.p_minus @ f))),
                     (b_f, c_g, 0.0),
                     (b_f, cs_g, 0.0),
                     (bs_f, c_g, 0.0),
                     (bs_f, cs_g, 0.0),
                     (b_f + cs_f, b_g + cs_g, 0.0),
                     (bs_f + c_f, b_g + cs_g, np.vdot(g, f))]
            # G(x)^dagger = G(sigma conj(x)), sigma swapping the raising and lowering terms
            adjoint = bs_f + c_f - np.roll(np.conj(b_f + cs_f), n)
            worst["adjoint"] = max(worst["adjoint"], float(np.max(np.abs(adjoint))))
        # the pattern side of that identity, on all 2n terms of the mode count's G
        adjoint = fock.field_adjoint(model, f) - fock.field_op(model, f).conj().T.tocsr()
        worst["adjoint"] = max(worst["adjoint"], charge.max_abs(adjoint))
        # all of the mode count's anticommutators in one batched pass
        xs, ys, shifts = zip(*rows)
        deviations = fock._anticommutator_deviations(n, xs, ys, shifts).reshape(pairs, -1)
        for name, column in zip(names[:-1], deviations.T):
            worst[name] = max(worst[name], float(column.max()))
    checks = [Check.below(f"car/{k}", v, 1e-12) for k, v in worst.items()]
    return _check_result("car-check", checks)


# ---------------------------------------------------------------------------
# spectrum (eigenvalue lattice law and conjugation-invariant split)


def run_spectrum(cfg: ExperimentConfig) -> SuiteResult:
    rng = np.random.default_rng(cfg.seed)
    rows = []
    worst_p1 = 0.0
    for i in range(50):
        n = (4, 6, 8)[i % 3]
        d = 1 + i % 4
        model = fock.random_model(n, rng)
        basis = charge.random_subspace(model, d, rng)
        dev = charge.spectrum_deviation(model, charge.q_subspace(model, basis),
                                        charge.predicted_spectrum(basis))
        worst_p1 = max(worst_p1, dev)
        rows.append({"instance": i, "kind": "generic", "n": n, "d": d,
                     "dminus": basis.dminus, "deviation": dev,
                     "tolerance": 1e-9, "status": "PASS" if dev < 1e-9 else "FAIL"})

    worst_half = 0.0
    worst_lattice = 0.0
    for i in range(12):
        n = (4, 6, 8)[i % 3]
        d = 1 + i % 4
        model = fock.random_model(n, rng)
        basis = charge.c_invariant_subspace(model, d, rng)
        half_dev = abs(basis.dplus - d / 2.0)
        dev = charge.spectrum_deviation(model, charge.q_subspace(model, basis),
                                        -d / 2.0 + np.arange(d + 1))
        worst_half = max(worst_half, half_dev)
        worst_lattice = max(worst_lattice, dev)
        rows.append({"instance": 50 + i, "kind": "conjugation-invariant", "n": n, "d": d,
                     "dminus": basis.dminus, "deviation": max(half_dev, dev),
                     "tolerance": 1e-9,
                     "status": "PASS" if max(half_dev, dev) < 1e-9 else "FAIL"})

    model = fock.random_model(6, rng)
    basis = charge.random_subspace(model, 3, rng)
    worst_indep = charge.q_basis_independence_check(
        model, basis, (fock.random_unitary(rng, 3) for _ in range(100)))
    worst_witness = 0.0
    for _ in range(3):
        model = fock.random_model(6, rng)
        basis = charge.random_subspace(model, 3, rng)
        for j in range(basis.dim + 1):
            _, res = charge.eigenvector_witness(model, basis, j)
            worst_witness = max(worst_witness, res)

    checks = [
        Check.below("spectrum-law/spectrum-lattice", worst_p1, 1e-9),
        Check.below("conjugation-invariant/dplus-half", worst_half, 1e-10),
        Check.below("conjugation-invariant/parity-lattice", worst_lattice, 1e-9),
        Check.below("spectrum-law/basis-independence", worst_indep, 1e-10),
        Check.below("spectrum-law/eigenvector-witness", worst_witness, 1e-10),
    ]
    res = SuiteResult("spectrum",
                      ["instance", "kind", "n", "d", "dminus", "deviation",
                       "tolerance", "status"], rows=rows, checks=checks)
    return res


# ---------------------------------------------------------------------------
# additivity (orthogonal and overlapping subspaces)


def run_additivity(cfg: ExperimentConfig) -> SuiteResult:
    rng = np.random.default_rng(cfg.seed)
    worst_comm = worst_add = worst_overlap = 0.0
    for i in range(12):
        n = (6, 8)[i % 2]
        model = fock.random_model(n, rng)
        frame, _ = np.linalg.qr(rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4)))
        b1 = charge.SubspaceBasis.from_vectors(model, frame[:, :2])
        b2 = charge.SubspaceBasis.from_vectors(model, frame[:, 2:])
        rep = charge.q_additivity_and_commutation(model, b1, b2)
        worst_comm = max(worst_comm, rep["commutator"])
        worst_add = max(worst_add, rep["additivity"])
    for i in range(8):
        model = fock.random_model(6, rng)
        frame, _ = np.linalg.qr(rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3)))
        k1 = charge.SubspaceBasis.from_vectors(model, frame[:, :2])  # A + B
        k2 = charge.SubspaceBasis.from_vectors(model, frame[:, [0, 2]])  # A + C
        rep = charge.q_additivity_and_commutation(model, k1, k2, require_orthogonal=False)
        worst_overlap = max(worst_overlap, rep["commutator"])
    model = fock.random_model(6, rng)
    basis = charge.random_subspace(model, 2, rng)
    empty = charge.SubspaceBasis.from_vectors(model, np.zeros((6, 0)))
    rep = charge.q_additivity_and_commutation(model, basis, empty)
    checks = [
        Check.below("orthogonal-pair/commutator", worst_comm, 1e-11),
        Check.below("orthogonal-pair/additivity", worst_add, 1e-11),
        Check.below("overlapping-pair/overlap-commutator", worst_overlap, 1e-11),
        Check.below("orthogonal-pair/trivial-pair", max(rep["commutator"], rep["additivity"]), 1e-15),
    ]
    return _check_result("additivity", checks)


# ---------------------------------------------------------------------------
# cbasis (conjugation-fixed basis constructor)


def _footnote_seed_basis():
    """Adversarial seed order on C^8 for plain conjugation: even-index
    standard vectors with phases first, mimicking the gap in the classical
    induction where the invariant vectors span only half the space."""
    e = np.eye(8, dtype=complex)
    cols = [-1j * e[:, 1], e[:, 3], -1j * e[:, 5], e[:, 7],
            e[:, 0], -1j * e[:, 2], e[:, 4], -1j * e[:, 6]]
    return np.column_stack(cols)


def run_cbasis(cfg: ExperimentConfig) -> SuiteResult:
    rng = np.random.default_rng(cfg.seed)
    worst_fix = worst_gram = 0.0
    deficit = 0  # largest dim - rank of a C-invariant ONB
    for i in range(200):
        dim = 1 + i % 16
        W = fock.random_unitary(rng, dim)
        C = involution.make_involution(W @ W.T)
        F = involution.c_invariant_onb(C)
        worst_fix = max(worst_fix, involution.c_fixed_deviation(C, F))
        worst_gram = max(worst_gram, involution.gram_deviation(F))
        deficit = max(deficit, dim - int(np.linalg.matrix_rank(F, tol=1e-8)))
        if deficit:
            break

    C8 = involution.make_involution(np.eye(8))
    F8 = involution.c_invariant_onb(C8, _footnote_seed_basis())
    footnote_rank = int(np.linalg.matrix_rank(F8, tol=1e-8))

    perm_rank_stable = True
    W = fock.random_unitary(rng, 8)
    C = involution.make_involution(W @ W.T)
    base = fock.random_unitary(rng, 8)
    for _ in range(5):
        p = rng.permutation(8)
        F = involution.c_invariant_onb(C, base[:, p])
        if np.linalg.matrix_rank(F, tol=1e-8) != 8:
            perm_rank_stable = False

    # a diagonal phase matrix like diag(i, 1, ...) still composes with
    # conjugation to an involution; a plain rotation does not
    rejected = False
    theta = np.pi / 4
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    try:
        involution.make_involution(rot)
    except ValueError:
        rejected = True
    phase_ok = True
    try:
        involution.make_involution(np.diag([1j, 1.0, 1.0]))
    except ValueError:
        phase_ok = False

    checks = [
        Check.below("cbasis/c-fixed", worst_fix, 1e-10),
        Check.below("cbasis/gram", worst_gram, 1e-10),
        Check("cbasis/full-rank", float(deficit), 0.0, deficit == 0),
        Check("cbasis/footnote-rank8", float(footnote_rank), 8.0, footnote_rank == 8),
        Check.holds("cbasis/permutation-rank", perm_rank_stable),
        Check.holds("cbasis/non-involution-rejected", rejected),
        Check.holds("cbasis/phase-involution-accepted", phase_ok),
    ]
    return _check_result("cbasis", checks)


# ---------------------------------------------------------------------------
# qtilde (the number-operator variant)


def run_qtilde(cfg: ExperimentConfig) -> SuiteResult:
    rng = np.random.default_rng(QTILDE_WITNESS_SEED)
    model = fock.random_model(6, rng)
    frame, _ = np.linalg.qr(rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4)))
    b1 = charge.SubspaceBasis.from_vectors(model, frame[:, :2])
    b2 = charge.SubspaceBasis.from_vectors(model, frame[:, 2:])
    t1 = charge.q_tilde(model, b1)
    t2 = charge.q_tilde(model, b2)
    witness = charge.max_abs(t1 @ t2 - t2 @ t1)
    q1 = charge.q_subspace(model, b1)
    q2 = charge.q_subspace(model, b2)
    q_comm = charge.max_abs(q1 @ q2 - q2 @ q1)

    hermitian = charge.max_abs(t1 - t1.conj().T)
    joint = charge.SubspaceBasis.from_vectors(model, frame)
    additive = charge.max_abs(charge.q_tilde(model, joint) - t1 - t2)
    rotated = charge.SubspaceBasis.from_vectors(model, b1.vectors @ fock.random_unitary(rng, 2))
    indep = charge.max_abs(t1 - charge.q_tilde(model, rotated))

    rng2 = np.random.default_rng(cfg.seed)
    model2 = fock.random_model(6, rng2)
    aligned = charge.aligned_subspace(model2, 2, 1)
    tilde_eq_q = charge.max_abs(charge.q_tilde(model2, aligned)
                                - charge.q_subspace(model2, aligned))
    generic = charge.random_subspace(model2, 3, rng2)
    evs = charge.cluster_eigenvalues(
        np.linalg.eigvalsh(charge.q_tilde(model2, generic).toarray()))
    nonint = float(np.max(np.abs(evs - np.round(evs))))

    checks = [
        Check.at_least("qtilde/noncommuting-witness", witness, 1e-6),
        Check.below("qtilde/q-commutes-same-pair", q_comm, 1e-11),
        Check.below("qtilde/hermitian", hermitian, 1e-12),
        Check.below("qtilde/additivity", additive, 1e-11),
        Check.below("qtilde/basis-independence", indep, 1e-10),
        Check.below("qtilde/aligned-equals-q", tilde_eq_q, 1e-11),
        Check.at_least("qtilde/noninteger-spectrum", nonint, 1e-3),
    ]
    return _check_result("qtilde", checks)


# ---------------------------------------------------------------------------
# weighted (fuzzy sets at toy scale)


def run_weighted(cfg: ExperimentConfig) -> SuiteResult:
    rng = np.random.default_rng(cfg.seed)
    model = fock.random_model(6, rng)
    basis = charge.random_subspace(model, 2, rng)
    zero = charge.max_abs(charge.q_weighted(model, basis, [0.0, 0.0]))
    ones = charge.max_abs(charge.q_weighted(model, basis, [1.0, 1.0])
                          - charge.q_subspace(model, basis))
    w = np.array([1.0, 0.5])
    Qw = charge.q_weighted(model, basis, w)
    herm = charge.max_abs(Qw - Qw.conj().T)
    mus = [float(np.linalg.norm(model.p_plus @ basis.vectors[:, j]) ** 2) for j in range(2)]
    predicted = sorted({sum(w[j] * (mus[j] if (s >> j) & 1 else mus[j] - 1.0)
                            for j in range(2)) for s in range(4)})
    eig_dev = charge.spectrum_deviation(model, Qw, predicted)
    rejected = False
    try:
        charge.q_weighted(model, basis, [0.5, 1.5])
    except ValueError:
        rejected = True
    checks = [
        Check.below("weighted/zero-weights", zero, 1e-15),
        Check.below("weighted/unit-weights", ones, 1e-12),
        Check.below("weighted/hermitian", herm, 1e-12),
        Check.below("weighted/subset-sum-spectrum", eig_dev, 1e-9),
        Check.holds("weighted/range-rejected", rejected),
    ]
    return _check_result("weighted", checks)


# ---------------------------------------------------------------------------
# total-charge


def run_total_charge(cfg: ExperimentConfig) -> SuiteResult:
    rng = np.random.default_rng(cfg.seed)
    model = fock.random_model(4, rng)
    Q = charge.q_total(model)
    omega = fock.vacuum(model)
    vac = float(np.linalg.norm(Q @ omega))
    u = model.basis_plus[:, 0]
    one = fock.creator_b(model, u) @ omega
    one_dev = float(np.linalg.norm(Q @ one - one))
    n_p, n_a = fock.sector_labels(model)
    diag_dev = float(np.max(np.abs(Q.diagonal().real - (n_p - n_a))))
    offdiag = charge.max_abs(Q - sparse.diags(Q.diagonal()))
    worst_proj = 0.0
    for q in range(-model.d_minus, model.d_plus + 1):
        mask = (n_p - n_a) == q
        P = sparse.diags(mask.astype(float))
        worst_proj = max(worst_proj, charge.max_abs(Q @ P - P @ Q))
    lattice = charge.spectrum_deviation(
        model, Q, np.arange(-model.d_minus, model.d_plus + 1, dtype=float))
    checks = [
        Check.below("total/vacuum-annihilated", vac, 1e-12),
        Check.below("total/one-particle-charge", one_dev, 1e-12),
        Check.below("total/diagonal-is-n-minus-m", diag_dev, 1e-12),
        Check.below("total/off-diagonal", offdiag, 1e-12),
        Check.below("total/sector-projector-commutes", worst_proj, 1e-12),
        Check.below("total/integer-lattice", lattice, 1e-9),
    ]
    return _check_result("total-charge", checks)


# ---------------------------------------------------------------------------
# aligned subspaces


def run_aligned(cfg: ExperimentConfig) -> SuiteResult:
    rng = np.random.default_rng(cfg.seed)
    model = fock.random_model(6, rng)
    basis = charge.aligned_subspace(model, 2, 1)
    q = charge.q_subspace(model, basis)
    eq = charge.max_abs(q - charge.q_tilde(model, basis))
    eigs = np.linalg.eigvalsh(q.toarray())
    lattice = float(np.max(np.abs(eigs - np.round(eigs))))
    series_max = max(charge.vacuum_norm(model, basis, J)[0] for J in range(basis.dim + 1))
    checks = [
        Check.below("aligned/q-equals-number-difference", eq, 1e-11),
        Check.below("aligned/integer-spectrum", lattice, 1e-9),
        Check.below("aligned/vacuum-series-termwise-zero", series_max, 1e-24),
    ]
    return _check_result("aligned", checks)


# ---------------------------------------------------------------------------
# bessel-check (inverse-energy kernel identities)


def run_bessel_check(cfg: ExperimentConfig) -> SuiteResult:
    small = abs(0.02 * bessel.k1(0.02) - 1.0)
    # each grid's K0, K1 and oracle values are evaluated once, as arrays
    zs = np.geomspace(0.1, 10.0, 60)
    k0_zs, k1_zs = bessel.k0(zs), bessel.k1(zs)
    impl_vs_integral = np.max(np.abs(k0_zs - bessel.k0_integral(zs)) / k0_zs)
    zs_wide = np.geomspace(1e-3, 50.0, 80)
    k0_wide, k1_wide = bessel.k0(zs_wide), bessel.k1(zs_wide)
    wide0 = np.max(np.abs(k0_wide - bessel.k0_integral(zs_wide)) / k0_wide)
    wide1 = np.max(np.abs(k1_wide - bessel.k1_integral(zs_wide)) / k1_wide)
    cosine = abs(bessel.k0_cosine_representation(1.0) - bessel.k0(1.0))
    h = 1e-5
    fd = (bessel.k0_integral(1.0 + h) - bessel.k0_integral(1.0 - h)) / (2 * h)
    derivative = abs(fd + bessel.k1(1.0))
    kernel_dev = bessel.verify_kernel_identity(1.0, np.linspace(0.1, 5.0, 25))
    m, r = 2.0, 1.7
    scaling = abs(bessel.inverse_energy_kernel(m, r)
                  - m * m * bessel.inverse_energy_kernel(1.0, m * r))
    decay = bessel.inverse_energy_kernel(1.0, 10.0) / bessel.inverse_energy_kernel(1.0, 5.0)
    mono = np.all(np.diff(k0_zs) < 0) and np.all(np.diff(k1_zs) < 0)
    checks = [
        Check.below("kernel/small-z-k1-limit", small, 0.01),
        Check.below("kernel/k0-vs-integral-0.1-10", impl_vs_integral, 1e-8),
        Check.below("kernel/k0-vs-integral-wide", wide0, 1e-10),
        Check.below("kernel/k1-vs-integral-wide", wide1, 1e-10),
        Check.below("kernel/cosine-representation-z1", cosine, 1e-6),
        Check.below("kernel/fd-derivative-is-minus-k1", derivative, 1e-8),
        Check.below("kernel/derivative-identity", kernel_dev, 1e-6),
        Check.below("kernel/kernel-scaling", scaling, 1e-12),
        Check.below("kernel/kernel-decay-ratio", decay, 0.25 ** 2),
        Check.holds("kernel/monotone-decreasing", mono),
    ]
    return _check_result("bessel-check", checks)


# ---------------------------------------------------------------------------
# vacuum-divergence (the central experiment)


def _max_rel_dev(values, refs) -> float:
    """Largest |value - ref| / |ref| over paired series entries."""
    return max(abs(a - b) / max(abs(b), 1e-300) for a, b in zip(values, refs))


def run_vacuum_divergence(cfg: ExperimentConfig) -> SuiteResult:
    shells = list(range(cfg.shells + 1))
    suite = quadrature.gram_suite(modes.enumerate_shell(cfg.shells), cfg.m, cfg.grid)

    scalar = divergence.vacuum_series_scalar(shells, cfg.m, cfg.grid, suite=suite)
    product, c_inv = divergence.vacuum_series_trace(shells, suite)
    S_ci = c_inv.S

    # the scalar route reads only the suite's 1d factors: this checks the
    # accumulator assembly, the four-spin reduction of the trace and the
    # mirror symmetry the trace route folds its blocks by, not the quadrature
    route_dev = _max_rel_dev(product.S, scalar.S)
    basis_dev = _max_rel_dev(S_ci, product.S)
    tail = c_inv.tail
    positivity = min(min(scalar.S), min(S_ci))

    diag = divergence.mplus_diagonal(suite, divergence.C_INVARIANT)
    diag_dev = float(np.max(np.abs(diag - 0.5)))

    scalar_other = divergence.vacuum_series_scalar(shells, cfg.m, cfg.reference_grid)
    conv = _max_rel_dev(scalar_other.S, scalar.S)

    checks = [
        Check.below("divergence/trace-vs-scalar-rel", route_dev, 1e-6),
        Check.below("divergence/basis-trace-invariance-rel", basis_dev, 1e-8),
        Check.at_least("divergence/positivity", positivity, -tail),
    ]
    if cfg.shells >= 1:
        checks.append(Check.at_least("divergence/strictly-increasing",
                                     float(np.min(np.diff(S_ci))), 1e-12))
    checks += [
        Check.below("divergence/order-doubling-rel-change", conv, 0.01),
        Check.below("divergence/c-invariant-diag-half", diag_dev, tail),
    ]
    if cfg.shells >= 2:
        half = cfg.shells // 2
        checks.append(Check.at_least(
            f"divergence/S(K={cfg.shells})-vs-2*S(K={half})",
            S_ci[-1], 2.0 * S_ci[half]))
    if len(shells) >= 3:
        checks.append(Check.holds("divergence/no-cauchy-convergence",
                                  divergence.growth_diagnostics(c_inv) == "no Cauchy convergence"))

    rows = [{
        "shell": idx,
        "K": K,
        "J": product.mode_counts[idx],
        "S": S_ci[idx],
        "deltaS": delta,
        "tail_estimate": cfg.grid.tail_estimate(K),
    } for idx, (K, delta) in enumerate(zip(shells, c_inv.increments()))]
    return SuiteResult("vacuum-divergence",
                       ["shell", "K", "J", "S", "deltaS", "tail_estimate"],
                       rows=rows, checks=checks)


# ---------------------------------------------------------------------------
# decomposition (four-sum structure of truncated-charge sector norms)


def run_decomposition(cfg: ExperimentConfig) -> SuiteResult:
    rng = np.random.default_rng(cfg.seed)
    model = fock.random_model(8, rng)
    basis = charge.random_subspace(model, 5, rng)
    cases = {
        "vacuum": ([], []),
        "b*": ([_random_vec(rng, 8, True)], []),
        "b*c*": ([_random_vec(rng, 8, True)], [_random_vec(rng, 8, True)]),
        "b*b*c*": ([_random_vec(rng, 8, True), _random_vec(rng, 8, True)],
                   [_random_vec(rng, 8, True)]),
        # two antiparticles, so the kernel route's (-1)^(k+l) signs matter
        "b*c*c*": ([_random_vec(rng, 8, True)],
                   [_random_vec(rng, 8, True), _random_vec(rng, 8, True)]),
    }
    checks = []
    vac_corrections = 0.0  # largest correction sum of either route at either J
    for name, (gs, hs) in cases.items():
        for J in (3, 5):
            r = charge.sector_norm_decomposition(model, basis, J, gs, hs)
            checks.append(Check.below(f"decomposition/{name}/J{J}/residual-direct",
                                      r.residual_direct, 1e-10))
            checks.append(Check.below(f"decomposition/{name}/J{J}/residual-kernel",
                                      r.residual_kernel, 1e-10))
            checks.append(Check.below(f"decomposition/{name}/J{J}/kernel-vs-direct",
                                      r.route_deviation, 1e-10))
            if name == "vacuum":
                vac_corrections = max(vac_corrections,
                                      *map(abs, r.sums_direct[1:] + r.sums_kernel[1:]))
    checks.append(Check.below("decomposition/vacuum/corrections-vanish", vac_corrections, 1e-15))
    return _check_result("decomposition", checks)


# ---------------------------------------------------------------------------
# oracle-equivalence


def run_oracle_equivalence(cfg: ExperimentConfig) -> SuiteResult:
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    rows = []
    for n in (4, 6, 8):
        model = fock.random_model(n, rng)
        basis = charge.random_subspace(model, min(6, n), rng)
        for J in range(min(6, n) + 1):
            dev = divergence.toy_oracle_equivalence(model, basis, J)
            worst = max(worst, dev)
            rows.append({"n": n, "J": J, "deviation": dev, "tolerance": 1e-10,
                         "status": "PASS" if dev < 1e-10 else "FAIL"})
    model = fock.random_model(8, rng)
    cb = charge.c_invariant_subspace(model, 4, rng)
    Mt = cb.vectors.conj().T @ model.p_plus @ cb.vectors
    diag_dev = float(np.max(np.abs(np.diagonal(Mt).real - 0.5)))
    checks = [
        Check.below("oracle/fock-vs-trace", worst, 1e-10),
        Check.below("oracle/c-invariant-diag-half", diag_dev, 1e-10),
    ]
    res = SuiteResult("oracle-equivalence",
                      ["n", "J", "deviation", "tolerance", "status"],
                      rows=rows, checks=checks)
    return res


EXPERIMENTS = {
    "car-check": run_car_check,
    "spectrum": run_spectrum,
    "additivity": run_additivity,
    "cbasis": run_cbasis,
    "qtilde": run_qtilde,
    "weighted": run_weighted,
    "total-charge": run_total_charge,
    "aligned": run_aligned,
    "bessel-check": run_bessel_check,
    "vacuum-divergence": run_vacuum_divergence,
    "decomposition": run_decomposition,
    "oracle-equivalence": run_oracle_equivalence,
}


def run_experiment(name: str, cfg: ExperimentConfig) -> SuiteResult:
    return EXPERIMENTS[name](cfg)
