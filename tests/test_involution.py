import numpy as np
import pytest
from scipy import sparse

from conftest import random_involution
from fockcharge import involution as inv
from fockcharge import fock, modes, suites


def test_plain_conjugation_is_valid():
    C = inv.make_involution(np.eye(2))
    assert C.dim == 2


def test_shell_conjugation_matrix_is_valid_involution():
    sh = modes.enumerate_shell(1)
    C = modes.shell_conjugation(sh)
    assert C.dim == 108  # validated in the constructor


def test_phase_matrix_is_still_an_involution():
    # diag(i, 1, ...) composed with conjugation squares to the identity
    C = inv.make_involution(np.diag([1j, 1.0, 1.0]))
    v = np.array([1.0, 2.0, 3.0j])
    assert np.allclose(C.apply(C.apply(v)), v)


def test_rotation_rejected_as_non_involution():
    th = 0.3
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    with pytest.raises(ValueError, match="involution"):
        inv.make_involution(rot)


def test_non_unitary_rejected():
    with pytest.raises(ValueError, match="unitary"):
        inv.make_involution(np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("U", [
    np.full((2, 2), np.nan),
    sparse.csr_matrix(np.full((2, 2), np.nan)),
    np.array([[np.inf, 0.0], [0.0, 1.0]]),
], ids=["nan-dense", "nan-sparse", "inf-dense"])
@pytest.mark.filterwarnings("ignore:invalid value")
def test_non_finite_matrix_rejected(U):
    # a NaN deviation compares False against the tolerance either way
    with pytest.raises(ValueError, match="unitary"):
        inv.make_involution(U)


def test_non_square_rejected():
    with pytest.raises(ValueError):
        inv.make_involution(np.ones((2, 3)))


@pytest.mark.parametrize("U", [1.0, np.ones(2), np.ones((2, 2, 2))],
                         ids=["scalar", "vector", "3-d"])
def test_non_matrix_rejected_before_its_shape_is_read(U):
    # a 0-d array has no shape[0]: the shape is checked first
    with pytest.raises(ValueError, match="U must be square"):
        inv.make_involution(U)


def test_classify_examples():
    C = inv.make_involution(np.eye(2))
    for g, kind in ((np.array([1.0, 0.0]), inv.PARALLEL),
                    (np.array([1.0, 1j]) / np.sqrt(2), inv.ORTHOGONAL),
                    (np.array([2.0, 1j]) / np.sqrt(5), inv.GENERIC)):
        assert inv._classify(g, C.apply(g)) == kind


def test_classify_rejects_zero_vector():
    C = inv.make_involution(np.eye(2))
    with pytest.raises(ValueError):
        inv._classify(np.zeros(2), C.apply(np.zeros(2)))


def test_standard_basis_fixed_under_conjugation():
    C = inv.make_involution(np.eye(5))
    F = inv.c_invariant_onb(C)
    assert np.allclose(F, np.eye(5))


def test_orthogonal_branch_hand_example():
    # seed (1, i)/sqrt(2) under plain conjugation gives {e1, -e2}
    C = inv.make_involution(np.eye(2))
    seeds = np.array([[1.0, 1.0], [1j, -1j]]) / np.sqrt(2)
    F = inv.c_invariant_onb(C, seeds)
    assert np.allclose(F[:, 0], [1.0, 0.0])
    assert np.allclose(np.abs(F[:, 1]), [0.0, 1.0])


def test_parallel_branch_negative_phase():
    # Cg = -g resolves to f = e^{i pi/2} g
    C = inv.make_involution(np.eye(2))
    seeds = np.array([[1j, 0.0], [0.0, 1.0]], dtype=complex)
    F = inv.c_invariant_onb(C, seeds)
    assert inv.c_fixed_deviation(C, F) < 1e-14
    assert np.allclose(np.abs(F[:, 0]), [1.0, 0.0])


def test_footnote_adversarial_seed_regression():
    e = np.eye(8, dtype=complex)
    cols = [-1j * e[:, 1], e[:, 3], -1j * e[:, 5], e[:, 7],
            e[:, 0], -1j * e[:, 2], e[:, 4], -1j * e[:, 6]]
    F = inv.c_invariant_onb(inv.make_involution(np.eye(8)), np.column_stack(cols))
    assert np.linalg.matrix_rank(F, tol=1e-8) == 8
    assert inv.gram_deviation(F) < 1e-10


def test_random_involutions_properties(rng):
    for _ in range(40):
        d = int(rng.integers(1, 17))
        C = inv.make_involution(random_involution(rng, d))
        F = inv.c_invariant_onb(C)
        assert F.shape == (d, d)
        assert inv.gram_deviation(F) < 1e-10
        assert inv.c_fixed_deviation(C, F) < 1e-10
        assert np.linalg.matrix_rank(F, tol=1e-8) == d


def test_conjugation_of_coefficients_rule(rng):
    # C(sum c_j f_j) = sum conj(c_j) f_j in the constructed basis
    d = 9
    C = inv.make_involution(random_involution(rng, d))
    F = inv.c_invariant_onb(C)
    for _ in range(100):
        c = rng.normal(size=d) + 1j * rng.normal(size=d)
        lhs = C.apply(F @ c)
        rhs = F @ np.conj(c)
        assert np.linalg.norm(lhs - rhs) < 1e-9


def test_seed_permutation_never_changes_rank(rng):
    d = 8
    C = inv.make_involution(random_involution(rng, d))
    base = fock.random_unitary(rng, d)
    for _ in range(6):
        p = rng.permutation(d)
        F = inv.c_invariant_onb(C, base[:, p])
        assert np.linalg.matrix_rank(F, tol=1e-8) == d


def test_non_orthonormal_seed_rejected(rng):
    C = inv.make_involution(np.eye(3))
    with pytest.raises(ValueError, match="orthonormal"):
        inv.c_invariant_onb(C, np.ones((3, 3)))


@pytest.mark.parametrize("shape", [(3, 3), (2, 1), (4, 2)])
def test_seed_basis_of_wrong_shape_rejected(shape):
    C = inv.make_involution(np.eye(2))
    with pytest.raises(ValueError, match="seed basis must be 2x2"):
        inv.c_invariant_onb(C, np.eye(*shape))


def oracle_c_invariant_onb(C, seeds):
    """The Gram-Schmidt walk of `inv.c_invariant_onb` with every step
    written out: the adjoint of the emitted vectors conjugated per pass,
    `_classify` on C applied again, `np.linalg.norm` for every norm."""
    n = C.dim
    out = np.zeros((n, n), dtype=complex, order="F")
    count = 0

    def emit(vec):
        nonlocal count
        vec = 0.5 * (vec + C.apply(vec))
        P = out[:, :count]
        for _ in range(2):
            if P.shape[1]:
                vec = vec - P @ (P.conj().T @ vec).real
        out[:, count] = vec / np.linalg.norm(vec)
        count += 1

    for j in range(n):
        g = seeds[:, j].copy()
        P = out[:, :count]
        for _ in range(2):
            if P.shape[1]:
                g -= P @ (P.conj().T @ g)
        nrm = np.linalg.norm(g)
        if nrm >= inv.RANK_TOL:
            g /= nrm
            cg = C.apply(g)
            kind = inv._classify(g, C.apply(g))
            if kind == inv.PARALLEL:
                emit(np.exp(0.5j * np.angle(np.vdot(g, cg))) * g)
            elif kind == inv.ORTHOGONAL:
                emit((g + cg) / np.sqrt(2.0))
                emit(1j * (g - cg) / np.sqrt(2.0))
            else:
                alpha = np.sqrt(complex(np.vdot(g, cg)))
                u = alpha * g + np.conj(alpha) * cg
                v = 1j * alpha * g - 1j * np.conj(alpha) * cg
                emit(u / np.linalg.norm(u))
                emit(v / np.linalg.norm(v))
        if count == n:
            break
    assert count == n
    return np.ascontiguousarray(out)


def test_c_invariant_onb_matches_the_written_out_walk(rng):
    """Bit for bit the oracle's bases, on the cbasis suite's kinds of input:
    random involutions of dimensions 1 to 16 from the standard seeds, the
    footnote's adversarial seeds and permuted random seeds."""
    cases = []
    for dim in range(1, 17):
        cases.append((inv.make_involution(random_involution(rng, dim)), np.eye(dim, dtype=complex)))
    cases.append((inv.make_involution(np.eye(8)), suites._footnote_seed_basis()))
    C = inv.make_involution(random_involution(rng, 8))
    base = fock.random_unitary(rng, 8)
    cases += [(C, base[:, rng.permutation(8)]) for _ in range(5)]
    for C, seeds in cases:
        F = inv.c_invariant_onb(C, seeds)
        assert np.array_equal(F, oracle_c_invariant_onb(C, seeds))
        assert F.flags.c_contiguous
    # the default seeds are the standard basis
    assert np.array_equal(inv.c_invariant_onb(cases[5][0]), oracle_c_invariant_onb(*cases[5]))
