import numpy as np
import pytest
from scipy import sparse

from conftest import random_involution, random_unitary
from fockcharge import involution as inv
from fockcharge import modes


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


def test_classify_examples():
    C = inv.make_involution(np.eye(2))
    assert inv.classify(np.array([1.0, 0.0]), C) == inv.PARALLEL
    assert inv.classify(np.array([1.0, 1j]) / np.sqrt(2), C) == inv.ORTHOGONAL
    assert inv.classify(np.array([2.0, 1j]) / np.sqrt(5), C) == inv.GENERIC


def test_classify_rejects_zero_vector():
    C = inv.make_involution(np.eye(2))
    with pytest.raises(ValueError):
        inv.classify(np.zeros(2), C)


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
    base = random_unitary(rng, d)
    for _ in range(6):
        p = rng.permutation(d)
        F = inv.c_invariant_onb(C, base[:, p])
        assert np.linalg.matrix_rank(F, tol=1e-8) == d


def test_non_orthonormal_seed_rejected(rng):
    C = inv.make_involution(np.eye(3))
    with pytest.raises(ValueError, match="orthonormal"):
        inv.c_invariant_onb(C, np.ones((3, 3)))
