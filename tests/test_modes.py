import numpy as np
import pytest

from conftest import mode_ft
from fockcharge import involution as inv
from fockcharge import modes
from fockcharge.divergence import c_invariant_transform


def test_axis_factor_value_and_taylor_guard():
    assert modes.axis_factor(0.0) == 2.0 * np.pi
    # the Taylor branch meets the sine form smoothly at the guard
    for q in (1e-7, 9.9e-7, 1.1e-6, 0.5):
        exact = 2.0 * np.sin(np.pi * q) / q
        assert abs(modes.axis_factor(q) - exact) < 1e-12


def test_mode_ft_at_own_momentum():
    assert abs(mode_ft((1, -2, 0), np.array([1.0, -2.0, 0.0])) - 1.0) < 1e-14


def test_mode_ft_vanishes_at_integer_offsets():
    val = mode_ft((1, 0, 2), np.array([3.0, 1.0, -1.0]))
    assert abs(val) < 1e-30


def test_mode_ft_translation_covariance(rng):
    k = (2, 0, -1)
    x0 = np.array([0.7, -2.0, 3.1])
    for _ in range(5):
        p = rng.normal(size=3)
        centered = mode_ft(k, p)
        shifted = mode_ft(k, p, center=x0)
        assert abs(shifted - np.exp(-1j * p @ x0) * centered) == 0.0


def test_mode_normalization_1d_integral():
    # int |D(q)|^2 / (2 pi)^2 dq = 1 per axis; check against the analytic
    # value int sin^2(pi q)/q^2 dq = pi^2 on a wide quadrature
    from fockcharge.quadrature import build_grid
    grid = build_grid(48, 1, 8)
    vals = modes.axis_factor(grid.nodes) ** 2 / (2 * np.pi) ** 2
    mass = float(np.sum(grid.weights * vals))
    assert mass == pytest.approx(1.0, abs=grid.tail_estimate(0))
    assert mass > 0.99


def test_enumerate_shell_counts_and_order():
    assert modes.enumerate_shell(0).modes.tolist() == [[0, 0, 0]]
    sh1 = modes.enumerate_shell(1)
    assert sh1.count == 27
    sh2 = modes.enumerate_shell(2)
    assert sh2.count == 125
    assert sh2.modes[0].tolist() == [0, 0, 0]
    # canonical order: sub-shells are prefixes
    norms = np.max(np.abs(sh2.modes), axis=1)
    assert np.all(np.diff(norms) >= 0)
    assert np.array_equal(sh2.modes[:27], sh1.modes)


def test_shell_closed_under_negation():
    sh = modes.enumerate_shell(2)
    have = {tuple(m) for m in sh.modes}
    assert all(tuple(-m) in have for m in sh.modes)


def test_shell_conjugation_is_involution():
    sh = modes.enumerate_shell(1)
    C = modes.shell_conjugation(sh)
    assert C.dim == 4 * 27
    rng = np.random.default_rng(0)
    v = rng.normal(size=C.dim) + 1j * rng.normal(size=C.dim)
    assert np.linalg.norm(C.apply(C.apply(v)) - v) < 1e-12


def test_shell_conjugation_composes_with_basis_constructor():
    # the closed-form shell basis is what the general constructor builds
    for K in (0, 1, 2):
        sh = modes.enumerate_shell(K)
        C = modes.shell_conjugation(sh)
        F = inv.c_invariant_onb(C)
        assert inv.c_fixed_deviation(C, F) < 1e-10
        assert inv.gram_deviation(F) < 1e-10
        V = c_invariant_transform(sh).toarray()
        assert np.max(np.abs(V - F)) < 1e-14
        assert np.all(np.count_nonzero(V, axis=0) == 2)
        for count in [(2 * k + 1) ** 3 for k in range(K + 1)]:
            # the first 4 count columns are orthonormal and lie in the
            # sub-shell of that mode count, so they span it
            assert not np.any(V[4 * count:, :4 * count])


def test_shell_requires_nonnegative_radius():
    with pytest.raises(ValueError):
        modes.enumerate_shell(-1)


def test_conjugation_rejects_unbalanced_mode_set():
    sh = modes.enumerate_shell(1)
    broken = modes.Shell(K=1, modes=sh.modes[:-1])
    with pytest.raises(ValueError, match="closed under"):
        modes.shell_conjugation(broken)
