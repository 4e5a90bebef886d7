import numpy as np
import pytest

from fockcharge import bessel


def test_small_argument_limit_of_k1():
    # z K1(z) -> 1 as z -> 0
    assert abs(0.02 * bessel.k1(0.02) - 1.0) < 0.01


def test_k0_against_integral_representation():
    for z in np.geomspace(1e-3, 50.0, 60):
        ref = bessel.k0_integral(z)
        assert abs(bessel.k0(z) - ref) / ref < 1e-10


def test_k1_against_integral_representation():
    for z in np.geomspace(1e-3, 50.0, 60):
        ref = bessel.k1_integral(z)
        assert abs(bessel.k1(z) - ref) / ref < 1e-10


def test_series_chebyshev_crossover_continuity():
    below, above = bessel.k0(2.0 - 1e-12), bessel.k0(2.0 + 1e-12)
    assert abs(below - above) < 1e-12
    below, above = bessel.k1(2.0 - 1e-12), bessel.k1(2.0 + 1e-12)
    assert abs(below - above) < 1e-12


def test_cosine_representation_at_unit_argument():
    got = bessel.k0_cosine_representation(1.0)
    assert abs(got - bessel.k0(1.0)) < 1e-10


@pytest.mark.parametrize("z", [0.0, -1.0])
def test_cosine_representation_rejects_non_positive_argument(z):
    with pytest.raises(ValueError, match="positive"):
        bessel.k0_cosine_representation(z)


def test_finite_difference_of_k0_is_minus_k1():
    h = 1e-5
    fd = (bessel.k0_integral(1.0 + h) - bessel.k0_integral(1.0 - h)) / (2 * h)
    assert abs(fd + bessel.k1(1.0)) < 1e-8


def test_positivity_and_monotonicity():
    zs = np.geomspace(0.01, 10.0, 80)
    v0 = np.array([bessel.k0(z) for z in zs])
    v1 = np.array([bessel.k1(z) for z in zs])
    assert np.all(v0 > 0) and np.all(v1 > 0)
    assert np.all(np.diff(v0) < 0) and np.all(np.diff(v1) < 0)


def test_wronskian_style_derivative_consistency():
    # K1 matches -dK0/dz from quadrature on a log-spaced grid
    for z in np.geomspace(0.01, 10.0, 25):
        step = 1e-5 * z  # K0''' ~ 2/z^3, so the step must scale with z
        fd = (bessel.k0_integral(z + step) - bessel.k0_integral(z - step)) / (2 * step)
        assert abs(fd + bessel.k1(z)) / bessel.k1(z) < 1e-7


def test_verify_kernel_identity_contract():
    dev = bessel.verify_kernel_identity(1.0, np.linspace(0.1, 5.0, 25))
    assert dev < 1e-6


def test_kernel_scaling_identity():
    m, r = 2.0, 1.3
    lhs = bessel.inverse_energy_kernel(m, r)
    rhs = m * m * bessel.inverse_energy_kernel(1.0, m * r)
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_kernel_decays_faster_than_inverse_square():
    ratio = bessel.inverse_energy_kernel(1.0, 10.0) / bessel.inverse_energy_kernel(1.0, 5.0)
    assert ratio < (5.0 / 10.0) ** 2


def test_domain_errors():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            bessel.k0(bad)
        with pytest.raises(ValueError):
            bessel.k1(bad)
        with pytest.raises(ValueError):
            bessel.k0_integral(bad)
    with pytest.raises(ValueError):
        bessel.verify_kernel_identity(0.0, [1.0])
    with pytest.raises(ValueError):
        bessel.inverse_energy_kernel(-1.0, 1.0)


@pytest.mark.parametrize("call", [
    lambda: bessel.k0(np.nan),
    lambda: bessel.k1(np.nan),
    lambda: bessel.k0_integral(np.nan),
    lambda: bessel.k1_integral(np.nan),
    lambda: bessel.k0_cosine_representation(np.nan),
    lambda: bessel.inverse_energy_kernel(np.nan, 1.0),
    lambda: bessel.verify_kernel_identity(np.nan, [1.0]),
], ids=["k0", "k1", "k0_integral", "k1_integral", "k0_cosine_representation",
        "inverse_energy_kernel", "verify_kernel_identity"])
def test_nan_is_rejected(call):
    with pytest.raises(ValueError, match="positive"):
        call()


@pytest.mark.parametrize("oracle", [bessel.k0_integral, bessel.k1_integral])
def test_integral_oracles_take_arrays(oracle):
    zs = np.array([1.0, 2.0])
    got = oracle(zs)
    assert isinstance(got, np.ndarray) and got.shape == zs.shape
    assert np.array_equal(got, [oracle(z) for z in zs])
    for bad in ([1.0, 0.0], [-1.0, 2.0], [1.0, np.nan]):
        with pytest.raises(ValueError, match="argument must be positive"):
            oracle(np.array(bad))


def test_verify_kernel_identity_rejects_empty_samples():
    with pytest.raises(ValueError, match="empty"):
        bessel.verify_kernel_identity(1.0, [])


def test_array_evaluation():
    zs = np.array([0.5, 1.0, 3.0, 10.0])
    v = bessel.k0(zs)
    assert v.shape == zs.shape
    assert np.array_equal(v, [bessel.k0(z) for z in zs])


def loop_damped_integral(z, nu):
    """The damped integral of one scalar z, panel by panel: the loop that
    the array oracles must reproduce bit for bit."""
    tmax = float(np.arccosh(745.0 / z)) if z < 700.0 else 1.0
    xi, wi = np.polynomial.legendre.leggauss(bessel.INTEGRAL_ORDER)
    edges = np.linspace(0.0, tmax, bessel.INTEGRAL_PANELS + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        t = 0.5 * (b - a) * xi + 0.5 * (a + b)
        f = np.exp(-z * np.cosh(t))
        if nu == 1:
            f = f * np.cosh(t)
        total += 0.5 * (b - a) * float(np.sum(wi * f))
    return total


# the scalar evaluation each array call must equal entry by entry
SCALAR_REFERENCE = {
    "k0": bessel.k0,
    "k1": bessel.k1,
    "k0_integral": lambda z: loop_damped_integral(z, 0),
    "k1_integral": lambda z: loop_damped_integral(z, 1),
}

# bessel-check's grids, plus arguments on both sides of z = 700, above which
# the damped integral's upper limit is 1
SUITE_GRIDS = [np.geomspace(0.1, 10.0, 60), np.geomspace(1e-3, 50.0, 80),
               np.linspace(0.1, 5.0, 25), np.array([699.5, 700.0, 750.0])]


@pytest.mark.parametrize("name", list(SCALAR_REFERENCE))
@pytest.mark.parametrize("zs", SUITE_GRIDS, ids=["geom-0.1-10", "geom-wide", "lin-0.1-5", "z-near-700"])
def test_array_call_is_the_scalar_loop_bitwise(name, zs):
    fn = getattr(bessel, name)
    expected = [SCALAR_REFERENCE[name](z) for z in zs]
    assert np.array_equal(fn(zs), expected)
    assert [fn(z) for z in zs] == expected


@pytest.mark.parametrize("rs", SUITE_GRIDS[:3], ids=["geom-0.1-10", "geom-wide", "lin-0.1-5"])
def test_kernel_identity_over_a_grid_is_the_scalar_loop_bitwise(rs):
    assert bessel.verify_kernel_identity(1.0, rs) == max(
        bessel.verify_kernel_identity(1.0, [r]) for r in rs)
