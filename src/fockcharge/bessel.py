"""Modified Bessel functions K0, K1 and the position-space kernel of the
inverse energy 1/lambda.

K0 and K1 come from the defining power series below the crossover z = 2
and a Chebyshev-resummed asymptotic form of sqrt(z) e^z K_nu(z) in the
variable 4/z - 1 above it.  The independent check kept alongside is the
exponentially damped integral representation

    K_nu(z) = int_0^inf exp(-z cosh t) cosh(nu t) dt,

equal to the conditionally convergent cosine form
int_0^inf cos(z t) / sqrt(t^2 + 1) dt, which is also evaluated directly
(lobe summation plus averaging acceleration) at moderate accuracy.  Both
read the Gauss-Legendre rule that `quadrature` caches for its grids.

K0, K1 and the damped-integral oracles take scalars or arrays, and an array
call gives each entry bit for bit as the scalar call; verify_kernel_identity
makes one array call per side of its finite difference.  Every argument and
mass must be positive: zero, negative and NaN inputs raise ValueError.
"""

import numpy as np

from .quadrature import _gauss_legendre

__all__ = [
    "k0",
    "k1",
    "k0_integral",
    "k1_integral",
    "k0_cosine_representation",
    "inverse_energy_kernel",
    "verify_kernel_identity",
]

_EULER_GAMMA = 0.5772156649015328606

# the independent checks' resolution: the damped integral's panels and
# Gauss-Legendre nodes per panel, the cosine form's lobes and nodes per lobe,
# and the central finite-difference step of verify_kernel_identity
INTEGRAL_PANELS, INTEGRAL_ORDER = 16, 40
COSINE_LOBES, COSINE_ORDER = 80, 20
KERNEL_FD_STEP = 1e-5

# Chebyshev coefficients of sqrt(z) e^z K_nu(z) in T_k(4/z - 1), z >= 2.
_K0_CHEB = np.array([
    1.22015154103297773780e+00,
    -3.14481013119644048359e-02,
    1.56988388572998024441e-03,
    -1.28495495816181414927e-04,
    1.39498137187438192705e-05,
    -1.83175552277607212124e-06,
    2.76681363898427181867e-07,
    -4.66048989348620979617e-08,
    8.57403395308183800773e-09,
    -1.69753494525242288465e-09,
    3.57739580347312291931e-10,
    -7.95745385003768929133e-11,
    1.85595953448196900742e-11,
    -4.51505280103618733545e-12,
    1.14020097667812255957e-12,
    -2.97812230605487560098e-13,
    7.97674643351897749710e-14,
    -2.23638924219671242355e-14,
    6.57805448024510741600e-15,
    -1.57271656635316059436e-15,
    7.42696064086226064027e-16,
])

_K1_CHEB = np.array([
    1.36031309524222132623e+00,
    1.03923736576817346555e-01,
    -2.85781685962285076849e-03,
    1.95215518471449360656e-04,
    -1.93619797417970871897e-05,
    2.40648494775857590532e-06,
    -3.50196060354957362722e-07,
    5.74108412877713070004e-08,
    -1.03457625240613117538e-08,
    2.01504929888150557601e-09,
    -4.19035614060498848819e-10,
    9.21835072062145502447e-11,
    -2.12995590860787708740e-11,
    5.13917699357640395119e-12,
    -1.28931896287306189952e-12,
    3.35022320215733193649e-13,
    -9.03438565277858707248e-14,
    2.46872834674949359623e-14,
    -6.76149640563197124044e-15,
    2.32042304208063265847e-15,
    -3.89649555297081479077e-16,
])


def _clenshaw(v, coeffs):
    b1 = np.zeros_like(v)
    b2 = np.zeros_like(v)
    for ck in coeffs[:0:-1]:
        b1, b2 = 2.0 * v * b1 - b2 + ck, b1
    return v * b1 - b2 + coeffs[0]


def _series_small(z):
    """Power series for K0 and K1, accurate for z <= 2 (terms decay fast and
    there is no damaging cancellation below the crossover)."""
    z = np.asarray(z, dtype=float)
    q = 0.25 * z * z
    log_half = np.log(0.5 * z)

    i0 = np.ones_like(z)
    k0_sum = np.full_like(z, -_EULER_GAMMA)
    term = np.ones_like(z)
    psi = -_EULER_GAMMA
    for k in range(1, 30):
        term = term * q / (k * k)
        psi += 1.0 / k
        i0 += term
        k0_sum += term * psi
    k0v = -log_half * i0 + k0_sum

    # K1 = 1/z + log(z/2) I1 - (z/4) sum_k [psi(k+1) + psi(k+2)] q^k / (k! (k+1)!)
    term = np.ones_like(z)
    psi_a, psi_b = -_EULER_GAMMA, -_EULER_GAMMA + 1.0
    k1_sum = np.full_like(z, psi_a + psi_b)
    i1 = 0.5 * z.copy()
    i1_term = 0.5 * z.copy()
    for k in range(1, 30):
        term = term * q / (k * (k + 1))
        psi_a += 1.0 / k
        psi_b += 1.0 / (k + 1)
        k1_sum += term * (psi_a + psi_b)
        i1_term = i1_term * q / (k * (k + 1))
        i1 += i1_term
    k1v = 1.0 / z + log_half * i1 - 0.25 * z * k1_sum
    return k0v, k1v


def _require_positive(x, message: str) -> None:
    """Raise ValueError(message) unless every entry of x is positive; NaN is
    not positive."""
    if not np.all(np.asarray(x) > 0):
        raise ValueError(message)


def _eval(z, nu):
    _require_positive(z, "K_nu is defined for positive arguments only")
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)
    small = z <= 2.0
    if np.any(small):
        k0v, k1v = _series_small(z[small])
        out[small] = k0v if nu == 0 else k1v
    if np.any(~small):
        zz = z[~small]
        coeffs = _K0_CHEB if nu == 0 else _K1_CHEB
        out[~small] = np.exp(-zz) / np.sqrt(zz) * _clenshaw(4.0 / zz - 1.0, coeffs)
    return float(out[0]) if scalar else out


def k0(z):
    """Modified Bessel function of the second kind, order 0."""
    return _eval(z, 0)


def k1(z):
    """Modified Bessel function of the second kind, order 1."""
    return _eval(z, 1)


def _damped_integral(z, nu):
    """K_nu(z) by composite Gauss-Legendre on exp(-z cosh t) cosh(nu t); the
    upper limit is where the integrand underflows.  Takes a scalar or an
    array; each entry's panels are summed in panel order, as one scalar
    evaluation adds them, so an entry does not depend on the others."""
    _require_positive(z, "argument must be positive")
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    # arccosh(745 / z) is only taken below z = 700, where 745 / z > 1
    tmax = np.where(z < 700.0, np.arccosh(np.maximum(745.0 / z, 1.0)), 1.0)
    xi, wi = _gauss_legendre(INTEGRAL_ORDER)
    edges = np.linspace(0.0, tmax, INTEGRAL_PANELS + 1, axis=-1)
    a, b = edges[..., :-1], edges[..., 1:]
    half = 0.5 * (b - a)
    t = half[..., None] * xi + (0.5 * (a + b))[..., None]
    cosh_t = np.cosh(t)
    f = np.exp(-z[..., None, None] * cosh_t)
    if nu == 1:
        f = f * cosh_t
    panel = half * np.sum(wi * f, axis=-1)
    total = panel[..., 0]
    for p in range(1, INTEGRAL_PANELS):
        total = total + panel[..., p]
    return float(total[0]) if scalar else total


def k0_integral(z):
    """Independent quadrature oracle for K0."""
    return _damped_integral(z, 0)


def k1_integral(z):
    """Independent quadrature oracle for K1."""
    return _damped_integral(z, 1)


def k0_cosine_representation(z):
    """K0(z) from int_0^inf cos(z t)/sqrt(1 + t^2) dt.

    The integral converges only conditionally; it is summed lobe by lobe
    between consecutive zeros of the cosine and the alternating tail is
    accelerated by repeated averaging of partial sums.
    """
    _require_positive(z, "argument must be positive")
    xi, wi = _gauss_legendre(COSINE_ORDER)
    zeros = (np.arange(COSINE_LOBES + 1) + 0.5) * np.pi / z
    edges = np.concatenate([[0.0], zeros])
    pieces = []
    for a, b in zip(edges[:-1], edges[1:]):
        t = 0.5 * (b - a) * xi + 0.5 * (a + b)
        pieces.append(0.5 * (b - a) * float(np.sum(wi * np.cos(z * t) / np.sqrt(1.0 + t * t))))
    partial = np.cumsum(pieces)
    tail = partial[len(partial) // 2:]
    while tail.size > 1:  # averaging accelerates the alternating tail
        tail = 0.5 * (tail[1:] + tail[:-1])
    return float(tail[0])


def inverse_energy_kernel(m: float, r):
    """Position-space kernel of 1/lambda up to the (2 pi)^{3/2} convention:
    4 pi m K1(m r) / r."""
    _require_positive(m, "mass must be positive")
    r = np.asarray(r, dtype=float)
    return 4.0 * np.pi * m * _eval(m * r, 1) / r


def verify_kernel_identity(m: float, r_samples) -> float:
    """Max relative deviation between the kernel 4 pi m K1(m r)/r and the
    derivative form -(4 pi / r) d/dr K0(m r), the latter taken by central
    finite differences of the integral representation of K0, over the
    non-empty r_samples."""
    _require_positive(m, "mass must be positive")
    r = np.atleast_1d(np.asarray(r_samples, dtype=float))
    if r.size == 0:
        raise ValueError("r_samples must not be empty")
    h = KERNEL_FD_STEP
    derivative = (k0_integral(m * (r + h)) - k0_integral(m * (r - h))) / (2.0 * h)
    lhs = -(4.0 * np.pi / r) * derivative
    rhs = inverse_energy_kernel(m, r)
    return float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))
