import numpy as np
import pytest

from fockcharge import fock


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def model6(rng):
    return fock.random_model(6, rng)


@pytest.fixture
def model8(rng):
    return fock.random_model(8, rng)


def random_unitary(rng, d):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    Q, R = np.linalg.qr(A)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def random_involution(rng, d):
    W = random_unitary(rng, d)
    return W @ W.T


def dense_gram(suite, name):
    """The full n x n Gram `name` ("one", "g0".."g3") of a suite, gathered."""
    idx = np.arange(suite.shell.count)
    return suite.gather(name, idx[:, None], idx[None, :])
