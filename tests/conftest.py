import numpy as np
import pytest

from mpotomo.pauli import coeffs_from_dense


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


def random_hermitian(dim, rng, trace_one=True):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = m + m.conj().T
    if trace_one:
        m = m + dim * np.eye(dim)
        m = m / np.trace(m).real
    return m


@pytest.fixture
def herm16(rng):
    return random_hermitian(16, rng)


@pytest.fixture
def fisher_window():
    """make(width, shots_kind) -> (theta, shots): the coefficients of a
    full-rank window state, mixed with the identity so that no outcome is
    improbable, and shots per setting that are "uniform" (100 each),
    "random" (1 to 999), "partly_zero" (random, every fifth setting 0) or
    "marginal_zero" (random, 0 for the three settings that extend the
    first setting of the window's first width - 1 sites)."""
    def make(width, shots_kind):
        rng = np.random.default_rng(width)
        dim = 2**width
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = m @ m.conj().T
        rho = 0.8 * rho / np.trace(rho).real + 0.2 * np.eye(dim) / dim
        shots = rng.integers(1, 1000, size=3**width)
        if shots_kind == "uniform":
            shots[:] = 100
        elif shots_kind == "partly_zero":
            shots[::5] = 0
        elif shots_kind == "marginal_zero":
            shots[:3] = 0
        return coeffs_from_dense(rho), shots
    return make
