import numpy as np
import pytest

from circlehj import flow, selftest
from circlehj import semigroup as sg
from circlehj.model import constant_drift_model, cosine_potential_model

LAM = 0.5


@pytest.fixture(scope="session")
def cd_model():
    return constant_drift_model(1.0, LAM)


@pytest.fixture(scope="session")
def cd2_model():
    return constant_drift_model(2.0, LAM)


@pytest.fixture(scope="session")
def cdv_model():
    return cosine_potential_model(1.0, 0.2, LAM)


@pytest.fixture(scope="session")
def custom_model():
    """(p+1)^2/2 - 1/2 + 0.1 cos 2 pi x - 0.5 u - 0.05 sin u as raw callables.

    Not affine in u and without closed forms: the step solves the
    Legendre momentum numerically, and p* = v - 1 leaves the momentum
    window |p| <= 10 for v < -9.
    """
    return selftest.nonaffine_model()


@pytest.fixture(scope="session")
def cd_orbit(cd_model):
    return flow.shoot_stationary_orbit(cd_model, guess=(0.1, 0.1), n=2048)


@pytest.fixture(scope="session")
def cdv_orbit(cdv_model):
    return flow.shoot_stationary_orbit(cdv_model, n=2048)


@pytest.fixture(scope="session")
def grid256():
    return sg.Grid(256)


@pytest.fixture(scope="session")
def cdv_uplus_256(cdv_model, grid256):
    return sg.weak_kam_forward(cdv_model, grid256, tol=1e-6)


@pytest.fixture(scope="session")
def cd_pinned_sol(cd_model, cd_orbit, grid256):
    """Pinned periodic limit on the constant-drift model (criterion 5 object)."""
    from circlehj import periodic
    return periodic.pinned_periodic_limit(cd_model, cd_orbit, x0=0.0,
                                          grid=grid256)


def cd_pinned_action_exact(x0, u0, x, t, lam=LAM):
    """Closed-form pinned action of the constant-drift model.

    Characteristics integrate exactly: p is exponential, the landing
    constraint selects the winding, and the arrival value is quadratic in
    the detour.  Serves as an independent oracle for grid and shooting
    action values.
    """
    ks = np.arange(-6, 7)
    d = np.asarray(x) - np.asarray(x0) + ks - t
    g = lam * d ** 2 * np.exp(lam * t) / (2.0 * (np.exp(lam * t) - 1.0))
    return float(u0 * np.exp(lam * t) + np.min(g))


def random_smooth_field(grid, rng, amplitude=0.2, modes=3):
    vals = np.full(grid.n, rng.uniform(-amplitude, amplitude))
    for m in range(1, modes + 1):
        vals += (rng.uniform(-amplitude, amplitude) / m
                 * np.cos(2 * np.pi * m * grid.nodes + rng.uniform(0, 2 * np.pi)))
    return sg.Field(grid, vals)
