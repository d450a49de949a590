import numpy as np
import pytest

from radialnls import EquationParams, build_grid, minimize_quotient, shoot_ode


@pytest.fixture(scope="session")
def params_default():
    return EquationParams(gamma=1.0, mu=1.0, omega=1.0)


@pytest.fixture(scope="session")
def grid_default():
    return build_grid(4096, 32.0)


@pytest.fixture(scope="session")
def grid_small():
    return build_grid(2048, 16.0)


@pytest.fixture(scope="session")
def ground_default(params_default, grid_default):
    res = minimize_quotient(params_default, grid_default)
    assert res.converged
    return res


@pytest.fixture(scope="session")
def ground_oracle(params_default, grid_default):
    return shoot_ode(params_default, grid_default)


@pytest.fixture(scope="session")
def q10_free():
    params = EquationParams(gamma=0.0, mu=1.0, omega=1.0)
    res = minimize_quotient(params, build_grid(4096, 32.0))
    assert res.converged
    return res


@pytest.fixture(scope="session")
def standing_wave_channels():
    """(phase, modulus deviation) of each snapshot of a trace against the
    profile q: arg <q, u> and ||u| - |q||_{L^2} / ||q||_{L^2}."""

    def channels(trace, q):
        w, qv = q.grid.weights, q.values
        qnorm = np.sqrt(np.dot(w, np.abs(qv) ** 2))
        phase = [float(np.angle(np.dot(w, np.conj(qv) * s.values)))
                 for s in trace.snapshots]
        dev = [float(np.sqrt(np.dot(w, (np.abs(s.values) - np.abs(qv)) ** 2)) / qnorm)
               for s in trace.snapshots]
        return phase, dev

    return channels


@pytest.fixture()
def rng():
    return np.random.default_rng(20240813)
