import numpy as np
import pytest

from blasius_pinn.analysis import ONSET_STEP, onset_from_profile
from blasius_pinn.loss import CollocationGrid
from blasius_pinn.network import NetworkConfig
from blasius_pinn.optim import AdamConfig, LbfgsConfig, train
from blasius_pinn.oracle import rk4_shoot, shoot

DEFAULT_GRID = CollocationGrid(0.0, 8.0, 100)

# per-criterion PASS/FAIL lines collected by the acceptance gate; echoed in
# the terminal summary because pytest captures stdout during the tests
ACCEPTANCE_LINES: list[str] = []


def exact_profile(s_star: float, eta_lo: float, eta_hi: float, h: float = 1e-4):
    """Exact (eta, f, f''') on [eta_lo, eta_hi] (which must contain 0) in
    ascending eta, from RK4 marched both ways from the wall; f''' = -1/2 f f''
    by the ODE itself."""
    neg = rk4_shoot(s_star, h, eta_lo)
    pos = rk4_shoot(s_star, h, eta_hi)
    eta = np.concatenate([neg.eta[::-1], pos.eta[1:]])
    f = np.concatenate([neg.f[::-1], pos.f[1:]])
    fpp = np.concatenate([neg.fpp[::-1], pos.fpp[1:]])
    return eta, f, -0.5 * f * fpp


def exact_growth_onset(s_star: float, eta_lo: float, eta_hi: float):
    """The growth_onset detector applied to the exact solution, sampled on the
    same lattices on which growth_onset samples a network."""
    eta, _, fppp = exact_profile(s_star, eta_lo, max(eta_hi, 5.0))
    ref = np.arange(0.0, 5.0 + ONSET_STEP / 2, ONSET_STEP)
    scan = np.arange(eta_lo, eta_hi + ONSET_STEP / 2, ONSET_STEP)
    return onset_from_profile(scan, np.interp(scan, eta, fppp), np.interp(ref, eta, fppp))


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def shoot_result():
    """Reference shooting solve at h=1e-4 (shared; ~1 s)."""
    return shoot()


@pytest.fixture(scope="session")
def trained_runs():
    """Cache of full default training runs keyed by seed."""
    cache = {}

    def get(seed: int):
        if seed not in cache:
            cache[seed] = train(
                NetworkConfig(depth=2, width=100, seed=seed),
                AdamConfig(),
                LbfgsConfig(),
                DEFAULT_GRID,
            )
        return cache[seed]

    return get


@pytest.fixture(scope="session")
def trained_deep():
    """Criterion 9's depth-4, width-90 network, trained with the default
    configs at seed 0: (params, report)."""
    return train(NetworkConfig(depth=4, width=90, seed=0), AdamConfig(), LbfgsConfig(),
                 DEFAULT_GRID)


@pytest.fixture(scope="session")
def trained_default(trained_runs):
    """Default architecture trained with seed 0: (params, report)."""
    return trained_runs(0)
