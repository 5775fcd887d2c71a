"""Shared fixtures: the stock three-state system and its pieces."""

import numpy as np
import pytest

import ftcsim as F
from ftcsim import scenario_io

P1_ROWS = np.array([[2.5, 2.5, 0.5],
                    [2.5, 6.5, 1.5],
                    [0.5, 1.5, 0.5]])
P2_ROWS = np.array([[2.8, 2.6, 0.5],
                    [2.6, 7.1, 1.8],
                    [0.5, 1.8, 1.1]])
# V V^T with V = [[1, -4], [1, -5], [-7, 0]]: symmetric, rank 2, and its
# determinant is exactly 0, so it is not positive definite
SINGULAR_P_ROWS = np.array([[17.0, 21.0, -7.0],
                            [21.0, 26.0, -7.0],
                            [-7.0, -7.0, 49.0]])


@pytest.fixture(scope="session")
def stock_loaded():
    return scenario_io.loads(scenario_io.default_scenario_text())


@pytest.fixture(scope="session")
def stock(stock_loaded):
    return stock_loaded.scenario


@pytest.fixture(scope="session")
def core(stock):
    return stock.core


@pytest.fixture(scope="session")
def nl(stock):
    return stock.nl


@pytest.fixture(scope="session")
def ref(stock):
    return stock.ref


@pytest.fixture(scope="session")
def stock_gains(core, ref):
    return F.synthesize_gains(core.A, core.b, ref.A_d, ref.B_d)


@pytest.fixture(scope="session")
def p1():
    return P1_ROWS.copy()


@pytest.fixture(scope="session")
def p2():
    return P2_ROWS.copy()


@pytest.fixture(scope="session")
def singular_p():
    return SINGULAR_P_ROWS.copy()


@pytest.fixture
def short_scenario(tmp_path):
    """Stock system trimmed to 2 s with an early fault, for fast CLI runs."""
    text = scenario_io.default_scenario_text()
    text = text.replace("t_end = 40", "t_end = 2")
    text = text.replace("at = 15 kind = loss theta = 0.65",
                        "at = 1 kind = loss theta = 0.65")
    text = text.replace("at = 20 kind = disturbance signal = 1",
                        "at = 1.5 kind = disturbance signal = 1")
    text = text.replace("at = 25 kind = additive signal = 0.5*sin(2*t)", "")
    path = tmp_path / "short.scn"
    path.write_text(text)
    return path
