import numpy as np
import pytest

from kerrcomb.config import load_config

from helpers import config_at_order


@pytest.fixture(scope="session")
def cfg():
    return load_config()


@pytest.fixture(scope="session")
def resonator(cfg):
    return cfg.resonator


@pytest.fixture(scope="session")
def te00(resonator):
    return resonator.family("TE00")


@pytest.fixture(scope="session")
def resonator_order5(tmp_path_factory):
    """The packaged resonator loaded at truncation order 5: every d_n."""
    return load_config(config_at_order(
        5, tmp_path_factory.mktemp("order5"))).resonator


@pytest.fixture()
def rng():
    return np.random.default_rng(20260808)
