import numpy as np
import pytest

from fpsi import forms, mesh as meshmod

from _helpers import REFERENCE_PARAMS


@pytest.fixture(scope="session")
def table1_params():
    return forms.PhysicalParams(**REFERENCE_PARAMS)


@pytest.fixture(scope="session")
def nitsche_default():
    return forms.NitscheParams(gamma=40.0, varsigma=1)


@pytest.fixture(scope="session")
def mesh22():
    return meshmod.generate_structured(2, 2)


@pytest.fixture(scope="session")
def spaces22(mesh22):
    return forms.build_spaces(mesh22)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)
