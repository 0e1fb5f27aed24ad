import numpy as np
import pytest

import cuspeig as ce


@pytest.fixture(scope="session")
def square16():
    return ce.mesh_box(ce.BoxDomain((1.0, 1.0)), 16)


@pytest.fixture(scope="session")
def square32():
    return ce.mesh_box(ce.BoxDomain((1.0, 1.0)), 32)


@pytest.fixture(scope="session")
def cusp_domain_2d():
    return ce.CuspDomain((2.0,))


@pytest.fixture(scope="session")
def cusp16(cusp_domain_2d):
    return ce.mesh_cusp(cusp_domain_2d, 1.0, 16)


@pytest.fixture(scope="session")
def cusp_g2_res32(cusp_domain_2d):
    return ce.mesh_cusp(cusp_domain_2d, 1.0, 32)


@pytest.fixture
def rng():
    # One generator per test, so a test's random fields do not depend on
    # which tests drew before it.
    return np.random.default_rng(0)
