import numpy as np
import pytest

from ncgeo import projection
from ncgeo.core import TracialAlgebra


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def m2():
    return TracialAlgebra.full(2)


@pytest.fixture
def m3():
    return TracialAlgebra.full(3)


@pytest.fixture
def m4():
    return TracialAlgebra.full(4)


@pytest.fixture
def m2_plus_m3():
    return TracialAlgebra.direct_sum((2, 3), (0.4, 0.6))


@pytest.fixture
def m2_tensor():
    return TracialAlgebra.full(4)


@pytest.fixture
def newton_stack_sizes(monkeypatch):
    """The stack size of every call of the damped-Newton loop, recorded."""
    sizes = []
    newton = projection._newton

    def spy(state, w, *args, **kw):
        sizes.append(len(state))
        return newton(state, w, *args, **kw)

    monkeypatch.setattr(projection, "_newton", spy)
    return sizes
