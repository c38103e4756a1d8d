import pytest

import msfnet
import oracles


@pytest.fixture(scope="session")
def paper_model():
    """The reference two-state plant (F = [[-2, 5], [-1, 0]], G = -H)."""
    return msfnet.build_plant_model(oracles.D, oracles.R, oracles.H,
                                    oracles.K, oracles.L)


@pytest.fixture(scope="session")
def unstabilizable_model():
    """A plant whose first state never sees the feedback (R's first row and
    L's first column are 0) and grows at 0.22*lam - 1: no mu stabilizes a
    mode with lam > 1/0.22."""
    return msfnet.build_plant_model([[-1.0, 0.0], [0.0, -3.0]], [[0.0], [1.0]],
                                    [[0.22, 0.0], [0.0, 0.0]], [[0.0, 0.0]], [[0.0, -1.0]])


@pytest.fixture(scope="session")
def complete8():
    return msfnet.make_network("complete", 8)


@pytest.fixture(scope="session")
def ring8():
    return msfnet.make_network("ring", 8, k=4)
