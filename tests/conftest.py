"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from innerclt.blaschke import BlaschkeProduct


@pytest.fixture
def stepped(monkeypatch):
    """Point count of every Blaschke step taken while the test runs."""
    sizes = []
    step = BlaschkeProduct._step

    def spy(self, z):
        sizes.append(np.size(z))
        return step(self, z)

    monkeypatch.setattr(BlaschkeProduct, "_step", spy)
    return sizes
