"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from innerclt import clark
from innerclt.blaschke import BlaschkeProduct
from innerclt.clark import BoundaryAtomSolver


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


@pytest.fixture
def atom_solves(monkeypatch):
    """(f, power, alpha angle) of every `BoundaryAtomSolver.atoms` call while the test runs."""
    calls = []
    atoms = BoundaryAtomSolver.atoms

    def spy(self, alpha_theta):
        calls.append((self.f, self.power, alpha_theta))
        return atoms(self, alpha_theta)

    monkeypatch.setattr(BoundaryAtomSolver, "atoms", spy)
    return calls


@pytest.fixture
def empty_clark_slot():
    """Run the test with no measure in `clark_measure`'s one-slot cache.

    A test that patches the solver needs this: a measure stored by an
    earlier test would answer its calls without a solve, and one that a
    patched solver stored must not answer a later test's.
    """
    clark._solve.cache_clear()
    yield
    clark._solve.cache_clear()
