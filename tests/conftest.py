import numpy as np
import pytest
from hypothesis import settings

from molrest.molecule import Molecule, prepare_equilibrium

# Property tests draw the same examples on every run and keep no example
# database, so a tier-1 result depends on the code alone.  The scheduled
# CI job passes --hypothesis-profile molrest-random, which draws fresh
# examples on each run and overrides the load below.
settings.register_profile("molrest", derandomize=True, deadline=None, database=None,
                          max_examples=100)
settings.register_profile("molrest-random", derandomize=False, deadline=None, database=None,
                          max_examples=1000)
settings.load_profile("molrest")


@pytest.fixture
def water_raw():
    # Bent triatomic, deliberately translated and tilted.
    return Molecule(
        masses=np.array([15.999, 1.008, 1.008]),
        positions=np.array(
            [
                [1.0, 2.0, 0.0656],
                [1.0, 2.7575, -0.5207],
                [1.0, 1.2425, -0.5207],
            ]
        ),
        electron_count=2,
        electron_mass=5.5e-4,
        name="water",
    )


@pytest.fixture
def water(water_raw):
    return prepare_equilibrium(water_raw)


@pytest.fixture
def penta():
    # Asymmetric 5-nucleus cluster with a handful of light particles.
    mol = Molecule(
        masses=np.array([12.0, 1.0, 1.0, 15.999, 14.003]),
        positions=np.array(
            [
                [0.00, 0.00, 0.00],
                [1.04, 0.32, -0.11],
                [-0.45, 0.95, 0.37],
                [-0.71, -0.88, 0.25],
                [0.38, -0.22, 1.19],
            ]
        ),
        electron_count=4,
        electron_mass=0.02,
        name="penta",
    )
    return prepare_equilibrium(mol)


@pytest.fixture
def square():
    # Four unit masses in a plane: equilibrium inertia diag(2, 2, 4).
    mol = Molecule(
        masses=np.ones(4),
        positions=np.array(
            [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]]
        ),
        electron_count=0,
        name="square",
    )
    return prepare_equilibrium(mol)
