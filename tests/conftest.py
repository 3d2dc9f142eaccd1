import numpy as np
import pytest


@pytest.fixture(scope="session")
def full_lattice():
    """A function: the table's multiplier on the full lattice, from k_squared
    and radial_values."""
    def _full_lattice(table):
        _, inverse = np.unique(table.grid.k_squared(), return_inverse=True)
        return table.radial_values[inverse].reshape(table.grid.shape)
    return _full_lattice
