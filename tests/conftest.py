import random

import pytest

from modmatroid.matroids import from_realization, random_realization


@pytest.fixture(scope="session")
def rng():
    return random.Random(20260813)


@pytest.fixture(scope="session")
def small_suite():
    """Forty realized matroids used across the unit tests."""
    r = random.Random(11)
    out = []
    while len(out) < 40:
        real = random_realization(r, max_labels=5)
        out.append((real, from_realization(real)))
    return out
