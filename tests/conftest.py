import numpy as np
import pytest
from hypothesis import settings

# Property tests draw the same examples on every run, so the suite stays
# reproducible; no example database is written and no per-example deadline
# applies on a loaded machine.
settings.register_profile("pai", derandomize=True, database=None, deadline=None)
settings.load_profile("pai")


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)
