"""Shared test fixtures."""

import numpy as np
import pytest

from concate.montecarlo import _Intervals, _replication_intervals


@pytest.fixture
def one_replication():
    """Score one replication as the (1, N) block of the coverage kernel,
    returned as floats."""

    def score(y0, y, d, alpha, design):
        block = (np.reshape(a, (1, -1)) for a in (y0, y, np.asarray(d, dtype=bool)))
        rows = _replication_intervals(*block, design, alpha)
        return _Intervals._make(float(np.ravel(value)[0]) for value in rows)

    return score
