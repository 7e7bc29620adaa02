"""Fixtures shared by the spectral and cavity tests, and a fixed Hypothesis constant pool."""

import contextlib

import numpy as np
import pytest
from hypothesis.internal.conjecture import providers

from dwelltime import spectral

# Hypothesis mixes the literal constants of every local module in sys.modules into its
# draws, so derandomized examples would depend on which test modules were collected. A
# fixed, empty pool gives each test the same examples alone and in the full suite.
_NO_LOCAL_CONSTANTS = providers.Constants()
providers._get_local_constants = lambda: _NO_LOCAL_CONSTANTS


@pytest.fixture
def fine_table_rule():
    """A context manager under which every frequency integral of a tabulated pulse
    takes 32-point Gauss-Legendre on each interval between the table's
    samples, in a single level: a reference rule far finer than the package's own,
    for tables whose sample spacing is small next to the line width."""
    x, wts = np.polynomial.legendre.leggauss(32)

    def nodes(pulse, n, od_eff=0.0, midpoints=False):
        a, b = pulse.omegas[:-1, None], pulse.omegas[1:, None]
        weights = (0.5 * (b - a) * wts).ravel()
        return [((0.5 * (a + b) + 0.5 * (b - a) * x).ravel(), lambda rows: (rows * weights).sum(axis=-1))]

    def one_level(level, start):
        vals = level(start, slice(None), None)
        return vals, np.full(vals.shape[1], start)

    @contextlib.contextmanager
    def rule():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "_nodes", nodes)
            mp.setattr(spectral, "_converge", one_level)
            yield

    return rule
