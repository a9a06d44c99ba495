import functools
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from flatsteady import CasimirModel, SolverOptions, grids, solve, steady


@pytest.fixture(scope="session")
def poly_half():
    """Polytropic Casimir model with mu = 1/2 and unit coefficient."""
    return CasimirModel.polytrope(0.5, c=1.0)


@pytest.fixture(scope="session")
def ss_half(poly_half):
    """Converged mass-1 steady state of the mu = 1/2 polytrope."""
    return solve(poly_half, 1.0)


@pytest.fixture(scope="session")
def poly_wide():
    """Polytrope rescaled (via its coefficient) to a support radius near 1."""
    return CasimirModel.polytrope(0.5, c=57.0)


@pytest.fixture(scope="session")
def ss_wide(poly_wide):
    return solve(poly_wide, 1.0, SolverOptions(n=256))


@pytest.fixture(scope="session")
def kuzmin_profile():
    """Kuzmin-disc surface density with M = a = 1 as a callable."""
    def sigma(r):
        return 1.0 / (2.0 * np.pi * (r ** 2 + 1.0) ** 1.5)
    return sigma


@pytest.fixture
def cold_cache():
    """Empties steady's cache of canonical polytrope states on entry and on
    exit, so that a state solved under a patched loop reaches no other test;
    it returns the clearing function, for a test that needs a cold cache
    part way through."""
    steady._canonical.cache_clear()
    yield steady._canonical.cache_clear
    steady._canonical.cache_clear()


@pytest.fixture
def use_pool():
    """use_pool(monkeypatch, workers, chunk=None) routes the chunk maps of
    ``grids._map_chunks`` through a pool of ``workers`` threads (and, when
    given, slices of ``chunk``) while ``monkeypatch`` holds; it returns the
    executor, or None for one worker, for the caller to shut down."""
    def route(monkeypatch, workers, chunk=None):
        pool = ThreadPoolExecutor(workers - 1) if workers > 1 else None
        monkeypatch.setattr(grids, "_pool",
                            functools.cache(lambda: (pool, workers)))
        if chunk is not None:
            monkeypatch.setattr(grids, "_CHUNK", chunk)
        return pool
    return route
