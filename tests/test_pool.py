"""The particle maps run in chunks on a thread pool; no output bit may depend
on the worker count or on where the chunk boundaries fall."""

import functools
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flatsteady import SimConfig, accelerations, run, sample, step
from flatsteady import functionals
from flatsteady.errors import InputError
from flatsteady.functionals import _bin, _ensemble_row
from flatsteady.simulate import ParticleEnsemble, _grid_accel_arrays

# no chunk boundary of the default size falls on a multiple of a smaller one
N_POOL = 2 * functionals._CHUNK + 17


def _use_pool(monkeypatch, workers, chunk=None):
    """Route the particle maps through a pool of ``workers`` threads."""
    pool = ThreadPoolExecutor(workers - 1) if workers > 1 else None
    monkeypatch.setattr(functionals, "_pool",
                        functools.cache(lambda: (pool, workers)))
    if chunk is not None:
        monkeypatch.setattr(functionals, "_CHUNK", chunk)
    return pool


@pytest.fixture(scope="module")
def ens_pool(ss_wide):
    """A sampled ensemble with particles past the grid and one at the origin."""
    ens = sample(ss_wide, N_POOL, seed=5)
    x = ens.positions.copy()
    far = slice(functionals._CHUNK - 3, functionals._CHUNK + 3)
    x[far] *= 1.5 * ss_wide.grid.r_max / np.hypot(*x[far].T)[:, None]
    x[7] = [0.0, 0.0]
    return ParticleEnsemble(x, ens.velocities, ens.weights)


def _outputs(ss, model, ens):
    acc = accelerations(ens, ss.grid)
    stepped, acc_new = step(ens, 1e-3, ss.grid, acc=acc)
    t_dyn = ss.dynamical_time()
    cfg = SimConfig(n_particles=N_POOL, dt=0.01 * t_dyn, t_end=0.03 * t_dyn,
                    seed=9, output_every=2)
    out = run(ss, cfg, model=model)
    return {
        "acc": acc, "step_x": stepped.positions, "step_v": stepped.velocities,
        "step_acc": acc_new,
        "rows": np.array([[row[k] for k in sorted(row)] for row in out["rows"]]),
        "eps_mc": np.array([out["eps_mc"], out["mass_past_grid"]]),
        "final_x": out["ensemble"].positions,
        "final_v": out["ensemble"].velocities,
        "workers": out["workers"],
    }


def test_outputs_do_not_depend_on_workers_or_chunks(monkeypatch, poly_wide,
                                                   ss_wide, ens_pool):
    results = {}
    for label, workers, chunk in (("1", 1, None), ("2", 2, None), ("3", 3, None),
                                  ("one chunk", 3, 10 * N_POOL),
                                  ("odd chunks", 2, 9973)):
        with monkeypatch.context() as m:
            pool = _use_pool(m, workers, chunk)
            results[label] = _outputs(ss_wide, poly_wide, ens_pool)
            if pool is not None:
                pool.shutdown()
        assert results[label].pop("workers") == workers
    ref = results.pop("1")
    for label, res in results.items():
        for key, value in ref.items():
            assert value.tobytes() == res[key].tobytes(), (label, key)


def test_run_leapfrog_matches_whole_array_updates(monkeypatch, poly_wide,
                                                  ss_wide):
    # the chunked kicks reuse the half kick and the force buffer; at 1, 2
    # and 3 workers the positions and velocities still equal the plain
    # kick-drift-kick, and k calls of step give the same bytes as run's k
    # steps
    n = 5000
    t_dyn = ss_wide.dynamical_time()
    cfg = SimConfig(n_particles=n, dt=0.01 * t_dyn, t_end=0.04 * t_dyn,
                    seed=2, output_every=4)
    ens = sample(ss_wide, n, seed=2)
    x, v, dt = ens.positions.copy(), ens.velocities.copy(), cfg.dt
    acc = acc0 = accelerations(ens, ss_wide.grid)
    for _ in range(4):
        v += 0.5 * dt * acc
        x += dt * v
        acc = accelerations(ParticleEnsemble(x, v, ens.weights), ss_wide.grid)
        v += 0.5 * dt * acc
    for workers in (1, 2, 3):
        with monkeypatch.context() as m:
            pool = _use_pool(m, workers, chunk=997)
            out = run(ss_wide, cfg, model=poly_wide)
            stepped, acc_step = ens, acc0
            for _ in range(4):
                stepped, acc_step = step(stepped, dt, ss_wide.grid,
                                         acc=acc_step)
            # the last row reads the binning of the drifted positions, not
            # a stale one
            final = out["ensemble"]
            binned = _bin(ss_wide.grid, final.positions, final.weights)
            row, _ = _ensemble_row(poly_wide, final, binned, ss_wide)
            if pool is not None:
                pool.shutdown()
        for result in (final, stepped):
            assert result.positions.tobytes() == x.tobytes(), workers
            assert result.velocities.tobytes() == v.tobytes(), workers
        assert acc_step.tobytes() == acc.tobytes(), workers
        assert out["rows"][-1] == row, workers
        # whole-array radii agree with the binning's chunked ones
        assert final.radii().tobytes() == binned.radii.tobytes(), workers


def test_nan_radius_in_a_later_chunk_raises(monkeypatch, ss_wide, ens_pool):
    x = ens_pool.positions.copy()
    x[functionals._CHUNK + 11] = [np.nan, 0.0]
    for workers in (1, 3):
        with monkeypatch.context() as m:
            pool = _use_pool(m, workers)
            with pytest.raises(InputError, match="NaN radius"):
                _grid_accel_arrays(x, _bin(ss_wide.grid, x, ens_pool.weights))
            if pool is not None:
                pool.shutdown()


@settings(max_examples=50, deadline=None)
@given(n=st.integers(0, 5000), chunk=st.integers(1, 700),
       workers=st.integers(1, 4))
def test_chunks_cover_every_particle_once(n, chunk, workers):
    seen = np.zeros(n, dtype=int)

    def mark(lo, hi):
        assert 0 <= lo < hi <= n and hi - lo <= chunk
        seen[lo:hi] += 1

    pool = ThreadPoolExecutor(workers - 1) if workers > 1 else None
    saved = functionals._pool, functionals._CHUNK
    functionals._pool = functools.cache(lambda: (pool, workers))
    functionals._CHUNK = chunk
    try:
        functionals._map_chunks(mark, n)
    finally:
        functionals._pool, functionals._CHUNK = saved
        if pool is not None:
            pool.shutdown()
    assert np.all(seen == 1)


def test_pool_follows_the_affinity_set():
    pool, workers = functionals._pool()
    assert workers == len(os.sched_getaffinity(0))
    assert (pool is None) == (workers == 1)


def test_shared_slice_iterator_under_frequent_switches():
    # more workers than cores and a switch interval of a microsecond: a
    # slice handed out twice or lost would show in the counts
    n, workers = 20_000, 8
    seen = np.zeros(n, dtype=int)

    def mark(lo, hi):
        seen[lo:hi] += 1

    pool = ThreadPoolExecutor(workers - 1)
    saved = functionals._pool, functionals._CHUNK, sys.getswitchinterval()
    functionals._pool = functools.cache(lambda: (pool, workers))
    functionals._CHUNK = 3
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=functionals._map_chunks, args=(mark, n))
        caller.start()
        caller.join(timeout=120)
        assert not caller.is_alive()
    finally:
        sys.setswitchinterval(saved[2])
        functionals._pool, functionals._CHUNK = saved[:2]
        pool.shutdown()
    assert np.all(seen == 1)


def test_map_returns_when_no_helper_thread_is_free(monkeypatch):
    # the pool's only thread is busy (as in a forked child, where it does
    # not exist): the calling thread does every slice and does not wait
    release = threading.Event()
    pool = ThreadPoolExecutor(1)
    blocker = pool.submit(release.wait, 120)
    monkeypatch.setattr(functionals, "_pool", functools.cache(lambda: (pool, 2)))
    monkeypatch.setattr(functionals, "_CHUNK", 7)
    seen = np.zeros(100, dtype=int)

    def mark(lo, hi):
        seen[lo:hi] += 1

    try:
        caller = threading.Thread(target=functionals._map_chunks, args=(mark, 100))
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
    finally:
        release.set()
        blocker.result(timeout=60)
        pool.shutdown()
    assert np.all(seen == 1)
