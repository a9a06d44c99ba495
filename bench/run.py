"""flatsteady benchmark: seeded workloads, output checks, end-to-end and
per-layer metrics.

    python3 bench/run.py --workload solve_sweep --seed 1 --seconds 14 --trace 0

Run from the repository root; it imports the package from ``src/``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it record the seed, the environment and a readable summary.
``--quick`` shrinks every workload for a smoke test (``bench/smoke.py``).
See ``bench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import os
import sys

# Thread caps go in before numpy is imported; later changes have no effect.
THREADS = str(min(2, os.cpu_count() or 1))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import argparse
import ctypes
import json
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from tracer import LAYERS, SPAN_FIELDS, Tracer, layer_metrics, span_cost

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3          # set-up runs (each in a fresh process) per run


class CheckFailed(Exception):
    """An operation returned, but its output failed a correctness check."""


def _stratified(offset: float, k: int) -> float:
    """k-th point of a seeded, evenly spread sequence in [0, 1).

    The points follow the base-2 van der Corput order (0, 1/2, 1/4, 3/4,
    ...) shifted by ``offset``, which the seed draws in [0, 1/16): the first
    four points of every run fall one in each quarter of the range, and the
    seed moves each point within the first quarter of its quarter.  Solve cost
    jumps with the number of outer iterations, so runs of different seeds
    are only comparable when they cover the same parts of the range.
    """
    vdc, scale = 0.0, 0.5
    while k:
        k, bit = divmod(k, 2)
        vdc += bit * scale
        scale *= 0.5
    return (offset + vdc) % 1.0


# -- workloads ---------------------------------------------------------------

class SolveSweep:
    """Steady-state solves plus functionals over a mix of Casimir models."""

    # A round is STRATA solves of each model kind, kinds always in this order
    # so that the operator cache sees the same pattern whatever the seed; the
    # strata of one round cover each input range evenly.  A run measures
    # whole rounds.
    KINDS = ("poly_mu0.5", "poly_mu0.75", "double_power")
    STRATA = 4
    round = STRATA * len(KINDS)

    def __init__(self, fs, cli, seed, quick, workdir):
        self.fs = fs
        self.offsets = seeded_rng(seed).random((len(self.KINDS), 2)) / 16.0
        self.opts = fs.SolverOptions(n=128) if quick else fs.SolverOptions()

    def inputs(self, i):
        k, kind = divmod(i, len(self.KINDS))
        u_mass, u_c = self.offsets[kind]
        mass = 0.5 + 1.5 * _stratified(u_mass, k)
        CM = self.fs.CasimirModel
        if kind == 0:
            model = CM.polytrope(0.5, c=1.0 + 56.0 * _stratified(u_c, k))
        elif kind == 1:
            model = CM.polytrope(0.75, mu3=0.5)
        else:
            model = CM.double_power(0.5, 0.75)
        return self.KINDS[kind], model, mass

    def op(self, i):
        _, model, mass = self.inputs(i)
        ss = self.fs.solve(model, mass, self.opts)
        return ss, self.fs.evaluate_steady(model, ss)

    def check(self, i, result):
        _, _, mass = self.inputs(i)
        ss, _ = result
        if abs(ss.mass - mass) > 1e-9 * mass:
            raise CheckFailed(f"mass defect {abs(ss.mass - mass):.3e}")
        if not ss.residual <= 1e-9:
            raise CheckFailed(f"residual {ss.residual:.3e}")
        return {}

    def work_per_s(self, samples):
        """Solves per second over the whole rounds a run measures."""
        return len(samples) / sum(s for _, s, _ in samples)

    def summary(self, rate):
        return {"solves_per_s": rate}

    def particle_steps(self):
        return 0


class EvolveSteps:
    """Kick-drift-kick grid-force runs of 10^6 particles on the c=57 state."""

    round = 1

    def __init__(self, fs, cli, seed, quick, workdir):
        self.fs = fs
        self.n_particles, self.steps, n = ((200_000, 2, 128) if quick
                                           else (1_000_000, 50, 256))
        self.model = fs.CasimirModel.polytrope(0.5, c=57.0)
        self.ss = fs.solve(self.model, 1.0, fs.SolverOptions(n=n))
        self.seeds = seeded_rng(seed).integers(0, 2 ** 31, size=1000)

    def op(self, i):
        t_dyn = self.ss.dynamical_time()
        dt = 0.01 * t_dyn
        cfg = self.fs.SimConfig(
            n_particles=self.n_particles, dt=dt, t_end=self.steps * dt,
            method="grid", seed=int(self.seeds[i % self.seeds.size]),
            output_every=self.steps)
        return self.fs.run(self.ss, cfg, model=self.model)

    def check(self, i, out):
        rows, ens = out["rows"], out["ensemble"]
        if len(rows) != 2:
            raise CheckFailed(f"expected 2 diagnostic rows, got {len(rows)}")
        gates = evolve_gates(rows, ens.abs_angular_momentum(), out["eps_mc"])
        r = ens.radii()
        gates["mass_past_grid"] = float(
            ens.weights[r > self.ss.grid.r_max].sum() / ens.mass)
        return gates

    def particle_steps(self):
        return self.n_particles * self.steps

    def work_per_s(self, samples):
        """Particle steps per second of ``run`` (median over runs)."""
        return self.particle_steps() / statistics.median(s for _, s, _ in samples)

    def summary(self, rate):
        return {"particle_steps_per_s": rate}


class CliDiag:
    """``flatsteady evolve`` in-process with a diagnostics row every step."""

    round = 1

    def __init__(self, fs, cli, seed, quick, workdir):
        self.cli = cli
        self.n_particles, self.steps, n = ((50_000, 2, 128) if quick
                                           else (200_000, 10, 256))
        work = Path(workdir)
        self.config = work / "run.ini"
        self.out = work / "evolve"
        state = work / "state"
        self.config.write_text(
            "[model]\nkind = polytrope\nmu = 0.5\nc = 57.0\n\n"
            f"[solver]\nn = {n}\n\n[solve]\nmass = 1.0\n\n"
            f"[evolve]\nstate = {state / 'steady'}\n"
            f"n_particles = {self.n_particles}\ndt_over_tdyn = 0.01\n"
            f"t_end_over_tdyn = {0.01 * self.steps!r}\noutput_every = 1\n")
        rc = cli.main(["solve", "--config", str(self.config), "--out", str(state)])
        if rc != 0:
            raise RuntimeError(f"set-up: flatsteady solve exited {rc}")
        self.seeds = seeded_rng(seed).integers(0, 2 ** 31, size=1000)

    def op(self, i):
        return self.cli.main(["evolve", "--config", str(self.config),
                              "--out", str(self.out),
                              "--seed", str(int(self.seeds[i % self.seeds.size]))])

    def check(self, i, rc):
        if rc != 0:
            raise CheckFailed(f"flatsteady evolve exited {rc}")
        payload = json.loads((self.out / "evolve.json").read_text())
        failed = [c["name"] for c in payload["checks"] if not c["pass"]]
        if failed:
            raise CheckFailed(f"evolve gates failed: {failed}")
        return {"d_drift": payload["d_drift"], "l3_drift": payload["l3_drift"],
                "bytes_written": sum(p.stat().st_size for p in self.out.iterdir())}

    def mass_past_grid(self):
        """Share of the last call's final mass beyond the grid edge."""
        snap = np.loadtxt(self.out / "snapshot.csv", delimiter=",",
                          comments="#", skiprows=5)
        steady = np.loadtxt(self.config.parent / "state" / "steady.csv",
                            delimiter=",", comments="#", skiprows=3)
        r = np.hypot(snap[:, 0], snap[:, 1])
        return float(snap[r > steady[-1, 0], 4].sum() / snap[:, 4].sum())

    def particle_steps(self):
        return self.n_particles * self.steps

    def work_per_s(self, samples):
        """CLI evolve calls per second (one over the median call time)."""
        return 1.0 / statistics.median(s for _, s, _ in samples)

    def summary(self, rate):
        return {"cli_evolve_s": 1.0 / rate}


WORKLOADS = {"solve_sweep": SolveSweep, "evolve_steps": EvolveSteps,
             "cli_diag": CliDiag}


def seeded_rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def evolve_gates(rows, l3_scale, eps_mc):
    """The acceptance gates of an evolve run; raises CheckFailed on a miss."""
    d0, l0 = rows[0]["D"], rows[0]["L3"]
    d_drift = max(abs(r["D"] - d0) for r in rows) / max(abs(d0), 1e-300)
    l3_drift = max(abs(r["L3"] - l0) for r in rows) / max(l3_scale, 1e-300)
    d_min = min(r["d_dist"] for r in rows)
    if not d_drift <= 0.01:
        raise CheckFailed(f"D drift {d_drift:.3e} > 1%")
    if not l3_drift <= 1e-6:
        raise CheckFailed(f"L3 drift {l3_drift:.3e} > 1e-6")
    if not d_min >= -eps_mc:
        raise CheckFailed(f"d = {d_min:.3e} below -eps_mc = {-eps_mc:.3e}")
    return {"d_drift": d_drift, "l3_drift": l3_drift}


# -- measurement -------------------------------------------------------------

def measure(work, seconds, tracer=None):
    """Run operations for at least ``seconds``, in whole rounds.

    Only the operation is timed; its checks run after the clock stops.  A
    raised exception or a failed check counts the operation as failed and
    the run goes on.  Returns (samples, failed); a sample is (index,
    seconds, check values).
    """
    samples, failed = [], 0
    i, start = 0, time.perf_counter()
    while True:
        try:
            if tracer:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                result = work.op(i)
            finally:
                elapsed = time.perf_counter() - t0
                if tracer:
                    tracer.active = False
            samples.append((i, elapsed, work.check(i, result)))
        except Exception:  # an operation failure must not end the run
            failed += 1
            print(f"operation {i} failed:\n{traceback.format_exc()}",
                  file=sys.stderr)
        i += 1
        if i % work.round == 0 and time.perf_counter() - start >= seconds:
            return samples, failed


def time_setups(args):
    """Wall times of SETUP_REPEATS set-ups, each in a fresh interpreter,
    from process start (imports included) to exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    if args.quick:
        cmd.append("--quick")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=150)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return times


def blas_threads():
    """Thread count the BLAS bundled with numpy reports, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas_threads": blas_threads(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def as_metrics(values, specs):
    """Every metric BENCHMARK.json lists, with its unit, and no other."""
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in specs}


def run_untraced(args, work, spec):
    setup_times = time_setups(args)
    samples, failed = measure(work, args.seconds)
    if not samples:
        return samples, failed, None, {}
    values = {"setup_s": statistics.median(setup_times),
              "peak_rss_mb": peak_rss_mb(),
              "work_per_s": work.work_per_s(samples)}
    readable = dict(values, setup_runs_s=setup_times,
                    **work.summary(values["work_per_s"]))
    return samples, failed, as_metrics(values, spec["end_to_end"]), readable


def run_traced(args, work, spec):
    """The untraced run's operations, traced; per-layer metrics come from
    their spans.

    ``trace_overhead_frac`` is the traced wall time over the untraced wall
    time, minus 1, where the untraced time is the traced time less the
    spans' count times the measured cost of one span.  Timing an untraced
    pass instead cannot resolve it: the tracer costs about 1%, while the
    same inputs rerun minutes apart differ by up to 10% on a shared host,
    and other inputs differ by more.
    """
    tracer = Tracer()
    tracer.install()
    try:
        samples, failed = measure(work, args.seconds, tracer)
    finally:
        tracer.uninstall()
    if not samples:
        return samples, failed, None, {}
    values = layer_metrics(tracer.spans)
    checks = [c for _, _, c in samples]
    wall = sum(s for _, s, _ in samples)
    overhead_s = len(tracer.spans) * span_cost()
    values.update({
        "simulate.particle_steps": work.particle_steps() * len(samples),
        "simulate.d_drift": max(c.get("d_drift", 0.0) for c in checks),
        "simulate.l3_drift": max(c.get("l3_drift", 0.0) for c in checks),
        "simulate.mass_past_grid": max(c.get("mass_past_grid", 0.0) for c in checks),
        "cli.bytes_written": sum(c.get("bytes_written", 0) for c in checks),
        "trace_overhead_frac": wall / (wall - overhead_s) - 1.0,
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - values["traced_s"],
        "trace.ops": len(samples),
    })
    if isinstance(work, CliDiag):
        values["simulate.mass_past_grid"] = work.mass_past_grid()
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "environment": environment(), "span_fields": SPAN_FIELDS,
                   "spans": tracer.spans}, fh)
    readable = {"spans_file": str(path.relative_to(ROOT)),
                "self_share": {layer: round(values[f"{layer}.self_s"] / wall, 3)
                               for layer in LAYERS}}
    return samples, failed, as_metrics(values, spec["per_layer"]), readable


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="small inputs, for a smoke test of the benchmark")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)  # used by time_setups
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "flatsteady" / "__init__.py").is_file():
        print(f"benchmark: no flatsteady sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import flatsteady as fs
    from flatsteady import cli
    if not Path(fs.__file__).resolve().is_relative_to(SRC):
        print(f"benchmark: flatsteady imported from {fs.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        work = WORKLOADS[args.workload](fs, cli, args.seed, args.quick, workdir)
        if args.setup_only:
            return 0
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "seconds": args.seconds, "trace": args.trace,
                          "quick": args.quick, "environment": environment()}))
        runner = run_traced if args.trace else run_untraced
        samples, failed, metrics, readable = runner(args, work, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(samples) + failed
    if metrics is None:
        print("benchmark: every operation failed", file=sys.stderr)
        return 1
    print(json.dumps({"summary": readable, "attempted": attempted,
                      "failed": failed, "fail_frac": failed / attempted}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
