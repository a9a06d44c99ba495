"""Command-line orchestration.

Commands: validate, solve, scaling, split, evolve, potential-table.
Configs are INI files with one section per concern ([model], [solver],
[solve], [scaling], [split], [evolve], [table]).  The JSON outputs carry
the tool version and a prefix of the config file's SHA-256, plus the grid
hash when they describe a state and the RNG seed for evolve; steady.csv and
potential.csv carry the version and grid hash, timeseries.csv the version,
seed and grid hash, snapshot.csv the seed, N, dt and method.  A rerun with
the same inputs reproduces the bytes exactly.  Exit codes: 0 success, 1
numerical or check failure (a stale state artifact included), 2 usage or
config error (an inadmissible model included).
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .casimir import CasimirModel, validate_assumptions
from .errors import FlatSteadyError, InputError
from .functionals import (evaluate_steady, scaling_inequality_check,
                          split_diagnostic)
from .grids import RadialGrid, RadialProfile, read_csv, write_csv
from .potential import potential_from_density
from .steady import (_MASS_TOL, SolverOptions, SteadyState, regularity_report,
                     solve)
from .simulate import SimConfig, _check_perturbation, _rng, run

__all__ = ["main"]


# -- serialization ---------------------------------------------------------

def _fmt(value) -> str:
    """JSON text with every float at 17 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if v != v or v in (float("inf"), float("-inf")):
            return '"%s"' % v
        return "%.17g" % v
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    if isinstance(value, dict):
        inner = ", ".join("%s: %s" % (json.dumps(str(k)), _fmt(v))
                          for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return json.dumps(str(value))


def _write_json(path, payload: dict):
    with open(path, "w") as fh:
        fh.write(_fmt(payload))
        fh.write("\n")


def _stamp(cfg_path, seed=None, grid: RadialGrid = None) -> dict:
    head = {"version": __version__}
    if cfg_path:
        with open(cfg_path, "rb") as fh:
            head["config_hash"] = hashlib.sha256(fh.read()).hexdigest()[:16]
    if seed is not None:
        head["seed"] = int(seed)
    if grid is not None:
        head["grid_hash"] = grid.content_hash()
    return head


# -- config parsing --------------------------------------------------------

_REQUIRED = object()

# The keys each section may hold.  One file serves every command, so every
# command accepts all of them; any other section or key is a usage error.
# [model] holds kind, f0 and the keys of its kind only.
_MODEL_KEYS = {
    "polytrope": {"mu", "c", "mu3"},
    "double_power": {"mu1", "mu2", "c1", "c2"},
    "custom": {"table", "mu1", "mu2", "mu3"},
}
_STATE_KEYS = {"state", "mass"}
_KEYS = {
    "model": {"kind", "f0"}.union(*_MODEL_KEYS.values()),
    "solver": {"n"},
    "solve": {"mass"},
    "scaling": {"m1", "m2"},
    "split": {"radius", "radius_fraction", "c"} | _STATE_KEYS,
    "evolve": {"seed", "n_particles", "dt_over_tdyn", "t_end_over_tdyn",
               "output_every", "perturbation", "delta"} | _STATE_KEYS,
    "table": {"density"},
}


def _load_config(path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise InputError(f"config file {path!r} is malformed ({exc})") from exc
    if not read:
        raise InputError(f"config file {path!r} not found or unreadable")
    if cp.defaults():
        raise InputError(f"config: unknown section [{cp.default_section}]")
    for section in cp.sections():
        if section not in _KEYS:
            raise InputError(f"config: unknown section [{section}]")
        for key in cp.options(section):
            if key not in _KEYS[section]:
                raise InputError(f"config: unknown key {key!r} in [{section}]")
    return cp


def _get(cp, section, key, default=_REQUIRED, type_=float):
    """``[section] key`` converted by ``type_``; InputError if it is malformed
    or, without a default, missing."""
    assert key in _KEYS[section], f"[{section}] {key} is not declared in _KEYS"
    if not cp.has_option(section, key):
        if default is _REQUIRED:
            raise InputError(f"config: [{section}] needs {key}")
        return default
    try:
        return type_(cp.get(section, key))
    except (ValueError, configparser.Error) as exc:
        raise InputError(f"config: bad [{section}] {key} ({exc})") from exc


def _model_from_config(cp: configparser.ConfigParser) -> CasimirModel:
    if "model" not in cp:
        raise InputError("config: missing [model] section")
    kind = _get(cp, "model", "kind", "polytrope", str)
    if kind not in _MODEL_KEYS:
        raise InputError(f"config: unknown model kind {kind!r}")
    unread = set(cp.options("model")) - {"kind", "f0"} - _MODEL_KEYS[kind]
    if unread:
        raise InputError(f"config: [model] kind = {kind} does not read "
                         f"{', '.join(map(repr, sorted(unread)))}")
    F0 = _get(cp, "model", "f0", 1.0)
    if kind == "polytrope":
        return CasimirModel.polytrope(
            _get(cp, "model", "mu"), c=_get(cp, "model", "c", 1.0), F0=F0,
            mu3=_get(cp, "model", "mu3", None))
    if kind == "double_power":
        mu1, mu2, c1, c2 = (_get(cp, "model", k) for k in ("mu1", "mu2", "c1", "c2"))
        return CasimirModel.double_power(mu1, mu2, c1, c2, F0=F0)
    table = read_csv(_get(cp, "model", "table", type_=str), ("f", "Q"))
    mu1, mu2, mu3 = (_get(cp, "model", k) for k in ("mu1", "mu2", "mu3"))
    return CasimirModel.custom(table[0], table[1], F0=F0,
                               mu1=mu1, mu2=mu2, mu3=mu3)


def _solver_opts(cp: configparser.ConfigParser) -> SolverOptions:
    return SolverOptions(n=_get(cp, "solver", "n", 384, int))


# -- steady-state artifacts ------------------------------------------------

def _model_record(model: CasimirModel) -> dict:
    """The model as ``steady.json`` stores it, parsed back from its JSON text."""
    record = {k: getattr(model, k) for k in
              ("kind", "F0", "mu1", "mu2", "mu3", "C1", "C2", "C3", "C4", "terms")}
    if model.f_table is not None:
        record["table_sha256"] = hashlib.sha256(
            model.f_table.tobytes() + model.Q_table.tobytes()).hexdigest()
    return json.loads(_fmt(record))


def _write_state(out_dir, prefix, ss: SteadyState, cfg_path, model):
    csv_path = os.path.join(out_dir, prefix + ".csv")
    json_path = os.path.join(out_dir, prefix + ".json")
    write_csv(csv_path, {"version": __version__, "grid_hash": ss.grid.content_hash()},
              ("r", "rho", "U"), (ss.grid.nodes, ss.rho0.values, ss.U0.values))
    report = evaluate_steady(model, ss)
    payload = _stamp(cfg_path, grid=ss.grid)
    payload.update({
        "E0": ss.E0, "mass": ss.mass,
        "support_radius": ss.support_radius,
        "residual": ss.residual, "iterations": ss.iterations,
        "functionals": report.to_dict(),
        "regularity": regularity_report(ss),
        "model": _model_record(model),
    })
    _write_json(json_path, payload)
    return csv_path, json_path


# the sidecar fields ``_read_state`` passes to ``SteadyState``, each with
# the range its value has in a solved state on a grid reaching r_max
_STATE_FIELDS = {
    "E0": lambda v, r_max: v < 0.0,
    "mass": lambda v, r_max: v > 0.0,
    "support_radius": lambda v, r_max: 0.0 < v <= r_max,
    "residual": lambda v, r_max: v >= 0.0,
    "iterations": lambda v, r_max: v >= 0,
}


def _is_state_value(key, value, r_max) -> bool:
    """value is a JSON number (not a bool) of finite float value, an
    integer for ``iterations``, in the field's solved range."""
    if isinstance(value, bool) or not isinstance(
            value, int if key == "iterations" else (int, float)):
        return False
    try:
        return math.isfinite(value) and _STATE_FIELDS[key](value, r_max)
    except OverflowError:  # an integer past the float range
        return False


def _read_state(prefix, model) -> SteadyState:
    csv_path = prefix + ".csv"
    json_path = prefix + ".json"
    for p in (csv_path, json_path):
        if not os.path.exists(p):
            raise InputError(f"steady-state artifact {p!r} not found")
    data = read_csv(csv_path, ("r", "rho", "U"))
    try:
        with open(json_path) as fh:
            side = json.load(fh)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise InputError(f"sidecar {json_path!r} is not JSON ({exc})") from exc
    if not isinstance(side, dict):
        raise FlatSteadyError(f"stale artifact: {json_path!r} holds no object")
    grid = RadialGrid(data[0])
    if grid.content_hash() != side.get("grid_hash"):
        raise FlatSteadyError(
            f"stale artifact: grid hash {grid.content_hash()} does not match "
            f"sidecar {side.get('grid_hash')}")
    if side.get("model") != _model_record(model):
        raise FlatSteadyError(
            f"stale artifact: {json_path!r} was solved for another model "
            f"({side.get('model')})")
    missing = [k for k in _STATE_FIELDS if k not in side]
    if missing:
        raise FlatSteadyError(
            f"stale artifact: {json_path!r} has no {', '.join(missing)}")
    bad = [k for k in _STATE_FIELDS
           if not _is_state_value(k, side[k], grid.r_max)]
    if bad:
        raise FlatSteadyError(
            f"stale artifact: {json_path!r} has "
            + ", ".join(f"{k} = {json.dumps(side[k])}" for k in bad)
            + "; a solved state has E0 < 0, mass > 0, 0 < support_radius "
            f"<= r_max = {grid.r_max:.17g}, residual >= 0 and an integer "
            "iterations >= 0, all finite")
    return SteadyState(
        model=model,
        rho0=RadialProfile(grid, data[1], require_nonnegative=True),
        U0=RadialProfile(grid, data[2]), **{k: side[k] for k in _STATE_FIELDS})


def _state_for(cp, args, model, out_dir):
    """Load the referenced artifact if configured, else solve in-process.

    A configured mass or ``[solver] n`` that the artifact does not match
    marks it stale, like another model's artifact.
    """
    prefix = _get(cp, args.command, "state", None, str)
    mass = _get(cp, args.command, "mass", None)
    if prefix:
        ss = _read_state(prefix, model)
        if mass is not None and abs(mass - ss.mass) > _MASS_TOL * ss.mass:
            raise FlatSteadyError(
                f"stale artifact: {prefix!r} has mass {ss.mass:.17g}, the "
                f"config asks for [{args.command}] mass = {mass:g}")
        n = _get(cp, "solver", "n", None, int)
        if n is not None and n != ss.grid.n:
            raise FlatSteadyError(
                f"stale artifact: {prefix!r} has {ss.grid.n} nodes, the "
                f"config asks for [solver] n = {n}")
        return ss
    ss = solve(model, 1.0 if mass is None else mass, _solver_opts(cp))
    _write_state(out_dir, "steady", ss, args.config, model)
    return ss


# -- commands --------------------------------------------------------------

def _cmd_validate(args, cp):
    model = _model_from_config(cp)
    f0 = model.F0
    f_grid = np.linspace(0.0, 4.0 * f0, 256)
    report = validate_assumptions(model, f_grid)
    payload = _stamp(args.config)
    payload["assumptions"] = report.checks
    payload["all_passed"] = report.all_passed
    _write_json(os.path.join(args.out, "validate.json"), payload)
    if not report.all_passed:
        print("failed assumptions: %s" % ", ".join(report.failed()),
              file=sys.stderr)
        return 1
    return 0


def _cmd_solve(args, cp):
    model = _model_from_config(cp)
    mass = _get(cp, "solve", "mass", 1.0)
    if mass <= 0:
        raise InputError("config: [solve] mass must be positive")
    ss = solve(model, mass, _solver_opts(cp))
    _write_state(args.out, "steady", ss, args.config, model)
    return 0


def _cmd_scaling(args, cp):
    model = _model_from_config(cp)
    m1 = _get(cp, "scaling", "m1", 0.5)
    m2 = _get(cp, "scaling", "m2", 1.0)
    report = scaling_inequality_check(model, m1, m2, _solver_opts(cp))
    payload = _stamp(args.config)
    payload["scaling"] = report
    _write_json(os.path.join(args.out, "scaling.json"), payload)
    return 0 if (report["holds"] and report["proof_holds"]) else 1


def _cmd_split(args, cp):
    model = _model_from_config(cp)
    radius = _get(cp, "split", "radius", None)
    fraction = _get(cp, "split", "radius_fraction", 0.5)
    c_const = _get(cp, "split", "c", None)
    ss = _state_for(cp, args, model, args.out)
    if radius is None:
        radius = fraction * ss.support_radius
    report = split_diagnostic(ss, radius, C=c_const)
    payload = _stamp(args.config, grid=ss.grid)
    payload["split"] = report
    _write_json(os.path.join(args.out, "split.json"), payload)
    if "bound_holds" in report and not report["bound_holds"]:
        return 1
    return 0


def _cmd_evolve(args, cp):
    model = _model_from_config(cp)
    seed = args.seed if args.seed is not None else _get(cp, "evolve", "seed", 0, int)
    n_particles = _get(cp, "evolve", "n_particles", 100000, int)
    dt_over_tdyn = _get(cp, "evolve", "dt_over_tdyn", 0.01)
    t_end_over_tdyn = _get(cp, "evolve", "t_end_over_tdyn", 1.0)
    output_every = _get(cp, "evolve", "output_every", 50, int)
    perturbation = _get(cp, "evolve", "perturbation", "none", str)
    delta = _get(cp, "evolve", "delta", 0.0)
    # refuse a bad seed, perturbation or run before _state_for writes
    _rng(seed)
    _check_perturbation(perturbation, delta)
    cfg = SimConfig(n_particles=n_particles, dt=dt_over_tdyn,
                    t_end=t_end_over_tdyn, seed=seed, output_every=output_every)
    ss = _state_for(cp, args, model, args.out)
    t_dyn = ss.dynamical_time()
    cfg = replace(cfg, dt=cfg.dt * t_dyn, t_end=cfg.t_end * t_dyn)
    out = run(ss, cfg, perturbation=perturbation, delta=delta, model=model)

    rows = out["rows"]
    ens = out["ensemble"]
    cols = ["t", "e_kin", "e_pot", "casimir", "D", "d_dist", "epot_diff",
            "L3", "max_r"]
    write_csv(os.path.join(args.out, "timeseries.csv"),
              {"version": __version__, "seed": cfg.seed,
               "grid_hash": ss.grid.content_hash()},
              cols, [[row[c] for row in rows] for c in cols])
    write_csv(os.path.join(args.out, "snapshot.csv"),
              {"seed": cfg.seed, "N": ens.n, "dt": "%.17g" % cfg.dt,
               "method": cfg.method},
              ("x1", "x2", "v1", "v2", "w"),
              (*ens.positions.T, *ens.velocities.T, ens.weights))

    payload = _stamp(args.config, seed=cfg.seed, grid=ss.grid)
    payload["t_dyn"] = t_dyn
    payload.update((k, out[k]) for k in ("eps_mc", "escaped", "d_drift",
                                         "l3_drift", "checks"))
    _write_json(os.path.join(args.out, "evolve.json"), payload)
    return 0 if all(c["pass"] for c in out["checks"]) else 1


def _cmd_potential_table(args, cp):
    rho = RadialProfile.from_csv(_get(cp, "table", "density", type_=str),
                                 nonnegative=True)
    U = potential_from_density(rho)
    write_csv(os.path.join(args.out, "potential.csv"),
              {"version": __version__, "grid_hash": rho.grid.content_hash()},
              ("r", "U"), (rho.grid.nodes, U.values))
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "scaling": _cmd_scaling,
    "split": _cmd_split,
    "evolve": _cmd_evolve,
    "potential-table": _cmd_potential_table,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="flatsteady",
        description="Flat steady states of the Vlasov-Poisson system: "
                    "construction, functional checks, and stability probes.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="INI config path")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored: the particle maps use one "
                             "thread per CPU in the process's affinity set, and "
                             "outputs do not depend on the thread count")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed override")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        os.makedirs(args.out, exist_ok=True)
        cp = _load_config(args.config)
        return _COMMANDS[args.command](args, cp)
    except InputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FlatSteadyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
