"""Command-line orchestration.

Commands: validate, solve, scaling, split, evolve, potential-table.
Configs are INI files with one section per concern ([model], [solver],
[scaling], [split], [evolve], [table]); every output embeds the tool
version, the SHA-256 of the config file, the RNG seed, and the grid hash,
so a rerun with the same inputs reproduces the bytes exactly.  Exit codes:
0 success, 1 numerical or check failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .casimir import CasimirModel, validate_assumptions
from .errors import FlatSteadyError, InputError
from .functionals import (evaluate_steady, scaling_inequality_check,
                          split_diagnostic)
from .grids import RadialGrid, RadialProfile
from .potential import potential_from_density
from .steady import SolverOptions, SteadyState, regularity_report, solve
from .simulate import SimConfig, run

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

def _load_config(path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise InputError(f"config file {path!r} not found or unreadable")
    return cp


def _model_from_config(cp: configparser.ConfigParser) -> CasimirModel:
    if "model" not in cp:
        raise InputError("config: missing [model] section")
    sec = cp["model"]
    kind = sec.get("kind", "polytrope")
    try:
        if kind == "polytrope":
            if "mu" not in sec:
                raise InputError("config: [model] polytrope needs mu")
            return CasimirModel.polytrope(
                sec.getfloat("mu"), c=sec.getfloat("c", 1.0),
                F0=sec.getfloat("f0", 1.0),
                mu3=sec.getfloat("mu3", fallback=None))
        if kind == "double_power":
            for k in ("mu1", "mu2", "c1", "c2"):
                if k not in sec:
                    raise InputError(f"config: [model] double_power needs {k}")
            return CasimirModel.double_power(
                sec.getfloat("mu1"), sec.getfloat("mu2"),
                sec.getfloat("c1"), sec.getfloat("c2"),
                F0=sec.getfloat("f0", 1.0))
        if kind == "custom":
            if "table" not in sec:
                raise InputError("config: [model] custom needs table=CSV path")
            data = np.loadtxt(sec.get("table"), delimiter=",", comments="#",
                              skiprows=1)
            return CasimirModel.custom(data[:, 0], data[:, 1],
                                       F0=sec.getfloat("f0", 1.0),
                                       mu1=sec.getfloat("mu1"),
                                       mu2=sec.getfloat("mu2"),
                                       mu3=sec.getfloat("mu3"))
    except ValueError as exc:
        raise InputError(f"config: bad [model] value ({exc})") from exc
    raise InputError(f"config: unknown model kind {kind!r}")


def _solver_opts(cp: configparser.ConfigParser) -> SolverOptions:
    if "solver" not in cp:
        return SolverOptions()
    sec = cp["solver"]
    try:
        return SolverOptions(
            damping=sec.getfloat("damping", 0.5),
            max_iters=sec.getint("max_iters", 400),
            residual_tol=sec.getfloat("residual_tol", 1e-11),
            mass_tol=sec.getfloat("mass_tol", 1e-9),
            n=sec.getint("n", 384),
            r_edge_seed=sec.getfloat("r_edge_seed", 1.0),
        )
    except ValueError as exc:
        raise InputError(f"config: bad [solver] value ({exc})") from exc


# -- steady-state artifacts ------------------------------------------------

def _write_state(out_dir, prefix, ss: SteadyState, cfg_path, model):
    csv_path = os.path.join(out_dir, prefix + ".csv")
    json_path = os.path.join(out_dir, prefix + ".json")
    with open(csv_path, "w") as fh:
        fh.write("# version: %s\n" % __version__)
        fh.write("# grid_hash: %s\n" % ss.grid.content_hash())
        fh.write("r,rho,U\n")
        for r, rho, u in zip(ss.grid.nodes, ss.rho0.values, ss.U0.values):
            fh.write("%.17g,%.17g,%.17g\n" % (r, rho, u))
    report = evaluate_steady(model, ss)
    payload = _stamp(cfg_path, grid=ss.grid)
    payload.update({
        "E0": ss.E0, "mass": ss.mass,
        "support_radius": ss.support_radius,
        "residual": ss.residual, "iterations": ss.iterations,
        "functionals": report.to_dict(),
        "regularity": regularity_report(ss),
    })
    _write_json(json_path, payload)
    return csv_path, json_path


def _read_state(prefix, model) -> SteadyState:
    csv_path = prefix + ".csv"
    json_path = prefix + ".json"
    for p in (csv_path, json_path):
        if not os.path.exists(p):
            raise InputError(f"steady-state artifact {p!r} not found")
    data = np.loadtxt(csv_path, delimiter=",", comments="#", skiprows=3)
    with open(json_path) as fh:
        side = json.load(fh)
    grid = RadialGrid(data[:, 0])
    if grid.content_hash() != side.get("grid_hash"):
        raise FlatSteadyError(
            f"stale artifact: grid hash {grid.content_hash()} does not match "
            f"sidecar {side.get('grid_hash')}")
    return SteadyState(
        model=model, E0=side["E0"], grid=grid,
        rho0=RadialProfile(grid, data[:, 1], require_nonnegative=True),
        U0=RadialProfile(grid, data[:, 2]),
        mass=side["mass"], support_radius=side["support_radius"],
        residual=side["residual"], iterations=side["iterations"],
    )


def _state_for(cp, args, model, out_dir):
    """Load the referenced artifact if configured, else solve in-process."""
    sec = cp[args.command] if args.command in cp else {}
    prefix = sec.get("state", None)
    if prefix:
        return _read_state(prefix, model)
    ss = solve(model, float(sec.get("mass", "1.0")), _solver_opts(cp))
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
    sec = cp["solve"] if "solve" in cp else {}
    mass = float(sec.get("mass", "1.0"))
    if mass <= 0:
        raise InputError("config: [solve] mass must be positive")
    ss = solve(model, mass, _solver_opts(cp))
    _write_state(args.out, "steady", ss, args.config, model)
    return 0


def _cmd_scaling(args, cp):
    model = _model_from_config(cp)
    sec = cp["scaling"] if "scaling" in cp else {}
    m1 = float(sec.get("m1", "0.5"))
    m2 = float(sec.get("m2", "1.0"))
    report = scaling_inequality_check(model, m1, m2, _solver_opts(cp))
    payload = _stamp(args.config)
    payload["scaling"] = report
    _write_json(os.path.join(args.out, "scaling.json"), payload)
    return 0 if (report["holds"] and report["proof_holds"]) else 1


def _cmd_split(args, cp):
    model = _model_from_config(cp)
    ss = _state_for(cp, args, model, args.out)
    sec = cp["split"] if "split" in cp else {}
    if "radius" in sec:
        radius = float(sec["radius"])
    else:
        radius = float(sec.get("radius_fraction", "0.5")) * ss.support_radius
    c_const = float(sec["c"]) if "c" in sec else None
    report = split_diagnostic(ss, radius, C=c_const)
    payload = _stamp(args.config, grid=ss.grid)
    payload["split"] = report
    _write_json(os.path.join(args.out, "split.json"), payload)
    if "bound_holds" in report and not report["bound_holds"]:
        return 1
    return 0


def _cmd_evolve(args, cp):
    model = _model_from_config(cp)
    ss = _state_for(cp, args, model, args.out)
    sec = cp["evolve"] if "evolve" in cp else {}
    t_dyn = ss.dynamical_time()
    seed = args.seed if args.seed is not None else int(sec.get("seed", "0"))
    cfg = SimConfig(
        n_particles=int(sec.get("n_particles", "100000")),
        dt=float(sec.get("dt_over_tdyn", "0.01")) * t_dyn,
        t_end=float(sec.get("t_end_over_tdyn", "1.0")) * t_dyn,
        method=sec.get("method", "grid"),
        eps_soft=float(sec.get("eps_soft", "0")),
        seed=seed,
        output_every=int(sec.get("output_every", "50")),
    )
    perturbation = sec.get("perturbation", "none")
    delta = float(sec.get("delta", "0"))
    out = run(ss, cfg, perturbation=perturbation, delta=delta, model=model)

    series_path = os.path.join(args.out, "timeseries.csv")
    cols = ["t", "e_kin", "e_pot", "casimir", "D", "d_dist", "epot_diff",
            "L3", "max_r"]
    with open(series_path, "w") as fh:
        fh.write("# version: %s\n# seed: %d\n# grid_hash: %s\n"
                 % (__version__, cfg.seed, ss.grid.content_hash()))
        fh.write(",".join(cols) + "\n")
        for row in out["rows"]:
            fh.write(",".join("%.17g" % row[c] for c in cols) + "\n")

    snap_path = os.path.join(args.out, "snapshot.csv")
    ens = out["ensemble"]
    with open(snap_path, "w") as fh:
        fh.write("# seed: %d\n# N: %d\n# dt: %.17g\n# method: %s\n"
                 % (cfg.seed, ens.n, cfg.dt, cfg.method))
        fh.write("x1,x2,v1,v2,w\n")
        for i in range(ens.n):
            fh.write("%.17g,%.17g,%.17g,%.17g,%.17g\n"
                     % (ens.positions[i, 0], ens.positions[i, 1],
                        ens.velocities[i, 0], ens.velocities[i, 1],
                        ens.weights[i]))

    rows = out["rows"]
    d0 = rows[0]["D"]
    l3_scale = max(ens.abs_angular_momentum(), 1e-300)
    d_drift = max(abs(r["D"] - d0) for r in rows) / max(abs(d0), 1e-300)
    l3_drift = max(abs(r["L3"] - rows[0]["L3"]) for r in rows) / l3_scale
    eps_mc = out["eps_mc"]
    d_min = min(r["d_dist"] for r in rows)
    checks = [
        {"name": "D_drift_below_1pc", "lhs": d_drift, "rhs": 0.01,
         "pass": bool(d_drift <= 0.01)},
        {"name": "L3_drift_below_1e6", "lhs": l3_drift, "rhs": 1e-6,
         "pass": bool(l3_drift <= 1e-6)},
        {"name": "d_above_minus_eps_mc", "lhs": d_min, "rhs": -eps_mc,
         "pass": bool(d_min >= -eps_mc)},
    ]
    payload = _stamp(args.config, seed=cfg.seed, grid=ss.grid)
    payload.update({
        "t_dyn": t_dyn, "eps_mc": eps_mc, "escaped": out["escaped"],
        "d_drift": d_drift, "l3_drift": l3_drift, "checks": checks,
    })
    _write_json(os.path.join(args.out, "evolve.json"), payload)
    return 0 if all(c["pass"] for c in checks) else 1


def _cmd_potential_table(args, cp):
    sec = cp["table"] if "table" in cp else {}
    src = sec.get("density", None)
    if not src:
        raise InputError("config: [table] needs density=CSV path")
    rho = RadialProfile.from_csv(src, nonnegative=True)
    U = potential_from_density(rho)
    out_path = os.path.join(args.out, "potential.csv")
    with open(out_path, "w") as fh:
        fh.write("# version: %s\n# grid_hash: %s\n"
                 % (__version__, rho.grid.content_hash()))
        fh.write("r,U\n")
        for r, u in zip(rho.grid.nodes, U.values):
            fh.write("%.17g,%.17g\n" % (r, u))
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
                        help="accepted and ignored: outputs do not depend on it; "
                             "set thread caps in the environment before launch")
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
