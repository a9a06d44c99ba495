import json

import numpy as np
import pytest

from flatsteady.cli import main


def _write_config(path, text):
    path.write_text(text)
    return str(path)


POLY_INI = """\
[model]
kind = polytrope
mu = 0.5
c = 57.0

[solver]
n = 192

[solve]
mass = 1.0

[scaling]
m1 = 0.5
m2 = 1.0

[split]
radius_fraction = 0.5

[evolve]
n_particles = 5000
dt_over_tdyn = 0.02
t_end_over_tdyn = 0.2
output_every = 5
seed = 4
"""


@pytest.fixture(scope="module")
def solved_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli_solve")
    cfg = _write_config(base / "poly.ini", POLY_INI)
    assert main(["solve", "--config", cfg, "--out", str(base)]) == 0
    return base, cfg


def test_solve_writes_artifacts(solved_dir):
    base, _ = solved_dir
    assert (base / "steady.csv").exists()
    side = json.loads((base / "steady.json").read_text())
    for key in ("version", "config_hash", "grid_hash", "E0", "mass",
                "support_radius", "residual", "functionals", "regularity"):
        assert key in side
    assert side["E0"] < 0.0
    assert side["mass"] == pytest.approx(1.0, abs=1e-6)
    header = (base / "steady.csv").read_text().splitlines()
    assert header[0].startswith("# version:")
    assert header[1].startswith("# grid_hash:")
    assert header[2] == "r,rho,U"


def test_validate_passes_for_polytrope(tmp_path):
    cfg = _write_config(tmp_path / "poly.ini", POLY_INI)
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "validate.json").read_text())
    assert payload["all_passed"] is True
    assert set(payload["assumptions"]) == {"Q1", "Q2", "Q3", "Q4", "Q5"}


def test_validate_fails_for_bad_growth_exponent(tmp_path):
    # mu3 above mu breaks the growth-comparison assumption
    cfg = _write_config(tmp_path / "bad.ini",
                        "[model]\nkind = polytrope\nmu = 0.5\nmu3 = 0.8\n")
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 1
    payload = json.loads((tmp_path / "validate.json").read_text())
    assert payload["all_passed"] is False
    assert payload["assumptions"]["Q3"]["passed"] is False


def test_missing_mu_is_usage_error(tmp_path):
    cfg = _write_config(tmp_path / "bad.ini", "[model]\nkind = polytrope\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_nonpositive_mass_is_usage_error(tmp_path):
    cfg = _write_config(tmp_path / "bad.ini",
                        "[model]\nkind = polytrope\nmu = 0.5\n"
                        "[solve]\nmass = -1\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("mass", ["0", "nan", "inf"])
@pytest.mark.parametrize("command,reuse", [
    ("solve", False), ("split", False), ("split", True), ("evolve", False),
    ("evolve", True)])
def test_mass_that_is_not_finite_and_positive_is_usage_error(
        solved_dir, tmp_path, capsys, command, reuse, mass):
    # split and evolve read [solve] mass too, also when they reuse a state
    # (a NaN mass passed the reuse check, abs(nan - m) > tol being false)
    ini = POLY_INI.replace("mass = 1.0", "mass = " + mass)
    if reuse:
        ini = ini.replace(f"[{command}]", f"[{command}]\nstate = %s"
                          % (solved_dir[0] / "steady"))
    cfg = _write_config(tmp_path / "bad.ini", ini)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "[solve] mass must be finite and positive" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_missing_config_is_usage_error(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path)]) == 2


def test_unknown_command_is_usage_error(tmp_path, capsys):
    cfg = _write_config(tmp_path / "poly.ini", POLY_INI)
    assert main(["explode", "--config", cfg]) == 2
    capsys.readouterr()


def test_scaling_command(tmp_path):
    cfg = _write_config(tmp_path / "scaling.ini",
                        "[model]\nkind = polytrope\nmu = 0.75\nmu3 = 0.5\n"
                        "[solver]\nn = 192\n"
                        "[scaling]\nm1 = 0.5\nm2 = 1.0\n")
    assert main(["scaling", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "scaling.json").read_text())
    assert payload["scaling"]["holds"] is True
    assert payload["scaling"]["proof_holds"] is True
    assert payload["scaling"]["margin"] > 0.0


def test_split_reuses_state_artifact(solved_dir, tmp_path):
    base, _ = solved_dir
    ini = POLY_INI.replace(
        "[split]", "[split]\nstate = %s" % (base / "steady"))
    cfg = _write_config(tmp_path / "split.ini", ini)
    assert main(["split", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "split.json").read_text())
    assert payload["split"]["interior_mass"] + \
        payload["split"]["exterior_mass"] == pytest.approx(1.0, abs=1e-6)
    # the artifact was reused, so no new steady.csv in this directory
    assert not (tmp_path / "steady.csv").exists()


def test_stale_state_artifact_fails(solved_dir, tmp_path):
    base, _ = solved_dir
    lines = (base / "steady.csv").read_text().splitlines()
    row = lines[4].split(",")
    row[0] = "%.17g" % (float(row[0]) * 1.001 + 1e-9)
    lines[4] = ",".join(row)
    stale = tmp_path / "stale"
    stale.mkdir()
    (stale / "tampered.csv").write_text("\n".join(lines) + "\n")
    (stale / "tampered.json").write_text((base / "steady.json").read_text())
    ini = ("[model]\nkind = polytrope\nmu = 0.5\nc = 57.0\n"
           "[split]\nstate = %s\n" % (stale / "tampered"))
    cfg = _write_config(tmp_path / "split.ini", ini)
    assert main(["split", "--config", cfg, "--out", str(tmp_path)]) == 1


def test_evolve_artifacts_and_determinism(solved_dir, tmp_path):
    base, _ = solved_dir
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    ini_evolve = POLY_INI.replace(
        "[evolve]", "[evolve]\nstate = %s" % (base / "steady"))
    cfg = _write_config(tmp_path / "evolve.ini", ini_evolve)
    rc1 = main(["evolve", "--config", cfg, "--out", str(out1)])
    rc2 = main(["evolve", "--config", cfg, "--out", str(out2), "--threads",
                "4"])
    assert rc1 == rc2
    for name in ("timeseries.csv", "snapshot.csv", "evolve.json"):
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2, name
    payload = json.loads((out1 / "evolve.json").read_text())
    for key in ("t_dyn", "eps_mc", "escaped", "d_drift", "l3_drift",
                "checks", "seed", "grid_hash"):
        assert key in payload
    header = (out1 / "timeseries.csv").read_text().splitlines()
    assert header[3].startswith("t,e_kin,e_pot,")


def test_evolve_seed_override_changes_output(solved_dir, tmp_path):
    base, _ = solved_dir
    ini_evolve = POLY_INI.replace(
        "[evolve]", "[evolve]\nstate = %s" % (base / "steady"))
    cfg = _write_config(tmp_path / "evolve.ini", ini_evolve)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    main(["evolve", "--config", cfg, "--out", str(out1)])
    main(["evolve", "--config", cfg, "--out", str(out2), "--seed", "99"])
    assert (out1 / "snapshot.csv").read_bytes() != \
        (out2 / "snapshot.csv").read_bytes()
    assert json.loads((out2 / "evolve.json").read_text())["seed"] == 99


@pytest.mark.parametrize("where", ["flag", "config", "unsolved"])
def test_evolve_rejects_a_negative_seed(solved_dir, tmp_path, capsys, where):
    base, _ = solved_dir
    ini = POLY_INI
    # with no state artifact, evolve would solve first and write steady.csv
    # and steady.json unless it checks the seed before
    if where != "unsolved":
        ini = ini.replace("[evolve]", "[evolve]\nstate = %s" % (base / "steady"))
    flag = ["--seed", "-1"] if where == "flag" else []
    if where != "flag":
        ini = ini.replace("seed = 4", "seed = -1")
    cfg = _write_config(tmp_path / "evolve.ini", ini)
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out), *flag]) == 2
    assert "seed -1 is not a non-negative integer" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_potential_table_roundtrip(tmp_path):
    from flatsteady import RadialGrid, RadialProfile
    from flatsteady.grids import write_csv
    grid = RadialGrid.hybrid(5.0, 50.0, 128)
    r = grid.nodes
    prof = RadialProfile(grid, 1.0 / (2.0 * np.pi * (r ** 2 + 1.0) ** 1.5),
                         require_nonnegative=True)
    src = tmp_path / "density.csv"
    write_csv(src, {}, ("r", "value"), (grid.nodes, prof.values))
    cfg = _write_config(tmp_path / "table.ini",
                        "[model]\nkind = polytrope\nmu = 0.5\n"
                        "[table]\ndensity = %s\n" % src)
    assert main(["potential-table", "--config", cfg,
                 "--out", str(tmp_path)]) == 0
    data = np.loadtxt(tmp_path / "potential.csv", delimiter=",", comments="#",
                      skiprows=3)
    # Kuzmin disc: U = -1/sqrt(1 + r^2)
    exact = -1.0 / np.sqrt(1.0 + data[:, 0] ** 2)
    sel = data[:, 0] <= 5.0
    assert np.max(np.abs(data[sel, 1] - exact[sel])) < 1e-3


@pytest.mark.parametrize("command,old,new", [
    ("solve", "mass = 1.0", "mass = heavy"),
    ("scaling", "m1 = 0.5", "m1 = light"),
    ("split", "radius_fraction = 0.5", "radius = xyz"),
    ("evolve", "n_particles = 5000", "n_particles = abc"),
])
def test_non_numeric_value_is_usage_error(tmp_path, command, old, new):
    cfg = _write_config(tmp_path / "bad.ini", POLY_INI.replace(old, new))
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    # the value is read before any solve
    assert not (tmp_path / "steady.csv").exists()


@pytest.mark.parametrize("old,new,named", [
    ("n_particles = 5000", "n_partciles = 10", "'n_partciles' in [evolve]"),
    ("n = 192", "n = 192\ndamping = 0.3", "'damping' in [solver]"),
    ("[split]", "[splitt]", "[splitt]"),
    ("[model]", "[DEFAULT]\nmass = 1.0\n[model]", "[DEFAULT]"),
    # the grid force is the only force, so neither key names an option
    ("n_particles = 5000", "n_particles = 5000\nmethod = direct",
     "'method' in [evolve]"),
    ("n_particles = 5000", "n_particles = 5000\neps_soft = 0.01",
     "'eps_soft' in [evolve]"),
])
def test_unknown_config_key_is_usage_error(tmp_path, capsys, old, new, named):
    cfg = _write_config(tmp_path / "bad.ini", POLY_INI.replace(old, new))
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "validate.json").exists()


def test_solve_past_float64_exits_1(tmp_path, capsys):
    cfg = _write_config(tmp_path / "edge.ini",
                        "[model]\nkind = polytrope\nmu = 0.999\n[solver]\nn = 128\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "float64" in capsys.readouterr().err
    assert not (tmp_path / "steady.json").exists()


def test_malformed_config_is_usage_error(tmp_path):
    cfg = _write_config(tmp_path / "bad.ini", POLY_INI + "mass = 2.0\n[solve]\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2


def _custom_ini(tmp_path, table_text, model_lines):
    table = tmp_path / "table.csv"
    if table_text is not None:
        table.write_text(table_text)
    return _write_config(tmp_path / "custom.ini",
                         "[model]\nkind = custom\ntable = %s\n%s" % (table, model_lines))


def _f_cubed_table(column=None, bad=None):
    """The rows of the f^3 table, with entry 100 of ``column`` set to ``bad``
    if one is given."""
    rows = [[x, x ** 3] for x in np.linspace(0.0, 6.0, 200)]
    if column is not None:
        rows[100]["fQ".index(column)] = bad
    return "".join("%.17g,%.17g\n" % tuple(row) for row in rows)


def test_custom_without_mu1_is_usage_error(tmp_path):
    cfg = _custom_ini(tmp_path, "f,Q\n" + _f_cubed_table(), "mu2 = 0.5\nmu3 = 0.5\n")
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_missing_custom_table_is_usage_error(tmp_path):
    cfg = _custom_ini(tmp_path, None, "mu1 = 0.5\nmu2 = 0.5\nmu3 = 0.5\n")
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_custom_table_with_comment_before_header(tmp_path):
    cfg = _custom_ini(tmp_path, "# Q = f^3\nf,Q\n" + _f_cubed_table(),
                      "mu1 = 0.5\nmu2 = 0.5\nmu3 = 0.5\n")
    # the table is read (at 200 nodes Q1-Q3 and Q5 miss between the nodes)
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 1
    payload = json.loads((tmp_path / "validate.json").read_text())
    assert payload["assumptions"]["Q4"]["passed"] is True


def _concave_table():
    f = np.linspace(0.0, 4.0, 200)
    Q = np.where(f < 2.0, f ** 3, 8.0 + 12.0 * (f - 2.0) - 0.1 * (f - 2.0) ** 2)
    return "f,Q\n" + "".join("%.17g,%.17g\n" % pair for pair in zip(f, Q))


@pytest.mark.parametrize("model_lines,table", [
    ("kind = polytrope\nmu = 1.5\n", None),
    ("kind = double_power\nmu1 = 0.5\nmu2 = 0.75\nc1 = -1\nc2 = 1\n", None),
    ("kind = custom\nmu1 = 0.5\nmu2 = 0.5\nmu3 = 0.5\n", _concave_table()),
    ("kind = polytrope\nmu = 0.5\nf0 = -1.0\n", None),
    ("kind = double_power\nmu1 = 0.5\nmu2 = 0.75\nc1 = 1\nc2 = 1\n"
     "f0 = -1.0\n", None),
    ("kind = polytrope\nmu = 0.5\nf0 = 0\n", None),
    # non-finite numbers: validate exited 1 on the first two, and scipy's
    # interpolator raised a bare ValueError on the tables
    ("kind = polytrope\nmu = 0.5\nc = nan\n", None),
    ("kind = double_power\nmu1 = 0.5\nmu2 = 0.75\nc1 = inf\nc2 = 1\n", None),
    ("kind = custom\nmu1 = 0.5\nmu2 = 0.5\nmu3 = 0.5\n",
     "f,Q\n" + _f_cubed_table("f", np.nan)),
    ("kind = custom\nmu1 = 0.5\nmu2 = 0.5\nmu3 = 0.5\n",
     "f,Q\n" + _f_cubed_table("Q", np.inf)),
], ids=["polytrope-mu", "double-power-c1", "custom-concave", "polytrope-f0",
        "double-power-f0", "polytrope-f0-zero", "polytrope-c-nan",
        "double-power-c1-inf", "custom-f-nan", "custom-Q-inf"])
def test_bad_model_parameter_is_usage_error(tmp_path, capsys, model_lines, table):
    if table is not None:
        (tmp_path / "table.csv").write_text(table)
        model_lines += "table = %s\n" % (tmp_path / "table.csv")
    cfg = _write_config(tmp_path / "bad.ini", "[model]\n" + model_lines)
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("model_lines,named", [
    ("kind = double_power\nmu1 = 0.5\nmu2 = 0.75\nc1 = 1\nc2 = 1\n"
     "mu = 0.3\nmu3 = 0.1\n", "'mu', 'mu3'"),
    ("kind = polytrope\nmu = 0.5\nc2 = 1\n", "'c2'"),
    ("kind = polytrope\nmu = 0.5\ntable = q.csv\n", "'table'"),
    ("kind = custom\ntable = q.csv\nmu1 = 0.5\nmu2 = 0.5\nmu3 = 0.5\n"
     "c = 2\n", "'c'"),
], ids=["double-power-mu", "polytrope-c2", "polytrope-table", "custom-c"])
def test_model_key_of_another_kind_is_usage_error(tmp_path, capsys,
                                                  model_lines, named):
    cfg = _write_config(tmp_path / "bad.ini", "[model]\n" + model_lines)
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "validate.json").exists()


@pytest.mark.parametrize("old,new", [
    ("mass = 1.0", "mass = 2.0"),
    ("n = 192", "n = 384"),
], ids=["mass", "n"])
def test_state_artifact_of_another_mass_or_size_fails(solved_dir, tmp_path,
                                                     capsys, old, new):
    base, _ = solved_dir
    ini = POLY_INI.replace(old, new).replace(
        "[split]", "[split]\nstate = %s" % (base / "steady"))
    cfg = _write_config(tmp_path / "split.ini", ini)
    assert main(["split", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "stale artifact" in capsys.readouterr().err
    assert not (tmp_path / "split.json").exists()


def test_solve_split_and_evolve_reach_one_state(tmp_path):
    # [solve] mass is the mass of the state every command solves, and one
    # config gives one config_hash: the three steady artifacts are the same
    cfg = _write_config(tmp_path / "heavy.ini",
                        POLY_INI.replace("mass = 1.0", "mass = 2.0"))
    for command in ("solve", "split", "evolve"):
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / command)]) in (0, 1)
    for name in ("steady.csv", "steady.json"):
        blobs = [(tmp_path / c / name).read_bytes()
                 for c in ("solve", "split", "evolve")]
        assert blobs[0] == blobs[1] == blobs[2], name
    mass = json.loads((tmp_path / "solve" / "steady.json").read_text())["mass"]
    assert mass == pytest.approx(2.0, rel=1e-9)


@pytest.mark.parametrize("command", ["split", "evolve"])
def test_reused_state_of_another_mass_is_stale(solved_dir, tmp_path, capsys,
                                               command):
    base, _ = solved_dir
    ini = POLY_INI.replace("mass = 1.0", "mass = 2.0").replace(
        f"[{command}]", f"[{command}]\nstate = %s" % (base / "steady"))
    cfg = _write_config(tmp_path / "heavy.ini", ini)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert "config asks for [solve] mass = 2" in capsys.readouterr().err
    assert list(out.iterdir()) == []
    # with no [solve] mass, no mass check applies
    ini = ini.replace("[solve]\nmass = 2.0\n", "")
    cfg = _write_config(tmp_path / "any.ini", ini)
    assert main([command, "--config", cfg, "--out", str(out)]) in (0, 1)
    assert not (out / "steady.csv").exists()
    assert (out / f"{command}.json").exists()


@pytest.mark.parametrize("command", ["split", "evolve"])
def test_per_command_mass_is_usage_error(tmp_path, capsys, command):
    # the state's mass is [solve] mass alone
    ini = POLY_INI.replace(f"[{command}]", f"[{command}]\nmass = 1.0")
    cfg = _write_config(tmp_path / "old.ini", ini)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"unknown key 'mass' in [{command}]" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("lines", [
    "radius = nan", "radius = inf", "radius = 0", "radius_fraction = nan",
    "radius_fraction = -0.5", "radius_fraction = 0.5\nc = nan",
    "radius_fraction = 0.5\nc = inf",
])
def test_split_rejects_a_bad_radius_or_constant_before_solving(tmp_path, capsys,
                                                               lines):
    # a NaN radius gave a split.json with exterior mass 1 and exit 0, a NaN c
    # a NaN bound_rhs and exit 1; with no state artifact, split would solve
    # first and write steady.csv and steady.json unless it checks them before;
    # the message names the config key, not split_diagnostic's R or C
    cfg = _write_config(tmp_path / "split.ini",
                        POLY_INI.replace("radius_fraction = 0.5", lines))
    out = tmp_path / "out"
    key = lines.splitlines()[-1].split(" = ")[0]  # the bad line's key
    assert main(["split", "--config", cfg, "--out", str(out)]) == 2
    assert (f"config error: split: [split] {key} must be finite"
            in capsys.readouterr().err)
    assert list(out.iterdir()) == []


def test_split_radius_and_fraction_together_is_usage_error(tmp_path, capsys):
    # a set radius left the fraction unread, even a nan one: exit 0 and a
    # split.json; it is refused before the solve writes anything
    cfg = _write_config(tmp_path / "split.ini", POLY_INI.replace(
        "radius_fraction = 0.5", "radius = 0.5\nradius_fraction = nan"))
    out = tmp_path / "out"
    assert main(["split", "--config", cfg, "--out", str(out)]) == 2
    assert ("config error: [split] radius = 0.5 does not read "
            "'radius_fraction'" in capsys.readouterr().err)
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("ini", [
    POLY_INI + "\n[bogus]\nx = 1\n",
    POLY_INI.replace("mass = 1.0", "mass = -1.0"),
    POLY_INI.replace("kind = polytrope", "kind = plummer"),
], ids=["unknown-section", "negative-mass", "unknown-kind"])
def test_usage_error_names_config_once(tmp_path, capsys, ini):
    # main adds the "config error: " prefix; the message does not repeat it
    cfg = _write_config(tmp_path / "bad.ini", ini)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "config: " not in err[len("config error: "):]


def test_state_artifact_of_another_model_fails(solved_dir, tmp_path):
    base, _ = solved_dir
    ini = POLY_INI.replace("c = 57.0", "c = 1.0").replace(
        "[split]", "[split]\nstate = %s" % (base / "steady"))
    cfg = _write_config(tmp_path / "split.ini", ini)
    assert main(["split", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "split.json").exists()


def test_state_artifact_without_model_fails(solved_dir, tmp_path):
    side = json.loads((solved_dir[0] / "steady.json").read_text())
    assert side["model"]["terms"] == [[57.0, 0.5]]
    del side["model"]
    assert _run_with_sidecar(solved_dir, tmp_path, json.dumps(side)) == 1


def _run_with_sidecar(solved_dir, tmp_path, text, command="split"):
    """Exit code of ``command`` on the solved artifact with its sidecar
    text."""
    base, _ = solved_dir
    (tmp_path / "old.csv").write_bytes((base / "steady.csv").read_bytes())
    (tmp_path / "old.json").write_text(text)
    ini = POLY_INI.replace(f"[{command}]", "[%s]\nstate = %s"
                           % (command, tmp_path / "old"))
    cfg = _write_config(tmp_path / f"{command}.ini", ini)
    return main([command, "--config", cfg, "--out", str(tmp_path)])


def test_truncated_state_sidecar_is_usage_error(solved_dir, tmp_path, capsys):
    text = (solved_dir[0] / "steady.json").read_text()
    assert _run_with_sidecar(solved_dir, tmp_path, text[:len(text) // 2]) == 2
    assert "is not JSON" in capsys.readouterr().err
    assert not (tmp_path / "split.json").exists()


def test_state_sidecar_without_e0_fails(solved_dir, tmp_path, capsys):
    side = json.loads((solved_dir[0] / "steady.json").read_text())
    del side["E0"]
    assert _run_with_sidecar(solved_dir, tmp_path, json.dumps(side)) == 1
    assert "has no E0" in capsys.readouterr().err
    assert not (tmp_path / "split.json").exists()


@pytest.mark.parametrize("key,value", [("E0", None), ("iterations", 2.5)])
def test_state_sidecar_with_a_non_number_fails(solved_dir, tmp_path, capsys,
                                               key, value):
    side = json.loads((solved_dir[0] / "steady.json").read_text())
    side[key] = value
    assert _run_with_sidecar(solved_dir, tmp_path, json.dumps(side)) == 1
    assert f"has {key} = {json.dumps(value)}; " in capsys.readouterr().err
    assert not (tmp_path / "split.json").exists()


@pytest.mark.parametrize("key,value", [
    ("E0", 0.5), ("E0", 0.0), ("iterations", -5),
])
def test_state_sidecar_with_an_out_of_range_value_fails(solved_dir, tmp_path,
                                                        capsys, key, value):
    # finite numbers that no solved state has mark a stale artifact (exit 1),
    # not a usage error, and split writes nothing
    side = json.loads((solved_dir[0] / "steady.json").read_text())
    side[key] = value
    assert _run_with_sidecar(solved_dir, tmp_path, json.dumps(side)) == 1
    err = capsys.readouterr().err
    assert f"has {key} = {json.dumps(value)}; a solved state has" in err
    assert not (tmp_path / "split.json").exists()


def test_evolve_on_a_sidecar_with_a_null_e0_fails(solved_dir, tmp_path, capsys):
    side = json.loads((solved_dir[0] / "steady.json").read_text())
    side["E0"] = None
    assert _run_with_sidecar(solved_dir, tmp_path, json.dumps(side),
                             command="evolve") == 1
    assert "has E0 = null; " in capsys.readouterr().err
    assert not (tmp_path / "evolve.json").exists()
    assert not (tmp_path / "timeseries.csv").exists()


def test_evolve_takes_mass_and_support_from_the_density(solved_dir, tmp_path):
    # a sidecar's mass and support_radius are not read: the draws weigh the
    # density's mass, and t_dyn comes from its support
    side = json.loads((solved_dir[0] / "steady.json").read_text())
    mass, support = side["mass"], side["support_radius"]
    side.update(mass=1.25, support_radius=2.0)
    assert _run_with_sidecar(solved_dir, tmp_path, json.dumps(side),
                             command="evolve") in (0, 1)
    w = np.loadtxt(tmp_path / "snapshot.csv", delimiter=",", comments="#",
                   skiprows=5, usecols=4)
    assert w.size == 5000
    assert w.sum() == pytest.approx(mass, rel=1e-12)
    t_dyn = json.loads((tmp_path / "evolve.json").read_text())["t_dyn"]
    assert t_dyn == pytest.approx(2.0 * np.pi * np.sqrt(support ** 3 / mass),
                                  rel=1e-12)


def test_evolve_on_a_moved_e0_fails(solved_dir, tmp_path, capsys):
    # the density is no fixed point of the map at this E0: a stale pair
    side = json.loads((solved_dir[0] / "steady.json").read_text())
    side["E0"] *= 1.01
    assert _run_with_sidecar(solved_dir, tmp_path, json.dumps(side),
                             command="evolve") == 1
    assert "it is no converged state" in capsys.readouterr().err
    for name in ("timeseries.csv", "snapshot.csv", "evolve.json"):
        assert not (tmp_path / name).exists()


def test_evolve_on_an_all_zero_density_fails(solved_dir, tmp_path, capsys):
    # the residual of a zero density is inf, with no division warning (the
    # test settings make one an error)
    from flatsteady.grids import read_csv, write_csv
    base, _ = solved_dir
    r, _, U = read_csv(base / "steady.csv", ("r", "rho", "U"))
    write_csv(tmp_path / "zero.csv", {}, ("r", "rho", "U"), (r, 0.0 * r, U))
    (tmp_path / "zero.json").write_bytes((base / "steady.json").read_bytes())
    ini = POLY_INI.replace("[evolve]", "[evolve]\nstate = %s" % (tmp_path / "zero"))
    cfg = _write_config(tmp_path / "evolve.ini", ini)
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 1
    assert "has residual inf > 1.0e-06" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_evolve_on_its_own_state_reproduces_the_run(tmp_path):
    # an in-process evolve, then one that reads the steady artifact the first
    # wrote: the same draws, steps and rows, byte for byte
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    cfg = _write_config(tmp_path / "fresh.ini", POLY_INI)
    rc = main(["evolve", "--config", cfg, "--out", str(fresh)])
    ini = POLY_INI.replace("[evolve]", "[evolve]\nstate = %s" % (fresh / "steady"))
    cfg = _write_config(tmp_path / "reused.ini", ini)
    assert main(["evolve", "--config", cfg, "--out", str(reused)]) == rc
    assert not (reused / "steady.csv").exists()
    for name in ("timeseries.csv", "snapshot.csv"):
        assert (fresh / name).read_bytes() == (reused / name).read_bytes(), name
    payloads = [json.loads((d / "evolve.json").read_text()) for d in (fresh, reused)]
    assert payloads[0].pop("config_hash") != payloads[1].pop("config_hash")
    assert payloads[0] == payloads[1]


@pytest.mark.parametrize("lines", [
    "perturbation = none\ndelta = 0.1", "perturbation = squeeze",
    "perturbation = squeeze\ndelta = 0.1",
    # a NaN delta reached the draws and failed there, after steady.* were written
    "perturbation = velocity-scale\ndelta = nan",
    "perturbation = radius-scale\ndelta = inf",
])
def test_evolve_rejects_a_perturbation_that_does_nothing(tmp_path, capsys,
                                                         lines):
    # with no state artifact, evolve would solve first and write steady.csv
    # and steady.json unless it checks the perturbation before
    ini = POLY_INI.replace("[evolve]", "[evolve]\n" + lines)
    cfg = _write_config(tmp_path / "evolve.ini", ini)
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 2
    assert "perturbation" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("old,new", [
    ("n_particles = 5000", "n_particles = 0"),
    ("dt_over_tdyn = 0.02", "dt_over_tdyn = 0"),
    ("dt_over_tdyn = 0.02", "dt_over_tdyn = nan"),
    ("t_end_over_tdyn = 0.2", "t_end_over_tdyn = -1"),
    ("t_end_over_tdyn = 0.2", "t_end_over_tdyn = inf"),
    ("output_every = 5", "output_every = 0"),
])
def test_evolve_rejects_a_bad_run_setting_before_solving(tmp_path, capsys,
                                                         old, new):
    # with no state artifact, evolve would solve first and write steady.csv
    # and steady.json unless it checks the run settings before
    cfg = _write_config(tmp_path / "evolve.ini", POLY_INI.replace(old, new))
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 2
    assert "config error: SimConfig: " in capsys.readouterr().err
    assert list(out.iterdir()) == []


def _one_column(path):
    path.write_text("# one column only\nr\n0.0\n0.5\n1.0\n")
    return path


def test_one_column_density_table_is_usage_error(tmp_path, capsys):
    src = _one_column(tmp_path / "density.csv")
    cfg = _write_config(tmp_path / "table.ini",
                        "[model]\nkind = polytrope\nmu = 0.5\n"
                        "[table]\ndensity = %s\n" % src)
    assert main(["potential-table", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "expected r, value" in capsys.readouterr().err


def test_one_column_custom_table_is_usage_error(tmp_path, capsys):
    cfg = _custom_ini(tmp_path, "f\n" + "".join("%d\n" % k for k in range(200)),
                      "mu1 = 0.5\nmu2 = 0.5\nmu3 = 0.5\n")
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "expected f, Q" in capsys.readouterr().err


def test_one_column_state_artifact_is_usage_error(solved_dir, tmp_path, capsys):
    base, _ = solved_dir
    _one_column(tmp_path / "cut.csv")
    (tmp_path / "cut.json").write_bytes((base / "steady.json").read_bytes())
    ini = POLY_INI.replace("[split]", "[split]\nstate = %s" % (tmp_path / "cut"))
    cfg = _write_config(tmp_path / "split.ini", ini)
    assert main(["split", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "expected r, rho, U" in capsys.readouterr().err
    assert not (tmp_path / "split.json").exists()
