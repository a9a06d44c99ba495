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


def _f_cubed_table():
    f = np.linspace(0.0, 6.0, 200)
    return "".join("%.17g,%.17g\n" % (x, x ** 3) for x in f)


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
], ids=["polytrope-mu", "double-power-c1", "custom-concave"])
def test_bad_model_parameter_is_usage_error(tmp_path, capsys, model_lines, table):
    if table is not None:
        (tmp_path / "table.csv").write_text(table)
        model_lines += "table = %s\n" % (tmp_path / "table.csv")
    cfg = _write_config(tmp_path / "bad.ini", "[model]\n" + model_lines)
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


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
    ("[split]", "[split]\nmass = 2.0"),
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


@pytest.mark.parametrize("key,value", [
    ("E0", None), ("mass", "1.0"), ("residual", float("nan")),
    ("support_radius", True), ("iterations", 2.5),
])
def test_state_sidecar_with_a_non_number_fails(solved_dir, tmp_path, capsys,
                                               key, value):
    side = json.loads((solved_dir[0] / "steady.json").read_text())
    side[key] = value
    assert _run_with_sidecar(solved_dir, tmp_path, json.dumps(side)) == 1
    assert f"has {key} = {json.dumps(value)}; " in capsys.readouterr().err
    assert not (tmp_path / "split.json").exists()


def test_evolve_on_a_sidecar_with_a_null_e0_fails(solved_dir, tmp_path, capsys):
    side = json.loads((solved_dir[0] / "steady.json").read_text())
    side["E0"] = None
    assert _run_with_sidecar(solved_dir, tmp_path, json.dumps(side),
                             command="evolve") == 1
    assert "has E0 = null; " in capsys.readouterr().err
    assert not (tmp_path / "evolve.json").exists()
    assert not (tmp_path / "timeseries.csv").exists()


@pytest.mark.parametrize("lines", [
    "perturbation = none\ndelta = 0.1", "perturbation = squeeze",
    "perturbation = squeeze\ndelta = 0.1",
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
