import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fkpplab
from fkpplab import cli, studies
from fkpplab.config import SCHEMA, SHAPE_KEYS, body_from_config, load_config
from fkpplab.errors import ConfigurationError
from fkpplab.reporting import ExperimentReport, config_hash
from fkpplab.studies import run_wave_study

SPEED_INI = """\
[geometry]
shape = interval
a = -0.5
b = 0.5

[initial]
variant = compact
amplitude = 0.9
width = 0.25

[solver]
t_end = 0.5

[study]
epsilons = 0.04, 0.02
"""

WAVE_INI = """\
[wave]
speeds = 2.0, 2.5
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_config_rejects_unknown_keys(tmp_path):
    path = _write(tmp_path, "bad.ini", "[study]\nbogus = 1\n")
    with pytest.raises(ConfigurationError, match="unknown key"):
        load_config(path)


def test_config_rejects_unknown_section(tmp_path):
    path = _write(tmp_path, "bad.ini", "[nonsense]\nx = 1\n")
    with pytest.raises(ConfigurationError, match="unknown config section"):
        load_config(path)


def test_config_rejects_bad_value(tmp_path):
    path = _write(tmp_path, "bad.ini", "[solver]\nt_end = soon\n")
    with pytest.raises(ConfigurationError, match="bad value"):
        load_config(path)


MALFORMED = {
    "duplicate_option": ("speed", "[geometry]\nshape = interval\nshape = ball\n",
                         "option 'shape' in section 'geometry' already exists"),
    "duplicate_section": ("speed", "[solver]\nt_end = 1\n\n[solver]\nt_end = 2\n",
                          "section 'solver' already exists"),
    "no_section_header": ("speed", "t_end = 1\n\n[solver]\n",
                          "no section headers"),
    "percent": ("speed", "[solver]\nt_end = 5%\n", "'%' must be followed"),
    "speeds_nan": ("wave", "[wave]\nspeeds = nan\n",
                   "non-finite value for [wave] speeds"),
    "speeds_inf": ("wave", "[wave]\nspeeds = 2.0, inf\n",
                   "non-finite value for [wave] speeds"),
    "t_end_nan": ("barriers", "[solver]\nt_end = nan\n",
                  "non-finite value for [solver] t_end"),
    "epsilons_nan": ("speed", "[study]\nepsilons = 0.04, nan\n",
                     "non-finite value for [study] epsilons"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_cli_malformed_config_is_a_configuration_error(tmp_path, capsys, case):
    command, text, reason = MALFORMED[case]
    ini = _write(tmp_path, "cfg.ini", text)
    assert cli.main([command, "--config", ini, "--out", str(tmp_path / "o")]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"fkpplab {command}: configuration error: ")
    assert reason in line


def test_config_missing_file():
    with pytest.raises(ConfigurationError, match="not found"):
        load_config("/nonexistent/nowhere.ini")


def test_config_parses_lists_and_scalars(tmp_path):
    path = _write(tmp_path, "ok.ini", SPEED_INI)
    cfg = load_config(path)
    assert cfg["study"]["epsilons"] == (0.04, 0.02)
    assert cfg["solver"]["t_end"] == 0.5
    assert cfg["geometry"]["shape"] == "interval"


def test_report_csv_deterministic(tmp_path):
    rep = run_wave_study(speeds=(2.5,))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rep.metadata["config_hash"] = config_hash({"speeds": (2.5,)})
    rep.write_csv(p1)
    rep2 = run_wave_study(speeds=(2.5,))
    rep2.metadata["config_hash"] = config_hash({"speeds": (2.5,)})
    rep2.write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_report_hash_distinguishes_configs():
    h1 = config_hash({"epsilons": (0.04, 0.02), "t_end": 1.0})
    h2 = config_hash({"epsilons": (0.04, 0.02), "t_end": 2.0})
    assert h1 != h2
    assert h1 == config_hash({"t_end": 1.0, "epsilons": (0.04, 0.02)})


def test_report_rows_sorted_by_decreasing_epsilon(tmp_path):
    path = _write(tmp_path, "speed.ini", SPEED_INI)
    rc = cli.main(["speed", "--config", path, "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
    data = [l for l in lines if l and not l.startswith("#") and l[0].isdigit()]
    eps = [float(l.split(",")[0]) for l in data]
    assert eps == sorted(eps, reverse=True)


def test_cli_wave_roundtrip(tmp_path):
    path = _write(tmp_path, "wave.ini", WAVE_INI)
    out = tmp_path / "wave_out"
    rc = cli.main(["wave", "--config", path, "--out", str(out), "--svg"])
    assert rc == 0
    assert (out / "report.csv").exists()
    assert (out / "wave_c2.csv").exists()
    assert (out / "wave_c2.svg").exists()
    svg = (out / "wave_c2.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_cli_usage_errors(tmp_path):
    assert cli.main(["speed", "--config", "/no/such.ini",
                     "--out", str(tmp_path)]) == 1
    single = _write(tmp_path, "single.ini", "[study]\nepsilons = 0.04\n")
    assert cli.main(["speed", "--config", single, "--out", str(tmp_path)]) == 1
    bad = _write(tmp_path, "bad.ini", "[study]\nbogus = 1\n")
    assert cli.main(["speed", "--config", bad, "--out", str(tmp_path)]) == 1


def test_cli_check_failure_exit_code(tmp_path):
    # an impossible ordering tolerance forces a failing verdict (exit 2)
    ini = _write(tmp_path, "barriers.ini",
                 "[kinetics]\nepsilon = 0.02\n\n[study]\nordering_tol = -1.0\n")
    rc = cli.main(["barriers", "--config", ini, "--out", str(tmp_path / "o")])
    assert rc == 2


SIMULATE_INI = """\
[kinetics]
epsilon = 0.1

[geometry]
shape = interval
a = -0.5
b = 0.5

[initial]
variant = compact
amplitude = 0.9
width = 0.25

[solver]
mode = line
t_end = 0.2
checkpoints = 0.1, 0.2
"""


ALGEBRAIC_INI = """\
[kinetics]
epsilon = 0.1

[initial]
variant = algebraic
m = 0.5
n = 2.0

[solver]
mode = radial
t_end = 0.2
"""


def _add(ini, section, line):
    """ini with `line` added at the top of [section]."""
    return ini.replace(f"[{section}]\n", f"[{section}]\n{line}\n")


# command, config, the key it must reject
REJECTED = {
    "wave_fit_window": ("wave", WAVE_INI + "\n[study]\nfit_window = 0.2\n",
                        "fit_window"),
    "speed_mode": ("speed", _add(SPEED_INI, "solver", "mode = line"), "mode"),
    "speed_epsilon": ("speed", SPEED_INI + "\n[kinetics]\nepsilon = 0.02\n",
                      "epsilon"),
    "speed_interval_radius": ("speed", _add(SPEED_INI, "geometry", "radius = 0.5"),
                              "radius"),
    "thickness_algebraic": ("thickness", SPEED_INI.replace(
        "variant = compact", "variant = algebraic"), "variant"),
    "no_interface_geometry": ("no-interface", "[geometry]\nshape = ball\n\n"
                              "[study]\nepsilons = 0.04, 0.02\n", "shape"),
    "simulate_unknown_mode": ("simulate", SIMULATE_INI.replace(
        "mode = line", "mode = lines"), "mode"),
    "simulate_algebraic_plane": ("simulate", ALGEBRAIC_INI.replace(
        "mode = radial", "mode = plane"), "mode"),
    "d0": ("speed", _add(SPEED_INI, "geometry", "d0 = 0.1"), "d0"),
    "dt": ("simulate", _add(SIMULATE_INI, "solver", "dt = 0.001"), "dt"),
    "cap": ("simulate", _add(ALGEBRAIC_INI, "initial", "cap = 0.5"), "cap"),
    "k": ("generation", _add(SPEED_INI, "study", "k = 3.0"), "k"),
    # the barrier study builds KineticsParams(epsilon) and nothing else
    "cutoff_inner": ("barriers", "[kinetics]\nepsilon = 0.02\ncutoff_inner = 0.2\n",
                     "cutoff_inner"),
    "cutoff_outer": ("barriers", "[kinetics]\nepsilon = 0.02\ncutoff_outer = 0.2\n",
                     "cutoff_outer"),
    # the wave tables are shot at one step and span
    "wave_dz": ("wave", WAVE_INI + "dz = 5e-4\n", "dz"),
    "wave_z_span": ("wave", WAVE_INI + "z_span = 60\n", "z_span"),
    # only a radial grid has a dimension to read
    "simulate_line_dim": ("simulate", _add(SIMULATE_INI, "solver", "dim = 7"), "dim"),
    "simulate_plane_dim": ("simulate", _add(SIMULATE_INI.replace(
        "mode = line", "mode = plane"), "solver", "dim = 2"), "dim"),
    # without a tail there is no tail rate to read
    "simulate_tail_lambda_without_cap": ("simulate", _add(
        SIMULATE_INI, "initial", "tail_lambda = 1.5"), "tail_lambda"),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_cli_rejects_keys_the_command_does_not_read(tmp_path, capsys, case):
    command, text, key = REJECTED[case]
    ini = _write(tmp_path, "cfg.ini", text)
    assert cli.main([command, "--config", ini, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert re.search(rf"\b{key}\b", err) and f"fkpplab {command}" in err


def test_cli_rejects_radial_dimension_above_3(tmp_path, capsys):
    # from N = 4 the radial step no longer preserves order
    ini = _write(tmp_path, "cfg.ini", "[solver]\ndim = 4\n")
    assert cli.main(["no-interface", "--config", ini,
                     "--out", str(tmp_path / "o")]) == 1
    assert "N = 2 or 3" in capsys.readouterr().err


def test_every_schema_key_is_read_by_a_command():
    read = set()
    for readings in cli.COMMANDS.values():
        for reading in readings:
            read |= set(reading.keys) | set(reading.only)
            if reading.body:
                read |= {f"geometry.{key}" for keys in SHAPE_KEYS.values()
                         for key in ("shape",) + keys}
    assert read == {f"{section}.{key}" for section, keys in SCHEMA.items()
                    for key in keys}


class _Captured(Exception):
    pass


def _simulated(tmp_path, monkeypatch, ini):
    """The SimConfig `simulate` hands to run() for the config file ini."""
    handed = []

    def capture(sim):
        handed.append(sim)
        raise _Captured

    monkeypatch.setattr(cli, "run", capture)
    with pytest.raises(_Captured):
        cli.main(["simulate", "--config", ini, "--out", str(tmp_path / "o")])
    (sim,) = handed
    return sim


@pytest.mark.parametrize("extent", (0.0, 3.0))
@pytest.mark.parametrize("mode, geometry", (
    ("line", "shape = interval\na = -0.4\nb = 0.6"),
    ("radial", "shape = ball\ncenter = 0, 0\nradius = 0.5"),
    ("plane", "shape = ellipse\ncenter = 0, 0\nsemi_axes = 0.6, 0.35"),
))
def test_simulate_runs_the_compact_family_config(tmp_path, monkeypatch, mode,
                                                 geometry, extent):
    ini = _write(tmp_path, "sim.ini",
                 f"[kinetics]\nepsilon = 0.1\n\n[geometry]\n{geometry}\n\n"
                 f"[initial]\namplitude = 0.8\nwidth = 0.2\n\n"
                 f"[solver]\nmode = {mode}\nt_end = 0.2\nextent = {extent}\n")
    sim = _simulated(tmp_path, monkeypatch, ini)
    family = studies.compact_family_config(
        0.1, body_from_config(load_config(ini)), 0.8, 0.2, 0.2, mode, 2,
        min_reach=extent)
    assert sim == family
    assert sim.grid.extents[0][1] >= extent


def test_simulate_tail_rate_defaults_to_one(tmp_path, monkeypatch):
    ini = _write(tmp_path, "sim.ini", _add(SIMULATE_INI, "initial", "tail_cap = 0.3"))
    assert _simulated(tmp_path, monkeypatch, ini).initial.tail == (1.0, 0.3)


def test_cli_svg_only_for_commands_that_plot(tmp_path, capsys):
    ini = _write(tmp_path, "sim.ini", SIMULATE_INI)
    with pytest.raises(SystemExit) as info:
        cli.main(["simulate", "--config", ini, "--out", str(tmp_path / "o"),
                  "--svg"])
    assert info.value.code == 1
    assert "--svg" in capsys.readouterr().err


def test_cli_simulate_dumps_checkpoints(tmp_path):
    ini = _write(tmp_path, "sim.ini", SIMULATE_INI)
    out = tmp_path / "sim_out"
    rc = cli.main(["simulate", "--config", ini, "--out", str(out)])
    assert rc == 0
    assert (out / "checkpoint_t0.1.csv").exists()
    assert (out / "checkpoint_t0.2.csv").exists()
    header = (out / "checkpoint_t0.2.csv").read_text().splitlines()[0]
    assert header.startswith("# t=")


def test_cli_blow_up_exit_code(tmp_path, blow_up, capsys):
    ini = _write(tmp_path, "sim.ini", SIMULATE_INI)
    rc = cli.main(["simulate", "--config", ini, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert re.fullmatch(
        f"fkpplab simulate: numerical error: solution lost finiteness "
        f"at step {blow_up}, near t=[0-9.e-]+\n", capsys.readouterr().err)


def test_cli_sup_bound_exit_code(tmp_path, set_node, capsys):
    ini = _write(tmp_path, "sim.ini", SIMULATE_INI)
    set_node(1.5)
    rc = cli.main(["simulate", "--config", ini, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert capsys.readouterr().err == (
        "fkpplab simulate: numerical error: sup-norm bound violated\n")


@pytest.mark.parametrize("command", ("speed", "barriers", "simulate"))
@pytest.mark.parametrize("geometry, message", (
    ("shape = interval", "a is required for shape interval"),
    ("shape = interval\na = -2.4", "b is required for shape interval"),
    ("shape = ball\ncenter = 0, 0", "radius is required for shape ball"),
    ("shape = ellipse\nsemi_axes = 0.6, 0.35",
     "center is required for shape ellipse"),
    ("a = -2.4\nb = 2.4", "shape is required"),
))
def test_cli_geometry_gives_every_key_of_its_shape(tmp_path, capsys, command,
                                                   geometry, message):
    # no key is filled in from a default body, which could differ from the
    # command's own: the barrier check's default interval is (-2.4, 2.4)
    ini = _write(tmp_path, "cfg.ini", f"[geometry]\n{geometry}\n")
    assert cli.main([command, "--config", ini, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"fkpplab {command}: configuration error: [geometry] {message}\n")


def test_svg_emitter_log_axes(tmp_path):
    from fkpplab.svgplot import line_plot

    path = tmp_path / "p.svg"
    line_plot(path, [([0.01, 0.1, 1.0], [1e-4, 1e-2, 1.0], "series")],
              title="t", xlabel="x", ylabel="y", logx=True, logy=True)
    text = path.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")


def test_report_summary_and_passed_flag():
    rep = ExperimentReport("demo", columns=("a",))
    rep.add_check("ok", True)
    assert rep.passed
    rep.add_check("broken", False, "detail")
    assert not rep.passed
    lines = list(rep.summary_lines())
    assert any("FAIL" in l and "broken" in l for l in lines)


@pytest.fixture
def empty_study_caches():
    """The study caches emptied before the test and again after it, so no
    stub's entries outlive it."""
    for cache in (studies._run, studies._wave):
        cache.cache_clear()
    yield
    for cache in (studies._run, studies._wave):
        cache.cache_clear()


def test_study_caches_evict_least_recently_used(monkeypatch, empty_study_caches):
    built = []
    monkeypatch.setattr(studies, "run", lambda cfg: built.append(cfg) or cfg)
    for key in range(studies.CACHE_SIZE):
        studies.cached_run(key)
    studies.cached_run(0)  # a hit: key 1 is now the least recently used
    studies.cached_run(studies.CACHE_SIZE)  # one past the cap
    assert studies._run.cache_info().currsize == studies.CACHE_SIZE
    assert len(built) == studies.CACHE_SIZE + 1
    studies.cached_run(0)  # still held, so not built again
    assert len(built) == studies.CACHE_SIZE + 1
    studies.cached_run(1)  # evicted, so built again, which evicts key 2
    assert built[-1] == 1 and len(built) == studies.CACHE_SIZE + 2
    studies.cached_run(2)
    assert built[-1] == 2

    solved = []
    monkeypatch.setattr(studies, "solve_wave", lambda c: solved.append(c) or c)
    for c in range(studies.CACHE_SIZE + 1):
        studies.cached_wave(2.0 + c)
    assert studies._wave.cache_info().currsize == studies.CACHE_SIZE
    studies.cached_wave(2.0)  # evicted, so solved again
    assert solved == [2.0 + c for c in range(studies.CACHE_SIZE + 1)] + [2.0]


ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in ROOT.glob("src/fkpplab/*.py") if p.name != "__init__.py")
# Callers: the package (bar the exports), the demos and the benchmark's
# workloads; tests are not callers.
CALLERS = MODULES + sorted(ROOT.glob("demos/*.py")) + [
    ROOT / "perfbench" / "workloads.py", ROOT / "perfbench" / "child.py"]


def _module_level_names(tree):
    """Every def, class and assigned name at the top level of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id


def _loaded_names(tree):
    """Every name read in a module, bare (`f`) or as an attribute (`m.f`)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def _members(path, tree):
    """(Class.member, member) for every method, property and annotated
    field of the module's classes, bar special names and overrides of a
    base class's member (cli._Parser.error), which their base calls."""
    module = importlib.import_module(f"fkpplab.{path.stem}")
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        bases = getattr(module, node.name).__mro__[1:]
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = item.name
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                name = item.target.id
            else:
                continue
            special = name.startswith("__") and name.endswith("__")
            if not special and not any(hasattr(b, name) for b in bases):
                yield f"{node.name}.{name}", name


def test_every_module_level_name_has_a_caller():
    loaded = set()
    for path in CALLERS:
        loaded.update(_loaded_names(ast.parse(path.read_text())))
    unread = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        unread += [f"{path.name}: {name}" for name in _module_level_names(tree)
                   if name not in loaded]
        unread += [f"{path.name}: {qual}" for qual, name in _members(path, tree)
                   if name not in loaded]
    assert not unread, f"defined but read by no caller: {unread}"


def test_solver_import_leaves_wave_shooting_modules_unloaded():
    """Importing the solver does not load scipy.integrate or
    scipy.interpolate, which only the wave shooting needs: checked in a
    fresh interpreter, by what it has loaded."""
    src = str(Path(fkpplab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = ("import sys, fkpplab.solver; print(sorted(m for m in sys.modules "
            "if m in ('scipy.integrate', 'scipy.interpolate')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"
