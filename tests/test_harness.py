import ast
import importlib
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from io import StringIO
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fkpplab
from fkpplab import cli, studies, svgplot
from fkpplab.config import SCHEMA, SHAPE_KEYS, body_from_config, load_config
from fkpplab.errors import ConfigurationError, NumericalError
from fkpplab.geometry import ConvexBody
from fkpplab.grids import Field, Grid
from fkpplab.kinetics import eps_log
from fkpplab.reporting import ExperimentReport, config_hash
from fkpplab.solver import run
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
    # an empty list would pass vacuously, or fail to plot
    "speeds_empty": ("wave", "[wave]\nspeeds =\n", "empty list for [wave] speeds"),
    # distinct speeds that would write one table, wave_c2.5.csv
    "speeds_same_name": ("wave", "[wave]\nspeeds = 2.0, 2.5, 2.5000001\n",
                         "[wave] speeds 2.5 and 2.5000001 share the name c=2.5"),
    "checkpoints_empty": ("simulate", "[solver]\ncheckpoints =\n",
                          "empty list for [solver] checkpoints"),
    # a trend needs two distinct rungs, counted after duplicates are dropped
    "epsilons_repeated": ("speed", "[study]\nepsilons = 0.1, 0.1\n",
                          "need at least two epsilon values"),
    "epsilons_single": ("thickness", "[study]\nepsilons = 0.04\n",
                        "need at least two epsilon values"),
    # every command rejects an epsilon outside (0, 1/e), by one rule
    "epsilon_negative": ("barriers", "[kinetics]\nepsilon = -0.1\n",
                         "epsilon = -0.1 must lie in (0, 1/e)"),
    "epsilon_zero": ("simulate", "[kinetics]\nepsilon = 0\n",
                     "epsilon = 0 must lie in (0, 1/e)"),
    "epsilon_above_1_over_e": ("simulate", "[kinetics]\nepsilon = 0.5\n",
                               "epsilon = 0.5 must lie in (0, 1/e)"),
    "epsilons_negative": ("speed", "[study]\nepsilons = 0.04, -0.02\n",
                          "epsilon = -0.02 must lie in (0, 1/e)"),
    # a parameter without a default is a required key
    "simulate_compact_without_epsilon": (
        "simulate", "[initial]\namplitude = 0.8\n\n[solver]\nt_end = 0.2\n",
        "[kinetics] epsilon is required"),
    "simulate_algebraic_without_epsilon": (
        "simulate", "[initial]\nvariant = algebraic\n\n[solver]\nmode = radial\n",
        "[kinetics] epsilon is required"),
    # g <= amplitude 0.5 < 3 eps|ln eps| = 0.69 at eps = 0.1: no t_end can help
    "threshold_set_empty": (
        "generation", "[study]\nepsilons = 0.1, 0.05\n\n[solver]\nt_end = 0.3\n",
        "threshold set {g >= 3 eps|ln eps|} is empty at eps=0.1: amplitude 0.5 "
        "gives g at most 0.5 < 3 eps|ln eps| = 0.6908"),
    # a body thinner than the ramp keeps g below its amplitude: at most
    # 0.6 (1 - 0.6^3) = 0.4704 < 3 eps|ln eps| = 0.5064 at eps = 0.06
    "threshold_set_empty_thin_body": (
        "generation", "[geometry]\nshape = interval\na = -0.1\nb = 0.1\n\n"
        "[initial]\namplitude = 0.6\n\n[study]\nepsilons = 0.06, 0.04\n",
        "is empty at eps=0.06: amplitude 0.6 gives g at most 0.4704 < "),
    # the generation checkpoints GEN_WINDOW eps|ln eps| would pass t_end
    "gen_window_past_t_end": (
        "barriers", "[solver]\nt_end = 0.1\n",
        "[solver] t_end = 0.1 must be at least GEN_WINDOW eps|ln eps| = 0.1565"),
    # a t_end within dt/2 of the window GEN_WINDOW eps|ln eps| = 0.29957...
    # at eps = 0.05 puts the last generation and motion checkpoints on one
    # step: the guard names t_end and the window, not two checkpoints
    "t_end_on_the_window_step": (
        "barriers", "[kinetics]\nepsilon = 0.05\n\n[solver]\n"
        "t_end = 0.2995732273553991\n",
        "[solver] t_end = 0.299573 and the generation window GEN_WINDOW "
        "eps|ln eps| = 0.2996 put checkpoints 0.299573 and 0.299573 on one "
        "step, 384 of dt = 0.000780139"),
    "t_end_just_past_the_window_step": (
        "barriers", "[kinetics]\nepsilon = 0.05\n\n[solver]\n"
        "t_end = 0.2996031846781346\n",
        "[solver] t_end = 0.299603 and the generation window GEN_WINDOW "
        "eps|ln eps| = 0.2996 put checkpoints 0.299573 and 0.299603 on one "
        "step, 384 of dt = 0.000780217"),
    # a node or step count no array can hold names epsilon and t_end,
    # before any arithmetic on it fails: a dx^2 that would underflow to a
    # dt of 0, a node count of inf, and one past numpy's largest array
    "epsilon_dt_underflows": (
        "simulate", "[kinetics]\nepsilon = 1e-300\n",
        "epsilon = 1e-300 and t_end = 1 need 2e+301 grid nodes past the "
        "origin; one array holds at most 1152921504606846975 float64 values"),
    "epsilon_nodes_inf": (
        "simulate", "[kinetics]\nepsilon = 1e-320\n",
        "and t_end = 1 need inf grid nodes past the origin"),
    "t_end_nodes_past_any_array": (
        "simulate", "[kinetics]\nepsilon = 0.05\n\n[solver]\nt_end = 1e300\n",
        "epsilon = 0.05 and t_end = 1e+300 need 3.2e+302 grid nodes past the "
        "origin"),
    # a body number whose square overflows is named before any distance
    # is evaluated (the foot-point iteration failed on it, exit 3)
    "body_coordinate_overflows": (
        "simulate", "[kinetics]\nepsilon = 0.1\n\n[geometry]\nshape = ellipse\n"
        "center = 0, 1e300\nsemi_axes = 0.5, 0.5\n\n[solver]\nmode = plane\n",
        "ellipse centre coordinate 1e+300 is too large: its square is not finite"),
    # each number squares finitely, but the origin check's products of a
    # semi-axis and a coordinate overflowed (exit 3)
    "body_reach_overflows": (
        "simulate", "[kinetics]\nepsilon = 0.1\n\n[geometry]\nshape = ellipse\n"
        "center = 1e80, 1e80\nsemi_axes = 2e80, 2e80\n\n[solver]\nmode = plane\n",
        "ellipse reach 3.41421e+80 is too large: its fourth power is not finite"),
    # a run whose arrays numpy could index but no memory holds: the address
    # range cannot be reserved, so the first of them fails at once
    "t_end_arrays_past_memory": (
        "simulate", "[kinetics]\nepsilon = 0.05\n\n[solver]\nt_end = 1e14\n",
        "Unable to allocate 455. PiB for an array with shape"),
    # how a verdict is computed, and how loose it is, are constants, not
    # keys, so no config can loosen a tolerance until its verdict passes
    "fit_window_retired": ("speed", "[study]\nfit_window = 0.2\n",
                           "unknown key 'fit_window' in section [study]"),
    "c_motion_retired": ("barriers", "[study]\nc_motion = 1.5\n",
                         "unknown key 'c_motion' in section [study]"),
    "gen_window_retired": ("barriers", "[study]\ngen_window = 2\n",
                           "unknown key 'gen_window' in section [study]"),
    "ordering_tol_retired": (
        "barriers", "[kinetics]\nepsilon = 0.02\n\n[study]\n"
        "ordering_tol = 0.2\nresidual_tol = 1e9\n",
        "unknown key 'ordering_tol' in section [study]"),
    "residual_tol_retired": ("barriers", "[study]\nresidual_tol = 1e9\n",
                             "unknown key 'residual_tol' in section [study]"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_cli_malformed_config_is_a_configuration_error(tmp_path, capsys, case):
    command, text, reason = MALFORMED[case]
    ini = _write(tmp_path, "cfg.ini", text)
    assert cli.main([command, "--config", ini, "--out", str(tmp_path / "o")]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"fkpplab {command}: configuration error: ")
    assert reason in line


# ---- random configs --------------------------------------------------------

# Values drawn in place of a valid one: each sits at or past an edge of
# every range the schema reads.
EDGES = (0.0, -1.0, -0.0, 1e-300, 1e300, 1e-320, math.nan, math.inf)


@st.composite
def random_configs(draw):
    """(command, INI text) for simulate, speed, thickness or generation.
    A config draws only valid values, or each value is, with probability
    1/4, an edge value or one just past its valid range.
    Valid values keep every run small: eps >= 0.04 (>= 0.25 in plane
    mode) and t_end <= 0.15 (<= 0.05 in plane mode); no edge value is a
    valid large size."""
    edgy = draw(st.booleans())

    @st.composite
    def _number(draw, valid, outside=()):
        if not edgy or draw(st.integers(0, 3)) < 3:
            return repr(draw(st.sampled_from(valid)))
        return repr(draw(st.sampled_from(EDGES + tuple(outside))))

    def _numbers(draw, valid, outside=(), size=(1, 1), unique=False):
        n = draw(st.integers(*size))
        values = draw(st.lists(st.sampled_from(valid), min_size=n, max_size=n,
                               unique=unique))
        return ", ".join(draw(_number((v,), outside)) for v in values)

    command = draw(st.sampled_from(("simulate", "speed", "thickness",
                                    "generation")))
    algebraic = command == "simulate" and draw(st.integers(0, 3)) == 0
    mode = "line"
    if command == "simulate":
        mode = "radial" if algebraic else draw(
            st.sampled_from(("line", "radial", "plane")))
    if command != "simulate":
        eps = (0.04, 0.06, 0.08)
    else:
        eps = (0.25, 0.3) if mode == "plane" else (0.04, 0.08, 0.2)
    sections = {"solver": {"t_end": draw(_number(
        (0.02, 0.05) if mode == "plane" else (0.05, 0.1, 0.15)))}}
    if command == "simulate":
        sections["kinetics"] = {"epsilon": draw(_number(eps, (0.37,)))}
        sections["solver"]["mode"] = mode
    else:
        sections["study"] = {"epsilons": _numbers(draw, eps, (0.37,), (2, 3),
                                                 unique=True)}
    if mode == "radial":
        sections["solver"]["dim"] = draw(st.sampled_from(("2", "3", "1", "4")))
    if command == "simulate" and draw(st.booleans()):
        sections["solver"]["extent"] = draw(_number((0.0, 0.5, 1.0)))
    if command == "simulate" and draw(st.booleans()):
        sections["solver"]["checkpoints"] = _numbers(
            draw, (0.0, 0.01, 0.02), (-1e-9,), (1, 2))
    if algebraic:
        sections["initial"] = {"variant": "algebraic",
                               "m": draw(_number((0.3, 0.9))),
                               "n": draw(_number((1.0, 2.0)))}
    else:
        size = draw(_number((0.3, 0.5)))
        shape = draw(st.sampled_from({"line": ("interval",),
                                      "radial": ("ball",),
                                      "plane": ("ball", "ellipse")}[mode]))
        geometry = {"shape": shape}
        if shape == "interval":
            geometry.update(a=draw(_number((-0.5, -0.3))), b=size)
        else:
            dim = 2 if mode == "plane" else sections["solver"]["dim"]
            centre = (0.0,) if mode == "radial" else (0.0, 0.05, -0.05)
            geometry["center"] = _numbers(draw, centre,
                                          size=(int(dim), int(dim)))
            if shape == "ball":
                geometry["radius"] = size
            else:
                geometry["semi_axes"] = f"{size}, {draw(_number((0.3, 0.4)))}"
        sections["geometry"] = geometry
        sections["initial"] = {
            "amplitude": draw(_number((0.9, 0.5), (1.0000001,))),
            "width": draw(_number((0.1, 0.25)))}
        if command == "simulate" and draw(st.booleans()):
            sections["initial"].update(
                tail_cap=draw(_number((0.01, 0.05))),
                tail_lambda=draw(_number((1.0, 2.0), (0.999,))))
    if edgy and draw(st.integers(0, 7)) == 7:  # a key the command does not read
        sections.setdefault("study", {})["probe_t"] = "0.1"
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   + "\n" for name, keys in sections.items())
    return command, text


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(random_configs())
def test_cli_exit_codes_under_random_configs(case):
    """cli.main returns 0, 1, 2 or 3 and raises nothing, and it returns 3
    only from a NumericalError of a run itself (solver.run or run_until),
    whose message it prints.  The studies' jobs run in this process, so
    the wrapped runs see every fault."""
    command, text = case
    faults = []

    def watched(func):
        def call(*args):
            try:
                return func(*args)
            except NumericalError as exc:
                faults.append(exc)
                raise
        return call

    err = StringIO()
    with pytest.MonkeyPatch.context() as mp, \
            tempfile.TemporaryDirectory() as work:
        mp.setattr(studies, "_pool_size", lambda n: 1)
        mp.setattr(studies, "_cache", type(studies._cache)())
        mp.setattr(studies, "run", watched(studies.run))
        mp.setattr(studies, "run_until", watched(studies.run_until))
        ini = _write(Path(work), "cfg.ini", text)
        with redirect_stdout(StringIO()), redirect_stderr(err):
            code = cli.main([command, "--config", ini, "--out",
                             os.path.join(work, "o")])
    assert code in (0, 1, 2, 3)
    if code == 3:
        assert faults, err.getvalue()
        assert err.getvalue() == (
            f"fkpplab {command}: numerical error: {faults[-1]}\n")


# (command, config, exit code) of runs at edge values: four that each
# printed an overflow RuntimeWarning, the ramp's -d/width (width 1e-320),
# the algebraic data's (r/eps)^n (n = 1e300), a family's node count
# need/dx (eps 1e-320, rejected by the sizing rule) and the ellipse's inside
# test (g1/e1)^2; and a wave speed whose square overflows, so that its launch
# slope is infinite and the integration must fail with exit 3.
EDGE_CONFIGS = {
    "wave": ("wave", "[wave]\nspeeds = 1e200\n", 3),
    "ramp": ("simulate", "[kinetics]\nepsilon = 0.05\n[geometry]\nshape = interval\n"
             "a = -0.5\nb = 0.5\n[initial]\nwidth = 1e-320\n[solver]\nt_end = 0.01\n", 0),
    "algebraic": ("simulate", "[kinetics]\nepsilon = 0.05\n[initial]\nvariant = algebraic\n"
                  "n = 1e300\n[solver]\nmode = radial\nt_end = 0.01\n", 0),
    "family": ("simulate", "[kinetics]\nepsilon = 1e-320\n[geometry]\nshape = ball\n"
               "center = 0, 0\nradius = 0.5\n[solver]\nmode = plane\n", 1),
    "ellipse": ("simulate", "[kinetics]\nepsilon = 0.05\n[geometry]\nshape = ellipse\n"
                "center = 0, 0\nsemi_axes = 0.5, 1e-160\n[initial]\nwidth = 1e-200\n"
                "[solver]\nmode = plane\nt_end = 0.01\n", 0),
}


@pytest.mark.parametrize("case", sorted(EDGE_CONFIGS))
def test_cli_edge_configs_print_no_warning(case, tmp_path):
    """A run at an edge value exits with its usual code and raises
    nothing: no RuntimeWarning (an error here) and no other exception."""
    command, text, expected = EDGE_CONFIGS[case]
    ini = _write(tmp_path, "cfg.ini", text)
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        mp.setattr(studies, "_pool_size", lambda n: 1)
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            code = cli.main([command, "--config", ini, "--out", str(tmp_path / "o")])
    assert code == expected


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
    # an array hashes as its values, as the tuple or list of them does
    assert config_hash({"speeds": np.array([2.0, 2.5])}) == (
        config_hash({"speeds": (2.0, 2.5)}))


@studies._study
def _toy_study(epsilons=(0.04, 0.02), body=ConvexBody.interval(-1.0, 1.0),
               k=3.0, tol=None):
    return ExperimentReport("toy", columns=("epsilon",),
                            metadata={"epsilons": epsilons})


def test_study_hash_covers_every_argument_defaults_included():
    report = _toy_study()
    assert report.metadata["config_hash"] == config_hash(dict(
        epsilons=(0.04, 0.02), body=(-1.0, 1.0), k=3.0, tol=None))
    # positional, keyword and default spellings of one call hash alike
    body = ConvexBody.interval(-1.0, 1.0)
    spellings = [_toy_study(), _toy_study((0.04, 0.02), body, 3.0, None),
                 _toy_study(k=3.0, epsilons=[0.02, 0.04, 0.02], body=body),
                 _toy_study([0.02, 0.04], tol=None)]
    assert {r.metadata["config_hash"] for r in spellings} == {
        report.metadata["config_hash"]}
    # the study sees the ladder as its distinct values, largest first
    assert {r.metadata["epsilons"] for r in spellings} == {(0.04, 0.02)}
    assert _toy_study(k=2.0).metadata["config_hash"] != (
        report.metadata["config_hash"])


def test_every_study_reading_is_study_declared():
    wrapper = studies._study(lambda: None).__code__
    funcs = [func for readings in cli.COMMANDS.values()
             for func, _ in readings]
    # every reading is seen: the eight functions of READS, below
    assert sorted(func.__name__ for func in funcs) == sorted(READS)
    assert all(func.__code__ is wrapper and func.__module__ == studies.__name__
               for func in funcs)


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
    svg = (out / "waves.svg").read_text()
    assert svg.startswith("<svg") and svg.count("<polyline") == 2


def test_cli_usage_errors(tmp_path):
    assert cli.main(["speed", "--config", "/no/such.ini",
                     "--out", str(tmp_path)]) == 1
    single = _write(tmp_path, "single.ini", "[study]\nepsilons = 0.04\n")
    assert cli.main(["speed", "--config", single, "--out", str(tmp_path)]) == 1
    bad = _write(tmp_path, "bad.ini", "[study]\nbogus = 1\n")
    assert cli.main(["speed", "--config", bad, "--out", str(tmp_path)]) == 1


def test_cli_check_failure_exit_code(tmp_path, monkeypatch):
    # an impossible residual tolerance forces a failing verdict (exit 2)
    monkeypatch.setattr(studies, "RESIDUAL_TOL", -1.0)
    ini = _write(tmp_path, "barriers.ini", "[kinetics]\nepsilon = 0.02\n")
    out = tmp_path / "o"
    rc = cli.main(["barriers", "--config", ini, "--out", str(out), "--svg"])
    assert rc == 2
    # u, the sub-solution and the super-solution at the last checkpoint
    assert (out / "sandwich.svg").read_text().count("<polyline") == 3


def _width_at_eps_002(monkeypatch, width):
    """Every layer_width the runs at eps 0.02 record reads `width`; the
    cached trajectories are left as they are."""
    cached = studies.cached
    monkeypatch.setattr(studies, "cached", lambda runs, speeds: [
        replace(traj, series={**traj.series, "layer_width": np.full_like(
            traj.series["layer_width"], width)})
        if traj.config.epsilon == 0.02 else traj
        for traj in cached(runs, speeds)])


@pytest.mark.parametrize("width", (-0.01, 0.0))
def test_a_width_not_positive_fails_its_checks(tmp_path, monkeypatch, capsys,
                                               width):
    # the band levels are attained, so the width is a verdict (exit 2), not
    # a configuration error; the ratio check reads False, not 1/0
    _width_at_eps_002(monkeypatch, width)
    ini = _write(tmp_path, "cfg.ini", SPEED_INI)
    assert cli.main(["thickness", "--config", ini,
                     "--out", str(tmp_path / "o")]) == 2
    failed = {line.split(": ")[1].split(" ")[0]
              for line in capsys.readouterr().out.splitlines()
              if line.startswith("[FAIL]")}
    assert {"width_positive@eps=0.02", "width_ratio_stable"} <= failed


def test_a_band_level_not_attained_is_a_configuration_error(tmp_path,
                                                           monkeypatch, capsys):
    # the series reads nan where a band level is absent: no width to judge
    _width_at_eps_002(monkeypatch, np.nan)
    ini = _write(tmp_path, "cfg.ini", SPEED_INI)
    assert cli.main(["thickness", "--config", ini,
                     "--out", str(tmp_path / "o")]) == 1
    assert "band levels not attained" in capsys.readouterr().err


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
    "wave_probe_t": ("wave", WAVE_INI + "\n[study]\nprobe_t = 0.2\n",
                     "probe_t"),
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
    # the paper's tail M exp(-lam |x|/eps) has lam >= 1 and M > 0
    "simulate_tail_lambda_below_one": ("simulate", _add(
        SIMULATE_INI, "initial", "tail_cap = 0.05\ntail_lambda = 0.5"),
        "tail_lambda"),
    "simulate_tail_cap_negative": ("simulate", _add(
        SIMULATE_INI, "initial", "tail_cap = -0.05"), "tail_cap"),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_cli_rejects_keys_the_command_does_not_read(tmp_path, capsys, case):
    command, text, key = REJECTED[case]
    ini = _write(tmp_path, "cfg.ini", text)
    assert cli.main([command, "--config", ini, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert re.search(rf"\b{key}\b", err) and f"fkpplab {command}" in err


_INTERVAL = ConvexBody.interval(-0.5, 0.5)
# An infinite value, which a config file cannot give (every non-finite float
# is rejected as it is read), passed to a study family's builder: the key
# whose value the builder must reject by name, as it builds the config.
REJECTED_INFINITE = {
    "tail_lambda": lambda: studies.compact_family_config(
        0.1, _INTERVAL, 0.9, 0.25, 0.05, tail=(math.inf, 0.05)),
    "tail_cap": lambda: studies.compact_family_config(
        0.1, _INTERVAL, 0.9, 0.25, 0.05, tail=(1.5, math.inf)),
    "m": lambda: studies.algebraic_family_config(0.1, math.inf, 2.0, 0.05, 4.0),
    # not as a domain reach below an infinite outflow margin
    "t_end": lambda: studies.compact_family_config(0.1, _INTERVAL, 0.9, 0.25,
                                                   math.inf),
}


@pytest.mark.parametrize("key", sorted(REJECTED_INFINITE))
def test_study_families_reject_an_infinite_value_by_name(key):
    with pytest.raises(ConfigurationError, match=rf"^{key} = inf must be "):
        REJECTED_INFINITE[key]()


def test_an_infinite_n_is_the_step_function_limit():
    # m / (1 + |x/eps|^n) is m for |x| < eps and 0 beyond as n -> inf
    traj = run(studies.algebraic_family_config(0.1, 0.5, math.inf, 0.05, 4.0))
    assert traj.series["sup"][0] == 0.5
    assert np.isfinite(traj.series["sup"]).all()


def test_cli_rejects_radial_dimension_above_3(tmp_path, capsys):
    # from N = 4 the radial step no longer preserves order
    ini = _write(tmp_path, "cfg.ini", "[solver]\ndim = 4\n")
    assert cli.main(["no-interface", "--config", ini,
                     "--out", str(tmp_path / "o")]) == 1
    assert "N = 2 or 3" in capsys.readouterr().err


def test_every_schema_key_is_read_by_a_command():
    read = set()
    for readings in cli.COMMANDS.values():
        for func, only in readings:
            keys, body = cli._reads(func)
            read |= keys | set(only)
            if body:
                read |= {f"geometry.{key}" for keys in SHAPE_KEYS.values()
                         for key in ("shape",) + keys}
    assert read == {f"{section}.{key}" for section, keys in SCHEMA.items()
                    for key in keys}


_FAMILY = {"initial.amplitude", "initial.width", "solver.t_end", "study.epsilons"}
_SIMULATION = {"kinetics.epsilon", "solver.dim", "solver.t_end",
               "solver.extent", "solver.checkpoints"}
# function -> the entries it reads and whether [geometry] becomes its body:
# the config surface of every command, written out
READS = {
    "run_wave_study": ({"wave.speeds"}, False),
    "run_compact_simulation": (_SIMULATION | {
        "initial.amplitude", "initial.width", "initial.tail_lambda",
        "initial.tail_cap", "solver.mode"}, True),
    "run_algebraic_simulation": (_SIMULATION | {"initial.m", "initial.n"}, False),
    "run_speed_study": (_FAMILY, True),
    "run_thickness_study": (_FAMILY, True),
    "run_generation_study": (_FAMILY, True),
    "run_no_interface_study": ({"initial.m", "initial.n", "solver.dim",
                                "study.epsilons", "study.probe_t",
                                "study.probe_x"}, False),
    "run_barrier_check": ({"kinetics.epsilon", "initial.amplitude",
                           "initial.width", "solver.t_end"}, True),
}


def test_each_reading_reads_its_written_out_keys():
    assert {func.__name__: cli._reads(func)
            for readings in cli.COMMANDS.values()
            for func, _ in readings} == READS


def test_schema_key_names_are_unique_across_sections():
    # a parameter name is the one schema key it reads
    names = [key for keys in SCHEMA.values() for key in keys]
    assert len(names) == len(set(names))


class _Captured(Exception):
    pass


def _simulated(tmp_path, monkeypatch, ini):
    """The SimConfig `simulate` hands to run() for the config file ini."""
    handed = []

    def capture(sim):
        handed.append(sim)
        raise _Captured

    monkeypatch.setattr(studies, "run", capture)
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
        0.1, body_from_config(load_config(ini)), 0.8, 0.2, 0.2, mode,
        2 if mode == "radial" else 1, min_reach=extent)
    assert sim == family
    assert sim.grid.extents[0][1] >= extent


def test_simulate_tail_rate_defaults_to_one(tmp_path, monkeypatch):
    ini = _write(tmp_path, "sim.ini", _add(SIMULATE_INI, "initial", "tail_cap = 0.3"))
    assert _simulated(tmp_path, monkeypatch, ini).initial.tail == (1.0, 0.3)


BALL_3D = "shape = ball\ncenter = 0, 0, 0\nradius = 0.5"


@pytest.mark.parametrize("geometry, solver, message", (
    ("shape = interval\na = -0.5\nb = 0.5", "mode = plane",
     "plane mode needs a two-dimensional region, got a 1-D interval"),
    (BALL_3D, "mode = plane",
     "plane mode needs a two-dimensional region, got a 3-D ball"),
    (BALL_3D, "mode = radial\ndim = 2",
     "radial mode needs a 2-D ball centred at the origin, got a 3-D ball"),
    (BALL_3D, "mode = radial",
     "radial mode needs a 2-D ball centred at the origin, got a 3-D ball"),
    ("shape = ball\ncenter = 0.1, 0\nradius = 0.5", "mode = radial",
     "radial mode needs a 2-D ball centred at the origin, got a 2-D ball"),
), ids=["plane_interval", "plane_ball_3d", "radial_dim_2_ball_3d",
        "radial_ball_3d", "radial_off_centre"])
def test_simulate_rejects_a_body_that_does_not_fit_the_grid(
        tmp_path, monkeypatch, capsys, geometry, solver, message):
    runs = []
    monkeypatch.setattr(studies, "run", lambda cfg: runs.append(cfg) or run(cfg))
    ini = _write(tmp_path, "sim.ini",
                 f"[kinetics]\nepsilon = 0.1\n\n[geometry]\n{geometry}\n\n"
                 f"[solver]\n{solver}\nt_end = 0.1\n")
    assert cli.main(["simulate", "--config", ini, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"fkpplab simulate: configuration error: {message}\n")
    assert runs == []


THIN_BODY = ("grid does not cover the support of g: no node lies more than "
             "width/4 = 0.0625 inside the body (the deepest at signed "
             "distance -0.01); the grid misses the body, or the body is too "
             "thin for the ramp")


def test_a_body_too_thin_for_the_ramp_is_a_configuration_error(tmp_path,
                                                               capsys):
    # the grid spans (-1.71, 1.71) and covers the body (-0.01, 0.01), whose
    # deepest node, its centre, lies short of width/4 = 0.0625 inside
    cfg = studies.compact_family_config(0.04, ConvexBody.interval(-0.01, 0.01),
                                        0.9, 0.25, 0.2)
    assert cfg.grid.extents == ((-1.71, 1.71),)
    with pytest.raises(ConfigurationError, match=f"^{re.escape(THIN_BODY)}$"):
        run(cfg)
    ini = _write(tmp_path, "sim.ini",
                 "[kinetics]\nepsilon = 0.04\n\n[geometry]\nshape = interval\n"
                 "a = -0.01\nb = 0.01\n\n[solver]\nt_end = 0.2\n")
    assert cli.main(["simulate", "--config", ini, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"fkpplab simulate: configuration error: {THIN_BODY}\n")


# command -> a small config, the tables its report names and its figures
FILES = {
    "wave": (WAVE_INI, {"wave_c2.csv", "wave_c2.5.csv"}, {"waves.svg"}),
    "simulate": (SIMULATE_INI, {"checkpoint_t0.1.csv", "checkpoint_t0.2.csv"},
                 {"profiles.svg"}),
    "speed": (SPEED_INI, set(), {"speed.svg"}),
    "thickness": (SPEED_INI, set(), {"thickness.svg"}),
    "generation": (SPEED_INI, set(), {"generation.svg"}),
    "no-interface": ("[study]\nepsilons = 0.04, 0.02\n", set(),
                     {"no_interface.svg"}),
    "barriers": ("[kinetics]\nepsilon = 0.04\n", set(),
                 {"barriers.svg", "sandwich.svg"}),
}


def _report(tmp_path, command, text):
    """The report the command's study returns for the config text."""
    cfg = load_config(_write(tmp_path, "cfg.ini", text))
    func, only = cli._reading(command, cfg)
    return func(**cli._kwargs(func, only, cfg))


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_cli_svg_only_for_commands_that_plot(tmp_path, command):
    # every command takes --svg, so every command's report names a figure
    report = _report(tmp_path, command, FILES[command][0])
    assert report.metadata["figures"]
    assert all(name.endswith(".svg") and callable(write)
               for name, write in report.metadata["figures"].items())


def test_cli_simulate_svg_plots_the_checkpoint_profiles(tmp_path):
    ini = _write(tmp_path, "sim.ini", SIMULATE_INI)
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", ini, "--out", str(out), "--svg"]) == 0
    # one profile per checkpoint, t = 0.1 and 0.2
    assert (out / "profiles.svg").read_text().count("<polyline") == 2


def test_plane_profile_is_the_row_through_y_0(monkeypatch, tmp_path):
    grid = Grid("plane", ((-1.0, 1.0), (-0.01, 0.01)), 0.002)
    x, y = grid.points()[..., 0], grid.points()[..., 1]
    traj = SimpleNamespace(checkpoints=[(0.5, Field(grid, x + 10.0 * y))],
                           series={"t": np.array([0.0, 0.5])},
                           config=SimpleNamespace(dt=0.5))
    monkeypatch.setattr(studies, "run", lambda sim: traj)
    drawn = []
    monkeypatch.setattr(studies, "line_plot",
                        lambda path, series, **labels: drawn.extend(series))
    report = studies._simulation_report(None)
    report.metadata["figures"]["profiles.svg"](str(tmp_path / "p.svg"))
    ((xs, us, label),) = drawn
    assert label == "t=0.5"
    np.testing.assert_array_equal(xs, grid.axis(0))
    np.testing.assert_allclose(us, xs, rtol=0.0, atol=1e-12)
    # 1001 nodes along x, thinned to every third: at most about 500 points
    labels = {"title": "profiles", "xlabel": "x", "ylabel": "u"}
    svgplot.line_plot(tmp_path / "drawn.svg", drawn, **labels)
    svgplot.line_plot(tmp_path / "third.svg", [(xs[::3], us[::3], label)], **labels)
    drawn_svg = (tmp_path / "drawn.svg").read_text()
    assert drawn_svg == (tmp_path / "third.svg").read_text()
    (points,) = re.findall(r'<polyline points="([^"]*)"', drawn_svg)
    assert len(points.split()) == 334


def test_cli_simulate_dumps_checkpoints(tmp_path):
    ini = _write(tmp_path, "sim.ini", SIMULATE_INI)
    out = tmp_path / "sim_out"
    rc = cli.main(["simulate", "--config", ini, "--out", str(out)])
    assert rc == 0
    assert (out / "checkpoint_t0.1.csv").exists()
    assert (out / "checkpoint_t0.2.csv").exists()
    header = (out / "checkpoint_t0.2.csv").read_text().splitlines()[0]
    assert header.startswith("# t=")


def test_simulate_hashes_its_arguments_with_defaults(tmp_path):
    # amplitude = 0.9 is the default: written out or left out, it is one run
    hashes = []
    for name, text in (("written", SIMULATE_INI),
                       ("omitted", SIMULATE_INI.replace("amplitude = 0.9\n", ""))):
        out = tmp_path / name
        ini = _write(tmp_path, f"{name}.ini", text)
        assert cli.main(["simulate", "--config", ini, "--out", str(out)]) == 0
        hashes.append((out / "report.csv").read_text().splitlines()[1])
    assert hashes == ["# config_hash=b5a322eabb918de9"] * 2


@pytest.mark.parametrize("svg", (False, True))
@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_out_holds_the_report_and_the_tables_it_names(tmp_path, monkeypatch,
                                                      command, svg):
    ini, tables, svgs = FILES[command]
    written = []
    write_csv = ExperimentReport.write_csv
    monkeypatch.setattr(ExperimentReport, "write_csv",
                        lambda self, path: written.append(self) or write_csv(self, path))
    out = tmp_path / "o"
    ini = _write(tmp_path, "cfg.ini", ini)
    assert cli.main([command, "--config", ini, "--out", str(out)]
                    + ["--svg"] * svg) == 0
    (report,) = written
    assert set(report.metadata.get("tables", {})) == tables
    assert set(report.metadata["figures"]) == svgs
    assert set(os.listdir(out)) == {"report.csv"} | tables | (svgs if svg else set())


def test_wave_svg_solves_each_speed_once(tmp_path, monkeypatch,
                                         empty_study_caches):
    # one more speed than the cache holds, at a cap of 16 that keeps the
    # test short: the figure draws the study's own profiles, not a second
    # cache lookup that solves again.  The solves are the cache's misses,
    # handed to _fresh in this process, whether they then run here or in
    # pool workers.
    monkeypatch.setattr(studies, "CACHE_SIZE", 16)
    solved = []
    fresh = studies._fresh
    monkeypatch.setattr(studies, "_fresh", lambda jobs: solved.extend(
        c for name, (c,) in jobs if name == "solve_wave") or fresh(jobs))
    speeds = [round(2.0 + 0.1 * k, 1) for k in range(studies.CACHE_SIZE + 1)]
    ini = _write(tmp_path, "wave.ini",
                 "[wave]\nspeeds = " + ", ".join(map(str, speeds)) + "\n")
    out = tmp_path / "o"
    assert cli.main(["wave", "--config", ini, "--out", str(out), "--svg"]) == 0
    assert solved == speeds
    svg = (out / "waves.svg").read_text()
    assert svg.count("<polyline") == studies.CACHE_SIZE + 1


def test_repeated_wave_speed_is_read_once():
    once, twice = run_wave_study(speeds=(2.5,)), run_wave_study(speeds=(2.5, 2.5))
    assert twice.rows == once.rows and twice.checks == once.checks
    assert list(twice.metadata["tables"]) == ["wave_c2.5.csv"]
    assert twice.metadata["config_hash"] == once.metadata["config_hash"]


RADIAL_INI = """\
[kinetics]
epsilon = 0.1

[geometry]
shape = ball
center = 0, 0
radius = 0.5

[solver]
mode = radial
t_end = 0.1
"""


# command, config, a key's effective value written out into a section, and
# the one hash of both: the key omitted hashes as the value it takes
EFFECTIVE = {
    "dim": ("simulate", RADIAL_INI, "solver", "dim = 2", "bbff740c6f0e00c5"),
    "tail_lambda": ("simulate", "[kinetics]\nepsilon = 0.1\n\n[initial]\n"
                    "tail_cap = 0.01\n\n[solver]\nt_end = 0.1\n", "initial",
                    "tail_lambda = 1", "b259712e987fe996"),
    "compact_checkpoints": ("simulate", "[kinetics]\nepsilon = 0.1\n\n"
                            "[solver]\nt_end = 0.1\n", "solver",
                            "checkpoints = 0.05, 0.1", "da32e50852ed9726"),
    "algebraic_checkpoints": ("simulate", _add(RADIAL_INI.replace(
        "[geometry]\nshape = ball\ncenter = 0, 0\nradius = 0.5\n",
        "[initial]\n"), "initial", "variant = algebraic"), "solver",
        "checkpoints = 0.05, 0.1", "301c88b7669880b8"),
}


@pytest.mark.parametrize("case", sorted(EFFECTIVE))
def test_an_omitted_key_hashes_as_its_effective_value(tmp_path, case):
    command, text, section, line, expected = EFFECTIVE[case]
    hashes = []
    for name, ini in (("omitted", text), ("written", _add(text, section, line))):
        out = tmp_path / name
        ini = _write(tmp_path, f"{name}.ini", ini)
        assert cli.main([command, "--config", ini, "--out", str(out)]) == 0
        hashes.append((out / "report.csv").read_text().splitlines()[1])
    assert hashes == [f"# config_hash={expected}"] * 2


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
    """The study cache emptied before the test and again after it, so no
    stub's entries outlive it."""
    studies._cache.clear()
    yield
    studies._cache.clear()


def test_study_caches_evict_least_recently_used(monkeypatch, empty_study_caches):
    built = []
    monkeypatch.setattr(studies, "run", lambda cfg: built.append(cfg) or cfg)
    for key in range(studies.CACHE_SIZE):
        studies.cached([key], ())
    studies.cached([0], ())  # a hit: key 1 is now the least recently used
    studies.cached([studies.CACHE_SIZE], ())  # one past the cap
    assert len(studies._cache) == studies.CACHE_SIZE
    assert len(built) == studies.CACHE_SIZE + 1
    studies.cached([0], ())  # still held, so not built again
    assert len(built) == studies.CACHE_SIZE + 1
    studies.cached([1], ())  # evicted, so built again, which evicts key 2
    assert built[-1] == 1 and len(built) == studies.CACHE_SIZE + 2
    studies.cached([2], ())
    assert built[-1] == 2

    solved = []
    monkeypatch.setattr(studies, "solve_wave", lambda c: solved.append(c) or c)
    for c in range(studies.CACHE_SIZE + 1):
        studies.cached((), (2.0 + c,))
    assert len(studies._cache) == studies.CACHE_SIZE
    studies.cached((), (2.0,))  # evicted, so solved again
    assert solved == [2.0 + c for c in range(studies.CACHE_SIZE + 1)] + [2.0]


def test_one_cache_holds_every_kind_of_job(monkeypatch, empty_study_caches):
    _usable_cpus(monkeypatch, 1)
    for name in ("run", "run_until", "solve_wave"):
        monkeypatch.setattr(studies, name, lambda *args, name=name: (name, *args))
    stopped = (0, "threshold_min", 0.9)
    assert studies.cached([0, stopped], (2.5,)) == [
        ("run", 0), ("run_until", *stopped), ("solve_wave", 2.5)]
    assert list(studies._cache) == [
        ("run", (0,)), ("run_until", stopped), ("solve_wave", (2.5,))]
    studies.cached([0], ())  # a hit: the stopped run is now the oldest
    studies.cached(list(range(1, studies.CACHE_SIZE - 2)), ())  # full
    assert len(studies._cache) == studies.CACHE_SIZE
    studies.cached([studies.CACHE_SIZE], ())  # one past the cap
    assert ("run_until", stopped) not in studies._cache
    studies.cached([studies.CACHE_SIZE + 1], ())  # and one more
    assert ("solve_wave", (2.5,)) not in studies._cache
    assert next(iter(studies._cache)) == ("run", (0,))
    assert len(studies._cache) == studies.CACHE_SIZE


def _usable_cpus(monkeypatch, n):
    """Make cached see n usable CPUs: 1 runs every rung in this process,
    as under `taskset -c 0`; 2 sends a batch's rungs to two workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def test_a_batch_past_the_cache_size_is_returned_whole(monkeypatch,
                                                       empty_study_caches):
    _usable_cpus(monkeypatch, 1)
    built = []
    monkeypatch.setattr(studies, "run", lambda cfg: built.append(cfg) or str(cfg))
    keys = list(range(studies.CACHE_SIZE + 2))
    assert studies.cached(keys, ()) == [str(key) for key in keys]
    assert built == keys  # in this process, in order
    # the most recently used stay
    assert list(studies._cache) == [("run", (key,)) for key in keys[2:]]


def _assert_same_trajectory(a, b):
    assert a.config == b.config
    assert a.series.keys() == b.series.keys()
    for name in a.series:
        assert np.array_equal(a.series[name], b.series[name], equal_nan=True), name
    assert len(a.checkpoints) == len(b.checkpoints)
    for (ta, fa), (tb, fb) in zip(a.checkpoints, b.checkpoints):
        assert ta == tb and fa.grid == fb.grid
        assert np.array_equal(fa.values, fb.values)


def _count_runs_here(monkeypatch):
    """The arguments of every run() and run_until() call made in this
    process from then on, in one list."""
    calls = []
    for name in ("run", "run_until"):
        monkeypatch.setattr(studies, name, lambda *args, real=getattr(
            studies, name): calls.append(args) or real(*args))
    return calls


# a study, its arguments, and the runs in its one batch: no-interface runs
# an algebraic run and a compact control per rung, generation runs each
# rung to its first passage
@pytest.mark.parametrize("study, kwargs, jobs", (
    (studies.run_speed_study, {"epsilons": (0.1, 0.05, 0.04), "t_end": 0.2},
     ["run"] * 3),
    (studies.run_no_interface_study, {"epsilons": (0.1, 0.05), "probe_t": 0.2},
     ["run"] * 4),
    (studies.run_generation_study, {"epsilons": (0.1, 0.05, 0.04),
                                    "amplitude": 0.9, "t_end": 0.5},
     ["run_until"] * 3),
), ids=["speed", "no_interface", "generation"])
def test_a_pooled_batch_equals_runs_in_process(monkeypatch, empty_study_caches,
                                               study, kwargs, jobs):
    _usable_cpus(monkeypatch, 2)
    in_parent = _count_runs_here(monkeypatch)
    batches = []
    fresh = studies._fresh
    monkeypatch.setattr(studies, "_fresh", lambda batch: batches.append(
        (batch, fresh(batch))) or batches[-1][1])
    study(**kwargs)
    assert multiprocessing.active_children() == []
    ((batch, trajs),) = batches
    assert [name for name, _ in batch] == jobs
    assert in_parent == []  # every rung ran in a worker
    for job, traj in zip(batch, trajs):
        _assert_same_trajectory(traj, studies._call(*job))


# tau = 0.202 and 0.184: both rungs stop by t_end / 2, a checkpoint
GENERATION = {"epsilons": (0.05, 0.04), "t_end": 0.5}


def _generation_configs():
    """The configs of GENERATION's rungs."""
    return [studies.compact_family_config(eps, ConvexBody.interval(-0.5, 0.5),
                                          0.5, 0.25, 0.5)
            for eps in GENERATION["epsilons"]]


def _stopped(cfg):
    """The cached generation rung of the config, under its passage key."""
    return studies._cache["run_until", (cfg, "threshold_min", 1.0 - cfg.epsilon)]


def test_a_stopped_run_never_answers_a_full_run_lookup(empty_study_caches):
    report = studies.run_generation_study(**GENERATION)
    for cfg in _generation_configs():
        assert len(_stopped(cfg).series["t"]) <= cfg.n_steps // 2 + 1
        (traj,) = studies.cached([cfg], ())
        assert len(traj.series["t"]) == cfg.n_steps + 1
        _assert_same_trajectory(traj, run(cfg))
    # and a full run in the cache does not answer the study's rungs: it
    # runs them to their passages, to the same report
    studies._cache.clear()
    runs = studies.cached(_generation_configs(), ())
    again = studies.run_generation_study(**GENERATION)
    assert repr(again.rows) == repr(report.rows)
    assert again.checks == report.checks
    for cfg, traj in zip(_generation_configs(), runs):
        assert studies._cache["run", (cfg,)] is traj
        assert len(_stopped(cfg).series["t"]) <= cfg.n_steps // 2 + 1


def test_a_passage_past_t_end_fails_the_generation_study(empty_study_caches):
    # tau is about 0.18 at eps = 0.04: its run goes to t_end = 0.1 in full
    with pytest.raises(ConfigurationError, match=r"^threshold 1-eps never "
                       r"reached before t_end at eps=0\.04$"):
        studies.run_generation_study((0.04, 0.02), t_end=0.1)
    cfg = studies.compact_family_config(0.04, ConvexBody.interval(-0.5, 0.5),
                                        0.5, 0.25, 0.1)
    assert len(_stopped(cfg).series["t"]) == cfg.n_steps + 1


@pytest.mark.parametrize("cpus", (1, 2))
def test_generation_blow_up_exit_code(tmp_path, monkeypatch, capsys,
                                      empty_study_caches, blow_up, cpus):
    # step 3 comes before the passage at every rung, so every rung fails
    _usable_cpus(monkeypatch, cpus)
    ini = _write(tmp_path, "cfg.ini", SPEED_INI)
    rc = cli.main(["generation", "--config", ini, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert re.fullmatch(
        f"fkpplab generation: numerical error: solution lost finiteness "
        f"at step {blow_up}, near t=[0-9.e-]+\n", capsys.readouterr().err)
    assert multiprocessing.active_children() == []


def test_a_failing_rung_raises_as_in_a_serial_run(tmp_path, monkeypatch, capsys,
                                                  empty_study_caches, blow_up):
    # both rungs blow up on the same step, so at different times; the
    # costlier eps = 0.05 rung starts first, the eps = 0.1 error is raised
    _usable_cpus(monkeypatch, 2)
    in_parent = []
    monkeypatch.setattr(studies, "run", lambda cfg: in_parent.append(cfg) or run(cfg))
    with pytest.raises(NumericalError) as serial:
        run(studies.compact_family_config(0.1, ConvexBody.interval(-0.5, 0.5),
                                          0.9, 0.25, 0.2))
    assert serial.value.diagnostic[1] == blow_up
    with pytest.raises(NumericalError) as pooled:
        studies.run_speed_study((0.05, 0.1), t_end=0.2)
    assert in_parent == []
    assert str(pooled.value) == str(serial.value)
    assert pooled.value.diagnostic == serial.value.diagnostic
    assert multiprocessing.active_children() == []

    ini = _write(tmp_path, "cfg.ini",
                 "[solver]\nt_end = 0.2\n\n[study]\nepsilons = 0.05, 0.1\n")
    assert cli.main(["speed", "--config", ini, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == (
        f"fkpplab speed: numerical error: {serial.value}\n")
    assert multiprocessing.active_children() == []


def _fail():
    raise NumericalError("eps = 0.1 failed")


def _hang(signum, frame):
    raise TimeoutError("cached still waiting after 10 s")


@pytest.mark.parametrize("fail, error, message", (
    pytest.param(_fail, NumericalError, "eps = 0.1 failed", id="raises"),
    # the pool would replace the dead worker and wait for its run forever
    pytest.param(lambda: os._exit(1), RuntimeError, "worker process died",
                 id="dies"),
))
def test_a_failing_rung_stops_the_others(monkeypatch, empty_study_caches,
                                         fail, error, message):
    # the eps = 0.1 rung fails at once while the eps = 0.05 rung sleeps
    _usable_cpus(monkeypatch, 2)

    def stub(cfg):
        if cfg.epsilon == 0.1:
            fail()
        time.sleep(5.0)

    monkeypatch.setattr(studies, "run", stub)
    body = ConvexBody.interval(-0.5, 0.5)
    cfgs = [studies.compact_family_config(eps, body, 0.9, 0.25, 0.2)
            for eps in (0.1, 0.05)]
    start = time.perf_counter()
    previous = signal.signal(signal.SIGALRM, _hang)  # fail, not hang
    signal.alarm(10)
    try:
        with pytest.raises(error, match=message):
            studies.cached(cfgs, ())
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 2.5
    assert multiprocessing.active_children() == []


def test_the_pooled_barrier_check_equals_a_serial_one(monkeypatch,
                                                      empty_study_caches):
    # its one run and four waves go to two workers in one batch; a worker
    # appends to its own copy of `calls`
    calls = []
    for name in ("run", "solve_wave"):
        monkeypatch.setattr(studies, name, lambda arg, name=name, real=getattr(
            studies, name): calls.append(name) or real(arg))
    _usable_cpus(monkeypatch, 2)
    pooled = studies.run_barrier_check(0.02)
    assert calls == []
    assert multiprocessing.active_children() == []
    studies._cache.clear()
    _usable_cpus(monkeypatch, 1)
    serial = studies.run_barrier_check(0.02)
    assert calls == ["run"] + ["solve_wave"] * 4
    for part in ("rows", "fits", "checks", "metadata"):
        assert repr(getattr(pooled, part)) == repr(getattr(serial, part)), part


def _fail_wave(c):
    raise NumericalError(f"c = {c:g} failed")


@pytest.mark.parametrize("fail, error, message", (
    pytest.param(_fail_wave, NumericalError, "c = 1.5 failed",
                 id="raises"),
    # in a worker only: in this process it would end the test run
    pytest.param(lambda c: os._exit(1) if multiprocessing.parent_process()
                 else _fail_wave(c), RuntimeError, "worker process died",
                 id="dies"),
))
def test_a_failing_wave_fails_the_barrier_check(monkeypatch, empty_study_caches,
                                                fail, error, message):
    solve_wave = studies.solve_wave
    monkeypatch.setattr(studies, "solve_wave", lambda c: fail(c)
                        if c == studies.MOTION_SPEED else solve_wave(c))
    _usable_cpus(monkeypatch, 2)
    with pytest.raises(error, match=message) as pooled:
        studies.run_barrier_check(0.02)
    assert multiprocessing.active_children() == []
    if error is NumericalError:  # a dying worker would end this process
        studies._cache.clear()
        _usable_cpus(monkeypatch, 1)
        with pytest.raises(error) as serial:
            studies.run_barrier_check(0.02)
        assert str(pooled.value) == str(serial.value)


def test_the_barrier_check_reads_one_time_per_field(monkeypatch):
    # at eps = 0.02 the last of the four generation times requested is
    # recorded past the window: 3 generation fields, each read at its own t
    window = studies.GEN_WINDOW * eps_log(0.02)
    seen = {"generation_sub": [], "motion_sub": []}
    for name, times in seen.items():
        monkeypatch.setattr(studies, name, lambda t, *args, real=getattr(
            studies, name), times=times: times.append(t) or real(t, *args))
    batches = []
    cached = studies.cached
    monkeypatch.setattr(studies, "cached", lambda runs, speeds: batches.append(
        cached(runs, speeds)) or batches[-1])
    studies.run_barrier_check(0.02)
    ((traj, *_),) = batches
    recorded = [t for t, _ in traj.checkpoints]
    generation = [t for t in recorded if t <= window]
    assert len(generation) == 3 and len(recorded) == 10
    assert set(seen["generation_sub"]) == set(generation)
    # a motion barrier is read at t - t_gen (its residual also a little
    # before and after), and only for the fields past the window
    t_gen = studies._generation_time(traj, 0.02)
    read = {t - t_gen for t in recorded} & set(seen["motion_sub"])
    assert read == {t - t_gen for t in recorded if t > window}


def _unexpected(*args):
    raise AssertionError(f"a job ran: {args!r}")


def test_the_barrier_check_reads_its_one_batch(monkeypatch, empty_study_caches):
    # its run and its four waves come from one call to cached; after it the
    # cache is emptied and no job may run, so any other read would fail
    _usable_cpus(monkeypatch, 1)
    batches = []
    cached = studies.cached

    def once(runs, speeds):
        batches.append((runs, speeds))
        results = cached(runs, speeds)
        studies._cache.clear()
        for name in ("run", "run_until", "solve_wave"):
            monkeypatch.setattr(studies, name, _unexpected)
        return results

    monkeypatch.setattr(studies, "cached", once)
    studies.run_barrier_check(0.02)
    eL = eps_log(0.02)
    window = studies.GEN_WINDOW * eL
    cfg = studies.compact_family_config(
        0.02, ConvexBody.interval(-2.4, 2.4), 0.9, 0.1, 1.0,
        checkpoints=tuple(np.linspace(0.25, 1.0, 4) * window)
        + tuple(np.linspace(0.3, 1.0, 6)))
    assert batches == [([cfg], (2.0, 1.5, 2.0 - eL, 2.5))]


def test_a_bad_epsilon_fails_the_barrier_check_before_any_run(monkeypatch):
    # eps|ln eps| = 0.254 at eps = 0.12, past CUTOFF_INNER = 0.25
    _usable_cpus(monkeypatch, 1)
    for name in ("run", "run_until", "solve_wave"):
        monkeypatch.setattr(studies, name, _unexpected)
    with pytest.raises(ConfigurationError, match=r"^eps\|ln eps\| must stay "
                       r"below CUTOFF_INNER"):
        studies.run_barrier_check(0.12)


def test_thickness_reads_each_band_constant_at_its_recorded_time(monkeypatch):
    # 801 steps at eps = 0.04: t_end / 2 = 0.25015 is recorded at step 401,
    # t = 0.2504623, where the sharp front is read
    seen = []
    band_constant = studies._band_constant
    monkeypatch.setattr(studies, "_band_constant", lambda fld, body, t, eps:
                        seen.append((eps, t)) or band_constant(fld, body, t, eps))
    studies.run_thickness_study((0.1, 0.04), t_end=0.5003)
    cfg = studies.compact_family_config(0.04, ConvexBody.interval(-0.5, 0.5),
                                        0.9, 0.25, 0.5003)
    assert cfg.n_steps == 801
    mid = [t for eps, t in seen if eps == 0.04][0]
    assert mid == 401 * cfg.dt == pytest.approx(0.2504623, abs=1e-7)
    assert [t for t, _ in studies.cached([cfg], ())[0].checkpoints] == [
        t for eps, t in seen if eps == 0.04]


@pytest.mark.parametrize("command, text, message", [
    *(pytest.param(command, "[study]\nepsilons = 0.01, -0.02\n",
                   "epsilon = -0.02 must lie in (0, 1/e)", id=command)
      for command in ("speed", "thickness", "generation", "no-interface")),
    # every rung runs in line mode, which a ball does not fit
    *(pytest.param(command, "[geometry]\nshape = ball\ncenter = 0, 0\n"
                   "radius = 0.5\n", "line mode needs an interval, got a 2-D ball",
                   id=f"{command}-ball")
      for command in ("speed", "thickness", "generation")),
])
def test_an_invalid_rung_fails_before_any_run(tmp_path, monkeypatch, capsys,
                                              command, text, message):
    # with one usable CPU a run would happen in this process, and be counted
    _usable_cpus(monkeypatch, 1)
    runs = _count_runs_here(monkeypatch)
    ini = _write(tmp_path, "cfg.ini", text)
    assert cli.main([command, "--config", ini, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"fkpplab {command}: configuration error: {message}\n")
    assert runs == []


ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in ROOT.glob("src/fkpplab/*.py") if p.name != "__init__.py")
# Callers: the package (bar the exports) and the benchmark's workloads;
# tests are not callers.
CALLERS = MODULES + [ROOT / "perfbench" / "workloads.py",
                     ROOT / "perfbench" / "child.py"]


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


def test_settable_values_do_not_grow():
    """Parameters with a default, annotated fields of @dataclass classes and
    config.SCHEMA keys, over the package's modules: each is a value a caller
    can set.  Raising the bound needs a CHANGES.md line naming the new
    option."""
    defaults = fields = 0
    for path in ROOT.glob("src/fkpplab/*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.arguments):
                defaults += len(node.defaults) + sum(
                    d is not None for d in node.kw_defaults)
            elif isinstance(node, ast.ClassDef) and any(
                    ast.unparse(d).split("(")[0] == "dataclass"
                    for d in node.decorator_list):
                fields += sum(isinstance(item, ast.AnnAssign) for item in node.body)
    keys = sum(len(section) for section in SCHEMA.values())
    assert defaults + fields + keys <= 118, (defaults, fields, keys)


def test_only_kinetics_names_the_epsilon_bound():
    """The domain (0, 1/e) of epsilon is decided once, by kinetics.eps_log:
    no other module names EPS_MAX or math.e."""
    named = []
    for path in ROOT.glob("src/fkpplab/*.py"):
        if path.name == "kinetics.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Name) and node.id == "EPS_MAX"
                    or isinstance(node, ast.alias) and node.name == "EPS_MAX"
                    or isinstance(node, ast.Attribute)
                    and ast.unparse(node) in ("math.e", "kinetics.EPS_MAX")):
                named.append(f"{path.name}:{node.lineno}")
    assert not named, named


def test_no_module_imports_another_modules_private_name():
    """A module's underscore names are its own: no src/fkpplab module imports
    one from another package module (a dunder such as __version__ is not
    one of them)."""
    imported = []
    for path in ROOT.glob("src/fkpplab/*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom)
                    and (node.level > 0 or node.module.split(".")[0] == "fkpplab")):
                imported += [f"{path.name}:{node.lineno} {alias.name}"
                             for alias in node.names if alias.name.startswith("_")
                             and not alias.name.endswith("__")]
    assert not imported, imported


# scipy.integrate loads the other four; the package needs none of them.
UNNEEDED_SCIPY = ("scipy.integrate", "scipy.interpolate", "scipy.optimize",
                  "scipy.special", "scipy.sparse")


def _loaded_by(modules):
    """Which of UNNEEDED_SCIPY a fresh interpreter has loaded once it has
    imported the modules."""
    src = str(Path(fkpplab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = (f"import sys, {modules}; print(sorted(m for m in sys.modules "
            f"if m in {UNNEEDED_SCIPY!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout.strip()


def test_solver_import_leaves_wave_shooting_modules_unloaded():
    """Importing the solver loads none of scipy.integrate, scipy.interpolate,
    scipy.optimize, scipy.special and scipy.sparse."""
    assert _loaded_by("fkpplab.solver") == "[]"


def test_cli_import_leaves_scipy_interpolate_unloaded():
    """Importing the CLI and the studies loads none of them either: the
    waves are shot by the package's own DOP853 (dop853.integrate) and
    evaluated from their own table's (U, U'), so scipy is imported only
    for grids' four LAPACK routines."""
    assert _loaded_by("fkpplab.cli, fkpplab.studies") == "[]"
