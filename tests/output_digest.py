"""The bytes of every CLI output, as a committed digest.

RUNS names each command line: the README's demo commands with --svg, the
generation study on the ladder config, and small radial, plane and
algebraic `simulate` configs.  output_digest.json, beside this file, holds
the numpy and scipy versions and, for each run, its exit code and the
SHA-256 of every file it writes under --out.  test_output_digest.py reruns
each and compares; a change that moves bytes rewrites the file with

    PYTHONPATH=src python tests/output_digest.py

which prints each run and file whose SHA-256 moved, and each run added or
dropped, against the file it replaces.
"""

import hashlib
import json
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy
import scipy

from fkpplab import cli, studies

ROOT = Path(__file__).resolve().parent.parent
DIGEST = Path(__file__).with_name("output_digest.json")

SIMULATE = {
    "radial": """\
[kinetics]
epsilon = 0.1

[geometry]
shape = ball
center = 0, 0, 0
radius = 0.4

[initial]
tail_lambda = 1.5
tail_cap = 0.01

[solver]
mode = radial
dim = 3
t_end = 0.2
""",
    "plane": """\
[kinetics]
epsilon = 0.1

[geometry]
shape = ellipse
center = 0, 0
semi_axes = 0.3, 0.2

[solver]
mode = plane
t_end = 0.2
""",
    "algebraic": """\
[kinetics]
epsilon = 0.1

[initial]
variant = algebraic
m = 0.5
n = 2.0

[solver]
mode = radial
t_end = 0.2
checkpoints = 0.1, 0.2
""",
}

# name -> (command, config: a file under the repository, or INI text)
RUNS = {
    "wave": ("wave", "demos/travelling_waves.ini"),
    "interface_formation": ("simulate", "demos/interface_formation.ini"),
    "speed": ("speed", "demos/ladder.ini"),
    "thickness": ("thickness", "demos/ladder.ini"),
    "no_interface": ("no-interface", "demos/no_interface.ini"),
    "barrier_sandwich": ("barriers", "demos/barrier_sandwich.ini"),
    "generation": ("generation", "demos/ladder.ini"),
    **{f"simulate_{name}": ("simulate", text) for name, text in SIMULATE.items()},
}


def versions():
    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def digest(name, work):
    """{"exit": code, "files": {name: sha256}} of one run, its --out a new
    directory under ``work``; the run and wave caches are cleared first, so
    no run reads another's results."""
    command, config = RUNS[name]
    work = Path(work)
    if config.endswith(".ini"):
        config = str(ROOT / config)
    else:
        path = work / f"{name}.ini"
        path.write_text(config)
        config = str(path)
    out = work / name
    studies._runs.clear()
    studies._waves.clear()
    with redirect_stdout(StringIO()):
        code = cli.main([command, "--config", config, "--out", str(out), "--svg"])
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.iterdir())}
    return {"exit": code, "files": files}


def moved(old, new):
    """One line per run in only one of the digests' runs, per changed exit
    code and per file whose SHA-256 differs (or is in only one run)."""
    for name in sorted(old.keys() | new.keys()):
        if name not in new or name not in old:
            yield f"{'dropped' if name in old else 'added'} run {name}"
            continue
        if old[name]["exit"] != new[name]["exit"]:
            yield f"{name}: exit {old[name]['exit']} -> {new[name]['exit']}"
        was, now = old[name]["files"], new[name]["files"]
        for file in sorted(was.keys() | now.keys()):
            if was.get(file) != now.get(file):
                yield f"moved {name}/{file}"


def main():
    old = json.loads(DIGEST.read_text())["runs"] if DIGEST.exists() else {}
    with tempfile.TemporaryDirectory() as work:
        runs = {name: digest(name, work) for name in RUNS}
    DIGEST.write_text(json.dumps({**versions(), "runs": runs}, indent=1) + "\n")
    print(f"wrote {DIGEST.relative_to(ROOT)}: {len(runs)} runs, "
          f"{sum(len(r['files']) for r in runs.values())} files")
    for line in moved(old, runs):
        print(line)


if __name__ == "__main__":
    main()
