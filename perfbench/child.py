"""One measured iteration of a workload, in a fresh interpreter.

    python3 perfbench/child.py --workload W --seed N [--trace] [--setup-only]

Imports fkpplab from the checkout's `src`, builds the workload's configs,
runs its operations (timed together as wall_s), and prints one JSON record
as the last line of stdout: the monotonic clock when set-up ended, wall_s,
peak RSS, library versions, and a digest of each operation's report (or the
error it raised).  With --trace the calls are timed per layer as well.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def _plain(x):
    """A report value as JSON: floats exactly, NaN as None."""
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return x
    x = float(x)
    return None if math.isnan(x) else x


def digest(report):
    """The parts of a report that its CSV records: rows, fits, verdicts."""
    return {
        "columns": list(report.columns),
        "rows": [[_plain(r.get(c)) for c in report.columns] for r in report.rows],
        "fits": [{"model": f["model"],
                  "parameters": [_plain(p) for p in f["parameters"]],
                  "residual": _plain(f["residual"])} for f in report.fits],
        "checks": [[c["name"], c["passed"]] for c in report.checks],
    }


def _versions():
    import numpy
    import scipy

    blas = "unknown"
    try:
        cfg = numpy.show_config(mode="dicts")
        dep = cfg["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep['version']}"
    except (TypeError, KeyError):
        pass
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import fkpplab.cli  # noqa: F401  (the command line's import cost)
    import fkpplab.studies  # noqa: F401

    p = workloads.params(args.workload, args.seed)
    workloads.build_configs(args.workload, p)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workdir = tempfile.mkdtemp(prefix=".perfbench_work_", dir=ROOT)
    ops = []
    try:
        t0 = time.perf_counter()
        for name, op in workloads.operations(args.workload, p, workdir):
            try:
                ops.append({"name": name, "report": digest(op())})
            except Exception as exc:  # a failed operation is counted, not fatal
                ops.append({"name": name, "error": f"{type(exc).__name__}: {exc}"})
        wall = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "ready": ready,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
        "ops": ops,
    }
    if tracer is not None:
        record["layers"] = tracer.summary()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
