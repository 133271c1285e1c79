"""Self-test of the benchmark: the layers each workload is predicted to reach
are reached, the semiflow is reached only by the barrier workload, tracing
does not change any report, and every report matches the reference.

    python3 -m pytest -q perfbench/tests      (about 3 minutes)

Each workload runs once untraced and once traced through run.py --trace 1.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from run import check_report  # noqa: E402


@pytest.fixture(scope="module", params=workloads.NAMES)
def traced(request, tmp_path_factory):
    save = tmp_path_factory.mktemp("perfbench") / "runs.jsonl"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", request.param,
         "--trace", "1", "--save", str(save)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(save.read_text().splitlines()[-1])
    return request.param, record


def test_predicted_layers_are_reached(traced):
    workload, record = traced
    layers = record["layers"]
    silent = [n for n in workloads.PREDICTED_NONZERO[workload]
              if layers[n]["calls"] == 0]
    assert not silent, f"{workload}: predicted layers not called: {silent}"
    called = [n for n in workloads.PREDICTED_ZERO.get(workload, ())
              if layers[n]["calls"] != 0]
    assert not called, f"{workload}: layers predicted idle were called: {called}"
    if workload == "line_ladder":  # thickness reuses the speed study's runs
        run_cache = layers["studies.cached_run"]
        assert (run_cache.get("hits"), run_cache.get("misses")) == (3, 6)


def test_tracing_keeps_reports_and_matches_reference(traced):
    workload, record = traced
    assert record["attempted"] >= 2
    assert record["failed"] == 0, f"{workload}: see run.py output"


def test_check_report_tolerance():
    ref = {"columns": ["a"], "rows": [[1.0]], "fits": [],
           "checks": [["c", True]]}
    near = {**ref, "rows": [[1.0 + 5e-9]]}
    far = {**ref, "rows": [[1.0 + 1e-6]]}
    flipped = {**ref, "checks": [["c", False]]}
    assert check_report(near, ref, values=True) == []
    assert check_report(far, ref, values=True)
    assert check_report(far, ref, values=False) == []
    assert check_report(flipped, ref, values=False)
