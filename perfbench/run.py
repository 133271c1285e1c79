"""fkpplab benchmark: times the eps-ladder studies end to end and per layer.

    python3 perfbench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]
                             [--save FILE.jsonl]
    python3 perfbench/run.py --compare A.jsonl B.jsonl

Every iteration runs in a fresh interpreter (perfbench/child.py), so the
study caches start empty as in a command-line run.  With --trace 0 the run
takes SETUP_PROBES set-up-only interpreters, then repeats the workload until
--seconds have passed and at least MIN_ITERATIONS have run, and reports the
medians of wall_s, setup_s and peak_rss_mb.  With --trace 1 it runs the workload once untraced
and once traced, and reports the per-layer metrics and the tracing overhead.
Every operation's report is checked against perfbench/reference.json.  The
last line of stdout is the result as one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import layer_metrics  # noqa: E402

SETUP_PROBES = 1
MIN_ITERATIONS = 2
CHILD_TIMEOUT_S = 170
# Report values may move by at most ATOL + RTOL * |reference|; README.md
# justifies both against the planned solver and semiflow rewrites.
RTOL = 1e-8
ATOL = 1e-8
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not an operation failure)."""


def _spawn(workload, seed, trace=False, setup_only=False):
    """Run child.py once; return (its record, set-up seconds)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **THREAD_ENV}
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"child timed out after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError(f"child exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    return record, record["ready"] - start


def _close(got, ref):
    if got is None or ref is None or isinstance(ref, (bool, str)):
        return got == ref
    return abs(got - ref) <= ATOL + RTOL * abs(ref)


def check_report(got, ref, values):
    """Problems of one operation's report digest against its reference.
    Verdicts must match exactly; with `values` every row, fit parameter and
    residual must also lie within tolerance."""
    if got["checks"] != ref["checks"]:
        return [f"verdicts {got['checks']} != reference {ref['checks']}"]
    if not values:
        return []
    if got["columns"] != ref["columns"] or len(got["rows"]) != len(ref["rows"]):
        return ["report table shape differs from the reference"]
    problems = []
    for i, (row, rrow) in enumerate(zip(got["rows"], ref["rows"])):
        for col, a, b in zip(ref["columns"], row, rrow):
            if not _close(a, b):
                problems.append(f"row {i} {col}: {a!r} vs reference {b!r}")
    if [f["model"] for f in got["fits"]] != [f["model"] for f in ref["fits"]]:
        return problems + ["fit models differ from the reference"]
    for f, rf in zip(got["fits"], ref["fits"]):
        pairs = list(zip(f["parameters"], rf["parameters"]))
        pairs.append((f["residual"], rf["residual"]))
        if len(f["parameters"]) != len(rf["parameters"]) or not all(
                _close(a, b) for a, b in pairs):
            problems.append(f"fit {f['model']}: {f['parameters']} "
                            f"residual {f['residual']} vs reference {rf}")
    return problems


def check_ops(record, reference, seed):
    """[(op name, problems)] for one child record."""
    out = []
    for op in record["ops"]:
        if "error" in op:
            out.append((op["name"], [op["error"]]))
        elif op["name"] not in reference:
            out.append((op["name"], ["no reference for this operation"]))
        else:
            out.append((op["name"], check_report(op["report"],
                                                 reference[op["name"]],
                                                 values=seed == 0)))
    return out


def _read_steal():
    """(steal, total) jiffies of all CPUs, from /proc/stat (read only)."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine_block(versions, steal0, steal1):
    block = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **versions,
        "thread_env": THREAD_ENV,
        "loadavg_1m": os.getloadavg()[0],
    }
    if steal0 and steal1 and steal1[1] > steal0[1]:
        block["steal_share"] = (steal1[0] - steal0[0]) / (steal1[1] - steal0[1])
    return block


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args, reference):
    """Run the workload; return (metrics, samples, op results, versions,
    extra record fields)."""
    if args.trace:
        plain, _ = _spawn(args.workload, args.seed)
        traced, _ = _spawn(args.workload, args.seed, trace=True)
        results = check_ops(plain, reference, args.seed)
        for (name, problems), op, twin in zip(
                check_ops(traced, reference, args.seed), traced["ops"],
                plain["ops"]):
            if op != twin:
                problems = problems + ["traced report differs from untraced"]
            results.append((name, problems))
        metrics = layer_metrics(traced["layers"],
                                traced["wall_s"] - plain["wall_s"])
        samples = {"wall_s": [plain["wall_s"]],
                   "traced_wall_s": [traced["wall_s"]]}
        extra = {"layers": traced["layers"]}
        return metrics, samples, results, plain["versions"], extra

    setups = [_spawn(args.workload, args.seed, setup_only=True)[1]
              for _ in range(SETUP_PROBES)]
    records = []
    start = time.monotonic()
    while (len(records) < MIN_ITERATIONS
           or time.monotonic() - start < args.seconds):
        record, setup = _spawn(args.workload, args.seed)
        records.append(record)
        setups.append(setup)
    results = [r for rec in records for r in check_ops(rec, reference, args.seed)]
    samples = {"wall_s": [r["wall_s"] for r in records], "setup_s": setups,
               "peak_rss_mb": [r["peak_rss_mb"] for r in records]}
    metrics = {m["name"]: _metric(statistics.median(samples[m["name"]]), m["unit"])
               for m in _spec()["end_to_end"]}
    return metrics, samples, results, records[0]["versions"], {}


def run(args):
    if not (ROOT / "src" / "fkpplab" / "__init__.py").is_file():
        raise HarnessError(f"no fkpplab sources under {ROOT / 'src'}")
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)[args.workload]
    steal0 = _read_steal()
    metrics, samples, results, versions, extra = measure(args, reference)
    machine = machine_block(versions, steal0, _read_steal())

    failed = sum(1 for _, problems in results if problems)
    for key, value in machine.items():
        print(f"machine {key}: {value}")
    for name, problems in results:
        print(f"op {name}: {'ok' if not problems else 'FAILED'}")
        for p in problems[:10]:
            print(f"    {p}")
    print(f"ops_failed: {failed} of {len(results)} attempted")
    for name, values in samples.items():
        print(f"samples {name}: " + ", ".join(f"{v:.4f}" for v in values))
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": len(results),
              "failed": failed, "metrics": metrics}
    if args.save:
        with open(args.save, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "seconds": args.seconds,
                                 "machine": machine, "samples": samples,
                                 **extra, **result}) + "\n")
    print(json.dumps(result))


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(a, b, better, bound):
    """improved / unchanged / regressed / unresolved for B against A."""
    qa1, ma, qa3 = _quartiles(a)
    qb1, mb, qb3 = _quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (mb - ma) / ma
    wins = sum(1 for x in a for y in b if sign * (y - x) < 0)
    if wins >= 0.9 * len(a) * len(b) and sign * (ma - mb) > qa3 - qa1:
        return "improved"
    if worse > bound:
        return "regressed"
    if max((qa3 - qa1) / ma, (qb3 - qb1) / mb) > bound:
        return "unresolved"
    return "unchanged"


def compare(path_a, path_b):
    spec = _spec()
    sides = []
    for path in (path_a, path_b):
        with open(path) as fh:
            sides.append([json.loads(line) for line in fh if line.strip()])
    print(f"A = {path_a}\nB = {path_b}")
    for name in workloads.NAMES:
        runs = [[r for r in side if r["workload"] == name] for side in sides]
        if not all(runs):
            continue
        print(f"\n== {name}")
        for m in spec["end_to_end"]:
            vals = [[r["metrics"][m["name"]]["value"] for r in side
                     if not r["trace"]] for side in runs]
            if not all(vals):
                continue
            (a1, am, a3), (b1, bm, b3) = (_quartiles(v) for v in vals)
            print(f"{m['name']:>12} [{m['unit']}]  A {am:.4g} ({a1:.4g}..{a3:.4g},"
                  f" n={len(vals[0])})  B {bm:.4g} ({b1:.4g}..{b3:.4g},"
                  f" n={len(vals[1])})  B/A {bm / am:.3f}  "
                  f"{verdict(*vals, m['better'], m['bound'])}"
                  f" (bound {m['bound']:g})")
        failed = [sum(r["failed"] for r in side) for side in runs]
        attempted = [sum(r["attempted"] for r in side) for side in runs]
        print(f"{'ops_failed':>12}  A {failed[0]}/{attempted[0]}"
              f"  B {failed[1]}/{attempted[1]}")
        traced = [[r for r in side if r["trace"]] for side in runs]
        if not all(traced):
            continue
        for m in spec["per_layer"]:
            a, b = (statistics.median(r["metrics"][m["name"]]["value"]
                                      for r in side) for side in traced)
            if a == 0 and b == 0:
                continue
            ratio = f"{b / a:.3f}" if a else "new"
            print(f"  {m['name']:<40} A {a:<12.5g} B {b:<12.5g} "
                  f"delta {b - a:<+12.5g} B/A {ratio}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="append this run's record to a JSONL file")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two files written by --save")
    args = ap.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    try:
        run(args)
    except (HarnessError, OSError, json.JSONDecodeError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
