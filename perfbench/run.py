"""Benchmark entry point for the cascades command line tools.

    python3 perfbench/run.py --workload labels-long --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 15

Run from the repository root. One run sets a workload up five times,
each in a fresh interpreter (set-up time is the median), then measures
its CLI operations in another fresh process for --seconds, closed loop,
one operation at a time. Times are normalized to a reference host speed
by calibrate.py (unit s_norm; setup_s keeps the unit s that the
benchmark contract fixes), with raw wall times printed beside them.
With --trace 1 it instead runs a traced cycle between two untraced ones
and reports per-layer metrics. The last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics; the
lines before it name every metric with its unit, and the full record
(provenance, samples, spans) goes to perfbench/out/results/. --all runs
every workload, traced and untraced, and prints one table. See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
DEADLINE_S = 170.0  # a run must end within 180 s

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREADS:
    os.environ[_var] = "1"  # before numpy is imported, here and in every child

sys.path.insert(0, HERE)
from calibrate import probe_normalized  # noqa: E402
from workloads import tree_digest  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(argv: list[str], deadline: float) -> tuple[float, str, str]:
    """Run a child in its own process group; on timeout kill the group
    (graph-fit workers included) and wait for it. Returns (wall s,
    stdout, stderr)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "bench.py")] + argv,
                            env=_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"bench.py {argv[0]} ran past the deadline")
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"bench.py {argv[0]} exited with {proc.returncode}:\n{err}")
    return elapsed, out, err


def _provenance(workload: str, seed: int, measured: dict) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "cascades")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {"git_sha": sha, "source_sha256": src.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": measured["numpy"], "scipy": measured["scipy"],
            "workload": workload, "seed": seed}


def run_one(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    """One benchmark run; returns the full record (see README.md)."""
    deadline = time.monotonic() + DEADLINE_S
    tag = f"{workload}-seed{seed}-trace{trace}" + ("-smoke" if smoke else "")
    work = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    extra = ["--smoke"] if smoke else []
    try:
        setup_times, setup_norm = [], []
        digests = set()
        for k in range(SETUP_REPEATS if not trace else 1):
            inputs = os.path.join(work, f"inputs{k}")
            wall, out, _ = _run_child(["setup", "--workload", workload, "--seed", str(seed),
                                  "--out", inputs] + extra, deadline)
            setup_times.append(wall)
            probed = json.loads(out)
            setup_norm.append(probe_normalized(wall, probed["probes"], probed["spent"]))
            digests.add(tree_digest(inputs))
        result_path = os.path.join(work, "measure.json")
        _, _, stderr = _run_child(["measure", "--workload", workload, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", str(trace),
                                "--inputs", inputs, "--work", os.path.join(work, "ops"),
                                "--result", result_path] + extra, deadline)
        with open(result_path) as fh:
            measured = json.load(fh)
        spans_path = os.path.join(work, "ops", "spans.json")
        spans = None
        if os.path.exists(spans_path):
            with open(spans_path) as fh:
                spans = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(digests) != 1:
        measured["errors"].append("set-up wrote different inputs on repetition")
    record = {"provenance": _provenance(workload, seed, measured), "seconds": seconds,
              "smoke": smoke, "setup_wall_samples": setup_times,
              "setup_norm_samples": setup_norm, "measure": measured,
              "stderr_tail": stderr[-2000:], "spans": spans}
    record["metrics"] = _metrics(record, trace)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


OP_METRICS = {"simulate": "simulate_s", "fit": "fit_s", "compare": "compare_s",
              "graph-fit": "graph_fit_s"}
# Wall seconds scaled to the reference host speed (calibrate.py).
NORM_UNIT = "s_norm"


def _metrics(record: dict, trace: int) -> dict:
    """All metrics of a run as {name: (value, unit, samples)}."""
    meas = record["measure"]
    out = {}
    if trace:
        for name, value in meas["layers"].items():
            out[name] = (value, _layer_unit(name), None)
        return out

    def med(name, samples, unit):
        out[name] = (statistics.median(samples), unit, len(samples))

    # The contract fixes setup_s's unit as "s"; its value is normalized
    # like the operations' (README.md), with the wall twin beside it.
    med("setup_s", record["setup_norm_samples"], "s")
    med("cycle_s", [norm for _, norm in meas["cycles"]], NORM_UNIT)
    out["peak_rss_mb"] = (meas["peak_rss_mb"], "MB", 1)
    for op in meas["samples"]:
        med(OP_METRICS[op], meas["norm_samples"][op], NORM_UNIT)
    med("setup_wall_s", record["setup_wall_samples"], "s")
    med("cycle_wall_s", [wall for wall, _ in meas["cycles"]], "s")
    for op, samples in meas["samples"].items():
        med(OP_METRICS[op][:-2] + "_wall_s", samples, "s")
    med("probe_cpu_s", meas["probe_cpu"], "s")
    return out


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _print_record(record: dict, trace: int) -> None:
    prov = record["provenance"]
    meas = record["measure"]
    print(f"# {prov['workload']} seed {prov['seed']} trace {trace}: git {prov['git_sha']}, "
          f"source {prov['source_sha256'][:12]}, nproc {prov['nproc']}, python "
          f"{prov['python']}, numpy {prov['numpy']}, scipy {prov['scipy']}")
    if trace:
        print(f"# traced with graph-fit --workers {meas['graph_workers']}: spans of "
              "forked workers are not collected")
        if meas["trace_checks"]["absent"]:
            print(f"# absent entry points: {', '.join(meas['trace_checks']['absent'])}")
    for name, (value, unit, n) in record["metrics"].items():
        if value is None:
            print(f"{name} absent {unit} (its entry point no longer exists)")
            continue
        tail = f" (median of {n})" if n and n > 1 else ""
        print(f"{name} {value!r} {unit}{tail}")
    print(f"operations attempted {meas['attempted']} failed {meas['failed']}")
    for err in meas["errors"]:
        print(f"# FAILED {err}", file=sys.stderr)


def _result_line(record: dict, trace: int, spec: dict) -> dict:
    meas = record["measure"]
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    metrics = {}
    for name in names:
        value, unit, _ = record["metrics"][name]
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": not meas["errors"], "attempted": meas["attempted"],
            "failed": meas["failed"], "metrics": metrics}


def run_all(seed: int, seconds: float, spec: dict, smoke: bool) -> int:
    """Every workload untraced then traced; prints one table, then one
    JSON line in the format of trajectory.jsonl."""
    rows = []
    failed = 0
    point = {"seed": seed, "seconds": seconds, "workloads": {}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            rec = run_one(w["name"], seed, seconds, trace, smoke)
            _print_record(rec, trace)
            failed += len(rec["measure"]["errors"])
            row = point["workloads"].setdefault(w["name"], {})
            row.update({name: value for name, (value, _, _) in rec["metrics"].items()})
            prefix = "traced_" if trace else ""
            row[prefix + "attempted"] = rec["measure"]["attempted"]
            row[prefix + "failed"] = rec["measure"]["failed"]
            prov = rec["provenance"]
            point.update({k: prov[k] for k in ("git_sha", "source_sha256", "nproc",
                                               "python", "numpy", "scipy")})
            if not trace:
                rows.append((w["name"], rec))
    cols = ["setup_s", "simulate_s", "fit_s", "compare_s", "graph_fit_s", "cycle_s",
            "cycle_wall_s", "peak_rss_mb"]
    print()
    print("workload".ljust(12) + "".join(c.rjust(13) for c in cols) + "   ops  failed")
    for name, rec in rows:
        cells = [rec["metrics"].get(c) for c in cols]
        print(name.ljust(12) + "".join(("-" if c is None else f"{c[0]:.3f}").rjust(13)
                                       for c in cells)
              + f"{rec['measure']['attempted']:6d}{rec['measure']['failed']:8d}")
    print(f"units: cycle_wall_s in wall seconds, peak_rss_mb in MiB, the rest in "
          f"{NORM_UNIT} (wall seconds scaled by calibrate.py), setup_s included")
    print(json.dumps(point, sort_keys=True))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "cascades")):
        print(f"error: no package sources at {SRC}/cascades; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    spec = _spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.all:
        return run_all(args.seed, seconds, spec, args.smoke)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error("--workload must name a workload in BENCHMARK.json, or pass --all")
    record = run_one(args.workload, args.seed, seconds, args.trace, args.smoke)
    _print_record(record, args.trace)
    print(json.dumps(_result_line(record, args.trace, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
