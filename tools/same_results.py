"""Same results in one command: run every benchmark workload's operations
on the package at a git revision and on the working tree, and compare
what they write and what they count.

    python3 tools/same_results.py REV
    python3 tools/same_results.py REV --smoke

Run from anywhere inside the repository. REV is materialised with
``git archive`` and the working tree's ``src/`` is copied, both into one
temporary directory. Each workload's inputs are generated once per seed,
by REV's package, and both sides read the same files. Every operation
then runs in a fresh interpreter with one side's ``src`` on the path and
the traced entry points of ``perfbench/bench.py`` installed
(``perfbench/tracer.py``): the counts compared are each entry point's
calls and summed work, the counts that ``perfbench/run.py --trace 1``
derives its counters from. The benchmark's extra ``e_step`` probes on the
fitted models are not rerun; they read the fitted model files, which are
compared byte for byte. graph-fit runs twice per side, traced in one
process (``--workers 1``) and untraced with ``--workers 2``, as forked
workers' spans are not collected.

Every workload runs at seeds 1 and 3, two processes at a time. Every
output tree must match byte for byte and every count exactly. The tool
prints one verdict table and exits 1 on any difference (2 when an
operation fails). The perfbench definitions (workloads, operations,
traced entry points) are read from this checkout for both sides.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
import warnings
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
SEEDS = (1, 3)
GRAPH_WORKERS = 2


def _perfbench(name: str):
    """The module ``name`` of perfbench/, imported with that directory on
    the path, as perfbench's own scripts import each other."""
    if PERFBENCH not in sys.path:
        sys.path.insert(0, PERFBENCH)
    return importlib.import_module(name)


def _env(src: str) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = src
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def materialise(rev: str, dest: str) -> str:
    """``src/`` of git revision ``rev`` under ``dest``; returns the path."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev, "src"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as fh:
        # git's own archive: the "data" filter only where tarfile has one
        if hasattr(tarfile, "data_filter"):
            fh.extractall(dest, filter="data")
        else:
            fh.extractall(dest)
    return os.path.join(dest, "src")


def copy_working_tree(dest: str) -> str:
    """A copy of the working tree's ``src/`` under ``dest``; returns the path."""
    out = os.path.join(dest, "src")
    shutil.copytree(os.path.join(ROOT, "src"), out,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return out


def _child(src: str, *args) -> dict:
    """Run this file's ``child`` mode with ``src`` on the path; its JSON."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "child", *map(str, args)],
                          env=_env(src), capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines()
        return {"error": lines[-1] if lines else f"exit {proc.returncode}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def child(argv: list[str]) -> int:
    """In a fresh interpreter: ``generate NAME SEED SMOKE INPUTS`` writes a
    workload's inputs; ``op NAME SEED SMOKE INPUTS OP OUT WORKERS TRACE``
    runs one operation through ``cascades.cli.main``, traced when TRACE
    is 1. Prints one JSON line."""
    mode, name, seed, smoke, inputs = argv[0], argv[1], int(argv[2]), argv[3] == "1", argv[4]
    workload = _perfbench("workloads").WORKLOADS[name](smoke=smoke)
    if mode == "generate":
        os.makedirs(inputs, exist_ok=True)
        print(json.dumps({"events": workload.generate(seed, inputs)}))
        return 0
    from cascades import cli  # every package module, before the tracer wraps them
    op, out, workers, trace = argv[5], argv[6], int(argv[7]), argv[8] == "1"
    tracer = _perfbench("tracer").Tracer()
    if trace:
        tracer.install(_perfbench("bench").TRACE_TARGETS)
    try:
        with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = cli.main(workload.argv(op, seed, inputs, out, workers))
    finally:
        tracer.restore()
    counts: dict[str, list[int]] = {}
    for span in tracer.spans:
        calls, work = counts.setdefault(span.name, [0, 0])
        counts[span.name] = [calls + 1, work + (span.work or 0)]
    counts.update({name: [n, 0] for name, n in tracer.calls.items()})
    print(json.dumps({"code": code, "counts": counts}))
    return 0


def _tree_files(root: str) -> list[str]:
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, files in os.walk(root) for f in files)


def _same_tree(a: str, b: str) -> tuple[int, int]:
    """(files identical in both trees, files in either)."""
    fa, fb = _tree_files(a), _tree_files(b)
    common = set(fa) & set(fb)
    same = sum(filecmp.cmp(os.path.join(a, f), os.path.join(b, f), shallow=False)
               for f in common)
    return same, len(set(fa) | set(fb))


def _runs(names, seeds) -> list[tuple]:
    """(workload, seed, op, workers, traced) for every operation to run."""
    out = []
    for name in names:
        for seed in seeds:
            for op in _perfbench("workloads").WORKLOADS[name].ops:
                out.append((name, seed, op, 1, True))
                if op == "graph-fit":
                    out.append((name, seed, op, GRAPH_WORKERS, False))
    return out


def compare_trees(ref_src: str, new_src: str, work: str, names, seeds=SEEDS,
                  smoke: bool = False) -> list[dict]:
    """Run every operation under both package trees and compare; one row
    per operation, with ``same`` False on any difference."""
    inputs = {(n, s): os.path.join(work, "inputs", f"{n}-{s}") for n in names for s in seeds}
    runs = _runs(names, seeds)
    flag = "1" if smoke else "0"

    def out_dir(side, run):
        name, seed, op, workers, _ = run
        return os.path.join(work, side, f"{name}-{seed}-{op}-w{workers}")

    def run_op(task):
        side, src, run = task
        name, seed, op, workers, traced = run
        return _child(src, "op", name, seed, flag, inputs[name, seed], op,
                      out_dir(side, run), workers, int(traced))

    with ThreadPoolExecutor(max_workers=2) as pool:  # two processes at a time
        made = list(pool.map(lambda key: _child(ref_src, "generate", key[0], key[1], flag,
                                                inputs[key]), inputs))
        bad = [m["error"] for m in made if "error" in m]
        if bad:
            raise RuntimeError(f"input generation failed: {bad[0]}")
        tasks = [(side, src, run) for run in runs
                 for side, src in (("ref", ref_src), ("new", new_src))]
        results = list(pool.map(run_op, tasks))
    rows = []
    for k, run in enumerate(runs):
        ref, new = results[2 * k], results[2 * k + 1]
        failed = [r.get("error") or f"exit code {r['code']}" for r in (ref, new)
                  if "error" in r or r["code"] != 0]
        same_files, n_files = (0, 0) if failed else _same_tree(out_dir("ref", run),
                                                               out_dir("new", run))
        counts = None if failed or not run[4] else ref["counts"] == new["counts"]
        rows.append({"workload": run[0], "seed": run[1], "op": run[2], "workers": run[3],
                     "failed": failed, "files": (same_files, n_files), "counts": counts,
                     "n_counts": len(ref.get("counts", {})),
                     "same": not failed and same_files == n_files and counts is not False})
    return rows


def format_table(rows: list[dict]) -> str:
    head = f"{'workload':<12} {'seed':>4}  {'operation':<18} {'files':<14} {'counts':<14} verdict"
    lines = [head, "-" * len(head)]
    for r in rows:
        op = f"{r['op']} (w={r['workers']})" if r["op"] == "graph-fit" else r["op"]
        same, n = r["files"]
        files = "-" if r["failed"] else f"{same}/{n} same"
        counts = ("-" if r["counts"] is None else
                  f"{r['n_counts']} " + ("same" if r["counts"] else "DIFFER"))
        verdict = ("FAILED: " + "; ".join(r["failed"])) if r["failed"] else (
            "same" if r["same"] else "DIFFERENT")
        lines.append(f"{r['workload']:<12} {r['seed']:>4}  {op:<18} {files:<14} {counts:<14} "
                     f"{verdict}")
    n_diff = sum(not r["same"] for r in rows)
    lines.append(f"{len(rows) - n_diff} of {len(rows)} operations the same")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["child"]:
        return child(argv[1:])
    names = sorted(_perfbench("workloads").WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("rev", help="git revision to compare the working tree with")
    parser.add_argument("--smoke", action="store_true", help="the workloads' tiny inputs")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same-results-") as work:
        ref = materialise(args.rev, os.path.join(work, "rev"))
        new = copy_working_tree(os.path.join(work, "tree"))
        rows = compare_trees(ref, new, work, names, SEEDS, args.smoke)
    print(f"# {args.rev} against the working tree, seeds {list(SEEDS)}"
          + (", smoke size" if args.smoke else ""))
    print(format_table(rows))
    if any(r["failed"] for r in rows):
        return 2
    return 0 if all(r["same"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
