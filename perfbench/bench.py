"""Child process of run.py: ``setup`` writes a workload's inputs, and
``measure`` runs its CLI operations in a closed loop, checks every output
and reports timings, peak memory and (with --trace 1) per-layer spans.

Each mode runs in a fresh interpreter started by run.py, which pins the
BLAS thread counts and puts the package sources on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pickle
import resource
import shutil
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from calibrate import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (SPLIT, WORKLOADS, CheckFailed, check_against_reference,  # noqa: E402
                       tree_digest)

HERE = os.path.dirname(os.path.abspath(__file__))
GRAPH_WORKERS = 2  # graph-fit worker processes; the benchmark host has 2 cores
# Largest allowed difference between a traced command's wall time and the
# self times of its spans: the few calls between run_op's clock and the span.
SELF_TIME_TOLERANCE_S = 2e-3


def _pairs(resp) -> int:
    return sum(len(p) for p in resp.comp_parents)


# (module, attribute, span name, work counter). Every public entry point
# the CLI reaches, grouped by the package module (layer) that defines it.
# A work counter maps (arguments by parameter name, result) to a count.
TRACE_TARGETS = [
    ("cascades.events", "ingest", "events.ingest", lambda a, r: len(r)),
    ("cascades.events", "write_events", "events.write_events", None),
    ("cascades.events", "split", "events.split", None),
    ("cascades.events", "Dataset.merge_history", "events.merge_history", None),
    ("cascades.simulate", "simulate", "simulate.simulate", lambda a, r: len(r[0])),
    ("cascades.simulate", "write_forest", "simulate.write_forest", None),
    ("cascades.simulate", "_poisson_count", "simulate.offspring_draws", "count"),
    ("cascades.engine", "fit", "engine.fit", lambda a, r: r.iterations),
    ("cascades.engine", "e_step", "engine.e_step", lambda a, r: _pairs(r)),
    ("cascades.engine", "fast_estep", "engine.fast_estep", lambda a, r: len(a["d"])),
    ("cascades.engine", "m_step", "engine.m_step", None),
    ("cascades.engine", "normalize", "engine.normalize", None),
    ("cascades.engine", "compensator", "engine.compensator", None),
    ("cascades.engine", "log_likelihood", "engine.log_likelihood", None),
    ("cascades.engine", "windowed_log_likelihood", "engine.windowed_log_likelihood", None),
    ("cascades.engine", "expected_transition_counts", "engine.expected_transition_counts",
     None),
    ("cascades.fertility", "update", "fertility.update", lambda a, r: len(a["credits"])),
    ("cascades.delays", "weighted_mle", "delays.weighted_mle", lambda a, r: len(a["deltas"])),
    ("cascades.transitions", "fit_categorical", "transitions.fit_categorical", None),
    ("cascades.transitions", "fit_mixture_from_stats", "transitions.fit_mixture_from_stats",
     None),
    ("cascades.transitions", "fit_prior", "transitions.fit_prior", None),
    ("cascades.transitions", "fit_prior_weighted", "transitions.fit_prior_weighted", None),
    ("cascades.transitions", "fit_marginal", "transitions.fit_marginal", None),
    ("cascades.transitions", "fit_marginal_weighted", "transitions.fit_marginal_weighted",
     None),
    ("cascades.graphs", "simulate_graph", "graphs.simulate_graph", lambda a, r: len(r[0])),
    ("cascades.graphs", "load_graph", "graphs.load_graph", None),
    ("cascades.graphs", "fit_graph", "graphs.fit_graph", None),
    ("cascades.graphs", "fit_round", "graphs.fit_round", None),
    ("cascades.graphs", "fit_node", "graphs.fit_node", None),
    ("cascades.graphs", "graph_log_likelihood", "graphs.graph_log_likelihood", None),
]


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child (the
    graph-fit workers), in MiB; ru_maxrss is in KiB on Linux."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def cmd_setup(args) -> int:
    # The probes start after numpy's import (by calibrate.py) and cover
    # the package's import, input generation and file writes; they are
    # printed for run.py, which times the whole process.
    with SpeedProbe() as probe:
        workload = WORKLOADS[args.workload](smoke=args.smoke)
        os.makedirs(args.out, exist_ok=True)
        workload.generate(args.seed, args.out)
    print(json.dumps({"probes": probe.samples, "spent": probe.spent}))
    return 0


class Runner:
    """Runs one workload's cycles and records every operation."""

    def __init__(self, workload, seed: int, inputs: str, work: str, reference: dict):
        from cascades import cli
        self.main = cli.main
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.work = work
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = {op: [] for op in workload.ops}
        self.norm_samples: dict[str, list[float]] = {op: [] for op in workload.ops}
        self.probe_cpu: list[float] = []  # every probe's CPU seconds
        self.probe_counts: dict[str, list[int]] = {op: [] for op in workload.ops}
        self.digests: dict[str, set] = {op: set() for op in workload.ops}
        self.values: dict[str, dict] = {}
        self.last_walls: dict[str, float] = {}  # each operation's time in the last cycle

    def run_op(self, op: str, workers: int, probe: SpeedProbe,
               tracer: Tracer | None = None) -> float:
        out = os.path.join(self.work, op)
        shutil.rmtree(out, ignore_errors=True)
        argv = self.workload.argv(op, self.seed, self.inputs, out, workers)
        self.attempted += 1
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            # the probes run inside the command's span, which must cover
            # all of run_op's clock but a few calls (SELF_TIME_TOLERANCE_S)
            span = tracer.span(f"cli.{op}") if tracer else contextlib.nullcontext()
            with contextlib.redirect_stdout(sink), span, probe:
                code = self.main(argv)
        except Exception:  # a crash is a failed operation, not a failed run
            self.fail(f"{op}: {traceback.format_exc(limit=3)}")
            return time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        if code != 0:
            self.fail(f"{op}: exit code {code}")
            return elapsed
        try:
            got = self.workload.check(op, self.seed, self.inputs, out)
            check_against_reference(self.workload, op, self.seed, got, self.reference)
        except (CheckFailed, OSError, KeyError, ValueError) as exc:
            self.fail(f"{op}: {exc}")
            return elapsed
        self.values[op] = got
        self.digests[op].add(tree_digest(out))
        return elapsed

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def cycle(self, workers: int, tracer: Tracer | None = None) -> tuple[float, float]:
        """One pass through the workload's operations, each sampled by a
        SpeedProbe. Returns the summed wall and normalized times of the
        operations."""
        before = self.failed
        self.values = {}
        wall = norm = 0.0
        for op in self.workload.ops:
            probe = SpeedProbe()
            op_wall = self.run_op(op, workers, probe, tracer)
            op_norm = probe.normalized(op_wall)
            self.last_walls[op] = op_wall
            self.samples[op].append(op_wall)
            self.norm_samples[op].append(op_norm)
            self.probe_cpu.extend(probe.samples)
            self.probe_counts[op].append(len(probe.samples))
            wall += op_wall
            norm += op_norm
        if self.failed == before:
            try:
                self.workload.cross_check(self.values)
            except CheckFailed as exc:
                self.fail(str(exc))
        return wall, norm

    def finish_checks(self) -> None:
        # every repetition of an operation must write identical bytes
        for op, seen in self.digests.items():
            if len(seen) > 1:
                self.fail(f"{op}: outputs differ between repetitions")


def _layer_metrics(tracer: Tracer, op_walls: dict[str, float]) -> tuple[dict, dict]:
    """Per-layer metrics from the traced cycle, whose operations took
    ``op_walls`` by run_op's own clock. Returns (metrics, checks). A
    metric that needs an absent entry point is None, not 0."""
    spans = tracer.spans
    self_t = tracer.self_times()
    absent = set(tracer.absent)

    def incl(*names) -> float | None:
        if absent.intersection(names):
            return None
        return sum((spans[i].duration for n in names for i in tracer.outermost(n)), 0.0)

    def work(*names) -> int | None:
        if absent.intersection(names):
            return None
        return sum(spans[i].work or 0 for n in names for i in tracer.outermost(n))

    def n_calls(name) -> int | None:
        return None if name in absent else sum(1 for s in spans if s.name == name)

    def rate(count, seconds) -> float | None:
        if count is None or seconds is None:
            return None
        return count / seconds if seconds > 0 else 0.0

    fits = [i for i, s in enumerate(spans) if s.name == "engine.fit"]
    mstep_children = {i: 0 for i in fits}
    for s in spans:
        if s.name == "engine.m_step" and s.parent in mstep_children:
            mstep_children[s.parent] += 1
    useful = sum(spans[i].work or 0 for i, c in mstep_children.items() if c)
    m_in_fits = sum(mstep_children.values())
    has_fit = "engine.fit" not in absent

    m = {}
    m["events.ingest_s"] = incl("events.ingest")
    m["events.ingest_events_per_s"] = rate(work("events.ingest"), m["events.ingest_s"])
    m["events.write_s"] = incl("events.write_events")
    m["events.split_s"] = incl("events.split", "events.merge_history")
    m["simulate.simulate_s"] = incl("simulate.simulate", "graphs.simulate_graph")
    m["simulate.events_per_s"] = rate(work("simulate.simulate", "graphs.simulate_graph"),
                                      m["simulate.simulate_s"])
    m["simulate.offspring_draws"] = tracer.calls.get("simulate.offspring_draws")
    m["engine.estep_fast_s"] = incl("engine.fast_estep")
    m["engine.estep_fast_events_per_s"] = rate(work("engine.fast_estep"),
                                               m["engine.estep_fast_s"])
    m["engine.estep_direct_s"] = incl("engine.e_step")
    m["engine.estep_direct_pairs"] = work("engine.e_step")
    m["engine.estep_direct_pairs_per_s"] = rate(m["engine.estep_direct_pairs"],
                                                m["engine.estep_direct_s"])
    m["engine.fit_self_s"] = sum(self_t[i] for i in fits) if has_fit else None
    m["engine.mstep_s"] = incl("engine.m_step")
    m["engine.compensator_s"] = incl("engine.compensator")
    m["engine.normalize_s"] = incl("engine.normalize")
    m["engine.loglik_s"] = incl("engine.log_likelihood", "engine.windowed_log_likelihood")
    m["engine.em_iterations"] = work("engine.fit")
    m["engine.mstep_calls"] = n_calls("engine.m_step")
    m["engine.mstep_useful_ratio"] = (
        None if absent.intersection({"engine.fit", "engine.m_step"})
        else useful / m_in_fits if m_in_fits else 0.0)
    m["fertility.update_s"] = incl("fertility.update")
    m["fertility.update_rows"] = work("fertility.update")
    m["delays.mle_s"] = incl("delays.weighted_mle")
    m["delays.mle_pairs"] = work("delays.weighted_mle")
    m["transitions.fit_s"] = incl(*(name for _, _, name, _ in TRACE_TARGETS
                                    if name.startswith("transitions.")))
    m["graphs.fit_round_s"] = incl("graphs.fit_round")
    m["graphs.fit_node_s"] = incl("graphs.fit_node")
    m["graphs.node_fits"] = n_calls("graphs.fit_node")
    m["graphs.graph_ll_s"] = incl("graphs.graph_log_likelihood")

    commands = {i: s.name[len("cli."):] for i, s in enumerate(spans)
                if s.name.startswith("cli.")}
    m["cli.self_s"] = sum(self_t[i] for i in commands)

    # The self times of each command's spans, cli.<op> included, must add
    # up to the command's wall time as run_op measured it outside the
    # span, to within SELF_TIME_TOLERANCE_S.
    root = {}
    for i, s in enumerate(spans):
        if i in commands:
            root[i] = i
        elif s.parent in root:
            root[i] = root[s.parent]
    covered = dict.fromkeys(commands, 0.0)
    for i, r in root.items():
        covered[r] += self_t[i]
    gaps = {op: covered[i] - op_walls[op] for i, op in commands.items()}
    checks = {"self_time_gap_s": gaps, "absent": tracer.absent}
    return m, checks


def _probe_estep(runner: Runner, workload) -> list:
    """Public e_step calls on the training data under each fitted model,
    prepared untraced so only the e_step calls fall inside spans."""
    from cascades import config as cfg
    from cascades import events
    if workload.name == "graph-ring":
        return []  # graph-fit's per-node fits already call e_step
    data = events.split(events.ingest(os.path.join(runner.inputs, "events.jsonl")),
                        SPLIT)[0]
    outputs = [os.path.join(runner.work, "fit", "model.json")]
    if "compare" in workload.ops:
        outputs.append(os.path.join(runner.work, "compare", "model_gamma.json"))
    models = []
    for path in outputs:
        with open(path) as fh:
            models.append(cfg.parse_model(json.load(fh), path, data=data))
    return [(m, data) for m in models]


def _pickled_bytes(inputs: str) -> int:
    """Pickled size of the freshly ingested training split: what every
    graph-fit worker payload carries, computed rather than measured."""
    from cascades import events
    train, _ = events.split(events.ingest(os.path.join(inputs, "events.jsonl")), SPLIT)
    return len(pickle.dumps(train))


def cmd_measure(args) -> int:
    workload = WORKLOADS[args.workload](smoke=args.smoke)
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    workers = GRAPH_WORKERS if workload.name == "graph-ring" else 1
    runner = Runner(workload, args.seed, args.inputs, args.work, reference)
    result: dict = {"workload": workload.name, "seed": args.seed, "trace": args.trace}

    if not args.trace:
        cycles = []
        t_start = time.perf_counter()
        while True:
            cycles.append(runner.cycle(workers))
            if time.perf_counter() - t_start >= args.seconds:
                break
        result["cycles"] = cycles
    else:
        # forked workers' spans are not collected, so both the untraced
        # and the traced cycle run graph-fit in-process
        workers = 1
        untraced = [runner.cycle(workers)]
        estep_inputs = _probe_estep(runner, workload)
        tracer = Tracer()
        tracer.install(TRACE_TARGETS)
        setup_dir = os.path.join(args.work, "traced-setup")
        os.makedirs(setup_dir, exist_ok=True)
        try:
            with tracer.span("setup.generate"):
                workload.generate(args.seed, setup_dir)
            traced = runner.cycle(workers, tracer)
            traced_walls = dict(runner.last_walls)
            from cascades import engine
            for model, data in estep_inputs:
                engine.e_step(model, data)
        finally:
            tracer.restore()
        # untraced cycles on both sides of the traced one, so warm-up
        # does not count as tracing overhead
        untraced.append(runner.cycle(workers))
        layers, checks = _layer_metrics(tracer, traced_walls)
        layers["trace.overhead_ratio"] = traced[1] / (sum(n for _, n in untraced) / 2)
        layers["events.dataset_pickle_bytes"] = _pickled_bytes(args.inputs)
        gaps = checks["self_time_gap_s"]
        if sorted(gaps) != sorted(workload.ops) or any(
                abs(g) > SELF_TIME_TOLERANCE_S for g in gaps.values()):
            runner.errors.append(f"span self times do not add up to the commands' "
                                 f"wall times: {gaps}")
        result.update(cycles=untraced, traced_cycle=traced, layers=layers,
                      trace_checks=checks)
        with open(os.path.join(args.work, "spans.json"), "w") as fh:
            json.dump(tracer.to_json(), fh)

    runner.finish_checks()
    import numpy
    import scipy
    result.update(attempted=runner.attempted, failed=runner.failed,
                  errors=runner.errors[:10], samples=runner.samples,
                  norm_samples=runner.norm_samples, probe_cpu=runner.probe_cpu,
                  probe_counts=runner.probe_counts,
                  values=runner.values, peak_rss_mb=_peak_rss_mb(), graph_workers=workers,
                  numpy=numpy.__version__, scipy=scipy.__version__)
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1, allow_nan=False)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p_setup.add_argument("--seed", type=int, required=True)
    p_setup.add_argument("--out", required=True)
    p_setup.add_argument("--smoke", action="store_true")
    p_setup.set_defaults(func=cmd_setup)
    p_meas = sub.add_parser("measure")
    p_meas.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p_meas.add_argument("--seed", type=int, required=True)
    p_meas.add_argument("--seconds", type=float, required=True)
    p_meas.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p_meas.add_argument("--inputs", required=True)
    p_meas.add_argument("--work", required=True)
    p_meas.add_argument("--result", required=True)
    p_meas.add_argument("--smoke", action="store_true")
    p_meas.set_defaults(func=cmd_measure)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
