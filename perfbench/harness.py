"""Closed-loop measurement, golden fingerprints, metrics and the run record."""

from __future__ import annotations

import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import scipy

import calibrate
from tracer import MODULES, OP_SPAN, Tracer
from workloads import WORKLOADS, CliWorkflow

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

# Ops whose fingerprints are recorded in golden.json, per workload, at every
# recorded seed. Later ops of a run are checked by invariants only.
GOLDEN_OPS = {"mc_null": 20, "rank_synth": 6, "cli_workflow": 2}
GOLDEN_SEEDS = range(0, 21)

# A tail latency needs this many ops beyond it.
TAIL_OPS_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
)

DERIVE_RNG_TAGS = ("pass", "conditional", "simulate", "split", "truth")
INFERENCE_PROCEDURES = (
    "test_two_sample_fid", "test_feature_significance", "test_conditional_coherence", "pivotal_inference",
)
CLI_SUBCOMMANDS = (
    "simulate", "fit", "synthesize", "test-fid", "test-feature", "test-coherence", "test-pivotal",
    "predict", "coverage", "verify-report",
)

PER_LAYER = (
    ("streams.derive_rng.calls", "count/op"),
    ("streams.derive_rng.self_s", "s/op"),
    *((f"streams.derive_rng.calls_by_tag.{tag}", "count/op") for tag in DERIVE_RNG_TAGS),
    ("generators.pass_synthesize.calls", "count/op"),
    ("generators.pass_synthesize.self_s", "s/op"),
    ("generators.forward.self_s", "s/op"),
    ("generators.inverse.self_s", "s/op"),
    ("generators.fit.self_s", "s/op"),
    ("generators.load_model.self_s", "s/op"),
    ("generators.save_model.self_s", "s/op"),
    ("perturb.perturb.self_s", "s/op"),
    ("halton.halton_block.calls", "count/op"),
    ("halton.halton_block.self_s", "s/op"),
    ("halton.halton_block.repeat_ratio", "ratio"),
    ("assignment.rank_cost_matrix.self_s", "s/op"),
    ("assignment.rank_cost_matrix.bytes_computed", "B/op"),
    ("assignment.solve_lsap.calls", "count/op"),
    ("assignment.solve_lsap.self_s", "s/op"),
    ("assignment.solve_lsap.max_n", "count"),
    ("ranks.empirical_ranks.calls", "count/op"),
    ("ranks.empirical_ranks.repeat_ratio", "ratio"),
    ("ranks.match_ranks.self_s", "s/op"),
    ("metrics.fid.calls", "count/op"),
    ("metrics.fid.self_s", "s/op"),
    ("metrics.gaussian_summary.self_s", "s/op"),
    ("empirical.p_value.calls", "count/op"),
    ("empirical.p_value.self_s", "s/op"),
    *((f"inference.{proc}.{stat}", "s/op") for proc in INFERENCE_PROCEDURES for stat in ("total_s", "self_s")),
    ("predict.conditional_sample.calls", "count/op"),
    ("predict.conditional_sample.self_s", "s/op"),
    ("predict.conformal_fit.self_s", "s/op"),
    ("predict.conformal_interval.self_s", "s/op"),
    ("predict.run_prediction_study.total_s", "s/op"),
    ("dataio.read_matrix.self_s", "s/op"),
    ("dataio.read_matrix.bytes", "B/op"),
    ("dataio.write_matrix.self_s", "s/op"),
    ("dataio.write_matrix.bytes", "B/op"),
    ("cli.main.self_s", "s/op"),
    *((f"cli.{sub}.total_s", "s/op") for sub in CLI_SUBCOMMANDS),
    *((f"{module}.errors", "count") for module in MODULES),
    ("trace.overhead_ratio", "ratio"),
    ("trace.harness_self_share", "ratio"),
    ("trace.self_sum_residual", "ratio"),
)


def make_workload(name: str, seed: int, workdir: str, **sizes):
    if name == CliWorkflow.name:
        return CliWorkflow(seed, workdir, **sizes)
    return WORKLOADS[name](seed, **sizes)


@dataclass
class OpResult:
    index: int
    latency_s: float
    fingerprint: dict
    problems: list = field(default_factory=list)
    slowdown: float = 1.0  # host slowdown measured during the op, see calibrate.py

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def calibrated_s(self) -> float:
        return self.latency_s / self.slowdown


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def run_op(workload, index: int, golden_ops, tracer: Tracer | None = None,
           calibrator: calibrate.Calibrator | None = None) -> OpResult:
    """Prepare, time and check one op. A raised error or failed check fails the op.

    With a ``calibrator``, the op is calibrated by the reference timings
    right before and right after it.
    """
    inputs = workload.prepare(index)
    if tracer is not None:
        tracer.begin_op(index)
    start = time.perf_counter()
    try:
        output = workload.run(inputs)
        error = None
    except Exception:  # the loop must go on: a raising op is counted as failed
        output, error = None, traceback.format_exc(limit=3)
    latency = time.perf_counter() - start
    if tracer is not None:
        tracer.end_op()
    slowdown = calibrator.slowdown() if calibrator is not None else 1.0
    if error is not None:
        return OpResult(index, latency, {}, [f"raised: {error}"], slowdown)
    fingerprint, problems = workload.check(output)
    if golden_ops is not None and index < len(golden_ops) and golden_ops[index] != fingerprint:
        changed = sorted(k for k in set(fingerprint) | set(golden_ops[index])
                         if fingerprint.get(k) != golden_ops[index].get(k))
        problems.append(f"golden fingerprint mismatch: {', '.join(changed)}")
    return OpResult(index, latency, fingerprint, problems, slowdown)


def clear_caches() -> None:
    """Empty every ``functools`` cache in the ``pai`` modules.

    Each timed pass starts as cold as a fresh process would, so work a cache
    saves (the Halton block built once per shape) is measured in every pass,
    traced or not.
    """
    for module in list(sys.modules.values()):
        if module is None or not (module.__name__ == "pai" or module.__name__.startswith("pai.")):
            continue
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _run_ops(workload, indices, golden_ops, tracer=None, deadline=None) -> list:
    """Run calibrated ops in order, from cold caches, until the indices or the deadline run out."""
    clear_caches()
    results = []
    calibrator = calibrate.Calibrator()
    for index in indices:
        results.append(run_op(workload, index, golden_ops, tracer, calibrator))
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return results


def run_for(workload, seconds: float, golden_ops) -> list:
    """Run ops 0, 1, 2, ... until ``seconds`` of wall time have passed; the last op finishes."""
    return _run_ops(workload, itertools.count(), golden_ops, deadline=time.perf_counter() + seconds)


def run_traced(workload, indices, golden_ops) -> tuple:
    """Run the given ops again under the tracer."""
    tracer = Tracer()
    tracer.install()
    try:
        results = _run_ops(workload, indices, golden_ops, tracer)
    finally:
        tracer.uninstall()
    return tracer, results


def tail(latencies) -> tuple:
    """Latency at the highest percentile with ``TAIL_OPS_BEYOND`` ops beyond it.

    Returns ``(value, percentile, ops_beyond)``. A run of fewer than
    ``2 * TAIL_OPS_BEYOND`` ops has no such percentile above its median; a
    tail below the median is no tail, so the median is reported then, and
    ``ops_beyond`` says how many ops lie beyond it.
    """
    ordered = sorted(latencies)
    index = len(ordered) - 1 - TAIL_OPS_BEYOND
    if index < (len(ordered) - 1) / 2:
        return statistics.median(ordered), 50.0, len(ordered) // 2
    return ordered[index], 100.0 * (index + 1) / len(ordered), TAIL_OPS_BEYOND


def _metric(value, unit, samples, raw=None, **extra) -> dict:
    metric = {"value": value, "unit": unit, "samples": samples, **extra}
    if raw is not None:
        metric["raw_value"] = raw
    return metric


def end_to_end_metrics(results, setup_samples, cycle_ops: int = 1) -> dict:
    """The end-to-end metrics of one untraced run.

    Times are calibrated to the host's nominal speed (``calibrate.py``); the
    raw wall-time figure rides along as ``raw_value``. Latency and throughput
    use the ops of whole workload cycles only (a cycle is ``cycle_ops`` ops
    whose costs differ by design), so where the deadline falls inside a
    cycle does not change the op mix they describe. ``setup_samples`` are
    ``(raw_s, slowdown)`` pairs, one per fresh process timed before the ops.
    """
    timed = results[: max(len(results) - len(results) % cycle_ops, cycle_ops)]
    calibrated = [r.calibrated_s for r in timed]
    raw = [r.latency_s for r in timed]
    completed = sum(not r.failed for r in timed)
    succeeded = sum(not r.failed for r in results)
    tail_value, tail_percentile, tail_beyond = tail(calibrated)
    n = len(timed)
    return {
        "setup_s": _metric(statistics.median(raw / slowdown for raw, slowdown in setup_samples), "s",
                           len(setup_samples), statistics.median(raw for raw, _ in setup_samples)),
        "ops_per_s": _metric(completed / sum(calibrated), "1/s", n, completed / sum(raw)),
        "op_s_p50": _metric(statistics.median(calibrated), "s", n, statistics.median(raw)),
        "op_s_tail": _metric(tail_value, "s", n, tail(raw)[0], percentile=tail_percentile,
                             ops_beyond=tail_beyond),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "success_rate": _metric(succeeded / len(results), "ratio", len(results)),
    }


def per_layer_metrics(tracer: Tracer, traced, untraced) -> dict:
    ops = len(tracer.op_aggregates)
    totals = {}
    for aggregate in tracer.op_aggregates:
        for name, (calls, self_s, total_s) in aggregate.items():
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += self_s
            entry[2] += total_s

    def span_stat(span: str, stat: str) -> float:
        calls, self_s, total_s = totals.get(span, (0, 0.0, 0.0))
        return {"calls": calls, "self_s": self_s, "total_s": total_s}[stat] / ops

    residuals = []
    harness_self = 0.0
    for aggregate, result in zip(tracer.op_aggregates, traced):
        self_sum = sum(entry[1] for entry in aggregate.values())
        residuals.append(abs(self_sum - result.latency_s) / result.latency_s)
        harness_self += aggregate[OP_SPAN][1]

    values = {}
    for name, unit in PER_LAYER:
        head, stat = name.rsplit(".", 1)
        if name.startswith("streams.derive_rng.calls_by_tag."):
            value = tracer.tag_calls.get(stat, 0) / ops
        elif stat in ("calls", "self_s") or (stat == "total_s" and not head.startswith("cli.")):
            value = span_stat(head, stat)
        elif stat == "repeat_ratio":
            calls = totals.get(head, (0,))[0]
            value = tracer.repeats.get(head, 0) / calls if calls else 0.0
        elif stat == "max_n":
            value = tracer.max_n
        elif stat == "errors":
            value = tracer.errors.get(head, 0)
        elif name == "trace.overhead_ratio":
            value = sum(r.calibrated_s for r in traced) / sum(r.calibrated_s for r in untraced)
        elif name == "trace.harness_self_share":
            value = harness_self / sum(r.latency_s for r in traced)
        elif name == "trace.self_sum_residual":
            value = max(residuals)
        else:  # bytes and per-subcommand wall time, counted at the boundary
            value = tracer.counters.get(name, 0.0) / ops
        values[name] = {"value": value, "unit": unit, "samples": ops}
    return values


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    for key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            sizes[key.lower()] = os.sysconf(f"SC_{key}")
        except (ValueError, OSError):
            sizes[key.lower()] = None
    return sizes


def _git_commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git (checkouts may have none)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(root: str, workload: str, seed: int, seconds: float, trace: bool, metrics: dict,
               results) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": _git_commit(root),
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "cache_bytes": _cache_sizes(),
            "thread_env": {k: os.environ.get(k) for k in
                           ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        },
        "reference_nominal_s": calibrate.REFERENCE_NOMINAL_S,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__},
        "metrics": metrics,
        "ops": [
            {"index": r.index, "latency_s": r.latency_s, "slowdown": r.slowdown, "problems": r.problems}
            for r in results
        ],
    }
