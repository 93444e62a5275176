"""Benchmark of the ``pai`` package, run from the root of a source checkout.

    python3 perfbench/run.py --workload mc_null --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads (see ``expectations.json`` for why each exists):

* ``mc_null``      - one op is a null battery: a two-sample FID test, a
  conditional-coherence test and pivotal inference on fresh data.
* ``rank_synth``   - one op is one rank-matched synthesis replicate.
* ``cli_workflow`` - one op is one pass of the file pipeline through the CLI.

With ``--trace 0`` the run prints the end-to-end metrics; ``setup_s`` is the
median over several fresh processes of the time from process start to the
first op (imports, input generation, model construction), each calibrated by
the reference kernel timed around it. Times are
calibrated to the host's nominal speed (see ``calibrate.py``) and printed
beside their raw wall-time values. With ``--trace 1``
the run measures ops untraced for half the time, then reruns the same ops
under the outside-in tracer and prints the per-layer metrics and the tracing
overhead. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A run record and, when
traced, the spans of the first ops are written under ``.perfbench_out/``.

The package is imported from ``src/`` of this checkout and nowhere else; the
run fails without printing a result when the checkout holds no ``src/pai``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("mc_null", "rank_synth", "cli_workflow")

# fresh processes timed for setup_s
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
READY = "ready"

# One caller on a small machine: BLAS gets one thread, which also keeps
# floating-point results, and so the golden fingerprints, independent of
# thread scheduling.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(Exception):
    """The benchmark itself cannot run here."""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def bootstrap() -> None:
    if not os.path.isfile(os.path.join(SRC, "pai", "__init__.py")):
        raise BenchmarkError(f"no package source at {os.path.relpath(SRC)}/pai; run from a full checkout")
    for name in THREAD_ENV:
        os.environ[name] = "1"
    sys.path[:0] = [SRC, HERE]
    import pai

    if os.path.dirname(os.path.dirname(os.path.abspath(pai.__file__))) != SRC:
        raise BenchmarkError(f"imported pai from {pai.__file__}, not from this checkout")


def _workdir() -> str:
    return os.path.join(OUT_DIR, f"work-{os.getpid()}")


def _setup_probe(args) -> int:
    """Child process: set up as a run would, up to its first op, then exit."""
    from harness import make_workload

    workload = make_workload(args.workload, args.seed, _workdir())
    try:
        workload.prepare(0)
        print(READY, flush=True)
    finally:
        workload.close()
    return 0


def _time_setup(args) -> list:
    """Seconds from process start to the first op, for each of several fresh processes.

    Returns ``(raw_s, slowdown)`` pairs: the reference kernel, timed in this
    process right before and right after each probe, gives the host's
    slowdown while that probe ran.
    """
    import calibrate

    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    samples = []
    calibrator = calibrate.Calibrator()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=PROBE_TIMEOUT_S)
        if line != READY or code != 0:
            raise BenchmarkError(f"set-up probe failed (exit {code})")
        samples.append((elapsed, calibrator.slowdown()))
    return samples


def _golden_ops(workload: str, seed: int):
    from harness import load_golden

    return load_golden().get(workload, {}).get(str(seed))


def _write_record(args, record, tracer=None) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write_spans(stem + ".spans.jsonl")
    return os.path.relpath(stem + ".json", ROOT)


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, metric in metrics.items():
        extra = ""
        if "raw_value" in metric:
            extra += f", raw {metric['raw_value']:.6g}"
        if "percentile" in metric:
            extra += f", p{metric['percentile']:.1f} with {metric['ops_beyond']} ops beyond"
        print(f"  {name:48s} {metric['value']:>14.6g} {metric['unit']:9s} (n={metric['samples']}{extra})")


def _result_line(results, metrics) -> str:
    failed = sum(r.failed for r in results)
    return json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    })


def _run_workload(args) -> None:
    setup_samples = [] if args.trace else _time_setup(args)
    import harness

    golden = _golden_ops(args.workload, args.seed)
    workload = harness.make_workload(args.workload, args.seed, _workdir())
    try:
        if args.trace:
            untraced = harness.run_for(workload, args.seconds / 2.0, golden)
            tracer, traced = harness.run_traced(workload, [r.index for r in untraced], golden)
            for before, after in zip(untraced, traced):
                if before.fingerprint != after.fingerprint:
                    after.problems.append("traced output differs from untraced output")
            results = untraced + traced
            metrics = harness.per_layer_metrics(tracer, traced, untraced)
        else:
            tracer = None
            results = harness.run_for(workload, args.seconds, golden)
            metrics = harness.end_to_end_metrics(results, setup_samples, workload.cycle_ops)
    finally:
        workload.close()
    for result in results:
        for problem in result.problems:
            print(f"op {result.index} failed: {problem}", file=sys.stderr)
    record = harness.run_record(ROOT, args.workload, args.seed, args.seconds, bool(args.trace), metrics, results)
    path = _write_record(args, record, tracer)
    golden_note = f"{len(golden)} golden ops" if golden else "no golden ops at this seed"
    _print_table(f"{args.workload} seed={args.seed} trace={args.trace} ({golden_note}; record: {path})", metrics)
    print(_result_line(results, metrics))


def _run_all(args) -> None:
    """Run every workload in its own process and combine their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            raise BenchmarkError(f"workload {name} exited {completed.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        bootstrap()
        if args.setup_probe:
            return _setup_probe(args)
        if args.workload == "all":
            _run_all(args)
        else:
            _run_workload(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
