"""Self-tests of the benchmark: ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.bootstrap()

import harness  # noqa: E402  (needs the source path set up by bootstrap)
import pai  # noqa: E402

TINY = {
    "mc_null": dict(n_fid=20, n_groups=(15, 10), n_pivotal=8, D=20, D_pivotal=49),
    "rank_synth": dict(shapes=((40, 1), (40, 2), (50, 8))),
    "cli_workflow": dict(
        n_sim=300, n_synth=100, n_fresh=40, n_feature=40, n_groups=(30, 20), n_pivotal=10, n_points=5,
        mc=20, mc_pivotal=49, mc_predict=100, coverage_args=("--n", "260", "--train", "200", "--mc", "100"),
    ),
}


def _benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture
def tiny(tmp_path):
    workloads = []

    def make(name, seed=3):
        workload = harness.make_workload(name, seed, str(tmp_path / name), **TINY[name])
        workloads.append(workload)
        return workload

    yield make
    for workload in workloads:
        workload.close()


def test_benchmark_json_lists_the_harness_metrics():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_reports_every_metric_and_traced_outputs_match(name, tiny):
    workload = tiny(name)
    untraced = [harness.run_op(workload, i, None) for i in range(3)]
    assert not any(r.failed for r in untraced), [r.problems for r in untraced]

    end_to_end = harness.end_to_end_metrics(untraced, [(0.5, 1.0), (0.9, 1.5), (0.6, 2.0)])
    assert [(k, m["unit"]) for k, m in end_to_end.items()] == list(harness.END_TO_END)
    assert end_to_end["success_rate"]["value"] == 1.0
    assert end_to_end["setup_s"]["value"] == pytest.approx(0.5)
    assert end_to_end["setup_s"]["raw_value"] == 0.6

    tracer, traced = harness.run_traced(workload, [r.index for r in untraced], None)
    assert [r.fingerprint for r in traced] == [r.fingerprint for r in untraced]
    layers = harness.per_layer_metrics(tracer, traced, untraced)
    assert [(k, m["unit"]) for k, m in layers.items()] == list(harness.PER_LAYER)
    # the op's self times sum to its wall time, up to the few microseconds
    # between the harness's clock reads and the root span's (ops here are ~1 ms)
    assert layers["trace.self_sum_residual"]["value"] < 0.05
    assert all(layers[f"{module}.errors"]["value"] == 0 for module in harness.MODULES)
    # the tracer is gone again: no traced wrapper is left in the package
    assert not hasattr(pai.streams.derive_rng, "__wrapped__")
    assert not hasattr(pai.generators.derive_rng, "__wrapped__")


def test_tracer_counts_calls_made_through_copied_bindings(tiny):
    workload = tiny("rank_synth")
    untraced = [harness.run_op(workload, i, None) for i in range(4)]
    tracer, traced = harness.run_traced(workload, range(4), None)
    layers = harness.per_layer_metrics(tracer, traced, untraced)
    # pass_synthesize reaches derive_rng through pai.generators' copy of the name
    assert layers["streams.derive_rng.calls_by_tag.pass"]["value"] == 1.0
    assert layers["assignment.solve_lsap.calls"]["value"] == 2.0
    assert layers["assignment.solve_lsap.max_n"]["value"] == 40
    # two replicates per inference sample: the second repeats the latent rank map
    assert layers["ranks.empirical_ranks.repeat_ratio"]["value"] == pytest.approx(0.25)
    assert layers["assignment.rank_cost_matrix.bytes_computed"]["value"] == pytest.approx(
        (40 * 40 * 1 * 8 * 2 * 2 + 40 * 40 * 2 * 8 * 2 * 2) / 4
    )


def test_every_timed_pass_builds_the_halton_block_once_per_shape(tiny):
    workload = tiny("rank_synth")
    cycle = range(workload.cycle_ops)
    untraced = [harness.run_op(workload, i, None) for i in cycle]  # leaves the cache warm
    tracer, traced = harness.run_traced(workload, cycle, None)
    layers = harness.per_layer_metrics(tracer, traced, untraced)
    calls = layers["halton.halton_block.calls"]["value"] * workload.cycle_ops
    # the traced pass starts from a cold cache, so its halton_block spans include the builds
    cache = pai.halton._cached_block.cache_info()
    assert (cache.misses, cache.hits + cache.misses) == (len(workload.shapes), calls)
    assert layers["halton.halton_block.repeat_ratio"]["value"] == pytest.approx(
        1.0 - len(workload.shapes) / calls
    )


def test_wrong_p_value_counts_as_failed(tiny, monkeypatch):
    workload = tiny("mc_null")
    monkeypatch.setattr(pai.inference, "p_value", lambda *args, **kwargs: 0.0)
    results = [harness.run_op(workload, i, None) for i in range(2)]
    assert all(r.failed for r in results)
    metrics = harness.end_to_end_metrics(results, [(1.0, 1.0)])
    assert metrics["success_rate"]["value"] == 0.0
    assert metrics["ops_per_s"]["value"] == 0.0


def test_changed_output_fails_the_golden_check(tmp_path, monkeypatch):
    golden = harness.load_golden()["mc_null"]["0"]
    workload = harness.make_workload("mc_null", 0, str(tmp_path))
    assert not harness.run_op(workload, 0, golden).failed
    original = pai.generators.perturb
    monkeypatch.setattr(pai.generators, "perturb", lambda rows, spec, rng: original(rows, spec, rng) + 1e-12)
    result = harness.run_op(workload, 0, golden)
    assert result.failed
    assert "golden fingerprint mismatch" in result.problems[-1]


def test_failed_cli_step_counts_as_failed(tiny, monkeypatch):
    workload = tiny("cli_workflow")
    original = pai.cli.cmd_simulate

    def truncated(args):
        args.n = 10
        return original(args)

    monkeypatch.setattr(pai.cli, "cmd_simulate", truncated)
    result = harness.run_op(workload, 0, None)
    assert result.failed


def test_tail_is_the_percentile_with_ten_ops_beyond():
    assert harness.tail(list(range(1, 101))) == (90, 90.0, 10)
    assert harness.tail(list(range(1, 22))) == (11, 100.0 * 11 / 21, 10)
    assert harness.tail([4.0, 1.0, 3.0, 2.0]) == (2.5, 50.0, 2)


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_null", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
