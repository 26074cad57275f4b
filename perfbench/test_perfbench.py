"""Tests of the benchmark itself: short runs, trace coverage, and checks that bite.

A short run of each workload (one set-up, one round) must complete with
zero failed ops and pass its checks; its traced run must report every
per-layer metric, put time into the layers the workload calls, and leave
only a small remainder of the op latency unattributed.  Each correctness
check must reject an output perturbed by 1e-6 or missing a row.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from perfbench import layers, workloads
from perfbench.trace import Tracer
from repro.serving import QueryResult

ROOT = Path(__file__).resolve().parents[1]
END_TO_END = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

#: Share of the traced op latency the named layers must account for.
MAX_REMAINDER_SHARE = 0.05

#: Per-layer metrics that must read above zero on each workload: the layers
#: it calls.
CALLED = {
    "serve_http": {"serving.api.self_ms", "serving.scheduler.queue_wait_ms",
                   "serving.scheduler.requests_per_batch", "inference.planner.plan_ms",
                   "core.latent_grid.gather_ms", "core.imnet.decode_ms",
                   "core.imnet.decode_calls", "inference.engine.blend_ms",
                   "inference.cache.hit_ratio", "autodiff.op_calls"},
    "serve_burst": {"serving.scheduler.queue_wait_ms", "serving.scheduler.requests_per_batch",
                    "inference.planner.plan_ms", "core.latent_grid.gather_ms",
                    "core.imnet.decode_ms", "core.imnet.decode_calls",
                    "inference.engine.blend_ms", "inference.cache.hit_ratio",
                    "autodiff.op_calls", "bench.generator_lag_ms"},
    "superres_grid": {"inference.planner.plan_ms", "core.unet.encode_ms", "core.unet.encodes",
                      "core.latent_grid.gather_ms", "core.imnet.decode_ms",
                      "core.imnet.decode_calls", "inference.engine.blend_ms",
                      "inference.cache.hit_ratio", "autodiff.op_calls", "compile.plan_hits"},
    "train_pde": {"data.dataset.sample_ms", "compile.training.step_ms",
                  "distributed.buckets.pack_ms", "distributed.comm.allreduce_ms",
                  "distributed.comm.bytes", "optim.step_ms", "compile.plan_hits"},
    "pipeline_table1": {"core.losses.compute_ms", "autodiff.backward_ms",
                        "pipeline.stages.sim_ms", "pipeline.stages.train_ms",
                        "pipeline.stages.eval_ms", "pipeline.artifacts.load_ms",
                        "pipeline.artifacts.save_ms", "pipeline.artifacts.bytes_written",
                        "pipeline.graph.self_ms", "autodiff.op_calls"},
}


def bare(cls, seed: int = 0, workdir: Path = ROOT):
    """A workload object without its set-up (and without a child process)."""
    workload = cls.__new__(cls)
    workloads.Workload.__init__(workload, seed, None, workdir)
    return workload


# ------------------------------------------------------------------ short runs
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_short_traced_run_covers_its_layers(name, tmp_path):
    record = workloads.measure(name, seed=7, seconds=0.0, trace=True, workdir=tmp_path, setups=1)
    assert record["problems"] == []
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    metrics = record["metrics"]
    assert set(metrics) == set(layers.PER_LAYER)
    assert all(math.isfinite(v) for v in metrics.values())
    assert {m for m, v in metrics.items() if v > 0} >= CALLED[name]
    assert abs(metrics["bench.remainder_share"]) < MAX_REMAINDER_SHARE, metrics
    assert metrics["compile.fallbacks"] == 0
    # Spans were written for the Chrome trace, with a parent link each.
    events = record["chrome_trace"]["traceEvents"]
    assert events and all(e["ph"] == "X" and "parent" in e["args"] for e in events)


def test_untraced_run_reports_end_to_end_metrics_and_seed_changes_only_inputs(tmp_path):
    names = []
    for seed in (1, 2):
        record = workloads.measure("serve_burst", seed=seed, seconds=0.0, trace=False,
                                   workdir=tmp_path, setups=1)
        assert record["correct"] and record["failed"] == 0
        assert all(v > 0 for v in record["metrics"].values())
        names.append(set(record["metrics"]))
    assert names[0] == names[1] == END_TO_END

    inputs = []
    for seed in (1, 2, 1):
        workload = workloads.ServeBurst(seed, None, tmp_path)
        workload.setup()
        workload.teardown()
        inputs.append(np.concatenate([d.ravel() for d in workload.domains]
                                     + [c.ravel() for burst in workload.coords for c in burst]))
    assert not np.array_equal(inputs[0], inputs[1])
    assert np.array_equal(inputs[0], inputs[2])


# ---------------------------------------------------------- checks that bite
def test_serving_checks_reject_perturbed_replies():
    workload = bare(workloads.ServeBurst, seed=3)
    rng = workloads._rng(3, 9)
    workload.model = workloads._model(3)
    workload.domains = [rng.standard_normal(workloads.DOMAIN)]
    workload.coords = [[rng.random((workloads.BURST_POINTS, 3))]]
    good = workloads.direct_decode(workload.model, workload.domains[0], workload.coords[0][0])

    def check(values):
        workload.results = [(0, 0, QueryResult("r", "ok", values=values))]
        return workload.check()

    assert check(good.copy()) == []
    moved = good.copy()
    moved[0, 5, 1] += 1e-6
    assert check(moved)
    assert check(good[:, 1:, :])          # a missing row
    nan = good.copy()
    nan[0, 0, 0] = np.nan
    assert check(nan)

    http = bare(workloads.ServeHttp, seed=3)
    http.domains = workload.domains * workloads.N_DOMAINS
    http.coords = [rng.random((workloads.HTTP_POINTS, 3))]
    reply = workloads.direct_decode(workload.model, http.domains[0], http.coords[0])
    http.replies = [(0, {"status": "ok", "values": reply})]
    assert http.check() == []
    reply = reply.copy()
    reply[0, 0, 0] -= 1e-6
    http.replies = [(0, {"status": "ok", "values": reply})]
    assert http.check()


def test_superres_check_rejects_perturbed_samples():
    workload = bare(workloads.SuperresGrid, seed=4)
    workload.model = workloads._model(4)
    rng = workloads._rng(4, 9)
    domain = rng.standard_normal(workloads.DOMAIN)
    rows = rng.choice(int(np.prod(workloads.SUPERRES_OUT)), size=workloads.SUPERRES_SAMPLE,
                      replace=False)
    coords = workloads.regular_grid_coordinates(workloads.SUPERRES_OUT)[rows]
    values = workloads.direct_decode(workload.model, domain, coords)
    shape = (1, 4, *workloads.SUPERRES_OUT)
    workload.samples = [(domain, shape, rows, values)]
    assert workload.check() == []
    moved = values.copy()
    moved[0, -1, 3] += 1e-6
    workload.samples = [(domain, shape, rows, moved)]
    assert workload.check()
    workload.samples = [(domain, shape, rows, values[:, :-1])]
    assert workload.check()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    workload = workloads.TrainPde(5, None, tmp_path_factory.mktemp("train"))
    workload.setup()
    workload.round()
    return workload


def test_train_check_rejects_perturbed_loss_record(trained):
    saved = [dict(r) for r in trained.warm_records]
    try:
        trained.warm_records[1]["loss"] += 1e-6
        assert any("differs from eager" in p for p in trained.check())
    finally:
        trained.warm_records = saved


def test_train_check_rejects_perturbed_gradients(trained):
    trainer = trained.trainer
    original = trainer.synchronize_gradients

    def perturbed(*args):
        record = original(*args)
        trainer.model.parameters()[0].grad.flat[0] += 1e-6
        return record

    trainer.synchronize_gradients = perturbed
    try:
        assert any("gradients" in p for p in trained.check())
    finally:
        del trainer.synchronize_gradients


def test_pipeline_check_rejects_changed_runs():
    workload = bare(workloads.PipelineTable1)
    fps = {"sim": "a", "train": "b"}
    workload.reference = {"counts": {"computed": 2}, "fingerprints": fps, "table1": "t"}
    cold = {"counts": {"computed": 2}, "fingerprints": dict(fps), "table1": "t"}
    warm = {"counts": {"cached": 2}, "fingerprints": dict(fps), "table1": "t"}
    workload.runs = [(cold, warm)]
    assert workload.check() == []
    for bad in ({**warm, "counts": {"cached": 1, "computed": 1}},
                {**warm, "table1": "u"},
                {**warm, "fingerprints": {"sim": "a", "train": "c"}}):
        workload.runs = [(cold, bad)]
        assert workload.check()


# ------------------------------------------------------------------- tracer
def test_tracer_self_time_excludes_children_and_adopts_other_threads():
    import threading
    import time

    def work():
        with tracer.span("inner"):
            time.sleep(0.02)

    tracer = Tracer()
    with tracer.span("outer", adopt=True):
        time.sleep(0.02)
        with tracer.span("child"):
            time.sleep(0.02)
            with tracer.span("child"):    # re-entrant: no span of its own
                pass
        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    seconds, counts = tracer.layer_totals()
    assert counts == {"outer": 1, "child": 1, "inner": 1}
    assert tracer.spans[2][3] == 0       # the other thread's span is adopted by "outer"
    for name in ("outer", "child", "inner"):
        assert 0.015 < seconds[name] < 0.035, seconds
