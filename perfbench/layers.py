"""Which public calls of ``repro`` the traced run wraps, and what they report.

Every wrapped call is named after the layer it belongs to; the per-layer
metric of that layer is its weighted self time per op (see
:mod:`perfbench.trace`).  The same wrappers are installed on every workload
so a layer a workload does not call reads zero there.
"""

from __future__ import annotations

#: Span name -> per-layer time metric (ms of self time per op).
TIME_METRICS = {
    "inference.planner": "inference.planner.plan_ms",
    "core.unet.encode": "core.unet.encode_ms",
    "core.latent_grid.gather": "core.latent_grid.gather_ms",
    "core.imnet.decode": "core.imnet.decode_ms",
    "inference.engine": "inference.engine.blend_ms",
    "data.dataset.sample": "data.dataset.sample_ms",
    "compile.training.step": "compile.training.step_ms",
    "distributed.buckets.pack": "distributed.buckets.pack_ms",
    "distributed.comm.allreduce": "distributed.comm.allreduce_ms",
    "optim.step": "optim.step_ms",
    "core.losses.compute": "core.losses.compute_ms",
    "autodiff.backward": "autodiff.backward_ms",
    "pipeline.stages.sim": "pipeline.stages.sim_ms",
    "pipeline.stages.train": "pipeline.stages.train_ms",
    "pipeline.stages.eval": "pipeline.stages.eval_ms",
    "pipeline.artifacts.load": "pipeline.artifacts.load_ms",
    "pipeline.artifacts.save": "pipeline.artifacts.save_ms",
    "pipeline.graph": "pipeline.graph.self_ms",
}

#: Span name -> per-layer count metric (entries per op).
COUNT_METRICS = {
    "core.unet.encode": "core.unet.encodes",
    "core.imnet.decode": "core.imnet.decode_calls",
}

#: Name under which ``Op.apply`` calls are counted.
OP_CALLS = "autodiff.op_calls"

#: Every per-layer metric the traced run reports, with its unit.  The
#: workload-level ones (queue wait, batch size, cache ratio, plan counters,
#: bytes, remainder) are computed by the workloads from the program's own
#: ``stats()`` or from the trace.
PER_LAYER = {
    "serving.api.self_ms": "ms",
    "serving.scheduler.queue_wait_ms": "ms",
    "serving.scheduler.requests_per_batch": "count",
    **{metric: "ms" for metric in TIME_METRICS.values()},
    **{metric: "count" for metric in COUNT_METRICS.values()},
    "inference.cache.hit_ratio": "ratio",
    OP_CALLS: "count",
    "compile.plan_hits": "count",
    "compile.fallbacks": "count",
    "distributed.comm.bytes": "B",
    "pipeline.artifacts.bytes_written": "B",
    "bench.generator_lag_ms": "ms",
    "bench.remainder_ms": "ms",
    "bench.remainder_share": "ratio",
    "bench.traced_op_ms": "ms",
}

#: Per-layer metrics that are parts of an op's latency; with the remainder
#: they add up to the traced op latency.
LATENCY_PARTS = ("serving.api.self_ms", "serving.scheduler.queue_wait_ms",
                 "bench.generator_lag_ms", *TIME_METRICS.values())


def install(tracer) -> None:
    """Wrap every layer's public calls on ``tracer`` (undo with ``restore``)."""
    import repro.inference.engine as engine_mod
    import repro.serving.server as server_mod
    import repro.training as training_pkg
    import repro.training.trainer as trainer_mod
    from repro.autodiff import Tensor
    from repro.autodiff.tensor import Op
    from repro.compile import CompiledTrainingStep
    from repro.compile.api import CompiledModule
    from repro.core.imnet import ImNet
    from repro.core.model import MeshfreeFlowNet
    from repro.data.dataset import SuperResolutionDataset
    from repro.distributed import GradientBuckets, SimulatedCommunicator
    from repro.experiments import common as experiments_common
    from repro.inference import InferenceEngine
    from repro.inference.engine import TiledLatentField
    from repro.inference.planner import GridQueryPlanner, QueryPlanner
    from repro.optim import SGD, Adam
    from repro.pipeline import ArtifactStore
    from repro.serving import ModelServer
    from repro.training import Trainer
    import repro.core.model as model_mod

    wrap = tracer.wrap
    wrap(ModelServer, "query", "serving.server.query")
    wrap(server_mod, "run_batch", "serving.scheduler.run_batch",
         weight_of=lambda engine, items, *a, **k: len(items))
    for owner, attr in ((InferenceEngine, "predict_grid"), (InferenceEngine, "query_points"),
                        (TiledLatentField, "query"), (TiledLatentField, "predict_grid")):
        wrap(owner, attr, "inference.engine")
    wrap(QueryPlanner, "plan", "inference.planner")
    tracer.wrap_generator(GridQueryPlanner, "plan", "inference.planner")
    wrap(MeshfreeFlowNet, "latent_grid", "core.unet.encode")
    wrap(engine_mod, "query_latent_grid", "core.latent_grid.gather")
    wrap(model_mod, "query_latent_grid", "core.latent_grid.gather")
    wrap(ImNet, "forward", "core.imnet.decode")
    wrap(CompiledModule, "__call__", "core.imnet.decode")
    wrap(SuperResolutionDataset, "sample_batch", "data.dataset.sample")
    wrap(CompiledTrainingStep, "__call__", "compile.training.step")
    wrap(GradientBuckets, "flatten", "distributed.buckets.pack")
    wrap(GradientBuckets, "assign", "distributed.buckets.pack")
    wrap(SimulatedCommunicator, "allreduce", "distributed.comm.allreduce")
    wrap(Adam, "step", "optim.step")
    wrap(SGD, "step", "optim.step")
    wrap(trainer_mod, "compute_losses", "core.losses.compute")
    wrap(Tensor, "backward", "autodiff.backward")
    wrap(experiments_common, "simulate", "pipeline.stages.sim")
    wrap(Trainer, "train", "pipeline.stages.train")
    wrap(training_pkg, "evaluate_model", "pipeline.stages.eval")
    wrap(ArtifactStore, "load", "pipeline.artifacts.load")
    wrap(ArtifactStore, "save", "pipeline.artifacts.save")
    tracer.count_calls(Op, "apply", OP_CALLS)


def span_metrics(seconds: dict, counts: dict, n_ops: int) -> dict:
    """Per-op layer metrics from :meth:`Tracer.layer_totals` output."""
    out = {metric: 1e3 * seconds.get(name, 0.0) / n_ops for name, metric in TIME_METRICS.items()}
    out.update({metric: counts.get(name, 0) / n_ops for name, metric in COUNT_METRICS.items()})
    return out


def finish(metrics: dict, traced_op_ms: float) -> dict:
    """Fill unreported layers with zero and add the remainder of the latency.

    ``traced_op_ms`` is the mean traced op latency; the remainder is the
    part of it that no reported layer covers.
    """
    out = {name: float(metrics.get(name, 0.0)) for name in PER_LAYER}
    remainder = traced_op_ms - sum(out[name] for name in LATENCY_PARTS)
    out["bench.remainder_ms"] = remainder
    out["bench.remainder_share"] = remainder / traced_op_ms
    out["bench.traced_op_ms"] = traced_op_ms
    return out
