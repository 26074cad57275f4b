"""The benchmark's five workloads.

Each workload builds its inputs from the seed, hands the program only the
generated arrays, runs whole rounds of ops while the clock runs, and checks
the outputs afterwards against an independent computation or a property
the method must have.  :func:`measure` drives one workload through its
set-ups, its timed phase and its checks, and returns every metric.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import wait as wait_futures
from http.client import HTTPConnection
from pathlib import Path

import numpy as np

from repro import MeshfreeFlowNet, MeshfreeFlowNetConfig
from repro.autodiff import Tensor
from repro.core import LossWeights, compute_losses
from repro.core.latent_grid import regular_grid_coordinates
from repro.inference import InferenceEngine
from repro.pipeline import ArtifactStore, PipelineConfig, build_standard_pipeline, fingerprint, run_pipeline
from repro.scenarios import get_scenario
from repro.serving import ModelServer, QueryRequest
from repro.training import DistributedTrainer, TrainerConfig

from . import layers
from .trace import Tracer

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Largest gap allowed between a reply and direct-mode decoding.
DIRECT_TOL = 1e-10
#: Largest gap allowed between all-reduced and serial-average gradients.
GRAD_TOL = 1e-12

# Serving and super-resolution inputs: a low-resolution domain of the tiny
# model, cut into tiles whose overlaps cover the encoder halo.
DOMAIN = (1, 4, 12, 48, 48)
TILE = (12, 24, 24)
N_DOMAINS = 4
HTTP_POINTS = 512
HTTP_ROUND = 16            # requests per round, four per domain
BURST_REQUESTS = 8         # requests per burst, all on one domain
BURST_POINTS = 128
BURST_PERIOD = 0.05        # seconds between bursts
SUPERRES_OUT = (24, 96, 96)
SUPERRES_SAMPLE = 64       # output points per op checked against direct mode
# Physics-constrained training step.
GAMMA = 0.0125
WORLD_SIZE, NODES, BATCH, TRAIN_POINTS = 4, 2, 2, 128
WARM_STEPS = 2             # untimed steps; also the eager bit-identity check
# Reduced Table 1: one gamma=0 and one gamma>0 train stage.
TABLE1_GAMMAS = (0.0, GAMMA)
TABLE1_SCALE = {"epochs": 1, "samples_per_epoch": 4}


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _model(seed: int) -> MeshfreeFlowNet:
    return MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny(seed=seed)).eval()


def process_usage() -> tuple[float, float]:
    """(user + system CPU seconds, peak RSS in KiB) of this process."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime, float(usage.ru_maxrss)


def server_snapshot(server: ModelServer, tracer) -> dict:
    """Counters of a server and this process that the layer metrics diff."""
    stats = server.stats()
    cache = server.cache.stats()
    return {
        "span_mark": tracer.mark() if tracer is not None else 0,
        "op_calls": tracer.count(layers.OP_CALLS) if tracer is not None else 0,
        "batches": stats["batches"],
        "batched": stats["requests_per_batch"] * stats["batches"],
        "hits": cache.hits,
        "misses": cache.misses,
    }


def snapshot_delta(before: dict, after: dict) -> dict:
    """Program-counter metrics over the timed phase (not yet per op)."""
    batches = after["batches"] - before["batches"]
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return {
        "serving.scheduler.requests_per_batch": (
            (after["batched"] - before["batched"]) / batches if batches else 0.0),
        "inference.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "op_calls": after["op_calls"] - before["op_calls"],
    }


def direct_decode(model, domain: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Direct-mode (one tile, unplanned, unblended) decode: ``(1, P, C)``."""
    return InferenceEngine(model).query_points(domain, coords)


def check_reply(values, shape, reference, label: str) -> list[str]:
    """Problems with one served reply against its direct-mode reference."""
    if values is None:
        return [f"{label}: no values"]
    if values.shape != shape:
        return [f"{label}: shape {values.shape} != {shape}"]
    if not np.all(np.isfinite(values)):
        return [f"{label}: non-finite values"]
    gap = float(np.max(np.abs(values - reference)))
    if gap > DIRECT_TOL:
        return [f"{label}: differs from direct decoding by {gap:.3e}"]
    return []


class Workload:
    """One workload: set-up, whole rounds of ops, checks, layer metrics."""

    name = ""

    def __init__(self, seed: int, tracer: Tracer | None, workdir: Path):
        self.seed = int(seed)
        self.tracer = tracer
        self.workdir = workdir
        #: Seconds per completed op of the timed phase.
        self.latencies: list[float] = []
        self.failed = 0

    def setup(self) -> None:
        """Build inputs and the program, then run the untimed warm-up."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` built."""

    def close(self) -> None:
        """Release what outlives set-ups (child processes)."""

    def begin(self) -> None:
        """Snapshot the program's counters just before the timed phase."""

    def round(self) -> None:
        """Run one whole round of ops."""
        raise NotImplementedError

    def drain(self) -> None:
        """Wait for ops still in flight (open-loop workloads)."""

    def usage(self) -> tuple[float, float]:
        """(CPU seconds, peak RSS KiB) of the process running the program."""
        return process_usage()

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the timed phase (traced runs only)."""
        raise NotImplementedError

    def check(self) -> list[str]:
        """Problems found in the outputs; empty when all are correct."""
        raise NotImplementedError

    # ------------------------------------------------------------- helpers
    def traced(self, name: str, fn, *args, adopt: bool = False):
        """Call ``fn`` under a benchmark-side span when tracing."""
        if self.tracer is None:
            return fn(*args)
        with self.tracer.span(name, adopt=adopt):
            return fn(*args)

    def span_layers(self, since: int, n_ops: int) -> dict:
        seconds, counts = self.tracer.layer_totals(since)
        return layers.span_metrics(seconds, counts, n_ops)


# --------------------------------------------------------------------------
# serve_http
# --------------------------------------------------------------------------

class ServeHttp(Workload):
    """Closed loop: one connection, sequential ``POST /query`` to a child server."""

    name = "serve_http"

    def __init__(self, seed, tracer, workdir):
        super().__init__(seed, tracer, workdir)
        child = Path(__file__).with_name("serve_child.py")
        # One malloc arena: glibc otherwise opens a new arena whenever two of
        # the server's threads contend, at a timing-dependent moment, and the
        # child's peak RSS jumped between about 92 and 105 MB across runs.
        self.child = subprocess.Popen(
            [sys.executable, str(child), "--trace", "1" if tracer is not None else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env={**os.environ, "MALLOC_ARENA_MAX": "1"})
        self._call(None)  # the child's "ready" line: imports done
        self.conn = None
        self.replies: list[tuple[int, dict]] = []

    def _call(self, command: dict | None) -> dict:
        if command is not None:
            self.child.stdin.write(json.dumps(command) + "\n")
            self.child.stdin.flush()
        line = self.child.stdout.readline()
        if not line:
            raise RuntimeError(f"serve child exited with code {self.child.wait()}")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(f"serve child failed: {reply['error']}")
        return reply

    def setup(self):
        rng = _rng(self.seed, 1)
        self.domains = [rng.standard_normal(DOMAIN) for _ in range(N_DOMAINS)]
        self.coords = [rng.random((HTTP_POINTS, 3)) for _ in range(HTTP_ROUND)]
        path = self.workdir / "serve_domains.npz"
        np.savez(path, *self.domains)
        port = self._call({"cmd": "setup", "domains": str(path), "model_seed": self.seed})["port"]
        self.bodies = [
            json.dumps({"domain_id": f"d{i % N_DOMAINS}", "coords": c.tolist()}).encode()
            for i, c in enumerate(self.coords)
        ]
        self.conn = HTTPConnection("127.0.0.1", port, timeout=60)
        self.round()  # warm-up
        self.latencies.clear()
        self.replies.clear()
        self.failed = 0

    def teardown(self):
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.child.poll() is None:
            self._call({"cmd": "teardown"})

    def close(self):
        if self.child.poll() is None:
            try:
                self._call({"cmd": "stop"})
            finally:
                self.child.stdin.close()
                self.child.wait(timeout=60)
        self.child.stdout.close()

    def begin(self):
        self.before = self._call({"cmd": "mark"})

    def round(self):
        for index, body in enumerate(self.bodies):
            start = time.perf_counter()
            self.conn.request("POST", "/query", body=body,
                              headers={"Content-Type": "application/json"})
            reply = json.loads(self.conn.getresponse().read())
            if reply.get("values") is not None:
                reply["values"] = np.asarray(reply["values"]).reshape(reply["shape"])
            self.latencies.append(time.perf_counter() - start)
            if reply.get("status") != "ok":
                self.failed += 1
            self.replies.append((index, reply))

    def usage(self):
        mark = self._call({"cmd": "mark"})
        return mark["cpu_s"], mark["maxrss_kb"]

    def layer_metrics(self):
        report = self._call({"cmd": "report", "since": self.before})
        n = len(self.latencies)
        out = layers.span_metrics(report["seconds"], report["counts"], n)
        out.update(report["delta"])
        out[layers.OP_CALLS] = out.pop("op_calls") / n
        query_s = report["seconds"].get("serving.server.query", 0.0)
        out["serving.api.self_ms"] = 1e3 * (sum(self.latencies) - query_s) / n
        out["serving.scheduler.queue_wait_ms"] = 1e3 * sum(
            r.get("queue_seconds", 0.0) for _, r in self.replies) / n
        self.child_events = report["events"]
        return out

    def check(self):
        direct = InferenceEngine(_model(self.seed))  # encodes each domain once
        references = [direct.query_points(self.domains[i % N_DOMAINS], c)
                      for i, c in enumerate(self.coords)]
        problems = []
        for op, (index, reply) in enumerate(self.replies):
            if reply.get("status") == "ok":
                problems += check_reply(reply["values"], (1, HTTP_POINTS, 4),
                                        references[index], f"reply {op}")
        return problems


# --------------------------------------------------------------------------
# serve_burst
# --------------------------------------------------------------------------

class ServeBurst(Workload):
    """Open loop: seeded bursts through ``ModelServer.submit``, in process."""

    name = "serve_burst"

    def setup(self):
        rng = _rng(self.seed, 2)
        self.domains = [rng.standard_normal(DOMAIN) for _ in range(N_DOMAINS)]
        # One round: one burst per domain, BURST_REQUESTS requests each.
        self.coords = [[rng.random((BURST_POINTS, 3)) for _ in range(BURST_REQUESTS)]
                       for _ in range(N_DOMAINS)]
        self.model = _model(self.seed)
        self.server = ModelServer(self.model, tile_shape=TILE)
        for i, domain in enumerate(self.domains):
            self.server.register_domain(f"d{i}", domain)
            self.server.query(QueryRequest(f"d{i}", output_shape=DOMAIN[2:])).raise_for_status()
        self._start_clock()
        self.round()
        self.drain()
        self.latencies.clear()

    def _start_clock(self):
        self.origin = time.perf_counter()
        self.bursts = 0
        self.lags: list[float] = []
        self.results: list[tuple[int, int, object]] = []
        self.futures = []

    def teardown(self):
        if getattr(self, "server", None) is not None:
            self.server.close()
            self.server = None

    def begin(self):
        self._start_clock()
        self.before = server_snapshot(self.server, self.tracer)

    def round(self):
        for domain in range(N_DOMAINS):
            due = self.origin + self.bursts * BURST_PERIOD
            self.bursts += 1
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self.lags.append(time.perf_counter() - due)
            for index, coords in enumerate(self.coords[domain]):
                future = self.server.submit(QueryRequest(f"d{domain}", coords=coords))
                future.add_done_callback(
                    lambda f, due=due, key=(domain, index): self._done(f, due, key))
                self.futures.append(future)

    def _done(self, future, due, key):
        self.latencies.append(time.perf_counter() - due)
        self.results.append((*key, future.result()))

    def drain(self):
        wait_futures(self.futures, timeout=120)
        self.futures = []

    def layer_metrics(self):
        n = len(self.latencies)
        out = self.span_layers(self.before["span_mark"], n)
        out.update(snapshot_delta(self.before, server_snapshot(self.server, self.tracer)))
        out[layers.OP_CALLS] = out.pop("op_calls") / n
        out["serving.scheduler.queue_wait_ms"] = 1e3 * sum(
            r.queue_seconds for _, _, r in self.results) / n
        # Every request of a burst waits for the burst's lag.
        out["bench.generator_lag_ms"] = 1e3 * sum(self.lags) * BURST_REQUESTS / n
        return out

    def check(self):
        self.failed = sum(1 for _, _, r in self.results if not r.ok)
        problems = []
        direct = InferenceEngine(self.model)  # encodes each domain once
        references = {}
        for domain, index, result in self.results:
            if not result.ok:
                continue
            if (domain, index) not in references:
                references[domain, index] = direct.query_points(
                    self.domains[domain], self.coords[domain][index])
            problems += check_reply(result.values, (1, BURST_POINTS, 4),
                                    references[domain, index], f"request {domain}/{index}")
        return problems


# --------------------------------------------------------------------------
# superres_grid
# --------------------------------------------------------------------------

class SuperresGrid(Workload):
    """Compiled, tiled whole-domain super-resolution of never-seen domains."""

    name = "superres_grid"

    def setup(self):
        self.model = _model(self.seed)
        self.engine = InferenceEngine(self.model, tile_shape=TILE, compile=True)
        self.engine.predict_grid(_rng(self.seed, 3, 0).standard_normal(DOMAIN), SUPERRES_OUT)
        self.ops = 0
        self.samples = []

    def teardown(self):
        self.engine = None

    def _counters(self):
        cache = self.engine.cache.stats()
        compiled = self.engine.compile_stats
        return {
            "span_mark": self.tracer.mark(),
            "op_calls": self.tracer.count(layers.OP_CALLS),
            "hits": cache.hits, "misses": cache.misses,
            "plan_hits": compiled["plan_hits"],
            "fallbacks": sum(compiled["fallbacks"].values()),
        }

    def begin(self):
        if self.tracer is not None:
            self.before = self._counters()

    def round(self):
        self.ops += 1
        rng = _rng(self.seed, 3, self.ops)
        domain = rng.standard_normal(DOMAIN)
        start = time.perf_counter()
        out = self.engine.predict_grid(domain, SUPERRES_OUT)
        self.latencies.append(time.perf_counter() - start)
        rows = rng.choice(int(np.prod(SUPERRES_OUT)), size=SUPERRES_SAMPLE, replace=False)
        flat = out.reshape(out.shape[0], out.shape[1], -1)
        self.samples.append((domain, out.shape, rows, np.moveaxis(flat[:, :, rows], 1, 2)))

    def layer_metrics(self):
        n = len(self.latencies)
        after = self._counters()
        out = self.span_layers(self.before["span_mark"], n)
        hits = after["hits"] - self.before["hits"]
        misses = after["misses"] - self.before["misses"]
        out["inference.cache.hit_ratio"] = hits / (hits + misses)
        for key, metric in (("op_calls", layers.OP_CALLS), ("plan_hits", "compile.plan_hits"),
                            ("fallbacks", "compile.fallbacks")):
            out[metric] = (after[key] - self.before[key]) / n
        return out

    def check(self):
        problems = []
        grid = regular_grid_coordinates(SUPERRES_OUT)
        for op, (domain, shape, rows, values) in enumerate(self.samples):
            if shape != (1, 4, *SUPERRES_OUT):
                problems.append(f"op {op}: shape {shape}")
                continue
            problems += check_reply(values, (1, SUPERRES_SAMPLE, 4),
                                    direct_decode(self.model, domain, grid[rows]), f"op {op}")
        return problems


# --------------------------------------------------------------------------
# train_pde
# --------------------------------------------------------------------------

class TrainPde(Workload):
    """One compiled physics-constrained data-parallel optimizer step per op."""

    name = "train_pde"

    def _trainer(self, compile_flag: bool) -> DistributedTrainer:
        model = self.scenario.build_model("tiny", unet_norm="group", seed=self.seed)
        config = TrainerConfig(epochs=1, batch_size=BATCH, world_size=WORLD_SIZE, nodes=NODES,
                               gamma=GAMMA, learning_rate=1e-3, seed=self.seed,
                               compile=compile_flag)
        return DistributedTrainer(model, self.dataset, pde_system=self.pde, config=config)

    def setup(self):
        self.scenario = get_scenario("rayleigh_benard")
        hr = self.scenario.generate(nt=16, nz=16, nx=32, seed=self.seed)
        self.dataset = self.scenario.make_dataset(
            results=hr, lr_factors=(2, 2, 2), crop_shape_lr=(4, 4, 8),
            n_points=TRAIN_POINTS, samples_per_epoch=64, seed=self.seed)
        self.pde = self.scenario.make_pde_system()
        self.trainer = self._trainer(True)
        self.warm_records = [self.trainer.train_step(step, 0) for step in range(WARM_STEPS)]
        self.records = []

    def teardown(self):
        self.trainer = None

    def _counters(self):
        stats = self.trainer._compiled_step.stats()
        return {
            "span_mark": self.tracer.mark() if self.tracer is not None else 0,
            "op_calls": self.tracer.count(layers.OP_CALLS) if self.tracer is not None else 0,
            "plan_hits": stats["plan_hits"],
            "fallbacks": sum(stats["fallbacks"].values()),
            "bytes": self.trainer.communicator.total_bytes,
        }

    def begin(self):
        self.before = self._counters()

    def round(self):
        step = WARM_STEPS + len(self.records)
        start = time.perf_counter()
        record = self.trainer.train_step(step, 0)
        self.latencies.append(time.perf_counter() - start)
        self.records.append(record)

    def layer_metrics(self):
        n = len(self.latencies)
        after = self._counters()
        out = self.span_layers(self.before["span_mark"], n)
        for key, metric in (("op_calls", layers.OP_CALLS), ("plan_hits", "compile.plan_hits"),
                            ("fallbacks", "compile.fallbacks"), ("bytes", "distributed.comm.bytes")):
            out[metric] = (after[key] - self.before[key]) / n
        return out

    def check(self):
        problems = []
        for step, record in enumerate(self.warm_records + self.records):
            if not all(math.isfinite(v) for v in record.values()):
                problems.append(f"step {step}: non-finite loss {record}")
        fallbacks = self.trainer._compiled_step.stats()["fallbacks"]
        if fallbacks:
            problems.append(f"compile fallbacks: {fallbacks}")
        eager = self._trainer(False)
        for step, record in enumerate(self.warm_records):
            if eager.train_step(step, 0) != record:
                problems.append(f"step {step}: compiled loss record differs from eager")
        problems += self._check_gradients()
        return problems

    def _check_gradients(self) -> list[str]:
        """All-reduced gradients == serial micro-batch average of the same samples."""
        trainer = self.trainer
        trainer.synchronize_gradients(WARM_STEPS + len(self.records), 0)
        reference = self.scenario.build_model("tiny", unet_norm="group")
        reference.load_state_dict(trainer.model.state_dict())
        reference.zero_grad()
        weights = LossWeights(gamma=GAMMA)
        for _node, _acc, _rank, indices in trainer.last_step_indices:
            batch = self.dataset.sample_batch(indices, epoch=0)
            total, _ = compute_losses(
                reference, Tensor(batch.lowres), Tensor(batch.coords, requires_grad=True),
                Tensor(batch.targets), self.pde, weights, coord_scales=batch.coord_scales)
            (total * (1.0 / WORLD_SIZE)).backward()
        worst = max(float(np.max(np.abs(p.grad - q.grad)))
                    for p, q in zip(trainer.model.parameters(), reference.parameters()))
        return [] if worst <= GRAD_TOL else [f"all-reduced gradients off by {worst:.3e}"]


# --------------------------------------------------------------------------
# pipeline_table1
# --------------------------------------------------------------------------

class PipelineTable1(Workload):
    """A cold reduced Table-1 run into a fresh store, then a warm re-run."""

    name = "pipeline_table1"

    def setup(self):
        config = PipelineConfig(
            name="perfbench-table1", scale="tiny",
            scale_overrides={**TABLE1_SCALE, "seed": self.seed},
            jobs=1, figures={"fig2": False}, table1_gammas=TABLE1_GAMMAS,
            validate_table1=False)
        self.pipeline = build_standard_pipeline(config)
        store = Path(tempfile.mkdtemp(prefix="store-", dir=self.workdir))
        try:
            self.reference = self._summary(run_pipeline(self.pipeline, ArtifactStore(store)))
        finally:
            shutil.rmtree(store)
        self.runs = []
        self.bytes_written = []

    @staticmethod
    def _summary(report) -> dict:
        return {
            "counts": report.counts(),
            "fingerprints": {name: r.fingerprint for name, r in report.results.items()},
            "table1": fingerprint({label: row.as_dict() for label, row in
                                   report.values["table.table1"]["reports"].items()}),
        }

    def begin(self):
        if self.tracer is not None:
            self.before = {"span_mark": self.tracer.mark(),
                           "op_calls": self.tracer.count(layers.OP_CALLS)}

    def _run(self, store):
        return self.traced("pipeline.graph", run_pipeline, self.pipeline, store, adopt=True)

    def round(self):
        root = Path(tempfile.mkdtemp(prefix="store-", dir=self.workdir))
        try:
            store = ArtifactStore(root)
            start = time.perf_counter()
            cold = self._run(store)
            warm = self._run(store)
            self.latencies.append(time.perf_counter() - start)
            self.bytes_written.append(sum(p.stat().st_size for p in root.rglob("*") if p.is_file()))
        finally:
            shutil.rmtree(root)
        self.runs.append((self._summary(cold), self._summary(warm)))

    def layer_metrics(self):
        n = len(self.latencies)
        out = self.span_layers(self.before["span_mark"], n)
        out[layers.OP_CALLS] = (self.tracer.count(layers.OP_CALLS) - self.before["op_calls"]) / n
        out["pipeline.artifacts.bytes_written"] = sum(self.bytes_written) / n
        return out

    def check(self):
        problems = []
        n_stages = len(self.reference["fingerprints"])
        if self.reference["counts"] != {"computed": n_stages}:
            problems.append(f"set-up cold run: {self.reference['counts']}")
        for op, (cold, warm) in enumerate(self.runs):
            if cold["counts"] != {"computed": n_stages}:
                problems.append(f"op {op}: cold run {cold['counts']}")
            if warm["counts"] != {"cached": n_stages}:
                problems.append(f"op {op}: warm run not fully cached {warm['counts']}")
            for run in (cold, warm):
                if run["fingerprints"] != self.reference["fingerprints"]:
                    problems.append(f"op {op}: fingerprints differ between cold runs")
                if run["table1"] != self.reference["table1"]:
                    problems.append(f"op {op}: Table 1 values differ between runs")
        return problems


WORKLOADS = {cls.name: cls for cls in (ServeHttp, ServeBurst, SuperresGrid, TrainPde,
                                       PipelineTable1)}


# --------------------------------------------------------------------------
# one run
# --------------------------------------------------------------------------

def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
            setups: int = SETUPS) -> dict:
    """Run one workload end to end; returns the result record.

    The record holds ``correct``, ``attempted``, ``failed``, the problems
    the checks found, and ``metrics``: the end-to-end metrics of an
    untraced run, or the per-layer metrics of a traced one.
    """
    tracer = Tracer() if trace else None
    if tracer is not None:
        layers.install(tracer)
    try:
        workload = WORKLOADS[name](seed, tracer, workdir)
        try:
            setup_times = []
            for index in range(setups):
                if index:
                    workload.teardown()
                    gc.collect()  # one set-up's leftovers must not raise the next one's peak
                start = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - start)
            cpu_before, _ = workload.usage()
            workload.begin()
            start = time.perf_counter()
            rounds = 0
            while True:
                workload.round()
                rounds += 1
                if time.perf_counter() - start >= seconds:
                    break
            workload.drain()
            elapsed = time.perf_counter() - start
            cpu_after, peak_rss_kb = workload.usage()
            n_ops = len(workload.latencies)
            per_layer = workload.layer_metrics() if tracer is not None else None
            problems = workload.check()
            failed = workload.failed
            latencies = list(workload.latencies)
            extra = {"rounds": rounds, "setup_runs_s": setup_times,
                     "op_mean_ms": 1e3 * statistics.fmean(workload.latencies)}
            events = list(getattr(workload, "child_events", []))
        finally:
            try:
                workload.teardown()
            finally:
                workload.close()
    finally:
        if tracer is not None:
            tracer.restore()

    if per_layer is not None:
        metrics = layers.finish(per_layer, 1e3 * statistics.fmean(latencies))
        events += tracer.chrome_events(pid=0)
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "ops_per_s": n_ops / elapsed,
            "cpu_ms_per_op": 1e3 * (cpu_after - cpu_before) / n_ops,
            "peak_rss_mb": peak_rss_kb / 1024.0,
        }
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "correct": not problems, "attempted": n_ops, "failed": failed,
        "problems": problems[:20], "metrics": metrics, "extra": extra,
        "chrome_trace": {"traceEvents": events} if trace else None,
    }
