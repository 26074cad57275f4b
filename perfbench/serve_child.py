"""Child process of the ``serve_http`` workload: a gateway over a ModelServer.

The benchmark process starts this script, so the server's CPU time and peak
memory are measured apart from the client's.  It reads one JSON command per
line on stdin and answers each with one JSON line on stdout:

* ``setup`` — build the tiny model and a default ``ModelServer`` (eager
  decode, tiled domains), register the domains stored in the given ``.npz``,
  encode every tile once, start the HTTP gateway; answers ``port``.
* ``teardown`` — stop the gateway and the server.  Stopping the gateway
  waits for its accept loop's next poll (up to half a second), so the
  benchmark sends this before it starts timing the next set-up.
* ``mark`` — CPU seconds, peak RSS and the program's counters.
* ``report`` — span self times, counts and counter deltas since a mark.
* ``stop`` — shut down and exit.
"""

from __future__ import annotations

import gc
import json
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import layers, workloads  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402
from repro.serving import ModelServer, QueryRequest, start_http_server, stop_http_server  # noqa: E402


class Host:
    """The server side of one ``serve_http`` run."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.server = None
        self.httpd = None

    def stop_server(self):
        if self.httpd is not None:
            stop_http_server(self.httpd)
            self.httpd = None
        if self.server is not None:
            self.server.close()
            self.server = None

    def handle(self, command: dict) -> dict:
        kind = command["cmd"]
        if kind == "setup":
            self.stop_server()
            model = workloads._model(command["model_seed"])
            self.server = ModelServer(model, tile_shape=workloads.TILE)
            with np.load(command["domains"]) as stored:
                domains = [stored[f"arr_{i}"] for i in range(len(stored.files))]
            for i, domain in enumerate(domains):
                self.server.register_domain(f"d{i}", domain)
                self.server.query(QueryRequest(f"d{i}", output_shape=domain.shape[2:])
                                  ).raise_for_status()
            self.httpd = start_http_server(self.server)
            return {"port": self.httpd.server_address[1]}
        if kind == "mark":
            cpu_s, maxrss_kb = workloads.process_usage()
            return {"cpu_s": cpu_s, "maxrss_kb": maxrss_kb,
                    **workloads.server_snapshot(self.server, self.tracer)}
        if kind == "report":
            before = command["since"]
            seconds, counts = self.tracer.layer_totals(before["span_mark"])
            after = workloads.server_snapshot(self.server, self.tracer)
            return {"seconds": seconds, "counts": counts,
                    "delta": workloads.snapshot_delta(before, after),
                    "events": self.tracer.chrome_events(pid=1)}
        if kind == "teardown":
            self.stop_server()
            gc.collect()  # this server's leftovers must not raise the next one's peak
            return {"stopped": True}
        if kind == "stop":
            self.stop_server()
            return {"stopped": True}
        raise ValueError(f"unknown command {kind!r}")


def main() -> int:
    trace = sys.argv[sys.argv.index("--trace") + 1] == "1"
    tracer = Tracer() if trace else None
    if tracer is not None:
        layers.install(tracer)
    host = Host(tracer)
    print(json.dumps({"ready": True}), flush=True)
    try:
        for line in sys.stdin:
            command = json.loads(line)
            try:
                reply = host.handle(command)
            except Exception:  # noqa: BLE001 - reported to the benchmark process
                print(json.dumps({"error": traceback.format_exc()}), flush=True)
                return 1
            print(json.dumps(reply), flush=True)
            if command["cmd"] == "stop":
                break
    finally:
        host.stop_server()
    return 0


if __name__ == "__main__":
    sys.exit(main())
