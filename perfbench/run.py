"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out RESULTS.jsonl] [--chrome-trace TRACE.json]

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--out`` appends
the full record, stamped with commit, host and library versions, to the
given file; ``--chrome-trace`` writes the traced run's spans there.  The run
writes nothing else outside its scratch directory, which it removes.
"""

from __future__ import annotations

import os

#: BLAS threads of every run, fixed before NumPy loads: with OpenBLAS's
#: default of one thread per core, the compiled super-resolution op burns
#: about twice the CPU for a slower result on a two-core machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKDIR_PARENT = ROOT / ".perfbench-work"


def _commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree of its own."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def stamp() -> dict:
    """Where and with what a result was measured."""
    import numpy as np

    from repro.backend import resolve_dtype

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _commit(), "host": platform.node(), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS), "dtype_policy": np.dtype(resolve_dtype(None)).name,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, help="append the stamped record to this JSONL file")
    parser.add_argument("--chrome-trace", type=Path, help="write the traced run's spans here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import layers, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    WORKDIR_PARENT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORKDIR_PARENT))
    try:
        record = workloads.measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                   workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR_PARENT.rmdir()
        except OSError:  # another run still uses it
            pass

    units = layers.PER_LAYER if args.trace else END_TO_END_UNITS
    chrome = record.pop("chrome_trace")
    if args.chrome_trace is not None and chrome is not None:
        args.chrome_trace.write_text(json.dumps(chrome))
    if args.out is not None:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({**record, "stamp": stamp()}) + "\n")
    for problem in record["problems"]:
        print(f"check failed: {problem}")
    for name, value in record["metrics"].items():
        print(f"{args.workload:16s} {name:40s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()},
    }))
    return 0


END_TO_END_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "ops_per_s": "1/s",
                    "cpu_ms_per_op": "ms", "peak_rss_mb": "MB"}

if __name__ == "__main__":
    sys.exit(main())
