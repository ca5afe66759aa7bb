"""Child process of the benchmark: everything that imports tlbraid.

    python3 perfbench/worker.py JOB.json

The job's "mode" is one of
  tags   report the versions and settings every result is tagged with;
  lib    time a library workload's passes within "seconds", checking each op;
  trace  a warm-up, an untraced and a traced pass, all in this process; a
         CLI workload's command lines run through tlbraid.cli.main.
The result is printed as one JSON object on the last line of stdout.  The
parent reads this process's peak memory from os.wait4.
"""

from __future__ import annotations

import ctypes
import json
import platform
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
import workloads


def blas_threads():
    """Thread count of the loaded OpenBLAS, if numpy uses one."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in paths:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return int(getattr(lib, fn)())
    return None


def tags() -> dict:
    import tlbraid
    return {
        "kernel_backend": tlbraid.kernel_backend(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "tlbraid_path": str(Path(tlbraid.__file__).resolve().parent),
    }


def run_op(op: workloads.LibOp):
    """(seconds, failure or None); the check runs after the clock stops."""
    start = time.perf_counter()
    try:
        out = op.run()
    except (Exception, SystemExit):
        seconds = time.perf_counter() - start
        traceback.print_exc()
        return seconds, "raised " + traceback.format_exc().splitlines()[-1]
    seconds = time.perf_counter() - start
    try:
        return seconds, op.check(out)
    except Exception:
        traceback.print_exc()
        return seconds, "check raised " + traceback.format_exc().splitlines()[-1]


def lib_pass(ops, tracer=None):
    rows = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        seconds, failure = run_op(op)
        rows.append([op.label, seconds, failure])
    return sum(r[1] for r in rows), rows


def stream_bytes_per_s(size: int) -> float:
    """A plain numpy streaming pass: read two arrays of `size` amplitudes,
    write one.  The reference for the gather kernel's computed bytes."""
    a = np.ones(size, dtype=np.complex128)
    b = np.ones(size, dtype=np.complex128)
    out = np.empty_like(a)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        np.multiply(a, b, out=out)
        times.append(time.perf_counter() - start)
    return 3 * a.nbytes / sorted(times)[2]


def in_process_ops(job) -> list[workloads.LibOp]:
    """The job's ops as calls in this process: library calls, or the CLI's
    `main(argv)` for each command line (its output is checked by the parent)."""
    if job["workload"] in workloads.LIB_WORKLOADS:
        return workloads.lib_ops(job["workload"], job["seed"], job["small"])
    from tlbraid import cli
    return [workloads.LibOp(op["label"], lambda argv=op["argv"]: cli.main(argv),
                            lambda code: None if code == 0 else f"exit code {code}")
            for op in job["cli_ops"]]


def trace_job(job) -> dict:
    """A warm-up pass, an untraced pass and a traced pass, in that order, so
    both compared passes run warm and the traced outputs are left on disk."""
    ops = in_process_ops(job)
    _, warm_rows = lib_pass(ops)
    untraced_s, untraced_rows = lib_pass(ops)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    traced_s, rows = lib_pass(ops, tracer)

    cli_ops = job.get("cli_ops", [])
    out_bytes = sum(Path(op["out"]).stat().st_size for op in cli_ops
                    if Path(op["out"]).exists())
    formats = [op["argv"][op["argv"].index("--format") + 1]
               if "--format" in op["argv"] else "text" for op in cli_ops]
    gathered = [s[5] for s in tracer.spans
                if tracer.names[s[0]] == "kernels.gather_pass"]
    # the computed bytes of one call are 3x the state size in bytes
    stream = stream_bytes_per_s(max(gathered) // 48) if gathered else 0.0
    metrics = tracing.per_layer(tracer, formats or [None] * len(ops), out_bytes,
                                stream)
    tracer.write(Path(job["spans_out"]), [op.label for op in ops])
    return {"untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
            "untraced_ops": warm_rows + untraced_rows, "ops": rows,
            "metrics": metrics}


def main(job_path: str) -> dict:
    job = json.loads(Path(job_path).read_text())
    if job["mode"] == "tags":
        return tags()
    if job["mode"] == "lib":
        ops = workloads.lib_ops(job["workload"], job["seed"], job["small"])
        # passes while another one, checks included, fits in "seconds"
        start, passes, rows, last = time.perf_counter(), [], [], 0.0
        while not passes or time.perf_counter() - start + last <= job["seconds"]:
            begun = time.perf_counter()
            _, pass_rows = lib_pass(ops)
            passes.append([r[1] for r in pass_rows])
            rows += pass_rows
            last = time.perf_counter() - begun
        return {"passes": passes, "ops": rows}

    return trace_job(job)


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1])))
