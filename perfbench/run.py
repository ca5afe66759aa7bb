#!/usr/bin/env python3
"""The tlbraid benchmark: time real commands and library calls end to end.

    python3 perfbench/run.py --workload gen_write --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it runs the tlbraid of the
checkout's `src/` and writes only under `.perfbench/` there.  --trace 0
prints the end-to-end metrics, --trace 1 the per-layer metrics of a traced
pass.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
#: A run stops starting work this long after it began; whatever is still
#: running is killed and counted as failed, so a hang cannot stall the run.
RUN_BUDGET_S = 160.0
#: Cold starts per run, half before the passes and half after; setup_s is
#: their median.
COLD_STARTS = 10

END_TO_END = ("setup_s", "pass_s", "peak_rss_mb", "ok_frac")


@dataclass
class Proc:
    code: int
    seconds: float
    peak_rss_mb: float
    stderr: str
    timed_out: bool

    def failure(self) -> str | None:
        if self.timed_out:
            return f"timed out after {self.seconds:.1f} s"
        if self.code != 0:
            return f"exit code {self.code}: {self.stderr.strip()[-300:]}"
        if "Traceback" in self.stderr:
            return "traceback on stderr"
        return None


@dataclass
class Tally:
    attempted: int = 0
    failures: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    rank_mismatches: int = 0
    rows: list = field(default_factory=list)    # (label, seconds, rss_mb)

    def add(self, label: str, failure: str | None, rss_mb: float = 0.0,
            rank_mismatches: int = 0, seconds: float = 0.0):
        self.attempted += 1
        self.rows.append((label, seconds, rss_mb))
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        self.rank_mismatches += rank_mismatches
        if failure:
            self.failures.append(f"{label}: {failure}")


def spawn(argv: list[str], timeout: float, log: Path, stdout: Path | None = None) -> Proc:
    """Run argv to completion or until `timeout`; peak RSS from os.wait4."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    lock = threading.Lock()
    state = {"reaped": False, "killed": False}
    with open(log, "wb") as err, open(stdout or os.devnull, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)

    def kill():
        with lock:
            if not state["reaped"]:
                state["killed"] = True
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(max(timeout, 0.0), kill)
    timer.start()
    # wait without reaping, so the timer can never signal a recycled pid
    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    seconds = time.perf_counter() - start
    with lock:
        state["reaped"] = True
    timer.cancel()
    timer.join()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, seconds, usage.ru_maxrss / 1024.0,
                log.read_text(errors="replace"), state["killed"])


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, workdir: Path,
                 small: bool = False):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.workdir, self.small = workdir, small
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.logs = 0

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, argv, stdout=None) -> Proc:
        self.logs += 1
        return spawn(argv, self.remaining(), self.workdir / f"{self.logs}.log", stdout)

    def cli(self, op: workloads.CliOp, tally: Tally) -> float:
        """Run one command line, check its output; return its wall time."""
        if self.remaining() <= 0:
            tally.add(op.label, "not started: run budget spent")
            return 0.0
        op.out.unlink(missing_ok=True)
        proc = self.spawn([sys.executable, "-m", "tlbraid.cli", *op.argv])
        failure, mismatches = (proc.failure(), 0) if proc.failure() else check(op)
        tally.add(op.label, failure, proc.peak_rss_mb, mismatches, proc.seconds)
        return proc.seconds

    def worker(self, job: dict) -> tuple[Proc, dict | None]:
        job_path = self.workdir / f"job-{self.logs}.json"
        out_path = self.workdir / f"job-{self.logs}.out"
        job_path.write_text(json.dumps(dict(job, workload=self.workload,
                                            seed=self.seed, small=self.small)))
        proc = self.spawn([sys.executable, str(Path(__file__).parent / "worker.py"),
                           str(job_path)], stdout=out_path)
        lines = out_path.read_text().strip().splitlines()
        result = json.loads(lines[-1]) if proc.code == 0 and lines else None
        return proc, result


def check(op: workloads.CliOp) -> tuple[str | None, int]:
    """(failure or None, Schmidt-rank mismatches) of the op's output."""
    try:
        return op.check(op.out)
    except (OSError, ValueError, KeyError, TypeError, IndexError,
            AttributeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}", 0


def cold_starts(run: Run, count: int) -> list[float]:
    """Cold-start times: interpreter, import tlbraid, BLAS, one tiny op."""
    out = run.workdir / "setup.json"
    times = []
    for _ in range(count):
        proc = run.spawn([sys.executable, "-m", "tlbraid.cli", "verify", "ybe",
                          "--format", "json", "--out", str(out)])
        if proc.failure():
            raise SystemExit(f"error: the tiny setup op failed: {proc.failure()}")
        times.append(proc.seconds)
    return times


def roundtrip_ok(run: Run) -> int:
    """1 if `generate --format json` output reads back through `entropy`."""
    tally = Tally()
    for op in workloads.roundtrip_ops(run.workdir):
        run.cli(op, tally)
    return int(not tally.failures)


def cli_pass(run: Run, ops, tally: Tally) -> list[float]:
    return [run.cli(op, tally) for op in ops]


def timed_passes(run: Run, tally: Tally) -> list[list[float]]:
    """Passes over the workload while another one fits in --seconds (at
    least one); each pass is the list of its ops' wall times."""
    if run.workload in workloads.LIB_WORKLOADS:
        proc, result = run.worker({"mode": "lib", "seconds": run.seconds})
        if result is None:
            tally.add("worker", proc.failure() or "no result", proc.peak_rss_mb)
            return [[proc.seconds]]
        for label, seconds, failure in result["ops"]:
            tally.add(label, failure, proc.peak_rss_mb, seconds=seconds)
        return result["passes"]
    ops = workloads.cli_ops(run.workload, run.seed, run.workdir, run.small)
    start, passes, last = time.monotonic(), [], 0.0
    while not passes or (time.monotonic() - start + last <= run.seconds
                         and run.remaining() > 0):
        begun = time.monotonic()
        passes.append(cli_pass(run, ops, tally))
        last = time.monotonic() - begun
    return passes


def traced_metrics(run: Run, tally: Tally) -> dict:
    """The per-layer metrics of a traced pass, and the tracing overhead.

    The worker runs the ops in its own process three times: a warm-up, an
    untraced pass and a traced pass.  Comparing the last two in one process
    keeps process start out of the overhead.
    """
    job = {"mode": "trace", "spans_out": str(run.workdir / "spans.json")}
    ops = []
    if run.workload in workloads.CLI_WORKLOADS:
        ops = workloads.cli_ops(run.workload, run.seed, run.workdir, run.small)
        job["cli_ops"] = [{"label": op.label, "argv": op.argv, "out": str(op.out)}
                          for op in ops]
    proc, result = run.worker(job)
    if result is None:
        tally.add("traced worker", proc.failure() or "no result", proc.peak_rss_mb)
        return {}
    for label, seconds, failure in result["untraced_ops"]:
        tally.add(label, failure, proc.peak_rss_mb, seconds=seconds)
    traced_mismatches = 0
    for i, (label, seconds, failure) in enumerate(result["ops"]):
        mismatches = 0
        if ops and not failure:
            failure, mismatches = check(ops[i])
        tally.add(f"traced {label}", failure, proc.peak_rss_mb, mismatches, seconds)
        traced_mismatches += mismatches
    untraced, traced = result["untraced_pass_s"], result["traced_pass_s"]
    spans = STATE / "traces" / f"{run.workload}-seed{run.seed}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    shutil.move(job["spans_out"], spans)
    return dict(result["metrics"], **{
        "entangle.rank_mismatches": traced_mismatches,
        "trace.pass_s": traced,
        "trace.untraced_pass_s": untraced,
        "trace.overhead_s": traced - untraced,
        "trace.overhead_frac": (traced - untraced) / untraced,
    })


def load_units() -> dict:
    """Unit of every metric, from BENCHMARK.json beside this directory."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def llc_bytes() -> int | None:
    """Size of the last-level cache of cpu0, from sysfs."""
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
        value = int(size.rstrip("KM")) * scale
        if best is None or level > best[0]:
            best = (level, value)
    return best[1] if best else None


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    STATE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=STATE))
    try:
        run = Run(workload, seed, seconds, workdir)
        proc, tags = run.worker({"mode": "tags"})
        if tags is None or Path(tags["tlbraid_path"]) != SRC / "tlbraid":
            raise SystemExit(f"error: cannot import tlbraid from {SRC}: "
                             f"{proc.stderr.strip()[-300:] or tags}")
        tags["tlbraid_path"] = str(Path(tags["tlbraid_path"]).relative_to(ROOT))
        rt_ok = roundtrip_ok(run)
        tally = Tally()
        if trace:
            metrics = traced_metrics(run, tally)
            metrics["cli.roundtrip_ok"] = rt_ok
            passes = []
        else:
            starts = cold_starts(run, COLD_STARTS // 2)
            passes = timed_passes(run, tally)
            starts += cold_starts(run, COLD_STARTS - len(starts))
            metrics = {
                "setup_s": statistics.median(starts),
                # each op's median over the passes damps slow machine noise
                "pass_s": sum(statistics.median(op) for op in zip(*passes)),
                "peak_rss_mb": tally.peak_rss_mb,
                "ok_frac": 1.0 - len(tally.failures) / tally.attempted,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tags.update(seed=seed, workload=workload, seconds=seconds, trace=int(trace),
                commit=git_commit(), nproc=os.cpu_count(),
                cpus_usable=len(os.sched_getaffinity(0)), llc_bytes=llc_bytes(),
                largest_state_bytes=16 << workloads.STATE_QUBITS[workload])
    return {"tags": tags, "passes": passes, "failures": tally.failures,
            "attempted": tally.attempted,
            "fail_frac": len(tally.failures) / tally.attempted,
            "cli.roundtrip_ok": rt_ok, "rank_mismatches": tally.rank_mismatches,
            "ops": tally.rows,
            "metrics": metrics}


def report(result: dict, units: dict) -> dict:
    """Print the human-readable lines; return the contract's JSON object."""
    tags = result["tags"]
    print(f"# {tags['workload']} seed {tags['seed']} trace {tags['trace']}: "
          f"{result['attempted']} ops, {len(result['failures'])} failed, "
          f"passes {[round(sum(p), 3) for p in result['passes']]}")
    print("# tags " + json.dumps(tags, sort_keys=True))
    for failure in result["failures"]:
        print(f"# FAILED {failure}")
    for name, value in result["metrics"].items():
        print(f"  {name:<36} {value:>16.6g} {units[name]}")
    print(f"  {'fail_frac':<36} {result['fail_frac']:>16.6g} fraction")
    print(f"  {'cli.roundtrip_ok':<36} {result['cli.roundtrip_ok']:>16d} count")
    print(f"  {'rank mismatches, all passes':<36} {result['rank_mismatches']:>16d} count")
    out = STATE / "results" / (f"{tags['workload']}-seed{tags['seed']}"
                               f"-trace{tags['trace']}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True))
    return {
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "tlbraid" / "cli.py").is_file():
        print(f"error: no tlbraid source under {SRC}", file=sys.stderr)
        return 2

    units = load_units()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    lines = [report(run_workload(name, args.seed, args.seconds, bool(args.trace)),
                    units) for name in names]
    if len(lines) == 1:
        final = lines[0]
    else:
        print(f"{'workload':<14}" + "".join(f"{m:>14}" for m in END_TO_END))
        for name, line in zip(names, lines):
            print(f"{name:<14}" + "".join(
                f"{line['metrics'][m]['value']:>14.6g}" if m in line["metrics"]
                else f"{'-':>14}" for m in END_TO_END))
        final = {"correct": all(ln["correct"] for ln in lines),
                 "attempted": sum(ln["attempted"] for ln in lines),
                 "failed": sum(ln["failed"] for ln in lines),
                 "metrics": {f"{n}/{k}": v for n, ln in zip(names, lines)
                             for k, v in ln["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
