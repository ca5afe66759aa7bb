#!/usr/bin/env python3
"""Self-test of the benchmark's checks, at small sizes, in about a minute.

    python3 perfbench/selftest.py

Every operation of every workload runs once at a small size and must pass
its check.  Then one output per checker is corrupted and the check must
catch it, and a wrong Schmidt rank must be counted.  Last, a command that
hangs and one that dies with a traceback must both count as failed.  Exits
0 when all of that holds.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import run as bench
import workloads


def corrupt_json(path: Path) -> None:
    obj = json.loads(path.read_text())
    if "state" in obj:
        obj["state"]["amplitudes"][-1][0] += 1e-6
    else:
        obj["reports"]["tla"]["relations"][0]["max_residual"] = 1e-3
    path.write_text(json.dumps(obj))


def corrupt_text_amplitude(path: Path) -> None:
    """Swap the last printed amplitude's real part for a slightly larger one."""
    lines = path.read_text().splitlines()
    i = max(j for j, line in enumerate(lines) if line.startswith("|"))
    m = workloads.AMP_LINE.match(lines[i])
    lines[i] = f"|{m.group(1)}>  {float(m.group(2)) + 1e-6!r}{m.group(3)}i"
    path.write_text("\n".join(lines) + "\n")


def corrupt_text_entropy(path: Path) -> None:
    text = path.read_text()
    path.write_text(re.sub(r"entropy (\S+) bits",
                           lambda m: f"entropy {float(m.group(1)) + 1e-3!r} bits",
                           text, count=1))


def check_rank_count(op, problems: list) -> None:
    """A wrong Schmidt rank is counted as a mismatch, not failed."""
    text = op.out.read_text()
    op.out.write_text(re.sub(r"schmidt rank 2, entangled",
                             "schmidt rank 3, entangled", text, count=1))
    failure, mismatches = bench.check(op)
    if failure or mismatches < 1:
        problems.append(f"{op.label}: a wrong rank gave {failure!r}, "
                        f"{mismatches} mismatches")
    else:
        print(f"ok  {op.label}: a wrong rank is counted")


def check_cli(workdir: Path, problems: list) -> None:
    for name in workloads.CLI_WORKLOADS:
        run = bench.Run(name, 7, 1, workdir, small=True)
        for op in workloads.cli_ops(name, 7, workdir, small=True):
            tally = bench.Tally()
            run.cli(op, tally)
            if tally.failures:
                problems.append(f"{name}/{op.label} fails: {tally.failures}")
                continue
            if op.out.suffix == ".json":
                corruptions = [corrupt_json]
            else:
                corruptions = [corrupt_text_amplitude, corrupt_text_entropy]
            pristine = op.out.read_bytes()
            if op.label == "generate_cluster_text":
                check_rank_count(op, problems)
            for corrupt in corruptions:
                op.out.write_bytes(pristine)
                corrupt(op.out)
                if bench.check(op)[0] is None:
                    problems.append(f"{name}/{op.label}: {corrupt.__name__} "
                                    "not caught")
            print(f"ok  {name}/{op.label}")


def check_lib(problems: list) -> None:
    sys.path.insert(0, str(bench.SRC))
    for name in workloads.LIB_WORKLOADS:
        for op in workloads.lib_ops(name, 7, small=True):
            out = op.run()
            failure = op.check(out.copy())
            if failure:
                problems.append(f"{name}/{op.label} fails: {failure}")
                continue
            if op.label.startswith("inverse"):
                continue    # its check consumed the forward result
            for value in (out[0] + 1e-9, np.nan):
                bad = out.copy()
                bad[0] = value
                if op.check(bad) is None:
                    problems.append(f"{name}/{op.label}: {value} not caught")
            print(f"ok  {name}/{op.label}")


def check_inverse_catches(problems: list) -> None:
    ops = workloads.lib_ops("amp_mixing", 7, small=True)
    forward, inverse = ops[0], ops[1]
    forward.run()
    back = inverse.run()
    back[-1] += 1e-9
    if inverse.check(back) is None:
        problems.append("amp_mixing/inverse: corruption not caught")
    else:
        print("ok  amp_mixing/inverse corruption caught")


def check_failure_paths(workdir: Path, problems: list) -> None:
    hang = bench.spawn([sys.executable, "-c", "import time; time.sleep(30)"],
                       1.0, workdir / "hang.log")
    if not (hang.timed_out and hang.failure()):
        problems.append("a hanging command was not counted as failed")
    crash = bench.spawn([sys.executable, "-c", "import sys; print(1/0)"],
                        10.0, workdir / "crash.log")
    if not crash.failure():
        problems.append("a command with a traceback was not counted as failed")
    print("ok  timeout and traceback count as failures")


def main() -> int:
    bench.STATE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=bench.STATE))
    problems: list = []
    try:
        check_cli(workdir, problems)
        check_lib(problems)
        check_inverse_catches(problems)
        check_failure_paths(workdir, problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
