"""The repository benchmark: rank a sharded store, then serve σ from the fleet.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-point --seed 1 --seconds 45 --trace 0

Every workload runs the whole path the system exists for, through its
public entry points:

1. **Rank a store.**  Generate a sharded source graph
   (``generate_source_store``) and rank it with
   ``SpamResilientPipeline.rank_store``; every σ is checked against an
   in-memory solve of the same problem.
2. **Serve a read.**  Publish σ, start a 2-replica ``ServingFleet`` and drive
   its front door from ``loadgen.py`` in a separate process: a fixed
   open-loop reference rate (p50), both connections sending back to back
   (capacity), and publishes to measure how soon readers see a new σ.
   Sampled replies are checked against σ of the version they name.

The workloads (see ``workloads.py``) differ in what they stress.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run, and the spans are written under ``perfbench/out/``.

The benchmark runs in a child process of its own session; this process
waits for it and then stops and reaps every process the run left behind
(fleet replicas, the load generator, multiprocessing's resource tracker),
on every way out, before it exits.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

#: Set in the environment of the process that runs the benchmark itself.
WORKER_ENV = "PERFBENCH_WORKER"
#: A run that has not ended by then is stopped and reports no result.
RUN_LIMIT_S = 170.0
#: How long leftover processes get to exit on their own after the run.
LINGER_S = 3.0


def parse_args(argv: list[str]) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "smoke"), default="full",
        help="smoke shrinks every size for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def _work_dir(workload: str, pid: int) -> Path:
    """Scratch stores and snapshots of the run in process ``pid``."""
    return HERE / "out" / f"work-{workload}-{pid}"


def _session_members(sid: int) -> list[int]:
    """Pids of the processes in session ``sid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # After the command name: state, ppid, pgrp, session.
        if int(fields[3]) == sid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def _reap() -> None:
    """Collect every child that has ended (orphans are ours as subreaper)."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _stop_session(sid: int) -> None:
    """Give the run's leftover processes ``LINGER_S`` to exit, then SIGTERM
    them, then SIGKILL them; reap every one."""
    for sig in (None, signal.SIGTERM, signal.SIGKILL):
        if sig is not None:
            for pid in _session_members(sid):
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
        deadline = time.monotonic() + LINGER_S
        while time.monotonic() < deadline:
            _reap()
            if not _session_members(sid):
                return
            time.sleep(0.02)


def supervise(argv: list[str], workload: str) -> int:
    """Run the benchmark in a child of its own session; stop all it leaves."""
    try:
        # PR_SET_CHILD_SUBREAPER: orphaned descendants become our children,
        # so they can be waited for.
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass
    stop = []
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, lambda signum, frame: stop.append(signum))
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        env=dict(os.environ, **{WORKER_ENV: "1"}),
        start_new_session=True,
    )
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        while child.poll() is None:
            if stop or time.monotonic() > deadline:
                print("perfbench: run stopped before it ended", file=sys.stderr)
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
                break
            time.sleep(0.05)
    finally:
        _stop_session(child.pid)
        # The child removes its scratch directory itself unless it was killed.
        shutil.rmtree(_work_dir(workload, child.pid), ignore_errors=True)
    code = child.returncode
    if stop or code < 0:
        return 1
    return code


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    if os.environ.get(WORKER_ENV) != "1":
        return supervise(argv, args.workload)
    sys.path.insert(0, str(src))
    logging.getLogger("repro").setLevel(logging.ERROR)

    from bench import Bench
    from checks import CheckFailed
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.scale == "smoke":
        workload = workload.smoke()
    work = _work_dir(args.workload, os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(workload, args.seed, args.seconds, work, src, trace=bool(args.trace))
    try:
        try:
            metrics = bench.run()
            correct = True
        except CheckFailed as exc:
            print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
            metrics, correct = {}, False
        finally:
            bench.close()
        if args.trace:
            bench.tracer.dump(HERE / "out" / f"trace-{args.workload}-{args.seed}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
