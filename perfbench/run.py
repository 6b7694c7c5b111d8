"""The repo benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout.  Every workload runs in a fresh
worker process (``worker.py``) with the kernel-tier, pool and
directory knobs scrubbed from its environment.  ``--trace 0`` prints
every end-to-end metric; ``--trace 1`` runs the separate
traced pass and prints the per-layer metrics.  The last stdout line
is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See README.md.
"""

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
import time
from statistics import median

from common import (BENCH_DIR, CALIBRATION_REF_S, END_TO_END, PER_LAYER,
                    ROOT, SERVE_CLASSES, SRC, WORKLOADS, calibrate,
                    last_json_line, metric, result_line, scrubbed_env)

#: Set-up is measured this many times per run, in fresh processes
#: apart from the measuring one; the reported ``setup_s`` is the median
#: of their calibrated CPU times.  Serving set-up (server start and cache
#: pre-fill) takes seconds, the others well under one.
SETUP_RUNS = {"serve_mixed": 3}
DEFAULT_SETUP_RUNS = 9
#: Every worker of a run must finish within this many seconds of the
#: run's start (the whole run has 180 s).
RUN_BUDGET_S = 170


class WorkerError(RuntimeError):
    pass


def run_worker(args, mode, deadline) -> dict:
    command = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--mode", mode]
    # A process group of its own, so a timeout also stops the server the
    # worker may have started.
    proc = subprocess.Popen(command, cwd=ROOT, env=scrubbed_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"{mode} worker ran past the run's "
                          f"{RUN_BUDGET_S} s budget")
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker failed "
                          f"(exit {proc.returncode}):\n" + stderr[-4000:])
    return last_json_line(stdout)


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_cpu_s(args, deadline) -> tuple:
    """One set-up in a fresh worker: the CPU seconds of the worker and
    of every process it reaped (the server, for ``serve_mixed``),
    scaled to the reference host speed by :func:`calibrate` runs in
    this (then idle) process around it, as ``batch_s`` is.  Returns the
    scaled and the raw time, and the worker's wall seconds from its
    start until it was set up."""
    before = calibrate(time.process_time)
    cpu0 = children_cpu_s()
    wall = run_worker(args, "setup", deadline)["wall_s"]
    raw = children_cpu_s() - cpu0
    speed = CALIBRATION_REF_S / ((before + calibrate(time.process_time))
                                 / 2)
    return raw * speed, raw, wall


def end_to_end(args, deadline):
    report = run_worker(args, "measure", deadline)
    setups = [setup_cpu_s(args, deadline)
              for _ in range(SETUP_RUNS.get(args.workload,
                                            DEFAULT_SETUP_RUNS))]
    report["setup_s"] = median(scaled for scaled, _raw, _wall in setups)
    report["raw_setup_runs"] = [raw for _scaled, raw, _wall in setups]
    report["setup_wall_runs"] = [wall for _scaled, _raw, wall in setups]
    metrics = {name: metric(report[name], unit)
               for name, unit, _better in END_TO_END}
    return report, metrics


def per_layer(args, deadline):
    report = run_worker(args, "trace", deadline)
    layer = report["layer"]
    metrics = {name: metric(layer.get(name, 0), unit)
               for name, unit, _better in PER_LAYER}
    return report, metrics


def main(argv=None) -> int:
    deadline = time.monotonic() + RUN_BUDGET_S
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources under {SRC}; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    try:
        report, metrics = (per_layer(args, deadline) if args.trace
                           else end_to_end(args, deadline))
    except (WorkerError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    info = {k: v for k, v in report.items() if k != "layer"}
    print("perfbench " + json.dumps(info, sort_keys=True))
    for name in sorted(metrics):
        print(f"  {name:<28} {metrics[name]['value']:>14.6g} "
              f"{metrics[name]['unit']}")
    for name in SERVE_CLASSES:
        if name in report:
            print(f"  {name:<28} {report[name]:>14.6g} ms "
                  "(wall clock, not gated)")
    print(result_line(report["failed"] == 0, report["attempted"],
                      report["failed"], metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
