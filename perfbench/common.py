"""Helpers shared by the benchmark entry point, its workers and tests.

Nothing here imports ``repro``: the entry process stays light, and
the helpers are testable without the simulator on the path.
"""

import gc
import heapq
import itertools
import json
import math
import os
import re
import resource
import sys
import time

#: Where the benchmark lives and the checkout it measures.
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Everything a run writes (trace files, temp dirs) goes under here.
OUT_DIR = os.path.join(BENCH_DIR, "out")

WORKLOADS = ("e13b_recovery", "e12_matmul", "occam_cp", "serve_mixed")
SIM_WORKLOADS = WORKLOADS[:3]

#: Environment knobs that would pick another kernel tier, fan work out
#: to a process pool, or point the service at shared directories.
SCRUBBED_ENV = (
    "REPRO_SLOW_KERNEL", "REPRO_TURBO_KERNEL", "REPRO_VECTOR_KERNEL",
    "REPRO_SWEEP_JOBS", "REPRO_CACHE_DIR", "REPRO_JOURNAL_DIR",
    "REPRO_AOT_DIR",
)

#: Thread pools of numpy's BLAS: one thread each.  The simulator is
#: single-threaded; idle BLAS threads spin, and on a 2-CPU host their
#: CPU time would swamp set-up and serving times.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Latency charged to a failed, refused or timed-out request: it
#: misses every limit, so it sorts above any real sample.
FAILED_LATENCY_S = 30.0

#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def scrubbed_env(base=None) -> dict:
    """A copy of ``base`` (default: this process) with the tier, pool
    and directory knobs removed, BLAS pinned to one thread and ``src``
    first on ``PYTHONPATH``."""
    env = dict(os.environ if base is None else base)
    for name in SCRUBBED_ENV:
        env.pop(name, None)
    env.update(PINNED_ENV)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    return env


def check_metric_name(name: str) -> str:
    if not METRIC_NAME.fullmatch(name) or len(name) > 64:
        raise ValueError(f"bad metric name {name!r}")
    return name


def samples_beyond(n: int, q: float) -> float:
    """How many of ``n`` samples lie above the ``q``-th percentile."""
    return n * (100.0 - q) / 100.0


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (linear interpolation), refusing a
    percentile with fewer than ``MIN_BEYOND`` samples beyond it."""
    values = sorted(samples)
    n = len(values)
    if samples_beyond(n, q) < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has fewer than {MIN_BEYOND} "
            "samples beyond it")
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def min_samples(q: float) -> int:
    """Smallest sample count whose ``q``-th percentile is reportable."""
    return math.ceil(MIN_BEYOND * 100.0 / (100.0 - q))


#: Seconds one :func:`calibrate` call takes at the reference host speed
#: (its median on the 2-CPU host the benchmark was built on).
CALIBRATION_REF_S = 0.011
#: Sampling period of the calibration side process (``serve_mixed``):
#: a 5% duty cycle on one CPU.
CALIBRATION_PERIOD_S = 0.2


class _Proc:
    __slots__ = ("n", "acc")

    def __init__(self):
        self.n = 0
        self.acc = {}


def _ticker(proc, k):
    while True:
        proc.n += 1
        slot = proc.n & 4095
        proc.acc[slot] = proc.acc.get(slot, 0) + k
        yield (proc.n * 7 + k) % 13 + 1


def calibrate(clock=time.perf_counter) -> float:
    """Seconds on ``clock`` for a fixed pure-Python load shaped like
    the simulator's hot loop: a timer heap resuming generator processes
    that update dict and slot state.  It is the benchmark's own code,
    so no change to the program moves it; it measures how fast the
    host is running right now.

    The garbage collector is off while it runs: its collections would
    scan the calling process's live objects, so the load's time would
    depend on what the caller holds (a simulation's state, say)
    rather than on the host alone."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        order = itertools.count()
        gens = [_ticker(_Proc(), k) for k in range(512)]
        heap = [(next(g), next(order), i) for i, g in enumerate(gens)]
        heapq.heapify(heap)
        for _ in range(6000):
            now, _seq, i = heapq.heappop(heap)
            heapq.heappush(heap, (now + next(gens[i]), next(order), i))
        return clock() - t0
    finally:
        if collecting:
            gc.enable()


def peak_rss_mb(pid=None) -> float:
    """Peak resident set size in MB: of ``pid`` (read from /proc while
    it lives) or of this process."""
    if pid is not None:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM for pid {pid}")
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_cpu_s(pid) -> float:
    """CPU seconds (user and system) of the live process ``pid``, with
    those of the children it has reaped, read from /proc."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # utime, stime, cutime and cstime are fields 14-17 of the line.
    return sum(int(f) for f in fields[11:15]) / os.sysconf("SC_CLK_TCK")


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def result_line(correct, attempted, failed, metrics) -> str:
    """The benchmark's final stdout line."""
    for name in metrics:
        check_metric_name(name)
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }, sort_keys=True)


def emit(payload: dict):
    """A worker's report: one JSON line on stdout."""
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()


def last_json_line(text: str) -> dict:
    for line in reversed(text.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON line in worker output")


# -- metric catalogue (BENCHMARK.json lists the same names) ---------------

#: End-to-end metrics, printed by every workload: (name, unit, better).
#: ``batch_s`` is the CPU time of the run's fixed batch of work: the
#: simulation itself, or the server serving the closed-loop batch.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("batch_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
#: Per-class open-loop latencies of ``serve_mixed``.  The measuring run
#: prints the medians, in wall-clock milliseconds and not gated: a
#: host that loses its CPUs to other tenants for a while moves them by
#: far more than any usable bound (see README.md).  The traced run
#: reports them with the tails as ``serve.*`` per-layer metrics.
SERVE_CLASSES = ("warm_p50_ms", "cold_p50_ms")

#: Self-time buckets of the traced run: the named ``repro`` layers, then
#: other repro packages and the benchmark's own glue ("other"), blocking
#: waits in C ("idle"), and everything else — numpy, builtins, the
#: standard library ("native").
SELF_BUCKETS = ("events", "links", "runtime", "system", "memory", "fpu",
                "core", "algorithms", "cp", "occam", "service", "net",
                "other", "idle", "native")

#: Per-layer metrics, printed by every workload's traced run (a layer
#: a workload does not exercise reads 0): (name, unit, better).
PER_LAYER = tuple(
    [(f"{layer}.self_s", "s", "lower") for layer in SELF_BUCKETS] + [
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.accounted_ratio", "ratio", "higher"),
        ("events.processed", "count", "lower"),
        ("events.heap_pushes", "count", "lower"),
        ("events.fast_lane_fraction", "ratio", "higher"),
        ("events.host_ns_per_event", "ns", "lower"),
        ("runtime.delivered", "count", "higher"),
        ("runtime.retries", "count", "lower"),
        ("links.frames_corrupted", "count", "lower"),
        ("system.recoveries", "count", "lower"),
        ("system.snapshots", "count", "lower"),
        ("fpu.vau_chain_model", "count", "higher"),
        ("fpu.chain_ops_fused", "count", "higher"),
        ("fpu.batched_elements", "count", "higher"),
        ("cp.instructions", "count", "lower"),
        ("cp.cycles", "count", "lower"),
        ("cp.block_translations", "count", "lower"),
        ("cp.block_hits", "count", "higher"),
        ("sim.ns", "ns", "lower"),
        ("sim.events", "count", "lower"),
        ("net.decode_s", "s", "lower"),
        ("net.encode_s", "s", "lower"),
        ("jobkey.key_s", "s", "lower"),
        ("service.submit_warm_s", "s", "lower"),
        ("service.submit_cold_s", "s", "lower"),
        ("cache.get_s", "s", "lower"),
        ("cache.put_s", "s", "lower"),
        ("journal.append_s", "s", "lower"),
        ("service.execute_s", "s", "lower"),
        ("service.queue_wait_s", "s", "lower"),
        ("cache.memory_hits", "count", "higher"),
        ("cache.disk_hits", "count", "lower"),
        ("cache.misses", "count", "lower"),
        ("cache.hit_ratio", "ratio", "higher"),
        ("journal.fsyncs", "count", "lower"),
        ("journal.compactions", "count", "lower"),
        ("service.queue_depth_hwm", "count", "lower"),
        ("loadgen.late_p99_ms", "ms", "lower"),
        ("serve.warm_p50_ms", "ms", "lower"),
        ("serve.warm_p99_ms", "ms", "lower"),
        ("serve.cold_p50_ms", "ms", "lower"),
        ("serve.cold_p95_ms", "ms", "lower"),
    ])


if __name__ == "__main__":
    # Calibration side process: one sample (CPU seconds) per line,
    # every CALIBRATION_PERIOD_S, until terminated.
    while True:
        print(calibrate(time.process_time), flush=True)
        time.sleep(CALIBRATION_PERIOD_S)
