"""One workload in a fresh process; prints one JSON report line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode {measure,setup,trace}

``measure`` sets up, runs the timed phase, checks every output (and,
for the simulation workloads, that the reference tier simulates the
same results), and reports timings, peak RSS and the operation
counts.  ``setup`` only sets up and reports its wall time; the entry
point takes its CPU time.  ``trace`` runs the separate traced pass and
reports the per-layer metrics.  The entry point
(``run.py``) scrubs the environment and puts ``src`` on the path.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from statistics import median  # noqa: E402

from common import (BENCH_DIR, CALIBRATION_REF_S, OUT_DIR,  # noqa: E402
                    ROOT, SIM_WORKLOADS, SRC, WORKLOADS,
                    calibrate, emit, peak_rss_mb, process_cpu_s,
                    scrubbed_env)

if SRC not in sys.path:
    sys.path.insert(0, SRC)

#: The timed phase repeats the batch at least this often.
MIN_REPS = 3
SERVER_START_S = 60.0


def _environment() -> dict:
    import numpy
    from repro.events.engine import kernel_tier
    return {"kernel_tier": kernel_tier(), "nproc": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": numpy.__version__}


# -- simulation workloads -------------------------------------------------


def _sim_setup(name, seed):
    import sim
    return sim.CLASSES[name](seed)


def _run_batch(workload, clock=time.perf_counter, calibrated=False):
    """Run the batch once; returns (seconds per operation on ``clock``,
    outputs, wall seconds of the whole batch).

    ``calibrated`` brackets every operation with :func:`calibrate` on
    the same clock and also returns each operation's time scaled to
    the reference host speed by the mean of the two calibrations around
    it, as ``(scaled, raw, speed)`` per operation.
    """
    times, outs = [], []
    start = time.perf_counter()
    before = calibrate(clock) if calibrated else None
    for op in workload.ops:
        t0 = clock()
        outs.append(workload.run(op))
        seconds = clock() - t0
        if calibrated:
            after = calibrate(clock)
            speed = CALIBRATION_REF_S / ((before + after) / 2)
            times.append((seconds * speed, seconds, speed))
            before = after
        else:
            times.append(seconds)
    return times, outs, time.perf_counter() - start


def _check_batch(workload, outs, reference) -> int:
    """Failed operations in one batch: wrong output, or simulated
    results that differ from ``reference`` (the first batch's)."""
    failed = 0
    for i, (op, out) in enumerate(zip(workload.ops, outs)):
        if not workload.check(op, out):
            failed += 1
        elif reference is not None and \
                workload.identity(out) != workload.identity(reference[i]):
            failed += 1
    return failed


def _reference_tier_failures(workload, outs) -> int:
    """Run the batch once on the reference tier and count operations
    whose simulated results differ from the default tier's."""
    from repro.events.engine import force_kernel
    with force_kernel(tier="reference"):
        ref = [workload.run(op) for op in workload.ops]
    return sum(workload.identity(a) != workload.identity(b)
               for a, b in zip(outs, ref))


def sim_measure(name, seed, seconds) -> dict:
    """Repeat the batch for ``seconds`` (at least MIN_REPS times).

    The simulations are single-threaded, so each operation is timed in
    CPU seconds of this process: time the host spends running other
    tenants does not count.  The CPU's speed still drifts on a shared
    host (cache and core contention), so every operation is bracketed
    by a fixed calibration load, also timed in CPU seconds, and its
    time scaled to the reference host speed (``CALIBRATION_REF_S`` over
    the mean of the two calibrations).  ``batch_s`` is the sum over the
    batch of each operation's median scaled time.  The unscaled median
    batch CPU time is reported alongside as ``raw_batch_s``.  Peak RSS covers
    set-up and the first MIN_REPS batches, a fixed amount of work.
    """
    workload = _sim_setup(name, seed)
    reps, failed, first, rss = [], 0, None, None
    t_end = time.perf_counter() + seconds
    batch_wall = 0.0
    while (len(reps) < MIN_REPS
           or time.perf_counter() + batch_wall <= t_end):
        times, outs, batch_wall = _run_batch(
            workload, clock=time.process_time, calibrated=True)
        reps.append(times)
        failed += _check_batch(workload, outs, first)
        first = first or outs
        if len(reps) == MIN_REPS:
            rss = peak_rss_mb()
    ref_failed = _reference_tier_failures(workload, first)
    per_op = [median([s for s, _r, _v in op])
              for op in zip(*reps)]   # each operation's repeats
    return {
        "batch_s": sum(per_op),
        "raw_batch_s": median([sum(r for _s, r, _v in times)
                               for times in reps]),
        "host_speed": median([v for times in reps for _s, _r, v in times]),
        "repeats": len(reps),
        "peak_rss_mb": rss, "attempted": (len(reps) + 1) * len(first),
        "failed": failed + ref_failed,
        "reference_failed": ref_failed, "env": _environment(),
    }


def sim_trace(name, seed) -> dict:
    from attribution import LayerProfile
    workload = _sim_setup(name, seed)
    # Two untraced batches: the first lets lazy set-up finish.
    _times, warm, _wall = _run_batch(workload)
    times, outs, _wall = _run_batch(workload)
    untraced = sum(times)
    failed = (_check_batch(workload, warm, None)
              + _check_batch(workload, outs, warm))
    profile = LayerProfile()
    profile.start()
    t0 = time.perf_counter()
    traced_outs = [workload.run(op) for op in workload.ops]
    traced = time.perf_counter() - t0
    profile.stop()
    failed += _check_batch(workload, traced_outs, outs)
    counts = workload.counters(traced_outs)
    os.makedirs(OUT_DIR, exist_ok=True)
    profile.write(os.path.join(OUT_DIR, f"profile-{name}-{seed}.jsonl"))
    self_s = profile.self_seconds()
    events = counts.get("events_processed", 0)
    scheduled = events and (counts["heap_pushes"]
                            + counts["fast_lane_hits"])
    layer = {f"{k}.self_s": v for k, v in self_s.items()}
    layer.update({
        "trace.wall_s": traced,
        "trace.overhead_ratio": traced / untraced,
        "trace.accounted_ratio": sum(self_s.values()) / traced,
        "events.processed": events,
        "events.heap_pushes": counts.get("heap_pushes", 0),
        "events.fast_lane_fraction": (
            counts["fast_lane_hits"] / scheduled if scheduled else 0.0),
        "events.host_ns_per_event": (
            untraced * 1e9 / events if events else 0.0),
        "fpu.vau_chain_model": counts.get("vau_chain_model", 0),
        "fpu.chain_ops_fused": counts.get("chain_ops_fused", 0),
        "fpu.batched_elements": counts.get("batched_elements", 0),
        "cp.instructions": counts.get("cp_instructions", 0),
        "cp.cycles": counts.get("cp_cycles", 0),
        "cp.block_translations": counts.get("cp_block_translations", 0),
        "cp.block_hits": counts.get("cp_block_hits", 0),
        "sim.ns": counts.get("sim_ns", 0),
        "sim.events": events + counts.get("cp_instructions", 0),
    })
    for key in ("runtime.delivered", "runtime.retries",
                "links.frames_corrupted", "system.recoveries",
                "system.snapshots"):
        layer[key] = counts.get(key, 0)
    return {"layer": layer, "attempted": 3 * len(workload.ops),
            "failed": failed, "env": _environment()}


# -- serve_mixed ----------------------------------------------------------


def _scratch_dir() -> str:
    base = os.path.join(OUT_DIR, "tmp")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="serve-", dir=base)


def start_server(scratch):
    """``python -m repro.service serve`` on a loopback port, with its
    cache, journal and log under ``scratch``; returns
    (proc, host, port)."""
    log_path = os.path.join(scratch, "server.log")
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--host", "127.0.0.1", "--port", "0",
             "--cache-dir", os.path.join(scratch, "cache"),
             "--journal-dir", os.path.join(scratch, "journal")],
            cwd=ROOT, env=scrubbed_env(), stdout=log,
            stderr=subprocess.STDOUT)
    deadline = time.monotonic() + SERVER_START_S
    try:
        while time.monotonic() < deadline:
            with open(log_path) as log:
                for line in log:
                    if line.startswith("serving on tcp:"):
                        address = line.split("tcp:", 1)[1].strip()
                        host, port = address.rsplit(":", 1)
                        return proc, host, int(port)
            if proc.poll() is not None:
                raise RuntimeError("server exited during start-up")
            time.sleep(0.01)
        raise TimeoutError("server did not report its address")
    except BaseException:
        stop_server(proc)
        raise


def stop_server(proc):
    """SIGTERM (the server drains gracefully), then wait for exit."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _serve_setup(seed):
    import serve
    mix = serve.JobMix(seed)
    scratch = _scratch_dir()
    try:
        serve.prefill_cache(os.path.join(scratch, "cache"), mix.warm)
        proc, host, port = start_server(scratch)
    except BaseException:
        shutil.rmtree(scratch, ignore_errors=True)
        raise
    return mix, scratch, proc, host, port


def serve_setup_only(seed) -> dict:
    _mix, scratch, proc, _host, _port = _serve_setup(seed)
    wall_s = time.perf_counter() - T_START
    stop_server(proc)
    shutil.rmtree(scratch, ignore_errors=True)
    return {"wall_s": wall_s}


class SideCalibration:
    """``calibrate()`` samples, in CPU seconds, from a side process
    while a phase runs.

    The load generator must not stall during a phase, so the host's
    speed is sampled next to it: a second process runs one calibration
    every CALIBRATION_PERIOD_S (a 5% duty cycle on one CPU, the same in
    every run) and writes the samples to a file under the run's
    scratch directory.
    """

    def __init__(self, scratch):
        self.path = os.path.join(scratch, "calibration.txt")

    def __enter__(self):
        with open(self.path, "w") as out:
            self.proc = subprocess.Popen(
                [sys.executable, os.path.join(BENCH_DIR, "common.py")],
                cwd=ROOT, env=scrubbed_env(), stdout=out)
        return self

    def __exit__(self, *exc):
        self.proc.terminate()
        self.proc.wait()
        return False

    def speed(self) -> float:
        with open(self.path) as samples:
            values = [float(line) for line in samples if line.strip()]
        return CALIBRATION_REF_S / median(values)


def serve_measure(seed, seconds) -> dict:
    """Open loop, then the closed-loop batch, against a server process.

    ``batch_s`` is the CPU seconds the server process (with any worker
    it reaps) spends on the closed-loop batch, scaled to the reference
    host speed as the simulation workloads' times are; the speed is
    sampled in CPU seconds by a side calibration process during both
    phases.  The open loop's per-class median latencies and the closed
    loop's request rate are wall-clock figures, reported alongside and
    not gated (see README.md); the open loop is too short for the tail
    percentiles, which the traced run reports.
    """
    import serve
    mix, scratch, proc, host, port = _serve_setup(seed)
    try:
        with SideCalibration(scratch) as side:
            schedule = mix.open_loop(serve.open_loop_count(seconds))
            opened = asyncio.run(serve.run_open_loop(host, port,
                                                     schedule))
            cpu0 = process_cpu_s(proc.pid)
            closed, elapsed = asyncio.run(serve.run_closed_loop(
                host, port,
                mix.closed_batch(serve.closed_loop_count(seconds))))
            cpu_s = process_cpu_s(proc.pid) - cpu0
        speed = side.speed()
        rss = peak_rss_mb(proc.pid)
    finally:
        stop_server(proc)
        shutil.rmtree(scratch, ignore_errors=True)
    digests = serve.expected_digests(
        [o.job for o in opened + closed] + mix.warm)
    completed = len(closed) - serve.count_failed(closed, digests)
    return dict(serve.score(opened, digests, tails=False),
                batch_s=cpu_s * speed, raw_batch_s=cpu_s,
                host_speed=speed, serve_rps=completed / elapsed,
                peak_rss_mb=rss, attempted=len(opened) + len(closed),
                failed=serve.count_failed(opened + closed, digests),
                env=_environment())


def serve_trace(seed, seconds) -> dict:
    """In-process server; the traced pass wraps the serving path's
    public functions and profiles every thread."""
    import serve
    from attribution import LayerProfile, SpanRecorder
    from repro.service import scheduler as sched_mod
    from repro.service.cache import ResultCache
    from repro.service.journal import JobJournal
    from repro.service.net import protocol, server as server_mod
    from repro.service.scheduler import SimulationService

    mix = serve.JobMix(seed)
    # The untraced and the traced closed loop send the same requests,
    # each to a service of its own.
    batch = mix.closed_batch(serve.TRACE_CLOSED_REQUESTS)
    scratch = _scratch_dir()

    def service_at(path):
        serve.prefill_cache(os.path.join(path, "cache"), mix.warm)
        return SimulationService(
            cache=ResultCache(root=os.path.join(path, "cache")),
            journal_dir=os.path.join(path, "journal"))

    def closed(service):
        with server_mod.ServerThread(service, host="127.0.0.1",
                                     port=0) as thread:
            return asyncio.run(serve.run_closed_loop(
                "127.0.0.1", thread.server.port, batch))

    try:
        untraced_out, untraced = closed(
            service_at(os.path.join(scratch, "a")))
        service = service_at(os.path.join(scratch, "b"))
        cache0 = dict(service.cache.stats())
        journal0 = dict(service.journal.stats())
        queued0 = len(service.queued_s)

        spans = SpanRecorder()
        spans.wrap(protocol.FrameDecoder, "feed", "net.decode")
        spans.wrap(server_mod, "encode_frame", "net.encode")
        spans.wrap(sched_mod, "job_key", "jobkey.key")
        spans.wrap(SimulationService, "submit", "service.submit",
                   rename=lambda f: ("service.submit_warm"
                                     if f.status == "cached"
                                     else "service.submit_cold"))
        spans.wrap(ResultCache, "get", "cache.get")
        spans.wrap(ResultCache, "put", "cache.put")
        spans.wrap(JobJournal, "append_many", "journal.append")
        spans.wrap(sched_mod, "execute_job", "service.execute")
        profile = LayerProfile()
        profile.start(threads=True)
        try:
            with server_mod.ServerThread(service, host="127.0.0.1",
                                         port=0) as thread:
                port = thread.server.port
                # Closed loop first: it then starts from the same cache
                # state as the untraced one.
                traced_out, traced = asyncio.run(
                    serve.run_closed_loop("127.0.0.1", port, batch))
                schedule = mix.open_loop(
                    serve.open_loop_count(seconds, tails=True))
                opened = asyncio.run(serve.run_open_loop(
                    "127.0.0.1", port, schedule))
        finally:
            profile.stop()
            spans.unwrap_all()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    os.makedirs(OUT_DIR, exist_ok=True)
    spans.write(os.path.join(OUT_DIR, f"spans-serve_mixed-{seed}.jsonl"))
    profile.write(os.path.join(OUT_DIR,
                               f"profile-serve_mixed-{seed}.jsonl"))
    outcomes = untraced_out + opened + traced_out
    digests = serve.expected_digests([o.job for o in outcomes])
    failed = serve.count_failed(outcomes, digests)

    self_s = profile.self_seconds()
    layer = {f"{k}.self_s": v for k, v in self_s.items()}
    mean = spans.mean_self()
    for name in ("net.decode", "net.encode", "jobkey.key",
                 "service.submit_warm", "service.submit_cold",
                 "cache.get", "cache.put", "journal.append",
                 "service.execute"):
        layer[f"{name}_s"] = mean.get(name, 0.0)
    waits = service.queued_s[queued0:]
    layer["service.queue_wait_s"] = sum(waits) / len(waits) if waits \
        else 0.0
    cache = service.cache.stats()
    hits = {k: cache[k] - cache0[k]
            for k in ("memory_hits", "disk_hits", "misses")}
    journal = service.journal.stats()
    lookups = sum(hits.values())
    layer.update({
        "cache.memory_hits": hits["memory_hits"],
        "cache.disk_hits": hits["disk_hits"],
        "cache.misses": hits["misses"],
        "cache.hit_ratio": ((hits["memory_hits"] + hits["disk_hits"])
                            / lookups if lookups else 0.0),
        "journal.fsyncs": journal["fsyncs"] - journal0["fsyncs"],
        "journal.compactions": (journal["compactions"]
                                - journal0["compactions"]),
        "service.queue_depth_hwm": service.queue_depth_hwm,
        "loadgen.late_p99_ms": serve.lateness_p99_ms(opened),
        **{f"serve.{name}": value
           for name, value in serve.score(opened, digests).items()},
        "trace.wall_s": traced,
        "trace.overhead_ratio": traced / untraced,
        "trace.accounted_ratio": (sum(self_s.values())
                                  / profile.thread_seconds),
    })
    return {"layer": layer, "attempted": len(outcomes), "failed": failed,
            "env": _environment()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("measure", "setup", "trace"))
    args = parser.parse_args(argv)
    is_sim = args.workload in SIM_WORKLOADS
    if args.mode == "setup":
        if is_sim:
            _sim_setup(args.workload, args.seed)
            report = {"wall_s": time.perf_counter() - T_START}
        else:
            report = serve_setup_only(args.seed)
    elif args.mode == "measure":
        report = (sim_measure(args.workload, args.seed, args.seconds)
                  if is_sim else serve_measure(args.seed, args.seconds))
    else:
        report = (sim_trace(args.workload, args.seed) if is_sim
                  else serve_trace(args.seed, args.seconds))
    emit(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
