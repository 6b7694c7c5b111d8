"""The ``serve_mixed`` workload: warm and cold jobs over the socket.

Inputs (all from the seed, see :class:`JobMix`):

* a warm key set of ``WARM_KEYS`` small vector jobs, larger than the
  cache's 256-entry memory tier, pre-filled during set-up so warm
  requests hit both the memory and the disk tier;
* cold jobs of the same shape with keys never used before, which pay
  for execute, cache put and journal fsync;
* an open-loop schedule: Poisson arrivals at ``RATE_RPS``, exactly
  ``COLD_SHARE`` of them cold, each request timed from its due time;
* a fixed batch of requests drawing the same mix, served to two
  back-to-back (closed-loop) clients.

The load generator is one asyncio task set in one thread, over at
most two connections; it pipelines requests on a connection so that a
slow reply delays later requests only as the server itself does.
"""

import asyncio
import json
import random
import time
from collections import deque

from common import FAILED_LATENCY_S, percentile

#: Open-loop arrival rate: about a quarter of saturation, so that a
#: host running slower for a while does not push the server into the
#: knee of its queueing curve, where latency grows much faster than
#: the slowdown.
RATE_RPS = 50.0
#: Closed-loop requests per second of the run's last two thirds: near
#: the server's saturation (210-250 rps of this mix on a 2-CPU host), so
#: the batch takes about that long.
CLOSED_RPS = 200.0
COLD_SHARE = 0.2
WARM_KEYS = 320
CONNECTIONS = 2
REQUEST_WAIT_S = FAILED_LATENCY_S
#: Vector forms of one job: element-wise and reduction work of about
#: the same cost for every seed (operands and scalars vary).
JOB_FORMS = (("SAXPY", 1), ("VMUL", 0), ("DOT", 0), ("VADD", 0))
JOB_N = 128
#: Closed-loop requests timed with and without tracing, for the traced
#: run's overhead ratio.
TRACE_CLOSED_REQUESTS = 400


class JobMix:
    """Seeded job documents and the open-loop schedule."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._used = set()
        self.warm = [self._job() for _ in range(WARM_KEYS)]

    def _job(self) -> dict:
        rng = self._rng
        ops = []
        for form, scalars in JOB_FORMS:
            while True:
                operand_seed = rng.randrange(1 << 30)
                if operand_seed not in self._used:
                    break
            self._used.add(operand_seed)
            ops.append({
                "form": form, "n": JOB_N, "precision": 64,
                "seed": operand_seed,
                "scalars": [round(rng.uniform(-4, 4), 3)
                            for _ in range(scalars)],
                "specials": False,
            })
        return {"kind": "vector", "spec": {"kind": "vector", "ops": ops}}

    def cold(self) -> dict:
        """A job no earlier request used."""
        return self._job()

    def open_loop(self, count: int) -> list:
        """``count`` requests as ``(due_s, cls, job)``, due times from
        0; exactly ``round(count * COLD_SHARE)`` are cold."""
        rng = self._rng
        colds = round(count * COLD_SHARE)
        classes = ["cold"] * colds + ["warm"] * (count - colds)
        rng.shuffle(classes)
        schedule = []
        due = 0.0
        for cls in classes:
            due += rng.expovariate(RATE_RPS)
            job = self.cold() if cls == "cold" else rng.choice(self.warm)
            schedule.append((due, cls, job))
        return schedule

    def closed_batch(self, count: int) -> list:
        """``count`` requests as ``(cls, job)`` for the closed loop;
        exactly ``round(count * COLD_SHARE)`` are cold."""
        return [(cls, job) for _due, cls, job in self.open_loop(count)]


def open_loop_count(seconds: float, tails: bool = False) -> int:
    """Requests in the open-loop phase: the first third of the run (the
    closed loop gets the rest), and never fewer than the percentile
    rule needs for p50 of each class or, with ``tails``, for p99 of the
    warm class and p95 of the cold."""
    from common import min_samples
    if tails:
        need = max(min_samples(99) / (1 - COLD_SHARE),
                   min_samples(95) / COLD_SHARE)
    else:
        need = min_samples(50) / COLD_SHARE
    return max(int(need) + 1, round(RATE_RPS * seconds / 3))


def closed_loop_count(seconds: float) -> int:
    """Requests in the closed-loop batch: about the last two thirds of
    the run at CLOSED_RPS."""
    return max(100, round(CLOSED_RPS * seconds * 2 / 3))


class Outcome:
    """One request's fate."""

    __slots__ = ("cls", "job", "due", "sent", "done", "record",
                 "error")

    def __init__(self, cls, job, due):
        self.cls = cls
        self.job = job
        self.due = due
        self.sent = None
        self.done = None
        self.record = None
        self.error = None

    def ok(self, expected_digest) -> bool:
        return (self.error is None and self.record is not None
                and self.record.get("status") in ("done", "cached")
                and self.record.get("digest") == expected_digest)

    def latency_s(self, expected_digest) -> float:
        """From due time to reply; a failed request misses every
        limit."""
        if not self.ok(expected_digest):
            return FAILED_LATENCY_S
        return self.done - self.due


class Connection:
    """One pipelined framed-protocol connection."""

    def __init__(self, reader, writer):
        from repro.service.net.protocol import FrameDecoder
        self.reader = reader
        self.writer = writer
        self.decoder = FrameDecoder()
        self.pending = deque()
        self._next_id = 0
        self._reader_task = None
        self.idle = asyncio.Event()
        self.idle.set()

    @classmethod
    async def open(cls, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        conn = cls(reader, writer)
        conn._reader_task = asyncio.ensure_future(conn._read_loop())
        return conn

    def send(self, outcome: Outcome):
        from repro.service.net.protocol import encode_frame, request
        self._next_id += 1
        frame = encode_frame(request(
            self._next_id, "submit", job=outcome.job,
            wait=REQUEST_WAIT_S, result=False))
        self.pending.append((self._next_id, outcome))
        self.idle.clear()
        outcome.sent = time.perf_counter()
        self.writer.write(frame)

    async def _read_loop(self):
        try:
            while True:
                data = await self.reader.read(65536)
                if not data:
                    break
                now = time.perf_counter()
                for message in self.decoder.feed(data):
                    request_id, outcome = self.pending.popleft()
                    outcome.done = now
                    if message.get("id") != request_id:
                        outcome.error = "reply out of order"
                    elif message.get("ok") is False:
                        outcome.error = json.dumps(message.get("error"))
                    else:
                        outcome.record = message.get("result")
                    if not self.pending:
                        self.idle.set()
        except (ConnectionError, ValueError) as exc:
            error = f"connection failed: {exc}"
        else:
            error = "connection closed"
        while self.pending:
            _, outcome = self.pending.popleft()
            outcome.error = error
        self.idle.set()

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        if self._reader_task is not None:
            await self._reader_task


async def _open_connections(host, port):
    return [await Connection.open(host, port) for _ in range(CONNECTIONS)]


async def _drain(connections, timeout):
    await asyncio.wait_for(
        asyncio.gather(*(c.idle.wait() for c in connections)), timeout)


async def run_open_loop(host, port, schedule) -> list:
    """Send each request at its due time, warm and cold on connections
    of their own (so a warm request never waits behind a cold one in
    the client's pipe, only in the server); returns the outcomes in
    schedule order."""
    connections = await _open_connections(host, port)
    by_class = dict(zip(("warm", "cold"), connections))
    outcomes = []
    try:
        loop = asyncio.get_running_loop()
        start = loop.time()
        t0 = time.perf_counter()
        for due, cls, job in schedule:
            delay = start + due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            outcome = Outcome(cls, job, t0 + due)
            by_class[cls].send(outcome)
            outcomes.append(outcome)
        await _drain(connections, REQUEST_WAIT_S + 5)
    finally:
        for conn in connections:
            await conn.close()
    return outcomes


async def run_closed_loop(host, port, batch):
    """Two back-to-back clients taking the requests of ``batch`` in
    turn; returns (outcomes, elapsed seconds until the last reply)."""
    connections = await _open_connections(host, port)
    pending = iter(batch)
    outcomes = []
    start = time.perf_counter()

    async def client(conn):
        for cls, job in pending:
            outcome = Outcome(cls, job, time.perf_counter())
            outcomes.append(outcome)
            conn.send(outcome)
            await conn.idle.wait()

    try:
        await asyncio.gather(*(client(c) for c in connections))
        elapsed = time.perf_counter() - start
    finally:
        for conn in connections:
            await conn.close()
    return outcomes, elapsed


def _execute(job):
    """Run one job document in-process, as the service's worker would:
    returns (payload, JSON-normalised result)."""
    from repro.service.jobkey import JobSpec
    from repro.service.workloads import execute_job
    payload = JobSpec(kind=job["kind"], spec=job["spec"]).resolved() \
        .payload()
    return payload, json.loads(json.dumps(execute_job(payload)))


def prefill_cache(root, jobs):
    """Store each job's result in the on-disk result cache at ``root``
    under its job key, as the service does after executing it."""
    from repro.service.cache import ResultCache
    from repro.service.jobkey import JobSpec, job_key
    cache = ResultCache(root=root)
    for job in jobs:
        payload, value = _execute(job)
        key = job_key(JobSpec(kind=job["kind"], spec=job["spec"]))
        cache.put(key, value, job=payload)


def expected_digests(jobs) -> dict:
    """Digest of each job's result from an in-process, cache-free
    execution — the oracle replies are checked against."""
    from repro.service.jobkey import canonical_json, payload_digest
    digests = {}
    for job in jobs:
        ident = canonical_json(job)
        if ident not in digests:
            digests[ident] = payload_digest(_execute(job)[1])
    return digests


def count_failed(outcomes, digests) -> int:
    from repro.service.jobkey import canonical_json
    return sum(not o.ok(digests[canonical_json(o.job)])
               for o in outcomes)


def score(outcomes, digests, tails=True) -> dict:
    """Per-class latency percentiles (ms) of an open-loop phase: the
    median and (with ``tails``) the highest percentile with ten samples
    beyond it."""
    from repro.service.jobkey import canonical_json
    latency = {"warm": [], "cold": []}
    for outcome in outcomes:
        expected = digests[canonical_json(outcome.job)]
        latency[outcome.cls].append(outcome.latency_s(expected) * 1e3)
    scores = {
        "warm_p50_ms": percentile(latency["warm"], 50),
        "cold_p50_ms": percentile(latency["cold"], 50),
    }
    if tails:
        scores["warm_p99_ms"] = percentile(latency["warm"], 99)
        scores["cold_p95_ms"] = percentile(latency["cold"], 95)
    return scores


def lateness_p99_ms(outcomes) -> float:
    late = [max(0.0, o.sent - o.due) * 1e3 for o in outcomes
            if o.sent is not None]
    return percentile(late, 99)
