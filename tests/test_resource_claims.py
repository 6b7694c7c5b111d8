"""Inline resource claims (:meth:`Resource.acquire`) and teardown.

On the turbo tier ``acquire`` claims an idle resource without an
event exactly when the front-of-lane trampoline would have resumed the
grant inline; everywhere else it falls back to a :class:`Request`.
These tests pin that equivalence: FIFO order and traces match the
reference tier, the engine counters of fixed schedules keep their
values from before the claim existed, and a held claim is released
when its holder is interrupted.  The teardown tests check that an
E13b-style cell leaves no cyclic :class:`Request` garbage and no
per-tag transport mailboxes behind.

The file pins tiers with :func:`force_kernel` where it compares them;
the remaining tests run on the environment's tier, so CI runs the
module under ``REPRO_SLOW_KERNEL=1`` as well.
"""

import gc

import pytest

from repro.analysis.tracing import engine_stats
from repro.core.config import MachineConfig
from repro.core.machine import TSeriesMachine
from repro.events import (
    Engine,
    FaultLog,
    Held,
    Interrupt,
    Mutex,
    Request,
    Resource,
    Store,
    hold,
)
from repro.events.engine import KERNEL_TIERS, URGENT, force_kernel
from repro.system.recovery import (
    FaultTolerantRun,
    RingStencilWorkload,
    compressed_timescale_specs,
)


def build_cell(steps=16, kill_at_ns=None):
    """An 8-rank checkpointed ring stencil on a 3-cube, optionally
    losing node 5 at ``kill_at_ns``."""
    eng = Engine()
    FaultLog(eng)
    config = MachineConfig(3, specs=compressed_timescale_specs())
    machine = TSeriesMachine(config, engine=eng)
    workload = RingStencilWorkload(ranks=8, steps=steps, exchange_every=4)
    run = FaultTolerantRun(machine, workload, checkpoint_interval_steps=8)
    if kill_at_ns is not None:
        def killer():
            yield eng.timeout(kill_at_ns)
            run.kill_node(5)

        eng.process(killer(), name="killer")
    return eng, workload, run


def contention_schedule():
    """Five workers sharing a two-way port (via ``hold``) and a lock."""
    eng = Engine()
    port = Resource(eng, capacity=2, name="port")
    lock = Mutex(eng)
    log = []

    def worker(i):
        for k in range(4):
            start = yield from hold(eng, port, 100 + 10 * i)
            with lock.request() as req:
                yield req
                log.append((i, k, start, eng.now))
                yield eng.timeout(7)

    for i in range(5):
        eng.process(worker(i))
    eng.run()
    return eng, log


def counters(eng):
    stats = engine_stats(eng)
    return (stats["events_processed"], stats["heap_pushes"],
            stats["fast_lane_hits"])


class TestAcquire:
    def test_claims_inline_only_where_the_trampoline_would(self):
        with force_kernel(tier="turbo"):
            eng = Engine()
            mutex = Mutex(eng)
            outside = mutex.acquire()  # no process running
            assert outside.__class__ is Request
            outside.release()
            tokens = []

            def solo():
                with mutex.acquire() as held:
                    tokens.append(held)
                    yield eng.timeout(5)

            eng.run(until=eng.process(solo()))
            # The run stopped with the dispatch flags reading "inline",
            # but no process is running to resume: still a Request.
            after = mutex.acquire()
            assert after.__class__ is Request
            after.release()
        assert tokens[0].__class__ is Held
        assert mutex.count == 0 and mutex.grants == 3

    def test_reference_tier_always_requests(self):
        with force_kernel(tier="reference"):
            eng = Engine()
            mutex = Mutex(eng)
            tokens = []

            def solo():
                with mutex.acquire() as req:
                    tokens.append(req)
                    if req.__class__ is Request:
                        yield req
                    yield eng.timeout(5)

            eng.process(solo())
            eng.run()
        assert tokens[0].__class__ is Request
        assert eng.now == 5

    @pytest.mark.parametrize("tier", KERNEL_TIERS)
    def test_acquire_matches_request_yield(self, tier):
        """The same schedule written with ``request()`` + ``yield`` and
        with ``acquire()`` fires the same events at the same times."""

        def schedule(claim):
            eng = Engine()
            wire = Mutex(eng)
            log = []

            def sender(i, gap):
                for k in range(3):
                    yield eng.timeout(gap)
                    if claim:
                        req = wire.acquire()
                        if req.__class__ is Request:
                            yield req
                    else:
                        req = wire.request()
                        yield req
                    log.append((i, k, eng.now))
                    yield eng.timeout(11)
                    req.release()

            for i, gap in enumerate((5, 5, 20, 3)):
                eng.process(sender(i, gap))
            eng.run()
            return log, counters(eng)

        with force_kernel(tier=tier):
            assert schedule(claim=True) == schedule(claim=False)


class TestFallbackOrdering:
    def test_same_instant_requests_behind_a_busy_lane_stay_fifo(self):
        """Four processes start at once, so each one's claim sees the
        others' start records in the lane: every one falls back to a
        queued Request and the grants come out FIFO, identically on
        both tiers."""

        def story():
            eng = Engine()
            mutex = Mutex(eng)
            log = []
            kinds = []

            def contender(i):
                with mutex.acquire() as req:
                    kinds.append(req.__class__.__name__)
                    if req.__class__ is Request:
                        yield req
                    log.append((i, eng.now))
                    yield eng.timeout(10)

            for i in range(4):
                eng.process(contender(i))
            eng.run()
            return log, kinds

        traces = {}
        for tier in KERNEL_TIERS:
            with force_kernel(tier=tier):
                traces[tier] = story()
        log, kinds = traces["turbo"]
        assert traces["reference"] == traces["turbo"]
        assert log == [(0, 0), (1, 10), (2, 20), (3, 30)]
        assert kinds == ["Request"] * 4

    def test_urgent_heap_entry_due_now_fires_before_the_grant(self):
        """Two URGENT events scheduled with a delay come due together.
        The first resumes a process that takes a free lock; the second
        is already due, so it must run before that grant resumes the
        process -- the claim may not jump it on turbo."""

        def story():
            eng = Engine()
            mutex = Mutex(eng)
            first, second = eng.event(), eng.event()
            first.succeed(delay=10, priority=URGENT)
            second.succeed(delay=10, priority=URGENT)
            log = []

            def taker():
                yield first
                with mutex.acquire() as req:
                    if req.__class__ is Request:
                        yield req
                    log.append(("granted", eng.now))
                    yield eng.timeout(5)

            def bystander():
                yield second
                log.append(("second", eng.now))

            eng.process(taker())
            eng.process(bystander())
            eng.run()
            return log

        traces = {}
        for tier in KERNEL_TIERS:
            with force_kernel(tier=tier):
                traces[tier] = story()
        assert traces["turbo"] == traces["reference"]
        assert traces["turbo"] == [("second", 10), ("granted", 10)]

    def test_sibling_interrupt_wins_over_the_grant(self):
        """One event wakes a taker and then a sibling that interrupts
        it.  The taker's grant is not the only pending callback's
        work, so it must not be claimed inline: the interrupt lands
        before the grant, on both tiers."""

        def story():
            eng = Engine()
            mutex = Mutex(eng)
            gate = eng.event()
            log = []

            def taker():
                yield gate
                try:
                    with mutex.acquire() as req:
                        if req.__class__ is Request:
                            yield req
                        log.append(("granted", eng.now))
                        yield eng.timeout(5)
                except Interrupt:
                    log.append(("interrupted", eng.now))

            victim = eng.process(taker())

            def sibling():
                yield gate
                victim.interrupt()

            def opener():
                yield eng.timeout(3)
                gate.succeed()

            eng.process(sibling())
            eng.process(opener())
            eng.run()
            return log, mutex.count

        traces = {}
        for tier in KERNEL_TIERS:
            with force_kernel(tier=tier):
                traces[tier] = story()
        assert traces["turbo"] == traces["reference"]
        assert traces["turbo"] == ([("interrupted", 3)], 0)

    def test_held_claim_released_when_holder_interrupted(self):
        eng = Engine()
        mutex = Mutex(eng)
        log = []
        kinds = []

        def holder():
            # Resume alone first, so the turbo tier claims inline.
            yield eng.timeout(1)
            try:
                with mutex.acquire() as req:
                    kinds.append(req.__class__)
                    if req.__class__ is Request:
                        yield req
                    yield eng.timeout(100)
            except Interrupt as exc:
                log.append(("interrupted", exc.cause, eng.now))

        def waiter():
            yield eng.timeout(10)
            start = yield from hold(eng, mutex, 5)
            log.append(("waiter", start, eng.now))

        victim = eng.process(holder())
        eng.process(waiter())

        def interrupter():
            yield eng.timeout(50)
            assert mutex.count == 1 and mutex.queued == 1
            victim.interrupt("halt")

        eng.process(interrupter())
        eng.run()
        claimed = Held if eng.kernel_tier == "turbo" else Request
        assert kinds == [claimed]
        assert log == [("interrupted", "halt", 50), ("waiter", 50, 55)]
        assert mutex.count == 0 and mutex.queued == 0

    def test_held_token_is_idempotent(self):
        eng = Engine()
        mutex = Mutex(eng)
        tokens = []

        def proc():
            req = mutex.acquire()
            if req.__class__ is Request:
                yield req
            tokens.append(req)
            req.release()
            req.release()
            yield eng.timeout(1)

        eng.process(proc())
        eng.run()
        assert mutex.count == 0 and mutex.grants == 1


class TestCountersUnchanged:
    """Engine counters for fixed schedules, as measured before inline
    claims existed: the claim must fire only where the trampoline
    already resumed inline, so none of them may move."""

    EXPECTED = {
        ("turbo", "contention"): (90, 40, 50),
        ("turbo", "cell"): (27257, 9753, 17505),
        ("reference", "contention"): (90, 90, 0),
        ("reference", "cell"): (27257, 27258, 0),
    }

    @pytest.mark.parametrize("tier", KERNEL_TIERS)
    def test_contention_schedule(self, tier):
        with force_kernel(tier=tier):
            eng, log = contention_schedule()
        assert counters(eng) == self.EXPECTED[(tier, "contention")]
        assert len(log) == 20

    @pytest.mark.parametrize("tier", KERNEL_TIERS)
    def test_ring_stencil_cell(self, tier):
        with force_kernel(tier=tier):
            eng, workload, run = build_cell()
            run.execute()
        assert counters(eng) == self.EXPECTED[(tier, "cell")]


class TestTeardown:
    def test_mailbox_count_does_not_grow_with_steps(self):
        def mailboxes(steps):
            eng, workload, run = build_cell(steps=steps)
            run.execute()
            return sum(len(boxes) for boxes in run.transport._mailboxes)

        assert mailboxes(40) == mailboxes(80)

    def test_recovered_cell_leaves_no_cyclic_requests_or_mailboxes(self):
        """Everything a finished cell allocated per arbitration or per
        halo tag is freed by reference counting: the cyclic collector
        finds no Request and no mailbox Store in its garbage."""
        gc.collect()
        gc.disable()
        try:
            eng, workload, run = build_cell(steps=24, kill_at_ns=30_000_000)
            stats = run.execute()
            del eng, workload, run
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            garbage = list(gc.garbage)
            gc.garbage.clear()
        finally:
            gc.set_debug(0)
            gc.enable()
        assert stats["recoveries"] == 1
        requests = [o for o in garbage if isinstance(o, Request)]
        mailboxes = [o for o in garbage
                     if isinstance(o, Store) and o.name.startswith("mbox")]
        assert requests == []
        assert mailboxes == []
