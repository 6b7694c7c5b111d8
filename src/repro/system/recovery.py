"""Failure detection and checkpoint/restart orchestration.

Paper §III motivates the system disks and the ~10-minute snapshot
interval entirely by "error recovery"; this module closes the loop and
runs the machine *as a system under failure*:

* :class:`HeartbeatMonitor` — each module's system board polls its
  nodes' CP status over the module thread on a configurable heartbeat
  and reports deaths to the coordinator board over the
  :class:`~repro.system.system_ring.SystemRing`; detection latency is
  therefore a real, measured quantity (heartbeat interval + ring
  notice time), not a constant.
* :class:`RecoveryCoordinator` — on a detected node death or an
  unrecoverable parity error: invalidate the network (epoch bump +
  mailbox flush), restore the last committed snapshot through
  :class:`~repro.system.checkpoint.CheckpointService`, remap the
  workload around the dead nodes (folded-subcube or spare-node policy
  via :mod:`repro.topology.embeddings`), ship the displaced ranks'
  memory blocks out of the dead nodes' *disk images* (their memories
  are unreachable, but the snapshot survives on the module disk — the
  paper's rationale), and resume.
* :class:`FaultTolerantRun` — the segmented run loop: execute
  ``checkpoint_interval_steps`` of the workload, commit a snapshot,
  repeat; any fault aborts the segment back to the last commit.
* :class:`RingStencilWorkload` — an iterated ring stencil with real
  vector arithmetic whose data evolution depends only on (rank, step),
  never on placement, so a fault-free run and a faulted+recovered run
  must finish **bit-identical** (experiment E13's oracle).
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.specs import PAPER_SPECS
from repro.events import Interrupt, Mutex, Request, record_fault
from repro.memory import ParityError
from repro.runtime.transport import ReliableTransport
from repro.system.checkpoint import CheckpointService, SnapshotAborted
from repro.system.system_ring import SystemRing
from repro.topology.embeddings import fold_host, spare_node_map


def compressed_timescale_specs(memory_bytes: int = 32768,
                               bank_a_rows: int = 8):
    """Paper specs with shrunken node memory, for fault experiments.

    Fault-tolerance experiments need many snapshot/restore cycles; at
    the paper's 1 MB/node a snapshot is ~15 s of simulated time and
    millions of events.  Shrinking memory compresses the timescale
    while keeping every rate (link, disk, port) at paper values, so
    interval/MTBF *ratios* — what E13 sweeps — are preserved.
    """
    row = PAPER_SPECS.row_bytes
    if memory_bytes % row:
        raise ValueError("memory must be a whole number of rows")
    total_words = memory_bytes // 4
    bank_a_words = bank_a_rows * row // 4
    return PAPER_SPECS.replace(
        memory_bytes=memory_bytes,
        bank_a_words=bank_a_words,
        bank_b_words=total_words - bank_a_words,
    )


@dataclass(frozen=True)
class Detection:
    """One detected node death."""

    node: int
    board: int
    halted_at_ns: int
    detected_at_ns: int

    @property
    def latency_ns(self) -> int:
        return self.detected_at_ns - self.halted_at_ns

    def as_json(self) -> dict:
        return {"node": self.node, "board": self.board,
                "halted_at_ns": self.halted_at_ns,
                "detected_at_ns": self.detected_at_ns,
                "latency_ns": self.latency_ns}


class HeartbeatMonitor:
    """Board-driven heartbeat over the module threads + system ring.

    Each module's board polls its eight nodes' CP status every
    ``interval_ns`` (the poll itself costs ``poll_ns`` of board time);
    a death found by a non-coordinator board is reported to the
    coordinator board over the system ring, so the detection latency
    the coordinator experiences is heartbeat phase + poll + ring
    store-and-forward — all simulated, all configurable.
    """

    def __init__(self, machine, interval_ns: int = 2_000_000,
                 poll_ns: int = 50_000, coordinator_board: int = 0,
                 notice_bytes: int = 16):
        self.machine = machine
        self.engine = machine.engine
        self.interval_ns = interval_ns
        self.poll_ns = poll_ns
        self.coordinator_board = coordinator_board
        self.notice_bytes = notice_bytes
        boards = [m.board for m in machine.modules]
        self.ring = SystemRing(boards) if len(boards) > 1 else None
        self.detections = []
        self.known_dead = set()
        self._callbacks = []
        self._stopped = False
        self._procs = []

    def on_detect(self, callback):
        """Register ``callback(detection)`` (called from the monitor
        process: trigger events, never yield)."""
        self._callbacks.append(callback)

    def start(self):
        if self._procs:
            return
        for module in self.machine.modules:
            self._procs.append(self.engine.process(
                self._watch(module), name=f"heartbeat{module.module_id}"
            ))

    def stop(self):
        self._stopped = True

    def _watch(self, module):
        while not self._stopped:
            yield self.engine.timeout(self.interval_ns)
            if self._stopped:
                return
            yield self.engine.timeout(self.poll_ns)
            for node in module.nodes:
                if not node.halted or node.node_id in self.known_dead:
                    continue
                self.known_dead.add(node.node_id)
                if (self.ring is not None
                        and module.module_id != self.coordinator_board):
                    yield from self.ring.send(
                        module.module_id, self.coordinator_board,
                        ("dead", node.node_id), self.notice_bytes,
                    )
                detection = Detection(
                    node=node.node_id, board=module.module_id,
                    halted_at_ns=int(node.halted_at),
                    detected_at_ns=int(self.engine.now),
                )
                self.detections.append(detection)
                record_fault(self.engine, "detect", node=node.node_id,
                             latency_ns=detection.latency_ns)
                for callback in list(self._callbacks):
                    callback(detection)

    def mean_latency_ns(self) -> float:
        if not self.detections:
            return 0.0
        return sum(d.latency_ns for d in self.detections) \
            / len(self.detections)


@dataclass
class RecoveryRecord:
    """One detect→restore→remap→resume cycle."""

    cause: list
    dead: tuple
    tag: str
    started_ns: int
    restore_ns: int
    elapsed_ns: int
    moved: list = field(default_factory=list)

    def as_json(self) -> dict:
        return {"cause": list(self.cause), "dead": list(self.dead),
                "tag": self.tag, "started_ns": self.started_ns,
                "restore_ns": self.restore_ns,
                "elapsed_ns": self.elapsed_ns,
                "moved": [list(m) for m in self.moved]}


class RecoveryCoordinator:
    """Executes one recovery: halt, restore, remap, ship, resume.

    ``layout`` (set by the run) provides ``block_addr(slot)`` and
    ``block_bytes`` so displaced ranks' state can be pulled out of the
    dead hosts' snapshot images and planted on their new hosts.
    """

    def __init__(self, machine, checkpoint, transport,
                 policy: str = "fold", spares=(), settle_ns: int = 100_000):
        if policy not in ("fold", "spare"):
            raise ValueError(f"unknown remap policy {policy!r}")
        self.machine = machine
        self.engine = machine.engine
        self.checkpoint = checkpoint
        self.transport = transport
        self.policy = policy
        self.spares = tuple(sorted(spares))
        self.settle_ns = settle_ns
        boards = [m.board for m in machine.modules]
        self.ring = SystemRing(boards) if len(boards) > 1 else None
        self.layout = None
        self.recoveries = []

    # -- remapping -----------------------------------------------------

    def remap(self, assignment, dead) -> dict:
        """New ``{rank: (host, slot)}`` from a snapshot-time
        assignment and the dead set.

        Ranks on live hosts keep their placement (their restored
        memory is already in place).  Displaced ranks go to the
        policy's target host and take the next free block slot there.
        """
        dead = set(dead)
        dimension = self.machine.dimension
        if self.policy == "spare":
            spare_map = spare_node_map(dimension, dead, self.spares)
        new = {}
        slots_used = {}
        for rank in sorted(assignment):
            host, slot = assignment[rank]
            if host not in dead:
                new[rank] = (host, slot)
                slots_used[host] = max(slots_used.get(host, 0), slot + 1)
        for rank in sorted(assignment):
            host, slot = assignment[rank]
            if host not in dead:
                continue
            if self.policy == "spare":
                target = spare_map[host]
            else:
                target = fold_host(host, dead, dimension)
            new_slot = slots_used.get(target, 0)
            new[rank] = (target, new_slot)
            slots_used[target] = new_slot + 1
        return new

    # -- block shipping ------------------------------------------------

    def _thread_ship(self, module, target_node_id, payload, nbytes):
        """Process: one frame board→node over the module thread,
        store-and-forward through intermediate nodes (their adapters
        relay even when their CPs are halted)."""
        nodes = module.nodes
        position = next(i for i, n in enumerate(nodes)
                        if n.node_id == target_node_id)
        from repro.system.system_board import (
            NODE_SLOT_AWAY_FROM_BOARD,
            NODE_SLOT_TOWARD_BOARD,
            SLOT_THREAD_DOWN,
        )
        yield from module.board.send(SLOT_THREAD_DOWN, payload, nbytes)
        message = None
        for k in range(position + 1):
            node = nodes[k]
            message = yield from node.comm.recv(NODE_SLOT_TOWARD_BOARD)
            if k < position:
                yield from node.comm.send(
                    NODE_SLOT_AWAY_FROM_BOARD,
                    message.payload, message.nbytes,
                )
        return message

    def _ship_block(self, tag, rank, old_host, old_slot,
                    new_host, new_slot):
        """Process: move one displaced rank's block from the dead
        host's snapshot image to its new host's memory — and into the
        new host's *stored image* for the tag, so a later restore of
        the same snapshot (a second failure before the next commit)
        reproduces the post-remap layout instead of wiping the block."""
        src_module = self.machine.module_of(old_host)
        dst_module = self.machine.module_of(new_host)
        image = src_module.board.disk.get_image(tag, old_host)
        addr = self.layout.block_addr(old_slot)
        nbytes = self.layout.block_bytes
        data = np.asarray(image[addr:addr + nbytes], dtype=np.uint8).copy()
        yield from src_module.board.disk.read(nbytes)
        if dst_module is not src_module and self.ring is not None:
            yield from self.ring.send(
                src_module.module_id, dst_module.module_id,
                ("block", rank), nbytes,
            )
        yield from self._thread_ship(
            dst_module, new_host, ("block", rank), nbytes
        )
        node = self.machine.node(new_host)
        new_addr = self.layout.block_addr(new_slot)
        node.memory.poke_bytes(new_addr, data)
        yield from dst_module.board.disk.write(nbytes)
        dst_image = dst_module.board.disk.get_image(tag, new_host)
        dst_image[new_addr:new_addr + nbytes] = data

    # -- the recovery cycle --------------------------------------------

    def recover(self, tag, dead, assignment, cause):
        """Process: run one full recovery; returns the new assignment.

        Precondition: the workload processes of the aborted segment
        have already been interrupted (only then is the mailbox flush
        safe)."""
        engine = self.engine
        started = engine.now
        dead = set(dead)
        self.transport.avoid |= dead
        self.transport.bump_epoch()
        # Let in-flight frames land (they are dropped as stale).
        yield engine.timeout(self.settle_ns)
        self.transport.flush_mailboxes()
        restore_start = engine.now
        yield from self.checkpoint.restore_all(tag)
        restore_ns = engine.now - restore_start
        new_assignment = self.remap(assignment, dead)
        moved = []
        for rank in sorted(assignment):
            old_host, old_slot = assignment[rank]
            if old_host not in dead:
                continue
            new_host, new_slot = new_assignment[rank]
            yield from self._ship_block(tag, rank, old_host, old_slot,
                                        new_host, new_slot)
            moved.append((rank, old_host, new_host, new_slot))
        record = RecoveryRecord(
            cause=list(cause), dead=tuple(sorted(dead)), tag=tag,
            started_ns=started, restore_ns=restore_ns,
            elapsed_ns=engine.now - started, moved=moved,
        )
        self.recoveries.append(record)
        record_fault(engine, "recovered", tag=tag,
                     dead=sorted(dead), moved=len(moved))
        return new_assignment


class RingStencilWorkload:
    """Iterated decay stencil on a logical ring of ranks.

    Each rank owns one memory row (128 float64 elements).  A step
    scales the row by ``decay`` through the real vector pipeline
    (row load → VSMUL → row store), then pads with ``compute_pad_ns``
    of modelled CP work; every ``exchange_every`` steps each rank
    sends its first element to its ring successor (reliable transport)
    and the successor overwrites its last element with it (timed word
    writes).  All arithmetic is a pure function of (rank, step), so
    final blocks are placement-independent — the recovery oracle.
    """

    def __init__(self, ranks: int, steps: int, exchange_every: int = 4,
                 base_row: int = 8, decay: float = 0.999,
                 compute_pad_ns: int = 0):
        if ranks < 1 or steps < 0:
            raise ValueError("need >= 1 rank and >= 0 steps")
        self.ranks = ranks
        self.steps = steps
        self.exchange_every = exchange_every
        self.base_row = base_row
        self.decay = decay
        self.compute_pad_ns = compute_pad_ns
        self.row_bytes = None
        self.elems = None

    @property
    def block_bytes(self) -> int:
        return self.row_bytes

    def block_addr(self, slot: int) -> int:
        return (self.base_row + slot) * self.row_bytes

    def home_node(self, rank: int) -> int:
        return rank

    def initialise(self, run):
        self.row_bytes = run.machine.specs.row_bytes
        self.elems = self.row_bytes // 8
        for rank in sorted(run.assignment):
            host, slot = run.assignment[rank]
            node = run.machine.node(host)
            values = np.arange(self.elems, dtype=np.float64) \
                + 1000.0 * rank + 1.0
            node.write_floats(self.block_addr(slot), values)

    def run_rank(self, run, rank, node, slot, start_step, end_step):
        """Process: execute steps [start_step, end_step) for one rank."""
        engine = run.engine
        row = self.base_row + slot
        addr = self.block_addr(slot)
        lock = run.lock(node)
        for step in range(start_step, end_step):
            with lock.acquire() as req:
                if req.__class__ is Request:
                    yield req
                yield from node.load_vector(row, reg=0)
                yield from node.vector_op(
                    "VSMUL", [0], scalars=[self.decay],
                    length=self.elems, precision=64, dst_reg=0,
                )
                yield from node.store_vector(0, row)
            if self.compute_pad_ns:
                yield engine.timeout(self.compute_pad_ns)
            if (step + 1) % self.exchange_every == 0 and self.ranks > 1:
                boundary = float(node.read_floats(addr, 1)[0])
                successor = (rank + 1) % self.ranks
                predecessor = (rank - 1) % self.ranks
                dst_host, _ = run.assignment[successor]
                sent = yield from run.transport.send(
                    node.node_id, dst_host, boundary, 8,
                    tag=f"halo{step}.{successor}",
                )
                if sent is None:
                    # Unreachable successor: it (or the route) is
                    # dead.  Recovery is already being signalled by
                    # the give-up fault; park until interrupted.
                    yield engine.event()
                envelope = yield from run.transport.recv(
                    node.node_id, tag=f"halo{step}.{rank}",
                )
                halo = np.frombuffer(
                    np.float64(envelope.payload).tobytes(),
                    dtype=np.uint32,
                )
                last = addr + (self.elems - 1) * 8
                with lock.acquire() as req:
                    if req.__class__ is Request:
                        yield req
                    yield from node.memory.words_write(last, halo)
        return "done"

    def digest(self, run) -> str:
        """SHA-256 over all rank blocks, in rank order.

        Reads the raw memory array: parity in this model is a
        *detection* mechanism (flipped check bits), the data bytes are
        never altered, so the digest is well-defined even when latent
        faults are still outstanding.
        """
        sha = hashlib.sha256()
        for rank in sorted(run.assignment):
            host, slot = run.assignment[rank]
            node = run.machine.node(host)
            addr = self.block_addr(slot)
            sha.update(bytes(node.memory._data[addr:addr + self.block_bytes]))
        return sha.hexdigest()


class FaultTolerantRun:
    """The segmented, checkpointed, self-recovering workload driver.

    Orchestration loop::

        snapshot ckpt0
        while committed < steps:
            run ranks for one segment   (any fault aborts the segment)
            snapshot                    (parity abort → recover, retry)
            commit
        return stats

    Faults reach the loop three ways: the heartbeat monitor's detect
    callback, a rank process trapping :class:`ParityError` on its own
    data, and :class:`SnapshotAborted` from the checkpoint service.
    All converge on :meth:`_recover`, which replays from the last
    committed snapshot with a remapped assignment.
    """

    def __init__(self, machine, workload, checkpoint_interval_steps: int,
                 transport=None, service=None, monitor=None,
                 coordinator=None, policy: str = "fold", spares=(),
                 keep_snapshots: int = 2):
        if checkpoint_interval_steps < 1:
            raise ValueError("checkpoint interval must be >= 1 step")
        if workload.ranks > len(machine.nodes):
            raise ValueError("more ranks than nodes")
        self.machine = machine
        self.engine = machine.engine
        self.workload = workload
        self.interval_steps = checkpoint_interval_steps
        self.transport = transport or ReliableTransport(machine)
        self.service = service or CheckpointService(machine)
        self.monitor = monitor or HeartbeatMonitor(machine)
        self.coordinator = coordinator or RecoveryCoordinator(
            machine, self.service, self.transport,
            policy=policy, spares=spares,
        )
        self.coordinator.layout = workload
        self.keep_snapshots = max(1, keep_snapshots)
        self._locks = {
            node.node_id: Mutex(self.engine, name=f"cpu{node.node_id}")
            for node in machine.nodes
        }
        self.assignment = {
            rank: (workload.home_node(rank), 0)
            for rank in range(workload.ranks)
        }
        # Bookkeeping
        self.committed_step = 0
        self.segments_run = 0
        self.segments_aborted = 0
        self.snapshot_aborts = 0
        self.lost_work_ns = 0
        self.snapshot_ns_total = 0
        self._abort = None
        self._pending_faults = []
        self._handled_dead = set()
        self._tags = []
        self._assignment_by_tag = {}
        self._step_by_tag = {}
        self._tag_counter = 0
        self._procs_by_node = {}

    # -- hooks ---------------------------------------------------------

    def lock(self, node) -> Mutex:
        return self._locks[node.node_id]

    def halt_hook(self, node):
        """For the fault injector: interrupt this node's rank procs
        the instant its CP halts (they stop computing immediately;
        *detection* still waits for the heartbeat)."""
        for proc in self._procs_by_node.get(node.node_id, ()):
            if proc.is_alive and proc is not self.engine.active_process:
                proc.interrupt("node halt")

    def kill_node(self, node_id: int):
        """Deterministic forced death (tests/golden traces)."""
        node = self.machine.node(node_id)
        node.halt()
        record_fault(self.engine, "node_halt", node=node_id)
        self.halt_hook(node)

    def _signal_abort(self, cause):
        self._pending_faults.append(cause)
        if self._abort is not None and not self._abort.triggered:
            self._abort.succeed(cause)

    def _on_detect(self, detection):
        self._signal_abort(["node_halt", detection.node])

    def _unhandled_dead(self) -> set:
        return self.monitor.known_dead - self._handled_dead

    # -- rank processes ------------------------------------------------

    def _rank_proc(self, rank, start_step, end_step):
        host, slot = self.assignment[rank]
        node = self.machine.node(host)
        try:
            yield from self.workload.run_rank(
                self, rank, node, slot, start_step, end_step
            )
            return "done"
        except Interrupt:
            return "interrupted"
        except ParityError as exc:
            record_fault(self.engine, "rank_parity", rank=rank,
                         node=node.node_id, address=int(exc.address))
            self._signal_abort(["parity", node.node_id])
            return "parity"

    # -- snapshots -----------------------------------------------------

    def _commit_snapshot(self):
        tag = f"ckpt{self._tag_counter}"
        self._tag_counter += 1
        elapsed = yield from self.service.snapshot_all(tag)
        self.snapshot_ns_total += elapsed
        self._tags.append(tag)
        self._assignment_by_tag[tag] = dict(self.assignment)
        self._step_by_tag[tag] = self.committed_step
        while len(self._tags) > self.keep_snapshots:
            old = self._tags.pop(0)
            self.service.drop(old)
            del self._assignment_by_tag[old]
            del self._step_by_tag[old]
        return tag

    # -- recovery ------------------------------------------------------

    def _recover(self):
        causes = self._pending_faults
        self._pending_faults = []
        self._abort = None
        dead = set(self.monitor.known_dead)
        tag = self._tags[-1]
        assignment = self._assignment_by_tag[tag]
        self.assignment = yield from self.coordinator.recover(
            tag, dead, assignment, causes
        )
        self._handled_dead |= dead
        self.committed_step = self._step_by_tag[tag]
        # The restored state *is* the snapshot: its assignment applies
        # to live hosts, and displaced blocks were just shipped.
        self._assignment_by_tag[tag] = dict(self.assignment)

    # -- the loop ------------------------------------------------------

    def _orchestrate(self):
        engine = self.engine
        start = engine.now
        self.workload.initialise(self)
        self.monitor.start()
        self.monitor.on_detect(self._on_detect)
        yield from self._commit_snapshot()
        while self.committed_step < self.workload.steps:
            if self._pending_faults or self._unhandled_dead():
                if not self._pending_faults:
                    self._pending_faults.append(
                        ["node_halt", sorted(self._unhandled_dead())[0]]
                    )
                yield from self._recover()
                continue
            target = min(self.committed_step + self.interval_steps,
                         self.workload.steps)
            segment_start = engine.now
            self.segments_run += 1
            self._abort = engine.event()
            abort = self._abort
            procs = []
            self._procs_by_node = {}
            for rank in sorted(self.assignment):
                host, _ = self.assignment[rank]
                proc = engine.process(
                    self._rank_proc(rank, self.committed_step, target),
                    name=f"rank{rank}",
                )
                procs.append(proc)
                self._procs_by_node.setdefault(host, []).append(proc)
            done = engine.all_of(procs)
            yield engine.any_of([done, abort])
            if abort.triggered and not done.triggered:
                self.segments_aborted += 1
                self.lost_work_ns += engine.now - segment_start
                for proc in procs:
                    if proc.is_alive and \
                            proc is not engine.active_process:
                        proc.interrupt("recovery")
                yield done
                yield from self._recover()
                continue
            results = [proc.value for proc in procs]
            if any(r != "done" for r in results) or self._unhandled_dead():
                # A fault landed exactly at segment end (e.g. the last
                # rank was interrupted but everyone else finished).
                self.segments_aborted += 1
                self.lost_work_ns += engine.now - segment_start
                if not self._pending_faults:
                    self._pending_faults.append(["segment_incomplete"])
                yield from self._recover()
                continue
            self._abort = None
            step_reached = target
            try:
                yield from self._commit_snapshot()
            except SnapshotAborted as exc:
                self.snapshot_aborts += 1
                self.service.drop(exc.tag)
                self.lost_work_ns += engine.now - segment_start
                yield from self._recover()
                continue
            self.committed_step = step_reached
            self._step_by_tag[self._tags[-1]] = step_reached
        self.monitor.stop()
        self.elapsed_ns = engine.now - start
        return self.stats()

    def execute(self) -> dict:
        """Drive the run to completion on this machine's engine."""
        return self.engine.run(
            until=self.engine.process(self._orchestrate(), name="ftrun")
        )

    def stats(self) -> dict:
        return {
            "steps": self.workload.steps,
            "committed_step": self.committed_step,
            "segments_run": self.segments_run,
            "segments_aborted": self.segments_aborted,
            "snapshot_aborts": self.snapshot_aborts,
            "snapshots_taken": self.service.snapshots_taken,
            "recoveries": len(self.coordinator.recoveries),
            "detections": len(self.monitor.detections),
            "dead_nodes": sorted(self.monitor.known_dead
                                 | self._handled_dead),
            "lost_work_ns": int(self.lost_work_ns),
            "snapshot_ns_total": int(self.snapshot_ns_total),
            "elapsed_ns": int(getattr(self, "elapsed_ns", 0)),
            "assignment": {
                str(rank): list(self.assignment[rank])
                for rank in sorted(self.assignment)
            },
        }
