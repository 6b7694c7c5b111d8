"""The module's system disk.

Paper §III: "The primary function of the system disk is to record
memory snapshots which checkpoint computations for error recovery, and
to backup snapshots from other modules. ... It takes about 15 seconds
to take a snapshot, regardless of configuration."

The 15 s figure follows from per-module parallelism: every module has
its own disk and drains its own 8 MB, so machine size doesn't matter.
The disk's sustained rate is calibrated to that figure (8 MiB / 15 s ≈
0.56 MB/s — a believable mid-80s Winchester streaming rate).
"""

from repro.events import Mutex, Request


class SystemDisk:
    """A sequential-transfer disk with a FIFO arbiter."""

    def __init__(self, engine, specs, name="disk"):
        self.engine = engine
        self.name = name
        self.bandwidth_mb_s = specs.disk_bw_mb_s
        self._arbiter = Mutex(engine, name=f"{name}-arbiter")
        self.bytes_written = 0
        self.bytes_read = 0
        self.busy_ns = 0
        #: Stored snapshot images: tag → {node_id: bytes-like}.
        self.store = {}

    def transfer_ns(self, nbytes: int) -> int:
        """Time to stream ``nbytes`` (no seek model: snapshots are
        sequential streams)."""
        if nbytes < 0:
            raise ValueError("negative transfer size")
        return round(nbytes / self.bandwidth_mb_s * 1000.0)

    def write(self, nbytes: int):
        """Process: stream ``nbytes`` to the platters."""
        duration = self.transfer_ns(nbytes)
        with self._arbiter.acquire() as req:
            if req.__class__ is Request:
                yield req
            yield self.engine.timeout(duration)
        self.bytes_written += nbytes
        self.busy_ns += duration
        return duration

    def read(self, nbytes: int):
        """Process: stream ``nbytes`` back."""
        duration = self.transfer_ns(nbytes)
        with self._arbiter.acquire() as req:
            if req.__class__ is Request:
                yield req
            yield self.engine.timeout(duration)
        self.bytes_read += nbytes
        self.busy_ns += duration
        return duration

    # -- snapshot storage (behavioural) --------------------------------

    def put_image(self, tag, node_id, image) -> None:
        """Record a node's memory image under a snapshot tag."""
        self.store.setdefault(tag, {})[node_id] = image

    def get_image(self, tag, node_id):
        """Fetch a stored image (KeyError if absent)."""
        return self.store[tag][node_id]

    def has_snapshot(self, tag) -> bool:
        return tag in self.store

    def drop_snapshot(self, tag) -> None:
        """Discard a snapshot (reclaiming space)."""
        self.store.pop(tag, None)

    def __repr__(self):
        return f"<SystemDisk {self.name!r} written={self.bytes_written}>"
