"""Memory ports: the two sides of the dual-ported DRAM.

The random-access port serves the control processor and the link
adapter one 32-bit word per 400 ns; the row port serves the vector
registers one 1024-byte row per 400 ns.  The two ports are independent
(that is the point of the dual-ported design), but each port serialises
its own clients — modelled with a capacity-1 resource per port.
"""

from repro.events import Mutex, Request


class MemoryPort:
    """One port: FIFO-arbitrated, fixed time per access.

    Attributes
    ----------
    accesses : int
        Completed accesses (for measured-bandwidth experiments).
    busy_ns : int
        Total time the port spent transferring.
    """

    def __init__(self, engine, access_ns: int, bytes_per_access: int,
                 name: str):
        if access_ns <= 0 or bytes_per_access <= 0:
            raise ValueError("port timing/width must be positive")
        self.engine = engine
        self.access_ns = access_ns
        self.bytes_per_access = bytes_per_access
        self.name = name
        self._arbiter = Mutex(engine, name=f"{name}-port")
        self.accesses = 0
        self.busy_ns = 0

    def access(self, count: int = 1):
        """Process: perform ``count`` back-to-back accesses."""
        if count < 0:
            raise ValueError("negative access count")
        if count == 0:
            return 0
        duration = count * self.access_ns
        req = self._arbiter.acquire()
        try:
            if req.__class__ is Request:
                yield req
            yield self.engine.timeout(duration)
        finally:
            req.release()
        self.accesses += count
        self.busy_ns += duration
        return duration

    @property
    def peak_bandwidth_mb_s(self) -> float:
        """Bytes per access over access time, in MB/s."""
        return self.bytes_per_access / self.access_ns * 1000.0

    def measured_bandwidth_mb_s(self) -> float:
        """Bytes actually moved per elapsed simulated time."""
        if self.engine.now == 0:
            return 0.0
        return (self.accesses * self.bytes_per_access) / self.engine.now * 1000.0

    def utilization(self) -> float:
        """Busy fraction of elapsed simulated time."""
        if self.engine.now == 0:
            return 0.0
        return self.busy_ns / self.engine.now

    def __repr__(self):
        return f"<MemoryPort {self.name!r} accesses={self.accesses}>"
