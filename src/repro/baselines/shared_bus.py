"""The shared-memory bus machine — the paper's architectural foil.

Paper §I: "Shared memory systems are expensive when scaled to large
dimensions because of the rapid growth of the interconnection network;
the distance from memory to the processing elements also degrades
performance by increasing latency."

We model the cheap end of that design space: P vector processors (the
*same* 16 MFLOPS pipes as a T node, to isolate the memory-system
question) sharing one global memory over a single bus.  Every operand
and result crosses the bus; arbitration latency grows with log₂ P
(a realistic multi-stage arbiter).  Streaming kernels saturate the bus
at a few processors, while the distributed machine keeps every
operand in node-local memory and scales linearly — experiment E10.
"""

import math
from dataclasses import dataclass

from repro.events import Engine, Mutex, Request
from repro.fpu.pipeline import PipelineTiming


@dataclass(frozen=True)
class SharedBusConfig:
    """Bus parameters (a generously fast mid-80s backplane)."""

    #: Sustained bus bandwidth shared by all processors.
    bus_bandwidth_mb_s: float = 40.0
    #: Base arbitration/address latency per bus transaction.
    arbitration_base_ns: int = 200
    #: Extra arbitration per doubling of processor count.
    arbitration_per_level_ns: int = 100
    #: Transaction (burst) size.
    burst_bytes: int = 1024

    def arbitration_ns(self, processors: int) -> int:
        levels = max(0, math.ceil(math.log2(max(1, processors))))
        return self.arbitration_base_ns + levels * \
            self.arbitration_per_level_ns

    def burst_ns(self, processors: int) -> int:
        transfer = self.burst_bytes / self.bus_bandwidth_mb_s * 1000.0
        return self.arbitration_ns(processors) + round(transfer)


class SharedBusMachine:
    """P vector processors on one bus."""

    def __init__(self, processors: int, specs, config=None, engine=None):
        if processors < 1:
            raise ValueError("need at least one processor")
        self.processors = processors
        self.specs = specs
        self.config = config or SharedBusConfig()
        self.engine = engine or Engine()
        self.bus = Mutex(self.engine, name="bus")
        self.bytes_moved = 0

    def _bus_transfer(self, nbytes: int):
        """Process: move ``nbytes`` over the shared bus in bursts."""
        burst = self.config.burst_bytes
        while nbytes > 0:
            take = min(burst, nbytes)
            with self.bus.acquire() as req:
                if req.__class__ is Request:
                    yield req
                yield self.engine.timeout(self.config.burst_ns(
                    self.processors
                ))
            self.bytes_moved += take
            nbytes -= take

    def saxpy(self, total_elements: int, precision: int = 64):
        """Simulate y ← αx + y split over the processors.

        Returns elapsed ns.  Per 128-element chunk a processor pulls
        two operand rows over the bus, computes at full pipe speed, and
        pushes the result row back.
        """
        elem_bytes = precision // 8
        chunk_elems = self.specs.row_bytes // elem_bytes
        mul = (self.specs.multiplier_stages_64 if precision == 64
               else self.specs.multiplier_stages_32)
        pipe = PipelineTiming(
            mul + self.specs.adder_stages, self.specs.cycle_ns
        )
        chunks = -(-total_elements // chunk_elems)
        per_proc = [chunks // self.processors] * self.processors
        for i in range(chunks % self.processors):
            per_proc[i] += 1

        def worker(count):
            for _ in range(count):
                yield from self._bus_transfer(2 * self.specs.row_bytes)
                yield self.engine.timeout(pipe.vector_ns(chunk_elems))
                yield from self._bus_transfer(self.specs.row_bytes)

        start = self.engine.now
        procs = [
            self.engine.process(worker(count)) for count in per_proc
        ]
        self.engine.run(until=self.engine.all_of(procs))
        return self.engine.now - start

    def saxpy_time_model(self, total_elements: int,
                         precision: int = 64) -> float:
        """Analytic lower bound: max(bus time, compute time)."""
        elem_bytes = precision // 8
        traffic = 3 * total_elements * elem_bytes
        bursts = -(-traffic // self.config.burst_bytes)
        bus_ns = bursts * self.config.burst_ns(self.processors)
        compute_ns = total_elements * self.specs.cycle_ns / self.processors
        return max(bus_ns, compute_ns)

    def saturation_processors(self, precision: int = 64) -> float:
        """Processor count beyond which the bus is the bottleneck."""
        per_proc_demand = 3 * (precision // 8) / self.specs.cycle_ns * 1000.0
        return self.config.bus_bandwidth_mb_s / per_proc_demand

    def __repr__(self):
        return f"<SharedBusMachine P={self.processors}>"
