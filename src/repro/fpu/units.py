"""The floating-point functional units as simulation components.

:class:`FloatingAdder` and :class:`FloatingMultiplier` wrap the
bit-level arithmetic of :mod:`repro.fpu.softfloat` in the pipeline
timing of :mod:`repro.fpu.pipeline` and in an engine
:class:`~repro.events.Resource` so concurrent issue serialises the way
the hardware would.  The units run **in parallel with each other and
with the control processor**; only the vector-form micro-sequencer
(:mod:`repro.fpu.vector_forms`) coordinates them.
"""

from repro.events import Mutex, Request
from repro.fpu import softfloat
from repro.fpu.ieee import format_for
from repro.fpu.pipeline import PipelineTiming


class FunctionalUnit:
    """Common machinery: busy arbitration, utilisation counters."""

    def __init__(self, engine, name, stages_32, stages_64, cycle_ns):
        self.engine = engine
        self.name = name
        self.cycle_ns = cycle_ns
        self._timing = {
            32: PipelineTiming(stages_32, cycle_ns),
            64: PipelineTiming(stages_64, cycle_ns),
        }
        # Memoized pipeline depths: precision → stages.  ``stages()``
        # sits on the per-vector-form timing path, so it must not pay
        # for a PipelineTiming lookup plus attribute hops every call.
        self._stages = {32: stages_32, 64: stages_64}
        self.busy = Mutex(engine, name=f"{name}-issue")
        #: Total results produced (for measured-MFLOPS accounting).
        self.results = 0
        #: Total ns the unit spent streaming results.
        self.busy_ns = 0

    def timing(self, precision: int) -> PipelineTiming:
        """Pipeline timing for 32- or 64-bit mode."""
        try:
            return self._timing[precision]
        except KeyError:
            raise ValueError(f"unsupported precision {precision!r}") from None

    def stages(self, precision: int) -> int:
        """Pipeline depth in the given mode."""
        try:
            return self._stages[precision]
        except KeyError:
            raise ValueError(f"unsupported precision {precision!r}") from None

    def credit(self, n: int, duration_ns: int) -> None:
        """Apply the utilisation counters of an n-element streamed op
        whose time was modelled elsewhere.

        The vector-form micro-sequencer's chain path times a whole
        queued chain with one timeout and then credits each unit
        per-op through here — the counter totals are exactly what the
        per-op execute path would have accumulated.
        """
        self.results += n
        self.busy_ns += duration_ns

    def occupy(self, n: int, precision: int):
        """Process: hold the unit for an n-element vector operation.

        Returns the simulated duration.  Numeric results are computed
        by the caller (scalar path) or the micro-sequencer (vector
        path); this models time and contention only.
        """
        duration = self.timing(precision).vector_ns(n)
        with self.busy.acquire() as req:
            if req.__class__ is Request:
                yield req
            yield self.engine.timeout(duration)
            self.results += n
            self.busy_ns += duration
        return duration

    def utilization(self) -> float:
        """Busy fraction of elapsed simulated time."""
        if self.engine.now == 0:
            return 0.0
        return self.busy_ns / self.engine.now

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r} results={self.results}>"


class FloatingAdder(FunctionalUnit):
    """Six-stage pipelined adder.

    Performs addition/subtraction in both widths, comparisons, and data
    conversions (paper §II).  Scalar bit-level entry points are exposed
    for the CP and for numerics tests.
    """

    def __init__(self, engine, specs):
        super().__init__(
            engine,
            "fadd",
            stages_32=specs.adder_stages,
            stages_64=specs.adder_stages,
            cycle_ns=specs.cycle_ns,
        )

    def add(self, a, b, precision):
        """Bit-level scalar a + b."""
        return softfloat.fp_add(a, b, format_for(precision))

    def sub(self, a, b, precision):
        """Bit-level scalar a - b."""
        return softfloat.fp_sub(a, b, format_for(precision))

    def compare(self, a, b, precision):
        """Scalar compare: -1/0/1/UNORDERED."""
        return softfloat.fp_compare(a, b, format_for(precision))

    def convert(self, bits, src_precision, dst_precision):
        """Width conversion (32↔64)."""
        return softfloat.fp_convert(
            bits, format_for(src_precision), format_for(dst_precision)
        )


class FloatingMultiplier(FunctionalUnit):
    """Five-stage (32-bit) / seven-stage (64-bit) pipelined multiplier."""

    def __init__(self, engine, specs):
        super().__init__(
            engine,
            "fmul",
            stages_32=specs.multiplier_stages_32,
            stages_64=specs.multiplier_stages_64,
            cycle_ns=specs.cycle_ns,
        )

    def mul(self, a, b, precision):
        """Bit-level scalar a * b."""
        return softfloat.fp_mul(a, b, format_for(precision))
