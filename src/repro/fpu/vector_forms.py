"""The vector-form micro-sequencer.

Paper §II: "The arithmetic functional units are supervised by a
preprogrammed micro-sequencer that implements a collection of vector
arithmetic operations referred to as *vector forms*.  The programmer
only needs to describe the input and output vectors and the vector
form desired."

Behaviourally a form maps input vectors (and scalars held in the
functional units' input registers) to an output vector or scalar;
timing-wise it streams one element per 125 ns cycle through a chain of
the adder and/or multiplier pipelines.  The micro-sequencer runs one
form at a time, **in parallel with the control processor**, and
signals completion (the hardware raises an interrupt; here the
returned event fires).

Numerics: the fast path computes with NumPy in the target width and
flushes subnormal results to zero; it is validated element-by-element
against the bit-exact :mod:`repro.fpu.softfloat` in the test suite.
Reductions (DOT, SUM) accumulate in pipeline-feedback order on the real
machine; we compute them with NumPy's summation and document the
reassociation (the paper makes no accuracy claim for reductions).
"""

import warnings
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

# The arithmetic unit has no IEEE traps: overflow wraps to inf and
# invalid operations produce NaN silently (the paper's hardware raises
# no exceptions).  Float RuntimeWarnings attributed to this module's
# ufunc calls are therefore meaningless; silencing them here lets the
# optimized kernels run form computations without paying an errstate
# context per call (the reference kernel keeps the original guard).
warnings.filterwarnings(
    "ignore", category=RuntimeWarning,
    module=r"repro\.fpu\.vector_forms",
)

from repro.events import Mutex, Request
from repro.fpu.pipeline import reduction_drain_cycles, vector_ns_array
from repro.fpu.units import FloatingAdder, FloatingMultiplier


def dtype_for(precision: int):
    """NumPy dtype for an element width in bits."""
    if precision == 32:
        return np.float32
    if precision == 64:
        return np.float64
    raise ValueError(f"unsupported precision {precision!r}")


#: Smallest normal magnitude per dtype (precomputed: np.finfo is not
#: free and this sits on the per-vector-form hot path).
_TINY = {
    np.dtype(np.float32): np.finfo(np.float32).tiny,
    np.dtype(np.float64): np.finfo(np.float64).tiny,
}

#: Same thresholds keyed by element width — the execute hot path knows
#: the precision already, and an int key hashes faster than a dtype.
_TINY_BITS = {32: _TINY[np.dtype(np.float32)],
              64: _TINY[np.dtype(np.float64)]}


def flush_subnormals(array: np.ndarray) -> np.ndarray:
    """Flush subnormal values to (sign-preserving) zero.

    This is the unit's gradual-underflow-not-supported behaviour applied
    to a whole vector at once.  Vectors with no subnormals — the
    overwhelmingly common case — are returned as-is, without a copy.
    ``|x| < tiny`` is False for NaN and infinities, so the mask needs
    neither an ``isfinite`` term nor an errstate guard.
    """
    array = np.asarray(array)
    tiny = _TINY.get(array.dtype)
    if tiny is None:
        raise TypeError(f"not a float array: {array.dtype}")
    if array.size == 0:
        return array
    magnitude = np.abs(array)
    # Screen with one reduction: a min ≥ tiny means no zeros and no
    # subnormals (NaNs fail the compare and fall through to the mask).
    if magnitude.min() >= tiny:
        return array
    mask = (magnitude < tiny) & (magnitude > 0)
    if not mask.any():
        return array
    out = array.copy()
    out[mask] = np.copysign(np.zeros(1, dtype=out.dtype), out[mask])
    return out


def _flush_subnormals_reference(array: np.ndarray) -> np.ndarray:
    """The pre-optimization flush: always copies, errstate-guarded.

    Numerically identical to :func:`flush_subnormals`; kept as the
    ``REPRO_SLOW_KERNEL=1`` baseline so wall-clock comparisons measure
    the real cost of the fast path.
    """
    array = np.asarray(array)
    if array.dtype not in (np.float32, np.float64):
        raise TypeError(f"not a float array: {array.dtype}")
    tiny = np.finfo(array.dtype).tiny
    out = array.copy()
    with np.errstate(invalid="ignore"):
        mask = (out != 0) & (np.abs(out) < tiny) & np.isfinite(out)
    if mask.any():
        out[mask] = np.copysign(np.zeros(1, dtype=out.dtype), out[mask])
    return out


class ChainRef:
    """Placeholder input: the result of an earlier op in the same chain.

    The model layer threads register dataflow through a queued chain
    with these instead of materialized arrays — op k's input can be
    op j's (j < k) not-yet-computed result.  ``length`` optionally
    reads a prefix of that result (a shorter op consuming a longer
    register), mirroring ``VectorRegister.elements(count=...)``.
    """

    __slots__ = ("index", "length")

    def __init__(self, index: int, length: int = None):
        self.index = index
        self.length = length

    def __repr__(self):
        if self.length is None:
            return f"ChainRef({self.index})"
        return f"ChainRef({self.index}, length={self.length})"


@dataclass(frozen=True)
class VectorForm:
    """One entry in the micro-sequencer's form catalog."""

    name: str
    description: str
    #: Number of vector operands (≤2: the dual banks supply at most two
    #: vector inputs per cycle).
    vector_inputs: int
    #: Number of scalars held in functional-unit input registers.
    scalar_inputs: int
    uses_adder: bool
    uses_multiplier: bool
    #: Floating-point operations per element (for MFLOPS accounting).
    flops_per_element: int
    #: True if the result is a scalar (feedback accumulation).
    reduction: bool
    #: (inputs, scalars, dtype) → ndarray or scalar, pre-flush.
    compute: Callable

    def __post_init__(self):
        if self.vector_inputs > 2:
            raise ValueError(
                "the dual-bank memory feeds at most two vector inputs"
            )


def _form(name, desc, vin, sin, add, mul, flops, red, fn):
    return VectorForm(name, desc, vin, sin, add, mul, flops, red, fn)


#: The form catalog.  Names follow the FPS vector-op naming style.
FORMS = {}


def register_form(form: VectorForm) -> VectorForm:
    """Add a form to the catalog (also used by tests to build variants)."""
    if form.name in FORMS:
        raise ValueError(f"duplicate form {form.name!r}")
    FORMS[form.name] = form
    return form


def form_catalog() -> list:
    """Sorted form names — the stable iteration order the conformance
    layer (golden traces, the vector-workload fuzzer) samples from."""
    return sorted(FORMS)


def _elementwise(fn):
    def compute(inputs, scalars, dtype):
        return fn(*[np.asarray(v, dtype=dtype) for v in inputs],
                  *[dtype(s) for s in scalars])
    return compute


for _name, _desc, _vin, _sin, _add, _mul, _flops, _red, _fn in [
    ("VADD", "c[i] = a[i] + b[i]", 2, 0, True, False, 1, False,
     _elementwise(lambda a, b: a + b)),
    ("VSUB", "c[i] = a[i] - b[i]", 2, 0, True, False, 1, False,
     _elementwise(lambda a, b: a - b)),
    ("VMUL", "c[i] = a[i] * b[i]", 2, 0, False, True, 1, False,
     _elementwise(lambda a, b: a * b)),
    ("VSADD", "c[i] = s + a[i]", 1, 1, True, False, 1, False,
     _elementwise(lambda a, s: s + a)),
    ("VSSUB", "c[i] = a[i] - s", 1, 1, True, False, 1, False,
     _elementwise(lambda a, s: a - s)),
    ("VSMUL", "c[i] = s * a[i]", 1, 1, False, True, 1, False,
     _elementwise(lambda a, s: s * a)),
    ("SAXPY", "c[i] = s * x[i] + y[i]", 2, 1, True, True, 2, False,
     _elementwise(lambda x, y, s: s * x + y)),
    ("VNEG", "c[i] = -a[i]", 1, 0, True, False, 1, False,
     _elementwise(lambda a: -a)),
    ("VABS", "c[i] = |a[i]|", 1, 0, True, False, 1, False,
     _elementwise(lambda a: np.abs(a))),
    ("VMAX", "c[i] = max(a[i], b[i])", 2, 0, True, False, 1, False,
     _elementwise(lambda a, b: np.maximum(a, b))),
    ("VMIN", "c[i] = min(a[i], b[i])", 2, 0, True, False, 1, False,
     _elementwise(lambda a, b: np.minimum(a, b))),
    ("DOT", "sum_i a[i] * b[i]", 2, 0, True, True, 2, True,
     lambda inputs, scalars, dtype: dtype(
         np.dot(np.asarray(inputs[0], dtype=dtype),
                np.asarray(inputs[1], dtype=dtype)))),
    ("SUM", "sum_i a[i]", 1, 0, True, False, 1, True,
     lambda inputs, scalars, dtype: dtype(
         np.sum(np.asarray(inputs[0], dtype=dtype)))),
]:
    register_form(
        _form(_name, _desc, _vin, _sin, _add, _mul, _flops, _red, _fn)
    )


def _convert_compute(target):
    def compute(inputs, scalars, dtype):
        return np.asarray(inputs[0], dtype=dtype).astype(target)
    return compute


register_form(_form(
    "VCVT64", "widen 32-bit elements to 64-bit", 1, 0, True, False, 1,
    False, _convert_compute(np.float64),
))
register_form(_form(
    "VCVT32", "narrow 64-bit elements to 32-bit", 1, 0, True, False, 1,
    False, _convert_compute(np.float32),
))


class VectorArithmeticUnit:
    """The complete vector arithmetic subsystem of one node.

    Owns the adder and multiplier, runs one vector form at a time, and
    keeps FLOP/occupancy counters for measured-performance experiments.
    """

    def __init__(self, engine, specs):
        self.engine = engine
        self.specs = specs
        self.adder = FloatingAdder(engine, specs)
        self.multiplier = FloatingMultiplier(engine, specs)
        self._busy = Mutex(engine, name="vau")
        #: Total floating-point operations performed.
        self.flops = 0
        #: Total ns spent executing forms.
        self.busy_ns = 0
        #: Vector forms completed.
        self.completions = 0
        # The engine's kernel tier: the reference tier keeps the
        # pre-optimization timing and flush implementations and per-op
        # chain dispatch, so the reference run is an honest baseline,
        # not one that inherits the turbo tier's memoization.
        self._fast = engine.kernel_tier != "reference"
        self._flush = (
            flush_subnormals if self._fast else _flush_subnormals_reference
        )
        # Memoized duration coefficients: (form name, precision) →
        # cycles for n = 0 elements (chain fill − 1, plus reduction
        # drain).  duration() is then one dict hit and two integer ops
        # for *any* n — exact, not bucketed, because the cost model is
        # affine in n.
        self._duration_base = {} if self._fast else None
        # Turbo tier: execute_chain computes queued chains in batch
        # (one concatenated subnormal screen, one vectorized timing
        # evaluation); the reference tier runs the identical chain
        # protocol with per-op dispatch.
        #: Batched micro-sequencer counters (see engine_stats):
        #: chains executed, forms and elements computed through the
        #: batched path, and per-input flush calls elided by a clean
        #: whole-chain screen.
        self.chains = 0
        self.batched_forms = 0
        self.batched_elements = 0
        self.screens_elided = 0
        #: Chain-adoption counters (engine_stats: ``vau_chain_model``
        #: and ``chain_ops_fused``): fused model-layer chains executed
        #: — one pipeline fill for the whole chain instead of one per
        #: op — and the ops fused into them.  Identical on every tier.
        self.model_chains = 0
        self.model_chain_ops = 0
        vaus = getattr(engine, "vaus", None)
        if vaus is not None:
            vaus.append(self)

    # -- timing ---------------------------------------------------------

    def chain_depth(self, form: VectorForm, precision: int) -> int:
        """Pipeline fill of the unit chain a form streams through."""
        depth = 0
        if form.uses_multiplier:
            depth += self.multiplier.stages(precision)
        if form.uses_adder:
            depth += self.adder.stages(precision)
        return depth

    def duration(self, form_name: str, n: int, precision: int = 64) -> int:
        """Simulated ns for an n-element execution of a form."""
        if n < 0:
            raise ValueError("negative vector length")
        if n == 0:
            return 0
        memo = self._duration_base
        if memo is None:  # reference kernel: recompute per call
            form = FORMS[form_name]
            cycles = self.chain_depth(form, precision) + n - 1
            if form.reduction:
                cycles += reduction_drain_cycles(self.adder.stages(precision))
            return cycles * self.specs.cycle_ns
        base = memo.get((form_name, precision))
        if base is None:
            form = FORMS[form_name]
            base = self.chain_depth(form, precision) - 1
            if form.reduction:
                base += reduction_drain_cycles(self.adder.stages(precision))
            memo[(form_name, precision)] = base
        return (base + n) * self.specs.cycle_ns

    def peak_flops_per_s(self) -> float:
        """Peak rate with both pipes streaming: 2 per cycle (16 MFLOPS)."""
        return 2e9 / self.specs.cycle_ns

    # -- execution --------------------------------------------------------

    def _validate(self, form, inputs, scalars, precision):
        if len(inputs) != form.vector_inputs:
            raise ValueError(
                f"{form.name} takes {form.vector_inputs} vector inputs, "
                f"got {len(inputs)}"
            )
        if len(scalars) != form.scalar_inputs:
            raise ValueError(
                f"{form.name} takes {form.scalar_inputs} scalars, "
                f"got {len(scalars)}"
            )
        if not inputs:
            return 0
        n = len(inputs[0])
        for v in inputs:
            if len(v) != n:
                raise ValueError(
                    "input length mismatch: "
                    f"{sorted({len(u) for u in inputs})}"
                )
        return n

    def execute(self, form_name, inputs, scalars=(), precision=64):
        """Process: run one vector form; returns the flushed result.

        The caller may start this with ``engine.process`` and *not*
        wait on it — that is exactly the paper's CP/vector-unit
        overlap.
        """
        form = FORMS[form_name]
        dtype = dtype_for(precision)
        n = self._validate(form, inputs, scalars, precision)
        duration = self.duration(form_name, n, precision)
        req = self._busy.acquire()
        try:
            if req.__class__ is Request:
                yield req
            yield self.engine.timeout(duration)
        finally:
            req.release()
        # Counters: each used unit produced one result per element.
        if form.uses_adder:
            self.adder.results += n
            self.adder.busy_ns += duration
        if form.uses_multiplier:
            self.multiplier.results += n
            self.multiplier.busy_ns += duration
        self.flops += form.flops_per_element * n
        self.busy_ns += duration
        self.completions += 1

        return self._compute_form(form, inputs, scalars, n, dtype, precision)

    def _compute_form(self, form, inputs, scalars, n, dtype, precision):
        """Screen inputs, run one form's arithmetic, screen the result.

        This is the numeric half of :meth:`execute` (shared with the
        chain path); timing and counters are the caller's business.
        """
        flush = self._flush
        if self._fast and len(inputs) == 2:
            # Dual-input forms dominate (SAXPY, VADD, DOT...): screen
            # both operands with one reduction over their concatenation;
            # a clean screen skips both per-input flush calls.
            a = np.asarray(inputs[0], dtype=dtype)
            b = np.asarray(inputs[1], dtype=dtype)
            magnitude = np.abs(np.concatenate((a, b)))
            if n == 0 or magnitude.min() >= _TINY_BITS[precision]:
                flushed_inputs = [a, b]
            else:
                # The min screen also trips on exact zeros, which need
                # no flushing (a zeroed accumulator row is the common
                # case) — one mask pass settles it for both operands.
                mask = (magnitude < _TINY_BITS[precision]) & (magnitude > 0)
                if mask.any():
                    flushed_inputs = [flush(a), flush(b)]
                else:
                    flushed_inputs = [a, b]
        else:
            flushed_inputs = [
                flush(np.asarray(v, dtype=dtype)) for v in inputs
            ]
        if self._fast:
            # IEEE-flag warnings from compute are filtered module-wide
            # (see the filterwarnings call at import): no context
            # manager needed on the hot path.
            result = form.compute(flushed_inputs, scalars, dtype)
        else:
            with np.errstate(
                over="ignore", invalid="ignore", under="ignore"
            ):
                result = form.compute(flushed_inputs, scalars, dtype)
        return self._screen_result(form, result, flush, precision)

    def _screen_result(self, form, result, flush, precision):
        """Subnormal-flush a form's result (scalar or vector)."""
        if form.reduction:
            scalar = np.asarray(result).reshape(1)
            return flush(scalar)[0]
        if self._fast and type(result) is np.ndarray:
            # Inline screen: compute always returns the target dtype,
            # so skip the flush call's asarray/dtype-lookup preamble.
            magnitude = np.abs(result)
            if (magnitude.size == 0
                    or magnitude.min() >= _TINY_BITS[precision]):
                return result
        return flush(np.asarray(result))

    # -- queued chains ----------------------------------------------------

    def _validate_chain_entry(self, form, inputs, scalars, index, entries):
        """Chain-aware :meth:`_validate`: inputs may be `ChainRef`s.

        A ref must point at an earlier non-reduction entry of this
        chain, and its (possibly prefix-truncated) length must agree
        with the entry's other inputs.  Returns the element count.
        """
        if len(inputs) != form.vector_inputs:
            raise ValueError(
                f"{form.name} takes {form.vector_inputs} vector inputs, "
                f"got {len(inputs)}"
            )
        if len(scalars) != form.scalar_inputs:
            raise ValueError(
                f"{form.name} takes {form.scalar_inputs} scalars, "
                f"got {len(scalars)}"
            )
        if not inputs:
            return 0
        lengths = []
        for v in inputs:
            if type(v) is ChainRef:
                if not 0 <= v.index < index:
                    raise ValueError(
                        f"chain op {index} references result {v.index}, "
                        "which does not precede it"
                    )
                ref_form, _i, _s, ref_n = entries[v.index]
                if ref_form.reduction:
                    raise ValueError(
                        f"chain op {index} uses the scalar result of "
                        f"{ref_form.name} as a vector input"
                    )
                if v.length is not None:
                    if v.length > ref_n:
                        raise ValueError(
                            f"ChainRef length {v.length} exceeds the "
                            f"{ref_n}-element result it references"
                        )
                    lengths.append(v.length)
                else:
                    lengths.append(ref_n)
            else:
                lengths.append(len(v))
        n = lengths[0]
        if any(m != n for m in lengths):
            raise ValueError(
                f"input length mismatch: {sorted(set(lengths))}"
            )
        return n

    @staticmethod
    def _resolve_refs(inputs, results):
        """Replace `ChainRef` placeholders with the computed results."""
        resolved = []
        for v in inputs:
            if type(v) is ChainRef:
                r = results[v.index]
                if v.length is not None and v.length != len(r):
                    r = r[:v.length]
                resolved.append(r)
            else:
                resolved.append(v)
        return resolved

    def _fused_durations(self, entries, precision):
        """Per-op duration shares under the fused chain cost model.

        The paper's micro-sequencer streams a queued chain back to
        back: the pipeline fills **once** (the deepest unit chain any
        op uses), then results drain one element per cycle across all
        ops.  Total = ``(fill + Σ nᵢ − 1)`` cycles plus a reduction
        drain per reduction op.  The fill is attributed to the first
        non-empty op so the per-op shares sum exactly to the total —
        a deterministic integer split, identical on every tier (no
        memo involved, so reference and fast agree bit-for-bit).
        """
        cycle = self.specs.cycle_ns
        fill = 0
        for form, _inputs, _scalars, n in entries:
            if n:
                depth = self.chain_depth(form, precision)
                if depth > fill:
                    fill = depth
        durations = []
        first = True
        for form, _inputs, _scalars, n in entries:
            if n == 0:
                durations.append(0)
                continue
            cycles = n
            if form.reduction:
                cycles += reduction_drain_cycles(
                    self.adder.stages(precision)
                )
            if first:
                cycles += fill - 1
                first = False
            durations.append(cycles * cycle)
        return durations

    def _chain_durations(self, entries, precision):
        """Per-op simulated durations for a queued chain.

        The turbo tier prices the whole chain with one vectorized
        affine evaluation over memoized per-form bases; the reference
        tier calls :meth:`duration` per op.  Identical integers either
        way — the cost model is affine in n, so batching changes how
        the arithmetic is issued, not its results.
        """
        if not self._fast:
            return [self.duration(form.name, n, precision)
                    for form, _inputs, _scalars, n in entries]
        memo = self._duration_base
        bases = []
        lengths = []
        for form, _inputs, _scalars, n in entries:
            base = memo.get((form.name, precision))
            if base is None:
                base = self.chain_depth(form, precision) - 1
                if form.reduction:
                    base += reduction_drain_cycles(
                        self.adder.stages(precision)
                    )
                memo[(form.name, precision)] = base
            bases.append(base)
            lengths.append(n)
        return vector_ns_array(bases, lengths, self.specs.cycle_ns)

    def _compute_chain_batched(self, entries, dtype, precision):
        """Compute every form of a chain with one whole-chain screen.

        A single concatenated reduction screens every vector input of
        every op; when the whole batch is clean (the overwhelmingly
        common case) the per-input flush calls are elided entirely and
        each form computes straight on its operands.  A dirty batch
        falls back to the per-op screen logic, which flushes exactly
        the arrays that need it — either way the values are
        bit-identical to per-op dispatch, because flushing a clean
        array is the identity.
        """
        flush = self._flush
        arrays = []
        pool = []
        for form, inputs, scalars, n in entries:
            vecs = [np.asarray(v, dtype=dtype) for v in inputs]
            arrays.append(vecs)
            for v in vecs:
                if v.size:
                    pool.append(v)
        clean = True
        if pool:
            magnitude = np.abs(np.concatenate(pool))
            clean = bool(magnitude.min() >= _TINY_BITS[precision])
        self.chains += 1
        self.batched_forms += len(entries)
        self.batched_elements += sum(n for _f, _i, _s, n in entries)
        results = []
        if clean:
            self.screens_elided += sum(len(vecs) for vecs in arrays)
            for (form, _inputs, scalars, _n), vecs in zip(entries, arrays):
                result = form.compute(vecs, scalars, dtype)
                results.append(
                    self._screen_result(form, result, flush, precision)
                )
            return results
        for (form, _inputs, scalars, n), vecs in zip(entries, arrays):
            results.append(
                self._compute_form(form, vecs, scalars, n, dtype, precision)
            )
        return results

    def execute_chain(self, ops, precision=64, fused=False):
        """Process: run a queued chain of forms under one unit hold.

        ``ops`` is a sequence of ``(form_name, inputs)`` or
        ``(form_name, inputs, scalars)`` entries; an input may be a
        :class:`ChainRef` naming an earlier op's result (register
        dataflow threaded through the chain without waiting on it).
        The micro-sequencer queues the whole chain: the unit is
        requested once, completion fires once, and the per-op results
        come back as a list — the same event pattern, simulated
        timing, counter totals, and bit-exact values on both kernel
        tiers.  What differs per tier is the host arithmetic: the turbo
        tier batches the chain (one vectorized timing evaluation, one
        whole-chain subnormal screen — see
        :meth:`_compute_chain_batched`), the reference tier dispatches
        per op.

        ``fused=False`` (the default) prices each op with its own
        pipeline fill — the historical queued-chain model.  ``fused=
        True`` is the model-layer streaming mode: the pipeline fills
        once for the whole chain (see :meth:`_fused_durations`), which
        is what :meth:`repro.core.node.ProcessorNode.run_chain` and
        the matmul/gauss inner loops dispatch.
        """
        dtype = dtype_for(precision)
        entries = []
        has_refs = False
        for op in ops:
            form_name, inputs = op[0], op[1]
            scalars = op[2] if len(op) > 2 else ()
            form = FORMS[form_name]
            if any(type(v) is ChainRef for v in inputs):
                has_refs = True
                n = self._validate_chain_entry(
                    form, inputs, scalars, len(entries), entries
                )
            else:
                n = self._validate(form, inputs, scalars, precision)
            entries.append((form, inputs, scalars, n))
        if fused:
            durations = self._fused_durations(entries, precision)
        else:
            durations = self._chain_durations(entries, precision)
        total = 0
        for d in durations:
            total += d
        req = self._busy.acquire()
        try:
            if req.__class__ is Request:
                yield req
            yield self.engine.timeout(total)
        finally:
            req.release()
        adder = self.adder
        multiplier = self.multiplier
        for (form, _inputs, _scalars, n), duration in zip(entries, durations):
            if form.uses_adder:
                adder.credit(n, duration)
            if form.uses_multiplier:
                multiplier.credit(n, duration)
            self.flops += form.flops_per_element * n
            self.busy_ns += duration
            self.completions += 1
        if fused:
            self.model_chains += 1
            self.model_chain_ops += len(entries)
        if self._fast:
            if has_refs:
                return self._compute_chain_optimistic(
                    entries, dtype, precision
                )
            return self._compute_chain_batched(entries, dtype, precision)
        if not has_refs:
            return [
                self._compute_form(form, inputs, scalars, n, dtype, precision)
                for form, inputs, scalars, n in entries
            ]
        results = []
        for form, inputs, scalars, n in entries:
            vecs = self._resolve_refs(inputs, results)
            results.append(
                self._compute_form(form, vecs, scalars, n, dtype, precision)
            )
        return results

    def _compute_chain_optimistic(self, entries, dtype, precision):
        """Batched compute for chains with :class:`ChainRef` dataflow.

        Dependent ops cannot be screened up front (an input may be a
        result that does not exist yet), so the turbo tier computes
        the whole chain **optimistically** — no per-op screens — while
        pooling every memory-sourced input and every result.  One
        concatenated screen then settles it: if nothing in the pool is
        subnormal, no per-op flush would have fired anywhere, so the
        optimistic results are bit-identical to per-op dispatch (the
        overwhelmingly common case).  A dirty pool discards them and
        recomputes the chain per op with full screens — exactly the
        dispatch the reference tier runs.
        """
        flush = self._flush
        tiny = _TINY_BITS[precision]
        pool = []
        results = []
        for form, inputs, scalars, n in entries:
            vecs = []
            for v in inputs:
                if type(v) is ChainRef:
                    r = results[v.index]
                    if v.length is not None and v.length != len(r):
                        r = r[:v.length]
                    vecs.append(r)
                else:
                    arr = np.asarray(v, dtype=dtype)
                    if arr.size:
                        pool.append(arr)
                    vecs.append(arr)
            result = form.compute(vecs, scalars, dtype)
            if form.reduction:
                scalar = np.asarray(result).reshape(1)
                pool.append(scalar)
                results.append(scalar[0])
            else:
                if result.size:
                    pool.append(result)
                results.append(result)
        clean = True
        if pool:
            magnitude = np.abs(np.concatenate(pool))
            if not (magnitude.size == 0 or magnitude.min() >= tiny):
                # The min screen also trips on exact zeros (zeroed
                # accumulators, exact cancellation) which need no
                # flushing — the mask settles the whole pool at once.
                mask = (magnitude < tiny) & (magnitude > 0)
                clean = not mask.any()
        self.chains += 1
        self.batched_forms += len(entries)
        self.batched_elements += sum(n for _f, _i, _s, n in entries)
        if clean:
            self.screens_elided += sum(
                len(inputs) for _f, inputs, _s, _n in entries
            )
            return results
        results = []
        for form, inputs, scalars, n in entries:
            vecs = self._resolve_refs(inputs, results)
            results.append(
                self._compute_form(form, vecs, scalars, n, dtype, precision)
            )
        return results

    def start_chain(self, ops, precision=64, fused=False):
        """Fire-and-forget: start a queued chain, return its event."""
        return self.engine.process(
            self.execute_chain(ops, precision, fused), name="vau-chain"
        )

    def start(self, form_name, inputs, scalars=(), precision=64):
        """Fire-and-forget: start a form, return its completion event."""
        return self.engine.process(
            self.execute(form_name, inputs, scalars, precision),
            name=f"vau-{form_name}",
        )

    def measured_mflops(self) -> float:
        """FLOPs per elapsed simulated µs (the measured rate)."""
        if self.engine.now == 0:
            return 0.0
        return self.flops / (self.engine.now / 1000.0)

    def __repr__(self):
        return f"<VectorArithmeticUnit flops={self.flops}>"
