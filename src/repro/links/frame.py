"""Bit-serial framing of the inter-node links.

Paper §II "Communications": "Every 8-bit byte is sent with two
synchronization bits and one stop bit, and requires two acknowledge
bits from the receiver.  This results in a maximum unidirectional
bandwidth of over 0.5 MB/s per link."

We model the wire cost of a data byte as 13 bit-times (8 data + 2 sync
+ 1 stop + 2 ack — the ack path is pipelined with the next byte on the
real hardware, but its bit-times still bound the sustained rate).  At
the 7.5 Mbit/s bit rate this gives ≈0.577 MB/s, i.e. "over 0.5 MB/s";
the *measured* figure is produced by experiment E2, not asserted.
"""

from dataclasses import dataclass

from repro.core.specs import NS_PER_S
from repro.events.engine import kernel_tier


@dataclass(frozen=True)
class FrameSpec:
    """Framing parameters of one serial link."""

    bit_rate: int
    data_bits: int = 8
    sync_bits: int = 2
    stop_bits: int = 1
    ack_bits: int = 2

    def __post_init__(self):
        if self.bit_rate <= 0:
            raise ValueError("bit rate must be positive")
        if min(self.data_bits, self.sync_bits, self.stop_bits,
               self.ack_bits) < 0 or self.data_bits == 0:
            raise ValueError("invalid framing bit counts")
        # Memoized wire-time lookup (the dataclass is frozen, so the
        # cache and the precomputed ns factor are smuggled in via
        # object.__setattr__).  transfer_ns() sits on every DMA/frame
        # hot path and transfer sizes repeat heavily.  The reference tier
        # (sampled at construction, like the event kernel) disables the
        # memo so the reference run prices every call at full cost.
        object.__setattr__(
            self, "_ns_factor", self.bits_per_byte * NS_PER_S
        )
        object.__setattr__(
            self, "_transfer_cache",
            None if kernel_tier() == "reference" else {}
        )

    @property
    def bits_per_byte(self) -> int:
        """Wire bits consumed per data byte (13 in the paper's framing)."""
        return self.data_bits + self.sync_bits + self.stop_bits + self.ack_bits

    @property
    def overhead_fraction(self) -> float:
        """Fraction of wire time that is not payload (5/13)."""
        return 1 - self.data_bits / self.bits_per_byte

    def transfer_ns(self, nbytes: int) -> int:
        """Wire time for ``nbytes`` data bytes, rounded to whole ns."""
        cache = self._transfer_cache
        if cache is None:  # reference kernel: recompute per call
            if nbytes < 0:
                raise ValueError("negative byte count")
            num = nbytes * self.bits_per_byte * NS_PER_S
            return (num + self.bit_rate // 2) // self.bit_rate
        ns = cache.get(nbytes)
        if ns is None:
            if nbytes < 0:
                raise ValueError("negative byte count")
            num = nbytes * self._ns_factor
            ns = (num + self.bit_rate // 2) // self.bit_rate
            if len(cache) < 8192:  # bound the memo for huge sweeps
                cache[nbytes] = ns
        return ns

    @property
    def effective_mb_s(self) -> float:
        """Payload bandwidth after framing (bytes/s ÷ 1e6)."""
        return self.bit_rate / self.bits_per_byte / 1e6

    @classmethod
    def from_specs(cls, specs) -> "FrameSpec":
        """Build from :class:`~repro.core.specs.TSeriesSpecs`."""
        return cls(
            bit_rate=specs.link_bit_rate,
            data_bits=specs.link_data_bits,
            sync_bits=specs.link_sync_bits,
            stop_bits=specs.link_stop_bits,
            ack_bits=specs.link_ack_bits,
        )
