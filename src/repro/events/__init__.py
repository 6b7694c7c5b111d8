"""Discrete-event simulation kernel (integer-nanosecond clock).

Public surface:

* :class:`Engine` — the event loop; :meth:`Engine.process` starts a
  generator coroutine, :meth:`Engine.run` drives the model.
* :class:`Event`, :class:`Timeout`, :class:`Process`, :class:`AllOf`,
  :class:`AnyOf` — the event types processes yield.
* :class:`Channel` — Occam-style rendezvous channel; :class:`Store` —
  buffered FIFO.
* :class:`Resource`, :class:`Mutex`, :func:`hold` — contended hardware
  resources.
* Exceptions: :class:`SimulationError`, :class:`Interrupt`,
  :class:`DeadlockError`.
"""

from repro.events.engine import (
    AllOf,
    AnyOf,
    Engine,
    Event,
    Process,
    Timeout,
)
from repro.events.channel import Channel, Store
from repro.events.faultlog import FaultLog, record_fault
from repro.events.resources import Held, Mutex, Request, Resource, hold
from repro.events.errors import (
    DeadlockError,
    Interrupt,
    SimulationError,
    StopSimulation,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Channel",
    "DeadlockError",
    "Engine",
    "Event",
    "FaultLog",
    "Held",
    "Interrupt",
    "Mutex",
    "Process",
    "Request",
    "Resource",
    "SimulationError",
    "StopSimulation",
    "Store",
    "Timeout",
    "hold",
    "record_fault",
]
