"""Contended resources.

Hardware models use these to serialise access to shared datapaths: a
memory port, a link wire, the module's system-board connection.  A
:class:`Resource` grants up to ``capacity`` concurrent holds, FIFO
ordered, which is exactly the arbitration the paper's hardware performs
(single-master ports, one transfer per wire at a time).

Hold sites that yield their request at once call
:meth:`Resource.acquire` instead of :meth:`Resource.request`::

    with port.acquire() as req:
        if req.__class__ is Request:
            yield req
        ... use the port ...

On the turbo tier, when the grant would be resumed inline by the
front-of-lane trampoline anyway, ``acquire`` claims the resource on
the spot and returns an event-free :class:`Held` token; otherwise it
returns an ordinary :class:`Request` for the caller to yield.
"""

from collections import deque

from repro.events.engine import Event
from repro.events.errors import SimulationError


class Request(Event):
    """A pending or granted hold on a :class:`Resource`.

    Supports the context-manager protocol so process code can write::

        with port.request() as req:
            yield req
            ... use the port ...
        # released on exit
    """

    __slots__ = ("resource",)

    def __init__(self, resource):
        # Event.__init__ inlined (one Request per arbitration).
        self.engine = resource.engine
        self.callbacks = []
        self._value = Event.PENDING
        self._ok = None
        self._defused = False
        self.resource = resource
        # Uncontended fast path: a non-empty queue implies exhausted
        # capacity (every release drains the queue as far as capacity
        # allows), so an immediate grant never jumps the FIFO.
        if not resource._queue and len(resource._users) < resource.capacity:
            resource._users.add(self)
            resource.grants += 1
            self._ok = True
            # None, not self: a self-referencing value would make every
            # arbitration cyclic garbage, freed only by the cyclic GC.
            self._value = None
            resource.engine._fire_urgent(self)
        else:
            resource._queue.append(self)
            resource._grant()

    def release(self):
        """Give the resource back (idempotent)."""
        self.resource._release(self)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.release()
        return False


class Held:
    """A hold claimed inline by :meth:`Resource.acquire`: granted at
    once, with no event behind it.  Released like a :class:`Request`
    (idempotently, or by leaving its ``with`` block)."""

    __slots__ = ("resource",)

    def release(self):
        """Give the resource back (idempotent)."""
        self.resource._release(self)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.resource._release(self)
        return False


_new_held = Held.__new__


class Resource:
    """A FIFO-arbitrated resource with fixed capacity.

    Parameters
    ----------
    engine : Engine
    capacity : int
        Number of simultaneous holders (1 for a memory port or wire).
    name : str, optional
        For diagnostics.
    """

    def __init__(self, engine, capacity=1, name=None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.name = name or "resource"
        self._queue = deque()
        self._users = set()
        #: Cumulative busy statistics for utilisation reporting.
        self.grants = 0

    @property
    def count(self):
        """Number of current holders."""
        return len(self._users)

    @property
    def queued(self):
        """Number of requests waiting for a grant."""
        return len(self._queue)

    def request(self):
        """Ask for a hold; the returned :class:`Request` event fires when
        granted."""
        return Request(self)

    def acquire(self):
        """Ask for a hold that the calling process yields at once.

        Returns a granted :class:`Held` token when the turbo kernel's
        front-of-lane trampoline (:meth:`Process._resume`) would have
        resumed the grant inline anyway: a process is running, the
        resource is free with nobody queued, the fast lane is empty,
        the firing event had a single callback and no URGENT entry
        waits in the heap.  The claim then advances the engine
        counters exactly as that inline resume would.  Otherwise --
        and always on the reference tier -- it returns a
        :class:`Request`, which the caller must yield.
        """
        engine = self.engine
        if (engine._fast and engine._solo_cb and not engine._lane
                and not engine._durgent and not self._queue
                and len(self._users) < self.capacity
                and engine._active is not None):
            held = _new_held(Held)
            held.resource = self
            self._users.add(held)
            self.grants += 1
            engine.events_processed += 1
            engine.lane_hits += 1
            return held
        return Request(self)

    def _grant(self):
        while self._queue and len(self._users) < self.capacity:
            req = self._queue.popleft()
            self._users.add(req)
            self.grants += 1
            req._ok = True
            req._value = None
            self.engine._fire_urgent(req)

    def _release(self, req):
        if req in self._users:
            self._users.discard(req)
            self._grant()
        else:
            # Withdrawing an ungranted request is allowed (e.g. after an
            # interrupt); releasing twice is a no-op.
            try:
                self._queue.remove(req)
            except ValueError:
                pass

    def __repr__(self):
        return (
            f"<Resource {self.name!r} {len(self._users)}/{self.capacity} "
            f"queued={len(self._queue)}>"
        )


class Mutex(Resource):
    """A capacity-1 resource, named for readability at call sites."""

    def __init__(self, engine, name=None):
        super().__init__(engine, capacity=1, name=name or "mutex")


def hold(engine, resource, duration):
    """Process helper: acquire ``resource``, keep it ``duration`` ns,
    release, and return the time the hold began.

    Usage::

        start = yield from hold(engine, port, 400)
    """
    if duration < 0:
        raise SimulationError(f"negative hold duration {duration!r}")
    with resource.acquire() as req:
        if req.__class__ is Request:
            yield req
        start = engine.now
        yield engine.timeout(duration)
    return start
