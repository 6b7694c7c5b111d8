"""Rendezvous and buffered channels.

The T Series is programmed in Occam, whose channels are *unbuffered*:
a sender blocks until a receiver is ready and vice versa, and the
transfer itself is atomic.  :class:`Channel` implements exactly that
semantics on the event kernel.  :class:`Store` is a buffered FIFO used
by hardware models (e.g. a DMA engine's request queue) where Occam
semantics would be too strict.
"""

from collections import deque

from repro.events.engine import Event, _PENDING

#: Allocate an Event without the ``type.__call__``/``__init__`` frames;
#: channel traffic creates one event per put/get and this construction
#: sits on the rendezvous hot path.
_new_event = Event.__new__


class Channel:
    """An Occam-style unbuffered, point-to-point channel.

    ``put(value)`` and ``get()`` each return an event.  A put event
    fires when a getter takes the value; a get event fires with the
    value when a putter provides one.  Both fire at the same simulated
    time (the rendezvous instant).

    Timing of the physical transfer is *not* modelled here — link and
    memory models add their own delays around the rendezvous.
    """

    def __init__(self, engine, name=None):
        self.engine = engine
        self.name = name or "chan"
        self._fire = engine._fire_urgent  # zero-delay URGENT dispatch
        self._putters = deque()  # (put_event, value)
        self._getters = deque()  # get_event
        self._watchers = []  # one-shot arrival notifications (for ALT)

    def put(self, value):
        """Offer ``value``; the returned event fires when it is taken."""
        put_event = _new_event(Event)
        put_event.engine = self.engine
        put_event.callbacks = []
        put_event._value = _PENDING
        put_event._ok = None
        put_event._defused = False
        if self._getters:
            get_event = self._getters.popleft()
            get_event._ok = True
            get_event._value = value
            self._fire(get_event)
            put_event._ok = True
            put_event._value = None
            self._fire(put_event)
        else:
            self._putters.append((put_event, value))
            if self._watchers:
                watchers, self._watchers = self._watchers, []
                for watcher in watchers:
                    watcher._ok = True
                    watcher._value = self
                    self._fire(watcher)
        return put_event

    def get(self):
        """Request a value; the returned event fires with it."""
        get_event = _new_event(Event)
        get_event.engine = self.engine
        get_event.callbacks = []
        get_event._value = _PENDING
        get_event._ok = None
        get_event._defused = False
        if self._putters:
            put_event, value = self._putters.popleft()
            put_event._ok = True
            put_event._value = None
            self._fire(put_event)
            get_event._ok = True
            get_event._value = value
            self._fire(get_event)
        else:
            self._getters.append(get_event)
        return get_event

    def watch(self):
        """An event that fires when a sender arrives, *without*
        consuming the message.

        This is the primitive under Occam's ALT: an alternation watches
        several channels, and only the selected branch actually gets.
        If a sender is already waiting, the watch fires immediately.
        """
        event = Event(self.engine)
        if self._putters:
            event._ok = True
            event._value = self
            self._fire(event)
        else:
            self._watchers.append(event)
        return event

    @property
    def ready(self):
        """True if a put is pending (a get would complete immediately)."""
        return bool(self._putters)

    @property
    def awaited(self):
        """True if a get is pending (a put would complete immediately)."""
        return bool(self._getters)

    def __repr__(self):
        return (
            f"<Channel {self.name!r} putters={len(self._putters)} "
            f"getters={len(self._getters)}>"
        )


class Store:
    """A buffered FIFO with optional capacity.

    ``put`` blocks only when the store is full; ``get`` blocks only
    when it is empty.  Used for hardware queues (DMA descriptors,
    link-adapter buffers) rather than Occam channels.
    """

    def __init__(self, engine, capacity=None, name=None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.engine = engine
        self.capacity = capacity
        self.name = name or "store"
        self._fire = engine._fire_urgent
        self._items = deque()
        self._putters = deque()  # (event, value)
        self._getters = deque()

    def __len__(self):
        return len(self._items)

    @property
    def items(self):
        """A snapshot tuple of buffered items (oldest first)."""
        return tuple(self._items)

    def put(self, value):
        """Enqueue ``value``; the event fires once buffered."""
        event = _new_event(Event)
        event.engine = self.engine
        event.callbacks = []
        event._value = _PENDING
        event._ok = None
        event._defused = False
        self._putters.append((event, value))
        self._dispatch()
        return event

    def get(self):
        """Dequeue the oldest value; the event fires with it."""
        event = _new_event(Event)
        event.engine = self.engine
        event.callbacks = []
        event._value = _PENDING
        event._ok = None
        event._defused = False
        self._getters.append(event)
        self._dispatch()
        return event

    def _dispatch(self):
        progressed = True
        while progressed:
            progressed = False
            while self._putters and (
                self.capacity is None or len(self._items) < self.capacity
            ):
                event, value = self._putters.popleft()
                self._items.append(value)
                event._ok = True
                event._value = None
                self._fire(event)
                progressed = True
            while self._getters and self._items:
                event = self._getters.popleft()
                event._ok = True
                event._value = self._items.popleft()
                self._fire(event)
                progressed = True

    def __repr__(self):
        return f"<Store {self.name!r} len={len(self._items)}>"
