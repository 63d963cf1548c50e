"""A small deterministic discrete-event simulation engine.

The engine follows the familiar generator-coroutine style of SimPy: model
code is written as generator functions that ``yield`` events (timeouts,
resource requests, other processes), and the :class:`Environment` advances a
virtual clock from event to event.

Only the features the SSD models need are implemented, which keeps the
engine small enough to reason about and test exhaustively:

* :class:`Event` — one-shot triggerable with callbacks and a value.
* :class:`Timeout` — an event scheduled a fixed delay in the future.
* :class:`Process` — drives a generator; is itself an event that triggers
  when the generator returns, carrying the generator's return value.
* :class:`AnyOf` / :class:`AllOf` — composite events.

Determinism: events scheduled for the same timestamp fire in scheduling
order (a monotonically increasing sequence number breaks ties), so repeated
runs of the same model produce identical traces.

Event queue
-----------
The queue is a calendar/bucket structure rather than a single binary heap,
tuned to the two populations of events an SSD model produces:

* **Immediate events** — an event triggered via :meth:`Event.succeed` (a
  resource grant, a process completion, a signal wakeup) always fires at
  the *current* time.  Because the clock never advances while an unfired
  immediate event exists, these are already in fire order (their sequence
  numbers increase monotonically) and live in a plain FIFO deque — no
  heap operations, no tuple packing.  Contended resource grants, process
  completions and signal wakeups take this path.
* **Future events** — timeouts with a strictly positive delay are placed
  in calendar buckets of :attr:`Environment.bucket_us` width (default
  sized to the NAND timing quanta: transfers are a few us, tR ~60 us,
  tPROG ~700 us, tBERS ~3000 us).  Insertion into a far bucket is an
  O(1) list append; only the *near* bucket — the one currently being
  drained — is kept as a heap, so heap traffic is confined to a handful
  of co-scheduled entries instead of the whole horizon.

The fire order is exactly the total order ``(fire_time, sequence)`` the
previous single-heap implementation used, so the refactor is observably
identical: same event interleaving, same timestamps, same figures to the
byte.

In-place service
----------------
:meth:`Environment._idle_through` tells a process when an event it would
queue for time ``t`` is certain to be the very next pop;
:meth:`repro.sim.resources.Resource.serve` then grants a free slot and
waits out its service time in place.  Skipping such an event drops one
sequence number and leaves the ``(time, sequence)`` order of all others
unchanged, but it is no pop: :attr:`Environment.processed_events` and the
pop observer see fewer events.

Example
-------
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(5.0)
...     return "done at %.0f" % env.now
>>> proc = env.process(hello(env))
>>> env.run()
>>> proc.value
'done at 5'
"""

from __future__ import annotations

import sys
from collections import deque
from heapq import heapify, heappop, heappush
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.errors import SimulationError

#: Type alias for model coroutines driven by :class:`Process`.
ProcessGenerator = Generator["Event", Any, Any]

#: Entry in the calendar's future-event buckets.
_QueueEntry = Tuple[float, int, "Event"]

_INF = float("inf")
#: Bound of a run without an end time: the largest finite clock value.
_FAR_FUTURE = sys.float_info.max

#: Event-pop observer installed by the nondeterminism sanitizer
#: (:mod:`repro.lint.sanitizer`): called as ``observer(now, event)`` for
#: every event :meth:`Environment._step` dequeues, in fire order.  None
#: in normal runs — the per-event cost is one global load and a None
#: check, which keeps the hot path allocation-free.
_pop_observer: Optional[Callable[[float, "Event"], None]] = None


def set_pop_observer(
    observer: Optional[Callable[[float, "Event"], None]],
) -> None:
    """Install (or clear, with ``None``) the event-pop observer.

    Observers see every pop across *all* environments in the process;
    the sanitizer relies on that to fingerprint a whole figure run
    without threading a handle through model code.
    """
    global _pop_observer
    _pop_observer = observer


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *untriggered*.  Calling :meth:`succeed` (or
    :meth:`fail`) triggers it, records its value, and schedules its
    callbacks to run at the current simulation time.  Waiting processes are
    resumed through those callbacks.
    """

    __slots__ = (
        "env", "callbacks", "_triggered", "_value", "_failed", "_processed",
        "_fire_at", "_seq",
    )

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables invoked with this event when it fires.
        self.callbacks: List[Callable[["Event"], None]] = []
        self._triggered = False
        self._value: Any = None
        self._failed = False
        # True once the environment has drained this event's callbacks; a
        # process yielding an already-processed event must resume via a
        # relay event rather than by appending a callback nobody will run.
        self._processed = False
        #: Queue bookkeeping, written by the environment at schedule time.
        self._fire_at = 0.0
        self._seq = 0

    @property
    def triggered(self) -> bool:
        """Whether the event has fired (successfully or not)."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether the environment has already run this event's callbacks."""
        return self._processed

    @property
    def failed(self) -> bool:
        """Whether the event fired through :meth:`fail`."""
        return self._failed

    @property
    def value(self) -> Any:
        """The value the event fired with (or the exception, if failed)."""
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self._triggered:
            raise SimulationError("event has already been triggered")
        self._triggered = True
        self._value = value
        env = self.env
        self._fire_at = env._now
        self._seq = env._sequence
        env._sequence += 1
        env._immediate.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception, re-raised in waiters."""
        if self._triggered:
            raise SimulationError("event has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._failed = True
        self._value = exception
        env = self.env
        self._fire_at = env._now
        self._seq = env._sequence
        env._sequence += 1
        env._immediate.append(self)
        return self


class Timeout(Event):
    """An event that fires automatically ``delay`` time units from now."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not 0 <= delay < _INF:
            raise SimulationError(f"timeout delay must be finite and >= 0, got {delay}")
        # Flattened Event.__init__: a timeout is born triggered and goes
        # straight into the queue, so the generic succeed() path (and its
        # already-triggered check) never applies.
        self.env = env
        self.callbacks = []
        self._triggered = True
        self._value = value
        self._failed = False
        self._processed = False
        self.delay = delay
        env._schedule(self, delay)


class Process(Event):
    """Runs a generator coroutine; triggers when the generator returns.

    The process resumes its generator every time the event the generator
    yielded fires.  Successful events send their value into the generator;
    failed events throw their exception into it, so model code can use
    ordinary ``try/except`` around ``yield``.
    """

    __slots__ = ("_generator", "name")

    def __init__(
        self, env: "Environment", generator: ProcessGenerator, name: str = ""
    ) -> None:
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise SimulationError(
                "process() requires a generator; did you forget to call "
                "the generator function?"
            )
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off the generator at the current time via an immediate event.
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed(None)

    @property
    def is_alive(self) -> bool:
        """Whether the generator has not yet finished."""
        return not self._triggered

    def _resume(self, event: Event) -> None:
        """Advance the generator with the fired event's outcome."""
        try:
            if event._failed:
                target = self._generator.throw(event._value)
            else:
                target = self._generator.send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:  # model raised: propagate to waiters
            if not self.callbacks:
                # Nobody is waiting (e.g. a background worker): surface the
                # failure loudly instead of swallowing it.
                raise
            self.fail(exc)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes may "
                "only yield Event instances"
            )
        if target.env is not self.env:
            raise SimulationError("cannot wait on an event from another Environment")
        if target._processed:
            # The event fired in the past and its callbacks already ran;
            # resume through a fresh relay event so we still wake up.
            relay = Event(self.env)
            relay.callbacks.append(self._resume)
            if target._failed:
                relay.fail(target._value)
            else:
                relay.succeed(target._value)
        else:
            target.callbacks.append(self._resume)


class Condition(Event):
    """Base for composite events over a fixed set of child events."""

    __slots__ = ("events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events: Tuple[Event, ...] = tuple(events)
        for child in self.events:
            if child.env is not env:
                raise SimulationError(
                    "condition mixes events from different environments"
                )
        self._pending = len(self.events)
        if not self.events:
            self.succeed([])
            return
        for child in self.events:
            if child._processed:
                # Callbacks already drained: deliver the outcome directly.
                self._child_fired(child)
            else:
                child.callbacks.append(self._child_fired)

    def _child_fired(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(Condition):
    """Fires when every child event has fired; value is the list of values."""

    __slots__ = ()

    def _child_fired(self, event: Event) -> None:
        if self._triggered:
            return
        if event._failed:
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([child._value for child in self.events])


class AnyOf(Condition):
    """Fires when the first child event fires; value is that event's value."""

    __slots__ = ()

    def _child_fired(self, event: Event) -> None:
        if self._triggered:
            return
        if event._failed:
            self.fail(event._value)
            return
        self.succeed(event._value)


class Environment:
    """Holds the event queue and the simulation clock.

    The clock starts at 0.0 microseconds and only moves when :meth:`run`
    processes events.  All model components sharing an environment observe
    the same clock.

    ``bucket_us`` sets the calendar-bucket width for future events; the
    default suits the NAND timing quanta (see the module docstring).  Any
    positive width produces identical simulation output — it only shifts
    work between bucket appends and near-heap operations.
    """

    def __init__(self, bucket_us: float = 64.0) -> None:
        if bucket_us <= 0:
            raise SimulationError(f"bucket_us must be > 0, got {bucket_us}")
        self._now = 0.0
        self._sequence = 0
        self._processed_events = 0
        self.bucket_us = bucket_us
        self._bucket_inv = 1.0 / bucket_us
        #: Events triggered at the current time, already in fire order.
        self._immediate: Deque[Event] = deque()
        #: The earliest calendar bucket, kept as a heap while draining.
        self._near: List[_QueueEntry] = []
        self._near_key = -1
        #: Far calendar buckets: unsorted appends, sorted on activation.
        self._far: Dict[int, List[_QueueEntry]] = {}
        self._far_keys: List[int] = []
        #: End time of the current run; nothing may advance the clock past it.
        self._until = -_INF
        #: Whether callbacks of the event being processed are still to run.
        self._shared = False

    @property
    def now(self) -> float:
        """Current simulation time in microseconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Total number of events processed so far (diagnostic)."""
        return self._processed_events

    @property
    def queued_events(self) -> int:
        """Events currently awaiting processing (diagnostic)."""
        return (
            len(self._immediate)
            + len(self._near)
            + sum(len(bucket) for bucket in self._far.values())
        )

    # -- event construction helpers ------------------------------------

    def event(self) -> Event:
        """Create an untriggered event bound to this environment."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` microseconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new process driving ``generator``; returns its event."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event that fires once all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event that fires when any of ``events`` fires."""
        return AnyOf(self, events)

    # -- scheduling internals -------------------------------------------

    def _schedule(self, event: Event, delay: float) -> None:
        """Queue ``event`` to fire ``delay`` microseconds from now."""
        seq = self._sequence
        self._sequence = seq + 1
        event._seq = seq
        if delay == 0.0:
            # Zero-delay timeouts join the immediate FIFO: same
            # (time, seq) order, no calendar traffic.
            event._fire_at = self._now
            self._immediate.append(event)
            return
        fire_at = self._now + delay
        event._fire_at = fire_at
        key = int(fire_at * self._bucket_inv)
        if key <= self._near_key:
            # Lands inside (or before) the bucket being drained: merge
            # into the near heap, which handles any order.  The packed
            # tuple is deliberate — it doubles as the heap's C-speed
            # comparison key, beating Event.__lt__ dispatch, and far
            # buckets reuse the same entries when they activate.
            heappush(self._near, (fire_at, seq, event))  # simlint: disable=SIM007
        else:
            bucket = self._far.get(key)
            if bucket is None:
                self._far[key] = [(fire_at, seq, event)]
                heappush(self._far_keys, key)
            else:
                bucket.append((fire_at, seq, event))

    def _activate_next_bucket(self) -> bool:
        """Move the earliest far bucket into the near heap; False if none."""
        if not self._far_keys:
            return False
        key = heappop(self._far_keys)
        bucket = self._far.pop(key)
        heapify(bucket)
        self._near = bucket
        self._near_key = key
        return True

    def _idle_through(self, t: float) -> bool:
        """Whether an event queued now for time ``t`` would be the next pop.

        True when ``now <= t <= until`` of the current run, nothing is
        immediate, no callback of the event being processed is still to
        run after the current one, and every queued entry fires after
        ``t`` (one at ``t`` has the lower sequence number, so it would
        fire first).
        """
        if self._immediate or self._shared or not self._now <= t <= self._until:
            return False
        near = self._near
        if near:
            return near[0][0] > t
        # Far entries sit in buckets keyed by floor(fire_at / width); the
        # floor is monotone, so a larger key means a later fire time.
        far_keys = self._far_keys
        return not far_keys or far_keys[0] > int(t * self._bucket_inv)

    def _peek_time(self) -> Optional[float]:
        """Fire time of the next event, or ``None`` when the queue is empty."""
        if self._immediate:
            return self._now
        if not self._near and not self._activate_next_bucket():
            return None
        return self._near[0][0]

    def _step(self) -> None:
        """Process exactly one event from the queue."""
        immediate = self._immediate
        near = self._near
        if not near and self._activate_next_bucket():
            near = self._near
        if immediate:
            if near:
                fire_at, seq, _ = near[0]
                # A future event dequeues first only when it is due at
                # the current instant with an earlier sequence number —
                # exactly the (time, seq) order of a single heap.
                if fire_at <= self._now and seq < immediate[0]._seq:
                    event = heappop(near)[2]
                else:
                    event = immediate.popleft()
            else:
                event = immediate.popleft()
        else:
            fire_at, _, event = heappop(near)
            self._now = fire_at
        if _pop_observer is not None:
            _pop_observer(self._now, event)
        callbacks, event.callbacks = event.callbacks, []
        event._processed = True
        self._processed_events += 1
        if callbacks:
            # _shared: callbacks of this event are still to run after the
            # current one, so nothing may be served in place ahead of them.
            last = callbacks.pop()
            if callbacks:
                self._shared = True
                for callback in callbacks:
                    callback(event)
            self._shared = False
            last(event)

    # -- execution -------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Process events until the queue empties or the clock passes ``until``.

        ``until`` is an absolute simulation time.  When provided, the clock
        is advanced exactly to ``until`` even if the last processed event
        fired earlier, so bandwidth windows measured against ``env.now``
        have the expected width.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until {until}; clock is already at {self._now}"
            )
        self._until = _FAR_FUTURE if until is None else until
        step = self._step
        peek = self._peek_time
        while True:
            next_at = peek()
            if next_at is None:
                break
            if until is not None and next_at > until:
                break
            step()
        if until is not None:
            self._now = max(self._now, until)

    def run_until_complete(self, event: Event, limit: float = float("inf")) -> Any:
        """Run until ``event`` fires; return its value (raise if it failed).

        ``limit`` bounds the simulated time as a safety net against model
        deadlocks; exceeding it raises :class:`SimulationError`.
        """
        # In-place service stops at the limit: the event path pops one
        # event past it, then the check below raises.
        self._until = min(limit, _FAR_FUTURE)
        step = self._step
        immediate = self._immediate  # stable deque; _near is reassigned
        while not event._triggered:
            # Inlined _peek_time emptiness check: this loop brackets every
            # event of every measured phase, so one call per step matters.
            if (
                not immediate
                and not self._near
                and not self._activate_next_bucket()
            ):
                raise SimulationError(
                    "event queue drained before the awaited event fired "
                    "(model deadlock?)"
                )
            if self._now > limit:
                raise SimulationError(f"simulation exceeded time limit {limit}")
            step()
        if event._failed:
            raise event._value
        return event._value
