"""Shared-resource primitives for the simulation engine.

Two primitives cover every contention point in the SSD models:

* :class:`Resource` — a counted server with a FIFO wait queue.  Flash
  channels, dies, controller cores, and NVMe submission slots are all
  Resources with different capacities.
* :class:`TokenBucket` — a counted pool of indistinguishable tokens with
  blocking ``get``/non-blocking ``put``.  Device write-buffer slots and
  free-space reservations are token buckets; exhaustion is how write stalls
  (and therefore foreground-GC bandwidth collapse) emerge in the model.

Both hand out grants strictly in request order, preserving the engine's
determinism guarantee.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator, Optional

from repro.errors import SimulationError
from repro.sim.engine import Environment, Event


class Request(Event):
    """The event granted to a :class:`Resource` user; release via the resource."""

    __slots__ = ("_released",)

    def __init__(self, env: Environment) -> None:
        super().__init__(env)
        self._released = False


class Resource:
    """A server with ``capacity`` concurrent slots and a FIFO queue.

    Typical usage inside a process::

        request = resource.request()
        yield request
        try:
            yield env.timeout(service_time)
        finally:
            resource.release(request)

    or, more compactly, ``yield from resource.serve(service_time)``.
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._in_service = 0
        self._waiting: Deque[Request] = deque()
        # Utilization accounting: busy slot-time integrated over the run.
        self._busy_slot_time = 0.0
        self._last_change = 0.0

    @property
    def in_service(self) -> int:
        """Number of grants currently outstanding."""
        return self._in_service

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def busy_fraction(self) -> float:
        """Mean fraction of slots busy since construction."""
        elapsed = self.env.now
        if elapsed <= 0.0:
            return 0.0
        self._account()
        return self._busy_slot_time / (elapsed * self.capacity)

    def busy_slot_us(self) -> float:
        """Integrated busy slot-time; diff two readings for an interval."""
        self._account()
        return self._busy_slot_time

    def _account(self) -> None:
        now = self.env._now
        self._busy_slot_time += self._in_service * (now - self._last_change)
        self._last_change = now

    def request(self) -> Request:
        """Ask for a slot; the returned event fires when the slot is granted."""
        grant = Request(self.env)
        if self._in_service < self.capacity and not self._waiting:
            # _account(), inlined: request/release bracket every flash op.
            now = self.env._now
            self._busy_slot_time += self._in_service * (now - self._last_change)
            self._last_change = now
            self._in_service += 1
            grant.succeed(self)
        else:
            self._waiting.append(grant)
        return grant

    def release(self, request: Request) -> None:
        """Return a previously granted slot, waking the next waiter if any."""
        if not request._triggered:
            raise SimulationError("cannot release a request that was never granted")
        if request._released:
            raise SimulationError("request was already released")
        request._released = True
        self._free_slot()

    def _free_slot(self) -> None:
        now = self.env._now
        self._busy_slot_time += self._in_service * (now - self._last_change)
        self._last_change = now
        if self._waiting:
            successor = self._waiting.popleft()
            successor.succeed(self)
        else:
            self._in_service -= 1

    def serve(self, duration: float) -> Generator[Event, None, None]:
        """Acquire a slot, hold it for ``duration``, then release it.

        Designed for ``yield from`` inside a process generator.  The grant
        and the service wait skip their events when each would be the very
        next pop (:meth:`Environment._idle_through`); the outcome is the same.
        """
        env = self.env
        if self._in_service < self.capacity and not self._waiting and env._idle_through(env._now):
            # request() without the grant event.
            self._account()
            self._in_service += 1
            try:
                end = env._now + duration
                if env._idle_through(end):
                    env._now = end
                else:
                    yield env.timeout(duration)
            finally:
                self._free_slot()
            return
        grant = self.request()
        yield grant
        try:
            yield env.timeout(duration)
        finally:
            self.release(grant)


class TokenBucket:
    """A pool of ``capacity`` tokens with blocking acquisition.

    ``get(n)`` returns an event that fires once ``n`` tokens are available
    and removes them; ``put(n)`` returns tokens immediately.  Waiters are
    served in strict FIFO order — a large request at the head of the queue
    blocks smaller requests behind it, which mirrors how an SSD write
    buffer admits requests in arrival order.
    """

    def __init__(
        self,
        env: Environment,
        capacity: int,
        initial: Optional[int] = None,
        name: str = "",
    ) -> None:
        if capacity < 1:
            raise SimulationError(f"token capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._available = capacity if initial is None else initial
        if not 0 <= self._available <= capacity:
            raise SimulationError(
                f"initial tokens {self._available} outside [0, {capacity}]"
            )
        self._waiting: Deque[tuple] = deque()  # (event, amount)

    @property
    def available(self) -> int:
        """Tokens currently free for taking."""
        return self._available

    @property
    def queue_length(self) -> int:
        """Number of blocked ``get`` requests."""
        return len(self._waiting)

    def get(self, amount: int = 1) -> Event:
        """Take ``amount`` tokens; the event fires when they are granted."""
        if amount < 1:
            raise SimulationError(f"token amount must be >= 1, got {amount}")
        if amount > self.capacity:
            raise SimulationError(
                f"requested {amount} tokens but capacity is {self.capacity}"
            )
        grant = Event(self.env)
        if not self._waiting and self._available >= amount:
            self._available -= amount
            grant.succeed(amount)
        else:
            self._waiting.append((grant, amount))
        return grant

    def put(self, amount: int = 1) -> None:
        """Return ``amount`` tokens and serve any waiters now satisfiable."""
        if amount < 1:
            raise SimulationError(f"token amount must be >= 1, got {amount}")
        self._available += amount
        if self._available > self.capacity:
            raise SimulationError(
                f"token bucket overflow: {self._available} > {self.capacity}"
            )
        while self._waiting and self._available >= self._waiting[0][1]:
            grant, need = self._waiting.popleft()
            self._available -= need
            grant.succeed(need)
