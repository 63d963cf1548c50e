"""Broadcast signal: a re-armable condition variable for processes.

A :class:`Signal` lets any number of processes wait for "something
changed" notifications — the flusher waits for new dirty data, the GC
worker waits for low-space announcements.  Unlike an :class:`Event`, a
signal can be notified repeatedly; each notification wakes everyone who
was waiting at that moment.

All waits armed since the last notification share one event, so a
notification is one pop running their callbacks in arming order — the
order, back to back, in which one event per waiter would have popped.
Callers yield the event :meth:`Signal.wait` returns at once, so arming
order is callback order.  A timed wait resumes through a wake event
that the notification or its timer triggers, whichever comes first;
timed waits with one deadline share a timer and wake event when their
separate ones would have popped back to back (DESIGN.md §12).
"""

from __future__ import annotations

from typing import Optional

from repro.sim.engine import Environment, Event, Timeout


class _TimedWait:
    """Timed waits armed together: one timer and one wake event."""

    __slots__ = ("signal", "event", "timer", "wake", "count", "notified")

    def __init__(
        self, signal: "Signal", event: Event, timer: Timeout, wake: Event
    ) -> None:
        self.signal = signal
        self.event = event
        self.timer = timer
        self.wake = wake
        self.count = 1
        # Bound once: Signal.wait finds the group by identity as the
        # signal event's last callback.
        self.notified = self._notified
        event.callbacks.append(self.notified)
        timer.callbacks.append(self._timed_out)

    def _notified(self, _event: Event) -> None:
        self.timer.callbacks = []
        self.wake.succeed(None)

    def _timed_out(self, _event: Event) -> None:
        event = self.event
        if not event._triggered:
            self.signal._waiting -= self.count
        # A notification at this instant may already have triggered the
        # signal event; it has not popped (it would have cleared the timer).
        event.callbacks.remove(self.notified)
        self.wake.succeed(None)


class Signal:
    """Re-armable broadcast wakeup (see the module docstring)."""

    def __init__(self, env: Environment, name: str = "") -> None:
        self.env = env
        self.name = name
        #: The event every current waiter hangs on; None until a wait.
        self._event: Optional[Event] = None
        #: The last group of timed waits armed, the only one joinable.
        self._group: Optional[_TimedWait] = None
        self._waiting = 0
        self._notify_count = 0

    @property
    def notify_count(self) -> int:
        """Number of notifications delivered (diagnostic)."""
        return self._notify_count

    @property
    def waiting(self) -> int:
        """Waits not yet woken or timed out.

        A plain wait that an ``any_of`` abandoned still counts until the
        next notification; use ``wait(timeout)`` for a timed wait.
        """
        return self._waiting

    def wait(self, timeout: Optional[float] = None) -> Event:
        """Return an event that fires at the next :meth:`notify_all`.

        With ``timeout``, the event fires at the notification or after
        ``timeout`` microseconds, whichever comes first.
        """
        env = self.env
        event = self._event
        if event is None:
            event = self._event = Event(env)
        if timeout is not None:
            group = self._group
            if (
                group is not None
                and event.callbacks
                and event.callbacks[-1] is group.notified
                and group.timer._seq == env._sequence - 1
                and group.timer._fire_at == env._now + timeout
            ):
                group.count += 1
            else:
                group = self._group = _TimedWait(
                    self, event, Timeout(env, timeout), Event(env)
                )
            event = group.wake
        self._waiting += 1
        return event

    def notify_all(self) -> None:
        """Wake every process currently waiting."""
        self._notify_count += 1
        event = self._event
        if event is not None and self._waiting:
            self._event = None
            self._waiting = 0
            event.succeed(None)
