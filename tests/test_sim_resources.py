"""Unit tests for Resource, TokenBucket, and Signal."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Environment
from repro.sim.resources import Resource, TokenBucket
from repro.sim.signal import Signal


# -- Resource ----------------------------------------------------------------


def test_resource_serializes_at_capacity_one():
    env = Environment()
    resource = Resource(env, 1)
    finish_times = []

    def worker(env):
        yield from resource.serve(10.0)
        finish_times.append(env.now)

    for _ in range(3):
        env.process(worker(env))
    env.run()
    assert finish_times == [10.0, 20.0, 30.0]


def test_resource_parallel_at_higher_capacity():
    env = Environment()
    resource = Resource(env, 3)
    finish_times = []

    def worker(env):
        yield from resource.serve(10.0)
        finish_times.append(env.now)

    for _ in range(3):
        env.process(worker(env))
    env.run()
    assert finish_times == [10.0, 10.0, 10.0]


def test_resource_fifo_ordering():
    env = Environment()
    resource = Resource(env, 1)
    order = []

    def worker(env, tag):
        yield from resource.serve(1.0)
        order.append(tag)

    for tag in range(5):
        env.process(worker(env, tag))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_resource_rejects_zero_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, 0)


def test_release_of_ungranted_request_rejected():
    env = Environment()
    resource = Resource(env, 1)
    first = resource.request()
    second = resource.request()  # queued, not granted
    assert first.triggered
    assert not second.triggered
    with pytest.raises(SimulationError):
        resource.release(second)


def test_second_release_rejected_without_waiters():
    env = Environment()
    resource = Resource(env, 1)
    grant = resource.request()
    resource.release(grant)
    with pytest.raises(SimulationError):
        resource.release(grant)
    assert resource.in_service == 0


def test_second_release_does_not_grant_a_second_waiter():
    env = Environment()
    resource = Resource(env, 1)
    grant = resource.request()
    first = resource.request()
    second = resource.request()
    resource.release(grant)
    with pytest.raises(SimulationError):
        resource.release(grant)
    assert first.triggered
    assert not second.triggered
    assert resource.in_service == 1
    assert resource.queue_length == 1


def test_quiet_serve_queues_no_events():
    env = Environment()
    resource = Resource(env, 1)

    def server(env):
        yield from resource.serve(3.0)
        return env.now

    process = env.process(server(env))
    env.run()
    assert process.value == 3.0
    # Only the bootstrap and the completion pop: the grant and the
    # service wait were resolved in place.
    assert env.processed_events == 2
    assert resource.busy_slot_us() == 3.0


def test_serve_with_event_due_same_instant_takes_event_path():
    env = Environment()
    resource = Resource(env, 1)
    order = []

    def server(env):
        yield env.timeout(5.0)
        yield from resource.serve(3.0)
        order.append(("served", env.now))

    def bystander(env):
        yield env.timeout(5.0)
        order.append(("bystander", env.now))

    env.process(server(env))
    env.process(bystander(env))
    env.run()
    assert order == [("bystander", 5.0), ("served", 8.0)]
    # Two bootstraps, two 5 us timeouts, two completions, plus the grant
    # and the service timeout the bystander's pending timeout forced.
    assert env.processed_events == 8


def test_serve_ending_past_a_far_bucket_event_takes_event_path():
    # 2 us buckets: when the server starts at t=1 its own bucket is
    # drained, and the bystander's t=2 timeout sits in the bucket holding
    # the service end (t=3), so only the bucket key can rule it out.
    env = Environment(bucket_us=2.0)
    resource = Resource(env, 1)
    order = []

    def server(env):
        yield env.timeout(1.0)
        yield from resource.serve(2.0)
        order.append(("served", env.now))

    def bystander(env):
        yield env.timeout(2.0)
        order.append(("bystander", env.now))

    env.process(server(env))
    env.process(bystander(env))
    env.run()
    assert order == [("bystander", 2.0), ("served", 3.0)]
    # The grant is taken in place; the service wait still needs its event.
    assert env.processed_events == 7


def test_serve_crossing_until_finishes_on_next_run():
    env = Environment()
    resource = Resource(env, 1)

    def server(env):
        yield from resource.serve(10.0)
        return env.now

    process = env.process(server(env))
    env.run(until=4.0)
    assert env.now == 4.0
    assert process.is_alive
    assert resource.in_service == 1
    env.run()
    assert process.value == 10.0
    assert env.now == 10.0
    assert resource.in_service == 0
    assert resource.busy_slot_us() == 10.0


@pytest.mark.parametrize("duration", [float("nan"), float("inf"), -1.0])
def test_serve_rejects_bad_duration_without_moving_clock(duration):
    env = Environment()
    resource = Resource(env, 1)

    def server(env):
        yield from resource.serve(duration)

    process = env.process(server(env))
    with pytest.raises(SimulationError):
        env.run_until_complete(process)
    assert env.now == 0.0
    assert resource.in_service == 0


def test_busy_fraction_tracks_utilization():
    env = Environment()
    resource = Resource(env, 1)

    def worker(env):
        yield from resource.serve(50.0)
        yield env.timeout(50.0)

    env.process(worker(env))
    env.run()
    assert resource.busy_fraction() == pytest.approx(0.5)


def test_queue_length_visible_while_waiting():
    env = Environment()
    resource = Resource(env, 1)

    def holder(env):
        yield from resource.serve(100.0)

    def observer(env):
        yield env.timeout(1.0)
        return resource.queue_length

    env.process(holder(env))
    env.process(holder(env))
    env.process(holder(env))
    probe = env.process(observer(env))
    env.run()
    assert probe.value == 2


# -- TokenBucket ---------------------------------------------------------------


def test_token_bucket_grants_when_available():
    env = Environment()
    bucket = TokenBucket(env, 10)
    grant = bucket.get(4)
    assert grant.triggered
    assert bucket.available == 6


def test_token_bucket_blocks_until_put():
    env = Environment()
    bucket = TokenBucket(env, 4, initial=0)
    progress = []

    def taker(env):
        yield bucket.get(3)
        progress.append(env.now)

    def giver(env):
        yield env.timeout(25.0)
        bucket.put(3)

    env.process(taker(env))
    env.process(giver(env))
    env.run()
    assert progress == [25.0]


def test_token_bucket_fifo_head_blocks_smaller_requests():
    env = Environment()
    bucket = TokenBucket(env, 10, initial=0)
    order = []

    def taker(env, amount, tag):
        yield bucket.get(amount)
        order.append(tag)

    env.process(taker(env, 8, "big"))
    env.process(taker(env, 1, "small"))

    def feed(env):
        yield env.timeout(1.0)
        bucket.put(1)  # not enough for the head request
        yield env.timeout(1.0)
        bucket.put(8)  # head takes 8, leaving 1 for the small request

    env.process(feed(env))
    env.run()
    assert order == ["big", "small"]


def test_token_bucket_overflow_rejected():
    env = Environment()
    bucket = TokenBucket(env, 4)
    with pytest.raises(SimulationError):
        bucket.put(1)


def test_token_bucket_rejects_oversized_request():
    env = Environment()
    bucket = TokenBucket(env, 4)
    with pytest.raises(SimulationError):
        bucket.get(5)


def test_token_bucket_initial_bounds_checked():
    env = Environment()
    with pytest.raises(SimulationError):
        TokenBucket(env, 4, initial=9)


def test_release_hands_slot_to_earliest_waiter():
    """A released slot passes directly to the head of the wait queue.

    ``in_service`` must not dip during the handoff: the slot never
    returns to the free pool when a waiter is parked, so the busy-time
    integral charges the handoff interval to the successor.
    """
    env = Environment()
    resource = Resource(env, 1)
    holder = resource.request()
    assert holder.triggered
    waiters = [resource.request() for _ in range(3)]
    assert resource.in_service == 1
    assert resource.queue_length == 3

    resource.release(holder)
    assert waiters[0].triggered
    assert not waiters[1].triggered
    assert resource.in_service == 1  # slot moved, never freed
    assert resource.queue_length == 2

    resource.release(waiters[0])
    resource.release(waiters[1])
    resource.release(waiters[2])
    assert resource.in_service == 0
    assert resource.queue_length == 0


def test_busy_accounting_exact_across_handoffs():
    """Back-to-back serves through a handoff integrate to the exact total."""
    env = Environment()
    resource = Resource(env, 1)

    def worker(env):
        yield from resource.serve(10.0)

    for _ in range(4):
        env.process(worker(env))
    env.process(worker(env))

    def idle_tail(env):
        yield env.timeout(100.0)

    env.process(idle_tail(env))
    env.run()
    # 5 serves x 10us busy over a 100us window, no double counting at
    # the grant handoff instants.
    assert resource.busy_slot_us() == pytest.approx(50.0)
    assert resource.busy_fraction() == pytest.approx(0.5)


# -- Signal ----------------------------------------------------------------------


def test_signal_wakes_all_waiters():
    env = Environment()
    signal = Signal(env)
    woken = []

    def waiter(env, tag):
        yield signal.wait()
        woken.append((tag, env.now))

    env.process(waiter(env, "a"))
    env.process(waiter(env, "b"))

    def notifier(env):
        yield env.timeout(10.0)
        signal.notify_all()

    env.process(notifier(env))
    env.run()
    assert woken == [("a", 10.0), ("b", 10.0)]


def test_signal_is_rearmable():
    env = Environment()
    signal = Signal(env)
    wake_times = []

    def waiter(env):
        for _ in range(2):
            yield signal.wait()
            wake_times.append(env.now)

    def notifier(env):
        yield env.timeout(5.0)
        signal.notify_all()
        yield env.timeout(5.0)
        signal.notify_all()

    env.process(waiter(env))
    env.process(notifier(env))
    env.run()
    assert wake_times == [5.0, 10.0]
    assert signal.notify_count == 2


def test_signal_notify_without_waiters_is_safe():
    env = Environment()
    signal = Signal(env)
    signal.notify_all()
    assert signal.waiting == 0


def test_signal_wake_order_matches_wait_order():
    """Waiters wake in the order they parked, every run, regardless of
    the delays that got them there — the determinism the flush/GC
    workers rely on when several wake to contend for the same blocks."""
    env = Environment()
    signal = Signal(env)
    woken = []

    def waiter(env, tag, delay):
        yield env.timeout(delay)
        yield signal.wait()
        woken.append(tag)

    # Parking order (by delay) deliberately differs from creation order.
    env.process(waiter(env, "late", 3.0))
    env.process(waiter(env, "early", 1.0))
    env.process(waiter(env, "middle", 2.0))

    def notifier(env):
        yield env.timeout(10.0)
        signal.notify_all()

    env.process(notifier(env))
    env.run()
    assert woken == ["early", "middle", "late"]


def test_signal_waiter_parked_during_notify_waits_for_next_round():
    """A wait() issued while a notification is being delivered arms for
    the *next* notify_all — notifications are edges, not levels."""
    env = Environment()
    signal = Signal(env)
    wake_times = []

    def chained(env):
        yield signal.wait()
        # Re-arm immediately upon waking, same timestamp as the notify.
        yield signal.wait()
        wake_times.append(env.now)

    def notifier(env):
        yield env.timeout(5.0)
        signal.notify_all()
        yield env.timeout(5.0)
        signal.notify_all()

    env.process(chained(env))
    env.process(notifier(env))
    env.run()
    assert wake_times == [10.0]
    assert signal.waiting == 0


def test_signal_waiting_counts_waits_not_woken_or_timed_out():
    env = Environment()
    signal = Signal(env)
    seen = []

    def plain(env):
        yield signal.wait()

    def timed(env, timeout):
        yield signal.wait(timeout)

    def observer(env):
        seen.append(signal.waiting)
        yield env.timeout(1.0)
        seen.append(signal.waiting)  # the 1.0 wait timed out
        yield env.timeout(1.0)
        seen.append(signal.waiting)  # so did the 2.0 wait
        signal.notify_all()
        seen.append(signal.waiting)

    env.process(plain(env))
    env.process(timed(env, 1.0))
    env.process(timed(env, 2.0))
    env.process(timed(env, 5.0))
    env.run(until=0.5)
    env.process(observer(env))
    env.run()
    assert seen == [4, 3, 2, 0]


def test_signal_timed_wait_fires_at_first_of_notify_and_timeout():
    env = Environment()
    signal = Signal(env)
    woken = []

    def timed(env, tag, timeout):
        value = yield signal.wait(timeout)
        woken.append((tag, env.now, value))

    def notifier(env):
        yield env.timeout(3.0)
        signal.notify_all()

    env.process(timed(env, "short", 1.0))
    env.process(timed(env, "long", 10.0))
    env.process(notifier(env))
    env.run()
    assert woken == [("short", 1.0, None), ("long", 3.0, None)]
    assert env.now == 10.0  # the cleared timer still pops, doing nothing


def test_signal_timer_due_with_a_notify_wins():
    """A notify at the timer's instant, from an event queued before the
    timer, still loses: the timer fires first in (time, sequence) order,
    exactly as it does for ``any_of([wait(), timeout()])``."""
    env = Environment()
    signal = Signal(env)
    order = []
    env.timeout(2.0).callbacks.append(lambda _event: signal.notify_all())

    def timed(env):
        yield signal.wait(2.0)
        order.append(("timed", signal.waiting))

    def plain(env):
        yield signal.wait()
        order.append(("plain", signal.waiting))

    env.process(timed(env))
    env.process(plain(env))
    env.run()
    assert order == [("plain", 0), ("timed", 0)]


def test_signal_notify_is_one_pop_for_all_plain_waiters():
    env = Environment()
    signal = Signal(env)

    def plain(env):
        yield signal.wait()

    for _ in range(5):
        env.process(plain(env))
    env.run()
    before = env.processed_events
    signal.notify_all()
    env.run()
    # One signal pop resumes all five; their completions pop once each.
    assert env.processed_events - before == 1 + 5


def test_signal_timed_waits_armed_together_share_one_timer():
    env = Environment()
    signal = Signal(env)
    gate = env.timeout(1.0)
    woken = []

    def timed(env, tag, timeout):
        yield gate
        yield signal.wait(timeout)
        woken.append((tag, env.now))

    for tag in "abc":
        env.process(timed(env, tag, 2.0))
    env.process(timed(env, "d", 4.0))
    env.run()
    assert woken == [("a", 3.0), ("b", 3.0), ("c", 3.0), ("d", 5.0)]
    # 4 bootstraps + gate + 2 timers + 2 wake events + 4 completions.
    assert env.processed_events == 4 + 1 + 2 + 2 + 4


def test_signal_timed_waits_split_by_a_bystander_or_a_plain_wait():
    """Waits armed at one instant with one deadline still get their own
    timer when another event was scheduled, or another wait armed, in
    between; they wake at the same time in arming order either way."""
    env = Environment()
    signal = Signal(env)
    gate = env.timeout(1.0)
    woken = []

    def timed(env, tag):
        yield gate
        yield signal.wait(2.0)
        woken.append((tag, env.now))

    def bystander(env):
        yield gate
        env.timeout(5.0)

    def plain(env):
        yield gate
        yield signal.wait()

    env.process(timed(env, "a"))
    env.process(bystander(env))
    env.process(timed(env, "b"))
    env.process(plain(env))
    env.process(timed(env, "c"))
    env.run()
    assert woken == [("a", 3.0), ("b", 3.0), ("c", 3.0)]
    # 5 bootstraps + gate + 3 timers + 3 wake events + bystander timer
    # + 4 completions (the plain waiter never wakes).
    assert env.processed_events == 5 + 1 + 3 + 3 + 1 + 4
