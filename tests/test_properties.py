"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api.block import BlockDeviceAPI
from repro.blockftl.device import BlockSSD
from repro.errors import KeyNotFoundError
from repro.faults.model import FaultConfig, FaultInjector
from repro.flash.geometry import Geometry
from repro.hostkv.hashkv.store import HashKVStore
from repro.kvbench.distributions import ZipfianGenerator, sliding_window_indices
from repro.kvftl.device import KVSSD
from repro.metrics.cpu import CpuAccountant
from repro.nvme.driver import KernelDeviceDriver
from repro.sim.engine import Environment
from repro.sim.resources import Resource
from repro.sim.signal import Signal
from repro.kvftl.blob import layout_blob, usable_page_bytes
from repro.kvftl.config import KVSSDConfig
from repro.kvftl.keyhash import hash_fraction, iterator_bucket, key_hash64
from repro.kvftl.population import KeyScheme
from repro.metrics.latency import percentile
from repro.nvme.command import commands_for_key
from repro.units import KIB, align_up, ceil_div

CFG = KVSSDConfig()
PAGE = 32 * KIB


# -- units ---------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10**12),
       st.integers(min_value=1, max_value=10**6))
def test_align_up_properties(value, alignment):
    aligned = align_up(value, alignment)
    assert aligned >= value
    assert aligned % alignment == 0
    assert aligned - value < alignment


@given(st.integers(min_value=0, max_value=10**12),
       st.integers(min_value=1, max_value=10**6))
def test_ceil_div_properties(numerator, denominator):
    result = ceil_div(numerator, denominator)
    assert result * denominator >= numerator
    assert (result - 1) * denominator < numerator or result == 0


# -- blob layout ------------------------------------------------------------------


@given(st.integers(min_value=4, max_value=255),
       st.integers(min_value=0, max_value=2 * 1024 * 1024))
@settings(max_examples=300)
def test_layout_invariants(key_bytes, value_bytes):
    layout = layout_blob(key_bytes, value_bytes, PAGE, CFG)
    usable = usable_page_bytes(PAGE, CFG)
    # Footprint covers the raw blob and respects the minimum allocation.
    assert layout.footprint_bytes >= layout.raw_bytes
    assert layout.footprint_bytes >= CFG.min_alloc_bytes
    # Fragments partition the footprint and each fits a page.
    assert sum(layout.fragments) == layout.footprint_bytes
    assert all(0 < fragment <= usable for fragment in layout.fragments)
    # Split iff the raw blob exceeds the usable page area.
    assert layout.is_split == (layout.raw_bytes > usable)
    if layout.is_split:
        assert layout.data_fragments == ceil_div(layout.raw_bytes, usable)
        assert layout.offset_pages == layout.data_fragments - 1
    else:
        assert layout.fragments == [layout.footprint_bytes]


@given(st.integers(min_value=4, max_value=255),
       st.integers(min_value=0, max_value=64 * 1024))
def test_layout_monotone_in_value_size(key_bytes, value_bytes):
    smaller = layout_blob(key_bytes, value_bytes, PAGE, CFG)
    larger = layout_blob(key_bytes, value_bytes + 1, PAGE, CFG)
    assert larger.footprint_bytes >= smaller.footprint_bytes


# -- hashing ------------------------------------------------------------------------


@given(st.binary(min_size=1, max_size=255))
def test_hash_is_deterministic_and_bounded(key):
    assert key_hash64(key) == key_hash64(key)
    assert 0 <= key_hash64(key) < (1 << 64)
    assert 0.0 <= hash_fraction(key) < 1.0


@given(st.binary(min_size=4, max_size=64))
def test_iterator_bucket_is_prefix(key):
    bucket = iterator_bucket(key)
    assert len(bucket) == 4
    assert bucket == key[:4]


# -- key schemes -----------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10**9),
       st.integers(min_value=1, max_value=8),
       st.integers(min_value=10, max_value=14))
def test_key_scheme_bijective(index, prefix_len, digits):
    scheme = KeyScheme(prefix=b"p" * prefix_len, digits=digits)
    if index >= 10 ** digits:
        return  # out of representable range for this scheme
    key = scheme.key_for(index)
    assert scheme.index_of(key) == index
    assert len(key) == scheme.key_bytes


@given(st.binary(min_size=1, max_size=32))
def test_key_scheme_rejects_noise(noise):
    scheme = KeyScheme(prefix=b"key-", digits=12)
    recovered = scheme.index_of(noise)
    if recovered is not None:
        # Anything accepted must round-trip exactly.
        assert scheme.key_for(recovered) == noise


# -- NVMe commands -------------------------------------------------------------------------


@given(st.integers(min_value=1, max_value=255))
def test_command_count_monotone_in_key_size(key_bytes):
    assert commands_for_key(key_bytes) in (1, 2)
    if key_bytes > 16:
        assert commands_for_key(key_bytes) == 2


# -- distributions ----------------------------------------------------------------------------


@given(st.integers(min_value=1, max_value=5000),
       st.integers(min_value=1, max_value=500),
       st.integers(min_value=0, max_value=2**31))
@settings(max_examples=50)
def test_zipfian_draws_in_range(population, count, seed):
    generator = ZipfianGenerator(population, seed=seed)
    for index in generator.indices(count):
        assert 0 <= index < population


@given(st.integers(min_value=1, max_value=5000),
       st.integers(min_value=1, max_value=500),
       st.floats(min_value=0.001, max_value=1.0))
@settings(max_examples=50)
def test_sliding_window_in_range(population, count, fraction):
    for index in sliding_window_indices(population, count, fraction, seed=1):
        assert 0 <= index < population


# -- percentiles ----------------------------------------------------------------------------------


@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=200),
       st.floats(min_value=0.0, max_value=1.0))
def test_percentile_bounded_and_monotone(samples, fraction):
    samples.sort()
    value = percentile(samples, fraction)
    epsilon = 1e-6 * max(1.0, abs(samples[-1]))
    assert samples[0] - epsilon <= value <= samples[-1] + epsilon
    if fraction < 1.0:
        assert percentile(samples, fraction) <= percentile(samples, 1.0) + epsilon


# -- firmware parity under faults ---------------------------------------------------------------------


def _parity_geometry():
    return Geometry(
        channels=4,
        dies_per_channel=2,
        planes_per_die=2,
        blocks_per_plane=8,
        pages_per_block=32,
        page_bytes=32 * KIB,
    )


#: Corrected-only statistical faults: retries fire, but every read still
#: returns good data, so observable results must not change.
_LOW_FAULTS = FaultConfig(seed=3, read_corrected_prob=0.05)


def _parity_key(index):
    return b"parity-%06d" % index


def _run_ops(device_ops, env):
    """Drive the op list sequentially; returns the observation sequence."""
    results = []

    def driver():
        for apply_op in device_ops:
            try:
                outcome = yield from apply_op()
            except KeyNotFoundError:
                outcome = "missing"
            results.append(outcome)

    env.run_until_complete(env.process(driver()), limit=env.now + 600e6)
    return results


def _kv_observations(ops, fault_config):
    env = Environment()
    faults = FaultInjector(fault_config) if fault_config else None
    ssd = KVSSD(env, _parity_geometry(), faults=faults)

    def apply(op, index, value_bytes):
        def thunk():
            key = _parity_key(index)
            if op == "put":
                yield from ssd.store(key, value_bytes)
                return "ok"
            if op == "get":
                return (yield from ssd.retrieve(key))
            yield from ssd.delete(key)
            return "ok"
        return thunk

    return _run_ops([apply(*op) for op in ops], env)


def _hash_observations(ops, fault_config):
    env = Environment()
    faults = FaultInjector(fault_config) if fault_config else None
    device = BlockSSD(env, _parity_geometry(), faults=faults)
    driver = KernelDeviceDriver(env, CpuAccountant(env))
    store = HashKVStore(env, BlockDeviceAPI(env, device, driver))

    def apply(op, index, value_bytes):
        def thunk():
            key = _parity_key(index)
            if op == "put":
                yield from store.put(key, value_bytes)
                return "ok"
            if op == "get":
                return (yield from store.get(key))
            yield from store.delete(key)
            return "ok"
        return thunk

    return _run_ops([apply(*op) for op in ops], env)


_PARITY_OPS = st.lists(
    st.tuples(
        st.sampled_from(["put", "get", "delete"]),
        st.integers(min_value=0, max_value=19),
        st.sampled_from([100, 1000, 4096]),
    ),
    min_size=5,
    max_size=30,
)


@given(_PARITY_OPS)
@settings(max_examples=10, deadline=None)
def test_firmware_parity_with_and_without_faults(ops):
    """Both personalities agree on every op outcome, faults or not.

    The same random put/get/delete stream runs on the KV-SSD and on the
    hash store over a block-SSD, clean and under corrected-only fault
    injection.  All four runs must observe identical (outcome, value
    size) sequences: the personalities implement the same KV contract,
    and recovered media errors are invisible to the host.
    """
    kv_clean = _kv_observations(ops, None)
    hash_clean = _hash_observations(ops, None)
    assert kv_clean == hash_clean
    kv_faulty = _kv_observations(ops, _LOW_FAULTS)
    hash_faulty = _hash_observations(ops, _LOW_FAULTS)
    assert kv_faulty == kv_clean
    assert hash_faulty == hash_clean


# -- engine event ordering -----------------------------------------------------


_SCHEDULE_STEPS = st.lists(
    st.lists(
        st.integers(min_value=0, max_value=12),  # delays in 0.25us quanta
        min_size=0,
        max_size=6,
    ),
    min_size=1,
    max_size=8,
)


def _firing_order(bucket_us, steps):
    """Schedule ``steps`` of timeouts from an advancing driver process;
    return the recorded (fire_time, tag) order."""
    env = Environment(bucket_us=bucket_us)
    fired = []

    def recorder(tag):
        def callback(event):
            fired.append((env.now, tag))
        return callback

    def driver(env):
        tag = 0
        for step in steps:
            for quanta in step:
                timeout = env.timeout(quanta * 0.25)
                timeout.callbacks.append(recorder(tag))
                tag += 1
            # Advance the clock between scheduling bursts so bursts land
            # relative to different 'now' values (and different buckets).
            yield env.timeout(1.0)

    env.process(driver(env))
    env.run()
    return fired


@given(_SCHEDULE_STEPS)
@settings(max_examples=40, deadline=None)
def test_event_order_stable_across_bucket_widths(steps):
    """The calendar queue is an implementation detail: any bucket width
    fires the same events in the same (time, scheduling-seq) order.

    Delays include zero and repeated values, so ties at one timestamp
    and zero-delay immediates are exercised; widths span sub-quantum
    buckets, the NAND-tuned default, and one bucket holding everything.
    """
    reference = _firing_order(64.0, steps)
    assert _firing_order(0.25, steps) == reference
    assert _firing_order(3.0, steps) == reference
    assert _firing_order(1e9, steps) == reference
    # Total order: sorted by fire time, ties broken by scheduling order
    # within each burst (tags increase with scheduling sequence).
    times = [time for time, _tag in reference]
    assert times == sorted(times)


# -- in-place resource service ---------------------------------------------------


class ReferenceResource(Resource):
    """``serve`` as a plain request -> timeout -> release, every time."""

    def serve(self, duration):
        grant = self.request()
        yield grant
        try:
            yield self.env.timeout(duration)
        finally:
            self.release(grant)


_HALF_US = st.integers(min_value=0, max_value=4).map(lambda q: q * 0.5)

_MODEL_STEP = st.one_of(
    st.tuples(st.just("serve"), st.integers(min_value=0, max_value=2), _HALF_US),
    st.tuples(st.just("wait"), _HALF_US),
    st.tuples(st.just("poll"), _HALF_US),
    st.tuples(st.just("notify")),
    st.tuples(st.just("gate"), st.integers(min_value=0, max_value=1)),
)

_MODEL = st.fixed_dictionaries({
    "bucket_us": st.sampled_from([0.5, 2.0, 64.0]),
    "capacities": st.lists(st.integers(min_value=1, max_value=3),
                           min_size=3, max_size=3),
    "gates": st.lists(_HALF_US, min_size=2, max_size=2),
    # Each process optionally starts by waiting on a gate, so events with
    # several waiting processes are common.
    "processes": st.lists(
        st.tuples(st.sampled_from([None, 0, 1]),
                  st.lists(_MODEL_STEP, max_size=8)),
        min_size=1, max_size=5),
    "slices": st.lists(st.integers(min_value=0, max_value=16).map(lambda q: q * 0.5),
                       max_size=3),
})


def _run_model(resource_cls, model):
    """Run a random process model; return everything it can observe."""
    env = Environment(bucket_us=model["bucket_us"])
    resources = [resource_cls(env, capacity) for capacity in model["capacities"]]
    signal = Signal(env)
    # Shared events: every process that yields one waits on the same
    # event, so it fires with several callbacks.
    gates = [env.timeout(delay) for delay in model["gates"]]
    trace = []

    def proc(pid, start, steps):
        if start is not None:
            yield gates[start]
        for index, step in enumerate(steps):
            kind = step[0]
            if kind == "serve":
                yield from resources[step[1]].serve(step[2])
            elif kind == "wait":
                yield env.timeout(step[1])
            elif kind == "poll":
                yield env.any_of([signal.wait(), env.timeout(step[1])])
            elif kind == "notify":
                signal.notify_all()
            else:
                yield gates[step[1]]
            trace.append((pid, env.now, index))

    for pid, (start, steps) in enumerate(model["processes"]):
        env.process(proc(pid, start, steps))
    clocks = []
    for until in sorted(model["slices"]):
        env.run(until=until)
        clocks.append(env.now)
    env.run()
    observed = (trace, clocks, env.now, [r.busy_slot_us() for r in resources])
    return observed, env.processed_events


@given(_MODEL)
@settings(max_examples=200, deadline=None)
def test_in_place_serve_matches_event_path(model):
    """``Resource.serve``'s in-place grant and service wait are exact: any
    model runs as it does with every serve going through the queue.

    The models mix capacities 1-3, zero and tied durations, ``any_of``
    signal/timeout polls, events several processes wait on, runs sliced
    with ``run(until)``, and calendar buckets narrower and wider than the
    durations.
    """
    observed, events = _run_model(Resource, model)
    reference, reference_events = _run_model(ReferenceResource, model)
    assert observed == reference
    assert events <= reference_events


# -- shared signal events ----------------------------------------------------------


class ReferenceSignal:
    """One event per waiter; a timed wait is ``any_of([wait, timeout])``."""

    def __init__(self, env):
        self.env = env
        self._waiters = []  # (waiter event, any_of or None)

    @property
    def waiting(self):
        # A timed wait whose any_of fired before any notify timed out.
        return sum(1 for _waiter, timed in self._waiters
                   if timed is None or not timed.triggered)

    def wait(self, timeout=None):
        waiter = self.env.event()
        timed = None
        if timeout is not None:
            timed = self.env.any_of([waiter, self.env.timeout(timeout)])
        self._waiters.append((waiter, timed))
        return waiter if timed is None else timed

    def notify_all(self):
        waiters, self._waiters = self._waiters, []
        for waiter, _timed in waiters:
            waiter.succeed(None)


_SIGNAL_STEP = st.one_of(
    st.tuples(st.just("wait"), st.integers(min_value=0, max_value=1)),
    st.tuples(st.just("timed"), st.integers(min_value=0, max_value=1), _HALF_US),
    st.tuples(st.just("sleep"), _HALF_US),
    st.tuples(st.just("notify"), st.integers(min_value=0, max_value=1)),
    # Schedules an event that takes a zero-delay hop before it records,
    # so it lands between, or after, wakeups due at its instant.
    st.tuples(st.just("bystander"), _HALF_US),
    st.tuples(st.just("serve"), _HALF_US),
    st.tuples(st.just("gate"), st.integers(min_value=0, max_value=1)),
)

_SIGNAL_MODEL = st.fixed_dictionaries({
    "bucket_us": st.sampled_from([0.5, 2.0, 64.0]),
    "gates": st.lists(_HALF_US, min_size=2, max_size=2),
    # Processes share a few programs: those a gate releases together run
    # in lockstep, arming their waits at one instant, as flush workers do.
    "programs": st.lists(st.lists(_SIGNAL_STEP, max_size=6),
                         min_size=1, max_size=3),
    "processes": st.lists(
        st.tuples(st.sampled_from([None, 0, 1]),
                  st.integers(min_value=0, max_value=2)),
        min_size=1, max_size=6),
    "slices": st.lists(st.integers(min_value=0, max_value=16).map(lambda q: q * 0.5),
                       max_size=3),
})


def _run_signal_model(signal_cls, model):
    """Run a random signal model; return everything it can observe."""
    env = Environment(bucket_us=model["bucket_us"])
    signals = [signal_cls(env), signal_cls(env)]
    resource = Resource(env)
    gates = [env.timeout(delay) for delay in model["gates"]]
    trace = []

    def record(pid, step):
        trace.append((pid, env.now, step, [s.waiting for s in signals]))

    def bystander(pid, index, delay):
        def hop(_event):
            env.timeout(0).callbacks.append(lambda _e: record(pid, ("by", index)))
        env.timeout(delay).callbacks.append(hop)

    def proc(pid, start, steps):
        if start is not None:
            yield gates[start]
        for index, step in enumerate(steps):
            kind = step[0]
            if kind == "wait":
                yield signals[step[1]].wait()
            elif kind == "timed":
                yield signals[step[1]].wait(step[2])
            elif kind == "sleep":
                yield env.timeout(step[1])
            elif kind == "notify":
                signals[step[1]].notify_all()
            elif kind == "bystander":
                bystander(pid, index, step[1])
            elif kind == "serve":
                yield from resource.serve(step[1])
            else:
                yield gates[step[1]]
            record(pid, index)

    programs = model["programs"]
    for pid, (start, program) in enumerate(model["processes"]):
        env.process(proc(pid, start, programs[program % len(programs)]))
    clocks = []
    for until in sorted(model["slices"]):
        env.run(until=until)
        clocks.append(env.now)
    env.run()
    return (trace, clocks, env.now), env.processed_events


def _lockstep_model(programs, processes):
    return {"bucket_us": 64.0, "gates": [0.0, 0.0], "programs": programs,
            "processes": processes, "slices": []}


@given(_SIGNAL_MODEL)
@settings(max_examples=300, deadline=None)
# One model per sharing guard, each failing without it: different
# deadlines; an event scheduled between two arms; a plain wait armed
# between two timed waits that a notify then wakes.
@example(_lockstep_model([[("timed", 0, 1.0)], [("timed", 0, 2.0)]],
                         [(0, 0), (0, 1)]))
@example(_lockstep_model([[("bystander", 1.0), ("timed", 0, 1.0)]],
                         [(0, 0), (0, 0)]))
@example(_lockstep_model(
    [[("timed", 0, 1.0)], [("wait", 0), ("sleep", 0.0)],
     [("sleep", 0.5), ("notify", 0)]],
    [(0, 0), (0, 1), (0, 0), (None, 2)]))
def test_shared_signal_events_match_one_event_per_waiter(model):
    """``Signal``'s shared notify event and shared timed waits are exact:
    any model runs as it does with one event per waiter and ``any_of``
    timed waits.

    The models mix plain and timed waits on two signals, equal and
    different timeouts armed at one instant (processes a gate releases
    together), bystander events scheduled between arms, notifies at a
    timer's instant, in-place serves, ``run(until)`` slices, and
    calendar buckets narrower and wider than the delays.
    """
    observed, events = _run_signal_model(Signal, model)
    reference, reference_events = _run_signal_model(ReferenceSignal, model)
    assert observed == reference
    assert events <= reference_events
