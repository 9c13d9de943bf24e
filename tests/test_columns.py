"""The columnar workload: orchestration, the evaluation schedule and the
episode packets, computed over a FlowSchedule's per-flow arrays, equal the
per-flow computations they replaced; and no run builds a FlowSpec."""
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowrl.harness import (
    MODES, ExperimentConfig, _build_env, _pool_packets, build_eval_schedule, run_experiment,
)
from flowrl.model import PoolRecord
from flowrl.simnet import run_orchestration
from flowrl.traffic import (
    MAX_FLOW_PACKETS, FlowSpec, emission_extent, packets_for_tick, total_packets,
)
from conftest import ONE_PPS, fid, hand_pool, keys_of, spec_schedule


# The per-flow reference: each flow's figures in Python ints, from a rate
# that is not capped at MAX_FLOW_PACKETS.

def reference_rate(profile):
    return round(profile.per_flow_rate / (profile.packet_size * 8))


def reference_emitted_before(start, total, rate, tick):
    return min(total, max(0, tick - start) * rate)


def reference_last_emission_tick(start, total, rate):
    return start + -(-total // rate) - 1


def reference_orchestration(schedule, window):
    if window > schedule.horizon:
        raise ValueError("window exceeds schedule horizon")
    records = {}
    profile = schedule.profile
    rate = reference_rate(profile)
    for f in schedule.flows:
        if f.start < window:
            total = total_packets(f.size, profile.packet_size)
            records[f.id] = (reference_emitted_before(f.start, total, rate, window),
                             min(window - 1, reference_last_emission_tick(f.start, total, rate)))
    return hand_pool(records)


def reference_eval_schedule(schedule, window, replay_lag):
    profile = schedule.profile
    rate = reference_rate(profile)
    flows = []
    for f in schedule.flows:
        total = total_packets(f.size, profile.packet_size)
        remaining = total - reference_emitted_before(f.start, total, rate, window)
        if remaining > 0:
            flows.append(FlowSpec(f.id, f.klass, remaining * profile.packet_size, 0))
            continue
        if f.klass != "elephant":
            continue
        replay_at = reference_last_emission_tick(f.start, total, rate) + replay_lag
        if replay_at >= window:
            continue
        size = reference_emitted_before(replay_at, total, rate, window) * profile.packet_size
        flows.append(FlowSpec(f.id, f.klass, size, replay_at))
    flows.sort(key=lambda f: (f.start, f.id))
    return spec_schedule(flows, window, profile)


def reference_episode_packets(schedule):
    profile = schedule.profile
    rate = reference_rate(profile)
    return {f.id: reference_emitted_before(f.start, total_packets(f.size, profile.packet_size),
                                           rate, schedule.horizon)
            for f in schedule.flows}


# The emission references as they read the FlowSpecs, before they walked
# the columns.

def reference_packets_for_tick(schedule, tick):
    profile = schedule.profile
    rate = profile.packets_per_tick()
    out = []
    for f in schedule.flows:
        if f.start > tick:
            continue
        total = total_packets(f.size, profile.packet_size)
        done_before = min(total, (tick - f.start) * rate)
        n = min(rate, total - done_before)
        if n > 0:
            out.append((f.id, n))
    return out


def reference_emission_extent(schedule):
    profile = schedule.profile
    rate = profile.packets_per_tick()
    return max(
        (reference_last_emission_tick(f.start, total_packets(f.size, profile.packet_size), rate)
         + 1 for f in schedule.flows),
        default=0,
    )


E, M = "elephant", "mice"

# (flows as (id, class, bytes, start), horizon, window, replay lag,
# per_flow_rate); ONE_PPS's packets are 1500 bytes, 12,000 bits.
# test_harness's hand case: replays in full and truncated, a replay past
# the window, a completed mouse and a mouse still draining.
HAND_CASE = ([(fid(1), E, 4500, 0), (fid(2), M, 3000, 1), (fid(3), E, 4500, 4),
              (fid(4), E, 4500, 5), (fid(5), M, 4500, 8)], 10, 10, 3, 12_000.0)
# three flows continue from tick 0 (the last starts after the window), so
# the key alone orders them, against their schedule order
KEY_ORDERS_EQUAL_STARTS = ([(fid(2), M, 4500, 0), (fid(1), M, 4500, 1), (fid(0), E, 1500, 3)],
                           4, 2, 0, 12_000.0)
# packets_per_tick() is capped from 2**64 to MAX_FLOW_PACKETS
RATE_ABOVE_INT64 = ([(fid(1), E, 4500, 0), (fid(2), M, 9000, 1)], 5, 4, 0, 12_000.0 * 2**64)
# a lag of at least the window drops every recurrence
LAG_ABOVE_INT64 = ([(fid(1), E, 4500, 0), (fid(2), E, 3000, 2)], 10, 10, 2**64, 12_000.0)
# flows at the packet bound, one of them with a partial last packet
AT_THE_PACKET_BOUND = ([(fid(1), E, MAX_FLOW_PACKETS * 1500, 0),
                        (fid(2), M, MAX_FLOW_PACKETS * 1500 - 1, 1)], 4, 3, 1, 24_000.0)
REFUSED_ABOVE_THE_BOUND = ([(fid(1), M, (MAX_FLOW_PACKETS + 1) * 1500 - 1499, 0)],
                           10, 10, 0, 12_000.0)
EMPTY = ([], 5, 3, 2, 12_000.0)


@st.composite
def columnar_cases(draw):
    """Hand-built schedules of up to 10 flows over 1-20 ticks: mice and
    elephants with sizes that need not be whole packets (a few near the
    packet bound), a window up to the horizon, a lag from 0 to the window
    (or above int64) and 1-3 packets per tick (or above int64). A flow
    above the bound comes only from the explicit example."""
    horizon = draw(st.integers(1, 20))
    specs = draw(st.lists(
        st.tuples(
            st.sampled_from([fid(i) for i in range(10)]),
            st.sampled_from((E, M)),
            # one size in seven lies within 2 packets below the bound
            st.integers(1, 14 * 1500).map(
                lambda b: b if b <= 12 * 1500 else MAX_FLOW_PACKETS * 1500 + 12 * 1500 - b),
            st.integers(0, horizon - 1),
        ),
        max_size=10,
        unique_by=lambda spec: spec[0],
    ))
    specs.sort(key=lambda spec: (spec[3], spec[0]))
    window = draw(st.integers(1, horizon))
    lag = draw(st.integers(0, window) | st.just(2**64))
    rate = draw(st.sampled_from((1, 2, 3, 2**64)))
    return specs, horizon, window, lag, 12_000.0 * rate


@settings(max_examples=300)
@given(columnar_cases())
@example(HAND_CASE)
@example(KEY_ORDERS_EQUAL_STARTS)
@example(RATE_ABOVE_INT64)
@example(LAG_ABOVE_INT64)
@example(AT_THE_PACKET_BOUND)
@example(REFUSED_ABOVE_THE_BOUND)
@example(EMPTY)
def test_columnar_build_equals_per_flow_reference(case):
    specs, horizon, window, lag, per_flow_rate = case
    profile = dataclasses.replace(ONE_PPS, per_flow_rate=per_flow_rate)
    flows = [FlowSpec(*spec) for spec in specs]
    if any(total_packets(f.size, profile.packet_size) > MAX_FLOW_PACKETS for f in flows):
        with pytest.raises(ValueError, match="exceeds"):
            spec_schedule(flows, horizon, profile)
        return
    sched = spec_schedule(flows, horizon, profile)

    pool = run_orchestration(sched, window)
    assert list(pool.records.items()) == list(
        reference_orchestration(sched, window).records.items())

    got = build_eval_schedule(sched, window, lag)
    want = reference_eval_schedule(sched, window, lag)
    # the columns, read before the flows view is built, equal those of the
    # reference's FlowSpecs
    assert got.keys.dtype == np.uint64
    assert got.keys.tolist() == keys_of(f.id for f in want.flows).tolist()
    assert got.starts.tolist() == [f.start for f in want.flows]
    assert got.elephant.tolist() == [f.klass == E for f in want.flows]
    assert got.packets.tolist() == [total_packets(f.size, profile.packet_size)
                                    for f in want.flows]
    packets = reference_episode_packets(want)
    flow_packets, total = _pool_packets(pool, got)
    assert flow_packets.tolist() == [packets.get(f, 0) for f in pool.records]
    assert total == sum(packets.values())
    assert got.flows == want.flows
    assert got.horizon == want.horizon == window


@settings(max_examples=150)
@given(columnar_cases())
@example(HAND_CASE)
@example(RATE_ABOVE_INT64)
@example(AT_THE_PACKET_BOUND)
@example(EMPTY)
def test_emission_equals_flowspec_reference(case):
    specs, horizon, window, lag, per_flow_rate = case
    profile = dataclasses.replace(ONE_PPS, per_flow_rate=per_flow_rate)
    flows = [FlowSpec(*spec) for spec in specs]
    sched = spec_schedule(flows, horizon, profile)
    for schedule in (sched, build_eval_schedule(sched, window, lag)):
        extent = emission_extent(schedule)
        assert extent == reference_emission_extent(schedule)
        # every tick through the extent; a flow near the packet bound
        # drains for about 2**45 ticks, so past tick 64 only the extent's
        # last tick and the extent itself
        for tick in {*range(min(extent, 64) + 1), max(extent - 1, 0), extent}:
            assert packets_for_tick(schedule, tick) == reference_packets_for_tick(schedule, tick)


def constructed(monkeypatch, cls):
    """A list that counts every cls object constructed from now on."""
    built = []
    init = cls.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)
    return built


@pytest.fixture
def flowspecs_built(monkeypatch):
    return constructed(monkeypatch, FlowSpec)


@pytest.fixture
def pool_records_built(monkeypatch):
    return constructed(monkeypatch, PoolRecord)


# No mode builds a FlowSpec: the MBF episode walks the evaluation
# schedule's columns as well (the test id predates that).
@pytest.mark.parametrize("mode", MODES)
def test_run_builds_flowspecs_only_for_mbf_evaluation(mode, flowspecs_built):
    cfg = ExperimentConfig(mode=mode, seed=0, episodes_cap=3, n_training_sets=1)
    assert len(_build_env(cfg).eval_schedule.keys) > 0
    run_experiment(cfg)
    assert flowspecs_built == []


# A run reads the pool's columns; only select_rules, the tests and the
# bench read the records view.
@pytest.mark.parametrize("mode", MODES)
def test_run_builds_pool_records_only_when_read(mode, pool_records_built):
    cfg = ExperimentConfig(mode=mode, seed=0, episodes_cap=3, n_training_sets=1)
    run_experiment(cfg)
    assert pool_records_built == []
    pool = _build_env(cfg).pool
    assert len(pool.records) == len(pool) == len(pool_records_built) > 0

