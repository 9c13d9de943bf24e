"""The uint64 flow keys against the field-based code they replaced
(tests/reference.py), which orders flows by the four fields it unpacks
itself: each pool flow's episode packets, the pool ranking and the oracle
instance come out equal, in the same order. The "flowid reference" of the
test names is that field-based code."""
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from flowrl.harness import (
    REFERENCE_TRAFFIC, ExperimentConfig, _build_env, _oracle_instance, _pool_packets,
)
from flowrl.model import ENTRY_BITS, flow_key, rank_pool
from conftest import ONE_PPS, hand_pool, hand_schedule

CONTENDED_TRAFFIC = dataclasses.replace(REFERENCE_TRAFFIC, aggregate_rate=5.4e6)


def assert_equals_flowid_reference(pool, eval_schedule, window_close, capacity_bits):
    packets = reference.episode_packets(eval_schedule)
    flow_packets, total = _pool_packets(pool, eval_schedule)
    assert flow_packets.dtype == np.int64
    assert flow_packets.tolist() == [packets.get(f, 0) for f in pool.records]
    assert total == sum(packets.values())

    got = rank_pool(pool, flow_packets, window_close)
    want = reference.rank_pool(pool, packets, window_close)
    for column, want_column in zip(got, want, strict=True):
        assert column.dtype == np.int64
        assert column.tolist() == want_column.tolist()

    inst, order = _oracle_instance(pool, eval_schedule, capacity_bits)
    want_inst, want_order = reference.oracle_instance(pool, eval_schedule, capacity_bits)
    assert inst == want_inst
    assert order.dtype == np.uint64
    assert order.tolist() == want_order


@pytest.mark.parametrize("traffic, seed", [(CONTENDED_TRAFFIC, s) for s in range(4)]
                         + [(REFERENCE_TRAFFIC, s) for s in range(10)],
                         ids=["contended-%d" % s for s in range(4)]
                         + ["reference-%d" % s for s in range(10)])
def test_generated_workloads_equal_flowid_reference(traffic, seed):
    env = _build_env(ExperimentConfig(seed=seed, traffic=traffic))
    assert len(env.eval_schedule.keys) < len(env.pool)  # some pool flows never recur
    assert_equals_flowid_reference(env.pool, env.eval_schedule, env.window_close,
                                   64 * ENTRY_BITS)


# Flows that tie on frequency and recentness, so the flow order decides
# between them: a src host of 65,535 sets the key's top bit, and the
# flows' fields disagree in order (a larger src with smaller ports).
TOP = flow_key(65535, 0, 1024, 1024)
NEXT = flow_key(65534, 65535, 65535, 65535)
LOW = flow_key(0, 1, 65535, 65535)
MID = flow_key(32768, 1, 1, 1)
FLOWS = [TOP, NEXT, LOW, MID, flow_key(0, 2, 1, 1), flow_key(1, 0, 1, 2)]

# (pool {flow: (freq, last_seen)}, evaluation specs (flow, class, bytes, start))
HAND_CASES = {
    "top-host-ties": ({TOP: (10, 5), LOW: (10, 5), NEXT: (10, 5), MID: (10, 5)},
                      [(f, "mice", 3000, 0) for f in (LOW, MID, NEXT, TOP)]),
    # LOW and MID are never re-offered; the schedule's other flow was never pooled
    "absent": ({MID: (3, 1), TOP: (3, 1), LOW: (3, 1)},
               [(TOP, "elephant", 4500, 1), (flow_key(0, 2, 1, 1), "mice", 1500, 0)]),
    "empty-schedule": ({TOP: (3, 1), LOW: (3, 1)}, []),
    "empty-pool": ({}, [(TOP, "mice", 1500, 0)]),
}


@pytest.mark.parametrize("name", HAND_CASES)
def test_hand_cases_equal_flowid_reference(name):
    entries, specs = HAND_CASES[name]
    specs = sorted(specs, key=lambda spec: (spec[3], spec[0]))
    assert_equals_flowid_reference(hand_pool(entries), hand_schedule(specs, 4), 5, ENTRY_BITS)


@st.composite
def pools_and_schedules(draw):
    """A pool and an evaluation schedule over FLOWS, each any subset of
    them, with frequencies and last-seen ticks from two values each so that
    most flows tie."""
    pooled = draw(st.lists(st.sampled_from(FLOWS), unique=True))
    entries = {f: (draw(st.sampled_from((1, 10))), draw(st.sampled_from((0, 5))))
               for f in pooled}
    specs = draw(st.lists(
        st.tuples(st.sampled_from(FLOWS), st.sampled_from(("elephant", "mice")),
                  st.integers(1, 6 * 1500), st.integers(0, 3)),
        unique_by=lambda spec: spec[0],
    ))
    specs.sort(key=lambda spec: (spec[3], spec[0]))
    return entries, specs, draw(st.integers(0, len(FLOWS) + 1))


@settings(max_examples=200)
@given(pools_and_schedules())
@example(HAND_CASES["top-host-ties"] + (2,))
def test_hand_built_workloads_equal_flowid_reference(case):
    entries, specs, entries_fit = case
    assert_equals_flowid_reference(hand_pool(entries), hand_schedule(specs, 4, ONE_PPS), 5,
                                   entries_fit * ENTRY_BITS)
