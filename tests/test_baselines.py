"""Tests for the baselines: the aging bloom-filter cache and the exact
rule-partition solvers."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowrl.baselines import (
    Assignment,
    CapacityNegative,
    IlpInstance,
    MbfState,
    TooLarge,
    _hash64,
    brute_force_partition,
    knapsack_exact,
    mbf_importance,
    mbf_step,
    run_mbf_episode,
)
from flowrl.harness import REFERENCE_TRAFFIC, ExperimentConfig, run_experiment
from flowrl.model import ENTRY_BITS, FlowRule, FlowTable
from flowrl.simnet import EpisodeMetrics
from flowrl.traffic import packets_for_tick
from conftest import ONE_PPS, fid, hand_schedule

THREE_PPS = dataclasses.replace(ONE_PPS, per_flow_rate=36_000.0)


def naive_positions(state, flow_id):
    data = flow_id.text().encode()
    h1 = _hash64(data, state._key1)
    h2 = _hash64(data, state._key2) | 1
    return [(h1 + i * h2) % state.m for i in range(state.h)]


def naive_importance(state, flow_id):
    """mbf_importance with both hashes recomputed on every call."""
    positions = naive_positions(state, flow_id)
    return sum(
        w for f, w in zip(state.filters, state.weights) if f[positions].all()
    )


def naive_mbf_episode(schedule, table, state, duration):
    """The reference MBF episode: every miss on a full table rescores every
    resident from scratch, and matched flows are inserted in sorted order."""
    hits = 0
    misses = 0
    for tick in range(duration):
        batch = packets_for_tick(schedule, tick)
        if tick % state.window == 0:
            state.filters.pop()
            state.filters.insert(0, np.zeros(state.m, dtype=bool))
        for f in sorted({f for f, _ in batch}):
            state.filters[0][naive_positions(state, f)] = True
        for f, count in batch:
            if f in table.entries:
                hits += count
                continue
            misses += 1
            if table.max_entries == 0:
                misses += count - 1
                continue
            if len(table) >= table.max_entries:
                victim = min(
                    table.entries.values(),
                    key=lambda r: (naive_importance(state, r.id), r.install_time, r.id),
                )
                table.remove(victim.id)
            table.insert(FlowRule(id=f, install_time=tick))
            hits += count - 1
    return EpisodeMetrics(
        overhead=misses, hits=hits, misses=misses,
        total_lookups=hits + misses, duration=duration,
    )


class TestMbfState:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(k=0), dict(h=0), dict(m=0), dict(window=0),
         dict(weights=(8, 4, 2)),        # wrong length
         dict(weights=(8, 8, 2, 1)),     # not strictly decreasing
         dict(weights=(8, 4, 3, 1))],    # not a power of two
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            MbfState(**kwargs)

    def test_fresh_state_reports_nothing(self):
        state = MbfState()
        assert not any(state.contains(i, fid(1)) for i in range(4))
        assert mbf_importance(state, fid(1)) == 0

    def test_insert_lands_in_newest_filter(self):
        state = MbfState()
        state.insert(fid(1))
        assert state.contains(0, fid(1))
        assert not state.contains(1, fid(1))
        assert mbf_importance(state, fid(1)) == 8
        assert mbf_importance(state, fid(2)) == 0

    def test_age_shifts_filters(self):
        state = MbfState()
        state.insert(fid(1))
        state.age()
        state.insert(fid(2))
        assert state.contains(0, fid(2)) and not state.contains(0, fid(1))
        assert state.contains(1, fid(1)) and not state.contains(1, fid(2))
        assert mbf_importance(state, fid(1)) == 4

    def test_reinserted_every_window_reaches_full_weight(self):
        state = MbfState()
        for _ in range(4):
            state.insert(fid(1))
            state.age()
        state.insert(fid(1))
        assert mbf_importance(state, fid(1)) == 8 + 4 + 2 + 1

    def test_forgotten_after_k_agings(self):
        state = MbfState()
        state.insert(fid(1))
        for _ in range(3):
            state.age()
        assert mbf_importance(state, fid(1)) == 1
        state.age()
        assert mbf_importance(state, fid(1)) == 0


class TestMbfStep:
    def test_ages_at_window_boundaries_before_inserting(self):
        state = MbfState(window=5)
        mbf_step(state, {fid(1)}, 0)  # tick 0 ages (no-op) then inserts
        assert state.contains(0, fid(1))
        mbf_step(state, set(), 3)  # mid-window: no aging
        assert state.contains(0, fid(1))
        mbf_step(state, set(), 5)  # boundary: the flow moves one slot older
        assert not state.contains(0, fid(1))
        assert state.contains(1, fid(1))

    def test_inserts_all_matched_flows(self):
        state = MbfState()
        mbf_step(state, {fid(2), fid(1)}, 1)
        assert state.contains(0, fid(1)) and state.contains(0, fid(2))


class TestRunMbfEpisode:
    def test_ample_capacity_one_miss_per_flow(self):
        # two 3-packet flows, plenty of room: first packet of each misses
        sched = hand_schedule(
            [(fid(1), "mice", 4500, 0), (fid(2), "mice", 4500, 0)],
            horizon=10,
        )
        metrics = run_mbf_episode(sched, FlowTable(10 * ENTRY_BITS))
        assert metrics.misses == 2
        assert metrics.hits == 4
        assert metrics.total_lookups == 6
        assert metrics.duration == 3

    def test_single_entry_thrashing(self):
        # two concurrent flows fighting over one slot: every packet misses
        sched = hand_schedule(
            [(fid(1), "mice", 4500, 0), (fid(2), "mice", 4500, 0)],
            horizon=10,
        )
        metrics = run_mbf_episode(sched, FlowTable(ENTRY_BITS))
        assert metrics.misses == 6
        assert metrics.hits == 0

    def test_same_tick_packets_hit_after_install(self):
        # a 175-packet burst in one tick: one miss, then 174 hits
        from flowrl.traffic import FlowSchedule, FlowSpec, TrafficProfile

        prof = TrafficProfile()
        spec = FlowSpec(id=fid(1), klass="mice", size=prof.mice_size, start=0)
        sched = FlowSchedule(flows=[spec], horizon=5, profile=prof)
        metrics = run_mbf_episode(sched, FlowTable(ENTRY_BITS))
        assert metrics.misses == 1
        assert metrics.hits == 174

    def test_zero_capacity_everything_misses(self):
        sched = hand_schedule(
            [(fid(1), "mice", 4500, 0), (fid(2), "mice", 4500, 0)],
            horizon=10,
        )
        metrics = run_mbf_episode(sched, FlowTable(0))
        assert metrics.misses == 6 and metrics.hits == 0

    def test_zero_capacity_counts_whole_burst(self):
        from flowrl.traffic import FlowSchedule, FlowSpec, TrafficProfile

        prof = TrafficProfile()
        spec = FlowSpec(id=fid(1), klass="mice", size=prof.mice_size, start=0)
        sched = FlowSchedule(flows=[spec], horizon=5, profile=prof)
        metrics = run_mbf_episode(sched, FlowTable(0))
        assert metrics.misses == 175 and metrics.hits == 0

    def test_eviction_prefers_equal_importance_ties_by_id(self):
        # fid(1) and fid(2) install on tick 0 with equal importance; the
        # tick-1 miss evicts the smaller FlowId
        sched = hand_schedule(
            [(fid(1), "mice", 1500, 0), (fid(2), "mice", 1500, 0),
             (fid(3), "mice", 1500, 1)],
            horizon=10,
        )
        table = FlowTable(2 * ENTRY_BITS)
        run_mbf_episode(sched, table)
        assert fid(1) not in table
        assert fid(2) in table and fid(3) in table

    def test_eviction_ties_by_install_time_first(self):
        # fid(2) installs on tick 0 and fid(1) on tick 1, with equal
        # importance at tick 2: the older install loses even though its
        # FlowId sorts later
        sched = hand_schedule(
            [(fid(2), "mice", 1500, 0), (fid(1), "mice", 1500, 1),
             (fid(3), "mice", 1500, 2)],
            horizon=10,
        )
        table = FlowTable(2 * ENTRY_BITS)
        metrics = run_mbf_episode(sched, table)
        assert metrics.misses == 3
        assert fid(2) not in table
        assert fid(1) in table and fid(3) in table


@st.composite
def mbf_cases(draw):
    """Hand-built schedules of up to 8 flows over 1-25 ticks, with flows of
    up to 24 ticks so that many outlive several agings, 0-4 table entries
    and windows of 1-5 ticks. Small filters (m=16) make false positives,
    and so importance ties and inflated scores, common."""
    horizon = draw(st.integers(1, 25))
    specs = draw(st.lists(
        st.tuples(
            st.sampled_from([fid(i) for i in range(8)]),
            st.sampled_from(("elephant", "mice")),
            st.integers(1, 24 * 1500),
            st.integers(0, horizon - 1),
        ),
        min_size=1,
        max_size=8,
        unique_by=lambda spec: spec[0],
    ))
    profile = draw(st.sampled_from((ONE_PPS, THREE_PPS)))
    params = dict(
        m=draw(st.sampled_from((16, 64, 4096))),
        window=draw(st.integers(1, 5)),
        seed=draw(st.integers(0, 3)),
    )
    entries = draw(st.integers(0, 4))
    return hand_schedule(specs, horizon, profile), entries, params


@settings(max_examples=200)
@given(mbf_cases())
def test_mbf_episode_equals_naive_reference(case):
    sched, entries, params = case
    duration = sched.horizon
    table = FlowTable(entries * ENTRY_BITS)
    state = MbfState(**params)
    ref_table = FlowTable(entries * ENTRY_BITS)
    ref_state = MbfState(**params)
    got = run_mbf_episode(sched, table, state, duration=duration)
    assert got == naive_mbf_episode(sched, ref_table, ref_state, duration)
    assert table.entries == ref_table.entries
    assert all(np.array_equal(a, b) for a, b in zip(state.filters, ref_state.filters))


@pytest.mark.parametrize("seed, overhead, hits", [(0, 396, 3711), (1, 367, 3335)])
def test_contended_mbf_metrics_pinned(seed, overhead, hits):
    # 10x the reference arrival rate against 64 entries: the table is full
    # for most of the episode, so these figures rest on about 1,900
    # evictions each
    cfg = ExperimentConfig(
        mode="mbf", seed=seed, table_capacity_bits=64 * ENTRY_BITS,
        traffic=dataclasses.replace(REFERENCE_TRAFFIC, aggregate_rate=5.4e6),
    )
    summary = run_experiment(cfg).summary
    assert (summary["overhead"], summary["hits"], summary["misses"]) == (overhead, hits, overhead)


class TestIlpInstance:
    def test_rejects_negative_overhead_rate(self):
        with pytest.raises(ValueError):
            IlpInstance(rules=((-1, 5),), capacity=10)

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            IlpInstance(rules=((3, 0),), capacity=10)


class TestAssignment:
    INST = IlpInstance(rules=((5, 6), (4, 5), (3, 5)), capacity=10)

    def test_check_ok(self):
        assert Assignment(frozenset({2, 3}), 5).check(self.INST)

    def test_check_rejects_capacity_violation(self):
        with pytest.raises(ValueError):
            Assignment(frozenset({1, 2}), 3).check(self.INST)

    def test_check_rejects_wrong_objective(self):
        with pytest.raises(ValueError):
            Assignment(frozenset({2, 3}), 4).check(self.INST)


class TestKnapsackExact:
    def test_hand_example(self):
        inst = IlpInstance(rules=((5, 6), (4, 5), (3, 5)), capacity=10)
        out = knapsack_exact(inst)
        assert out.on_switch == frozenset({2, 3})
        assert out.objective == 5
        assert out.check(inst)

    def test_everything_fits(self):
        inst = IlpInstance(rules=((5, 6), (4, 5), (3, 5)), capacity=16)
        out = knapsack_exact(inst)
        assert out.on_switch == frozenset({1, 2, 3})
        assert out.objective == 0

    def test_zero_capacity(self):
        inst = IlpInstance(rules=((5, 6), (4, 5), (3, 5)), capacity=0)
        out = knapsack_exact(inst)
        assert out.on_switch == frozenset()
        assert out.objective == 12

    def test_empty_instance(self):
        out = knapsack_exact(IlpInstance(rules=(), capacity=10))
        assert out.on_switch == frozenset() and out.objective == 0

    def test_negative_capacity(self):
        with pytest.raises(CapacityNegative):
            knapsack_exact(IlpInstance(rules=((5, 6),), capacity=-1))

    def test_zero_value_tail_not_included(self):
        # {2,3} and {2,3,5} share the optimum; the shorter prefix wins the
        # lexicographic tie
        inst = IlpInstance(
            rules=((74, 40), (25, 1), (98, 2), (81, 30), (0, 12)), capacity=23
        )
        out = knapsack_exact(inst)
        assert out.on_switch == frozenset({2, 3})
        assert out.objective == 155

    def test_gcd_scaling(self):
        inst = IlpInstance(rules=((10, 356), (20, 712)), capacity=711)
        out = knapsack_exact(inst)
        assert out.on_switch == frozenset({1})
        assert out.objective == 20
        full = knapsack_exact(IlpInstance(rules=((10, 356), (20, 712)),
                                          capacity=1068))
        assert full.on_switch == frozenset({1, 2})
        assert full.objective == 0

    def test_huge_capacity_sizes_dp_by_the_rules(self):
        # the DP is sized by the summed rule sizes, not by the raw capacity
        rules = ((74, 40), (25, 1), (98, 2), (81, 30), (0, 12), (6, 356))
        inst = IlpInstance(rules=rules, capacity=10**18)
        assert knapsack_exact(inst) == brute_force_partition(inst)
        assert knapsack_exact(inst).objective == 0

    def test_huge_capacity_oracle_run(self):
        cfg = ExperimentConfig(mode="oracle", seed=1, table_capacity_bits=10**18)
        summary = run_experiment(cfg).summary
        assert summary["objective"] == 0
        assert summary["on_switch_count"] > 0
        assert summary["capacity_bits"] == 10**18


class TestBruteForcePartition:
    def test_single_rule_both_ways(self):
        fits = brute_force_partition(IlpInstance(rules=((7, 5),), capacity=5))
        assert fits.on_switch == frozenset({1}) and fits.objective == 0
        no_fit = brute_force_partition(IlpInstance(rules=((7, 5),), capacity=4))
        assert no_fit.on_switch == frozenset() and no_fit.objective == 7

    def test_too_large(self):
        rules = tuple((1, 1) for _ in range(21))
        with pytest.raises(TooLarge):
            brute_force_partition(IlpInstance(rules=rules, capacity=5))

    def test_negative_capacity(self):
        with pytest.raises(CapacityNegative):
            brute_force_partition(IlpInstance(rules=((5, 6),), capacity=-1))

    def test_agrees_with_dp_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(1, 13))
            rules = tuple(
                (int(rng.integers(0, 100)), int(rng.integers(1, 50)))
                for _ in range(n)
            )
            total_size = sum(s for _, s in rules)
            cap = int(rng.integers(0, total_size + 2))
            inst = IlpInstance(rules=rules, capacity=cap)
            a = knapsack_exact(inst)
            b = brute_force_partition(inst)
            assert a.objective == b.objective
            assert a.on_switch == b.on_switch
            assert a.check(inst) and b.check(inst)
