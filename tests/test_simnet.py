"""Tests for the episode engine: pool building, episode metrics, rewards."""
import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowrl.model import ENTRY_BITS, FlowTable, PoolRecord
from flowrl.simnet import (
    BestSoFar,
    EpisodeMetrics,
    RulesetTooLarge,
    ZeroInitial,
    hit_ratio,
    reduction_fraction,
    run_episode,
    run_orchestration,
)
from flowrl.traffic import TrafficProfile, generate_schedule, packets_for_tick
from conftest import ONE_PPS, fid, hand_pool, hand_schedule
from reference import compute_reward


def replay_orchestration(schedule, window):
    """The reference pool: sum every flow's packets tick by tick, and
    record each flow in the order it was first seen."""
    seen = {}
    for tick in range(window):
        for f, count in packets_for_tick(schedule, tick):
            seen[f] = (seen.get(f, (0, 0))[0] + count, tick)
    return hand_pool(seen)


class TestEpisodeMetrics:
    def test_valid(self):
        m = EpisodeMetrics(hits=3, misses=2, duration=4)
        assert (m.overhead, m.total_lookups) == (2, 5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EpisodeMetrics(hits=0, misses=-1, duration=0)
        with pytest.raises(ValueError):
            EpisodeMetrics(hits=-1, misses=0, duration=0)

    # overhead and total_lookups are derived, so a record whose total or
    # overhead disagrees with its counts cannot be built
    def test_rejects_bad_total(self):
        with pytest.raises(TypeError):
            EpisodeMetrics(hits=3, misses=1, duration=4, total_lookups=5)

    def test_rejects_overhead_not_misses(self):
        with pytest.raises(TypeError):
            EpisodeMetrics(hits=3, misses=2, duration=4, overhead=0)

    def test_derived_counts_are_plain_attributes(self):
        # train reads overhead on every step: a field, not a property
        m = EpisodeMetrics(hits=3, misses=2, duration=4)
        assert vars(m) == dict(hits=3, misses=2, duration=4, overhead=2, total_lookups=5)


class TestRunOrchestration:
    def test_counts_only_window_lookups(self):
        # A: 10 packets over ticks 0-9; B starts after the window closes;
        # C: 5 packets over ticks 8-12, only 2 fall inside the window
        a, b, c = fid(1), fid(2), fid(3)
        sched = hand_schedule(
            [(a, "mice", 15_000, 0), (b, "mice", 3000, 12),
             (c, "mice", 7500, 8)],
            horizon=20,
        )
        pool = run_orchestration(sched, window=10)
        assert pool.records == {a: PoolRecord(10, 9), c: PoolRecord(2, 9)}
        assert list(pool.records) == [a, c]

    def test_empty_schedule(self):
        sched = hand_schedule([], horizon=10)
        assert len(run_orchestration(sched, window=10)) == 0

    def test_window_beyond_horizon_rejected(self):
        sched = hand_schedule([(fid(1), "mice", 3000, 0)], horizon=10)
        with pytest.raises(ValueError):
            run_orchestration(sched, window=11)

    def test_matches_emission_totals(self):
        prof = TrafficProfile()
        sched = generate_schedule(prof, horizon=12, n_hosts=20, seed=11)
        pool = run_orchestration(sched, 6)
        assert len(pool) > 0
        assert list(pool.records.items()) == list(
            replay_orchestration(sched, 6).records.items())


@st.composite
def orchestration_cases(draw):
    """Hand-built schedules of up to 10 flows over 1-20 ticks at 1-3
    packets per tick: flows drain past the window, and the window (1 to
    the horizon) leaves later starts outside it."""
    horizon = draw(st.integers(1, 20))
    specs = draw(st.lists(
        st.tuples(
            st.sampled_from([fid(i) for i in range(10)]),
            st.sampled_from(("elephant", "mice")),
            st.integers(1, 12 * 1500),
            st.integers(0, horizon - 1),
        ),
        max_size=10,
        unique_by=lambda spec: spec[0],
    ))
    rate = draw(st.integers(1, 3))
    profile = dataclasses.replace(ONE_PPS, per_flow_rate=12_000.0 * rate)
    return hand_schedule(specs, horizon, profile), draw(st.integers(1, horizon))


# The derandomized draw changes whenever the test's source does, so this
# case keeps both kinds of last_seen: fid(1) emits its last packet on tick 1
# of the 3-tick window, and fid(2) is still draining at its close.
LAST_SEEN_CASE = (
    hand_schedule([(fid(1), "mice", 3000, 0), (fid(2), "mice", 6000, 1)], horizon=4),
    3,
)


@settings(max_examples=300)
@given(orchestration_cases())
@example(LAST_SEEN_CASE)
def test_closed_form_orchestration_equals_replay(case):
    sched, window = case
    got = run_orchestration(sched, window)
    assert list(got.records.items()) == list(
        replay_orchestration(sched, window).records.items())


class TestRunEpisode:
    def _two_flow(self):
        # A: 2 packets from tick 0; B: 3 packets from tick 1
        return hand_schedule(
            [(fid(1), "mice", 3000, 0), (fid(2), "elephant", 4500, 1)],
            horizon=10,
        )

    def test_hand_counts(self):
        sched = self._two_flow()
        table = FlowTable(2 * ENTRY_BITS)
        metrics = run_episode([fid(1)], sched, table)
        assert metrics.hits == 2
        assert metrics.misses == 3
        assert metrics.overhead == 3
        assert metrics.total_lookups == 5
        assert metrics.duration == 4  # drain extent: B finishes on tick 3

    def test_miss_does_not_install(self):
        sched = self._two_flow()
        table = FlowTable(10 * ENTRY_BITS)
        run_episode([fid(1)], sched, table)
        assert fid(2) not in table.entries  # misses never install mid-episode

    def test_ruleset_too_large(self):
        sched = self._two_flow()
        with pytest.raises(RulesetTooLarge):
            run_episode([fid(1), fid(2)], sched, FlowTable(ENTRY_BITS))

    def test_explicit_duration_truncates(self):
        sched = self._two_flow()
        metrics = run_episode([fid(1)], sched, FlowTable(ENTRY_BITS),
                              duration=1)
        assert metrics.duration == 1
        assert metrics.hits == 1 and metrics.misses == 0

    def test_deterministic_across_fresh_tables(self):
        prof = TrafficProfile()
        sched = generate_schedule(prof, horizon=8, n_hosts=20, seed=13)
        ruleset = sorted(f.id for f in sched.flows[:5])
        m1 = run_episode(ruleset, sched, FlowTable(5 * ENTRY_BITS))
        m2 = run_episode(ruleset, sched, FlowTable(5 * ENTRY_BITS))
        assert m1 == m2


class TestComputeReward:
    def test_improvement_updates_best(self):
        best = BestSoFar(best_overhead=100)
        assert compute_reward(best, 80, thresholds="t1", metrics="m1") == 1
        assert best.best_overhead == 80
        assert best.best_thresholds == "t1"
        assert best.best_metrics == "m1"

    def test_regression_and_tie(self):
        best = BestSoFar(best_overhead=80, best_thresholds="t1")
        assert compute_reward(best, 90) == -1
        assert best.best_overhead == 80
        assert compute_reward(best, 80) == 0
        assert best.best_overhead == 80
        assert best.best_thresholds == "t1"

    def test_second_improvement_replaces(self):
        best = BestSoFar(best_overhead=100)
        compute_reward(best, 80, thresholds="t1")
        assert compute_reward(best, 70, thresholds="t2") == 1
        assert best.best_thresholds == "t2"

    def test_antisymmetric_around_best(self):
        for delta in (1, 25, 50):
            assert compute_reward(BestSoFar(best_overhead=50), 50 - delta) == 1
            assert compute_reward(BestSoFar(best_overhead=50), 50 + delta) == -1


class TestFractions:
    def test_reduction_fraction(self):
        assert reduction_fraction(1000, 400) == pytest.approx(0.6)
        assert reduction_fraction(100, 100) == 0.0
        assert reduction_fraction(100, 150) == pytest.approx(-0.5)

    def test_reduction_fraction_zero_initial(self):
        with pytest.raises(ZeroInitial):
            reduction_fraction(0, 5)

    def test_hit_ratio(self):
        m = EpisodeMetrics(hits=3, misses=1, duration=1)
        assert hit_ratio(m) == pytest.approx(0.75)
        assert hit_ratio(EpisodeMetrics(hits=4, misses=0, duration=1)) == 1.0
        assert hit_ratio(EpisodeMetrics(hits=0, misses=4, duration=1)) == 0.0

    def test_hit_ratio_no_lookups(self):
        assert hit_ratio(EpisodeMetrics(hits=0, misses=0, duration=0)) == 0.0
