"""Tests for the episode engine: pool building, episode metrics, rewards."""
import pytest

from flowrl.model import ENTRY_BITS, FlowTable
from flowrl.simnet import (
    BestSoFar,
    EpisodeMetrics,
    NoLookups,
    RulesetTooLarge,
    ZeroInitial,
    compute_reward,
    hit_ratio,
    reduction_fraction,
    run_episode,
    run_orchestration,
)
from flowrl.traffic import TrafficProfile, generate_schedule, packets_for_tick
from conftest import fid, hand_schedule


class TestEpisodeMetrics:
    def test_valid(self):
        EpisodeMetrics(overhead=2, hits=3, misses=2, total_lookups=5, duration=4)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EpisodeMetrics(overhead=-1, hits=0, misses=-1, total_lookups=-1,
                           duration=0)

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            EpisodeMetrics(overhead=1, hits=3, misses=1, total_lookups=5,
                           duration=4)

    def test_rejects_overhead_not_misses(self):
        with pytest.raises(ValueError):
            EpisodeMetrics(overhead=0, hits=3, misses=2, total_lookups=5,
                           duration=4)


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
        assert len(pool) == 2
        assert pool.freq(a) == 10 and pool.last_seen(a) == 9
        assert pool.freq(c) == 2 and pool.last_seen(c) == 9
        assert b not in pool

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
        window = 6
        pool = run_orchestration(sched, window)
        expect_freq = {}
        expect_last = {}
        for tick in range(window):
            for fl, count in packets_for_tick(sched, tick):
                expect_freq[fl] = expect_freq.get(fl, 0) + count
                expect_last[fl] = tick
        assert len(pool) == len(expect_freq)
        for fl, freq in expect_freq.items():
            assert pool.freq(fl) == freq
            assert pool.last_seen(fl) == expect_last[fl]


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
        m = EpisodeMetrics(overhead=1, hits=3, misses=1, total_lookups=4,
                           duration=1)
        assert hit_ratio(m) == pytest.approx(0.75)
        all_hits = EpisodeMetrics(overhead=0, hits=4, misses=0,
                                  total_lookups=4, duration=1)
        assert hit_ratio(all_hits) == 1.0
        all_miss = EpisodeMetrics(overhead=4, hits=0, misses=4,
                                  total_lookups=4, duration=1)
        assert hit_ratio(all_miss) == 0.0

    def test_hit_ratio_no_lookups(self):
        empty = EpisodeMetrics(overhead=0, hits=0, misses=0, total_lookups=0,
                               duration=0)
        with pytest.raises(NoLookups):
            hit_ratio(empty)
