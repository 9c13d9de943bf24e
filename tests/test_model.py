import dataclasses
import operator

import pytest

from flowrl.harness import REFERENCE_TRAFFIC, ExperimentConfig, _build_env
from flowrl.model import (
    ENTRY_BITS,
    CapacityExceeded,
    DuplicateRule,
    FlowId,
    FlowPool,
    FlowRule,
    FlowTable,
    PoolRecord,
    ThresholdConfig,
    select_rules,
)

from conftest import fid, hand_pool


class TestFlowId:
    def test_same_hosts_rejected(self):
        with pytest.raises(ValueError):
            FlowId(1, 1, 1024, 1024)

    def test_port_range_rejected(self):
        with pytest.raises(ValueError):
            FlowId(0, 1, 0, 1024)
        with pytest.raises(ValueError):
            FlowId(0, 1, 1024, 65536)

    def test_ordering_is_field_tuple_order(self):
        a = FlowId(0, 1, 1024, 1024)
        b = FlowId(0, 1, 1024, 1025)
        c = FlowId(0, 2, 1024, 1024)
        assert a < b < c

    def test_every_construction_is_checked(self):
        with pytest.raises(ValueError):
            FlowId(src_host=2, dst_host=2, src_port=1024, dst_port=1024)
        with pytest.raises(ValueError):
            FlowId._make((2, 2, 1024, 1024))
        with pytest.raises(ValueError):
            FlowId(0, 1, 1024, 1024)._replace(dst_port=0)

    def test_text_token(self):
        # the key MBF hashes: the four fields and the protocol
        assert FlowId(0, 1, 1024, 2024).text() == "0-1-1024-2024-tcp"

    def test_is_the_tuple_of_its_fields(self):
        f = FlowId(0, 1, 1024, 2024)
        assert f == (0, 1, 1024, 2024)
        assert f == (f.src_host, f.dst_host, f.src_port, f.dst_port)
        assert hash(f) == hash((0, 1, 1024, 2024))

    def test_sorted_pool_is_the_field_order(self):
        # the contended seed-0 pool (about 1,480 flows): plain sorting gives
        # the order of the four fields, as an explicit key spells it out
        cfg = ExperimentConfig(
            mode="oracle", seed=0, table_capacity_bits=64 * ENTRY_BITS,
            traffic=dataclasses.replace(REFERENCE_TRAFFIC, aggregate_rate=5.4e6),
        )
        pool = _build_env(cfg).pool
        key = operator.attrgetter("src_host", "dst_host", "src_port", "dst_port")
        assert len(pool) > 1000
        assert sorted(pool.records) == sorted(pool.records, key=key)


class TestFlowTable:
    def test_duplicate_insert_rejected(self):
        t = FlowTable(2 * ENTRY_BITS)
        t.insert(FlowRule(id=fid(1), install_time=0))
        with pytest.raises(DuplicateRule):
            t.insert(FlowRule(id=fid(1), install_time=1))

    def test_capacity_bound_enforced(self):
        t = FlowTable(ENTRY_BITS)
        t.insert(FlowRule(id=fid(1), install_time=0))
        with pytest.raises(CapacityExceeded):
            t.insert(FlowRule(id=fid(2), install_time=0))
        assert t.used_bits <= t.capacity_bits

    def test_max_entries_is_floor_of_capacity(self):
        assert FlowTable(2_097_152).max_entries == 5890
        assert FlowTable(22_784).max_entries == 64
        assert FlowTable(ENTRY_BITS - 1).max_entries == 0

    def test_entry_size_fixed(self):
        # a rule has no size of its own: every entry is ENTRY_BITS
        with pytest.raises(TypeError):
            FlowRule(id=fid(1), install_time=0, size_bits=100)
        t = FlowTable(3 * ENTRY_BITS)
        t.insert(FlowRule(id=fid(1), install_time=0))
        assert t.used_bits == ENTRY_BITS

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlowTable(-1)


class TestFlowPool:
    def test_first_observation(self):
        pool = FlowPool()
        pool.record(fid(1), now=3)
        assert pool.records[fid(1)] == PoolRecord(freq=1, last_seen=3)

    def test_reobservation_increments_and_tracks_latest(self):
        pool = FlowPool()
        pool.record(fid(1), now=3)
        pool.record(fid(1), now=8)
        assert pool.records[fid(1)] == PoolRecord(freq=2, last_seen=8)

    def test_distinct_flows_distinct_records(self):
        pool = FlowPool()
        pool.record(fid(1), now=0)
        pool.record(fid(2), now=0)
        assert len(pool) == 2

    def test_batched_count(self):
        pool = FlowPool()
        pool.record(fid(1), now=2, count=7)
        assert pool.records[fid(1)].freq == 7

    def test_count_must_be_positive(self):
        pool = FlowPool()
        with pytest.raises(ValueError):
            pool.record(fid(1), now=0, count=0)


class TestThresholdConfig:
    def test_on_grid_accepted(self):
        s = ThresholdConfig(90, 30)
        assert (s.freq_threshold, s.recentness_threshold) == (90, 30)
        ThresholdConfig(0, 0)
        ThresholdConfig(200, 300)

    @pytest.mark.parametrize("f,r", [(95, 30), (90, 31), (-10, 0), (210, 0), (0, 310)])
    def test_off_grid_rejected(self, f, r):
        with pytest.raises(ValueError):
            ThresholdConfig(f, r)


class TestSelectRules:
    def test_or_eligibility(self):
        # A passes on frequency, B on recentness, C on neither.
        a, b, c = fid(1), fid(2), fid(3)
        pool = hand_pool({a: (120, 0), b: (10, 480), c: (10, 300)})
        out = select_rules(pool, ThresholdConfig(90, 30), 100 * ENTRY_BITS, 500)
        assert out == sorted([a, b])

    def test_truncation_ranks_freq_desc_then_recentness_then_id(self):
        a, b, c = fid(1), fid(2), fid(3)
        pool = hand_pool({a: (5, 90), b: (9, 50), c: (9, 80)})
        out = select_rules(pool, ThresholdConfig(0, 300), 2 * ENTRY_BITS, 100)
        # recentness: a=10, b=50, c=20; rank (freq desc, recentness asc):
        # c (9, 20), b (9, 50), a (5, 10) -> keep {b, c}
        assert out == sorted([b, c])

    def test_truncation_id_tie_break(self):
        a, b, c = fid(1), fid(2), fid(3)
        pool = hand_pool({a: (7, 90), b: (7, 90), c: (7, 90)})
        out = select_rules(pool, ThresholdConfig(0, 300), 2 * ENTRY_BITS, 100)
        assert out == sorted([a, b])

    def test_vacuous_thresholds_take_everything_up_to_capacity(self):
        pool = hand_pool({fid(i): (i, 95) for i in range(1, 6)})
        out = select_rules(pool, ThresholdConfig(0, 300), 3 * ENTRY_BITS, 100)
        assert len(out) == 3
        out_all = select_rules(pool, ThresholdConfig(0, 300), 10 * ENTRY_BITS, 100)
        assert len(out_all) == 5

    def test_capacity_bound_always_respected(self):
        pool = hand_pool({fid(i): (10, 95) for i in range(1, 10)})
        for entries in range(10):
            out = select_rules(
                pool, ThresholdConfig(0, 300), entries * ENTRY_BITS, 100
            )
            assert len(out) * ENTRY_BITS <= entries * ENTRY_BITS

    def test_param_mode_disables_one_branch(self):
        a, b = fid(1), fid(2)
        pool = hand_pool({a: (120, 0), b: (10, 480)})
        thr = ThresholdConfig(90, 30)
        both = select_rules(pool, thr, 10 * ENTRY_BITS, 500, "both")
        fo = select_rules(pool, thr, 10 * ENTRY_BITS, 500, "freq_only")
        ro = select_rules(pool, thr, 10 * ENTRY_BITS, 500, "recentness_only")
        assert both == sorted([a, b])
        assert fo == [a]
        assert ro == [b]

    def test_unknown_param_mode_rejected(self):
        with pytest.raises(ValueError):
            select_rules(FlowPool(), ThresholdConfig(0, 0), ENTRY_BITS, 0, "nope")

    def test_window_close_before_last_seen_rejected(self):
        pool = hand_pool({fid(1): (1, 50)})
        with pytest.raises(ValueError):
            select_rules(pool, ThresholdConfig(0, 0), ENTRY_BITS, 40)

    def test_monotone_in_thresholds(self, rng):
        pool = hand_pool(
            {fid(i): (int(rng.integers(0, 200)), int(rng.integers(0, 100)))
             for i in range(1, 40)}
        )
        ample = 1000 * ENTRY_BITS
        for f in (0, 50, 100, 150, 200):
            for r in (0, 100, 200, 300):
                base = set(select_rules(pool, ThresholdConfig(f, r), ample, 100))
                if f > 0:
                    lower_f = set(
                        select_rules(pool, ThresholdConfig(f - 10, r), ample, 100)
                    )
                    assert base <= lower_f
                if r < 300:
                    higher_r = set(
                        select_rules(pool, ThresholdConfig(f, r + 10), ample, 100)
                    )
                    assert base <= higher_r

    def test_deterministic(self):
        pool = hand_pool({fid(i): (i * 3 % 20, 90 - i) for i in range(1, 20)})
        thr = ThresholdConfig(10, 20)
        first = select_rules(pool, thr, 5 * ENTRY_BITS, 100)
        second = select_rules(pool, thr, 5 * ENTRY_BITS, 100)
        assert first == second

    def test_empty_result_is_valid(self):
        pool = hand_pool({fid(1): (1, 0)})
        assert select_rules(pool, ThresholdConfig(200, 0), ENTRY_BITS, 500) == []
