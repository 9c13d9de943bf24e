"""Tests for traffic profiles, schedule generation, and packet emission."""
import pytest

from flowrl.traffic import (
    FlowSchedule,
    FlowSpec,
    InvalidProfile,
    TrafficProfile,
    emission_extent,
    generate_schedule,
    packets_for_tick,
    total_packets,
)
from conftest import ONE_PPS, fid, hand_schedule


class TestTrafficProfile:
    def test_defaults_are_valid(self):
        TrafficProfile().validate()

    def test_elephant_fraction_out_of_range(self):
        with pytest.raises(InvalidProfile):
            TrafficProfile(elephant_fraction=1.5).validate()
        with pytest.raises(InvalidProfile):
            TrafficProfile(elephant_fraction=-0.1).validate()

    @pytest.mark.parametrize(
        "field",
        ["mice_size", "elephant_size", "aggregate_rate", "packet_size",
         "per_flow_rate"],
    )
    def test_non_positive_fields_rejected(self, field):
        with pytest.raises(InvalidProfile):
            TrafficProfile(**{field: 0}).validate()
        with pytest.raises(InvalidProfile):
            TrafficProfile(**{field: -1}).validate()

    @pytest.mark.parametrize("field", ["aggregate_rate", "per_flow_rate"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_rates_rejected(self, field, value):
        # never generate a schedule here: an infinite rate never advances time
        with pytest.raises(InvalidProfile, match=field):
            TrafficProfile(**{field: value}).validate()

    def test_sub_packet_rate_rejected(self):
        # 1000 bits/s over 1500-byte packets rounds to 0 packets per tick
        with pytest.raises(InvalidProfile):
            TrafficProfile(per_flow_rate=1000.0).validate()

    def test_packets_per_tick_default(self):
        # 10e6 / (1500 * 8) = 833.33 -> 833
        assert TrafficProfile().packets_per_tick() == 833

    def test_packets_per_tick_one_pps(self):
        assert ONE_PPS.packets_per_tick() == 1

    def test_total_packets_rounds_up(self):
        # 262144 bytes / 1500 bytes = 174.76 -> 175 packets
        assert total_packets(262_144, 1500) == 175
        assert total_packets(3000, 1500) == 2
        assert total_packets(1, 1500) == 1

    def test_arrival_rate_positive(self):
        prof = TrafficProfile()
        assert prof.arrival_rate() > 0
        assert prof.arrival_rate() * prof.mean_flow_bits() == pytest.approx(
            prof.aggregate_rate
        )


class TestFlowSpec:
    def test_rejects_bad_class(self):
        with pytest.raises(ValueError):
            FlowSpec(id=fid(1), klass="walrus", size=1000, start=0, duration=1.0)

    @pytest.mark.parametrize("size,duration", [(0, 1.0), (1000, 0.0), (-5, 1.0)])
    def test_rejects_non_positive_size_or_duration(self, size, duration):
        with pytest.raises(ValueError):
            FlowSpec(id=fid(1), klass="mice", size=size, start=0,
                     duration=duration)


class TestFlowSchedule:
    def test_rejects_unsorted_starts(self):
        a = FlowSpec(id=fid(1), klass="mice", size=3000, start=5, duration=2.0)
        b = FlowSpec(id=fid(2), klass="mice", size=3000, start=2, duration=2.0)
        with pytest.raises(ValueError):
            FlowSchedule(flows=[a, b], horizon=10, seed=0, profile=ONE_PPS)

    def test_rejects_start_at_horizon(self):
        a = FlowSpec(id=fid(1), klass="mice", size=3000, start=10, duration=2.0)
        with pytest.raises(ValueError):
            FlowSchedule(flows=[a], horizon=10, seed=0, profile=ONE_PPS)

    def test_save_load_round_trip(self, tmp_path):
        sched = hand_schedule(
            [(fid(1), "mice", 3000, 0), (fid(2), "elephant", 4500, 3)],
            horizon=10,
        )
        path = tmp_path / "sched.csv"
        sched.save(path)
        back = FlowSchedule.load(path, horizon=10, profile=ONE_PPS)
        assert back.flows == sched.flows
        assert back.horizon == sched.horizon


class TestGenerateSchedule:
    def test_deterministic_for_seed(self):
        prof = TrafficProfile()
        a = generate_schedule(prof, horizon=20, n_hosts=20, seed=42)
        b = generate_schedule(prof, horizon=20, n_hosts=20, seed=42)
        assert a.flows == b.flows

    def test_zero_elephant_fraction_all_mice(self):
        prof = TrafficProfile(elephant_fraction=0.0)
        sched = generate_schedule(prof, horizon=20, n_hosts=20, seed=1)
        assert sched.flows
        assert all(f.klass == "mice" for f in sched.flows)

    def test_elephant_fraction_statistics(self):
        # 10% elephants: the count among the first 1000 flows should be
        # within a few sigma of 100
        prof = TrafficProfile()
        sched = generate_schedule(prof, horizon=80, n_hosts=20, seed=5)
        assert len(sched.flows) >= 1000
        n_eleph = sum(f.klass == "elephant" for f in sched.flows[:1000])
        assert 70 <= n_eleph <= 130

    def test_arrival_rate_statistics(self):
        prof = TrafficProfile()
        horizon = 800
        sched = generate_schedule(prof, horizon=horizon, n_hosts=20, seed=9)
        expected = prof.arrival_rate() * horizon
        assert len(sched.flows) >= 10000
        rel_err = abs(len(sched.flows) - expected) / expected
        assert rel_err < 0.05

    def test_flow_ids_unique_and_hosts_distinct(self):
        prof = TrafficProfile()
        sched = generate_schedule(prof, horizon=20, n_hosts=20, seed=3)
        ids = [f.id for f in sched.flows]
        assert len(ids) == len(set(ids))
        assert all(f.id.src_host != f.id.dst_host for f in sched.flows)

    def test_starts_within_horizon_and_sorted(self):
        prof = TrafficProfile()
        sched = generate_schedule(prof, horizon=20, n_hosts=20, seed=3)
        starts = [f.start for f in sched.flows]
        assert starts == sorted(starts)
        assert all(0 <= s < 20 for s in starts)

    def test_rejects_bad_horizon_and_hosts(self):
        prof = TrafficProfile()
        with pytest.raises(ValueError):
            generate_schedule(prof, horizon=0, n_hosts=20, seed=0)
        with pytest.raises(ValueError):
            generate_schedule(prof, horizon=10, n_hosts=1, seed=0)


class TestPacketsForTick:
    def test_small_flow_drains_on_first_tick(self):
        # a 262144-byte mouse is 175 packets; at 833 packets/tick it all
        # goes out on the start tick
        prof = TrafficProfile()
        spec = FlowSpec(id=fid(1), klass="mice", size=prof.mice_size,
                        start=0, duration=prof.mice_size * 8 / prof.per_flow_rate)
        sched = FlowSchedule(flows=[spec], horizon=10, seed=0, profile=prof)
        assert packets_for_tick(sched, 0) == [(fid(1), 175)]
        assert packets_for_tick(sched, 1) == []

    def test_rate_limited_emission(self):
        # 4500 bytes at 1 packet/tick: one packet on each of three ticks
        sched = hand_schedule([(fid(1), "mice", 4500, 2)], horizon=10)
        assert packets_for_tick(sched, 1) == []
        for tick in (2, 3, 4):
            assert packets_for_tick(sched, tick) == [(fid(1), 1)]
        assert packets_for_tick(sched, 5) == []

    def test_schedule_order_preserved(self):
        sched = hand_schedule(
            [(fid(2), "mice", 3000, 0), (fid(1), "mice", 3000, 0)],
            horizon=10,
        )
        out = packets_for_tick(sched, 0)
        assert out == [(f.id, 1) for f in sched.flows]

    def test_negative_tick_raises(self):
        sched = hand_schedule([(fid(1), "mice", 3000, 0)], horizon=10)
        with pytest.raises(ValueError):
            packets_for_tick(sched, -1)

    def test_per_flow_conservation_on_generated_schedule(self):
        prof = TrafficProfile()
        sched = generate_schedule(prof, horizon=12, n_hosts=20, seed=7)
        emitted = {}
        for tick in range(emission_extent(sched)):
            for fl, count in packets_for_tick(sched, tick):
                emitted[fl] = emitted.get(fl, 0) + count
        for spec in sched.flows:
            assert emitted[spec.id] == total_packets(spec.size, prof.packet_size)

    def test_emission_extent_hand_value(self):
        # start tick 2, 3 packets at 1/tick: last emission on tick 4, so
        # every flow has drained by tick 5
        sched = hand_schedule([(fid(1), "mice", 4500, 2)], horizon=10)
        assert emission_extent(sched) == 5
