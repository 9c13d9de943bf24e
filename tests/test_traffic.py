"""Tests for traffic profiles, schedule generation, and packet emission."""
import dataclasses
import hashlib

import numpy as np
import pytest

from flowrl import traffic
from flowrl.harness import REFERENCE_TRAFFIC
from flowrl.model import flow_key
from flowrl.traffic import (
    MAX_EXPECTED_FLOWS,
    MAX_FLOW_PACKETS,
    MAX_HORIZON,
    FlowSchedule,
    FlowSpec,
    InvalidProfile,
    TrafficProfile,
    WordDraws,
    emission_extent,
    generate_schedule,
    packets_for_tick,
    total_packets,
)
from conftest import ONE_PPS, fid, hand_schedule, keys_of, spec_schedule
from reference import key_fields


# profiles whose rates no float can hold, and the field refused for each
PROFILES_BEYOND_FLOATS = [
    (dict(packet_size=10**400), "packet_size"),
    (dict(mice_size=10**313, elephant_size=10**313, packet_size=10**300,
          per_flow_rate=1e308), "mice_size"),
    # each size fits a float, but the mean flow is inf bits: 0 arrivals per second
    (dict(mice_size=10**308, elephant_size=10**308, packet_size=10**295,
          per_flow_rate=1e308), "aggregate_rate"),
]


class TestTrafficProfile:
    def test_defaults_are_valid(self):
        TrafficProfile().validate(60)

    def test_elephant_fraction_out_of_range(self):
        with pytest.raises(InvalidProfile):
            TrafficProfile(elephant_fraction=1.5).validate(60)
        with pytest.raises(InvalidProfile):
            TrafficProfile(elephant_fraction=-0.1).validate(60)

    @pytest.mark.parametrize(
        "field",
        ["mice_size", "elephant_size", "aggregate_rate", "packet_size",
         "per_flow_rate"],
    )
    def test_non_positive_fields_rejected(self, field):
        with pytest.raises(InvalidProfile):
            TrafficProfile(**{field: 0}).validate(60)
        with pytest.raises(InvalidProfile):
            TrafficProfile(**{field: -1}).validate(60)

    @pytest.mark.parametrize("field", ["mice_size", "elephant_size"])
    def test_flow_packet_bound(self, field):
        # twice MAX_EXPECTED_FLOWS flows of the largest size sum below 2^63
        assert 2 * MAX_EXPECTED_FLOWS * MAX_FLOW_PACKETS < 2**63
        TrafficProfile(**{field: MAX_FLOW_PACKETS * 1500}).validate(60)
        with pytest.raises(InvalidProfile, match="packets"):
            TrafficProfile(**{field: MAX_FLOW_PACKETS * 1500 + 1}).validate(60)

    @pytest.mark.parametrize("field", ["aggregate_rate", "per_flow_rate"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_rates_rejected(self, field, value):
        # never generate a schedule here: an infinite rate never advances time
        with pytest.raises(InvalidProfile, match=field):
            TrafficProfile(**{field: value}).validate(60)

    def test_arrival_rate_of_zero_rejected(self):
        # 5e-324 bits/s over the default flows underflows to 0 arrivals per
        # second; 1e-310 stays above 0 and arrives no flow in 60 ticks
        with pytest.raises(InvalidProfile, match="aggregate_rate"):
            TrafficProfile(aggregate_rate=5e-324).validate(60)
        tiny = TrafficProfile(aggregate_rate=1e-310)
        tiny.validate(60)
        assert generate_schedule(tiny, 60, 20, 0).keys.tolist() == []

    @pytest.mark.parametrize("kwargs, field", PROFILES_BEYOND_FLOATS,
                             ids=[field for _, field in PROFILES_BEYOND_FLOATS])
    def test_sizes_beyond_floats_rejected(self, kwargs, field):
        with pytest.raises(InvalidProfile, match=field):
            TrafficProfile(**kwargs).validate(60)

    def test_expected_flows_capped_over_the_horizon(self):
        prof = TrafficProfile()
        horizon = int(MAX_EXPECTED_FLOWS / prof.arrival_rate())
        prof.validate(horizon)
        with pytest.raises(InvalidProfile, match="flows over %d ticks" % (horizon + 1)):
            prof.validate(horizon + 1)

    def test_sub_packet_rate_rejected(self):
        # 1000 bits/s over 1500-byte packets rounds to 0 packets per tick
        with pytest.raises(InvalidProfile):
            TrafficProfile(per_flow_rate=1000.0).validate(60)

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
            FlowSpec(id=fid(1), klass="walrus", size=1000, start=0)

    @pytest.mark.parametrize("size", [0, -5])
    def test_rejects_non_positive_size(self, size):
        with pytest.raises(ValueError):
            FlowSpec(id=fid(1), klass="mice", size=size, start=0)


class TestFlowSchedule:
    def test_rejects_unsorted_starts(self):
        a = FlowSpec(id=fid(1), klass="mice", size=3000, start=5)
        b = FlowSpec(id=fid(2), klass="mice", size=3000, start=2)
        with pytest.raises(ValueError):
            spec_schedule([a, b], 10, ONE_PPS)

    def test_rejects_start_at_horizon(self):
        a = FlowSpec(id=fid(1), klass="mice", size=3000, start=10)
        with pytest.raises(ValueError):
            spec_schedule([a], 10, ONE_PPS)

    def test_rejects_repeated_flow_id(self):
        # each flow has one rule and one pool record, so one entry
        a = FlowSpec(id=fid(1), klass="mice", size=3000, start=2)
        b = FlowSpec(id=fid(1), klass="elephant", size=4500, start=5)
        with pytest.raises(ValueError, match="flow key repeats"):
            spec_schedule([a, b], 10, ONE_PPS)
        # not adjacent in schedule order
        c = FlowSpec(id=fid(0), klass="mice", size=3000, start=3)
        with pytest.raises(ValueError, match="flow key repeats"):
            spec_schedule([a, c, b], 10, ONE_PPS)

    def test_rejects_flow_above_max_flow_packets(self):
        # the int64 columns hold every flow up to the bound, a partial last
        # packet counting whole
        at_bound = FlowSpec(id=fid(1), klass="mice", size=MAX_FLOW_PACKETS * 1500, start=0)
        sched = spec_schedule([at_bound], 10, ONE_PPS)
        assert sched.packets.tolist() == [MAX_FLOW_PACKETS]
        above = dataclasses.replace(at_bound, size=MAX_FLOW_PACKETS * 1500 + 1)
        with pytest.raises(ValueError, match="exceeds"):
            spec_schedule([above], 10, ONE_PPS)

    def test_rejects_packets_column_above_max_flow_packets(self):
        # the constructor checks the packets column itself, whatever
        # computed it
        with pytest.raises(ValueError, match="exceeds"):
            FlowSchedule(keys_of([fid(1), fid(2)]), [0, 1], [False, True],
                         [1, MAX_FLOW_PACKETS + 1], 10, ONE_PPS)

    @pytest.mark.parametrize("packets", [[2**63], [1, 2**63], [2**64]])
    def test_rejects_packets_column_above_int64(self, packets):
        # refused by the constructor's own bound, not by the int64 conversion
        n = len(packets)
        with pytest.raises(ValueError, match="exceeds"):
            FlowSchedule(keys_of([fid(i) for i in range(n)]), list(range(n)), [False] * n,
                         packets, 10, ONE_PPS)

    def test_rejects_horizon_above_max_horizon(self):
        # a flow at the packet bound starting on the last tick drains by
        # tick MAX_HORIZON + MAX_FLOW_PACKETS, still an int64
        last = MAX_HORIZON - 1
        sched = FlowSchedule(keys_of([fid(1)]), [last], [True], [MAX_FLOW_PACKETS], MAX_HORIZON,
                             ONE_PPS)
        assert emission_extent(sched) == last + MAX_FLOW_PACKETS
        with pytest.raises(ValueError, match="horizon exceeds"):
            FlowSchedule(keys_of([fid(1)]), [2**63 - 2], [True], [MAX_FLOW_PACKETS], 2**63 - 1,
                         ONE_PPS)

    def test_flows_view_sizes_are_packets_in_bytes(self):
        # the product is exact past int64: packet_size has no upper bound
        profile = dataclasses.replace(ONE_PPS, packet_size=2**40)
        sched = FlowSchedule(keys_of([fid(1), fid(2)]), [0, 1], [True, False],
                             [MAX_FLOW_PACKETS, 1], 10, profile)
        assert [f.size for f in sched.flows] == [MAX_FLOW_PACKETS * 2**40, 2**40]
        assert [f.klass for f in sched.flows] == ["elephant", "mice"]


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
        fields = [key_fields(k) for k in ids]
        assert all(src != dst and max(src, dst) < 20 for src, dst, _, _ in fields)
        assert all(1024 <= port for _, _, *ports in fields for port in ports)

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

    def test_host_bound_is_max_hosts(self):
        # every host must fit a flow key's 16-bit field
        sched = generate_schedule(REFERENCE_TRAFFIC, horizon=60, n_hosts=2**16, seed=0)
        assert sched.keys.dtype == np.uint64 and len(sched.keys) > 0
        with pytest.raises(ValueError, match="65536 hosts"):
            generate_schedule(REFERENCE_TRAFFIC, horizon=60, n_hosts=2**16 + 1, seed=0)

    def test_top_host_key_is_unsigned(self):
        # a src host of 65,535 sets the key's top bit, which an int64 column
        # would wrap to a negative number
        top = flow_key(65535, 0, 1024, 1024)
        sched = hand_schedule([(top, "mice", 3000, 0), (fid(1), "mice", 3000, 1)], 10)
        assert sched.keys.dtype == np.uint64 and sched.keys[0] >= 2**63
        assert [f.id for f in sched.flows] == [top, fid(1)]
        assert packets_for_tick(sched, 1) == [(top, 1), (fid(1), 1)]


# (profile, n_hosts, seed, flows, SHA-256 of the flows' (src, dst, sport,
# dport, class, size, start) rows) over a 60-tick horizon, as
# Generator.integers drew the hosts and ports. Two hosts make the dst
# draw's range 1, which takes no draw; 65,536 is ExperimentConfig's most.
PINNED_SCHEDULES = [
    ("reference", 2, 0, 136, "5203ff5b34e5367fbda6ffeb5c0dc091fcc374fe0ffcb34b19165aa80f0a32b2"),
    ("reference", 2, 1, 169, "c48514b776cb6c2f3162b45fbd69376af5e06eaff2ac6eb959f8b84bee6d5c86"),
    ("reference", 20, 0, 145, "d66dbf0e8ce2dd0ce2082757c9cf5dc592607f539a8356e624b7f08c21d4cf27"),
    ("reference", 20, 1, 135, "458158ecbfc0a84690109c10ca7acd3b41318ef53b0c5cc3975490a0f8a37d62"),
    ("reference", 65536, 0, 145, "fc3d0d090954cee2297384f9b980d36131f4386ce61438ee2d6cf1eda3afd416"),
    ("reference", 65536, 1, 135, "8383879fa12c5f79357261cfac2e809572af7e2588c6b2d903c896054429e9b1"),
    ("contended", 2, 0, 1477, "0f1b228e86787954b9294f02ef034541fcc0084f555ecc0128055516d3566976"),
    ("contended", 2, 1, 1526, "96f3271ccdac420926992acd927a6201936c3403261b35c06ece0d7b09a73b20"),
    ("contended", 20, 0, 1481, "c9d85b330a44f749d79b8e228a7feabb834d8e76fd4e810eae360ec0f5b65615"),
    ("contended", 20, 1, 1463, "5f70445a066b17f5dae6e9bf58328a1a6913b699fbce91571ef1d12204f28fd8"),
    # a port half that Lemire's rule rejects: drawn flow by flow
    ("contended", 20, 21, 1455, "2d71845a27b659fd66cb8934df2e3e6c401753e84aba05c63d63901588a83719"),
    ("contended", 65536, 0, 1481, "c7aa828ea2861b8abd88581beda62c3f3a8aa9a1f4c0dbbad4eb42d3cd25acbe"),
    ("contended", 65536, 1, 1463, "029a22dad9ae24dae2a1921b02ec155d3f0cac9bc0680783d22463752ffd0e56"),
    ("paper", 2, 0, 768, "0aedf80b77e067b6bb7e02c00fda6c4029cbfe468f2912d9902b4f8dcc014474"),
    ("paper", 2, 1, 858, "4fa54dbdc4ccb0731d4797e042326291ab6824688ed500e56d68c0b0a4432a1a"),
    ("paper", 20, 0, 802, "a41d7306d9161ecb7fb7fa74d96b5b0211a283be9601a3ea4ad3e6e61d60031e"),
    ("paper", 20, 1, 753, "b097a010cde395bc29be5213f89cced37cbe8b5382a36f5e092fc3cd5151c912"),
    ("paper", 65536, 0, 802, "cbdd6787ba6a3614e5f30c50ad527e63baa3233ce023f1f20b8f3910f81e6302"),
    ("paper", 65536, 1, 753, "6ce28d4059682b386a0b1e2447d4a34c6aa90eeaa2ad64e0066ee59c44b060db"),
]
PIN_PROFILES = {
    "reference": REFERENCE_TRAFFIC,
    "contended": dataclasses.replace(REFERENCE_TRAFFIC, aggregate_rate=5_400_000.0),
    "paper": TrafficProfile(),
}


@pytest.mark.parametrize("profile, n_hosts, seed, flows, digest", PINNED_SCHEDULES,
                         ids=["%s-%d-%d" % pin[:3] for pin in PINNED_SCHEDULES])
def test_schedule_pinned(profile, n_hosts, seed, flows, digest):
    sched = generate_schedule(PIN_PROFILES[profile], 60, n_hosts, seed)
    rows = [(*key_fields(f.id), f.klass, f.size, f.start) for f in sched.flows]
    assert len(rows) == flows
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


# seeds whose schedules the column decode cannot serve: a contended flow
# draws a rejected half at each, a reference flow at 21 and 227
DECODE_REJECTING_SEEDS = (21, 66, 227)


@pytest.mark.parametrize("n_hosts", [2, 3, 20, 65536])
@pytest.mark.parametrize("profile", sorted(PIN_PROFILES))
def test_schedule_equals_per_flow_draws(profile, n_hosts):
    for seed in (*range(6), *DECODE_REJECTING_SEEDS):
        sched = generate_schedule(PIN_PROFILES[profile], 60, n_hosts, seed)
        keys, starts, elephant = traffic._draw_flows(PIN_PROFILES[profile], 60, n_hosts, seed)
        assert sched.keys.tolist() == keys, seed
        assert sched.starts.tolist() == starts, seed
        assert sched.elephant.tolist() == elephant, seed


def test_rejecting_seeds_take_the_per_flow_draws():
    contended = PIN_PROFILES["contended"]
    for seed in DECODE_REJECTING_SEEDS:
        assert traffic._decode_flows(contended, 60, 20, seed) is None, seed


def test_contended_seed_0_is_decoded(monkeypatch):
    # a decode that always fell back would keep every schedule's bytes
    def refuse(*args):
        raise AssertionError("drew the schedule flow by flow")
    monkeypatch.setattr(traffic, "_draw_flows", refuse)
    assert len(generate_schedule(PIN_PROFILES["contended"], 60, 20, 0).keys) == 1481


# 2**31 + 1 rejects about half its draws, so the redraw loop runs and can
# leave an odd high half for the next draw; 2**32 is the widest range.
BELOW_RANGES = (1, 2, 19, 20, 64512, 65536, 2**31 + 1, 2**32 - 1, 2**32)


def test_live_draws_equal_generator_calls():
    # the schedule's draws: live WordDraws between the twin's own exponential
    # draws, and its random() from the live draws on odd seeds, the twin on even
    for seed in range(240):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = WordDraws.live(twin)
        random = draws.random if seed % 2 else twin.random
        order = np.random.default_rng([seed, 1])
        for _ in range(40):
            op = int(order.integers(len(BELOW_RANGES) + 2))
            if op == len(BELOW_RANGES):
                # generate_schedule scales standard_exponential by the mean gap
                assert rng.exponential(2.5) == twin.standard_exponential() * 2.5, seed
            elif op == len(BELOW_RANGES) + 1:
                assert rng.random() == random(), seed
            else:
                n = BELOW_RANGES[op]
                assert int(rng.integers(0, n)) == draws.below(n), (seed, n)
        # both have taken the same 64-bit words
        assert rng.bit_generator.random_raw() == twin.bit_generator.random_raw(), seed


class TestPacketsForTick:
    def test_small_flow_drains_on_first_tick(self):
        # a 262144-byte mouse is 175 packets; at 833 packets/tick it all
        # goes out on the start tick
        prof = TrafficProfile()
        spec = FlowSpec(id=fid(1), klass="mice", size=prof.mice_size, start=0)
        sched = spec_schedule([spec], 10, prof)
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
