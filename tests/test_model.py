import dataclasses

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from flowrl.dqn import MalformedNetwork, Mlp
from flowrl.harness import (
    REFERENCE_TRAFFIC, ExperimentConfig, ParseError, _build_env, load_config, save_config,
)
from flowrl.model import (
    ENTRY_BITS,
    MAX_TEXT_CHARS,
    CapacityExceeded,
    DuplicateRule,
    FlowPool,
    FlowRule,
    FlowTable,
    MAX_HOSTS,
    PoolRecord,
    ThresholdConfig,
    flow_key,
    key_text,
    select_rules,
)
from flowrl.qlearn import MalformedQTable, QTable

from conftest import fid, hand_pool, keys_of
from reference import key_fields

# loader -> (write a file it loads, the loader, its error type)
LOADERS = {
    "load_config": (lambda path: save_config(ExperimentConfig(), path), load_config,
                    ParseError),
    "QTable.load": (lambda path: QTable.random(np.random.default_rng(0)).save(path),
                    QTable.load, MalformedQTable),
    "Mlp.load": (lambda path: Mlp.random(np.random.default_rng(0)).save(path), Mlp.load,
                 MalformedNetwork),
}


@pytest.mark.parametrize("name", LOADERS)
def test_loader_reads_at_most_max_text_chars(tmp_path, name):
    save, load, error = LOADERS[name]
    path = tmp_path / "file"
    save(path)
    text = path.read_text()
    # a last line of spaces, blank to every loader, fills the file to the bound
    with open(path, "a") as fh:
        fh.write(" " * (MAX_TEXT_CHARS - len(text)))
    load(path)
    with open(path, "a") as fh:
        fh.write(" ")
    with pytest.raises(error, match="^line %d: the file is longer than %d characters$"
                       % (text.count("\n") + 1, MAX_TEXT_CHARS)):
        load(path)


class TestFlowId:
    """A flow's identity is its key: flow_key refuses what names no flow."""

    def test_same_hosts_rejected(self):
        with pytest.raises(ValueError, match="must differ"):
            flow_key(1, 1, 1024, 1024)
        with pytest.raises(ValueError, match="must differ"):
            flow_key(MAX_HOSTS - 1, MAX_HOSTS - 1, 1024, 1024)

    def test_port_range_rejected(self):
        for ports in ((0, 1024), (1024, 0), (65536, 1024), (1024, 65536)):
            with pytest.raises(ValueError, match=r"ports must be in \[1, 65535\]"):
                flow_key(0, 1, *ports)

    def test_ordering_is_field_tuple_order(self):
        a = flow_key(0, 1, 1024, 1024)
        b = flow_key(0, 1, 1024, 1025)
        c = flow_key(0, 2, 1024, 1024)
        assert a < b < c

    def test_every_construction_is_checked(self):
        # by keyword as by position; the ends of the port range are flows
        with pytest.raises(ValueError):
            flow_key(src_host=2, dst_host=2, src_port=1024, dst_port=1024)
        with pytest.raises(ValueError):
            flow_key(src_host=0, dst_host=1, src_port=1024, dst_port=0)
        assert flow_key(0, 1, 1, 65535) < flow_key(0, 1, 65535, 1)

    def test_text_token(self):
        # the text MBF hashes: the four fields and the protocol
        assert key_text(flow_key(0, 1, 1024, 2024)) == "0-1-1024-2024-tcp"
        assert key_text(flow_key(65535, 65534, 65535, 1)) == "65535-65534-65535-1-tcp"

    def test_is_the_tuple_of_its_fields(self):
        key = flow_key(0, 1, 1024, 2024)
        assert key_fields(key) == (0, 1, 1024, 2024)
        assert key == flow_key(*key_fields(key))
        assert key_text(key) == "%d-%d-%d-%d-tcp" % key_fields(key)

    def test_sorted_pool_is_the_field_order(self):
        # the contended seed-0 pool (about 1,480 flows): sorting the keys
        # gives the order of the four fields, as an explicit key spells out
        cfg = ExperimentConfig(
            mode="oracle", seed=0, table_capacity_bits=64 * ENTRY_BITS,
            traffic=dataclasses.replace(REFERENCE_TRAFFIC, aggregate_rate=5.4e6),
        )
        pool = _build_env(cfg).pool
        assert len(pool) > 1000
        assert sorted(pool.records) == sorted(pool.records, key=key_fields)


HOSTS = st.integers(0, MAX_HOSTS - 1)
PORTS = st.integers(1, 65535)
FLOW_FIELDS = st.tuples(HOSTS, HOSTS, PORTS, PORTS).filter(lambda f: f[0] != f[1])
# the largest host sets the key's top bit, which an int64 could not hold
EDGE_FLOWS = [(65535, 0, 1, 1), (65534, 65535, 65535, 65535), (0, 1, 1, 1)]


class TestFlowKey:
    @given(st.lists(FLOW_FIELDS, min_size=1, max_size=8))
    @example(EDGE_FLOWS)
    def test_round_trip_and_order(self, fields):
        keys = keys_of(flow_key(*f) for f in fields)
        assert [key_fields(k) for k in keys.tolist()] == fields
        # the keys' numeric order, as a uint64 column, is the fields' tuple order
        assert [fields[i] for i in np.argsort(keys, kind="stable")] == sorted(fields)
        assert [key_text(k) for k in keys.tolist()] == ["%d-%d-%d-%d-tcp" % f for f in fields]

    def test_layout(self):
        assert flow_key(1, 2, 3, 4) == 1 << 48 | 2 << 32 | 3 << 16 | 4
        assert flow_key(65535, 0, 1, 1) == 0xFFFF_0000_0001_0001

    @pytest.mark.parametrize("hosts", [(2**16, 0), (0, 2**16), (-1, 0), (0, 2**32)],
                             ids=["src-at-the-bound", "dst-at-the-bound", "negative", "wide"])
    def test_hosts_from_max_hosts_refused(self, hosts):
        # a dst host of 2**16 would spill into the src field: the flows
        # (0, 65536, ...) and (1, 0, ...) would then share a key
        assert flow_key(2**16 - 1, 0, 1, 1) >> 48 == 2**16 - 1
        with pytest.raises(ValueError, match="hosts"):
            flow_key(*hosts, 1024, 1024)


class TestFlowTable:
    def test_duplicate_insert_rejected(self):
        t = FlowTable(2 * ENTRY_BITS)
        t.insert(FlowRule(id=fid(1), install_time=0))
        # the message names the flow by its text
        with pytest.raises(DuplicateRule, match="^0-1-1025-2025-tcp$"):
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
        pool = FlowPool(keys_of([fid(1)]), now=np.array([3]), counts=np.array([1]))
        assert pool.records[fid(1)] == PoolRecord(freq=1, last_seen=3)

    def test_distinct_flows_distinct_records(self):
        pool = FlowPool(keys_of([fid(1), fid(2)]), now=np.array([0, 0]),
                        counts=np.array([1, 1]))
        assert len(pool) == 2

    def test_batched_count(self):
        pool = FlowPool(keys_of([fid(1)]), now=np.array([2]), counts=np.array([7]))
        assert pool.records[fid(1)].freq == 7

    def test_records_view_is_the_per_flow_dict_built_once(self):
        pool = FlowPool(keys_of([fid(3), fid(1), fid(2)]), now=np.array([4, 0, 9]),
                        counts=np.array([2, 7, 1]))
        want = {fid(3): PoolRecord(freq=2, last_seen=4), fid(1): PoolRecord(freq=7, last_seen=0),
                fid(2): PoolRecord(freq=1, last_seen=9)}
        assert list(pool.records.items()) == list(want.items())
        assert all(type(v) is int for r in pool.records.values() for v in (r.freq, r.last_seen))
        assert pool.records is pool.records

    def test_count_must_be_positive(self):
        # one flow below 1 refuses the whole pool
        with pytest.raises(ValueError):
            FlowPool(keys_of([fid(1), fid(2)]), now=np.array([0, 0]), counts=np.array([1, 0]))


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
            select_rules(hand_pool({}), ThresholdConfig(0, 0), ENTRY_BITS, 0, "nope")

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
