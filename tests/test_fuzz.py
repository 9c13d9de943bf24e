"""Run-level fuzz: whole experiments on configs with log-scale extremes in
every numeric field, traffic included, and small episode caps. Each run
must finish within a time bound or raise ValidationError, and the counts
it reports must equal the exact ones, summed in Python ints over the
flows select_rules places (so a wrapped int64 sum cannot pass)."""
import dataclasses
import functools
import math
import signal

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from flowrl import harness
from flowrl.harness import (
    MAX_HOSTS, MAX_WINDOW, MODES, ExperimentConfig, ValidationError, run_experiment,
)
from flowrl.model import ENTRY_BITS, FREQ_GRID, PARAM_MODES, REC_GRID
from flowrl.traffic import MAX_FLOW_PACKETS, TrafficProfile
from conftest import CROWDED_DAY_MBF_CONFIG, SLOW_MBF_CONFIG
from reference import episode_packets, key_fields

# seconds one example may take: its run plus the exact recount
ALARM_S = 30


class Overrun(Exception):
    pass


def log_ints(top, least=0):
    """Ints spread over [least, 10**top] in log scale, with the neighbours
    of each power of ten."""
    around = st.integers(0, top).flatmap(
        lambda e: st.sampled_from([10**e - 1, 10**e, 10**e + 1]))
    between = st.integers(0, top - 1).flatmap(lambda e: st.integers(10**e, 10**(e + 1)))
    return st.one_of(around, between).map(lambda v: max(v, least))


def log_floats(lo, hi):
    """Floats spread over [10**lo, 10**hi] in log scale, eight steps a
    decade (integer exponents spread wider than float ones)."""
    return st.integers(round(lo * 8), round(hi * 8)).map(lambda k: 10.0 ** (k / 8))


# values past the bound of a field: the bounds that keep a run's work
# finite and its counts in int64, and non-finite floats; an example bends
# at most one field
BEYOND = {
    "episodes_cap": [10**12],
    "n_training_sets": [10**11],
    "orchestration_window": [MAX_WINDOW + 1],
    "n_hosts": [MAX_HOSTS + 1],
    "seed": [-1],
    "goal_mu": [1.0, math.nan],
    "table_capacity_bits": [-1],
    "aggregate_rate": [math.inf, math.nan],
    "per_flow_rate": [math.inf, math.nan],
}
TRAFFIC_FIELDS = {f.name for f in dataclasses.fields(TrafficProfile)}


# packets per flow: many decades below the bound, the bound, and past it
FLOW_PACKETS = st.one_of(log_ints(13, least=1),
                         st.sampled_from([MAX_FLOW_PACKETS, MAX_FLOW_PACKETS + 1, 10**19]))


@st.composite
def traffic_profiles(draw, window):
    """Profiles drawn in the units the run counts, each over many decades:
    bytes per packet, packets per flow, the ticks the larger flow takes to
    drain, and the flows expected over the window."""
    packet_size = draw(log_ints(6, least=1))
    mice, elephant = draw(FLOW_PACKETS), draw(FLOW_PACKETS)
    fraction = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)))
    per_tick = max(mice, elephant) / draw(log_floats(-1, 8))
    profile = TrafficProfile(fraction, mice * packet_size, elephant * packet_size, 1.0,
                             packet_size, per_tick * packet_size * 8)
    flows = draw(log_floats(-1, 5.2))
    return dataclasses.replace(profile,
                               aggregate_rate=flows / window * profile.mean_flow_bits())


@st.composite
def configs(draw):
    window = draw(st.one_of(log_ints(4, least=1), st.integers(10**4, MAX_WINDOW)))
    cfg = ExperimentConfig(
        mode=draw(st.sampled_from(MODES)),
        seed=draw(log_ints(20)),
        episodes_cap=draw(st.integers(1, 5)),
        goal_mu=draw(st.one_of(st.floats(0, 1, exclude_min=True, exclude_max=True),
                               st.sampled_from([1e-300, 1 - 1e-16]))),
        table_capacity_bits=draw(log_ints(20)),
        orchestration_window=window,
        n_hosts=draw(st.one_of(log_ints(4, least=2), st.just(MAX_HOSTS))),
        replay_lag=draw(log_ints(12)),
        qtable_init=draw(st.sampled_from(["random", "from_training"])),
        n_training_sets=draw(st.integers(1, 2)),
        param_mode=draw(st.sampled_from(PARAM_MODES)),
        initial_freq=draw(st.sampled_from(FREQ_GRID)),
        initial_rec=draw(st.sampled_from(REC_GRID)),
        traffic=draw(traffic_profiles(window)),
    )
    field = draw(st.sampled_from([None] * len(BEYOND) + sorted(BEYOND)))
    if field is None:
        return cfg
    value = draw(st.sampled_from(BEYOND[field]))
    if field in TRAFFIC_FIELDS:
        return dataclasses.replace(cfg, traffic=dataclasses.replace(cfg.traffic, **{field: value}))
    return dataclasses.replace(cfg, **{field: value})


def exact_misses(env, packets, total):
    """misses(f, r, param_mode): the misses of select_rules' placement at
    (f, r), summed in Python ints. The pool is ranked once, as select_rules
    ranks it; a cell places the first eligible flows that fit."""
    close = env.window_close
    order = sorted(env.pool.records.items(), key=lambda item: (
        -item[1].freq, close - item[1].last_seen, key_fields(item[0])))
    ranked = [(r.freq, close - r.last_seen, packets.get(f, 0)) for f, r in order]
    limit = env.capacity_bits // ENTRY_BITS

    @functools.cache
    def misses(f, r, param_mode):
        hits = placed = 0
        for freq, recentness, flow_packets in ranked:
            if placed == limit:
                break
            if ((param_mode != "recentness_only" and freq >= f)
                    or (param_mode != "freq_only" and recentness <= r)):
                placed += 1
                hits += flow_packets
        return total - hits

    return misses


def check_counts(cfg, report, env):
    """The report's counts against an exact recount of the workload of
    env, the environment the run built."""
    packets = episode_packets(env.eval_schedule)
    total = sum(packets.values())
    summary = report.summary
    if cfg.mode == "mbf":
        assert summary["hits"] + summary["misses"] == total
        return
    if cfg.mode == "oracle":
        assert 0 <= summary["objective"] <= total
        assert summary["n_rules"] == len(env.pool)
        return
    misses = exact_misses(env, packets, total)
    subs = report.subreports.values() if cfg.mode == "significance" else [report]
    for sub in subs:
        pm = sub.config.param_mode
        s = sub.summary
        assert s["initial_overhead"] == misses(cfg.initial_freq, cfg.initial_rec, pm)
        assert s["best_overhead"] == misses(s["best_freq_thr"], s["best_rec_thr"], pm)
        for row in sub.rows:
            assert row.misses == misses(row.freq_thr, row.rec_thr, pm)
            assert row.hits + row.misses == total


def _overrun(signum, frame):
    raise Overrun("example ran past %d s" % ALARM_S)


@pytest.fixture
def built_envs(monkeypatch):
    """The environments run_experiment builds, with an alarm handler set."""
    envs = []
    build = harness._build_env
    monkeypatch.setattr(harness, "_build_env", lambda cfg: envs.append(build(cfg)) or envs[-1])
    previous = signal.signal(signal.SIGALRM, _overrun)
    yield envs
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


# the runs the input bounds exist for: 599 flows of up to 6e18 episode
# packets each, whose landscape sums wrapped int64, 10**11 training sets, and
# two MBF episodes of 16 s and of hours
WRAPPING_TRAFFIC = TrafficProfile(mice_size=10**19, elephant_size=10**19, packet_size=1,
                                  per_flow_rate=8e17, aggregate_rate=8e20)


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=configs())
@example(cfg=ExperimentConfig(traffic=WRAPPING_TRAFFIC))
@example(cfg=ExperimentConfig(n_training_sets=10**11))
@example(cfg=SLOW_MBF_CONFIG)
@example(cfg=CROWDED_DAY_MBF_CONFIG)
def test_runs_finish_or_refuse_their_config(built_envs, cfg):
    signal.alarm(ALARM_S)
    try:
        try:
            report = run_experiment(cfg)
        except ValidationError:
            return
        check_counts(cfg, report, built_envs[-1])
    finally:
        signal.alarm(0)
