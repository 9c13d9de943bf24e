"""The closed-form episode landscape against the packet-level reference:
every cell of EpisodeEnv equals run_episode over the select_rules placement;
and the learners' search on it, bound by the oracle and the grid minimum."""
import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowrl.baselines import knapsack_exact
from flowrl.harness import (
    EpisodeEnv, ExperimentConfig, _build_env, _oracle_instance, run_experiment,
)
from flowrl.model import (
    ENTRY_BITS,
    FREQ_GRID,
    REC_GRID,
    FlowId,
    FlowTable,
    ThresholdConfig,
    placement_landscape,
    select_rules,
)
from flowrl.simnet import run_episode
from conftest import ONE_PPS, fid, hand_pool, hand_schedule

PARAM_MODES = ("both", "freq_only", "recentness_only")
THREE_PPS = dataclasses.replace(ONE_PPS, per_flow_rate=36_000.0)
CELLS = [ThresholdConfig(f, r) for f in FREQ_GRID for r in REC_GRID]


def reference(env, thresholds):
    ruleset = select_rules(
        env.pool, thresholds, env.capacity_bits, env.window_close, env.param_mode
    )
    return run_episode(
        ruleset,
        env.eval_schedule,
        FlowTable(env.capacity_bits),
        duration=env.eval_schedule.horizon,
    )


@st.composite
def environments(draw):
    """Small hand-built pools and schedules over one set of flow ids, so
    that some pool flows never appear in the schedule and some scheduled
    flows were never observed; flow sizes run up to 30 packets against
    horizons of 1-12 ticks, so many flows drain past the horizon. Pool
    frequencies and recentness values sit on and beside grid points, so
    eligibility boundaries and rank ties come up often."""
    # ports and hosts disagree in order, so every FlowId field decides ties
    ids = [FlowId(i % 2, 2 + i % 3, 1031 - i, 1024 + i) for i in range(8)]
    window_close = draw(st.integers(0, 320))
    pool_ids = draw(st.lists(st.sampled_from(ids), max_size=8, unique=True))
    pool = hand_pool({
        f: (
            draw(st.sampled_from((1, 10, 11, 200))),
            window_close - min(window_close, draw(st.sampled_from((0, 10, 11, 300, 301)))),
        )
        for f in pool_ids
    })
    horizon = draw(st.integers(1, 12))
    specs = draw(st.lists(
        st.tuples(
            st.sampled_from(ids),
            st.sampled_from(("elephant", "mice")),
            st.integers(1, 30 * 1500),
            st.integers(0, horizon - 1),
        ),
        min_size=1,
        max_size=10,
    ))
    profile = draw(st.sampled_from((ONE_PPS, THREE_PPS)))
    capacity_bits = draw(st.integers(0, 3)) * ENTRY_BITS + draw(st.sampled_from((0, 1, 355)))
    eval_schedule = hand_schedule(specs, horizon, profile)
    param_mode = draw(st.sampled_from(PARAM_MODES))
    return EpisodeEnv(pool, eval_schedule, capacity_bits, window_close, param_mode)


@settings(max_examples=100)
@given(environments())
def test_every_cell_equals_packet_replay(env):
    for thresholds in CELLS:
        assert env.run(thresholds) == reference(env, thresholds)


def test_counts_are_python_ints():
    env = EpisodeEnv(
        hand_pool({fid(1): (30, 5)}), hand_schedule([(fid(1), "mice", 3000, 0)], 4),
        ENTRY_BITS, 5,
    )
    m = env.run(ThresholdConfig(0, 0))
    assert (m.overhead, m.hits, m.misses, m.total_lookups) == (0, 2, 0, 2)
    assert all(type(v) is int for v in (m.overhead, m.hits, m.misses, m.total_lookups))


def test_landscape_rejects_bad_inputs():
    pool = hand_pool({fid(1): (30, 9)})
    with pytest.raises(ValueError):
        placement_landscape(pool, {}, ENTRY_BITS, 8)
    with pytest.raises(ValueError):
        placement_landscape(pool, {}, ENTRY_BITS, 9, "neither")


@pytest.mark.parametrize("param_mode", PARAM_MODES)
def test_reference_workload_seed0_all_cells_and_oracle_binds(param_mode):
    # 8 entries: the evaluation flows do not all fit, so the oracle is positive
    cfg = ExperimentConfig(seed=0, table_capacity_bits=8 * ENTRY_BITS, param_mode=param_mode)
    env = _build_env(cfg)
    overheads = []
    for thresholds in CELLS:
        got = env.run(thresholds)
        assert got == reference(env, thresholds)
        overheads.append(got.overhead)
    inst, _ = _oracle_instance(env.pool, env.eval_schedule, cfg.table_capacity_bits)
    objective = knapsack_exact(inst).objective
    assert 0 < objective <= min(overheads)


# Measured at cap 300 on seeds 0-15 of the 8-entry reference, with mu 0.97
# above every reachable reduction so each run spends its whole cap: the ql
# run and significance's both and recentness_only runs reached their grid
# minimum on 16 of 16 seeds, and on 8 with the reward's sign flipped.
# freq_only is left out of the count: from f=130 it must cross a plateau
# of equal overheads down to f=40, and reached its minimum on 1 of 16.
# The dqn run, at cap 70, reached it on 13 of 16, and on 6 with the
# reward's sign flipped.
SEARCH_SEEDS = range(16)
SEARCH_MIN_REACHED = {"ql": 14, "both": 14, "recentness_only": 14, "dqn": 12}


def test_search_reaches_the_grid_minimum_and_never_beats_the_oracle():
    reached = Counter()
    for seed in SEARCH_SEEDS:
        cfg = ExperimentConfig(mode="ql", seed=seed, episodes_cap=300, goal_mu=0.97,
                               table_capacity_bits=8 * ENTRY_BITS)
        env = _build_env(cfg)
        inst, _ = _oracle_instance(env.pool, env.eval_schedule, cfg.table_capacity_bits)
        oracle = knapsack_exact(inst).objective
        assert oracle > 0
        summaries = {
            "ql": run_experiment(cfg).summary,
            "dqn": run_experiment(dataclasses.replace(cfg, mode="dqn", episodes_cap=70)).summary,
        }
        significance = run_experiment(dataclasses.replace(cfg, mode="significance"))
        summaries.update({pm: sub.summary for pm, sub in significance.subreports.items()})
        for name, summary in summaries.items():
            param_mode = "both" if name in ("ql", "dqn") else name
            grid = EpisodeEnv(env.pool, env.eval_schedule, env.capacity_bits,
                              env.window_close, param_mode)
            grid_min = min(grid.run(thresholds).overhead for thresholds in CELLS)
            assert summary["best_overhead"] >= grid_min >= oracle
            reached[name] += summary["best_overhead"] == grid_min
    for name, least in SEARCH_MIN_REACHED.items():
        assert reached[name] >= least, (name, reached[name])
