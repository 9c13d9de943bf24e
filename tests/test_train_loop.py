"""Tests for the goal-driven training loop both learners share, driven by
a scripted policy on a programmable landscape (no simulator), and the
tabular run checked against a loop of the public Q-learning functions."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowrl.model import FREQ_GRID, GRID_STEP, REC_GRID, ThresholdConfig
from flowrl.qlearn import (
    GRID_STATES,
    N_ACTIONS,
    Action,
    AgentConfig,
    QTable,
    TraceRow,
    TrainResult,
    apply_action,
    decay_epsilon,
    epsilon_greedy_select,
    q_train,
    q_update,
    train,
)
from flowrl.simnet import BestSoFar, compute_reward, hit_ratio, reduction_fraction
from conftest import FakeEnv

START = ThresholdConfig(100, 100)


class ScriptedPolicy:
    """Plays IncFreq forever and records every call in order, with the
    grid indices it is handed mapped back to their states."""

    def __init__(self):
        self.calls = []

    def greedy(self, fi, ri):
        self.calls.append(("greedy", GRID_STATES[fi][ri]))
        return Action.IncFreq

    def learn(self, fi, ri, action, reward, nfi, nri, rng):
        self.calls.append(("learn", GRID_STATES[fi][ri], action, reward,
                           GRID_STATES[nfi][nri], rng))

    def of(self, kind):
        return [c for c in self.calls if c[0] == kind]


def sequence_env(overheads):
    """Episode k (0 = the initial state) has overheads[k]."""
    it = iter(overheads)
    return FakeEnv(lambda f, r: next(it))


def test_select_and_learn_alternate_once_per_step():
    policy = ScriptedPolicy()
    rng = np.random.default_rng(0)
    cfg = AgentConfig(epsilon0=0.0, budget=5)
    res = train(FakeEnv(lambda f, r: 50), policy, cfg, START, rng)
    assert [c[0] for c in policy.calls] == ["greedy", "learn"] * 5
    state = START
    for greedy, learn in zip(policy.of("greedy"), policy.of("learn")):
        assert greedy[1] == state
        assert learn[1] == state and learn[2] is Action.IncFreq and learn[5] is rng
        state = apply_action(state, Action.IncFreq)
        assert learn[4] == state
    assert [row.freq_thr for row in res.trace] == [100, 110, 120, 130, 140, 150]


def test_learn_sees_reward_against_updated_best():
    # best: 100 -> 80 -> 80 -> 80 -> 70 -> 70; the second 80 earns 0, not +1
    policy = ScriptedPolicy()
    cfg = AgentConfig(budget=5, goal_mu=0.9)
    res = train(sequence_env([100, 80, 80, 90, 70, 70]), policy, cfg, START)
    assert [c[3] for c in policy.of("learn")] == [1, 0, -1, 1, 0]
    assert [row.reward for row in res.trace[1:]] == [1, 0, -1, 1, 0]
    assert res.best.best_overhead == 70


def test_goal_at_step_k_stops_there():
    policy = ScriptedPolicy()
    env = sequence_env([100, 90, 90, 50] + [10] * 10)
    res = train(env, policy, AgentConfig(epsilon0=0.0, budget=10, goal_mu=0.4), START)
    assert res.episodes_run == 3
    assert res.goal_met
    assert len(res.trace) == 4
    assert [c[0] for c in policy.calls] == ["greedy", "learn"] * 3
    assert env.calls == 4


def test_cap_returns_budget_without_goal():
    policy = ScriptedPolicy()
    res = train(FakeEnv(lambda f, r: 50), policy, AgentConfig(budget=7), START)
    assert res.episodes_run == 7
    assert res.goal_met is False
    assert len(res.trace) == 8


@pytest.mark.parametrize("decay", [True, False])
def test_epsilon_decays_only_when_enabled(decay):
    cfg = AgentConfig(budget=6, epsilon0=0.8, epsilon_decay=decay)
    res = train(FakeEnv(lambda f, r: 50), ScriptedPolicy(), cfg, START)
    expected = []
    eps = 0.8
    for step in range(6):
        expected.append(eps)
        if decay:
            eps = decay_epsilon(eps, step, 6)
    assert [row.epsilon for row in res.trace[1:]] == expected
    assert (expected[-1] < 0.8) is decay


@pytest.mark.parametrize("epsilon0,greedy_calls", [(1.0, 0), (0.0, 8)])
def test_greedy_only_when_not_exploring(epsilon0, greedy_calls):
    # rng.random() < 1.0 always explores; < 0.0 never does
    policy = ScriptedPolicy()
    cfg = AgentConfig(budget=8, epsilon0=epsilon0, epsilon_decay=False)
    train(FakeEnv(lambda f, r: 50), policy, cfg, START)
    assert len(policy.of("greedy")) == greedy_calls
    assert len(policy.of("learn")) == 8


def test_zero_overhead_baseline_never_calls_the_policy():
    policy = ScriptedPolicy()
    env = FakeEnv(lambda f, r: 0)
    res = train(env, policy, AgentConfig(budget=5), START)
    assert policy.calls == []
    assert res.episodes_run == 0
    assert res.goal_met
    assert len(res.trace) == 1
    assert env.calls == 1


def test_untraced_run_builds_no_rows_and_ends_alike():
    cfg = AgentConfig(epsilon0=0.0, budget=10, goal_mu=0.4)
    overheads = [100, 90, 90, 50] + [10] * 10
    traced = train(sequence_env(overheads), ScriptedPolicy(), cfg, START)
    policy = ScriptedPolicy()
    bare = train(sequence_env(overheads), policy, cfg, START, trace=False)
    assert bare.trace is None
    assert (bare.episodes_run, bare.goal_met, bare.best) == (
        traced.episodes_run, traced.goal_met, traced.best)
    assert [c[0] for c in policy.calls] == ["greedy", "learn"] * 3


# -- the index walk against a loop of the public functions --------------------
#
# The reference is the tabular run as the public functions define it: one
# epsilon_greedy_select, decay_epsilon, apply_action, env.run,
# compute_reward and q_update per episode, on ThresholdConfig states and the
# QTable's numpy rows. q_train must leave the same rows, table bytes, best,
# stop and rng state.


def ref_row(episode, metrics, state, reward, eps, initial):
    red = reduction_fraction(initial, metrics.overhead) if initial else 0.0
    return TraceRow(episode, metrics.overhead, metrics.hits, metrics.misses,
                    hit_ratio(metrics), red, state.freq_threshold,
                    state.recentness_threshold, reward, eps)


def ref_q_train(env, q, cfg, initial_state, rng):
    state = initial_state
    m0 = env.run(state)
    initial = m0.overhead
    best = BestSoFar(initial, state, m0)
    trace = [ref_row(0, m0, state, 0, cfg.epsilon0, initial)]
    if initial == 0:
        return TrainResult(0, best, True, trace)
    eps = cfg.epsilon0
    for step in range(cfg.budget):
        action = epsilon_greedy_select(q, state, eps, rng)
        eps_used = eps
        if cfg.epsilon_decay:
            eps = decay_epsilon(eps, step, cfg.budget)
        next_state = apply_action(state, action)
        metrics = env.run(next_state)
        reward = compute_reward(best, metrics.overhead, next_state, metrics)
        q_update(q, state, action, reward, next_state, cfg)
        trace.append(ref_row(step + 1, metrics, next_state, reward, eps_used, initial))
        state = next_state
        if reduction_fraction(initial, best.best_overhead) > cfg.goal_mu:
            return TrainResult(step + 1, best, True, trace)
    return TrainResult(cfg.budget, best, False, trace)


SHAPE = (len(FREQ_GRID), len(REC_GRID))


def grid_index(last):
    """Mostly a grid edge or its neighbour, where the clamp acts."""
    return st.sampled_from([0, 1, last - 1, last]) | st.integers(0, last)


@st.composite
def landscapes(draw):
    """An overhead per grid cell: few distinct values (many equal cells,
    so many 0 rewards), a bowl around a random cell, or a flat grid that
    may be 0."""
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(["few", "bowl", "flat"]))
    gen = np.random.default_rng(seed)
    if kind == "few":
        return gen.integers(40, 40 + draw(st.integers(1, 4)), size=SHAPE)
    if kind == "bowl":
        f0, r0 = gen.integers(0, SHAPE[0]), gen.integers(0, SHAPE[1])
        fi, ri = np.indices(SHAPE)
        return 10 + np.abs(fi - f0) + np.abs(ri - r0)
    return np.full(SHAPE, draw(st.sampled_from([0, 50])))


@st.composite
def qtables(draw):
    """Uniform random rows, or tie-heavy ones: all equal, or two values."""
    gen = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["random", "zeros", "two-valued"]))
    if kind == "random":
        return QTable.random(gen)
    if kind == "zeros":
        return QTable()
    return QTable(gen.integers(0, 2, size=SHAPE + (N_ACTIONS,)) * 0.5)


def grid_env(grid):
    return FakeEnv(lambda f, r: grid[f // GRID_STEP, r // GRID_STEP], total=200)


@settings(max_examples=300)
@given(
    grid=landscapes(),
    q=qtables(),
    start=st.tuples(grid_index(SHAPE[0] - 1), grid_index(SHAPE[1] - 1)),
    budget=st.sampled_from([1, 2]) | st.integers(1, 80),
    epsilon0=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    decay=st.booleans(),
    goal_mu=st.sampled_from([0.05, 0.4, 0.97]),
    alpha=st.sampled_from([0.1, 0.5, 1.0]),
    gamma=st.sampled_from([0.0, 0.95, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_index_walk_matches_public_function_loop(grid, q, start, budget, epsilon0, decay,
                                                 goal_mu, alpha, gamma, seed):
    cfg = AgentConfig(alpha=alpha, gamma=gamma, epsilon0=epsilon0, budget=budget,
                      goal_mu=goal_mu, epsilon_decay=decay)
    state = GRID_STATES[start[0]][start[1]]
    ref_q, lean_q, bare_q = QTable(q.rows), QTable(q.rows), q
    ref_rng, lean_rng, bare_rng = (np.random.default_rng(seed) for _ in range(3))
    ref = ref_q_train(grid_env(grid), ref_q, cfg, state, ref_rng)
    lean = q_train(grid_env(grid), lean_q, cfg, state, lean_rng)
    bare = q_train(grid_env(grid), bare_q, cfg, state, bare_rng, trace=False)
    assert lean.trace == ref.trace
    assert np.array(lean_q.rows).tobytes() == np.array(ref_q.rows).tobytes()
    assert lean.best == ref.best
    assert (lean.episodes_run, lean.goal_met) == (ref.episodes_run, ref.goal_met)
    next_draw = ref_rng.random()
    assert lean_rng.random() == next_draw
    assert bare.trace is None
    assert np.array(bare_q.rows).tobytes() == np.array(ref_q.rows).tobytes()
    assert (bare.best, bare.episodes_run, bare.goal_met) == (
        ref.best, ref.episodes_run, ref.goal_met)
    assert bare_rng.random() == next_draw
