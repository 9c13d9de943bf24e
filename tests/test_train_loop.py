"""Tests for the goal-driven training loop both learners share, driven by
a scripted policy on a programmable landscape (no simulator)."""
import numpy as np
import pytest

from flowrl.model import ThresholdConfig
from flowrl.qlearn import Action, AgentConfig, apply_action, decay_epsilon, train
from conftest import FakeEnv

START = ThresholdConfig(100, 100)


class ScriptedPolicy:
    """Plays IncFreq forever and records every call in order."""

    def __init__(self):
        self.calls = []

    def select(self, state, eps, rng):
        self.calls.append(("select", state, eps, rng))
        return Action.IncFreq

    def learn(self, state, action, reward, next_state, rng):
        self.calls.append(("learn", state, action, reward, next_state, rng))

    def of(self, kind):
        return [c for c in self.calls if c[0] == kind]


def sequence_env(overheads):
    """Episode k (0 = the initial state) has overheads[k]."""
    it = iter(overheads)
    return FakeEnv(lambda f, r: next(it))


def test_select_and_learn_alternate_once_per_step():
    policy = ScriptedPolicy()
    rng = np.random.default_rng(0)
    res = train(FakeEnv(lambda f, r: 50), policy, AgentConfig(budget=5), START, rng)
    assert [c[0] for c in policy.calls] == ["select", "learn"] * 5
    state = START
    for select, learn in zip(policy.of("select"), policy.of("learn")):
        assert select[1] == state and select[3] is rng
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
    res = train(env, policy, AgentConfig(budget=10, goal_mu=0.4), START)
    assert res.episodes_run == 3
    assert res.goal_met
    assert len(res.trace) == 4
    assert [c[0] for c in policy.calls] == ["select", "learn"] * 3
    assert env.calls == 4


def test_cap_returns_budget_without_goal():
    policy = ScriptedPolicy()
    res = train(FakeEnv(lambda f, r: 50), policy, AgentConfig(budget=7), START)
    assert res.episodes_run == 7
    assert res.goal_met is False
    assert len(res.trace) == 8


@pytest.mark.parametrize("decay", [True, False])
def test_epsilon_decays_only_when_enabled(decay):
    policy = ScriptedPolicy()
    cfg = AgentConfig(budget=6, epsilon0=0.8, epsilon_decay=decay)
    train(FakeEnv(lambda f, r: 50), policy, cfg, START)
    expected = []
    eps = 0.8
    for step in range(6):
        expected.append(eps)
        if decay:
            eps = decay_epsilon(eps, step, 6)
    assert [c[2] for c in policy.of("select")] == expected
    assert (expected[-1] < 0.8) is decay


def test_zero_overhead_baseline_never_calls_the_policy():
    policy = ScriptedPolicy()
    env = FakeEnv(lambda f, r: 0)
    res = train(env, policy, AgentConfig(budget=5), START)
    assert policy.calls == []
    assert res.episodes_run == 0
    assert res.goal_met
    assert len(res.trace) == 1
    assert env.calls == 1
