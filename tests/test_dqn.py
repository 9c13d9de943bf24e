"""Tests for the from-scratch DQN: network forward/backward, replay
memory, targets, and the training loop."""
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowrl import dqn
from flowrl.dqn import (
    INIT_SCALE,
    LAYER_SIZES,
    LEARNING_RATE,
    MINIBATCH,
    REPLAY_CAPACITY,
    REPLAY_START,
    Experience,
    InsufficientExperiences,
    MalformedNetwork,
    Mlp,
    NonFiniteInput,
    ReplayMemory,
    _activations,
    _DqnPolicy,
    _minibatch_forward,
    _stacked_activations,
    dqn_train,
    encode_state,
    init_mlp,
    mlp_forward,
    sgd_step,
)
from flowrl.harness import ExperimentConfig, run_experiment, write_report
from flowrl.model import FREQ_GRID, REC_GRID, ThresholdConfig
from flowrl.qlearn import GRID_STATES, N_ACTIONS, Action, AgentConfig
from flowrl.traffic import WordDraws
from conftest import FakeEnv, assert_continues, random_net, stream


def nets_equal(a, b):
    return (
        len(a.weights) == len(b.weights)
        and all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        and all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases))
    )


def zero_net(layer_sizes=LAYER_SIZES):
    weights = [np.zeros((o, i)) for i, o in zip(layer_sizes[:-1], layer_sizes[1:])]
    biases = [np.zeros(o) for o in layer_sizes[1:]]
    return Mlp(weights, biases)


def test_design_constants():
    assert LAYER_SIZES == (4, 24, 24, 24, 5)
    assert INIT_SCALE == 0.1
    assert LEARNING_RATE == 0.01
    assert (REPLAY_CAPACITY, REPLAY_START, MINIBATCH) == (1000, 32, 4)
    assert (AgentConfig.alpha, AgentConfig.gamma) == (0.1, 0.95)


# each call passes a parameter that became one of the constants above
REMOVED_PARAMETERS = {
    "ReplayMemory-capacity": lambda: ReplayMemory(capacity=1000),
    "ReplayMemory-start_threshold": lambda: ReplayMemory(start_threshold=32),
    "ReplayMemory-minibatch": lambda: ReplayMemory(minibatch=4),
    "sample-n": lambda: ReplayMemory().sample(4, np.random.default_rng(0)),
    "Mlp.random-layer_sizes": lambda: Mlp.random(np.random.default_rng(0),
                                                 layer_sizes=LAYER_SIZES),
    "Mlp.random-scale": lambda: Mlp.random(np.random.default_rng(0), scale=INIT_SCALE),
    "_minibatch_forward-gamma": lambda: _minibatch_forward(
        zero_net(), [Experience(np.zeros(4), Action.NoOp, 0, np.zeros(4))], 0.95),
}


@pytest.mark.parametrize("call", REMOVED_PARAMETERS.values(), ids=REMOVED_PARAMETERS.keys())
def test_removed_parameters_raise_type_error(call):
    with pytest.raises(TypeError):
        call()


class TestMlp:
    def test_random_shapes_and_range(self):
        net = Mlp.random(np.random.default_rng(0))
        assert net.layer_sizes == LAYER_SIZES
        for w, (n_in, n_out) in zip(net.weights,
                                    zip(LAYER_SIZES[:-1], LAYER_SIZES[1:])):
            assert w.shape == (n_out, n_in)
        for p in net.weights + net.biases:
            assert (np.abs(p) <= INIT_SCALE).all()
        assert nets_equal(net, random_net(np.random.default_rng(0), LAYER_SIZES))

    def test_random_deterministic(self):
        a = Mlp.random(np.random.default_rng(12))
        b = Mlp.random(np.random.default_rng(12))
        assert nets_equal(a, b)

    def test_rejects_inconsistent_shapes(self):
        with pytest.raises(ValueError):
            Mlp([np.zeros((3, 4)), np.zeros((2, 5))], [np.zeros(3), np.zeros(2)])
        with pytest.raises(ValueError):
            Mlp([np.zeros((3, 4))], [np.zeros(2)])
        with pytest.raises(ValueError):
            Mlp([], [])

    def test_rejects_non_matrix_weights(self):
        with pytest.raises(ValueError, match="weights must be matrices, biases vectors"):
            Mlp([np.zeros(3)], [np.zeros(3)])
        with pytest.raises(ValueError, match="weights must be matrices, biases vectors"):
            Mlp([np.zeros((3, 4))], [np.zeros((3, 1))])

    def test_rejects_non_finite_parameters(self):
        w = np.zeros((2, 4))
        w[0, 0] = np.inf
        with pytest.raises(ValueError):
            Mlp([w], [np.zeros(2)])

    def test_constructor_copies_its_arguments(self):
        weights = [np.ones((3, 4)), np.ones((2, 3))]
        biases = [np.ones(3), np.ones(2)]
        net = Mlp(weights, biases)
        for p in weights + biases:
            p[...] = 7.0
        assert all((p == 1.0).all() for p in net.weights + net.biases)
        for p in net.weights + net.biases:
            p[...] = 5.0
        assert all((p == 7.0).all() for p in weights + biases)

    def test_copy_is_independent(self):
        net = Mlp.random(np.random.default_rng(1))
        c = net.copy()
        c.weights[0][0, 0] += 1.0
        assert not nets_equal(net, c)

    def test_save_load_round_trip(self, tmp_path):
        net = Mlp.random(np.random.default_rng(7))
        path = tmp_path / "net.csv"
        net.save(path)
        assert nets_equal(Mlp.load(path), net)

    def test_save_load_arbitrary_shape(self, tmp_path):
        net = random_net(np.random.default_rng(2), (3, 2, 1))
        path = tmp_path / "tiny.csv"
        net.save(path)
        back = Mlp.load(path)
        assert back.layer_sizes == (3, 2, 1)
        assert nets_equal(back, net)

    def test_load_rejects_trailing_values(self, tmp_path):
        net = random_net(np.random.default_rng(2), (3, 2, 1))
        path = tmp_path / "bad.csv"
        net.save(path)
        with open(path, "a") as fh:
            fh.write("\n0.5\n")
        with pytest.raises(MalformedNetwork,
                           match="^line 14: the header implies 11 values, the file has 12"):
            Mlp.load(path)

    # a (3, 2, 1) network file: header on line 1, then 11 values on lines 2-12
    @pytest.mark.parametrize(
        "lineno, line, reason",
        [
            (1, "3,2,x", "not two or more positive integers"),
            (1, "3,0,1", "not two or more positive integers"),
            (1, "3,-2,1", "not two or more positive integers"),
            (1, "3", "not two or more positive integers"),
            (1, "", "not two or more positive integers"),
            (5, "nan", "non-finite value 'nan'"),
            (5, "-inf", "non-finite value '-inf'"),
            (5, "1e999", "non-finite value '1e999'"),
            (12, "0.5x", "value '0.5x' is not a number"),
            (12, "0.5,0.5", "value '0.5,0.5' is not a number"),
        ],
    )
    def test_load_rejects_malformed_line(self, tmp_path, lineno, line, reason):
        path = tmp_path / "net.csv"
        random_net(np.random.default_rng(2), (3, 2, 1)).save(path)
        lines = path.read_text().splitlines()
        lines[lineno - 1] = line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedNetwork, match="^line %d: .*%s" % (lineno, reason)):
            Mlp.load(path)

    def test_load_rejects_non_utf8_bytes(self, tmp_path):
        path = tmp_path / "net.csv"
        random_net(np.random.default_rng(2), (3, 2, 1)).save(path)
        lines = path.read_bytes().split(b"\n")
        lines[2] = b"0.5\xff"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(MalformedNetwork, match="^line 3: .*not UTF-8"):
            Mlp.load(path)

    def test_load_rejects_missing_values(self, tmp_path):
        path = tmp_path / "net.csv"
        random_net(np.random.default_rng(2), (3, 2, 1)).save(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n\n")
        with pytest.raises(MalformedNetwork,
                           match="^line 12: the header implies 11 values, the file has 10"):
            Mlp.load(path)
        path.write_text("4,24,24,24,5\n")
        with pytest.raises(MalformedNetwork,
                           match="^line 1: the header implies 1445 values, the file has 0"):
            Mlp.load(path)

    def test_load_accepts_integer_values_and_blank_lines(self, tmp_path):
        # the form of a hand-written zero network with one output bias set
        path = tmp_path / "net.csv"
        path.write_text("2,1\n\n0\n0\n\n1\n")
        net = Mlp.load(path)
        assert net.layer_sizes == (2, 1)
        assert np.array_equal(net.weights[0], [[0.0, 0.0]])
        assert np.array_equal(net.biases[0], [1.0])


class TestForward:
    def test_encode_state(self):
        v = encode_state(ThresholdConfig(90, 30), Action.NoOp, 0)
        assert np.allclose(v, [0.45, 0.10, 0.0, 0.0])
        assert np.array_equal(encode_state(ThresholdConfig(0, 0), Action.NoOp, 0),
                              np.zeros(4))
        v = encode_state(ThresholdConfig(200, 300), Action.DecRec, 1)
        assert np.array_equal(v, np.ones(4))

    def test_zero_net_outputs_zero(self):
        net = zero_net()
        assert np.array_equal(mlp_forward(net, np.ones(4)), np.zeros(5))

    def test_hand_network_with_relu_cut(self):
        # single hidden unit computing relu(x0 - x1), then identity output
        net = Mlp([np.array([[1.0, -1.0, 0.0, 0.0]]), np.array([[1.0]])],
                  [np.zeros(1), np.zeros(1)])
        assert mlp_forward(net, np.array([2.0, 5.0, 0.0, 0.0]))[0] == 0.0
        assert mlp_forward(net, np.array([5.0, 2.0, 0.0, 0.0]))[0] == 3.0

    def test_matches_straight_line_reference(self):
        net = Mlp.random(np.random.default_rng(3))
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.uniform(-1, 1, size=4)
            a = x
            for l, (w, b) in enumerate(zip(net.weights, net.biases)):
                z = w @ a + b
                a = z if l == len(net.weights) - 1 else np.maximum(z, 0.0)
            assert np.allclose(mlp_forward(net, x), a, atol=1e-12)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            mlp_forward(Mlp.random(np.random.default_rng(0)), np.zeros(3))

    def test_rejects_non_finite_input(self):
        net = Mlp.random(np.random.default_rng(0))
        for value in (np.nan, np.inf, -np.inf):
            for position in range(4):
                x = np.zeros(4)
                x[position] = value
                with pytest.raises(NonFiniteInput):
                    mlp_forward(net, x)

    def test_accepts_the_largest_finite_inputs(self):
        net = Mlp.random(np.random.default_rng(0))
        assert mlp_forward(net, np.array([1e308, -1e308, 0.0, 1.0])).shape == (5,)


class TestDqnTarget:
    def test_bootstrap_from_snapshot_max(self):
        net = zero_net()
        net.biases[-1][:] = [2.0, 0.0, 0.0, 0.0, 0.0]
        e = Experience(np.zeros(4), Action.NoOp, 1, np.zeros(4))
        assert _minibatch_forward(net, [e])[0] == [pytest.approx(2.9)]

    def test_zero_next_values(self):
        net = zero_net()
        e0 = Experience(np.zeros(4), Action.NoOp, 0, np.zeros(4))
        em = Experience(np.zeros(4), Action.NoOp, -1, np.zeros(4))
        assert _minibatch_forward(net, [e0, em, e0, em])[0] == [0.0, -1.0, 0.0, -1.0]

    def test_first_sample_activations_are_its_own_forward(self):
        net = Mlp.random(np.random.default_rng(0))
        batch = [Experience(np.full(4, 0.25 * i), Action.NoOp, 0, np.full(4, -0.5 * i))
                 for i in range(MINIBATCH)]
        _, activations = _minibatch_forward(net, batch)
        assert [a.tobytes() for a in activations] == [
            a.tobytes() for a in _activations(net, batch[0].s)]

    def test_rejects_non_finite_input(self):
        net = Mlp.random(np.random.default_rng(0))
        e = Experience(np.zeros(4), Action.NoOp, 0, np.array([0.0, np.nan, 0.0, 0.0]))
        with pytest.raises(NonFiniteInput):
            _minibatch_forward(net, [e])
        with pytest.raises(NonFiniteInput):
            _minibatch_forward(net, [Experience(e.s_next, Action.NoOp, 0, e.s)])


class TestSgdStep:
    def test_no_op_when_prediction_matches_target(self):
        net = zero_net()
        before = net.copy()
        sgd_step(net, np.ones(4), Action.IncFreq, 0.0, 0.01)
        assert nets_equal(net, before)

    def test_rejects_non_finite_target(self):
        with pytest.raises(ValueError):
            sgd_step(Mlp.random(np.random.default_rng(0)), np.zeros(4),
                     Action.NoOp, float("nan"), 0.01)

    @pytest.mark.parametrize("action", [-1, 5, 7])
    def test_rejects_action_outside_the_heads(self, action):
        net = Mlp.random(np.random.default_rng(0))
        before = net.copy()
        with pytest.raises(ValueError, match="head index"):
            sgd_step(net, np.ones(4), action, 0.5, 0.01)
        assert nets_equal(net, before)

    def test_single_sample_convergence(self):
        net = Mlp.random(np.random.default_rng(0))
        x = encode_state(ThresholdConfig(90, 30), Action.NoOp, 0)
        steps = 0
        while abs(mlp_forward(net, x)[1] - 0.7) >= 1e-6:
            sgd_step(net, x, Action.IncFreq, 0.7, 0.01)
            steps += 1
            assert steps <= 10_000, "did not converge"
        assert mlp_forward(net, x)[1] == pytest.approx(0.7, abs=1e-6)

    def test_loss_never_increases(self):
        for s in range(100):
            rng = np.random.default_rng(1000 + s)
            net = Mlp.random(rng)
            x = rng.uniform(-1, 1, size=4)
            a = Action(int(rng.integers(5)))
            t = float(rng.uniform(-2, 2))
            loss0 = (mlp_forward(net, x)[int(a)] - t) ** 2
            sgd_step(net, x, a, t, 0.01)
            loss1 = (mlp_forward(net, x)[int(a)] - t) ** 2
            if loss0 >= 1e-12:
                assert loss1 <= loss0 + 1e-15

    def test_other_heads_get_no_direct_gradient(self):
        # with zero hidden weights, only the selected head's output bias
        # can move
        net = zero_net()
        net.biases[-1][:] = [0.5, 0.5, 0.5, 0.5, 0.5]
        sgd_step(net, np.ones(4), Action.IncRec, 0.0, 0.01)
        out_bias = net.biases[-1]
        assert out_bias[3] != 0.5
        assert all(out_bias[i] == 0.5 for i in (0, 1, 2, 4))

    @pytest.mark.parametrize("seed,action,target", [(0, Action.IncFreq, 0.7),
                                                    (1, Action.DecRec, -0.3)])
    def test_gradient_matches_central_differences(self, seed, action, target):
        net = Mlp.random(np.random.default_rng(seed))
        x = (encode_state(ThresholdConfig(90, 30), Action.NoOp, 0)
             if seed == 0 else np.array([1.0, 0.5, 0.75, -1.0]))

        def flat(n):
            return np.concatenate([w.reshape(-1) for w in n.weights] +
                                  list(n.biases))

        def loss():
            return (mlp_forward(net, x)[int(action)] - target) ** 2

        lr = 1e-6
        before = flat(net)
        stepped = net.copy()
        sgd_step(stepped, x, action, target, lr)
        analytic = (before - flat(stepped)) / lr

        h = 1e-5
        numeric = np.empty_like(analytic)
        k = 0
        for arr in list(net.weights) + list(net.biases):
            view = arr.reshape(-1)
            for i in range(view.size):
                orig = view[i]
                view[i] = orig + h
                lp = loss()
                view[i] = orig - h
                lm = loss()
                view[i] = orig
                numeric[k] = (lp - lm) / (2 * h)
                k += 1
        rel = np.abs(analytic - numeric) / np.maximum(
            np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        assert rel.max() < 1e-4


class TestReplayMemory:
    def _exp(self, i):
        return Experience(np.full(4, float(i)), Action.NoOp, i, np.zeros(4))

    def test_defaults_are_the_agents_replay_sizes(self):
        assert ReplayMemory().buffer.maxlen == REPLAY_CAPACITY

    def test_fifo_eviction_at_capacity(self):
        mem = ReplayMemory()
        first = self._exp(0)
        mem.store(first)
        for i in range(1, REPLAY_CAPACITY):
            mem.store(self._exp(i))
        assert len(mem) == REPLAY_CAPACITY and mem.buffer[0] is first
        mem.store(self._exp(REPLAY_CAPACITY))
        assert len(mem) == REPLAY_CAPACITY
        assert not any(e is first for e in mem.buffer)
        assert mem.buffer[0].r == 1 and mem.buffer[-1].r == REPLAY_CAPACITY

    def test_exhaustive_sample(self, rng):
        mem = ReplayMemory()
        items = [self._exp(i) for i in range(MINIBATCH)]
        for e in items:
            mem.store(e)
        out = mem.sample(WordDraws(rng))
        assert len(out) == MINIBATCH
        assert {id(e) for e in out} == {id(e) for e in items}

    def test_insufficient_experiences(self, rng):
        mem = ReplayMemory()
        for i in range(MINIBATCH - 1):
            mem.store(self._exp(i))
        with pytest.raises(InsufficientExperiences):
            mem.sample(WordDraws(rng))

    def test_sampling_is_roughly_uniform(self):
        mem = ReplayMemory()
        for i in range(100):
            mem.store(self._exp(i))
        draws = stream(3)
        counts = np.zeros(100, dtype=int)
        for _ in range(10_000):
            batch = [e.r for e in mem.sample(draws)]
            assert len(set(batch)) == MINIBATCH
            counts[batch] += 1
        # 400 expected draws of each experience
        assert counts.min() >= 300
        assert counts.max() <= 500


class TestDqnTrain:
    def test_stops_on_first_sufficient_improvement(self):
        overheads = iter([100] + [10] * 1000)
        env = FakeEnv(lambda f, r: next(overheads))
        cfg = AgentConfig(budget=50, goal_mu=0.4)
        net = Mlp.random(np.random.default_rng(0))
        res = dqn_train(env, net, cfg, ThresholdConfig(130, 0), stream(0),
                        ReplayMemory())
        assert res.episodes_run == 1
        assert res.goal_met
        assert len(res.trace) == 2
        assert res.trace[1].reward == 1
        assert res.best.best_overhead == 10

    def test_flat_landscape_hits_the_cap(self):
        env = FakeEnv(lambda f, r: 50)
        mem = ReplayMemory()
        net = Mlp.random(np.random.default_rng(0))
        res = dqn_train(env, net, AgentConfig(budget=40), ThresholdConfig(100, 100),
                        stream(0), mem)
        assert res.episodes_run == 40
        assert not res.goal_met
        assert len(res.trace) == 41

    def test_zero_initial_overhead_returns_immediately(self):
        env = FakeEnv(lambda f, r: 0)
        net = Mlp.random(np.random.default_rng(0))
        res = dqn_train(env, net, AgentConfig(), ThresholdConfig(0, 0),
                        stream(0), ReplayMemory())
        assert res.episodes_run == 0
        assert res.goal_met
        assert len(res.trace) == 1

    def test_parameters_frozen_below_start_threshold(self):
        env = FakeEnv(lambda f, r: 50)
        cfg = AgentConfig(budget=REPLAY_START - 1)  # one store short of learning
        net = Mlp.random(np.random.default_rng(5))
        before = net.copy()
        dqn_train(env, net, cfg, ThresholdConfig(100, 100), stream(0),
                  ReplayMemory())
        assert nets_equal(net, before)

    def test_first_sgd_step_on_the_replay_start_store(self, monkeypatch):
        mem = ReplayMemory()
        fills = []

        def counted_sgd_step(*args):
            fills.append(len(mem))
            return sgd_step(*args)

        monkeypatch.setattr(dqn, "sgd_step", counted_sgd_step)
        budget = REPLAY_START + 2
        net = Mlp.random(np.random.default_rng(5))
        dqn_train(FakeEnv(lambda f, r: 50), net, AgentConfig(budget=budget),
                  ThresholdConfig(100, 100), stream(0), mem)
        # each store from the REPLAY_START-th on takes one minibatch of steps
        assert fills == [n for n in range(REPLAY_START, budget + 1) for _ in range(MINIBATCH)]

    def test_learning_kicks_in_at_start_threshold(self):
        env = FakeEnv(lambda f, r: 50 + f // 10)
        cfg = AgentConfig(budget=40, goal_mu=0.9)
        net = Mlp.random(np.random.default_rng(5))
        before = net.copy()
        dqn_train(env, net, cfg, ThresholdConfig(100, 100),
                  stream(1), ReplayMemory())
        assert not nets_equal(net, before)

    def test_memory_accumulates_one_experience_per_episode(self):
        env = FakeEnv(lambda f, r: 50)
        mem = ReplayMemory()
        net = Mlp.random(np.random.default_rng(0))
        res = dqn_train(env, net, AgentConfig(budget=12), ThresholdConfig(100, 100),
                        stream(0), mem)
        assert len(mem) == res.episodes_run == 12

    def test_deterministic_given_seed(self):
        def landscape(f, r):
            return 40 + abs(f - 70) // 10 + abs(r - 120) // 10

        cfg = AgentConfig(budget=45, goal_mu=0.9)
        finals = []
        traces = []
        for _ in range(2):
            net = Mlp.random(np.random.default_rng(2))
            res = dqn_train(FakeEnv(landscape), net, cfg,
                            ThresholdConfig(130, 0), stream(3),
                            ReplayMemory())
            finals.append(net)
            traces.append(res.trace)
        assert traces[0] == traces[1]
        assert nets_equal(finals[0], finals[1])


class TestInitMlp:
    def test_random_mode_deterministic(self):
        a = init_mlp(4)
        b = init_mlp(4)
        c = init_mlp(5)
        assert nets_equal(a, b)
        assert not nets_equal(a, c)

    # SHA-256 of every weight and bias, as the earlier init_mlp("random",
    # seed=s) built them; the last seed is the harness's init stream of seed 0
    @pytest.mark.parametrize("seed, digest", [
        (0, "37df5374f5260ae022826ab8e65bcf81ddc399048cc412d49a69f60f8658a675"),
        (9, "df0a014f5f002b68f4b8f6ac8b9688e41163b8a3718f01e17bea3ee4ed714bb4"),
        (np.random.SeedSequence(0).spawn(3)[1],
         "95fee8e52d72d24a5be27eb8b963950025068e040183c514fcb81b6a9b2cb9e6"),
    ])
    def test_random_init_pinned(self, seed, digest):
        net = init_mlp(seed)
        data = b"".join(p.tobytes() for p in net.weights + net.biases)
        assert hashlib.sha256(data).hexdigest() == digest

    def test_no_training_sets_leave_the_random_network(self):
        env = FakeEnv(lambda f, r: 50 + f // 10)
        mem = ReplayMemory()
        net = init_mlp(6, (), env, AgentConfig(budget=20), mem)
        assert env.calls == 0 and len(mem) == 0
        assert nets_equal(net, init_mlp(6))

    def test_from_training_runs_and_fills_shared_memory(self):
        overhead = lambda f, r: 50 + f // 10
        cfg = AgentConfig(budget=20)
        mem = ReplayMemory()
        sets = [ThresholdConfig(130, 0), ThresholdConfig(0, 300)]
        net = init_mlp(6, sets, FakeEnv(overhead), cfg, mem)
        assert len(mem) == 40  # both runs hit the 20-episode cap
        net2 = init_mlp(6, sets, FakeEnv(overhead), cfg, ReplayMemory())
        assert nets_equal(net, net2)
        # only a memory shared by both runs reaches the start threshold 32
        assert not nets_equal(net, init_mlp(6))


# -- bit-exactness against the snapshot-copy learn step ----------------------
#
# The reference below is the earlier learn step, kept verbatim: a full-width
# backward pass that keeps the pre-activations, and a learn loop that copies
# the network before each minibatch and takes every target from the copy.
# The lean step must leave the same bytes in every weight and bias.


def ref_forward_trace(net, x):
    """Forward pass keeping pre-activations and activations per layer."""
    a = np.asarray(x, dtype=float)
    if a.shape != (net.layer_sizes[0],):
        raise ValueError("input length must be %d" % net.layer_sizes[0])
    if not np.isfinite(a).all():
        raise NonFiniteInput("input contains a non-finite component")
    activations = [a]
    pre_acts = []
    last = len(net.weights) - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = w @ activations[-1] + b
        pre_acts.append(z)
        activations.append(z if l == last else np.maximum(0.0, z))
    return pre_acts, activations


def ref_dqn_target(e, net_prev):
    _, activations = ref_forward_trace(net_prev, e.s_next)
    return e.r + AgentConfig.gamma * float(np.max(activations[-1]))


def ref_sgd_step(net, x, action, target, lr):
    if not np.isfinite(target):
        raise ValueError("target must be finite")
    pre_acts, activations = ref_forward_trace(net, x)
    last = len(net.weights) - 1
    delta = np.zeros(net.layer_sizes[-1])
    delta[int(action)] = 2.0 * (activations[-1][int(action)] - target)
    for l in range(last, -1, -1):
        grad_w = np.outer(delta, activations[l])
        grad_b = delta
        if l > 0:
            delta = (net.weights[l].T @ delta) * (pre_acts[l - 1] > 0)
        net.weights[l] -= lr * grad_w
        net.biases[l] -= lr * grad_b
    return net


class RefPolicy(_DqnPolicy):
    """Takes a Generator, and its minibatch from Generator.choice."""

    def learn(self, fi, ri, action, reward, nfi, nri, rng):
        next_vec = encode_state(GRID_STATES[nfi][nri], action, reward)
        memory = self.memory
        memory.store(Experience(self.s_vec, action, reward, next_vec))
        if len(memory) >= REPLAY_START:
            snapshot = self.net.copy()
            idx = rng.choice(len(memory), size=MINIBATCH, replace=False)
            for e in [memory.buffer[i] for i in idx]:
                ref_sgd_step(self.net, e.s, e.a, ref_dqn_target(e, snapshot), LEARNING_RATE)
        self.s_vec = next_vec


def net_bytes(net):
    return [p.tobytes() for p in net.weights + net.biases]


# Multiples of 1/4, zero drawn most often: sums of such terms over the action
# and reward inputs land exactly on 0, so ReLU units sit at the boundary.
# Never negative zero, which random init and SGD never make (see sgd_step).
QUARTERS = st.sampled_from([0.0, 0.0, 0.0, -1.0, -0.5, -0.25, 0.25, 0.5, 0.75, 1.0])


@st.composite
def networks(draw):
    """A 4-input, 5-head net with 0-3 hidden layers: either seeded uniform
    parameters, or hand-built quarter-valued ones with zero weights on the
    two threshold inputs, whose pre-activations are often exactly 0."""
    sizes = [4] + draw(st.lists(st.sampled_from([1, 2, 3, 5, 8, 24]), max_size=3)) + [5]
    if draw(st.booleans()):
        return random_net(np.random.default_rng(draw(st.integers(0, 2**16))), sizes,
                          scale=draw(st.sampled_from([0.1, 1.0])))
    weights = []
    biases = []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        w = np.array(draw(st.lists(QUARTERS, min_size=n_in * n_out,
                                   max_size=n_in * n_out))).reshape(n_out, n_in)
        if n_in == 4:
            w[:, :2] = 0.0
        weights.append(w)
        biases.append(np.array(draw(st.lists(QUARTERS, min_size=n_out, max_size=n_out))))
    return Mlp(weights, biases)


GRID_INDICES = st.tuples(st.integers(0, len(FREQ_GRID) - 1), st.integers(0, len(REC_GRID) - 1))


def prefill(policy, seed):
    """REPLAY_START - 1 seeded learn calls, which only store: every later
    call learns. Returns the grid indices the walk ends on."""
    gen = np.random.default_rng(seed)
    fi, ri = 13, 0
    for _ in range(REPLAY_START - 1):
        nfi, nri = int(gen.integers(len(FREQ_GRID))), int(gen.integers(len(REC_GRID)))
        policy.learn(fi, ri, Action(int(gen.integers(N_ACTIONS))), int(gen.integers(-1, 2)),
                     nfi, nri, None)
        fi, ri = nfi, nri
    return fi, ri


# A seeded agent-sized net and three transitions: each learns, and a target
# taken after the minibatch's first step would differ from the snapshot's.
LEARNING_CASE = dict(
    net=Mlp.random(np.random.default_rng(0)), seed=0,
    transitions=[(Action.IncFreq, 1, (14, 0)), (Action.IncRec, 0, (14, 1)),
                 (Action.DecFreq, -1, (13, 1))],
)


@settings(max_examples=150)
@example(**LEARNING_CASE)
@given(
    net=networks(),
    seed=st.integers(0, 2**16),
    transitions=st.lists(
        st.tuples(st.sampled_from(list(Action)), st.integers(-1, 1), GRID_INDICES),
        min_size=1, max_size=12,
    ),
)
def test_lean_learn_matches_snapshot_copy(net, seed, transitions):
    state = ThresholdConfig(130, 0)
    lean = _DqnPolicy(net.copy(), ReplayMemory(), state)
    ref = RefPolicy(net.copy(), ReplayMemory(), state)
    fi, ri = prefill(lean, seed)
    assert prefill(ref, seed) == (fi, ri)
    assert net_bytes(lean.net) == net_bytes(ref.net) == net_bytes(net)
    draws = stream(seed)
    ref_rng = np.random.default_rng(seed)
    for action, reward, (nfi, nri) in transitions:
        lean.learn(fi, ri, action, reward, nfi, nri, draws)
        ref.learn(fi, ri, action, reward, nfi, nri, ref_rng)
        assert net_bytes(lean.net) == net_bytes(ref.net)
        fi, ri = nfi, nri
    assert net_bytes(lean.net) != net_bytes(net)
    assert_continues(draws, ref_rng)


@settings(max_examples=150)
@given(
    net=networks(),
    steps=st.lists(
        st.tuples(
            st.lists(QUARTERS | st.floats(-2, 2), min_size=4, max_size=4),
            st.sampled_from(list(Action)),
            QUARTERS | st.floats(-3, 3),
        ),
        min_size=1, max_size=8,
    ),
    lr=st.sampled_from([0.01, 0.0625, 0.25]),
)
def test_lean_sgd_step_matches_full_backward_pass(net, steps, lr):
    lean = net.copy()
    ref = net.copy()
    for x, action, target in steps:
        sgd_step(lean, np.array(x), action, target, lr)
        ref_sgd_step(ref, np.array(x), action, target, lr)
        assert net_bytes(lean) == net_bytes(ref)


@st.composite
def stacks(draw):
    """A net, either from networks() or of any layer widths (as Mlp.load
    accepts), and 1-5 inputs for it."""
    if draw(st.booleans()):
        net = draw(networks())
    else:
        sizes = draw(st.lists(st.sampled_from([1, 2, 3, 4, 5, 8, 24]), min_size=2, max_size=5))
        net = random_net(np.random.default_rng(draw(st.integers(0, 2**16))), sizes,
                         scale=draw(st.sampled_from([0.1, 1.0])))
    width = net.layer_sizes[0]
    inputs = st.lists(QUARTERS | st.floats(-2, 2), min_size=width, max_size=width)
    return net, draw(st.lists(inputs, min_size=1, max_size=5))


@settings(max_examples=200)
@example(case=(random_net(np.random.default_rng(0), (4, 3, 5)),
               [[0.5, -1.0, 0.25, 1.5], [0.0, 0.0, 0.0, 0.0], [1.0, 0.75, -0.5, 0.0],
                [-2.0, 0.125, 1.0, -1.0], [0.3, 0.6, 0.9, 1.2]]))
@given(case=stacks())
def test_stacked_rows_equal_single_passes(case):
    net, xs = case
    stacked = _stacked_activations(net, [np.array(x) for x in xs])
    for i, x in enumerate(xs):
        assert [a[i, :, 0].tobytes() for a in stacked] == [
            a.tobytes() for a in _activations(net, np.array(x))]


# Runs in a subprocess per OpenBLAS kernel: an 'ok' line means that every
# row of the stacked pass equalled _activations of its input, bit for bit,
# inside that kernel. The pinned digests are not compared here: they hold
# only under the kernels whose sums run in the default order.
KERNEL_CHECK = """
import numpy as np
from flowrl.dqn import Mlp, _activations, _stacked_activations
rng = np.random.default_rng(0)
for case in range(300):
    sizes = [(4, 24, 24, 24, 5), (4, 3, 5), (2, 8, 1), (6, 24, 5, 3)][case % 4]
    scale = (0.1, 1.0)[case // 4 % 2]
    net = Mlp([rng.uniform(-scale, scale, (o, i)) for i, o in zip(sizes[:-1], sizes[1:])],
              [rng.uniform(-scale, scale, o) for o in sizes[1:]])
    xs = rng.uniform(-2, 2, (case % 5 + 1, sizes[0]))
    stacked = _stacked_activations(net, xs)
    for i, x in enumerate(xs):
        rows = [a[i, :, 0].tobytes() for a in stacked]
        assert rows == [a.tobytes() for a in _activations(net, x)], (case, i)
print("ok")
"""


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_stacked_rows_equal_single_passes_under_kernel(coretype):
    src = os.path.dirname(os.path.dirname(os.path.abspath(dqn.__file__)))
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", KERNEL_CHECK], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr[-3000:]


# SHA-256 of the saved network and the report CSV, taken before the lean
# learn step replaced the snapshot-copy one. A change to the float order of
# the forward or backward pass changes them.
PINNED_DQN_BYTES = [
    (ExperimentConfig(mode="dqn", seed=3, episodes_cap=40, goal_mu=0.4),
     "6b886203153af430f0bcec4e05991552b87059581962a8f1852e5df1944e2445",
     "36cd308a8c1f887598659a96741fe9932d9bafb8f39957831b09ce02510d2a52"),
    (ExperimentConfig(mode="dqn", seed=0, episodes_cap=70, goal_mu=0.97,
                      table_capacity_bits=8 * 356),
     "cd95ef75ea3952344829d38cc9f5e20a3f79bb2f610e47c3dc9d9499b64e03dc",
     "494f425d200f7263403eb8ca648b02decace26153230f5a5070cf2024ac6f7c9"),
]


@pytest.mark.parametrize("cfg,net_sha,csv_sha", PINNED_DQN_BYTES,
                         ids=["c10-seed3-cap40", "8-entry-seed0-cap70"])
def test_dqn_bytes_pinned(tmp_path, cfg, net_sha, csv_sha):
    net_path = str(tmp_path / "policy.net")
    csv_path = str(tmp_path / "report.csv")
    write_report(run_experiment(cfg, save_policy=net_path), csv_path)

    def sha(path):
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    assert (sha(net_path), sha(csv_path)) == (net_sha, csv_sha)
