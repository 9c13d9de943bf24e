# dqn.py -- from-scratch deep Q-network: a small fully-connected ReLU
# network with 5 linear output heads, uniform experience replay, targets
# computed against a snapshot of the previous-iteration parameters, and
# plain SGD on the selected head's squared error. No autograd framework;
# forward and backward passes are written out against numpy arrays.

from collections import deque
from dataclasses import dataclass

import numpy as np

from flowrl.model import FREQ_GRID, REC_GRID
from flowrl.qlearn import (
    ACTIONS,
    Action,
    EmptyTrainingSets,
    N_ACTIONS,
    TrainResult,
    _trace_row,
    apply_action,
    decay_epsilon,
)
from flowrl.simnet import BestSoFar, compute_reward, reduction_fraction

LAYER_SIZES = (4, 24, 24, 24, 5)


class NonFiniteInput(Exception):
    """Forward pass received a non-finite input component."""


class InsufficientExperiences(Exception):
    """Replay sampling asked for more items than the buffer holds."""


@dataclass
class DqnConfig:
    """DQN hyperparameters; budget/goal_mu/epsilon semantics mirror
    AgentConfig (epsilon0 decays when epsilon_decay, else stays static)."""

    gamma: float = 0.95
    sgd_learning_rate: float = 0.01
    epsilon0: float = 1.0
    budget: int = 1000
    goal_mu: float = 0.4
    weight_init_scale: float = 0.1
    epsilon_decay: bool = True
    replay_capacity: int = 1000
    start_threshold: int = 32
    minibatch: int = 4

    def __post_init__(self):
        if self.sgd_learning_rate <= 0:
            raise ValueError("sgd_learning_rate must be > 0")
        if not 0.0 <= self.epsilon0 <= 1.0:
            raise ValueError("epsilon0 must be in [0, 1]")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.replay_capacity < 1 or self.minibatch < 1:
            raise ValueError("replay sizes must be >= 1")
        if self.start_threshold < self.minibatch:
            raise ValueError("start_threshold must be >= minibatch")


class Mlp:
    """Fully-connected network: ReLU on hidden layers, linear output.

    weights[l] has shape (layer_sizes[l+1], layer_sizes[l]); biases[l] has
    shape (layer_sizes[l+1],). Arbitrary layer_sizes are accepted so small
    hand-built nets stay easy to construct.
    """

    def __init__(self, weights, biases):
        if len(weights) != len(biases) or not weights:
            raise ValueError("need one bias vector per weight matrix")
        weights = [np.asarray(w, dtype=float) for w in weights]
        biases = [np.asarray(b, dtype=float) for b in biases]
        sizes = [weights[0].shape[1]]
        for w, b in zip(weights, biases):
            if w.ndim != 2 or b.ndim != 1:
                raise ValueError("weights must be matrices, biases vectors")
            if w.shape[0] != b.shape[0] or w.shape[1] != sizes[-1]:
                raise ValueError("inconsistent layer shapes")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError("parameters must be finite")
            sizes.append(w.shape[0])
        self.weights = weights
        self.biases = biases
        self.layer_sizes = tuple(sizes)

    @staticmethod
    def random(rng, layer_sizes=LAYER_SIZES, scale=0.1):
        """All parameters uniform in [-scale, scale), seeded."""
        weights = []
        biases = []
        for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            weights.append(rng.uniform(-scale, scale, size=(n_out, n_in)))
            biases.append(rng.uniform(-scale, scale, size=n_out))
        return Mlp(weights, biases)

    def copy(self):
        return Mlp([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def save(self, path):
        """Header line with layer sizes, then every weight (row-major) and
        bias, layer by layer, one 17-significant-digit decimal per line."""
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(str(n) for n in self.layer_sizes) + "\n")
            for w, b in zip(self.weights, self.biases):
                for value in w.reshape(-1):
                    fh.write("%.17g\n" % value)
                for value in b:
                    fh.write("%.17g\n" % value)

    @staticmethod
    def load(path):
        with open(path) as fh:
            sizes = [int(n) for n in fh.readline().strip().split(",")]
            values = [float(line) for line in fh if line.strip()]
        weights = []
        biases = []
        pos = 0
        for n_in, n_out in zip(sizes[:-1], sizes[1:]):
            w = np.array(values[pos:pos + n_in * n_out]).reshape(n_out, n_in)
            pos += n_in * n_out
            b = np.array(values[pos:pos + n_out])
            pos += n_out
            weights.append(w)
            biases.append(b)
        if pos != len(values):
            raise ValueError("trailing values in network file")
        return Mlp(weights, biases)


@dataclass
class Experience:
    """One stored transition over encoded state vectors."""

    s: np.ndarray
    a: Action
    r: int
    s_next: np.ndarray


class ReplayMemory:
    """Bounded FIFO of experiences with uniform minibatch sampling."""

    def __init__(self, capacity=1000, start_threshold=32, minibatch=4):
        self.capacity = capacity
        self.start_threshold = start_threshold
        self.minibatch = minibatch
        self.buffer = deque(maxlen=capacity)

    def __len__(self):
        return len(self.buffer)

    def store(self, e):
        self.buffer.append(e)
        return self

    def sample(self, n, rng):
        """Uniform without replacement within one minibatch."""
        if len(self.buffer) < n:
            raise InsufficientExperiences(
                "buffer holds %d < %d experiences" % (len(self.buffer), n)
            )
        idx = rng.choice(len(self.buffer), size=n, replace=False)
        return [self.buffer[int(i)] for i in idx]


def relu(x):
    """max(0, x), element-wise on arrays."""
    return np.maximum(0.0, x)


def encode_state(s, last_action, last_reward):
    """4-vector input: thresholds scaled to [0, 1] by their grid maxima,
    action index scaled by 4, and the raw reward value."""
    return np.array(
        [
            s.freq_threshold / FREQ_GRID[-1],
            s.recentness_threshold / REC_GRID[-1],
            int(last_action) / (N_ACTIONS - 1),
            float(last_reward),
        ]
    )


def _forward_trace(net, x):
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
        activations.append(z if l == last else relu(z))
    return pre_acts, activations


def mlp_forward(net, x):
    """Q-values for every action: hidden layers ReLU, output linear."""
    _, activations = _forward_trace(net, x)
    return activations[-1]


def dqn_target(e, net_prev, gamma):
    """r + gamma * max over forward(net_prev, s_next) -- net_prev is the
    parameter snapshot from before the current minibatch."""
    return e.r + gamma * float(np.max(mlp_forward(net_prev, e.s_next)))


def sgd_step(net, x, action, target, lr):
    """One SGD step on the squared error of the selected head only.

    Backpropagates d/dp (target - Q_action(x))^2; the other output heads
    contribute zero gradient. Updates the net in place and returns it.
    """
    if not np.isfinite(target):
        raise ValueError("target must be finite")
    pre_acts, activations = _forward_trace(net, x)
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


def _select(net, s_vec, eps, rng):
    if rng.random() < eps:
        return Action(int(rng.integers(N_ACTIONS)))
    return Action(int(np.argmax(mlp_forward(net, s_vec))))


def dqn_train(env, net, cfg, initial_state, rng=None, memory=None):
    """Goal-driven DQN training loop.

    Mirrors the tabular loop (initial-state evaluation, epsilon-greedy
    selection with iterative decay, reward against best-so-far, stop when
    the best reduction exceeds cfg.goal_mu or at the cap), but Q-values
    come from the network and learning goes through the replay buffer:
    each transition is stored, and once the buffer reaches
    cfg.start_threshold a minibatch is sampled uniformly, targets are
    computed against a pre-minibatch parameter snapshot, and each sample
    gets one sgd_step. Pass a shared ReplayMemory to persist experience
    across consecutive runs.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if memory is None:
        memory = ReplayMemory(cfg.replay_capacity, cfg.start_threshold, cfg.minibatch)
    state = initial_state
    m0 = env.run(state)
    initial = m0.overhead
    best = BestSoFar(m0.overhead, state, m0)
    trace = [_trace_row(0, m0, state, 0, cfg.epsilon0, initial)]
    if initial == 0:
        return TrainResult(0, best, True, trace)

    s_vec = encode_state(state, Action.NoOp, 0)
    eps = cfg.epsilon0
    goal_met = False
    episodes = 0
    for step in range(cfg.budget):
        action = _select(net, s_vec, eps, rng)
        eps_used = eps
        if cfg.epsilon_decay:
            eps = decay_epsilon(eps, step, cfg.budget)
        next_state = apply_action(state, action)
        metrics = env.run(next_state)
        reward = compute_reward(best, metrics.overhead, next_state, metrics)
        next_vec = encode_state(next_state, action, reward)
        memory.store(Experience(s_vec, action, reward, next_vec))
        if len(memory) >= memory.start_threshold:
            snapshot = net.copy()
            for e in memory.sample(memory.minibatch, rng):
                sgd_step(net, e.s, e.a, dqn_target(e, snapshot, cfg.gamma),
                         cfg.sgd_learning_rate)
        episodes = step + 1
        trace.append(_trace_row(episodes, metrics, next_state, reward, eps_used, initial))
        state = next_state
        s_vec = next_vec
        if reduction_fraction(initial, best.best_overhead) > cfg.goal_mu:
            goal_met = True
            break
    return TrainResult(episodes, best, goal_met, trace)


def init_mlp(mode, training_sets=None, seed=0, env=None, cfg=None, memory=None):
    """Build a network.

    mode "random": fresh seeded net, parameters uniform in [-0.1, 0.1).
    mode "from_training": random init, then one full dqn_train run per
    training set (each set as the initial state) with a shared replay
    memory; requires env and cfg. Pass memory to keep the experience
    buffer afterwards (e.g. to continue training on the same workload).
    """
    rng = np.random.default_rng(seed)
    scale = cfg.weight_init_scale if cfg is not None else 0.1
    net = Mlp.random(rng, scale=scale)
    if mode == "random":
        return net
    if mode != "from_training":
        raise ValueError("unknown init mode %r" % (mode,))
    if not training_sets:
        raise EmptyTrainingSets("from_training needs a non-empty training set list")
    if env is None or cfg is None:
        raise ValueError("from_training needs env and cfg")
    if memory is None:
        memory = ReplayMemory(cfg.replay_capacity, cfg.start_threshold, cfg.minibatch)
    for state in training_sets:
        dqn_train(env, net, cfg, state, rng, memory)
    return net
