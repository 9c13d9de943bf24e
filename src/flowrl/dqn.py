# dqn.py -- from-scratch deep Q-network: a small fully-connected ReLU
# network with 5 linear output heads, uniform experience replay, targets
# computed with the parameters from before the minibatch's first step (the
# paper's previous-iteration snapshot, without copying the network), and
# plain SGD on the selected head's squared error, which moves only that
# head's output row. No autograd framework; forward and backward passes are
# written out against numpy arrays.

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from flowrl.model import FREQ_GRID, REC_GRID, read_text
from flowrl.qlearn import GRID_STATES, N_ACTIONS, Action, _pretraining_sets, train

LAYER_SIZES = (4, 24, 24, 24, 5)
LEARNING_RATE = 0.01  # sgd_step's rate in every learn step


class NonFiniteInput(Exception):
    """Forward pass received a non-finite input component."""


class InsufficientExperiences(Exception):
    """Replay sampling asked for more items than the buffer holds."""


class MalformedNetwork(Exception):
    """A network file that Mlp.load rejects; the message starts with the
    number of the offending line."""


class Mlp:
    """Fully-connected network: ReLU on hidden layers, linear output.

    weights[l] has shape (layer_sizes[l+1], layer_sizes[l]); biases[l] has
    shape (layer_sizes[l+1],). Arbitrary layer_sizes are accepted so small
    hand-built nets stay easy to construct.

    The parameters are copied in. The hidden layers' weights and biases
    are views into one flat buffer, flat (their gradients: grad_weights and
    grad_biases into grad), which sgd_step moves in one update; the output
    layer stays apart. Update parameters in place (w[...] = v), never rebind.
    """

    def __init__(self, weights, biases):
        if len(weights) != len(biases) or not weights:
            raise ValueError("need one bias vector per weight matrix")
        weights = [np.array(w, dtype=float) for w in weights]
        biases = [np.array(b, dtype=float) for b in biases]
        sizes = [weights[0].shape[1]]
        for w, b in zip(weights, biases):
            if w.ndim != 2 or b.ndim != 1:
                raise ValueError("weights must be matrices, biases vectors")
            if w.shape[0] != b.shape[0] or w.shape[1] != sizes[-1]:
                raise ValueError("inconsistent layer shapes")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError("parameters must be finite")
            sizes.append(w.shape[0])
        hidden = [p for pair in zip(weights[:-1], biases[:-1]) for p in pair]
        self.flat = np.concatenate([p.reshape(-1) for p in hidden] + [np.empty(0)])
        self.grad = np.zeros_like(self.flat)
        params, grads = [], []
        pos = 0
        for p in hidden:
            params.append(self.flat[pos:pos + p.size].reshape(p.shape))
            grads.append(self.grad[pos:pos + p.size].reshape(p.shape))
            pos += p.size
        self.weights = params[0::2] + weights[-1:]
        self.biases = params[1::2] + biases[-1:]
        self.grad_weights, self.grad_biases = grads[0::2], grads[1::2]
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
        return Mlp(self.weights, self.biases)

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
        """Read a file in the format save writes, bit-exact.

        Raises MalformedNetwork, naming the line, for a header that is not
        two or more comma-separated positive integers, a value that is not
        a finite number, too few or too many values for the header's layer
        sizes, and bytes that are not UTF-8. Blank lines are skipped.
        """
        with read_text(path, MalformedNetwork) as fh:
            header = fh.readline().strip()
            lines = fh.readlines()
        sizes = header.split(",")
        if len(sizes) < 2 or not all(n.isascii() and n.isdigit() and int(n) for n in sizes):
            raise MalformedNetwork(
                "line 1: layer sizes %r are not two or more positive integers" % header
            )
        sizes = [int(n) for n in sizes]
        try:
            values = np.array([float(line) for line in lines if line.strip()])
        except ValueError:
            values = None
        if values is None or not np.isfinite(values).all():
            _reject_value(lines)
        expected = sum((n_in + 1) * n_out for n_in, n_out in zip(sizes[:-1], sizes[1:]))
        if len(values) != expected:
            # the last line when values are missing, else the first extra one
            value_lines = [i for i, line in enumerate(lines, 2) if line.strip()]
            lineno = value_lines[expected] if len(values) > expected else len(lines) + 1
            raise MalformedNetwork(
                "line %d: the header implies %d values, the file has %d"
                % (lineno, expected, len(values))
            )
        weights = []
        biases = []
        pos = 0
        for n_in, n_out in zip(sizes[:-1], sizes[1:]):
            w = values[pos:pos + n_in * n_out].reshape(n_out, n_in)
            pos += n_in * n_out
            b = values[pos:pos + n_out]
            pos += n_out
            weights.append(w)
            biases.append(b)
        return Mlp(weights, biases)


def _reject_value(lines):
    """Raise MalformedNetwork for the first value line (line 2 onwards)
    that is not a finite number."""
    for lineno, line in enumerate(lines, 2):
        if not line.strip():
            continue
        try:
            value = float(line)
        except ValueError:
            raise MalformedNetwork(
                "line %d: value %r is not a number" % (lineno, line.strip())
            ) from None
        if not np.isfinite(value):
            raise MalformedNetwork("line %d: non-finite value %r" % (lineno, line.strip()))


@dataclass
class Experience:
    """One stored transition over encoded state vectors."""

    s: np.ndarray
    a: Action
    r: int
    s_next: np.ndarray


class ReplayMemory:
    """Bounded FIFO of experiences with uniform minibatch sampling; the
    defaults are the DQN agent's replay sizes. Sizes need 1 <= minibatch
    <= start_threshold <= capacity, or the memory could never fill a
    minibatch or start learning (ValueError)."""

    def __init__(self, capacity=1000, start_threshold=32, minibatch=4):
        if not 1 <= minibatch <= start_threshold <= capacity:
            raise ValueError("replay sizes need 1 <= minibatch <= start_threshold <= capacity")
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


def _activations(net, x):
    """Forward pass keeping every layer's activation: the input, each
    hidden layer's ReLU output, and the linear output last. Each layer is
    relu(w @ a + b), computed in place in the product's buffer."""
    a = np.asarray(x, dtype=float)
    if a.shape != (net.layer_sizes[0],):
        raise ValueError("input length must be %d" % net.layer_sizes[0])
    if not all(map(math.isfinite, a.tolist())):
        raise NonFiniteInput("input contains a non-finite component")
    activations = [a]
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        a = w.dot(a)
        a += b
        # relu's operand order: it decides the sign of a zero result
        np.maximum(0.0, a, out=a)
        activations.append(a)
    out = net.weights[-1].dot(a)
    out += net.biases[-1]
    activations.append(out)
    return activations


def mlp_forward(net, x):
    """Q-values for every action: hidden layers ReLU, output linear."""
    return _activations(net, x)[-1]


def dqn_target(e, net_prev, gamma):
    """r + gamma * max over forward(net_prev, s_next) -- net_prev holds the
    parameters from before the minibatch's first SGD step."""
    return e.r + gamma * float(np.maximum.reduce(mlp_forward(net_prev, e.s_next)))


def sgd_step(net, x, action, target, lr):
    """One SGD step on the squared error of the selected head only.

    Backpropagates d/dp (target - Q_action(x))^2. The other output heads
    have zero gradient, so only the selected head's output row and bias
    move; the hidden layers get the full backward pass. Every hidden
    layer's gradient is written into its view of net.grad, with each delta
    taken before any weight moves, and then net.flat -= lr * net.grad moves
    them all at once. Updates the net in place and returns it.

    The result equals a full-width backward pass bit for bit unless a
    parameter is negative zero (then a zero's sign may differ). Random
    init and SGD updates never make one; a loaded or hand-built net can.
    """
    if not math.isfinite(target):
        raise ValueError("target must be finite")
    activations = _activations(net, x)
    a = int(action)
    h = activations[-2]
    w_out = net.weights[-1]
    d = 2.0 * (activations[-1][a] - target)
    # the hidden delta reads the output row before it moves
    delta = w_out[a] * d * (h > 0)
    w_out[a] -= lr * (d * h)
    net.biases[-1][a] -= lr * d
    for l in range(len(net.weights) - 2, -1, -1):
        act = activations[l]
        np.multiply(delta[:, None], act, out=net.grad_weights[l])
        net.grad_biases[l][...] = delta
        if l > 0:
            delta = net.weights[l].T.dot(delta) * (act > 0)
    net.grad *= lr
    net.flat -= net.grad
    return net


class _DqnPolicy:
    """train's policy over a network. It keeps the encoded state vector
    (thresholds, last action, last reward), and greedy takes the argmax of
    the network's output for it; learn stores each transition and, once
    the memory holds start_threshold experiences, samples a minibatch,
    computes every sample's target with the parameters from before the
    minibatch's first step (no copy of the network), then takes one
    sgd_step per sample."""

    def __init__(self, net, cfg, memory, state):
        self.net = net
        self.gamma = cfg.gamma
        self.memory = memory
        self.s_vec = encode_state(state, Action.NoOp, 0)

    def greedy(self, fi, ri):
        return int(mlp_forward(self.net, self.s_vec).argmax())

    def learn(self, fi, ri, action, reward, nfi, nri, rng):
        next_vec = encode_state(GRID_STATES[nfi][nri], action, reward)
        memory = self.memory
        memory.store(Experience(self.s_vec, action, reward, next_vec))
        if len(memory) >= memory.start_threshold:
            net, gamma = self.net, self.gamma
            batch = memory.sample(memory.minibatch, rng)
            targets = [dqn_target(e, net, gamma) for e in batch]
            for e, target in zip(batch, targets):
                sgd_step(net, e.s, e.a, target, LEARNING_RATE)
        self.s_vec = next_vec


def dqn_train(env, net, cfg, initial_state, rng=None, memory=None, trace=True):
    """Run train with the DQN policy on net, which is updated in place.
    Learning goes through memory, a fresh ReplayMemory() unless one is
    given; pass a shared one to persist experience across runs."""
    if memory is None:
        memory = ReplayMemory()
    return train(env, _DqnPolicy(net, cfg, memory, initial_state), cfg, initial_state, rng, trace)


def init_mlp(mode, training_sets=None, seed=0, env=None, cfg=None, memory=None):
    """Build a network.

    mode "random": fresh seeded net, parameters uniform in [-0.1, 0.1).
    mode "from_training": random init, then one full dqn_train run per
    training set (each set as the initial state) without trace rows, all
    through memory, a fresh ReplayMemory() unless one is given (pass one
    to keep the experience buffer afterwards); requires env and cfg.
    """
    rng = np.random.default_rng(seed)
    net = Mlp.random(rng)
    if memory is None:
        memory = ReplayMemory()
    for state in _pretraining_sets(mode, training_sets, env, cfg):
        dqn_train(env, net, cfg, state, rng, memory, trace=False)
    return net
