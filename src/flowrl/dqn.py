# dqn.py -- from-scratch deep Q-network: a small fully-connected ReLU
# network with 5 linear output heads, uniform experience replay, targets
# computed with the parameters from before the minibatch's first step (the
# paper's previous-iteration snapshot, without copying the network) in one
# stacked forward pass that also serves the first step, and plain SGD on
# the selected head's squared error, which moves only that head's output
# row. No autograd framework; forward and backward passes are written out
# against numpy arrays.

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from flowrl.model import FREQ_GRID, REC_GRID, read_text
from flowrl.qlearn import GRID_STATES, N_ACTIONS, Action, AgentConfig, train
from flowrl.traffic import WordDraws

LAYER_SIZES = (4, 24, 24, 24, 5)
INIT_SCALE = 0.1  # Mlp.random's parameters are uniform in [-INIT_SCALE, INIT_SCALE)
LEARNING_RATE = 0.01  # sgd_step's rate in every learn step
# The replay memory keeps the last REPLAY_CAPACITY experiences; learning
# starts once it holds REPLAY_START, and each learn step samples MINIBATCH.
REPLAY_CAPACITY = 1000
REPLAY_START = 32
MINIBATCH = 4


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
    shape (layer_sizes[l+1],). Any layer sizes are accepted, as a loaded
    file may hold any; random draws the agent's LAYER_SIZES.

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
        if any(w.ndim != 2 for w in weights) or any(b.ndim != 1 for b in biases):
            raise ValueError("weights must be matrices, biases vectors")
        sizes = [weights[0].shape[1]]
        for w, b in zip(weights, biases):
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
    def random(rng):
        """A LAYER_SIZES net, all parameters uniform in [-INIT_SCALE,
        INIT_SCALE), seeded."""
        weights = []
        biases = []
        for n_in, n_out in zip(LAYER_SIZES[:-1], LAYER_SIZES[1:]):
            weights.append(rng.uniform(-INIT_SCALE, INIT_SCALE, size=(n_out, n_in)))
            biases.append(rng.uniform(-INIT_SCALE, INIT_SCALE, size=n_out))
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
    """FIFO of the last REPLAY_CAPACITY experiences with uniform minibatch
    sampling."""

    def __init__(self):
        self.buffer = deque(maxlen=REPLAY_CAPACITY)

    def __len__(self):
        return len(self.buffer)

    def store(self, e):
        self.buffer.append(e)
        return self

    def sample(self, draws):
        """MINIBATCH experiences, uniform without replacement, taken from
        draws (a WordDraws) at the indices Generator.choice(len(self),
        MINIBATCH, replace=False) gives: Floyd's algorithm, then a
        Fisher-Yates shuffle of the picks."""
        n = len(self.buffer)
        if n < MINIBATCH:
            raise InsufficientExperiences("buffer holds %d < %d experiences" % (n, MINIBATCH))
        below = draws.below
        idx = []
        for j in range(n - MINIBATCH, n):
            v = below(j + 1)
            idx.append(j if v in idx else v)
        for i in range(MINIBATCH - 1, 0, -1):
            k = below(i + 1)
            idx[i], idx[k] = idx[k], idx[i]
        buffer = self.buffer
        return [buffer[i] for i in idx]


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
    max(0, w @ a + b), computed in place in the product's buffer."""
    a = np.asarray(x, dtype=float)
    if a.shape != (net.layer_sizes[0],):
        raise ValueError("input length must be %d" % net.layer_sizes[0])
    if not all(map(math.isfinite, a.tolist())):
        raise NonFiniteInput("input contains a non-finite component")
    activations = [a]
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        a = w.dot(a)
        a += b
        # ReLU as np.maximum(0.0, a): the operand order decides the sign of a zero
        np.maximum(0.0, a, out=a)
        activations.append(a)
    out = net.weights[-1].dot(a)
    out += net.biases[-1]
    activations.append(out)
    return activations


def mlp_forward(net, x):
    """Q-values for every action: hidden layers ReLU, output linear."""
    return _activations(net, x)[-1]


def _stacked_activations(net, xs):
    """_activations over k inputs in one pass: each layer is a (k, n, 1)
    array whose row i, [i, :, 0], equals _activations(net, xs[i]) bit for
    bit. np.matmul over the (k, n, 1) stack hands BLAS each input's own
    mat-vec, as ndarray.dot does; a W @ X over an (n, k) matrix would be a
    matrix product, which sums in another order."""
    a = np.array(xs, dtype=float)
    if not all(map(math.isfinite, a.ravel().tolist())):
        raise NonFiniteInput("input contains a non-finite component")
    a = a[:, :, None]
    activations = [a]
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        a = np.matmul(w, a)
        a += b[:, None]
        np.maximum(0.0, a, out=a)
        activations.append(a)
    out = np.matmul(net.weights[-1], a)
    out += net.biases[-1][:, None]
    activations.append(out)
    return activations


def _minibatch_forward(net, batch):
    """One stacked forward pass with net's current parameters, the ones
    from before the minibatch's first SGD step, over every sample's s_next
    and then the first sample's s. Returns each sample's target, r + gamma
    * max of its s_next Q-values, and the first sample's activations, which
    its sgd_step takes in place of a forward pass of its own."""
    stacked = _stacked_activations(net, [e.s_next for e in batch] + [batch[0].s])
    q_next = np.maximum.reduce(stacked[-1][:-1, :, 0], axis=1).tolist()
    targets = [e.r + AgentConfig.gamma * q for e, q in zip(batch, q_next)]
    return targets, [a[-1, :, 0] for a in stacked]


def sgd_step(net, x, action, target, lr, activations=None):
    """One SGD step on the squared error of the selected head only.

    Backpropagates d/dp (target - Q_action(x))^2. The other output heads
    have zero gradient, so only the selected head's output row and bias
    move; the hidden layers get the full backward pass. Every hidden
    layer's gradient is written into its view of net.grad, with each delta
    taken before any weight moves, and then net.flat -= lr * net.grad moves
    them all at once. Updates the net in place and returns it.

    activations, when given, must be _activations(net, x) for the net's
    current parameters; learn passes the first sample's rows of its
    stacked pass. Raises ValueError for a non-finite target and for an
    action that is not a head index, 0 <= action < layer_sizes[-1].

    The result equals a full-width backward pass bit for bit unless a
    parameter is negative zero (then a zero's sign may differ). Random
    init and SGD updates never make one; a loaded or hand-built net can.
    """
    if not math.isfinite(target):
        raise ValueError("target must be finite")
    a = int(action)
    if not 0 <= a < net.layer_sizes[-1]:
        raise ValueError("action must be a head index in [0, %d)" % net.layer_sizes[-1])
    if activations is None:
        activations = _activations(net, x)
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
    the memory holds REPLAY_START experiences, samples a minibatch,
    computes every sample's target with the parameters from before the
    minibatch's first step (no copy of the network) in one stacked pass
    that also gives the first sample's activations, then takes one
    sgd_step per sample."""

    def __init__(self, net, memory, state):
        self.net = net
        self.memory = memory
        self.s_vec = encode_state(state, Action.NoOp, 0)

    def greedy(self, fi, ri):
        return int(mlp_forward(self.net, self.s_vec).argmax())

    def learn(self, fi, ri, action, reward, nfi, nri, draws):
        next_vec = encode_state(GRID_STATES[nfi][nri], action, reward)
        memory = self.memory
        memory.store(Experience(self.s_vec, action, reward, next_vec))
        if len(memory) >= REPLAY_START:
            net = self.net
            batch = memory.sample(draws)
            targets, activations = _minibatch_forward(net, batch)
            for e, target in zip(batch, targets):
                sgd_step(net, e.s, e.a, target, LEARNING_RATE, activations)
                activations = None
        self.s_vec = next_vec


def dqn_train(env, net, cfg, initial_state, draws, memory, trace=True):
    """Run train with the DQN policy on net, which is updated in place.
    Learning goes through memory; share one to persist experience across
    runs."""
    return train(env, _DqnPolicy(net, memory, initial_state), cfg, initial_state, draws, trace)


def init_mlp(seed, training_sets=(), env=None, cfg=None, memory=None):
    """Build a network: Mlp.random's, seeded, then one full dqn_train run
    on env under cfg per training set (each set as the initial state)
    without trace rows. The runs share memory, which keeps the experience
    buffer afterwards, and one WordDraws on the seed's generator. No
    training sets leave the random network, and need no env, cfg or memory."""
    rng = np.random.default_rng(seed)
    net = Mlp.random(rng)
    draws = WordDraws(rng)
    for state in training_sets:
        dqn_train(env, net, cfg, state, draws, memory, trace=False)
    return net
