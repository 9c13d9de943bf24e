# qlearn.py -- tabular Q-learning over the threshold grid: epsilon-greedy
# selection with iterative epsilon decay, the one-cell Q update, table
# initialization (random or from training runs), persistence, and the
# goal-driven training loop that both learners run.

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from flowrl.model import FREQ_GRID, GRID_STEP, REC_GRID, ThresholdConfig
from flowrl.simnet import BestSoFar, compute_reward, hit_ratio, reduction_fraction


class Action(IntEnum):
    """The five composite actions; greedy ties resolve in this order."""

    NoOp = 0
    IncFreq = 1
    DecFreq = 2
    IncRec = 3
    DecRec = 4


ACTIONS = tuple(Action)
N_ACTIONS = len(ACTIONS)


class EmptyTrainingSets(Exception):
    """from_training initialization needs at least one training set."""


class MalformedQTable(Exception):
    """A Q-table file that QTable.load rejects; the message starts with
    the number of the offending line."""


@dataclass
class AgentConfig:
    """Q-learning hyperparameters.

    epsilon decays from epsilon0 each episode when epsilon_decay is True
    (fresh tables); initialized tables run a static small epsilon instead.
    budget is the episode cap of one training run; goal_mu the target
    overhead-reduction fraction.
    """

    alpha: float = 0.1
    gamma: float = 0.95
    epsilon0: float = 1.0
    budget: int = 1000
    goal_mu: float = 0.4
    epsilon_decay: bool = True

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if not 0.0 <= self.epsilon0 <= 1.0:
            raise ValueError("epsilon0 must be in [0, 1]")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")


class QTable:
    """Dense Q-values over the full state grid: shape (21, 31, 5) indexed
    by (freq_threshold/10, recentness_threshold/10, action)."""

    def __init__(self, values=None):
        shape = (len(FREQ_GRID), len(REC_GRID), N_ACTIONS)
        if values is None:
            values = np.zeros(shape)
        values = np.asarray(values, dtype=float)
        if values.shape != shape:
            raise ValueError("expected shape %r" % (shape,))
        self.values = values

    @staticmethod
    def random(rng):
        """Small random init: every cell uniform in [0, 0.01)."""
        shape = (len(FREQ_GRID), len(REC_GRID), N_ACTIONS)
        return QTable(rng.uniform(0.0, 0.01, size=shape))

    @staticmethod
    def _index(state):
        return (state.freq_threshold // GRID_STEP,
                state.recentness_threshold // GRID_STEP)

    def row(self, state):
        fi, ri = self._index(state)
        return self.values[fi, ri]

    def get(self, state, action):
        fi, ri = self._index(state)
        return self.values[fi, ri, int(action)]

    def set(self, state, action, value):
        fi, ri = self._index(state)
        self.values[fi, ri, int(action)] = value

    def save(self, path):
        """One `freq_thr,rec_thr,action,q_value` line per cell, sorted,
        with 17-significant-digit decimals (round-trip exact)."""
        with open(path, "w", newline="\n") as fh:
            for fi, f in enumerate(FREQ_GRID):
                for ri, r in enumerate(REC_GRID):
                    for a in ACTIONS:
                        fh.write(
                            "%d,%d,%s,%s\n"
                            % (f, r, a.name, "%.17g" % self.values[fi, ri, int(a)])
                        )

    @staticmethod
    def load(path):
        """Read a file in the format save writes, bit-exact.

        Raises MalformedQTable, naming the line, for a line without four
        fields, a threshold that is not a non-negative integer on the grid,
        an unknown action name, a cell given twice or a non-finite value,
        and (naming the last line) for a file that leaves any of the
        21 x 31 x 5 cells unset. Blank lines are skipped.
        """
        shape = (len(FREQ_GRID), len(REC_GRID), N_ACTIONS)
        freq_index = {str(f): i for i, f in enumerate(FREQ_GRID)}
        rec_index = {str(r): i for i, r in enumerate(REC_GRID)}
        action_index = {a.name: int(a) for a in ACTIONS}
        cells = [None] * (shape[0] * shape[1] * shape[2])
        lineno = 0
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                fields = line.split(",")
                if len(fields) != 4:
                    raise MalformedQTable(
                        "line %d: expected 4 fields, got %d" % (lineno, len(fields))
                    )
                f, r, name, value = fields
                fi = freq_index.get(f)
                if fi is None:
                    fi = _grid_index(f, FREQ_GRID, "frequency threshold", lineno)
                ri = rec_index.get(r)
                if ri is None:
                    ri = _grid_index(r, REC_GRID, "recentness threshold", lineno)
                ai = action_index.get(name)
                if ai is None:
                    raise MalformedQTable("line %d: unknown action %r" % (lineno, name))
                try:
                    v = float(value)
                except ValueError:
                    raise MalformedQTable(
                        "line %d: value %r is not a number" % (lineno, value)
                    ) from None
                if not math.isfinite(v):
                    raise MalformedQTable("line %d: non-finite value %r" % (lineno, value))
                k = (fi * shape[1] + ri) * shape[2] + ai
                if cells[k] is not None:
                    raise MalformedQTable(
                        "line %d: duplicate cell %s,%s,%s" % (lineno, f, r, name)
                    )
                cells[k] = v
        missing = cells.count(None)
        if missing:
            raise MalformedQTable(
                "line %d: file ends after %d of %d cells"
                % (lineno, len(cells) - missing, len(cells))
            )
        return QTable(np.reshape(cells, shape))


def _grid_index(text, grid, what, lineno):
    """Grid index of a threshold field not written the way save writes it:
    accepted only as a plain decimal integer on the grid."""
    if not (text.isascii() and text.isdigit()):
        raise MalformedQTable(
            "line %d: %s %r is not a non-negative integer" % (lineno, what, text)
        )
    value = int(text)
    if value % GRID_STEP or value > grid[-1]:
        raise MalformedQTable("line %d: %s %d is off the grid" % (lineno, what, value))
    return value // GRID_STEP


@dataclass
class TraceRow:
    """One per-episode report row."""

    episode: int
    overhead: int
    hits: int
    misses: int
    hit_ratio: float
    reduction: float
    freq_thr: int
    rec_thr: int
    reward: int
    epsilon: float


@dataclass
class TrainResult:
    """Outcome of one training run. episodes_run counts training episodes
    after the initial-state evaluation (trace row 0)."""

    episodes_run: int
    best: BestSoFar
    goal_met: bool
    trace: list


def epsilon_greedy_select(q, state, eps, rng):
    """With probability eps pick uniformly over the 5 actions, otherwise
    the argmax of Q(state, .) with ties broken by action-enum order."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must be in [0, 1]")
    if rng.random() < eps:
        return Action(int(rng.integers(N_ACTIONS)))
    return Action(int(np.argmax(q.row(state))))


def apply_action(state, action):
    """Move one grid step (clamped): IncFreq/DecFreq on the frequency
    threshold, IncRec/DecRec on the recentness threshold, NoOp identity."""
    f = state.freq_threshold
    r = state.recentness_threshold
    if action == Action.IncFreq:
        f = min(f + GRID_STEP, FREQ_GRID[-1])
    elif action == Action.DecFreq:
        f = max(f - GRID_STEP, 0)
    elif action == Action.IncRec:
        r = min(r + GRID_STEP, REC_GRID[-1])
    elif action == Action.DecRec:
        r = max(r - GRID_STEP, 0)
    return ThresholdConfig(f, r)


def q_update(q, state, action, reward, next_state, cfg):
    """One-cell temporal-difference update:
    Q(s,a) += alpha * (r + gamma * max_a' Q(s',a') - Q(s,a))."""
    current = q.get(state, action)
    target = reward + cfg.gamma * float(np.max(q.row(next_state)))
    q.set(state, action, current + cfg.alpha * (target - current))
    return q


def decay_epsilon(eps, step, budget):
    """Iterative decay: eps * (1 - step/budget), applied each episode with
    the current eps and that episode's index."""
    if not 0 <= step < budget:
        raise ValueError("step must be in [0, budget)")
    return eps * (1.0 - step / budget)


def init_qtable(mode, training_sets=None, seed=0, env=None, cfg=None):
    """Build a Q-table.

    mode "random": every cell uniform in [0, 0.01), seeded.
    mode "from_training": random init, then one full training run per
    training set (each set as the initial state), accumulating into the
    same table; requires env and cfg.
    """
    rng = np.random.default_rng(seed)
    q = QTable.random(rng)
    for state in _pretraining_sets(mode, training_sets, env, cfg):
        q_train(env, q, cfg, state, rng)
    return q


def _pretraining_sets(mode, training_sets, env, cfg):
    """The initial states of the pre-training runs of an init mode: none
    for "random", the training sets for "from_training" (which needs a
    non-empty list, env and cfg)."""
    if mode == "random":
        return []
    if mode != "from_training":
        raise ValueError("unknown init mode %r" % (mode,))
    if not training_sets:
        raise EmptyTrainingSets("from_training needs a non-empty training set list")
    if env is None or cfg is None:
        raise ValueError("from_training needs env and cfg")
    return training_sets


def _trace_row(episode, metrics, state, reward, eps, initial):
    red = reduction_fraction(initial, metrics.overhead) if initial else 0.0
    return TraceRow(
        episode=episode,
        overhead=metrics.overhead,
        hits=metrics.hits,
        misses=metrics.misses,
        hit_ratio=hit_ratio(metrics),
        reduction=red,
        freq_thr=state.freq_threshold,
        rec_thr=state.recentness_threshold,
        reward=reward,
        epsilon=eps,
    )


def train(env, policy, cfg, initial_state, rng=None):
    """Goal-driven training loop of both learners.

    Episode 0 evaluates the initial state to fix the baseline overhead;
    each following episode asks the policy for an action
    (policy.select(state, eps, rng)), decays epsilon (when enabled),
    applies the action, runs an episode at the new thresholds, computes the
    reward against the best overhead so far, and hands the transition to
    policy.learn(state, action, reward, next_state, rng). Stops when the
    overhead reduction of the best episode exceeds cfg.goal_mu, or at the
    episode cap cfg.budget (goal_met=False).

    A baseline of zero overhead cannot be improved; the run returns
    immediately with goal_met=True and the policy is never called.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    state = initial_state
    m0 = env.run(state)
    initial = m0.overhead
    best = BestSoFar(m0.overhead, state, m0)
    trace = [_trace_row(0, m0, state, 0, cfg.epsilon0, initial)]
    if initial == 0:
        return TrainResult(0, best, True, trace)

    eps = cfg.epsilon0
    for step in range(cfg.budget):
        action = policy.select(state, eps, rng)
        eps_used = eps
        if cfg.epsilon_decay:
            eps = decay_epsilon(eps, step, cfg.budget)
        next_state = apply_action(state, action)
        metrics = env.run(next_state)
        reward = compute_reward(best, metrics.overhead, next_state, metrics)
        policy.learn(state, action, reward, next_state, rng)
        trace.append(_trace_row(step + 1, metrics, next_state, reward, eps_used, initial))
        state = next_state
        if reduction_fraction(initial, best.best_overhead) > cfg.goal_mu:
            return TrainResult(step + 1, best, True, trace)
    return TrainResult(cfg.budget, best, False, trace)


@dataclass
class _TabularPolicy:
    """train's policy over a Q-table: epsilon-greedy on the table's row,
    one q_update per transition."""

    q: QTable
    cfg: AgentConfig

    def select(self, state, eps, rng):
        return epsilon_greedy_select(self.q, state, eps, rng)

    def learn(self, state, action, reward, next_state, rng):
        q_update(self.q, state, action, reward, next_state, self.cfg)


def q_train(env, q, cfg, initial_state, rng=None):
    """Run train with the tabular policy on q, which is updated in place."""
    return train(env, _TabularPolicy(q, cfg), cfg, initial_state, rng)
