# qlearn.py -- tabular Q-learning over the threshold grid: epsilon-greedy
# selection with iterative epsilon decay, the one-cell Q update, table
# initialization (random, then optional training runs), persistence, and the
# goal-driven training loop that both learners run.

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from flowrl.model import FREQ_GRID, GRID_STEP, REC_GRID, ThresholdConfig, read_text
from flowrl.simnet import BestSoFar, hit_ratio, reduction_fraction


class Action(IntEnum):
    """The five composite actions; greedy ties resolve in this order."""

    NoOp = 0
    IncFreq = 1
    DecFreq = 2
    IncRec = 3
    DecRec = 4


ACTIONS = tuple(Action)
N_ACTIONS = len(ACTIONS)


class MalformedQTable(Exception):
    """A Q-table file that QTable.load rejects; the message starts with
    the number of the offending line."""


@dataclass
class AgentConfig:
    """Hyperparameters of both learners; alpha is the tabular step size
    (the DQN's is its fixed LEARNING_RATE).

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
    """Dense Q-values over the full state grid: rows[fi][ri] holds the five
    action values of the state (FREQ_GRID[fi], REC_GRID[ri]) as Python
    floats, built from any (21, 31, 5) array."""

    def __init__(self, values=None):
        shape = (len(FREQ_GRID), len(REC_GRID), N_ACTIONS)
        if values is None:
            values = np.zeros(shape)
        values = np.asarray(values, dtype=float)
        if values.shape != shape:
            raise ValueError("expected shape %r" % (shape,))
        self.rows = values.tolist()

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
        return self.rows[fi][ri]

    def get(self, state, action):
        return self.row(state)[int(action)]

    def set(self, state, action, value):
        self.row(state)[int(action)] = float(value)

    def save(self, path):
        """One `freq_thr,rec_thr,action,q_value` line per cell, sorted,
        with 17-significant-digit decimals (round-trip exact)."""
        with open(path, "w", newline="\n") as fh:
            for f, f_rows in zip(FREQ_GRID, self.rows):
                for r, row in zip(REC_GRID, f_rows):
                    for a in ACTIONS:
                        fh.write("%d,%d,%s,%.17g\n" % (f, r, a.name, row[a]))

    @staticmethod
    def load(path):
        """Read a file in the format save writes, bit-exact.

        Raises MalformedQTable, naming the line, for a line without four
        fields, a threshold that is not a non-negative integer on the grid,
        an unknown action name, a cell given twice, a non-finite value or
        bytes that are not UTF-8, and (naming the last line) for a file
        that leaves any of the 21 x 31 x 5 cells unset. Blank lines are
        skipped.
        """
        shape = (len(FREQ_GRID), len(REC_GRID), N_ACTIONS)
        freq_index = {str(f): i for i, f in enumerate(FREQ_GRID)}
        rec_index = {str(r): i for i, r in enumerate(REC_GRID)}
        action_index = {a.name: int(a) for a in ACTIONS}
        cells = [None] * (shape[0] * shape[1] * shape[2])
        lineno = 0
        with read_text(path, MalformedQTable) as fh:
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
    after the initial-state evaluation (trace row 0); trace is None for a
    run made with trace=False."""

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
    row = q.row(state)
    return Action(row.index(max(row)))


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
    target = reward + cfg.gamma * max(q.row(next_state))
    q.set(state, action, current + cfg.alpha * (target - current))
    return q


def decay_epsilon(eps, step, budget):
    """Iterative decay: eps * (1 - step/budget), applied each episode with
    the current eps and that episode's index."""
    if not 0 <= step < budget:
        raise ValueError("step must be in [0, budget)")
    return eps * (1.0 - step / budget)


def init_qtable(seed, training_sets=(), env=None, cfg=None):
    """Build a Q-table: every cell uniform in [0, 0.01), seeded, then one
    full training run on env under cfg per training set (each set as the
    initial state), accumulating into the same table without trace rows.
    No training sets leave the random table."""
    rng = np.random.default_rng(seed)
    q = QTable.random(rng)
    for state in training_sets:
        q_train(env, q, cfg, state, rng, trace=False)
    return q


def _trace_row(episode, metrics, state, reward, eps, initial):
    red = reduction_fraction(initial, metrics.overhead) if initial else 0.0
    return TraceRow(episode, metrics.overhead, metrics.hits, metrics.misses, hit_ratio(metrics),
                    red, state.freq_threshold, state.recentness_threshold, reward, eps)


# Every grid state, indexed [fi][ri]; train walks these by index.
GRID_STATES = tuple(tuple(ThresholdConfig(f, r) for r in REC_GRID) for f in FREQ_GRID)

# Each action's next grid index along each axis, [action][index], clamped
# at the edges as apply_action clamps.
_NEXT_FI = tuple(tuple(min(max(i + s, 0), len(FREQ_GRID) - 1) for i in range(len(FREQ_GRID)))
                 for s in (0, 1, -1, 0, 0))
_NEXT_RI = tuple(tuple(min(max(i + s, 0), len(REC_GRID) - 1) for i in range(len(REC_GRID)))
                 for s in (0, 0, 0, 1, -1))


def train(env, policy, cfg, initial_state, rng=None, trace=True):
    """Goal-driven training loop of both learners, over the grid indices
    (fi, ri) of GRID_STATES.

    Episode 0 evaluates the initial state to fix the baseline overhead.
    Each following episode draws an action index as epsilon_greedy_select
    does, a uniform one with probability eps and policy.greedy(fi, ri)
    otherwise, decays epsilon (when enabled), moves one clamped grid step
    as apply_action does, makes one env.run call at the new thresholds,
    rewards it against the best overhead so far as compute_reward does,
    and hands the transition to
    policy.learn(fi, ri, action, reward, nfi, nri, rng). Stops when the
    best episode's overhead reduction exceeds cfg.goal_mu, or at the
    episode cap cfg.budget (goal_met=False). A zero baseline cannot be
    improved: the run returns at once with goal_met=True and the policy is
    never called. trace=False (pre-training) builds no trace rows.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    m0 = env.run(initial_state)
    initial = m0.overhead
    best = BestSoFar(initial, initial_state, m0)
    rows = [_trace_row(0, m0, initial_state, 0, cfg.epsilon0, initial)] if trace else None
    if initial == 0:
        return TrainResult(0, best, True, rows)

    greedy, learn, run = policy.greedy, policy.learn, env.run
    budget, goal_mu, decay = cfg.budget, cfg.goal_mu, cfg.epsilon_decay
    fi, ri = QTable._index(initial_state)
    eps = cfg.epsilon0
    for step in range(budget):
        action = int(rng.integers(N_ACTIONS)) if rng.random() < eps else greedy(fi, ri)
        eps_used = eps
        if decay:
            eps = eps * (1.0 - step / budget)  # decay_epsilon
        nfi = _NEXT_FI[action][fi]
        nri = _NEXT_RI[action][ri]
        state = GRID_STATES[nfi][nri]
        metrics = run(state)
        overhead = metrics.overhead
        reward = (overhead < best.best_overhead) - (overhead > best.best_overhead)
        if reward == 1:
            best.best_overhead, best.best_thresholds, best.best_metrics = overhead, state, metrics
        learn(fi, ri, action, reward, nfi, nri, rng)
        if rows is not None:
            rows.append(_trace_row(step + 1, metrics, state, reward, eps_used, initial))
        fi, ri = nfi, nri
        if (initial - best.best_overhead) / initial > goal_mu:
            return TrainResult(step + 1, best, True, rows)
    return TrainResult(budget, best, False, rows)


class _TabularPolicy:
    """train's policy over a Q-table: the greedy action and the q_update
    rule, on the table's rows in place."""

    def __init__(self, q, cfg):
        self.rows = q.rows
        self.alpha = cfg.alpha
        self.gamma = cfg.gamma

    def greedy(self, fi, ri):
        row = self.rows[fi][ri]
        return row.index(max(row))  # the first maximum, as np.argmax

    def learn(self, fi, ri, action, reward, nfi, nri, rng):
        row = self.rows[fi][ri]
        current = row[action]
        target = reward + self.gamma * max(self.rows[nfi][nri])
        row[action] = current + self.alpha * (target - current)


def q_train(env, q, cfg, initial_state, rng=None, trace=True):
    """Run train with the tabular policy, updating q in place."""
    return train(env, _TabularPolicy(q, cfg), cfg, initial_state, rng, trace)
