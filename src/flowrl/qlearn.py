# qlearn.py -- tabular Q-learning over the threshold grid: epsilon-greedy
# selection with iterative epsilon decay, the one-cell Q update, table
# initialization (random, then optional training runs), persistence, and the
# goal-driven training loop that both learners run.

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import ClassVar

import numpy as np

from flowrl.model import FREQ_GRID, GRID_STEP, REC_GRID, ThresholdConfig, read_text
from flowrl.simnet import BestSoFar, hit_ratio, reduction_fraction
from flowrl.traffic import WordDraws


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
    """Hyperparameters of both learners. The constants alpha (the tabular
    step size; the DQN's is its LEARNING_RATE) and gamma (the discount of
    both) are not settable.

    epsilon decays from epsilon0 each episode when epsilon_decay is True
    (fresh tables); initialized tables run a static small epsilon instead.
    budget is the episode cap of one training run; goal_mu the target
    overhead-reduction fraction.
    """

    alpha: ClassVar[float] = 0.1
    gamma: ClassVar[float] = 0.95
    epsilon0: float = 1.0
    budget: int = 1000
    goal_mu: float = 0.4
    epsilon_decay: bool = True

    def __post_init__(self):
        if not 0.0 <= self.epsilon0 <= 1.0:
            raise ValueError("epsilon0 must be in [0, 1]")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if not 0.0 < self.goal_mu < 1.0:
            raise ValueError("goal_mu must be in (0, 1)")


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
        """One `freq_thr,rec_thr,action,q_value` line per cell, in
        _CELL_INDEX's (sorted) order, with 17-significant-digit decimals
        (round-trip exact)."""
        with open(path, "w", newline="\n") as fh:
            fh.writelines("%s,%.17g\n" % line
                          for line in zip(_CELL_INDEX, np.ravel(self.rows).tolist()))

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
        cells = [None] * len(_CELL_INDEX)
        lineno = 0
        with read_text(path, MalformedQTable) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                cell, _, value = line.rpartition(",")
                k = _CELL_INDEX.get(cell)
                if k is None:
                    k = _cell_index(line, lineno)
                try:
                    v = float(value)
                except ValueError:
                    raise MalformedQTable(
                        "line %d: value %r is not a number" % (lineno, value)
                    ) from None
                if not math.isfinite(v):
                    raise MalformedQTable("line %d: non-finite value %r" % (lineno, value))
                if cells[k] is not None:
                    raise MalformedQTable("line %d: duplicate cell %s" % (lineno, cell))
                cells[k] = v
        missing = cells.count(None)
        if missing:
            raise MalformedQTable(
                "line %d: file ends after %d of %d cells"
                % (lineno, len(cells) - missing, len(cells))
            )
        return QTable(np.reshape(cells, (len(FREQ_GRID), len(REC_GRID), N_ACTIONS)))


# Each cell's index in QTable.load's flat list, keyed by the
# "freq_thr,rec_thr,action" text that save writes before the value, in the
# order save writes the cells.
_CELL_INDEX = {"%d,%d,%s" % (f, r, a.name): (fi * len(REC_GRID) + ri) * N_ACTIONS + a
               for fi, f in enumerate(FREQ_GRID) for ri, r in enumerate(REC_GRID)
               for a in ACTIONS}


def _cell_index(line, lineno):
    """The flat cell index of a Q-table line whose cell is not written the
    way save writes it, checked field by field."""
    fields = line.split(",")
    if len(fields) != 4:
        raise MalformedQTable("line %d: expected 4 fields, got %d" % (lineno, len(fields)))
    f, r, name, _ = fields
    fi = _grid_index(f, FREQ_GRID, "frequency threshold", lineno)
    ri = _grid_index(r, REC_GRID, "recentness threshold", lineno)
    if name not in Action.__members__:
        raise MalformedQTable("line %d: unknown action %r" % (lineno, name))
    return (fi * len(REC_GRID) + ri) * N_ACTIONS + Action[name]


def _grid_index(text, grid, what, lineno):
    """Grid index of a threshold field, accepted only as a plain decimal
    integer on the grid."""
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


def q_update(q, state, action, reward, next_state, cfg):
    """One-cell temporal-difference update:
    Q(s,a) += alpha * (r + gamma * max_a' Q(s',a') - Q(s,a))."""
    current = q.get(state, action)
    target = reward + cfg.gamma * max(q.row(next_state))
    q.set(state, action, current + cfg.alpha * (target - current))
    return q


def init_qtable(seed, training_sets=(), env=None, cfg=None):
    """Build a Q-table: every cell uniform in [0, 0.01), seeded, then one
    full training run on env under cfg per training set (each set as the
    initial state), accumulating into the same table without trace rows.
    The runs draw in turn from one WordDraws on the seed's generator. No
    training sets leave the random table."""
    rng = np.random.default_rng(seed)
    q = QTable.random(rng)
    draws = WordDraws(rng)
    for state in training_sets:
        q_train(env, q, cfg, state, draws, trace=False)
    return q


def _trace_row(episode, metrics, state, reward, eps, initial):
    red = reduction_fraction(initial, metrics.overhead) if initial else 0.0
    return TraceRow(episode, metrics.overhead, metrics.hits, metrics.misses, hit_ratio(metrics),
                    red, state.freq_threshold, state.recentness_threshold, reward, eps)


# Every grid state, indexed [fi][ri]; train walks these by index.
GRID_STATES = tuple(tuple(ThresholdConfig(f, r) for r in REC_GRID) for f in FREQ_GRID)

# Each action's next grid index along each axis, [action][index], clamped
# at the grid's edges.
_NEXT_FI = tuple(tuple(min(max(i + s, 0), len(FREQ_GRID) - 1) for i in range(len(FREQ_GRID)))
                 for s in (0, 1, -1, 0, 0))
_NEXT_RI = tuple(tuple(min(max(i + s, 0), len(REC_GRID) - 1) for i in range(len(REC_GRID)))
                 for s in (0, 0, 0, 1, -1))


def train(env, policy, cfg, initial_state, draws, trace=True):
    """Goal-driven training loop of both learners, over the grid indices
    (fi, ri) of GRID_STATES.

    Episode 0 is env.run(initial_state), the baseline overhead. Each
    following episode draws an action index, a uniform one with probability
    eps and policy.greedy(fi, ri) otherwise, decays epsilon (when enabled),
    moves one clamped grid step, reads its metrics as env.cells()[nfi][nri],
    rewards them against the best overhead so far (+1 below it, which
    updates the best, -1 above, 0 level), and hands the transition to
    policy.learn(fi, ri, action, reward, nfi, nri, draws). draws is a
    WordDraws, read from where it stands: a coin (WordDraws.random's rule on
    draws.word) and an exploring action are Generator.random() and
    Generator.integers(5) calls (tests/reference.py keeps that loop).
    Stops when the best episode's overhead reduction exceeds cfg.goal_mu,
    or at the episode cap cfg.budget (goal_met=False). A zero baseline
    cannot be improved: the run returns at once with goal_met=True and the
    policy is never called. trace=False (pre-training) builds no trace
    rows.
    """
    m0 = env.run(initial_state)
    initial = m0.overhead
    best = BestSoFar(initial, initial_state, m0)
    rows = [_trace_row(0, m0, initial_state, 0, cfg.epsilon0, initial)] if trace else None
    if initial == 0:
        return TrainResult(0, best, True, rows)

    greedy, learn, cells = policy.greedy, policy.learn, env.cells()
    budget, goal_mu, decay = cfg.budget, cfg.goal_mu, cfg.epsilon_decay
    fi, ri = QTable._index(initial_state)
    eps = cfg.epsilon0
    best_overhead = initial
    word, below = draws.word, draws.below
    for step in range(budget):
        action = below(N_ACTIONS) if (word() >> 11) * 2**-53 < eps else greedy(fi, ri)
        eps_used = eps
        if decay:
            eps = eps * (1.0 - step / budget)  # decay_epsilon
        nfi = _NEXT_FI[action][fi]
        nri = _NEXT_RI[action][ri]
        metrics = cells[nfi][nri]
        overhead = metrics.overhead
        reward = (overhead < best_overhead) - (overhead > best_overhead)
        if reward == 1:
            best_overhead = overhead
            best.best_overhead, best.best_thresholds, best.best_metrics = (
                overhead, GRID_STATES[nfi][nri], metrics)
        learn(fi, ri, action, reward, nfi, nri, draws)
        if rows is not None:
            rows.append(_trace_row(step + 1, metrics, GRID_STATES[nfi][nri], reward, eps_used,
                                   initial))
        fi, ri = nfi, nri
        # the reduction moves only when the best improves
        if reward == 1 and (initial - best_overhead) / initial > goal_mu:
            return TrainResult(step + 1, best, True, rows)
    return TrainResult(budget, best, False, rows)


class _TabularPolicy:
    """train's policy over a Q-table: the greedy action and the q_update
    rule, on the table's rows in place."""

    def __init__(self, q):
        self.rows = q.rows
        # read per step: an instance attribute is cheaper than a class's
        self.alpha, self.gamma = AgentConfig.alpha, AgentConfig.gamma

    def greedy(self, fi, ri):
        row = self.rows[fi][ri]
        return row.index(max(row))  # the first maximum, as np.argmax

    def learn(self, fi, ri, action, reward, nfi, nri, draws):
        row = self.rows[fi][ri]
        current = row[action]
        target = reward + self.gamma * max(self.rows[nfi][nri])
        row[action] = current + self.alpha * (target - current)


def q_train(env, q, cfg, initial_state, draws, trace=True):
    """Run train with the tabular policy, updating q in place."""
    return train(env, _TabularPolicy(q), cfg, initial_state, draws, trace)
