"""Reference definitions the package no longer carries, kept for the
tests that compare the package against them.

- The tabular learner's public-function loop: epsilon_greedy_select,
  apply_action, decay_epsilon and compute_reward, which qlearn.train's
  index walk restates.
- The field-based episode packets, pool ranking and oracle order, which
  the uint64 flow keys (model.flow_key) replaced: each reads only the
  views (schedule.flows and pool.records) and orders flows by the four
  fields key_fields unpacks, not by the key itself.
"""
import numpy as np

from flowrl.baselines import IlpInstance
from flowrl.model import ENTRY_BITS, FREQ_GRID, GRID_STEP, REC_GRID, ThresholdConfig
from flowrl.qlearn import N_ACTIONS, Action
from flowrl.traffic import emitted_before


def compute_reward(best, current_overhead, thresholds=None, metrics=None):
    """Three-valued reward against the best overhead so far.

    current < best -> +1 and best is updated (with the achieving thresholds
    and metrics when given); current > best -> -1; equal -> 0.
    """
    if current_overhead < best.best_overhead:
        best.best_overhead = current_overhead
        if thresholds is not None:
            best.best_thresholds = thresholds
        if metrics is not None:
            best.best_metrics = metrics
        return 1
    if current_overhead > best.best_overhead:
        return -1
    return 0


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


def decay_epsilon(eps, step, budget):
    """Iterative decay: eps * (1 - step/budget), applied each episode with
    the current eps and that episode's index."""
    if not 0 <= step < budget:
        raise ValueError("step must be in [0, budget)")
    return eps * (1.0 - step / budget)


def key_fields(key):
    """A flow key's (src_host, dst_host, src_port, dst_port), unpacked with
    this module's own shifts and masks."""
    return key >> 48, key >> 32 & 0xFFFF, key >> 16 & 0xFFFF, key & 0xFFFF


def episode_packets(schedule):
    """Each flow's packets in [0, horizon), by key."""
    packets = emitted_before(schedule.starts, schedule.packets,
                             schedule.profile.packets_per_tick(), schedule.horizon)
    return dict(zip((f.id for f in schedule.flows), packets.tolist()))


def rank_pool(pool, packets, window_close):
    """model.rank_pool over the flows' fields: packets maps a key to its
    episode packets (absent flows count 0), and the key's four fields
    break ties, the ports as 16-bit sort keys."""
    if (pool.last_seen > window_close).any():
        raise ValueError("window_close precedes a pool record")
    recentness = window_close - pool.last_seen
    keys = list(pool.records)
    fields = np.array([key_fields(k) for k in keys], np.int64).reshape(-1, 4).T
    fields = [*fields[:2], *fields[2:].astype(np.uint16)]
    flow_packets = np.array([packets.get(k, 0) for k in keys], np.int64)
    rank = np.lexsort((*fields[::-1], recentness, -pool.freq))
    return pool.freq[rank], recentness[rank], flow_packets[rank]


def oracle_instance(pool, eval_schedule, capacity_bits):
    """harness._oracle_instance over the flows' fields: the rules in the
    order of the keys' field tuples, and that order."""
    packets = episode_packets(eval_schedule)
    order = sorted(pool.records, key=key_fields)
    rules = tuple((packets.get(key, 0), ENTRY_BITS) for key in order)
    return IlpInstance(rules=rules, capacity=capacity_bits), order
