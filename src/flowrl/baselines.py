# baselines.py -- two reference points for the learned policies: an aging
# multiple-bloom-filter (MBF) eviction cache run reactively, and the exact
# rule-partition oracle (0/1 knapsack: top-k for equal-size rules; DP for
# general sizes, with a brute-force enumerator for cross-checks).

import hashlib
import heapq
import math
from dataclasses import dataclass

import numpy as np

from flowrl.model import ENTRY_BITS, FlowRule
from flowrl.simnet import EpisodeMetrics
from flowrl.traffic import emission_extent, packets_for_tick


class TooLarge(Exception):
    """Brute force is capped at 20 rules (2^N enumeration)."""


class CapacityNegative(Exception):
    """Partition capacity must be non-negative."""


def _hash64(data, key):
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8, key=key).digest(), "little"
    )


class MbfState:
    """k aged bloom filters, newest first, with power-of-two importance
    weights. Membership positions come from double hashing (two keyed
    64-bit hashes; the stride is forced odd so all h probes are distinct
    for power-of-two m). The positions depend only on the flow id, seed,
    m and h, so each flow is hashed once per state.
    """

    def __init__(self, k=4, m=4096, h=3, weights=(8, 4, 2, 1), window=5, seed=0):
        if k < 1 or h < 1 or m < 1 or window < 1:
            raise ValueError("k, m, h, window must be >= 1")
        if len(weights) != k:
            raise ValueError("need one weight per filter")
        if any(b >= a for a, b in zip(weights, weights[1:])):
            raise ValueError("weights must be strictly decreasing")
        if any(w < 1 or (w & (w - 1)) for w in weights):
            raise ValueError("weights must be powers of two")
        self.k = k
        self.m = m
        self.h = h
        self.weights = tuple(weights)
        self.window = window
        self.seed = seed
        self.filters = [np.zeros(m, dtype=bool) for _ in range(k)]
        self._key1 = ("mbf1-%d" % seed).encode()
        self._key2 = ("mbf2-%d" % seed).encode()
        self._probes = {}

    def _positions(self, flow_id):
        positions = self._probes.get(flow_id)
        if positions is None:
            data = flow_id.text().encode()
            h1 = _hash64(data, self._key1)
            h2 = _hash64(data, self._key2) | 1
            positions = [(h1 + i * h2) % self.m for i in range(self.h)]
            self._probes[flow_id] = positions
        return positions

    def insert(self, flow_id):
        """Record the flow in the newest filter."""
        self.filters[0][self._positions(flow_id)] = True

    def contains(self, slot, flow_id):
        """Membership report of filter `slot` (0 = newest)."""
        return bool(self.filters[slot][self._positions(flow_id)].all())

    def age(self):
        """Discard the oldest filter, shift the rest one slot older, and
        start a fresh newest filter."""
        self.filters.pop()
        self.filters.insert(0, np.zeros(self.m, dtype=bool))


def mbf_step(state, matched_flows, tick):
    """Advance the filter bank one tick: age at each window boundary, then
    insert every flow matched during this tick into the newest filter
    (setting bits is an OR, so the order of insertion cannot matter)."""
    if tick % state.window == 0:
        state.age()
    for fid in matched_flows:
        state.insert(fid)
    return state


def mbf_importance(state, flow_id):
    """Weighted membership score: the sum of filter weights over filters
    reporting the flow, newest weighted highest. Range [0, sum(weights)];
    older-filter false positives can inflate it (a property of the
    structure, not an error)."""
    return sum(
        w for slot, w in enumerate(state.weights) if state.contains(slot, flow_id)
    )


def run_mbf_episode(schedule, table, mbf_cfg=None, duration=None):
    """Reactive baseline episode: a miss installs the rule, and when the
    table is full the entry with minimum mbf_importance is evicted first
    (ties: oldest install_time, then FlowId order).

    Packets are processed in schedule order with each flow's per-tick
    packets contiguous, so after a flow's first miss its remaining packets
    of that tick hit. Metrics use the same accounting as run_episode.

    The filters change only in mbf_step, so a resident's importance holds
    for the rest of its tick: each resident is scored at most once per
    tick, however many misses the tick has.
    """
    if mbf_cfg is None:
        mbf_cfg = MbfState()
    if duration is None:
        duration = emission_extent(schedule)

    hits = 0
    misses = 0
    for tick in range(duration):
        batch = packets_for_tick(schedule, tick)
        mbf_step(mbf_cfg, {fid for fid, _ in batch}, tick)
        scores = {}

        def victim_key(rule):
            score = scores.get(rule.id)
            if score is None:
                score = scores[rule.id] = mbf_importance(mbf_cfg, rule.id)
            return (score, rule.install_time, rule.id)

        for fid, count in batch:
            if fid in table.entries:
                hits += count
                continue
            misses += 1
            if table.max_entries == 0:
                # nothing can ever be installed; the rest of the tick's
                # packets miss too
                misses += count - 1
                continue
            if len(table) >= table.max_entries:
                victim = min(table.entries.values(), key=victim_key)
                table.remove(victim.id)
            table.insert(FlowRule(id=fid, install_time=tick))
            hits += count - 1

    return EpisodeMetrics(hits=hits, misses=misses, duration=duration)


@dataclass(frozen=True)
class IlpInstance:
    """Rule-partition instance: rules holds (t, s) pairs — t the rule's
    per-episode overhead rate when controller-resident, s its size in bits
    — plus the switch capacity in bits."""

    rules: tuple
    capacity: int

    def __post_init__(self):
        object.__setattr__(
            self, "rules", tuple((t, int(s)) for t, s in self.rules)
        )
        for t, s in self.rules:
            if t < 0:
                raise ValueError("overhead rates must be >= 0")
            if s <= 0:
                raise ValueError("rule sizes must be > 0")

    @property
    def n(self):
        return len(self.rules)


@dataclass(frozen=True)
class Assignment:
    """A full partition: every rule index (1-based) is on the switch iff it
    is in on_switch, else controller-resident; objective is the summed
    overhead rate of the controller-resident rules."""

    on_switch: frozenset
    objective: object

    def check(self, inst):
        """Assert capacity and partition feasibility against an instance."""
        used = sum(inst.rules[i - 1][1] for i in self.on_switch)
        if used > inst.capacity:
            raise ValueError("assignment exceeds capacity")
        off = sum(t for i, (t, _) in enumerate(inst.rules, 1) if i not in self.on_switch)
        if off != self.objective:
            raise ValueError("objective inconsistent with assignment")
        return True


def knapsack_exact(inst):
    """Minimize controller-resident overhead: equivalently a 0/1 knapsack
    maximizing the on-switch overhead sum under the bit capacity.

    Top-k for equal-size rules; DP for general sizes. The optimal
    objective is unique; among optimal assignments the lexicographically
    smallest on_switch index set is returned, and a proper prefix sorts
    before any extension of it by zero-value rules.
    """
    if inst.capacity < 0:
        raise CapacityNegative(str(inst.capacity))
    n = inst.n
    if n == 0:
        return Assignment(on_switch=frozenset(), objective=0)
    sizes = {s for _, s in inst.rules}
    if len(sizes) > 1:
        return _knapsack_dp(inst)

    # k rules fit: the k largest values, earliest first among ties (nlargest
    # keeps sorted's stable order), less the zero-value rules after the
    # last positive one
    values = [t for t, _ in inst.rules]
    k = min(inst.capacity // sizes.pop(), n)
    chosen = heapq.nlargest(k, range(n), key=values.__getitem__)
    last = max((i for i in chosen if values[i] > 0), default=-1)
    chosen = [i for i in chosen if i <= last]
    return Assignment(on_switch=frozenset(i + 1 for i in chosen),
                      objective=sum(values) - sum(values[i] for i in chosen))


def _knapsack_dp(inst):
    """knapsack_exact for any sizes and n >= 1: an exact dynamic program
    over capacity scaled by gcd(sizes), clamped to the summed sizes: beyond
    them every rule fits, so neither the optimum nor the reconstruction
    below can change."""
    n = inst.n
    total = sum(t for t, _ in inst.rules)
    g = 0
    for _, s in inst.rules:
        g = math.gcd(g, s)
    cap = min(inst.capacity, sum(s for _, s in inst.rules)) // g
    sizes = [s // g for _, s in inst.rules]
    values = [t for t, _ in inst.rules]

    # dp[i][w] = best on-switch value achievable with rules i.. and room w
    dp = [[0] * (cap + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row = dp[i]
        nxt = dp[i + 1]
        w_i = sizes[i]
        v_i = values[i]
        for w in range(cap + 1):
            best = nxt[w]
            if w_i <= w:
                cand = v_i + nxt[w - w_i]
                if cand > best:
                    best = cand
            row[w] = best

    # prefer including each rule in index order, but stop once the remaining
    # optimum is zero: a proper prefix sorts lexicographically before any
    # extension of it by zero-value rules
    on_switch = set()
    w = cap
    for i in range(n):
        if dp[i][w] == 0:
            break
        if sizes[i] <= w and values[i] + dp[i + 1][w - sizes[i]] == dp[i][w]:
            on_switch.add(i + 1)
            w -= sizes[i]
    return Assignment(on_switch=frozenset(on_switch), objective=total - dp[0][cap])


def brute_force_partition(inst):
    """Enumerate all 2^N partitions (N <= 20) and return the feasible one
    with minimum objective, tie-broken like knapsack_exact."""
    if inst.capacity < 0:
        raise CapacityNegative(str(inst.capacity))
    n = inst.n
    if n > 20:
        raise TooLarge("%d rules > 20" % n)
    total = sum(t for t, _ in inst.rules)
    best_obj = None
    best_set = None
    for mask in range(1 << n):
        used = 0
        value = 0
        for i in range(n):
            if mask >> i & 1:
                t, s = inst.rules[i]
                used += s
                value += t
        if used > inst.capacity:
            continue
        obj = total - value
        chosen = tuple(i + 1 for i in range(n) if mask >> i & 1)
        if (
            best_obj is None
            or obj < best_obj
            or (obj == best_obj and chosen < best_set)
        ):
            best_obj = obj
            best_set = chosen
    return Assignment(on_switch=frozenset(best_set), objective=best_obj)
