# baselines.py -- two reference points for the learned policies: an aging
# multiple-bloom-filter (MBF) eviction cache run reactively, and the exact
# rule-partition oracle (0/1 knapsack: top-k for equal-size rules; DP for
# general sizes, with a brute-force enumerator for cross-checks).

import hashlib
import heapq
import math
from dataclasses import dataclass

from flowrl.model import FlowRule, key_text
from flowrl.simnet import EpisodeMetrics
# packets_for_tick stays bound: bench/layers.py traces it by name here
from flowrl.traffic import last_emission_tick, packets_for_tick  # noqa: F401


class TooLarge(Exception):
    """Brute force is capped at 20 rules (2^N enumeration)."""


class CapacityNegative(Exception):
    """Partition capacity must be non-negative."""


def _hash64(data, key):
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8, key=key).digest(), "little"
    )


# The MBF design: one aged filter per importance weight, newest first
# (strictly decreasing powers of two), each of MBF_BITS bits probed
# MBF_PROBES times per flow, aged every MBF_WINDOW ticks.
MBF_WEIGHTS = (8, 4, 2, 1)
MBF_BITS = 4096
MBF_PROBES = 3
MBF_WINDOW = 5
# The largest seed an MbfState takes: its blake2b keys are "mbf1-<seed>"
# and "mbf2-<seed>", and blake2b takes at most MAX_KEY_SIZE bytes of key.
MAX_MBF_SEED = 10 ** (hashlib.blake2b.MAX_KEY_SIZE - len("mbf1-")) - 1


class MbfState:
    """The aged bloom filters, newest first, each an int of MBF_BITS bits.
    Membership positions come from double hashing (two keyed 64-bit
    hashes of the flow's key_text; the stride is forced odd so all
    MBF_PROBES probes are distinct for the power-of-two MBF_BITS). The
    positions depend only on the flow key and the seed, so each flow is
    hashed once per state, into one mask (the sum of its distinct probe
    bits). older maps a key to its score from filters[1:]; age(), the only
    method that changes those filters, clears it. A seed above
    MAX_MBF_SEED is refused.
    """

    def __init__(self, seed):
        if seed > MAX_MBF_SEED:
            raise ValueError("MbfState seed %d is above MAX_MBF_SEED (%d)" % (seed, MAX_MBF_SEED))
        self.filters = [0] * len(MBF_WEIGHTS)
        self._key1 = ("mbf1-%d" % seed).encode()
        self._key2 = ("mbf2-%d" % seed).encode()
        self._masks = {}
        self.older = {}

    def mask(self, key):
        """The probe positions of the flow with this key, as one bit mask."""
        mask = self._masks.get(key)
        if mask is None:
            data = key_text(key).encode()
            h1 = _hash64(data, self._key1)
            h2 = _hash64(data, self._key2) | 1
            mask = sum(1 << (h1 + i * h2) % MBF_BITS for i in range(MBF_PROBES))
            self._masks[key] = mask
        return mask

    def insert(self, key):
        """Record the flow in the newest filter."""
        self.filters[0] |= self.mask(key)

    def age(self):
        """Discard the oldest filter, shift the rest one slot older, and
        start a fresh newest filter."""
        self.filters.pop()
        self.filters.insert(0, 0)
        self.older.clear()


def mbf_step(state, matched_flows, tick):
    """Advance the filter bank one tick: age at each window boundary, then
    insert every flow (by key) matched during this tick into the newest
    filter (setting bits is an OR, so the order of insertion cannot
    matter). Returns whether the bank aged."""
    aged = tick % MBF_WINDOW == 0
    if aged:
        state.age()
    for key in matched_flows:
        state.insert(key)
    return aged


def mbf_importance(state, key):
    """Weighted membership score of the flow with this key: the sum of
    MBF_WEIGHTS over filters reporting the flow, newest weighted highest.
    Range [0, sum(MBF_WEIGHTS)]; older-filter false positives can inflate
    it (a property of the structure, not an error). The older filters'
    part is kept in state.older until the bank ages."""
    mask = state.mask(key)
    older = state.older.get(key)
    if older is None:
        older = state.older[key] = sum(
            w for f, w in zip(state.filters[1:], MBF_WEIGHTS[1:]) if f & mask == mask)
    return older + MBF_WEIGHTS[0] if state.filters[0] & mask == mask else older


def run_mbf_episode(schedule, table, state):
    """Reactive baseline episode over the schedule's horizon, aging state:
    a miss installs the flow's rule, keyed by its flow key, and when the
    table is full the entry with minimum mbf_importance is evicted first
    (ties: oldest install_time, then key order).
    Packets a flow would emit from the horizon on are not offered.

    Packets are processed in schedule order with each flow's per-tick
    packets contiguous, so after a flow's first miss its remaining packets
    of that tick hit. Metrics use the same accounting as run_episode.

    Each tick's batch is packets_for_tick's, drawn from the flows active
    at the tick: a flow joins at its start and leaves after its last
    emission tick. The window's first eviction heaps the residents'
    eviction ranks, each later install pushes its rank, and the heap is
    dropped when mbf_step ages the bank. Within a window a rank can only
    rise (the newest filter only gains bits), so each pop first re-ranks
    the top, replacing it while its rank rose: a top whose rank holds is
    the least.
    """
    duration = schedule.horizon
    rate = schedule.profile.packets_per_tick()
    starts, packets = schedule.starts, schedule.packets
    lasts = last_emission_tick(starts, packets, rate)
    flows = list(zip(starts.tolist(), lasts.tolist(),
                     (packets - (lasts - starts) * rate).tolist(), schedule.keys.tolist()))

    def eviction_rank(key):
        return (mbf_importance(state, key), table.entries[key].install_time, key)

    hits = 0
    misses = 0
    active = []
    joined = 0
    heap = None
    for tick in range(duration):
        while joined < len(flows) and flows[joined][0] <= tick:
            active.append(flows[joined])
            joined += 1
        batch = [(key, rate if tick < last else last_count) for _, last, last_count, key in active]
        active = [flow for flow in active if flow[1] > tick]
        if mbf_step(state, [key for key, _ in batch], tick):
            heap = None
        for key, count in batch:
            if key in table.entries:
                hits += count
                continue
            misses += 1
            if table.max_entries == 0:
                # nothing can ever be installed; the rest of the tick's
                # packets miss too
                misses += count - 1
                continue
            if len(table) >= table.max_entries:
                if heap is None:
                    heap = [eviction_rank(resident) for resident in table.entries]
                    heapq.heapify(heap)
                while (rank := eviction_rank(heap[0][2])) != heap[0]:
                    heapq.heapreplace(heap, rank)
                table.remove(heapq.heappop(heap)[2])
            table.insert(FlowRule(id=key, install_time=tick))
            if heap is not None:
                heapq.heappush(heap, eviction_rank(key))
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
