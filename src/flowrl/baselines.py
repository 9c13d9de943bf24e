# baselines.py -- two reference points for the learned policies: an aging
# multiple-bloom-filter (MBF) eviction cache run reactively, and the exact
# rule-partition oracle (0/1 knapsack: top-k for equal-size rules; DP for
# general sizes, with a brute-force enumerator for cross-checks).

import hashlib
import heapq
import math
from dataclasses import dataclass

from flowrl.model import ENTRY_BITS, FlowRule
from flowrl.simnet import EpisodeMetrics
# packets_for_tick stays bound: bench/layers.py traces it by name here
from flowrl.traffic import (  # noqa: F401
    emission_extent, last_emission_tick, packets_for_tick, total_packets)


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


class MbfState:
    """The aged bloom filters, newest first, each an int of MBF_BITS bits.
    Membership positions come from double hashing (two keyed 64-bit
    hashes; the stride is forced odd so all MBF_PROBES probes are distinct
    for the power-of-two MBF_BITS). The positions depend only on the flow
    id and the seed, so each flow is hashed once per state, into one mask
    (the sum of its distinct probe bits).
    """

    def __init__(self, seed=0):
        self.seed = seed
        self.filters = [0] * len(MBF_WEIGHTS)
        self._key1 = ("mbf1-%d" % seed).encode()
        self._key2 = ("mbf2-%d" % seed).encode()
        self._masks = {}

    def mask(self, flow_id):
        """The flow's probe positions as one bit mask."""
        mask = self._masks.get(flow_id)
        if mask is None:
            data = flow_id.text().encode()
            h1 = _hash64(data, self._key1)
            h2 = _hash64(data, self._key2) | 1
            mask = sum(1 << (h1 + i * h2) % MBF_BITS for i in range(MBF_PROBES))
            self._masks[flow_id] = mask
        return mask

    def insert(self, flow_id):
        """Record the flow in the newest filter."""
        self.filters[0] |= self.mask(flow_id)

    def contains(self, slot, flow_id):
        """Membership report of filter `slot` (0 = newest)."""
        mask = self.mask(flow_id)
        return self.filters[slot] & mask == mask

    def age(self):
        """Discard the oldest filter, shift the rest one slot older, and
        start a fresh newest filter."""
        self.filters.pop()
        self.filters.insert(0, 0)


def mbf_step(state, matched_flows, tick):
    """Advance the filter bank one tick: age at each window boundary, then
    insert every flow matched during this tick into the newest filter
    (setting bits is an OR, so the order of insertion cannot matter)."""
    if tick % MBF_WINDOW == 0:
        state.age()
    for fid in matched_flows:
        state.insert(fid)
    return state


def mbf_importance(state, flow_id):
    """Weighted membership score: the sum of MBF_WEIGHTS over filters
    reporting the flow, newest weighted highest. Range
    [0, sum(MBF_WEIGHTS)]; older-filter false positives can inflate it (a
    property of the structure, not an error)."""
    mask = state.mask(flow_id)
    return sum(w for f, w in zip(state.filters, MBF_WEIGHTS) if f & mask == mask)


def run_mbf_episode(schedule, table, mbf_cfg=None, duration=None):
    """Reactive baseline episode: a miss installs the rule, and when the
    table is full the entry with minimum mbf_importance is evicted first
    (ties: oldest install_time, then FlowId order).

    Packets are processed in schedule order with each flow's per-tick
    packets contiguous, so after a flow's first miss its remaining packets
    of that tick hit. Metrics use the same accounting as run_episode.

    Each tick's batch is packets_for_tick's, drawn from the flows active
    at the tick: a flow joins at its start and leaves after its last
    emission tick. The filters change only in mbf_step, so importance is
    fixed within a tick: the tick's first eviction heaps the residents'
    victim keys, later evictions pop the heap, and each later install
    pushes its key. The heap is dropped when the tick ends.
    """
    if mbf_cfg is None:
        mbf_cfg = MbfState()
    if duration is None:
        duration = emission_extent(schedule)
    profile = schedule.profile
    rate = profile.packets_per_tick()
    flows = []
    for f in schedule.flows:
        last = last_emission_tick(f, profile)
        last_count = total_packets(f.size, profile.packet_size) - (last - f.start) * rate
        flows.append((f.start, last, last_count, f.id))

    def victim_key(fid):
        return (mbf_importance(mbf_cfg, fid), table.entries[fid].install_time, fid)

    hits = 0
    misses = 0
    active = []
    joined = 0
    for tick in range(duration):
        while joined < len(flows) and flows[joined][0] <= tick:
            active.append(flows[joined])
            joined += 1
        batch = [(fid, rate if tick < last else last_count) for _, last, last_count, fid in active]
        active = [flow for flow in active if flow[1] > tick]
        mbf_step(mbf_cfg, [fid for fid, _ in batch], tick)
        heap = None
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
                if heap is None:
                    heap = [victim_key(resident) for resident in table.entries]
                    heapq.heapify(heap)
                table.remove(heapq.heappop(heap)[2])
            table.insert(FlowRule(id=fid, install_time=tick))
            if heap is not None:
                heapq.heappush(heap, victim_key(fid))
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
