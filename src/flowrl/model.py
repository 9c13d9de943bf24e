# model.py -- flow identities, forwarding rules, the capacity-bounded flow
# table, the observed flow pool, threshold-based rule selection, and the
# closed-form placement landscape over the threshold grid.

import io
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# A flow entry occupies a fixed number of TCAM bits.
ENTRY_BITS = 356

# Threshold grids walked by the agents: match-frequency thresholds in
# {0, 10, ..., 200}, recentness thresholds in {0, 10, ..., 300} seconds.
GRID_STEP = 10
FREQ_MAX = 200
REC_MAX = 300
FREQ_GRID = tuple(range(0, FREQ_MAX + 1, GRID_STEP))
REC_GRID = tuple(range(0, REC_MAX + 1, GRID_STEP))

# Which threshold predicates select a rule: one branch or their OR. A
# significance run trains one policy per mode, in this order.
PARAM_MODES = ("freq_only", "recentness_only", "both")


def read_text(path, error):
    """The file loaders' reader: path's UTF-8 text as a file object that
    splits lines as text mode does. Bytes that are not UTF-8 raise error,
    its message starting with the number of their line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    try:
        text.encode()
    except UnicodeEncodeError as exc:
        lineno = text.count("\n", 0, exc.start) + 1
        raise error("line %d: the file is not UTF-8 text" % lineno) from None
    return io.StringIO(text)


class CapacityExceeded(Exception):
    """Inserting the rule would push the table past its bit capacity."""


class DuplicateRule(Exception):
    """A rule with the same FlowId is already installed."""


class _FlowFields(NamedTuple):
    src_host: int
    dst_host: int
    src_port: int
    dst_port: int


class FlowId(_FlowFields):
    """A TCP flow's identity: the tuple of its hosts and ports. Its order
    is the tuple's, which doubles as the deterministic lexicographic
    tie-break."""

    __slots__ = ()

    def __new__(cls, src_host, dst_host, src_port, dst_port):
        if src_host == dst_host:
            raise ValueError("src_host and dst_host must differ")
        for port in (src_port, dst_port):
            if not 1 <= port <= 65535:
                raise ValueError("ports must be in [1, 65535]")
        return super().__new__(cls, src_host, dst_host, src_port, dst_port)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make (and so _replace) would skip the checks above
        return cls(*iterable)

    def text(self):
        """The flow as one text token (the key MBF hashes)."""
        return "%d-%d-%d-%d-tcp" % self


@dataclass
class FlowRule:
    """A forwarding rule; it occupies one ENTRY_BITS-bit entry."""

    id: FlowId
    install_time: int


class FlowTable:
    """Capacity-bounded flow table keyed by FlowId.

    The sum of entry sizes never exceeds capacity_bits, so at most
    floor(capacity_bits / ENTRY_BITS) entries fit.
    """

    def __init__(self, capacity_bits):
        if capacity_bits < 0:
            raise ValueError("capacity_bits must be non-negative")
        self.capacity_bits = capacity_bits
        self.entries = {}

    @property
    def max_entries(self):
        return self.capacity_bits // ENTRY_BITS

    @property
    def used_bits(self):
        return len(self.entries) * ENTRY_BITS

    def insert(self, rule):
        """Install a rule; raises DuplicateRule / CapacityExceeded."""
        if rule.id in self.entries:
            raise DuplicateRule(str(rule.id))
        if self.used_bits + ENTRY_BITS > self.capacity_bits:
            raise CapacityExceeded(
                "%d + %d bits > capacity %d" % (self.used_bits, ENTRY_BITS, self.capacity_bits)
            )
        self.entries[rule.id] = rule

    def remove(self, flow_id):
        del self.entries[flow_id]

    def __contains__(self, flow_id):
        return flow_id in self.entries

    def __len__(self):
        return len(self.entries)


@dataclass
class PoolRecord:
    freq: int
    last_seen: int


class FlowPool:
    """Per-flow observation records collected during the orchestration
    window: match count (freq) and the time the flow was last seen."""

    def __init__(self):
        self.records = {}

    def record(self, flow_id, now, count=1):
        """Observe `count` matches of flow_id at time `now`."""
        if count < 1:
            raise ValueError("count must be >= 1")
        rec = self.records.get(flow_id)
        if rec is None:
            self.records[flow_id] = PoolRecord(freq=count, last_seen=now)
        else:
            rec.freq += count
            rec.last_seen = max(rec.last_seen, now)

    def __contains__(self, flow_id):
        return flow_id in self.records

    def __len__(self):
        return len(self.records)


@dataclass(frozen=True)
class ThresholdConfig:
    """The agent's state: a (match-frequency, recentness) threshold pair on
    the grid."""

    freq_threshold: int
    recentness_threshold: int

    def __post_init__(self):
        if self.freq_threshold not in FREQ_GRID:
            raise ValueError("freq_threshold %r off grid" % (self.freq_threshold,))
        if self.recentness_threshold not in REC_GRID:
            raise ValueError(
                "recentness_threshold %r off grid" % (self.recentness_threshold,)
            )


def select_rules(pool, thresholds, capacity_bits, window_close, param_mode="both"):
    """Pick the FlowIds to preinstall for an episode.

    A flow is eligible iff freq >= freq_threshold OR
    (window_close - last_seen) <= recentness_threshold. param_mode can
    disable one branch ("freq_only" / "recentness_only"); "both" keeps the
    OR of the two predicates.

    If more flows are eligible than fit (capacity_bits // ENTRY_BITS entries),
    rank by freq descending, recentness ascending, then FlowId order, and
    truncate.

    Returns a list of FlowIds (deterministic for identical inputs).
    """
    if param_mode not in PARAM_MODES:
        raise ValueError("unknown param_mode %r" % (param_mode,))
    use_freq = param_mode != "recentness_only"
    use_rec = param_mode != "freq_only"

    eligible = []
    for fid, rec in pool.records.items():
        if window_close < rec.last_seen:
            raise ValueError("window_close precedes a pool record")
        recentness = window_close - rec.last_seen
        ok = False
        if use_freq and rec.freq >= thresholds.freq_threshold:
            ok = True
        if use_rec and recentness <= thresholds.recentness_threshold:
            ok = True
        if ok:
            eligible.append((fid, rec.freq, recentness))

    limit = capacity_bits // ENTRY_BITS
    if len(eligible) > limit:
        eligible.sort(key=lambda item: (-item[1], item[2], item[0]))
        eligible = eligible[:limit]
    return sorted(fid for fid, _, _ in eligible)


def rank_pool(pool, packets, window_close):
    """The pool in select_rules' rank order, as int64 arrays (freq,
    recentness, episode packets). packets maps a FlowId to its packets in
    the episode (absent flows count 0). The ranking does not depend on the
    thresholds or the param_mode, so one serves every landscape of a
    workload."""
    freq, last_seen, *ids, flow_packets = np.array(
        [(r.freq, r.last_seen, *f, packets.get(f, 0)) for f, r in pool.records.items()],
        np.int64,
    ).reshape(len(pool.records), 7).T
    if (last_seen > window_close).any():
        raise ValueError("window_close precedes a pool record")
    recentness = window_close - last_seen
    rank = np.lexsort((*ids[::-1], recentness, -freq))
    return freq[rank], recentness[rank], flow_packets[rank]


def placement_landscape(ranked, capacity_bits, param_mode="both"):
    """Hit packets of every grid cell's placement, in one numpy pass.

    ranked is rank_pool's output. Cell [f // GRID_STEP, r // GRID_STEP] of
    the returned int64 array sums the packets of the flows select_rules
    places for (f, r): each frequency row cuts the eligible flows of all
    recentness columns with one cumsum.
    """
    if param_mode not in PARAM_MODES:
        raise ValueError("unknown param_mode %r" % (param_mode,))
    freq, recentness, flow_packets = ranked
    limit = capacity_bits // ENTRY_BITS
    use_freq = param_mode != "recentness_only"
    by_rec = (recentness <= np.array(REC_GRID)[:, None]) & (param_mode != "freq_only")
    hits = np.empty((len(FREQ_GRID), len(REC_GRID)), np.int64)
    for i, f in enumerate(FREQ_GRID):
        eligible = by_rec | (freq >= f) if use_freq else by_rec
        placed = eligible & (eligible.cumsum(axis=1, dtype=np.int32) <= limit)
        hits[i] = placed @ flow_packets
    return hits
