# model.py -- flow identities as uint64 keys, forwarding rules, the
# capacity-bounded flow table, the observed flow pool, threshold-based rule
# selection, and the closed-form placement landscape over the threshold grid.

import functools
import io
import os
import stat
from dataclasses import dataclass

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

# Most characters a loaded file may hold: a saved Q-table is about 150 kB,
# so the bound only stops an endless file (/dev/zero) filling the memory.
MAX_TEXT_CHARS = 16 * 1024 * 1024


def read_text(path, error):
    """The file loaders' reader: path's UTF-8 text as a file object that
    splits lines as text mode does. A file longer than MAX_TEXT_CHARS and
    bytes that are not UTF-8 raise error, its message starting with the
    number of the line where the bound or the bytes lie. A FIFO raises
    error too: opening one that no process writes to would never return."""
    def opener(name, flags):
        fd = os.open(name, flags | os.O_NONBLOCK)
        if stat.S_ISFIFO(os.fstat(fd).st_mode):
            os.close(fd)
            raise error("line 1: the file is a FIFO")
        os.set_blocking(fd, True)  # a terminal reads as before
        return fd

    with open(path, encoding="utf-8", errors="surrogateescape", opener=opener) as fh:
        text = fh.read(MAX_TEXT_CHARS + 1)
    if len(text) > MAX_TEXT_CHARS:
        lineno = text.count("\n", 0, MAX_TEXT_CHARS) + 1
        raise error("line %d: the file is longer than %d characters" % (lineno, MAX_TEXT_CHARS))
    try:
        text.encode()
    except UnicodeEncodeError as exc:
        lineno = text.count("\n", 0, exc.start) + 1
        raise error("line %d: the file is not UTF-8 text" % lineno) from None
    return io.StringIO(text)


class CapacityExceeded(Exception):
    """Inserting the rule would push the table past its bit capacity."""


class DuplicateRule(Exception):
    """A rule for the same flow is already installed."""


# Most hosts a flow key holds, and so one workload may address: a /16
# address block, more than one switch's flow table serves.
MAX_HOSTS = 2**16


def flow_key(src_host, dst_host, src_port, dst_port):
    """A TCP flow's identity, its key: src_host << 48 | dst_host << 32 |
    src_port << 16 | dst_port, as a Python int (a column of keys is
    uint64). With hosts in [0, MAX_HOSTS) and ports in [1, 65535] the
    keys' numeric order is the order of the (src_host, dst_host, src_port,
    dst_port) tuples, which doubles as the deterministic tie-break. A host
    outside the range is refused (two flows could share its key), as are
    equal hosts and a port outside its range."""
    if not (0 <= src_host < MAX_HOSTS and 0 <= dst_host < MAX_HOSTS):
        raise ValueError("hosts must be in [0, %d)" % MAX_HOSTS)
    if src_host == dst_host:
        raise ValueError("src_host and dst_host must differ")
    if not (1 <= src_port <= 65535 and 1 <= dst_port <= 65535):
        raise ValueError("ports must be in [1, 65535]")
    return src_host << 48 | dst_host << 32 | src_port << 16 | dst_port


def key_text(key):
    """A key's flow as one text token, the one MBF hashes."""
    return "%d-%d-%d-%d-tcp" % (key >> 48, key >> 32 & 0xFFFF, key >> 16 & 0xFFFF, key & 0xFFFF)


@dataclass
class FlowRule:
    """A forwarding rule; it occupies one ENTRY_BITS-bit entry. Its id is
    the flow's key."""

    id: int
    install_time: int


class FlowTable:
    """Capacity-bounded flow table keyed by its rules' ids.

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
            raise DuplicateRule(key_text(rule.id))
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
    """The flows observed during the orchestration window, as columns in
    the order of keys: keys (the uint64 flow keys), freq (match counts,
    each at least 1) and last_seen (the tick the flow was last seen), the
    int64 arrays counts and now. The records dict, by key (a Python int),
    is built on first read."""

    def __init__(self, keys, now, counts):
        if (counts < 1).any():
            raise ValueError("count must be >= 1")
        self.keys, self.freq, self.last_seen = np.asarray(keys, np.uint64), counts, now

    @functools.cached_property
    def records(self):
        return dict(zip(self.keys.tolist(),
                        map(PoolRecord, self.freq.tolist(), self.last_seen.tolist())))

    def __len__(self):
        return len(self.keys)


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
    """Pick the flow keys to preinstall for an episode.

    A flow is eligible iff freq >= freq_threshold OR
    (window_close - last_seen) <= recentness_threshold. param_mode can
    disable one branch ("freq_only" / "recentness_only"); "both" keeps the
    OR of the two predicates.

    If more flows are eligible than fit (capacity_bits // ENTRY_BITS entries),
    rank by freq descending, recentness ascending, then key order, and
    truncate.

    Returns the sorted list of the placed keys.
    """
    if param_mode not in PARAM_MODES:
        raise ValueError("unknown param_mode %r" % (param_mode,))
    use_freq = param_mode != "recentness_only"
    use_rec = param_mode != "freq_only"

    eligible = []
    for key, rec in pool.records.items():
        if window_close < rec.last_seen:
            raise ValueError("window_close precedes a pool record")
        recentness = window_close - rec.last_seen
        ok = False
        if use_freq and rec.freq >= thresholds.freq_threshold:
            ok = True
        if use_rec and recentness <= thresholds.recentness_threshold:
            ok = True
        if ok:
            eligible.append((key, rec.freq, recentness))

    limit = capacity_bits // ENTRY_BITS
    if len(eligible) > limit:
        eligible.sort(key=lambda item: (-item[1], item[2], item[0]))
        eligible = eligible[:limit]
    return sorted(key for key, _, _ in eligible)


def rank_pool(pool, flow_packets, window_close):
    """The pool in select_rules' rank order, as int64 arrays (freq,
    recentness, episode packets). flow_packets holds each pool flow's
    packets in the episode, in pool order. The ranking does not depend on
    the thresholds, so one serves every cell of a landscape."""
    if (pool.last_seen > window_close).any():
        raise ValueError("window_close precedes a pool record")
    recentness = window_close - pool.last_seen
    rank = np.lexsort((pool.keys, recentness, -pool.freq))
    return pool.freq[rank], recentness[rank], flow_packets[rank]


def placement_landscape(ranked, capacity_bits, param_mode="both"):
    """Hit packets of every grid cell's placement, from prefix sums.

    ranked is rank_pool's output. Cell [f // GRID_STEP, r // GRID_STEP] of
    the returned int64 array sums the packets of the flows select_rules
    places for (f, r). The ranking puts freq descending, so the flows with
    freq >= f are a prefix of it: the cell places the first
    head = min(prefix, limit) flows, then the next limit - head flows past
    head whose recentness is at most r. Running totals of the recent flows
    and of their packets, over the recentness columns laid end to end, sum
    that second run: a searchsorted finds where it ends.
    """
    if param_mode not in PARAM_MODES:
        raise ValueError("unknown param_mode %r" % (param_mode,))
    freq, recentness, flow_packets = ranked
    n = len(freq)
    limit = min(capacity_bits // ENTRY_BITS, n)  # a huge table's limit may not fit int64
    prefix = np.searchsorted(-freq, -np.array(FREQ_GRID), side="right")
    head = np.minimum(prefix * (param_mode != "recentness_only"), limit)
    recent = (recentness <= np.array(REC_GRID)[:, None]) & (param_mode != "freq_only")
    count = np.zeros(recent.size + 1, np.int32)
    np.cumsum(recent, dtype=np.int32, out=count[1:])
    got = np.zeros(recent.size + 1, np.int64)
    np.multiply(recent, flow_packets, out=got[1:].reshape(recent.shape))
    np.cumsum(got, out=got)
    cols = np.arange(len(REC_GRID)) * n
    at_head = cols + head[:, None]
    want = np.minimum(count[at_head] + (limit - head)[:, None], count[cols + n])
    end = np.searchsorted(count, want.astype(np.int32))  # int64 keys would copy count
    packets_before = np.concatenate(([0], np.cumsum(flow_packets)))
    return packets_before[head][:, None] + got[end] - got[at_head]
