# traffic.py -- seeded elephant/mice flow schedules with Poisson arrivals
# and per-tick packet emission. Ticks are 1 simulated second.

import itertools
import math
from dataclasses import dataclass

import numpy as np

from flowrl.model import MAX_HOSTS, flow_key


class InvalidProfile(Exception):
    """A traffic profile field violates its invariants."""


# Most flows a schedule may be expected to hold (arrival_rate x horizon);
# the desk-scale reference expects 150 per 60 s window, the contended
# benchmark workload 1,500 and the paper-scale defaults 796.
MAX_EXPECTED_FLOWS = 100_000

# Most packets one flow may carry: twice MAX_EXPECTED_FLOWS such flows sum
# below 2^63, the bound of the landscape's int64 sums (a Poisson flow count
# of mean at most MAX_EXPECTED_FLOWS exceeds twice it with probability
# below e^-38,000). The paper's elephant is 17,896 packets.
MAX_FLOW_PACKETS = 2**63 // (2 * MAX_EXPECTED_FLOWS)

# Most ticks a schedule may span: a flow's last emission tick (below
# MAX_HORIZON + MAX_FLOW_PACKETS) plus a replay lag clamped to the window
# stays below 2^63, so the int64 tick columns never wrap.
MAX_HORIZON = 2**61


@dataclass(frozen=True)
class TrafficProfile:
    """Workload shape: flow class mix, sizes, and rates.

    Defaults model a datacenter mix: 10% long elephant flows of ~25.6 MB
    and 90% short mice flows of 256 KB, offered at an aggregate average of
    310 Mbit/s with each flow transmitting at 10 Mbit/s in 1500-byte
    packets.
    """

    elephant_fraction: float = 0.1
    mice_size: int = 262_144
    elephant_size: int = 26_843_546
    aggregate_rate: float = 310_000_000.0
    packet_size: int = 1500
    per_flow_rate: float = 10_000_000.0

    def validate(self, horizon):
        """Check every field, and cap the expected flow count of a schedule
        over horizon ticks at MAX_EXPECTED_FLOWS."""
        if not 0.0 <= self.elephant_fraction <= 1.0:
            raise InvalidProfile("elephant_fraction must be in [0, 1]")
        for name in ("mice_size", "elephant_size", "packet_size"):
            if getattr(self, name) <= 0:
                raise InvalidProfile("%s must be positive" % name)
            try:
                float(getattr(self, name))  # the rates divide by it as a float
            except OverflowError:
                raise InvalidProfile("%s is too large for a float" % name) from None
        for name in ("aggregate_rate", "per_flow_rate"):
            if not 0 < getattr(self, name) < math.inf:
                raise InvalidProfile("%s must be positive and finite" % name)
        if self.packets_per_tick() < 1:
            raise InvalidProfile(
                "per_flow_rate rounds to zero packets per tick; flows could never emit"
            )
        if total_packets(max(self.mice_size, self.elephant_size),
                         self.packet_size) > MAX_FLOW_PACKETS:
            raise InvalidProfile("mice_size and elephant_size must each fit in %d packets"
                                 % MAX_FLOW_PACKETS)
        if not self.arrival_rate() > 0:
            raise InvalidProfile("aggregate_rate %r over flows of %r bits gives 0 arrivals "
                                 "per second" % (self.aggregate_rate, self.mean_flow_bits()))
        if self.arrival_rate() * horizon > MAX_EXPECTED_FLOWS:
            raise InvalidProfile(
                "aggregate_rate implies %.3g flows over %d ticks, above %d"
                % (self.arrival_rate() * horizon, horizon, MAX_EXPECTED_FLOWS)
            )

    def packets_per_tick(self):
        """Packets one flow emits per one-second tick at per_flow_rate,
        capped at MAX_FLOW_PACKETS: no flow holds more, so the cap changes no
        emission and keeps the rate an int64."""
        return min(round(self.per_flow_rate / (self.packet_size * 8)), MAX_FLOW_PACKETS)

    def mean_flow_bits(self):
        return 8 * (
            self.elephant_fraction * self.elephant_size
            + (1.0 - self.elephant_fraction) * self.mice_size
        )

    def arrival_rate(self):
        """Flow arrivals per second so offered load matches aggregate_rate."""
        return self.aggregate_rate / self.mean_flow_bits()


def total_packets(size, packet_size):
    """Packets needed to carry `size` bytes: ceil(size / packet_size)."""
    return -(-size // packet_size)


@dataclass(frozen=True)
class FlowSpec:
    """One flow: identity (its flow key), class, byte size, and start tick."""

    id: int
    klass: str  # "elephant" or "mice"
    size: int
    start: int

    def __post_init__(self):
        if self.klass not in ("elephant", "mice"):
            raise ValueError("class must be elephant or mice")
        if self.size <= 0:
            raise ValueError("size must be positive")


class FlowSchedule:
    """Flows ordered by start, each key at most once, plus the horizon and
    the profile whose rates drive per-tick emission. The flows are
    per-flow columns in schedule order: keys (uint64 flow keys), starts
    (int64), elephant (bool) and packets (int64), a flow's only size; the
    FlowSpec list `flows` is built from them on first read. A flow above
    MAX_FLOW_PACKETS packets and a horizon above MAX_HORIZON ticks are
    refused, so sums and products over the int64 columns never wrap."""

    def __init__(self, keys, starts, elephant, packets, horizon, profile):
        if horizon > MAX_HORIZON:
            raise ValueError("horizon exceeds %d ticks" % MAX_HORIZON)
        # each bound is checked before the int64 conversion, which could not hold it
        starts = np.asarray(starts)
        if len(starts) and (starts.min() < 0 or starts.max() >= horizon):
            raise ValueError("all starts must lie in [0, horizon)")
        self.starts = starts.astype(np.int64, copy=False)
        if (self.starts[1:] < self.starts[:-1]).any():
            raise ValueError("flow starts must be sorted non-decreasing")
        self.keys = np.asarray(keys, np.uint64)
        sorted_keys = np.sort(self.keys)
        if (sorted_keys[1:] == sorted_keys[:-1]).any():
            raise ValueError("a flow key repeats")
        packets = np.asarray(packets)
        if packets.max(initial=0) > MAX_FLOW_PACKETS:
            raise ValueError("a flow exceeds %d packets" % MAX_FLOW_PACKETS)
        self.packets = packets.astype(np.int64, copy=False)
        self.elephant = np.asarray(elephant, bool)
        self.horizon = horizon
        self.profile = profile
        self._flows = None

    @property
    def flows(self):
        """The FlowSpecs, built from the columns on first read; a flow's
        size is its packets in bytes, over Python ints."""
        if self._flows is None:
            klass = ["elephant" if e else "mice" for e in self.elephant.tolist()]
            sizes = [p * self.profile.packet_size for p in self.packets.tolist()]
            self._flows = list(map(FlowSpec, self.keys.tolist(), klass, sizes,
                                   self.starts.tolist()))
        return self._flows


# Words WordDraws fetches at a time. A fetch's cost is mostly per call
# (on a 2-core host about 1.7 us for 16 words, 3.3 us for 64).
DRAW_BLOCK = 64


class WordDraws:
    """Draws from rng's PCG64 words, each equal to what rng's own call
    would give: random() to Generator.random() (numpy's next_double, the
    word's top 53 bits) and below(n) to Generator.integers(0, n) for
    1 <= n <= 2**32 (numpy's buffered_bounded_lemire_uint32 rule over
    32-bit halves, rng's kept half first, then each word's low half,
    keeping its high half for the next draw). word() takes the next word
    of blocks of DRAW_BLOCK, each fetched as the last runs out, ahead of its
    draws, so once the stream is open it is the only way to draw from rng:
    the runs that draw from one seed share one stream, in turn, and draw as
    rng's calls would in that order."""

    def __init__(self, rng):
        bg = rng.bit_generator
        state = bg.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        # bg is bound as a default, not through self, so the stream makes no cycle
        blocks = iter(lambda bg=bg: bg.random_raw(DRAW_BLOCK).tolist(), None)
        self.word = itertools.chain.from_iterable(blocks).__next__

    @classmethod
    def live(cls, rng):
        """Draws that take each word from rng as it is drawn and fetch none
        ahead, so rng's own whole-word draws (an arrival gap) may come
        between them; those leave the kept half alone. The schedule's
        per-flow draws, for inputs its column decode cannot serve."""
        draws = cls(rng)
        draws.word = rng.bit_generator.random_raw
        return draws

    def random(self):
        return (self.word() >> 11) * 2**-53

    def below(self, n):
        if n == 1:  # numpy's empty-range shortcut takes no draw
            return 0
        m = self._uint32() * n
        if m & 0xFFFFFFFF < n:
            threshold = (2**32 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * n
        return m >> 32

    def _uint32(self):
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self.word()
        self._half = word >> 32
        return word & 0xFFFFFFFF

    @staticmethod
    def random_column(words):
        """random() on each word of a uint64 column."""
        return (words >> 11) * 2**-53

    @staticmethod
    def below_column(halves, n):
        """below(n), 2 <= n <= 2**16, on each 32-bit half of an int64
        column (so no product exceeds 2**48), and whether below would
        reject that half and draw another; a rejected half's value is not
        below's."""
        m = halves * n
        return m >> 32, m & 0xFFFFFFFF < (2**32 - n) % n


def generate_schedule(profile, horizon, n_hosts, seed):
    """Generate a seeded flow schedule.

    Arrivals form one aggregate Poisson process whose mean inter-arrival
    time makes the expected offered load match profile.aggregate_rate.
    Arrival times are floored to the 1-second tick grid. Each flow is an
    elephant with probability elephant_fraction; (src, dst) are uniform
    over distinct host pairs of the n_hosts (at most MAX_HOSTS); ports are
    drawn so flow keys are unique.

    A flow's class, hosts and ports come from the three PCG64 words after
    its arrival gap, decoded for every flow in one pass; an input whose
    flows' draws take other words is drawn flow by flow (WordDraws.live).
    """
    profile.validate(horizon)
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if not 2 <= n_hosts <= MAX_HOSTS:
        raise ValueError("need 2 to %d hosts" % MAX_HOSTS)
    # two hosts leave the dst draw a range of 1, which takes no half
    decoded = n_hosts > 2 and _decode_flows(profile, horizon, n_hosts, seed)
    keys, starts, elephant = decoded or _draw_flows(profile, horizon, n_hosts, seed)
    # the (mice, elephant) packet counts, indexed by each flow's elephant flag
    packets = [total_packets(size, profile.packet_size)
               for size in (profile.mice_size, profile.elephant_size)]
    return FlowSchedule(keys, starts, elephant, np.take(packets, elephant), horizon, profile)


def _decode_flows(profile, horizon, n_hosts, seed):
    """The schedule's (keys, starts, elephant) columns. Each flow takes its
    gap as standard_exponential() times the mean gap (exponential's own
    product), then three words: word 0 is the class coin, word 1's low and
    high halves are src and dst, word 2's the two ports. None when a flow's
    draws would take other words: a half below() rejects, or a repeated
    key, whose ports are drawn again."""
    rng = np.random.default_rng(seed)
    gap = rng.standard_exponential
    take = rng.bit_generator.random_raw
    mean_gap = 1.0 / profile.arrival_rate()
    times, words = [], []
    t = 0.0
    while True:
        t += gap() * mean_gap
        if t >= horizon:
            break
        times.append(t)
        words.append(take(3))
    words = np.array(words, np.uint64).reshape(-1, 3)
    elephant = WordDraws.random_column(words[:, 0]) < profile.elephant_fraction
    low = (words[:, 1:] & 0xFFFFFFFF).astype(np.int64)
    high = (words[:, 1:] >> 32).astype(np.int64)
    src, src_rejected = WordDraws.below_column(low[:, 0], n_hosts)
    dst, dst_rejected = WordDraws.below_column(high[:, 0], n_hosts - 1)
    sport, sport_rejected = WordDraws.below_column(low[:, 1], 64512)
    dport, dport_rejected = WordDraws.below_column(high[:, 1], 64512)
    if (src_rejected | dst_rejected | sport_rejected | dport_rejected).any():
        return None
    dst += dst >= src
    # flow_key's layout: src << 48 | dst << 32 | sport << 16 | dport
    keys = ((src << 16 | dst).astype(np.uint64) << 32
            | (1024 + sport << 16 | 1024 + dport).astype(np.uint64))
    sorted_keys = np.sort(keys)
    if (sorted_keys[1:] == sorted_keys[:-1]).any():
        return None
    return keys, np.floor(times), elephant


def _draw_flows(profile, horizon, n_hosts, seed):
    """generate_schedule's (keys, starts, elephant) lists, drawn flow by
    flow with live WordDraws; any input, and the column decode's reference."""
    rng = np.random.default_rng(seed)
    draws = WordDraws.live(rng)
    below = draws.below
    mean_gap = 1.0 / profile.arrival_rate()

    keys, starts, elephant = [], [], []
    seen = set()
    t = 0.0
    while True:
        t += rng.exponential(mean_gap)
        if t >= horizon:
            break
        starts.append(math.floor(t))
        is_elephant = draws.random() < profile.elephant_fraction
        src = below(n_hosts)
        dst = below(n_hosts - 1)
        if dst >= src:
            dst += 1
        while True:
            key = flow_key(src, dst, 1024 + below(64512), 1024 + below(64512))
            if key not in seen:
                seen.add(key)
                break
        keys.append(key)
        elephant.append(is_elephant)
    return keys, starts, elephant


def packets_for_tick(schedule, tick):
    """Packets each flow emits during [tick, tick+1).

    Returns a list of (key, packet_count) for flows emitting at the tick,
    in schedule order, each key a Python int. A flow emits
    round(per_flow_rate/(packet_size*8)) packets per tick from its start
    tick on, capped so its cumulative emission never exceeds its packets;
    draining may therefore extend past size*8/per_flow_rate seconds for
    flows whose size is not a whole number of ticks. emitted_before gives
    the sum of this emission in closed form.
    """
    if tick < 0:
        raise ValueError("tick must be non-negative")
    rate = schedule.profile.packets_per_tick()
    out = []
    for key, start, total in zip(schedule.keys.tolist(), schedule.starts.tolist(),
                                 schedule.packets.tolist()):
        if start > tick:
            continue
        done_before = min(total, (tick - start) * rate)
        n = min(rate, total - done_before)
        if n > 0:
            out.append((key, n))
    return out


def emitted_before(starts, totals, rate, tick):
    """Packets each flow (int64 arrays of start ticks and total packets)
    has emitted before `tick` at its profile's packets_per_tick() rate:
    packets_for_tick's emission summed over [0, tick). A flow's ticks are
    clamped to those it drains in, so no product wraps."""
    return np.minimum(totals, np.clip(tick - starts, 0, -(-totals // rate)) * rate)


def last_emission_tick(start, total, rate):
    """The tick on which a flow (start, total packets, rate as in
    emitted_before) emits its last packet; elementwise on int64 arrays."""
    return start + -(-total // rate) - 1


def emission_extent(schedule):
    """The first tick by which every flow in the schedule has drained."""
    rate = schedule.profile.packets_per_tick()
    return int(last_emission_tick(schedule.starts, schedule.packets, rate).max(initial=-1)) + 1
