# traffic.py -- seeded elephant/mice flow schedules with Poisson arrivals
# and per-tick packet emission. Ticks are 1 simulated second.

import math
from dataclasses import dataclass

import numpy as np

from flowrl.model import FlowId


class InvalidProfile(Exception):
    """A traffic profile field violates its invariants."""


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

    def validate(self):
        if not 0.0 <= self.elephant_fraction <= 1.0:
            raise InvalidProfile("elephant_fraction must be in [0, 1]")
        for name in ("mice_size", "elephant_size", "packet_size"):
            if getattr(self, name) <= 0:
                raise InvalidProfile("%s must be positive" % name)
        for name in ("aggregate_rate", "per_flow_rate"):
            if not 0 < getattr(self, name) < math.inf:
                raise InvalidProfile("%s must be positive and finite" % name)
        if self.packets_per_tick() < 1:
            raise InvalidProfile(
                "per_flow_rate rounds to zero packets per tick; flows could never emit"
            )

    def packets_per_tick(self):
        """Packets one flow emits per one-second tick at per_flow_rate."""
        return round(self.per_flow_rate / (self.packet_size * 8))

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
    """One flow: identity, class, byte size, start tick, and nominal
    duration (= size*8 / per_flow_rate seconds)."""

    id: FlowId
    klass: str  # "elephant" or "mice"
    size: int
    start: int
    duration: float

    def __post_init__(self):
        if self.klass not in ("elephant", "mice"):
            raise ValueError("class must be elephant or mice")
        if self.size <= 0 or self.duration <= 0:
            raise ValueError("size and duration must be positive")


@dataclass
class FlowSchedule:
    """An ordered (by start) list of FlowSpecs plus horizon, seed, and the
    profile whose rates drive per-tick emission."""

    flows: list
    horizon: int
    seed: int
    profile: TrafficProfile

    def __post_init__(self):
        starts = [f.start for f in self.flows]
        if any(b < a for a, b in zip(starts, starts[1:])):
            raise ValueError("flow starts must be sorted non-decreasing")
        if any(s >= self.horizon or s < 0 for s in starts):
            raise ValueError("all starts must lie in [0, horizon)")

    def save(self, path):
        """Write `start,src,dst,sport,dport,class,size` lines."""
        with open(path, "w", newline="\n") as fh:
            for f in self.flows:
                fh.write(
                    "%d,%d,%d,%d,%d,%s,%d\n"
                    % (
                        f.start,
                        f.id.src_host,
                        f.id.dst_host,
                        f.id.src_port,
                        f.id.dst_port,
                        f.klass,
                        f.size,
                    )
                )

    @staticmethod
    def load(path, horizon, profile, seed=0):
        flows = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                start, src, dst, sport, dport, klass, size = line.split(",")
                fid = FlowId(int(src), int(dst), int(sport), int(dport))
                size = int(size)
                flows.append(
                    FlowSpec(
                        id=fid,
                        klass=klass,
                        size=size,
                        start=int(start),
                        duration=size * 8 / profile.per_flow_rate,
                    )
                )
        flows.sort(key=lambda f: (f.start, f.id))
        return FlowSchedule(flows=flows, horizon=horizon, seed=seed, profile=profile)


def generate_schedule(profile, horizon, n_hosts, seed):
    """Generate a seeded flow schedule.

    Arrivals form one aggregate Poisson process whose mean inter-arrival
    time makes the expected offered load match profile.aggregate_rate.
    Arrival times are floored to the 1-second tick grid. Each flow is an
    elephant with probability elephant_fraction; (src, dst) are uniform
    over distinct host pairs; ports are drawn so FlowIds are unique.
    """
    profile.validate()
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if n_hosts < 2:
        raise ValueError("need at least 2 hosts")

    rng = np.random.default_rng(seed)
    mean_gap = 1.0 / profile.arrival_rate()

    flows = []
    seen_ids = set()
    t = 0.0
    while True:
        t += rng.exponential(mean_gap)
        if t >= horizon:
            break
        start = int(math.floor(t))
        is_elephant = rng.random() < profile.elephant_fraction
        src = int(rng.integers(0, n_hosts))
        dst = int(rng.integers(0, n_hosts - 1))
        if dst >= src:
            dst += 1
        while True:
            sport = int(rng.integers(1024, 65536))
            dport = int(rng.integers(1024, 65536))
            fid = FlowId(src, dst, sport, dport)
            if fid not in seen_ids:
                seen_ids.add(fid)
                break
        size = profile.elephant_size if is_elephant else profile.mice_size
        flows.append(
            FlowSpec(
                id=fid,
                klass="elephant" if is_elephant else "mice",
                size=size,
                start=start,
                duration=size * 8 / profile.per_flow_rate,
            )
        )
    return FlowSchedule(flows=flows, horizon=horizon, seed=seed, profile=profile)


def packets_for_tick(schedule, tick):
    """Packets each flow emits during [tick, tick+1).

    Returns a list of (FlowId, packet_count) for flows emitting at the
    tick, in schedule order. A flow emits
    round(per_flow_rate/(packet_size*8)) packets per tick from its start
    tick on, capped so its cumulative emission never exceeds
    ceil(size/packet_size); draining may therefore extend past the last
    nominal duration second for flows whose size is not a whole number of
    ticks.
    """
    if tick < 0:
        raise ValueError("tick must be non-negative")
    profile = schedule.profile
    rate = profile.packets_per_tick()
    out = []
    for f in schedule.flows:
        if f.start > tick:
            continue
        total = total_packets(f.size, profile.packet_size)
        done_before = min(total, (tick - f.start) * rate)
        n = min(rate, total - done_before)
        if n > 0:
            out.append((f.id, n))
    return out


def emission_extent(schedule):
    """The first tick by which every flow in the schedule has drained."""
    rate = schedule.profile.packets_per_tick()
    end = 0
    for f in schedule.flows:
        total = total_packets(f.size, schedule.profile.packet_size)
        ticks = -(-total // rate)
        end = max(end, f.start + ticks)
    return end
