# simnet.py -- the switch/controller episode engine: orchestration-phase
# pool building, production-phase episodes over a fixed preinstalled
# ruleset, overhead accounting, and reward computation.

from dataclasses import dataclass

from flowrl.model import ENTRY_BITS, FlowPool, FlowRule, FlowTable
from flowrl.traffic import emission_extent, packets_for_tick


class RulesetTooLarge(Exception):
    """The ruleset does not fit the table capacity."""


class ZeroInitial(Exception):
    """reduction_fraction needs a positive initial overhead."""


class NoLookups(Exception):
    """hit_ratio needs at least one lookup."""


@dataclass
class EpisodeMetrics:
    """Counts for one episode. hits + misses = total_lookups and
    overhead = misses under one-exchange-per-miss accounting."""

    overhead: int
    hits: int
    misses: int
    total_lookups: int
    duration: int

    def __post_init__(self):
        if min(self.overhead, self.hits, self.misses, self.total_lookups) < 0:
            raise ValueError("negative count")
        if self.hits + self.misses != self.total_lookups:
            raise ValueError("hits + misses must equal total_lookups")
        if self.overhead != self.misses:
            raise ValueError("overhead must equal misses")


@dataclass
class BestSoFar:
    """Minimum episode overhead observed so far in a training run, with the
    thresholds (and metrics) that achieved it."""

    best_overhead: int
    best_thresholds: object = None
    best_metrics: object = None


def run_orchestration(schedule, window):
    """Build the flow pool by observing every lookup in [0, window).

    Every flow with at least one packet in the window is recorded with its
    in-window lookup count as freq; recentness is anchored at window close
    (the pool keeps last_seen, so recentness = window - last_seen).
    """
    if window > schedule.horizon:
        raise ValueError("window exceeds schedule horizon")
    pool = FlowPool()
    for tick in range(window):
        for fid, count in packets_for_tick(schedule, tick):
            pool.record(fid, tick, count)
    return pool


def run_episode(ruleset, schedule, table, duration=None):
    """Evaluate a fixed rule placement against a schedule.

    The ruleset is preinstalled before traffic starts; each packet lookup
    is a Hit if its flow's rule is present, otherwise a Miss that costs one
    control-plane exchange (the rule is NOT installed mid-episode). Lookups
    are aggregated per (flow, tick); because the table never changes during
    the episode, the counts equal per-packet processing.

    duration defaults to the schedule's full drain extent. This packet-level
    replay is the reference for the closed-form placement_landscape.
    """
    if len(ruleset) * ENTRY_BITS > table.capacity_bits:
        raise RulesetTooLarge(
            "%d rules exceed %d-entry capacity"
            % (len(ruleset), table.capacity_bits // ENTRY_BITS)
        )
    if duration is None:
        duration = emission_extent(schedule)

    for fid in ruleset:
        table.insert(FlowRule(id=fid, install_time=0))

    hits = 0
    misses = 0
    for tick in range(duration):
        for fid, count in packets_for_tick(schedule, tick):
            if fid in table.entries:
                hits += count
            else:
                misses += count

    return EpisodeMetrics(
        overhead=misses,
        hits=hits,
        misses=misses,
        total_lookups=hits + misses,
        duration=duration,
    )


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


def reduction_fraction(initial, current):
    """(initial - current) / initial; negative when current exceeds initial."""
    if initial == 0:
        raise ZeroInitial("initial overhead is zero")
    return (initial - current) / initial


def hit_ratio(metrics):
    """hits / total_lookups in [0, 1]."""
    if metrics.total_lookups == 0:
        raise NoLookups("episode had no lookups")
    return metrics.hits / metrics.total_lookups
