# simnet.py -- the switch/controller episode engine: orchestration-phase
# pool building, production-phase episodes over a fixed preinstalled
# ruleset, and overhead accounting.

from dataclasses import dataclass, field

import numpy as np

from flowrl.model import ENTRY_BITS, FlowPool, FlowRule
from flowrl.traffic import emission_extent, emitted_before, last_emission_tick, packets_for_tick


class RulesetTooLarge(Exception):
    """The ruleset does not fit the table capacity."""


class ZeroInitial(Exception):
    """reduction_fraction needs a positive initial overhead."""


@dataclass
class EpisodeMetrics:
    """Counts for one episode. Every miss costs one control-plane exchange,
    so overhead = misses, and total_lookups = hits + misses; both are set
    from the counts (plain attributes: train reads overhead every step)."""

    hits: int
    misses: int
    duration: int
    overhead: int = field(init=False)
    total_lookups: int = field(init=False)

    def __post_init__(self):
        if min(self.hits, self.misses) < 0:
            raise ValueError("negative count")
        self.overhead = self.misses
        self.total_lookups = self.hits + self.misses


@dataclass
class BestSoFar:
    """Minimum episode overhead observed so far in a training run, with the
    thresholds (and metrics) that achieved it."""

    best_overhead: int
    best_thresholds: object = None
    best_metrics: object = None


def run_orchestration(schedule, window):
    """Build the flow pool from every lookup in [0, window), in closed form.

    Every flow starting before the window close is recorded with the
    packets it emits in the window as freq and the tick of its last
    in-window packet as last_seen (recentness = window - last_seen). Flows
    are sorted by start and emit from their start tick on, so the pool's
    insertion order is that of a tick-by-tick replay.
    """
    if window > schedule.horizon:
        raise ValueError("window exceeds schedule horizon")
    n = np.searchsorted(schedule.starts, window)  # the flows starting before the close
    starts, totals = schedule.starts[:n], schedule.packets[:n]
    rate = schedule.profile.packets_per_tick()
    return FlowPool(schedule.keys[:n],
                    np.minimum(window - 1, last_emission_tick(starts, totals, rate)),
                    emitted_before(starts, totals, rate, window))


def run_episode(ruleset, schedule, table, duration=None):
    """Evaluate a fixed rule placement against a schedule.

    The ruleset, a list of flow keys, is preinstalled before traffic
    starts; each packet lookup is a Hit if its flow's rule is present,
    otherwise a Miss that costs one control-plane exchange (the rule is
    NOT installed mid-episode). Lookups are aggregated per (flow, tick);
    because the table never changes during the episode, the counts equal
    per-packet processing.

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

    for key in ruleset:
        table.insert(FlowRule(id=key, install_time=0))

    hits = 0
    misses = 0
    for tick in range(duration):
        for key, count in packets_for_tick(schedule, tick):
            if key in table.entries:
                hits += count
            else:
                misses += count

    return EpisodeMetrics(hits=hits, misses=misses, duration=duration)


def reduction_fraction(initial, current):
    """(initial - current) / initial; negative when current exceeds initial."""
    if initial == 0:
        raise ZeroInitial("initial overhead is zero")
    return (initial - current) / initial


def hit_ratio(metrics):
    """hits / total_lookups in [0, 1]; 0.0 for an episode without lookups."""
    return metrics.hits / metrics.total_lookups if metrics.total_lookups else 0.0
