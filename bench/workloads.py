"""The benchmark's workloads.

Each workload is one traffic profile and table size plus the operations of
one round: environment set-ups, the 651-cell threshold sweep and the mode
runs. Every workload runs all five modes, because every end-to-end metric
is reported on every workload; the configurations differ so that a
different layer does most of the work on each. A run covers `subseeds`
experiment seeds and reports means over them, because a single seed's
inputs (13 to 29 evaluation flows on the reference profile) move the
times by more than the bounds allow.

Every timed training run is bound by its episode cap: mu = 0.97 lies above
the best reduction any grid cell reaches on these tables, so each run
makes exactly (sets + 1) * cap agent steps whatever the seed. A goal that
some seeds reach and others miss turns the step count, and with it the
mode time, into a two-valued function of the seed.

The learners a workload does not stress run one episode from a loaded
policy whose greedy action is NoOp everywhere: they build the environment,
evaluate the initial cell and, only on an exploring step (epsilon 0.1),
one more. A fresh policy visits one or two cells on about even odds, and
on contended-placement an uncached episode costs about 12 ms against an
80 ms environment build, which splits the seeds into two groups 15% apart.
"""

from dataclasses import dataclass, field

ENTRY_BITS = 356

# The reference profile's aggregate rate is 540,000 bit/s.
REFERENCE_RATE = 540_000.0
CONTENDED_RATE = 5_400_000.0

UNREACHABLE_MU = 0.97

# Reference traffic against an 8-entry table: the 13-29 evaluation flows do
# not all fit, so the oracle and the grid minimum are positive, and the
# best reduction over 30 seeds is 0.652, below mu.
TIGHT_TABLE_BITS = 8 * ENTRY_BITS


@dataclass(frozen=True)
class ModeRun:
    """One mode run through the command line, repeated `repeats` times per
    round. `settings` are config-file keys; `metric` names the end-to-end
    time it feeds."""

    metric: str
    mode: str
    settings: dict = field(default_factory=dict)
    repeats: int = 1
    noop_policy: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    aggregate_rate: float
    table_capacity_bits: int
    subseeds: int
    runs: tuple


def _idle(metric, mode, repeats):
    """A learner this workload does not stress: one episode, NoOp policy."""
    return ModeRun(metric, mode, {"episodes_cap": 1, "goal_mu": UNREACHABLE_MU},
                   repeats=repeats, noop_policy=True)


def _idle_significance(repeats):
    """Three environment builds and a few episodes."""
    return ModeRun("significance_s", "significance",
                   {"episodes_cap": 1, "goal_mu": UNREACHABLE_MU, "n_training_sets": 1},
                   repeats=repeats)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tabular-significance",
            why="tabular loop dominates: capped significance and pre-trained ql, 25k "
            "agent steps per seed, 92% served from the episode cache; dqn nearly idle",
            aggregate_rate=REFERENCE_RATE,
            table_capacity_bits=TIGHT_TABLE_BITS,
            subseeds=8,
            runs=(
                ModeRun("significance_s", "significance",
                        {"episodes_cap": 300, "goal_mu": UNREACHABLE_MU}),
                ModeRun("ql_s", "ql", {"episodes_cap": 300, "goal_mu": UNREACHABLE_MU}),
                _idle("dqn_s", "dqn", 5),
                ModeRun("mbf_s", "mbf", repeats=5),
                ModeRun("oracle_s", "oracle", repeats=5),
            ),
        ),
        Workload(
            name="dqn-pretrained",
            why="network dominates: pre-trained dqn, 1,470 agent steps, about 5.7k "
            "sgd_step calls and 1.4k parameter snapshots per seed; tabular learners idle",
            aggregate_rate=REFERENCE_RATE,
            table_capacity_bits=TIGHT_TABLE_BITS,
            subseeds=8,
            runs=(
                ModeRun("dqn_s", "dqn", {"episodes_cap": 70, "goal_mu": UNREACHABLE_MU}),
                _idle("ql_s", "ql", 5),
                _idle_significance(5),
                ModeRun("mbf_s", "mbf", repeats=5),
                ModeRun("oracle_s", "oracle", repeats=5),
            ),
        ),
        Workload(
            name="contended-placement",
            why="episode engine dominates: 10x arrival rate, ~1,480 pool flows against "
            "64 entries; full 651-cell sweep, MBF and oracle; learners idle",
            aggregate_rate=CONTENDED_RATE,
            table_capacity_bits=64 * ENTRY_BITS,
            subseeds=2,
            runs=(
                ModeRun("mbf_s", "mbf", repeats=3),
                ModeRun("oracle_s", "oracle", repeats=5),
                _idle("ql_s", "ql", 5),
                _idle("dqn_s", "dqn", 5),
                _idle_significance(5),
            ),
        ),
    )
}
