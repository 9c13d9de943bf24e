# harness.py -- experiment plumbing: flat key=value configs, the
# desk-scale reference workload, the production-phase evaluation schedule,
# the closed-form episode environment, the five run modes (ql, dqn, mbf,
# oracle, significance), and CSV/summary report emission.

import contextlib
import dataclasses
import operator
import os
import secrets
from dataclasses import dataclass, field

import numpy as np

from flowrl.baselines import (
    MAX_MBF_SEED,
    IlpInstance,
    MbfState,
    knapsack_exact,
    run_mbf_episode,
)
from flowrl.dqn import LAYER_SIZES, MalformedNetwork, Mlp, ReplayMemory, dqn_train, init_mlp
# select_rules and run_episode stay bound: bench/layers.py traces them by name here
from flowrl.model import (  # noqa: F401
    ENTRY_BITS, FREQ_GRID, GRID_STEP, MAX_HOSTS, PARAM_MODES, REC_GRID, FlowTable,
    ThresholdConfig, placement_landscape, rank_pool, read_text, select_rules,
)
from flowrl.qlearn import (
    GRID_STATES, AgentConfig, QTable, TraceRow, _trace_row, init_qtable, q_train,
)
from flowrl.simnet import (  # noqa: F401
    EpisodeMetrics, hit_ratio, reduction_fraction, run_episode, run_orchestration,
)
from flowrl.traffic import (
    FlowSchedule,
    InvalidProfile,
    TrafficProfile,
    WordDraws,
    emitted_before,
    generate_schedule,
    last_emission_tick,
    total_packets,
)


class ParseError(Exception):
    """Config file is malformed; message carries the line number."""


class ValidationError(Exception):
    """A config field is out of range; message names the field."""


# Desk-scale reference workload: 20 hosts offering ~2.5 flows/s of 10%
# elephant (67.5 KB) / 90% mice (22.5 KB) traffic at 36 kbit/s per flow
# (3 packets per tick), observed for a 60 s window against a 64-entry
# table. Small enough that full training sweeps finish in seconds.
REFERENCE_TRAFFIC = TrafficProfile(
    elephant_fraction=0.1,
    mice_size=22_500,
    elephant_size=67_500,
    aggregate_rate=540_000.0,
    packet_size=1500,
    per_flow_rate=36_000.0,
)

# Longest orchestration window, in one-second ticks: one simulated day. An
# MBF episode walks every tick of it.
MAX_WINDOW = 86_400

# Most work one MBF episode may do: its flow-ticks plus the residents its
# victim heaps score. mbf runs near the bound took 0.23-0.65 s on a 2-core
# host (0.25-0.75 us a unit, the most when every flow-tick evicts); the
# contended benchmark workload does 26,000 units.
MAX_MBF_WORK = 1_000_000

# Most agent episodes one experiment may run: n_training_sets pre-training
# runs and the reported run, each of at most episodes_cap episodes. A DQN
# episode costs about 0.2 ms; the acceptance suite asks for 21 x 10,000.
MAX_EPISODES = 1_000_000

# The run modes: two learners, the MBF baseline, the placement oracle, and
# the parameter-significance comparison.
MODES = ("ql", "dqn", "mbf", "oracle", "significance")

# Exploration rates; the other agent hyperparameters are the AgentConfig
# defaults.
EPSILON_FRESH = 1.0
EPSILON_STATIC = 0.1


@dataclass
class ExperimentConfig:
    """One experiment: mode, seed, workload shape, and agent knobs.

    Defaults define the reference workload. qtable_init "from_training"
    pre-trains on n_training_sets random threshold sets before the
    reported run (which then uses a static exploration rate of 0.1);
    "random" starts fresh with a decaying rate from 1.0.
    """

    mode: str = "ql"
    seed: int = 0
    episodes_cap: int = 1000
    goal_mu: float = 0.4
    table_capacity_bits: int = 22_784
    orchestration_window: int = 60
    n_hosts: int = 20
    replay_lag: int = 15
    qtable_init: str = "from_training"
    n_training_sets: int = 20
    param_mode: str = "both"
    initial_freq: int = 130
    initial_rec: int = 0
    output_path: str = "report.csv"
    traffic: TrafficProfile = field(default_factory=lambda: REFERENCE_TRAFFIC)

    def validate(self):
        if self.mode not in MODES:
            raise ValidationError("mode must be " + "|".join(MODES))
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if self.episodes_cap < 1:
            raise ValidationError("episodes_cap must be >= 1")
        if not 0.0 < self.goal_mu < 1.0:
            raise ValidationError("goal_mu must be in (0, 1)")
        if self.table_capacity_bits < 0:
            raise ValidationError("table_capacity_bits must be >= 0")
        if not 2 <= self.n_hosts <= MAX_HOSTS:
            raise ValidationError("n_hosts must be in [2, %d]" % MAX_HOSTS)
        if self.replay_lag < 0:
            raise ValidationError("replay_lag must be >= 0")
        if self.qtable_init not in ("random", "from_training"):
            raise ValidationError("qtable_init must be random|from_training")
        if self.n_training_sets < 1:
            raise ValidationError("n_training_sets must be >= 1")
        if (self.n_training_sets + 1) * self.episodes_cap > MAX_EPISODES:
            raise ValidationError("(n_training_sets + 1) * episodes_cap must be <= %d"
                                  % MAX_EPISODES)
        if self.param_mode not in PARAM_MODES:
            raise ValidationError("param_mode must be " + "|".join(PARAM_MODES))
        try:
            ThresholdConfig(self.initial_freq, self.initial_rec)
        except ValueError as exc:
            raise ValidationError(str(exc))
        path = self.output_path
        if not path or path != path.strip() or not path.isprintable():
            raise ValidationError("output_path must be non-empty and printable, without "
                                  "surrounding whitespace, for the config echo to reload")
        if not 1 <= self.orchestration_window <= MAX_WINDOW:
            raise ValidationError("orchestration_window must be in [1, %d]" % MAX_WINDOW)
        try:
            self.traffic.validate(self.orchestration_window)
        except InvalidProfile as exc:
            raise ValidationError(str(exc))
        if self.mode == "mbf":
            if self.seed > MAX_MBF_SEED:
                raise ValidationError("mbf: seed must be <= %d" % MAX_MBF_SEED)
            # the E flows expected over the window each emit on at most T
            # ticks, the larger flow's drain time, and each of the window's
            # ticks heaps at most min(entries, E) residents
            t, window = self.traffic, self.orchestration_window
            flows = t.arrival_rate() * window
            drain = -(-total_packets(max(t.mice_size, t.elephant_size), t.packet_size)
                      // t.packets_per_tick())
            entries = self.table_capacity_bits // ENTRY_BITS
            work = flows * min(window, drain) + min(entries, flows) * window
            if work > MAX_MBF_WORK:
                raise ValidationError("mbf: orchestration_window, table_capacity_bits and "
                                      "traffic imply %.3g units of episode work, above %d"
                                      % (work, MAX_MBF_WORK))
        return self

    def initial_state(self):
        return ThresholdConfig(self.initial_freq, self.initial_rec)


# key -> (is_traffic_field, converter) in echo order: the experiment
# fields, then the traffic profile's; each field's type parses its value.
_CONFIG_KEYS = {
    f.name: (cls is TrafficProfile, f.type)
    for cls in (ExperimentConfig, TrafficProfile)
    for f in dataclasses.fields(cls)
    if f.name != "traffic"
}


def load_config(path):
    """Parse a flat key=value config file.

    Blank lines and lines starting with '#' are skipped. Unknown keys,
    malformed lines and bytes that are not UTF-8 raise ParseError with the
    line number; out-of-range values raise ValidationError naming the
    field. Unset keys keep the documented defaults.
    """
    cfg = ExperimentConfig()
    traffic_kwargs = {}
    with read_text(path, ParseError) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError("line %d: expected key=value" % lineno)
            key, value = line.split("=", 1)
            key = key.strip()
            value = value.strip()
            if key not in _CONFIG_KEYS:
                raise ParseError("line %d: unknown key %r" % (lineno, key))
            is_traffic, conv = _CONFIG_KEYS[key]
            try:
                parsed = conv(value)
            except ValueError:
                raise ValidationError("%s: cannot parse %r" % (key, value))
            if is_traffic:
                traffic_kwargs[key] = parsed
            else:
                setattr(cfg, key, parsed)
    if traffic_kwargs:
        cfg.traffic = dataclasses.replace(cfg.traffic, **traffic_kwargs)
    return cfg.validate()


def save_config(cfg, path):
    """Echo a config as a reloadable key=value file (exact round-trip)."""
    def fmt(value):
        if isinstance(value, float):
            return "%.17g" % value
        return str(value)

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, (is_traffic, _) in _CONFIG_KEYS.items():
            source = cfg.traffic if is_traffic else cfg
            fh.write("%s=%s\n" % (key, fmt(getattr(source, key))))
    return path


def build_eval_schedule(schedule, window, replay_lag):
    """Derive the production-phase schedule from the orchestration window.

    The production episode re-offers the observed workload rather than
    fresh arrivals, so an episode is a pure function of the thresholds:
      - every flow still draining at the window close continues from relative
        tick 0 with its remaining bytes;
      - every elephant that completed by the window close recurs replay_lag
        ticks after its last emission tick (long-lived services come back),
        sized to what fits before the window length so the episode conserves
        packets; recurrences falling past the window are dropped;
      - completed mice never recur.
    """
    rate = schedule.profile.packets_per_tick()
    keys, starts, totals = schedule.keys, schedule.starts, schedule.packets
    remaining = totals - emitted_before(starts, totals, rate, window)
    draining = remaining > 0
    # a lag of at least the window drops every recurrence, so the clamp is
    # exact and keeps the replay ticks in int64
    replay_at = last_emission_tick(starts, totals, rate) + min(replay_lag, window)
    recurs = ~draining & schedule.elephant & (replay_at < window)
    start_of = np.where(draining, 0, replay_at)
    packets = np.where(draining, remaining, emitted_before(replay_at, totals, rate, window))
    kept = np.flatnonzero(draining | recurs)
    order = kept[np.lexsort((keys[kept], start_of[kept]))]
    return FlowSchedule(keys[order], start_of[order], schedule.elephant[order], packets[order],
                        window, schedule.profile)


def _pool_packets(pool, schedule):
    """Each pool flow's packets in the episode over schedule, [0, horizon),
    in pool order (0 for a flow the schedule lacks), and the episode's
    total packets."""
    packets = emitted_before(schedule.starts, schedule.packets,
                             schedule.profile.packets_per_tick(), schedule.horizon)
    if not len(packets):
        return np.zeros(len(pool), np.int64), 0
    order = np.argsort(schedule.keys)
    keys = schedule.keys[order]
    at = np.minimum(np.searchsorted(keys, pool.keys), len(keys) - 1)
    return np.where(keys[at] == pool.keys, packets[order][at], 0), int(packets.sum())


class EpisodeEnv:
    """Maps thresholds to episode metrics.

    One production episode preinstalls select_rules(pool, thresholds) and
    evaluates the fixed placement against the evaluation schedule up to
    its horizon. The rules never change during the episode, so its metrics
    are a pure function of the thresholds: cells() computes all 651 once
    with placement_landscape, as [fi][ri], and every run reads one cell, so
    identical thresholds return the identical metrics object.
    """

    def __init__(self, pool, eval_schedule, capacity_bits, window_close,
                 param_mode="both"):
        self.pool = pool
        self.eval_schedule = eval_schedule
        self.capacity_bits = capacity_bits
        self.window_close = window_close
        self.param_mode = param_mode
        self._cells = None

    def cells(self):
        if self._cells is None:
            packets, total = _pool_packets(self.pool, self.eval_schedule)
            hits = placement_landscape(rank_pool(self.pool, packets, self.window_close),
                                       self.capacity_bits, self.param_mode)
            # cells with equal hits have equal metrics and share one object
            horizon = self.eval_schedule.horizon
            metrics = {
                h: EpisodeMetrics(hits=h, misses=total - h, duration=horizon)
                for h in np.unique(hits).tolist()
            }
            self._cells = [[metrics[h] for h in row] for row in hits.tolist()]
        return self._cells

    def run(self, thresholds):
        return (self._cells or self.cells())[thresholds.freq_threshold // GRID_STEP][
            thresholds.recentness_threshold // GRID_STEP]


@dataclass
class RunReport:
    """Everything one experiment produced: the config echo, per-episode
    rows, a summary mapping, and (significance mode) named sub-reports."""

    config: ExperimentConfig
    rows: list
    summary: dict
    subreports: dict = field(default_factory=dict)


def _draw_training_sets(n, rng):
    """n random grid states for pre-training, a frequency then a recentness index each."""
    below = WordDraws(rng).below
    return [GRID_STATES[below(len(FREQ_GRID))][below(len(REC_GRID))] for _ in range(n)]


def _build_env(cfg):
    """cfg's workload, its flow pool and evaluation schedule, as an EpisodeEnv."""
    window = cfg.orchestration_window
    schedule = generate_schedule(cfg.traffic, window, cfg.n_hosts, cfg.seed)
    pool = run_orchestration(schedule, window)
    eval_schedule = build_eval_schedule(schedule, window, cfg.replay_lag)
    return EpisodeEnv(pool, eval_schedule, cfg.table_capacity_bits, window,
                      cfg.param_mode)


def _train_summary(cfg, result):
    initial = result.trace[0].overhead
    best = result.best
    return {
        "mode": cfg.mode,
        "seed": cfg.seed,
        "initial_overhead": initial,
        "best_overhead": best.best_overhead,
        "reduction": reduction_fraction(initial, best.best_overhead) if initial else 0.0,
        "best_freq_thr": best.best_thresholds.freq_threshold,
        "best_rec_thr": best.best_thresholds.recentness_threshold,
        "best_hit_ratio": hit_ratio(best.best_metrics),
        "episodes_run": result.episodes_run,
        "episodes_to_goal": result.episodes_run,  # a capped run ran the cap
        "goal_met": result.goal_met,
    }


def _load_network(path):
    """Mlp.load, refusing a network whose widths do not fit the agent's
    4-entry state vector and 5 actions."""
    net = Mlp.load(path)
    sizes = net.layer_sizes
    if sizes[0] != LAYER_SIZES[0] or sizes[-1] != LAYER_SIZES[-1]:
        raise MalformedNetwork("line 1: layer sizes %s need %d inputs and %d outputs" % (
            ",".join(map(str, sizes)), LAYER_SIZES[0], LAYER_SIZES[-1]))
    return net


def _run_agent(cfg, env, load_policy=None):
    """Load or initialize the policy of cfg.mode (ql: Q-table, dqn:
    network), then run the reported training run, drawing on three streams
    spawned from cfg.seed. A loaded or pre-trained policy explores at a
    static EPSILON_STATIC, a random one decays from EPSILON_FRESH; dqn
    pre-training and the final run share one replay memory."""
    sets_ss, init_ss, train_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    load, init, train_fn, shared = QTable.load, init_qtable, q_train, {}
    if cfg.mode == "dqn":
        load, init, train_fn = _load_network, init_mlp, dqn_train
        shared = {"memory": ReplayMemory()}
    pretrain_cfg = AgentConfig(epsilon0=EPSILON_FRESH, budget=cfg.episodes_cap,
                               goal_mu=cfg.goal_mu, epsilon_decay=True)
    sets = ()
    if load_policy is None and cfg.qtable_init == "from_training":
        sets = _draw_training_sets(cfg.n_training_sets, np.random.default_rng(sets_ss))
    if load_policy is not None:
        policy = load(load_policy)
    else:
        policy = init(init_ss, sets, env, pretrain_cfg, **shared)
    final_cfg = pretrain_cfg
    if load_policy is not None or sets:
        final_cfg = dataclasses.replace(final_cfg, epsilon0=EPSILON_STATIC, epsilon_decay=False)
    result = train_fn(env, policy, final_cfg, cfg.initial_state(),
                      WordDraws(np.random.default_rng(train_ss)), **shared)
    return result, policy


def _oracle_instance(pool, eval_schedule, capacity_bits):
    """t_i = the flow's packet count in the evaluation episode (0 for pool
    flows that never reappear), s_i = one table entry, in key order; and
    the pool's keys in that order."""
    order = np.argsort(pool.keys)
    packets = _pool_packets(pool, eval_schedule)[0][order].tolist()
    rules = tuple((t, ENTRY_BITS) for t in packets)
    return IlpInstance(rules=rules, capacity=capacity_bits), pool.keys[order]


def run_experiment(cfg, save_policy=None, load_policy=None):
    """Execute one experiment, fully determined by the config and seed.

    Every mode first builds the one environment (workload, orchestrated
    pool, evaluation schedule). ql / dqn: optional pre-training, then the
    goal-driven training loop. mbf: one reactive baseline episode on the
    evaluation schedule. oracle: exact best placement for the observed
    pool. significance: three tabular runs (freq_only / recentness_only /
    both) on that workload and the same seeds, plus a comparative summary.
    A policy path given to a mode other than ql / dqn is a ValidationError.
    """
    cfg.validate()
    for option, path in (("save_policy", save_policy), ("load_policy", load_policy)):
        if path is not None and cfg.mode not in ("ql", "dqn"):
            raise ValidationError("%s: mode %s has no policy" % (option, cfg.mode))
    env = _build_env(cfg)
    if cfg.mode in ("ql", "dqn"):
        result, policy = _run_agent(cfg, env, load_policy)
        if save_policy is not None:
            policy.save(save_policy)
        return RunReport(
            config=cfg, rows=result.trace[1:], summary=_train_summary(cfg, result)
        )

    if cfg.mode == "mbf":
        table = FlowTable(cfg.table_capacity_bits)
        metrics = run_mbf_episode(env.eval_schedule, table, MbfState(cfg.seed))
        row = _trace_row(1, metrics, ThresholdConfig(0, 0), 0, 0.0, 0)
        summary = {
            "mode": cfg.mode,
            "seed": cfg.seed,
            "overhead": metrics.overhead,
            "hits": metrics.hits,
            "misses": metrics.misses,
            "hit_ratio": hit_ratio(metrics),
            "duration": metrics.duration,
        }
        return RunReport(config=cfg, rows=[row], summary=summary)

    if cfg.mode == "oracle":
        inst, _ = _oracle_instance(env.pool, env.eval_schedule, cfg.table_capacity_bits)
        assignment = knapsack_exact(inst)
        summary = {
            "mode": cfg.mode,
            "seed": cfg.seed,
            "objective": assignment.objective,
            "on_switch_count": len(assignment.on_switch),
            "n_rules": inst.n,
            "capacity_bits": cfg.table_capacity_bits,
        }
        return RunReport(config=cfg, rows=[], summary=summary)

    # significance: three param modes on the one workload and seed streams
    subreports = {}
    reductions = {}
    for pm in PARAM_MODES:
        sub_cfg = dataclasses.replace(cfg, mode="ql", param_mode=pm)
        sub_env = EpisodeEnv(env.pool, env.eval_schedule, env.capacity_bits, env.window_close, pm)
        result, _ = _run_agent(sub_cfg, sub_env)
        subreports[pm] = RunReport(
            config=sub_cfg,
            rows=result.trace[1:],
            summary=_train_summary(sub_cfg, result),
        )
        reductions[pm] = subreports[pm].summary["reduction"]
    summary = {"mode": cfg.mode, "seed": cfg.seed}
    summary.update(("reduction_" + pm, reductions[pm]) for pm in PARAM_MODES)
    summary["both_dominates"] = reductions["both"] > max(reductions["freq_only"],
                                                          reductions["recentness_only"])
    return RunReport(config=cfg, rows=[], summary=summary, subreports=subreports)


# TraceRow's fields are the CSV columns: ints as %d, floats as %.6f
_ROW_FIELDS = dataclasses.fields(TraceRow)
_CSV_HEADER = ",".join(f.name for f in _ROW_FIELDS) + "\n"
_CSV_ROW = ",".join("%.6f" if f.type is float else "%d" for f in _ROW_FIELDS) + "\n"
_row_values = operator.attrgetter(*(f.name for f in _ROW_FIELDS))


def summary_text(summary):
    """The summary block: one key=value line per entry, booleans as
    true/false and floats to six decimals."""
    lines = []
    for key, value in summary.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = "%.6f" % value
        lines.append("%s=%s\n" % (key, value))
    return "".join(lines)


def report_paths(path, mode):
    """The files of a `mode` report set at `path`, one (CSV, summary block,
    config echo) triple per report: the run's at `path`, `path`.summary
    and `path`.cfg, then for significance each sub-report's at
    `path`.<param_mode> in PARAM_MODES order."""
    stems = [path] + [path + "." + pm for pm in PARAM_MODES if mode == "significance"]
    return [(stem, stem + ".summary", stem + ".cfg") for stem in stems]


def write_report(report, path):
    """Write the report set at the files report_paths names: per-episode
    rows as CSV, the summary block, and the config echo of the run and of
    each significance sub-report. Returns `path`. The set is written whole
    or not at all: every file is written under a temporary name beside
    its own before any is moved into place, so a failed write leaves the
    files at `path` as they were. Each old file is removed before the new
    one is renamed in: renaming over it makes ext4 (auto_da_alloc) write
    the new file out at once, 0.6-0.9 ms per report triple on a 2-core
    host."""
    reports = (report, *report.subreports.values())
    triples = report_paths(path, report.config.mode)
    names = [name for triple in triples for name in triple]
    suffix = ".%s.tmp" % secrets.token_hex(4)
    try:
        for rep, (csv_path, summary_path, cfg_path) in zip(reports, triples, strict=True):
            with open(csv_path + suffix, "w", newline="\n") as fh:
                fh.write(_CSV_HEADER)
                for row in rep.rows:
                    fh.write(_CSV_ROW % _row_values(row))
            with open(summary_path + suffix, "w", newline="\n") as fh:
                fh.write(summary_text(rep.summary))
            save_config(rep.config, cfg_path + suffix)
        for name in names:
            with contextlib.suppress(FileNotFoundError):
                os.remove(name)
            os.rename(name + suffix, name)
    except BaseException:
        for name in names:
            with contextlib.suppress(FileNotFoundError):
                os.remove(name + suffix)
        raise
    return path
