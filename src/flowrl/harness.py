# harness.py -- experiment plumbing: flat key=value configs, the
# desk-scale reference workload, the production-phase evaluation schedule,
# the closed-form episode environment, the five run modes (ql, dqn, mbf,
# oracle, significance), and CSV/summary report emission.

import copy
import dataclasses
import operator
from dataclasses import dataclass, field

import numpy as np

from flowrl.baselines import (
    IlpInstance,
    MbfState,
    knapsack_exact,
    run_mbf_episode,
)
from flowrl.dqn import LAYER_SIZES, MalformedNetwork, Mlp, ReplayMemory, dqn_train, init_mlp
# select_rules and run_episode stay bound: bench/layers.py traces them by name here
from flowrl.model import (  # noqa: F401
    ENTRY_BITS, FREQ_GRID, GRID_STEP, PARAM_MODES, REC_GRID, FlowTable, ThresholdConfig,
    placement_landscape, rank_pool, read_text, select_rules,
)
from flowrl.qlearn import AgentConfig, QTable, TraceRow, _trace_row, init_qtable, q_train
from flowrl.simnet import (  # noqa: F401
    EpisodeMetrics, hit_ratio, reduction_fraction, run_episode, run_orchestration,
)
from flowrl.traffic import (
    FlowSchedule,
    FlowSpec,
    InvalidProfile,
    TrafficProfile,
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

# Most hosts one workload may address: a /16 address block, more than one
# switch's flow table serves. The schedule draws host pairs from it.
MAX_HOSTS = 65_536

# Longest orchestration window, in one-second ticks: one simulated day. An
# MBF episode walks every tick of it.
MAX_WINDOW = 86_400

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
        if not 1 <= self.orchestration_window <= MAX_WINDOW:
            raise ValidationError("orchestration_window must be in [1, %d]" % MAX_WINDOW)
        try:
            self.traffic.validate(self.orchestration_window)
        except InvalidProfile as exc:
            raise ValidationError(str(exc))
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

    with open(path, "w", newline="\n") as fh:
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
    profile = schedule.profile
    flows = []
    for f in schedule.flows:
        total = total_packets(f.size, profile.packet_size)
        remaining = total - emitted_before(f, window, profile)
        if remaining > 0:
            flows.append(FlowSpec(f.id, f.klass, remaining * profile.packet_size, 0))
            continue
        if f.klass != "elephant":
            continue
        replay_at = last_emission_tick(f, profile) + replay_lag
        if replay_at >= window:
            continue
        recur = dataclasses.replace(f, start=replay_at)
        flows.append(dataclasses.replace(
            recur, size=emitted_before(recur, window, profile) * profile.packet_size))
    flows.sort(key=lambda f: (f.start, f.id))
    return FlowSchedule(flows=flows, horizon=window, profile=profile)


def _episode_packets(schedule):
    """Each flow's packets in [0, horizon), summed over the flow's entries
    in the schedule."""
    packets = {}
    for f in schedule.flows:
        emitted = emitted_before(f, schedule.horizon, schedule.profile)
        packets[f.id] = packets.get(f.id, 0) + emitted
    return packets


class EpisodeEnv:
    """Maps thresholds to episode metrics.

    One production episode preinstalls select_rules(pool, thresholds) and
    evaluates the fixed placement against the evaluation schedule up to
    its horizon. The rules never change during the episode, so its metrics
    are a pure function of the thresholds: the first run computes all
    651 cells with placement_landscape, and every run reads one cell, so
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
        # the ranked pool and the episode's total packets: filled by the
        # first run of this environment or of any of its variants
        self._ranking = {}

    def variant(self, param_mode):
        """This workload under another param_mode, sharing its ranking."""
        env = copy.copy(self)
        env.param_mode = param_mode
        env._cells = None
        return env

    def run(self, thresholds):
        if self._cells is None:
            if not self._ranking:
                packets = _episode_packets(self.eval_schedule)
                self._ranking["total"] = sum(packets.values())
                self._ranking["ranked"] = rank_pool(self.pool, packets, self.window_close)
            total = self._ranking["total"]
            hits = placement_landscape(self._ranking["ranked"], self.capacity_bits,
                                       self.param_mode)
            # cells with equal hits have equal metrics and share one object
            horizon = self.eval_schedule.horizon
            metrics = {
                h: EpisodeMetrics(hits=h, misses=total - h, duration=horizon)
                for h in np.unique(hits).tolist()
            }
            self._cells = [[metrics[h] for h in row] for row in hits.tolist()]
        return self._cells[thresholds.freq_threshold // GRID_STEP][
            thresholds.recentness_threshold // GRID_STEP
        ]


@dataclass
class RunReport:
    """Everything one experiment produced: the config echo, per-episode
    rows, a summary mapping, and (significance mode) named sub-reports."""

    config: ExperimentConfig
    rows: list
    summary: dict
    subreports: dict = field(default_factory=dict)


def _draw_training_sets(n, rng):
    """n random grid states for pre-training."""
    sets = []
    for _ in range(n):
        f = GRID_STEP * int(rng.integers(0, len(FREQ_GRID)))
        r = GRID_STEP * int(rng.integers(0, len(REC_GRID)))
        sets.append(ThresholdConfig(f, r))
    return sets


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
                      np.random.default_rng(train_ss), **shared)
    return result, policy


def _oracle_instance(pool, eval_schedule, capacity_bits):
    """t_i = the flow's packet count in the evaluation episode (0 for pool
    flows that never reappear), s_i = one table entry, in FlowId order."""
    packets = _episode_packets(eval_schedule)
    order = sorted(pool.records)
    rules = tuple((packets.get(fid, 0), ENTRY_BITS) for fid in order)
    return IlpInstance(rules=rules, capacity=capacity_bits), order


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
        metrics = run_mbf_episode(
            env.eval_schedule,
            table,
            MbfState(seed=cfg.seed),
            duration=env.eval_schedule.horizon,
        )
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
        result, _ = _run_agent(sub_cfg, env.variant(pm))
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


def write_report(report, path):
    """Write per-episode rows as CSV at `path`, the summary block at
    `path`.summary, and the config echo at `path`.cfg; significance
    sub-reports land at `path`.<param_mode>. Returns `path`."""
    with open(path, "w", newline="\n") as fh:
        fh.write(_CSV_HEADER)
        for row in report.rows:
            fh.write(_CSV_ROW % _row_values(row))
    with open(path + ".summary", "w", newline="\n") as fh:
        fh.write(summary_text(report.summary))
    save_config(report.config, path + ".cfg")
    for name, sub in report.subreports.items():
        write_report(sub, path + "." + name)
    return path
