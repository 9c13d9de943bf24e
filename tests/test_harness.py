"""Tests for the experiment harness: config files, the evaluation
schedule, the memoized environment, run modes, reports, and the CLI."""
import dataclasses
import os
import resource
import subprocess
import sys
import time

import numpy as np
import pytest

import flowrl
from flowrl import cli, harness
from flowrl.harness import (
    EPSILON_STATIC,
    MAX_EPISODES,
    MAX_HOSTS,
    MAX_WINDOW,
    MODES,
    REFERENCE_TRAFFIC,
    EpisodeEnv,
    ExperimentConfig,
    ParseError,
    ValidationError,
    _draw_training_sets,
    _oracle_instance,
    build_eval_schedule,
    load_config,
    report_paths,
    run_experiment,
    save_config,
    write_report,
)
from flowrl.baselines import brute_force_partition, knapsack_exact
from flowrl.model import (
    ENTRY_BITS, FREQ_GRID, MAX_TEXT_CHARS, REC_GRID, FlowTable, ThresholdConfig, select_rules,
)
from flowrl.simnet import run_episode
from flowrl.traffic import FlowSpec, TrafficProfile
from conftest import (
    CROWDED_DAY_MBF_CONFIG, SLOW_MBF_CONFIG, fid, hand_pool, hand_schedule, random_net,
)

SMALL_TRAFFIC = dataclasses.replace(REFERENCE_TRAFFIC, aggregate_rate=43_200.0)


class TestExperimentConfig:
    def test_defaults_validate(self):
        cfg = ExperimentConfig()
        assert cfg.validate() is cfg
        assert cfg.mode == "ql"
        assert cfg.episodes_cap == 1000
        assert cfg.table_capacity_bits == 22_784
        assert cfg.traffic == REFERENCE_TRAFFIC
        assert cfg.initial_state() == ThresholdConfig(130, 0)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(mode="sarsa"), dict(episodes_cap=0), dict(goal_mu=0.0),
         dict(goal_mu=1.0), dict(goal_mu=1.5), dict(table_capacity_bits=-1),
         dict(orchestration_window=0), dict(n_hosts=1), dict(replay_lag=-1),
         dict(qtable_init="xavier"), dict(n_training_sets=0),
         dict(param_mode="neither"), dict(initial_freq=95),
         dict(initial_rec=-10),
         dict(traffic=dataclasses.replace(REFERENCE_TRAFFIC,
                                          per_flow_rate=1000.0))],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValidationError):
            ExperimentConfig(**kwargs).validate()


class TestLoadConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("")
        assert load_config(path) == ExperimentConfig()

    def test_overrides_and_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "# experiment\n"
            "\n"
            "mode = dqn\n"
            "seed=3\n"
            "goal_mu=0.5\n"
            "mice_size=30000\n"
            "aggregate_rate=1000000\n"
        )
        cfg = load_config(path)
        assert cfg.mode == "dqn"
        assert cfg.seed == 3
        assert cfg.goal_mu == 0.5
        assert cfg.traffic.mice_size == 30_000
        assert cfg.traffic.aggregate_rate == 1_000_000.0
        assert cfg.traffic.elephant_size == REFERENCE_TRAFFIC.elephant_size

    @pytest.mark.parametrize("text, field", [
        ("aggregate_rate=5e-324\n", "aggregate_rate"),
        ("packet_size=1%s\n" % ("0" * 400), "packet_size"),
        ("mice_size=1%s\nelephant_size=1%s\npacket_size=1%s\nper_flow_rate=1e308\n"
         % ("0" * 313, "0" * 313, "0" * 300), "mice_size"),
    ], ids=["zero-arrival-rate", "packet-size", "flow-sizes"])
    def test_profile_beyond_floats_names_the_field(self, tmp_path, text, field):
        path = tmp_path / "c.cfg"
        path.write_text(text)
        with pytest.raises(ValidationError, match=field):
            load_config(path)

    def test_unknown_key_names_the_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed=1\nlearning_rate=0.1\n")
        with pytest.raises(ParseError, match="line 2"):
            load_config(path)

    def test_missing_equals_names_the_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("mode=ql\nseed 4\n")
        with pytest.raises(ParseError, match="line 2"):
            load_config(path)

    def test_non_utf8_bytes_name_the_line(self, tmp_path):
        # line ends as text mode reads them: a lone \r ends line 2
        path = tmp_path / "c.cfg"
        path.write_bytes(b"seed=1\r\nmode=ql\r# caf\xe9\n")
        with pytest.raises(ParseError, match="^line 3: .*not UTF-8"):
            load_config(path)

    def test_unparsable_value(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed=three\n")
        with pytest.raises(ValidationError, match="seed"):
            load_config(path)

    def test_out_of_range_value(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("goal_mu=1.5\n")
        with pytest.raises(ValidationError):
            load_config(path)

    @pytest.mark.parametrize("key", ["aggregate_rate", "per_flow_rate"])
    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    def test_non_finite_rate_rejected(self, tmp_path, key, value):
        path = tmp_path / "c.cfg"
        path.write_text("%s=%s\n" % (key, value))
        with pytest.raises(ValidationError, match=key):
            load_config(path)

    @pytest.mark.parametrize("n_hosts", [10**6, 10**19])
    def test_host_count_bound(self, tmp_path, n_hosts):
        path = tmp_path / "c.cfg"
        path.write_text("n_hosts=%d\n" % n_hosts)
        with pytest.raises(ValidationError, match="n_hosts"):
            load_config(path)
        assert ExperimentConfig(n_hosts=MAX_HOSTS).validate().n_hosts == MAX_HOSTS

    # rates low enough that the flow count cap passes: the MBF episode
    # would walk every tick of the window (10**8 ticks take minutes)
    @pytest.mark.parametrize("window,rate", [(10**8, "1"), (10**19, "1e-9")])
    def test_window_bound(self, tmp_path, window, rate):
        path = tmp_path / "c.cfg"
        path.write_text("mode=mbf\norchestration_window=%d\naggregate_rate=%s\n" % (window, rate))
        with pytest.raises(ValidationError, match="orchestration_window must be in"):
            load_config(path)
        slow = dataclasses.replace(REFERENCE_TRAFFIC, aggregate_rate=1.0)
        cfg = ExperimentConfig(orchestration_window=MAX_WINDOW, traffic=slow)
        assert cfg.validate().orchestration_window == MAX_WINDOW

    def test_negative_seed_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed=-1\n")
        with pytest.raises(ValidationError, match="seed"):
            load_config(path)

    # never generate a schedule here: these configs ask for 10**5-10**11 flows
    @pytest.mark.parametrize("text", [
        "aggregate_rate=1e15\n",  # about 2.8e11 flows over 60 ticks
        "orchestration_window=50000\n",  # 1.25e5 reference flows
    ])
    def test_flow_count_cap(self, tmp_path, text):
        path = tmp_path / "c.cfg"
        path.write_text(text)
        with pytest.raises(ValidationError, match="aggregate_rate implies"):
            load_config(path)

    # at the reference rate these windows also imply too many flows; the
    # window, the field out of range, is the one named
    @pytest.mark.parametrize("window", [MAX_WINDOW + 1, 10**7])
    def test_long_window_names_the_window(self, window):
        with pytest.raises(ValidationError, match="orchestration_window must be in"):
            ExperimentConfig(orchestration_window=window).validate()

    def test_flow_count_below_cap_accepted(self, tmp_path):
        # 3.5e8 bit/s of 27 KB flows: about 97,000 flows over 60 ticks
        path = tmp_path / "c.cfg"
        path.write_text("aggregate_rate=3.5e8\n")
        assert load_config(path).traffic.aggregate_rate == 3.5e8

    def test_episode_bound(self):
        at_bound = ExperimentConfig(n_training_sets=9, episodes_cap=MAX_EPISODES // 10)
        assert at_bound.validate() is at_bound
        with pytest.raises(ValidationError, match=r"n_training_sets \+ 1\) \* episodes_cap"):
            dataclasses.replace(at_bound, episodes_cap=MAX_EPISODES // 10 + 1).validate()

    def test_huge_training_set_count_refused_at_once(self):
        start = time.monotonic()
        with pytest.raises(ValidationError, match="n_training_sets"):
            run_experiment(ExperimentConfig(n_training_sets=10**11))
        assert time.monotonic() - start < 1.0

    def test_flow_packets_that_could_wrap_int64_refused(self):
        # 599 expected flows of up to 6e18 episode packets each: their sum
        # wrapped in the landscape's int64 product
        traffic = TrafficProfile(mice_size=10**19, elephant_size=10**19, packet_size=1,
                                 per_flow_rate=8e17, aggregate_rate=8e20)
        with pytest.raises(ValidationError, match="packets"):
            run_experiment(ExperimentConfig(traffic=traffic))

    @pytest.mark.parametrize("cfg", [SLOW_MBF_CONFIG, CROWDED_DAY_MBF_CONFIG],
                             ids=["slow", "crowded-day"])
    def test_mbf_episode_work_bound(self, cfg):
        start = time.monotonic()
        with pytest.raises(ValidationError,
                           match="orchestration_window, table_capacity_bits and traffic"):
            run_experiment(cfg)
        assert time.monotonic() - start < 1.0
        # the other modes are closed form: the work bound is the MBF episode's
        for mode in ("ql", "oracle", "significance"):
            assert dataclasses.replace(cfg, mode=mode).validate().mode == mode

    # the acceptance suite's MBF runs (reference traffic, 64 entries) and
    # the benchmark's: the reference against 8 entries, and 10x its arrival
    # rate against 64 entries (about 26,000 units of work)
    @pytest.mark.parametrize("rate, entries", [(540_000.0, 64), (540_000.0, 8),
                                               (5_400_000.0, 64)])
    def test_mbf_work_bound_passes_the_suite_configs(self, rate, entries):
        cfg = ExperimentConfig(mode="mbf", table_capacity_bits=entries * ENTRY_BITS,
                               traffic=dataclasses.replace(REFERENCE_TRAFFIC,
                                                           aggregate_rate=rate))
        assert cfg.validate() is cfg

    def test_mbf_seed_bound(self, tmp_path, capsys):
        # the MBF hashes key blake2b with "mbf1-<seed>", at most 64 bytes
        config = tmp_path / "c.cfg"
        for seed, rc in ((10**59 - 1, 0), (10**59, 1)):
            config.write_text("mode=mbf\nseed=%d\n" % seed)
            if rc:
                with pytest.raises(ValidationError, match="seed"):
                    load_config(config)
            else:
                assert load_config(config).seed == seed
            assert cli.main(["--config", str(config), "--out", str(tmp_path / "r.csv")]) == rc
            err = capsys.readouterr().err
            assert ("error [flowrl.harness.ValidationError]: mbf: seed" in err) == bool(rc)
        # the other modes take any seed
        for mode in MODES:
            if mode != "mbf":
                assert ExperimentConfig(mode=mode, seed=10**59).validate().seed == 10**59

    # a lone surrogate is what a non-UTF-8 byte in a --out argument decodes to
    @pytest.mark.parametrize("path", ["", " ", " c.csv", "c.csv ", "c.csv\t", "a\nb.csv",
                                      "a\rb.csv", "c.csv\n", "r\udcff.csv"])
    def test_output_path_the_echo_cannot_reload_rejected(self, path):
        with pytest.raises(ValidationError, match="output_path"):
            ExperimentConfig(output_path=path).validate()

    def test_printable_output_path_reloads_equal(self, tmp_path):
        cfg = ExperimentConfig(output_path=str(tmp_path / "run 1 = a#b é.csv"))
        path = tmp_path / "c.cfg"
        save_config(cfg.validate(), str(path))
        assert load_config(path) == cfg

    def test_save_load_round_trip(self, tmp_path):
        cfg = ExperimentConfig(
            mode="significance",
            seed=17,
            episodes_cap=123,
            goal_mu=0.123456789012345,
            table_capacity_bits=3560,
            orchestration_window=45,
            n_hosts=6,
            replay_lag=4,
            qtable_init="random",
            n_training_sets=7,
            param_mode="freq_only",
            initial_freq=50,
            initial_rec=120,
            output_path="out/x.csv",
            traffic=dataclasses.replace(
                REFERENCE_TRAFFIC, aggregate_rate=123_456.789,
                elephant_fraction=0.25,
            ),
        )
        path = tmp_path / "c.cfg"
        save_config(cfg, str(path))
        assert load_config(path) == cfg

    def test_default_config_echo_is_pinned(self, tmp_path):
        # key order and value formats (floats as %.17g) of every .cfg file
        path = tmp_path / "c.cfg"
        save_config(ExperimentConfig(), str(path))
        assert path.read_text() == (
            "mode=ql\n"
            "seed=0\n"
            "episodes_cap=1000\n"
            "goal_mu=0.40000000000000002\n"
            "table_capacity_bits=22784\n"
            "orchestration_window=60\n"
            "n_hosts=20\n"
            "replay_lag=15\n"
            "qtable_init=from_training\n"
            "n_training_sets=20\n"
            "param_mode=both\n"
            "initial_freq=130\n"
            "initial_rec=0\n"
            "output_path=report.csv\n"
            "elephant_fraction=0.10000000000000001\n"
            "mice_size=22500\n"
            "elephant_size=67500\n"
            "aggregate_rate=540000\n"
            "packet_size=1500\n"
            "per_flow_rate=36000\n"
        )


class TestBuildEvalSchedule:
    def test_hand_case(self):
        # window 10, replay lag 3, one packet per tick per flow:
        #   fid(1): elephant, 3 pkts from tick 0, dies tick 2, replays in
        #           full at tick 5
        #   fid(2): mouse, 2 pkts from tick 1, completed -> dropped
        #   fid(3): elephant, 3 pkts from tick 4, dies tick 6, replay at 9
        #           truncated to the 1 packet that fits
        #   fid(4): elephant, 3 pkts from tick 5, dies tick 7, replay at 10
        #           falls outside the window -> dropped
        #   fid(5): mouse, 3 pkts from tick 8, 1 packet still in flight ->
        #           continues at tick 0 with the remainder
        sched = hand_schedule(
            [(fid(1), "elephant", 4500, 0), (fid(2), "mice", 3000, 1),
             (fid(3), "elephant", 4500, 4), (fid(4), "elephant", 4500, 5),
             (fid(5), "mice", 4500, 8)],
            horizon=10,
        )
        out = build_eval_schedule(sched, window=10, replay_lag=3)
        assert out.flows == [
            FlowSpec(id=fid(5), klass="mice", size=1500, start=0),
            FlowSpec(id=fid(1), klass="elephant", size=4500, start=5),
            FlowSpec(id=fid(3), klass="elephant", size=1500, start=9),
        ]
        assert out.horizon == 10

    def test_zero_lag_replays_at_death(self):
        sched = hand_schedule([(fid(1), "elephant", 3000, 0)], horizon=10)
        out = build_eval_schedule(sched, window=10, replay_lag=0)
        assert len(out.flows) == 1
        assert out.flows[0].start == 1  # death tick = last emission tick

    def test_empty_schedule(self):
        sched = hand_schedule([], horizon=10)
        assert build_eval_schedule(sched, 10, 3).flows == []


@pytest.fixture
def rank_calls(monkeypatch):
    """The arguments of every rank_pool call that EpisodeEnv makes."""
    calls = []
    rank_pool = harness.rank_pool
    monkeypatch.setattr(harness, "rank_pool", lambda *a: calls.append(a) or rank_pool(*a))
    return calls


class TestEpisodeEnv:
    def _env(self):
        pool = hand_pool({fid(1): (120, 9), fid(2): (3, 9), fid(3): (40, 5)})
        eval_sched = hand_schedule(
            [(fid(1), "elephant", 4500, 0), (fid(2), "mice", 3000, 2)],
            horizon=10,
        )
        return pool, eval_sched, EpisodeEnv(pool, eval_sched, 2 * ENTRY_BITS, 10)

    def test_matches_direct_episode(self):
        pool, eval_sched, env = self._env()
        t = ThresholdConfig(100, 0)
        got = env.run(t)
        ruleset = select_rules(pool, t, 2 * ENTRY_BITS, 10)
        want = run_episode(ruleset, eval_sched, FlowTable(2 * ENTRY_BITS),
                           duration=10)
        assert got == want

    def test_memoizes_identical_thresholds(self):
        _, _, env = self._env()
        first = env.run(ThresholdConfig(100, 0))
        assert env.run(ThresholdConfig(100, 0)) is first

    def test_cells_count_one_exchange_per_miss(self):
        _, _, env = self._env()
        for f in FREQ_GRID:
            for r in REC_GRID:
                m = env.run(ThresholdConfig(f, r))
                assert m.overhead == m.misses
                assert m.total_lookups == m.hits + m.misses == 5

    # significance ranks once in each of its three param_mode environments
    @pytest.mark.parametrize("mode,rankings",
                             [("ql", 1), ("significance", 3), ("mbf", 0), ("oracle", 0)])
    def test_one_ranking_per_experiment(self, rank_calls, mode, rankings):
        run_experiment(ExperimentConfig(mode=mode, episodes_cap=3, n_training_sets=2))
        assert len(rank_calls) == rankings


# the (freq, rec) thresholds of the 20 sets that seeds 0 and 1 pre-train
# from, as Generator.integers drew them: a frequency then a recentness index
PINNED_SETS = {
    0: [(160, 290), (0, 90), (150, 220), (40, 30), (200, 130), (140, 200), (190, 10),
        (100, 250), (90, 80), (130, 210), (130, 260), (60, 20), (10, 280), (0, 280),
        (200, 30), (0, 150), (100, 200), (30, 0), (170, 130), (170, 140)],
    1: [(0, 210), (170, 50), (170, 190), (110, 90), (80, 30), (80, 250), (160, 40),
        (30, 260), (10, 140), (60, 100), (130, 100), (150, 30), (10, 230), (10, 0),
        (200, 100), (40, 60), (10, 240), (80, 160), (140, 190), (160, 80)],
}


class TestDrawTrainingSets:
    def test_on_grid_and_deterministic(self):
        a = _draw_training_sets(50, np.random.default_rng(4))
        b = _draw_training_sets(50, np.random.default_rng(4))
        assert a == b
        assert len(a) == 50
        for t in a:
            assert isinstance(t, ThresholdConfig)  # constructor enforces grid

    @pytest.mark.parametrize("seed", sorted(PINNED_SETS))
    def test_pinned(self, seed):
        # the stream _run_agent draws the sets from
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[0])
        sets = _draw_training_sets(20, rng)
        assert [(t.freq_threshold, t.recentness_threshold) for t in sets] == PINNED_SETS[seed]


class TestRunExperimentModes:
    def test_ql_report_shape(self):
        cfg = ExperimentConfig(mode="ql", seed=0, episodes_cap=5)
        rep = run_experiment(cfg)
        assert rep.summary["mode"] == "ql"
        assert rep.summary["seed"] == 0
        assert rep.summary["episodes_run"] <= 5
        assert len(rep.rows) == rep.summary["episodes_run"]
        assert [r.episode for r in rep.rows] == list(
            range(1, len(rep.rows) + 1))
        assert rep.summary["initial_overhead"] >= rep.summary["best_overhead"]
        assert 0.0 <= rep.summary["best_hit_ratio"] <= 1.0
        if rep.summary["goal_met"]:
            assert rep.summary["episodes_to_goal"] == rep.summary["episodes_run"]
        else:
            assert rep.summary["episodes_to_goal"] == 5

    def test_ql_pretrained_rows_use_static_epsilon(self):
        cfg = ExperimentConfig(mode="ql", seed=0, episodes_cap=5,
                               qtable_init="from_training")
        rep = run_experiment(cfg)
        assert all(r.epsilon == EPSILON_STATIC for r in rep.rows)

    def test_ql_deterministic(self):
        cfg = ExperimentConfig(mode="ql", seed=7, episodes_cap=5)
        a = run_experiment(cfg)
        b = run_experiment(ExperimentConfig(mode="ql", seed=7, episodes_cap=5))
        assert a.summary == b.summary
        assert a.rows == b.rows

    def test_dqn_report_shape(self):
        cfg = ExperimentConfig(mode="dqn", seed=0, episodes_cap=4)
        rep = run_experiment(cfg)
        assert rep.summary["mode"] == "dqn"
        assert len(rep.rows) == rep.summary["episodes_run"] <= 4

    def test_mbf_summary(self):
        rep = run_experiment(ExperimentConfig(mode="mbf", seed=0))
        assert set(rep.summary) == {"mode", "seed", "overhead", "hits",
                                    "misses", "hit_ratio", "duration"}
        assert rep.summary["overhead"] == rep.summary["misses"]
        assert 0.0 <= rep.summary["hit_ratio"] <= 1.0
        assert len(rep.rows) == 1
        assert rep.rows[0].overhead == rep.summary["overhead"]

    def test_oracle_summary_and_brute_force_agreement(self):
        cfg = ExperimentConfig(mode="oracle", seed=1, traffic=SMALL_TRAFFIC,
                               table_capacity_bits=356)
        rep = run_experiment(cfg)
        assert rep.rows == []
        assert rep.summary["capacity_bits"] == 356
        assert rep.summary["objective"] > 0
        assert rep.summary["on_switch_count"] <= 1

        from flowrl.harness import _build_env

        env = _build_env(cfg)
        inst, _ = _oracle_instance(env.pool, env.eval_schedule, 356)
        assert inst.n == rep.summary["n_rules"] <= 20
        exact = knapsack_exact(inst)
        brute = brute_force_partition(inst)
        assert rep.summary["objective"] == exact.objective == brute.objective
        assert exact.on_switch == brute.on_switch

    def test_oracle_zero_when_everything_fits(self):
        cfg = ExperimentConfig(mode="oracle", seed=1, traffic=SMALL_TRAFFIC,
                               table_capacity_bits=712)
        assert run_experiment(cfg).summary["objective"] == 0

    def test_significance_structure(self):
        cfg = ExperimentConfig(mode="significance", seed=0, episodes_cap=10)
        rep = run_experiment(cfg)
        assert sorted(rep.subreports) == ["both", "freq_only",
                                          "recentness_only"]
        for pm, sub in rep.subreports.items():
            assert sub.config.param_mode == pm
            assert sub.config.mode == "ql"
            assert sub.summary["mode"] == "ql"
            assert len(sub.rows) <= 10
            assert rep.summary["reduction_" + pm] == sub.summary["reduction"]
        assert rep.summary["both_dominates"] == (
            rep.summary["reduction_both"]
            > max(rep.summary["reduction_freq_only"],
                  rep.summary["reduction_recentness_only"])
        )

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            run_experiment(ExperimentConfig(mode="nonsense"))


class TestWriteReport:
    def test_csv_schema_and_values(self, tmp_path):
        cfg = ExperimentConfig(mode="ql", seed=0, episodes_cap=5,
                               output_path=str(tmp_path / "r.csv"))
        rep = run_experiment(cfg)
        write_report(rep, cfg.output_path)
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0] == ("episode,overhead,hits,misses,hit_ratio,"
                            "reduction,freq_thr,rec_thr,reward,epsilon")
        assert len(lines) == 1 + len(rep.rows)
        for line, row in zip(lines[1:], rep.rows):
            parts = line.split(",")
            assert len(parts) == 10
            assert int(parts[0]) == row.episode
            assert int(parts[1]) == row.overhead
            assert parts[4] == "%.6f" % row.hit_ratio
            assert parts[9] == "%.6f" % row.epsilon

    def test_summary_and_cfg_sidecars(self, tmp_path):
        out = str(tmp_path / "r.csv")
        cfg = ExperimentConfig(mode="ql", seed=0, episodes_cap=5,
                               output_path=out)
        rep = run_experiment(cfg)
        write_report(rep, out)
        summary = (tmp_path / "r.csv.summary").read_text().splitlines()
        keys = [line.split("=", 1)[0] for line in summary]
        assert keys == list(rep.summary)
        bools = [line for line in summary if line.startswith("goal_met=")]
        assert bools[0] in ("goal_met=true", "goal_met=false")
        assert load_config(tmp_path / "r.csv.cfg") == cfg

    def test_empty_rows_header_only(self, tmp_path):
        cfg = ExperimentConfig(mode="oracle", seed=1, traffic=SMALL_TRAFFIC,
                               table_capacity_bits=356)
        rep = run_experiment(cfg)
        out = str(tmp_path / "o.csv")
        write_report(rep, out)
        lines = (tmp_path / "o.csv").read_text().splitlines()
        assert len(lines) == 1

    def test_significance_subreport_files(self, tmp_path):
        cfg = ExperimentConfig(mode="significance", seed=0, episodes_cap=5)
        rep = run_experiment(cfg)
        out = str(tmp_path / "s.csv")
        write_report(rep, out)
        for pm in ("freq_only", "recentness_only", "both"):
            assert (tmp_path / ("s.csv." + pm)).exists()
            assert (tmp_path / ("s.csv." + pm + ".summary")).exists()
            assert (tmp_path / ("s.csv." + pm + ".cfg")).exists()

    def test_failed_write_leaves_the_earlier_set(self, tmp_path, monkeypatch):
        # a report set is written whole or not at all: a config echo that
        # fails on its second file leaves every file of the earlier set as
        # it was, and nothing else beside them
        out = str(tmp_path / "s.csv")
        cfg = ExperimentConfig(mode="significance", seed=0, episodes_cap=5)
        write_report(run_experiment(cfg), out)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(before) == sorted(os.path.basename(name)
                                        for names in report_paths(out, cfg.mode)
                                        for name in names)
        save = harness.save_config
        calls = []

        def save_then_fail(cfg, path):
            calls.append(path)
            if len(calls) == 2:
                raise OSError("no space left on device")
            return save(cfg, path)

        monkeypatch.setattr(harness, "save_config", save_then_fail)
        with pytest.raises(OSError, match="no space"):
            write_report(run_experiment(dataclasses.replace(cfg, seed=1)), out)
        assert len(calls) == 2
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("seed", [0, 2])
    def test_significance_equals_three_ql_runs(self, tmp_path, monkeypatch, seed):
        # one workload build serves all three param modes, and each
        # sub-report is byte for byte the ql run of its param mode
        schedules = []
        generate = harness.generate_schedule
        monkeypatch.setattr(harness, "generate_schedule",
                            lambda *a: schedules.append(a) or generate(*a))
        cfg = ExperimentConfig(mode="significance", seed=seed, episodes_cap=10)
        out = str(tmp_path / "s.csv")
        write_report(run_experiment(cfg), out)
        assert len(schedules) == 1
        for pm in ("freq_only", "recentness_only", "both"):
            ql_out = str(tmp_path / ("ql." + pm))
            ql_cfg = dataclasses.replace(cfg, mode="ql", param_mode=pm)
            write_report(run_experiment(ql_cfg), ql_out)
            for suffix in ("", ".summary", ".cfg"):
                with open(out + "." + pm + suffix, "rb") as a, \
                        open(ql_out + suffix, "rb") as b:
                    assert a.read() == b.read()


class TestCli:
    def test_compose_overrides(self):
        parser = cli.build_parser()
        args = parser.parse_args(
            ["--mode", "mbf", "--seed", "9", "--episodes", "7",
             "--goal", "0.5", "--table-bits", "712", "--out", "x.csv"]
        )
        cfg = cli.compose_config(args)
        assert cfg.mode == "mbf"
        assert cfg.seed == 9
        assert cfg.episodes_cap == 7
        assert cfg.goal_mu == 0.5
        assert cfg.table_capacity_bits == 712
        assert cfg.output_path == "x.csv"

    def test_config_file_plus_flag_override(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("mode=mbf\nseed=2\n")
        args = cli.build_parser().parse_args(
            ["--config", str(path), "--seed", "5"]
        )
        cfg = cli.compose_config(args)
        assert cfg.mode == "mbf"
        assert cfg.seed == 5

    def test_main_success_prints_summary(self, tmp_path, capsys):
        out = str(tmp_path / "r.csv")
        rc = cli.main(["--mode", "mbf", "--seed", "0", "--out", out])
        captured = capsys.readouterr()
        assert rc == 0
        assert "mode=mbf" in captured.out
        assert "hit_ratio=" in captured.out
        assert (tmp_path / "r.csv").exists()
        assert (tmp_path / "r.csv.summary").exists()

    @pytest.mark.parametrize("mode", ["ql", "significance"])
    def test_main_prints_the_summary_file(self, tmp_path, capsys, mode):
        out = tmp_path / "r.csv"
        rc = cli.main(["--mode", mode, "--episodes", "3", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == (tmp_path / "r.csv.summary").read_text()
        assert "=True" not in captured.out and "=False" not in captured.out

    def test_main_missing_config_fails(self, tmp_path, capsys):
        rc = cli.main(["--config", str(tmp_path / "nope.cfg")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error [")
        assert captured.out == ""

    def test_main_bad_goal_fails(self, tmp_path, capsys):
        rc = cli.main(["--goal", "1.5", "--out", str(tmp_path / "r.csv")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error [flowrl.harness.ValidationError]" in captured.err

    def test_main_refuses_an_out_path_with_a_line_break(self, tmp_path, capsys):
        out = tmp_path / "a\nb.csv"
        rc = cli.main(["--mode", "oracle", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error [flowrl.harness.ValidationError]: output_path")
        assert list(tmp_path.iterdir()) == []

    @pytest.fixture
    def no_run(self, monkeypatch):
        """Fail the test if any experiment runs."""
        def run(*args, **kwargs):
            raise AssertionError("an experiment ran")
        monkeypatch.setattr(cli, "run_experiment", run)

    def test_save_policy_at_the_report_refused(self, tmp_path, capsys, no_run):
        out = str(tmp_path / "r.csv")
        rc = cli.main(["--mode", "ql", "--episodes", "5", "--out", out, "--save-policy", out])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == ("error [flowrl.harness.ValidationError]: --save-policy %s and "
                                "--out %s name the same file\n" % (out, out))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode, suffix", [
        ("ql", ".cfg"), ("ql", ".summary"), ("significance", ".freq_only.cfg"),
        ("significance", ".both"),
    ])
    def test_config_at_a_report_file_refused(self, tmp_path, capsys, no_run, mode, suffix):
        # the config echo would replace the user's file, comments and all
        config = tmp_path / ("r.csv" + suffix)
        text = "# my settings\nmode=%s\nepisodes_cap=3\n" % mode
        config.write_text(text)
        # a path that differs in spelling but not in file
        out = str(tmp_path / "sub" / ".." / "r.csv")
        (tmp_path / "sub").mkdir()
        rc = cli.main(["--config", str(config), "--out", out])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error [flowrl.harness.ValidationError]: --config ")
        assert "and --out %s name the same file" % out in captured.err
        assert config.read_text() == text

    @pytest.mark.parametrize("link", [os.symlink, os.link])
    def test_config_linked_at_a_report_file_refused(self, tmp_path, capsys, no_run, link):
        config = tmp_path / "mine.cfg"
        config.write_text("mode=mbf\n")
        link(config, tmp_path / "r.csv.cfg")
        rc = cli.main(["--config", str(config), "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        assert "--config %s and --out" % config in capsys.readouterr().err
        assert config.read_text() == "mode=mbf\n"

    def test_load_policy_at_the_summary_refused(self, tmp_path, capsys, no_run):
        out = str(tmp_path / "r.csv")
        rc = cli.main(["--mode", "dqn", "--out", out, "--load-policy", out + ".summary"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "--load-policy %s.summary and --out %s name" % (out, out) in captured.err

    def test_out_in_a_missing_directory_refused(self, tmp_path, capsys, no_run):
        out = str(tmp_path / "nodir" / "r.csv")
        rc = cli.main(["--mode", "mbf", "--out", out])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == ("error [flowrl.harness.ValidationError]: --out %s: the "
                                "directory does not exist\n" % out)

    @pytest.mark.parametrize("flag", ["--save-policy", "--load-policy"])
    def test_policy_at_the_config_refused(self, tmp_path, capsys, no_run, flag):
        # a saved policy would replace the user's config, comments and all
        config = tmp_path / "c.cfg"
        text = "# mine\nmode=ql\nepisodes_cap=3\n"
        config.write_text(text)
        rc = cli.main(["--config", str(config), "--out", str(tmp_path / "r.csv"),
                       flag, str(config)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == ("error [flowrl.harness.ValidationError]: %s %s and --config "
                                "%s name the same file\n" % (flag, config, config))
        assert config.read_text() == text

    @pytest.mark.parametrize("mode, suffix", [
        ("mbf", ""), ("ql", ".summary"), ("significance", ".both.cfg"),
    ])
    def test_out_at_a_directory_refused(self, tmp_path, capsys, no_run, mode, suffix):
        out = str(tmp_path / "r.csv")
        os.mkdir(out + suffix)
        rc = cli.main(["--mode", mode, "--episodes", "3", "--out", out])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == ("error [flowrl.harness.ValidationError]: --out %s: %s%s is a "
                                "directory\n" % (out, out, suffix))

    def test_load_policy_may_equal_save_policy(self, tmp_path):
        # a policy updated in place
        policy = str(tmp_path / "q.csv")
        args = ["--mode", "ql", "--episodes", "3", "--out", str(tmp_path / "r.csv")]
        assert cli.main(args + ["--save-policy", policy]) == 0
        assert cli.main(args + ["--load-policy", policy, "--save-policy", policy]) == 0

    @pytest.mark.parametrize("mode", ["mbf", "oracle", "significance"])
    @pytest.mark.parametrize("flag", ["--save-policy", "--load-policy"])
    def test_policy_flags_need_an_agent_mode(self, tmp_path, capsys, mode, flag):
        policy = tmp_path / "p"
        rc = cli.main(["--mode", mode, "--out", str(tmp_path / "r.csv"),
                       flag, str(policy)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error [flowrl.harness.ValidationError]: ")
        assert flag[2:].replace("-", "_") in captured.err
        assert not policy.exists() and not (tmp_path / "r.csv").exists()

    def test_ql_policy_save_load_round_trip(self, tmp_path, capsys):
        policy = str(tmp_path / "q.csv")
        rc = cli.main(["--mode", "ql", "--episodes", "3", "--seed", "0",
                       "--out", str(tmp_path / "a.csv"),
                       "--save-policy", policy])
        assert rc == 0
        assert (tmp_path / "q.csv").exists()
        rc = cli.main(["--mode", "ql", "--episodes", "3", "--seed", "0",
                       "--out", str(tmp_path / "b.csv"),
                       "--load-policy", policy])
        captured = capsys.readouterr()
        assert rc == 0
        assert "mode=ql" in captured.out

    def test_malformed_ql_policy_fails_with_line(self, tmp_path, capsys):
        policy = tmp_path / "q.csv"
        policy.write_text("0,0,NoOp,1\n")
        rc = cli.main(["--mode", "ql", "--episodes", "3",
                       "--out", str(tmp_path / "r.csv"),
                       "--load-policy", str(policy)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith(
            "error [flowrl.qlearn.MalformedQTable]: line 1: file ends after 1 of 3255"
        )

    def test_malformed_dqn_policy_fails_with_line(self, tmp_path, capsys):
        cases = [
            (None, "layer sizes '4,24,x'"),
            # widths the agent cannot drive: 4 state inputs, 5 action outputs
            ((3, 5), "layer sizes 3,5 need 4 inputs and 5 outputs"),
            ((4, 7), "layer sizes 4,7 need 4 inputs and 5 outputs"),
            ((4, 24, 3), "layer sizes 4,24,3 need 4 inputs and 5 outputs"),
        ]
        for sizes, message in cases:
            policy = tmp_path / "net.csv"
            if sizes is None:
                policy.write_text("4,24,x\n")
            else:
                random_net(np.random.default_rng(0), sizes).save(policy)
            # 8 entries: the baseline overhead is positive, so episodes would run
            rc = cli.main(["--mode", "dqn", "--episodes", "1000", "--goal", "0.97",
                           "--table-bits", "2848", "--out", str(tmp_path / "r.csv"),
                           "--load-policy", str(policy)])
            captured = capsys.readouterr()
            assert rc == 1, sizes
            assert captured.err.startswith(
                "error [flowrl.dqn.MalformedNetwork]: line 1: " + message
            ), captured.err
            assert not (tmp_path / "r.csv").exists()

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    @pytest.mark.parametrize("args, error", [
        (["--config", "/dev/zero"], "flowrl.harness.ParseError"),
        (["--mode", "ql", "--load-policy", "/dev/zero"], "flowrl.qlearn.MalformedQTable"),
        (["--mode", "dqn", "--load-policy", "/dev/zero"], "flowrl.dqn.MalformedNetwork"),
    ], ids=["config", "ql-policy", "dqn-policy"])
    def test_endless_file_refused(self, tmp_path, args, error):
        # under a 1 GiB address-space cap, so that a loader reading the
        # endless file whole fails with MemoryError instead of filling memory
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.path.dirname(os.path.dirname(flowrl.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "flowrl.cli", *args, "--out", str(tmp_path / "r.csv")],
            env=env, preexec_fn=cap, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (
            1, "error [%s]: line 1: the file is longer than %d characters\n"
            % (error, MAX_TEXT_CHARS))
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs mkfifo")
    @pytest.mark.parametrize("args, error", [
        (["--config"], "flowrl.harness.ParseError"),
        (["--mode", "ql", "--load-policy"], "flowrl.qlearn.MalformedQTable"),
        (["--mode", "dqn", "--load-policy"], "flowrl.dqn.MalformedNetwork"),
    ], ids=["config", "ql-policy", "dqn-policy"])
    def test_fifo_refused(self, tmp_path, args, error):
        # no process writes to the FIFO: a loader that opens it blocking
        # waits forever, so the run is a subprocess with a timeout
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.path.dirname(os.path.dirname(flowrl.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "flowrl.cli", *args, str(fifo),
             "--out", str(tmp_path / "r.csv")],
            env=env, capture_output=True, text=True, timeout=30)
        assert (proc.returncode, proc.stderr) == (
            1, "error [%s]: line 1: the file is a FIFO\n" % error)
        assert not (tmp_path / "r.csv").exists()

    def test_dqn_policy_save_load_round_trip(self, tmp_path):
        policy = str(tmp_path / "net.csv")
        rc = cli.main(["--mode", "dqn", "--episodes", "2", "--seed", "0",
                       "--out", str(tmp_path / "a.csv"),
                       "--save-policy", policy])
        assert rc == 0
        rc = cli.main(["--mode", "dqn", "--episodes", "2", "--seed", "0",
                       "--out", str(tmp_path / "b.csv"),
                       "--load-policy", policy])
        assert rc == 0


class TestCliFlags:
    def test_overrides_read_their_config_field(self):
        fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
        defaults = ExperimentConfig()
        actions = cli.build_parser()._option_string_actions
        for flag, (key, _) in cli.OVERRIDES.items():
            assert key in fields, flag
            assert actions[flag].dest == key
            assert actions[flag].type is fields[key].type
            assert actions[flag].help.endswith("(default: %s)" % getattr(defaults, key))

    def test_mode_choices_are_the_modes(self):
        assert tuple(cli.build_parser()._option_string_actions["--mode"].choices) == MODES

    def test_readme_usage_matches_the_parser(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
        with open(readme, encoding="utf-8") as fh:
            assert cli.build_parser().format_usage() in fh.read()
