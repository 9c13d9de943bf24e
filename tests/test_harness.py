"""Tests for the experiment harness: config files, the evaluation
schedule, the memoized environment, run modes, reports, and the CLI."""
import dataclasses
import os
import time

import numpy as np
import pytest

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
    run_experiment,
    save_config,
    write_report,
)
from flowrl.baselines import brute_force_partition, knapsack_exact
from flowrl.dqn import Mlp
from flowrl.model import (
    ENTRY_BITS, FREQ_GRID, REC_GRID, FlowTable, ThresholdConfig, select_rules,
)
from flowrl.simnet import run_episode
from flowrl.traffic import FlowSpec, TrafficProfile
from conftest import fid, hand_pool, hand_schedule

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

    def test_variants_rank_the_pool_once_on_first_run(self, rank_calls):
        pool, eval_sched, env = self._env()
        variants = [env.variant(pm) for pm in ("freq_only", "recentness_only", "both")]
        assert rank_calls == []
        cells = [[v.run(ThresholdConfig(f, 0)) for f in (0, 100, 200)] for v in variants]
        assert len(rank_calls) == 1
        for variant, row in zip(variants, cells):
            fresh = EpisodeEnv(pool, eval_sched, 2 * ENTRY_BITS, 10, variant.param_mode)
            assert row == [fresh.run(ThresholdConfig(f, 0)) for f in (0, 100, 200)]

    def test_cells_count_one_exchange_per_miss(self):
        _, _, env = self._env()
        for f in FREQ_GRID:
            for r in REC_GRID:
                m = env.run(ThresholdConfig(f, r))
                assert m.overhead == m.misses
                assert m.total_lookups == m.hits + m.misses == 5

    @pytest.mark.parametrize("mode,rankings",
                             [("ql", 1), ("significance", 1), ("mbf", 0), ("oracle", 0)])
    def test_one_ranking_per_experiment(self, rank_calls, mode, rankings):
        run_experiment(ExperimentConfig(mode=mode, episodes_cap=3, n_training_sets=2))
        assert len(rank_calls) == rankings


class TestDrawTrainingSets:
    def test_on_grid_and_deterministic(self):
        a = _draw_training_sets(50, np.random.default_rng(4))
        b = _draw_training_sets(50, np.random.default_rng(4))
        assert a == b
        assert len(a) == 50
        for t in a:
            assert isinstance(t, ThresholdConfig)  # constructor enforces grid


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
                Mlp.random(np.random.default_rng(0), layer_sizes=sizes).save(policy)
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
