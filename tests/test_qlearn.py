"""Tests for tabular Q-learning: table ops, the update rule, epsilon
handling, initialization modes, and the goal-driven training loop."""
import dataclasses
import hashlib

import numpy as np
import pytest

from flowrl.harness import ExperimentConfig, run_experiment, write_report
from flowrl.model import FREQ_GRID, REC_GRID, ThresholdConfig
from flowrl.qlearn import (
    ACTIONS,
    N_ACTIONS,
    Action,
    AgentConfig,
    MalformedQTable,
    QTable,
    init_qtable,
    q_train,
    q_update,
)
from conftest import FakeEnv, stream, toy_mdp
from reference import apply_action, decay_epsilon, epsilon_greedy_select


class TestAction:
    def test_enum_order(self):
        assert [a.value for a in ACTIONS] == [0, 1, 2, 3, 4]
        assert ACTIONS[0] is Action.NoOp
        assert ACTIONS[1] is Action.IncFreq
        assert ACTIONS[2] is Action.DecFreq
        assert ACTIONS[3] is Action.IncRec
        assert ACTIONS[4] is Action.DecRec
        assert N_ACTIONS == 5


class TestAgentConfig:
    def test_defaults(self):
        cfg = AgentConfig()
        assert (cfg.alpha, cfg.gamma, cfg.epsilon0) == (0.1, 0.95, 1.0)
        assert (cfg.budget, cfg.goal_mu, cfg.epsilon_decay) == (1000, 0.4, True)

    @pytest.mark.parametrize(
        "kwargs",
        # A case's id is its position (kwargs0, kwargs1, ...): add new cases
        # at the end so the existing ids keep naming the same case.
        [dict(epsilon0=float("nan")), dict(epsilon0=float("inf")),
         dict(epsilon0=float("-inf")), dict(epsilon0=-1e-9),
         dict(epsilon0=1.0 + 1e-9), dict(budget=-1),
         dict(epsilon0=-0.1), dict(epsilon0=1.1), dict(budget=0),
         dict(goal_mu=float("nan")), dict(goal_mu=-0.5), dict(goal_mu=1.5),
         dict(goal_mu=0.0), dict(goal_mu=1.0)],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            AgentConfig(**kwargs)

    @pytest.mark.parametrize("name", ["alpha", "gamma"])
    def test_alpha_and_gamma_are_constants(self, name):
        assert name not in {f.name for f in dataclasses.fields(AgentConfig)}
        with pytest.raises(TypeError):
            AgentConfig(**{name: getattr(AgentConfig, name)})


class TestQTable:
    def test_shape_and_zero_default(self):
        q = QTable()
        values = np.array(q.rows)
        assert values.shape == (len(FREQ_GRID), len(REC_GRID), N_ACTIONS)
        assert values.shape == (21, 31, 5)
        assert not values.any()
        assert all(type(v) is float for row in q.rows for cell in row for v in cell)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            QTable(np.zeros((21, 31, 4)))

    def test_random_range_and_determinism(self):
        a = QTable.random(np.random.default_rng(5))
        b = QTable.random(np.random.default_rng(5))
        assert a.rows == b.rows
        values = np.array(a.rows)
        assert (values >= 0.0).all() and (values < 0.01).all()

    def test_get_set_row(self):
        q = QTable()
        s = ThresholdConfig(90, 30)
        q.set(s, Action.IncRec, 0.7)
        assert q.get(s, Action.IncRec) == 0.7
        assert q.row(s)[int(Action.IncRec)] == 0.7
        assert q.rows[9][3][3] == 0.7

    def test_save_load_exact_round_trip(self, tmp_path):
        q = QTable.random(np.random.default_rng(17))
        q.set(ThresholdConfig(200, 300), Action.DecRec, -3.141592653589793)
        path = tmp_path / "q.csv"
        q.save(path)
        back = QTable.load(path)
        assert back.rows == q.rows

    def test_save_format(self, tmp_path):
        q = QTable()
        path = tmp_path / "q.csv"
        q.save(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 21 * 31 * 5
        assert lines[0] == "0,0,NoOp,0"
        assert lines[1] == "0,0,IncFreq,0"

    @pytest.mark.parametrize(
        "lineno, line, reason",
        [
            (3, "0,0,DecFreq", "expected 4 fields"),
            (3, "0,0,DecFreq,0,0", "expected 4 fields"),
            (1, "-10,0,NoOp,0", "not a non-negative integer"),
            (1, "0.0,0,NoOp,0", "not a non-negative integer"),
            (1, " 0,0,NoOp,0,", "expected 4 fields"),
            (1, "15,0,NoOp,0", "off the grid"),
            (1, "210,0,NoOp,0", "off the grid"),
            (1, "0,310,NoOp,0", "off the grid"),
            (1, "0,x,NoOp,0", "not a non-negative integer"),
            (2, "0,0,Jump,0", "unknown action"),
            (2, "0,0,NoOp,0", "duplicate cell"),
            (4, "0,0,IncRec,nan", "non-finite"),
            (4, "0,0,IncRec,-inf", "non-finite"),
            (4, "0,0,IncRec,zero", "not a number"),
        ],
    )
    def test_load_rejects_malformed_line(self, tmp_path, lineno, line, reason):
        path = tmp_path / "q.csv"
        QTable().save(path)
        lines = path.read_text().splitlines()
        lines[lineno - 1] = line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedQTable, match="^line %d: .*%s" % (lineno, reason)):
            QTable.load(path)

    def test_load_rejects_non_utf8_bytes(self, tmp_path):
        # far past the first 8 KiB, which a text-mode reader decodes at once
        path = tmp_path / "q.csv"
        QTable().save(path)
        lines = path.read_bytes().split(b"\n")
        lines[2999] = b"0,0,NoOp,\xff"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(MalformedQTable, match="^line 3000: .*not UTF-8"):
            QTable.load(path)

    def test_load_rejects_missing_cells(self, tmp_path):
        path = tmp_path / "q.csv"
        QTable().save(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n\n")
        with pytest.raises(MalformedQTable, match="^line 3255: file ends after 3254 of 3255"):
            QTable.load(path)
        path.write_text("")
        with pytest.raises(MalformedQTable, match="^line 0: file ends after 0 of 3255"):
            QTable.load(path)

    @pytest.mark.parametrize("line", ["0100,0,NoOp,1", "100,000,NoOp,1.0", "00100,00,NoOp,1e0"])
    def test_load_reads_a_non_canonical_line_as_its_canonical_form(self, tmp_path, line):
        path = tmp_path / "q.csv"
        QTable().save(path)
        lines = path.read_text().splitlines()
        lines[lines.index("100,0,NoOp,0")] = line
        path.write_text("\n".join(lines) + "\n")
        canonical = QTable()
        canonical.set(ThresholdConfig(100, 0), Action.NoOp, 1.0)
        assert QTable.load(path).rows == canonical.rows
        # a second line for the cell names it as written
        path.write_text("\n".join(lines + ["100,0,NoOp,0", line]) + "\n")
        with pytest.raises(MalformedQTable, match="^line %d: duplicate cell 100,0,NoOp$"
                           % (len(lines) + 1)):
            QTable.load(path)
        path.write_text("\n".join(lines + [line]) + "\n")
        with pytest.raises(MalformedQTable, match="^line %d: duplicate cell %s$"
                           % (len(lines) + 1, line.rpartition(",")[0])):
            QTable.load(path)

    def test_load_accepts_integer_values_in_any_order(self, tmp_path):
        lines = [
            "%d,%d,%s,%d" % (f, r, a.name, a == Action.NoOp)
            for f in FREQ_GRID for r in REC_GRID for a in ACTIONS
        ]
        lines[-1] = "0200,0300,DecRec,0"  # leading zeros still name the cell
        path = tmp_path / "noop.csv"
        path.write_text("\n".join(reversed(lines)) + "\n")
        q = QTable.load(path)
        values = np.array(q.rows)
        assert (values[:, :, int(Action.NoOp)] == 1).all()
        assert values.sum() == len(FREQ_GRID) * len(REC_GRID)


class TestEpsilonGreedySelect:
    def test_greedy_picks_argmax(self, rng):
        q = QTable()
        s = ThresholdConfig(50, 100)
        for value, action in [(0.9, Action.NoOp), (0.1, Action.IncFreq),
                              (0.1, Action.DecFreq), (0.1, Action.IncRec),
                              (0.1, Action.DecRec)]:
            q.set(s, action, value)
        assert epsilon_greedy_select(q, s, 0.0, rng) is Action.NoOp
        q.set(s, Action.IncRec, 2.0)
        assert epsilon_greedy_select(q, s, 0.0, rng) is Action.IncRec

    def test_ties_break_by_enum_order(self, rng):
        q = QTable()  # all-zero row: every action ties
        s = ThresholdConfig(0, 0)
        assert epsilon_greedy_select(q, s, 0.0, rng) is Action.NoOp
        q.set(s, Action.DecFreq, 0.5)
        q.set(s, Action.DecRec, 0.5)
        assert epsilon_greedy_select(q, s, 0.0, rng) is Action.DecFreq

    def test_full_exploration_is_uniform(self):
        rng = np.random.default_rng(3)
        q = QTable()
        s = ThresholdConfig(0, 0)
        counts = np.zeros(N_ACTIONS, dtype=int)
        for _ in range(10_000):
            counts[int(epsilon_greedy_select(q, s, 1.0, rng))] += 1
        # each action expects 2000; 3 sigma is about 120
        assert np.abs(counts - 2000).max() < 120

    @pytest.mark.parametrize("eps", [-0.1, 1.1])
    def test_rejects_bad_epsilon(self, eps, rng):
        with pytest.raises(ValueError):
            epsilon_greedy_select(QTable(), ThresholdConfig(0, 0), eps, rng)


class TestApplyAction:
    def test_moves_one_grid_step(self):
        s = ThresholdConfig(90, 30)
        assert apply_action(s, Action.IncFreq) == ThresholdConfig(100, 30)
        assert apply_action(s, Action.DecFreq) == ThresholdConfig(80, 30)
        assert apply_action(s, Action.IncRec) == ThresholdConfig(90, 40)
        assert apply_action(s, Action.DecRec) == ThresholdConfig(90, 20)
        assert apply_action(s, Action.NoOp) == s

    def test_clamps_at_grid_edges(self):
        assert apply_action(ThresholdConfig(200, 0), Action.IncFreq) == \
            ThresholdConfig(200, 0)
        assert apply_action(ThresholdConfig(0, 0), Action.DecFreq) == \
            ThresholdConfig(0, 0)
        assert apply_action(ThresholdConfig(0, 300), Action.IncRec) == \
            ThresholdConfig(0, 300)
        assert apply_action(ThresholdConfig(0, 0), Action.DecRec) == \
            ThresholdConfig(0, 0)


class TestQUpdate:
    CFG = AgentConfig()

    def test_hand_value_from_zero(self):
        q = QTable()
        s, s2 = ThresholdConfig(0, 0), ThresholdConfig(10, 0)
        q_update(q, s, Action.IncFreq, 1, s2, self.CFG)
        # 0 + 0.1 * (1 + 0.95*0 - 0) = 0.1
        assert q.get(s, Action.IncFreq) == pytest.approx(0.1, abs=1e-12)

    def test_hand_value_with_bootstrap(self):
        q = QTable()
        s, s2 = ThresholdConfig(0, 0), ThresholdConfig(10, 0)
        q.set(s, Action.IncFreq, 0.5)
        q.set(s2, Action.DecRec, 0.5)  # next-state row max
        q_update(q, s, Action.IncFreq, -1, s2, self.CFG)
        # 0.5 + 0.1 * (-1 + 0.95*0.5 - 0.5) = 0.3975
        assert q.get(s, Action.IncFreq) == pytest.approx(0.3975, abs=1e-12)

    def test_fixed_point_is_unchanged(self):
        q = QTable()
        s, s2 = ThresholdConfig(50, 50), ThresholdConfig(60, 50)
        q.set(s2, Action.NoOp, 1.0)
        q.set(s, Action.IncFreq, 0.95)  # = 0 + gamma * 1.0
        q_update(q, s, Action.IncFreq, 0, s2, self.CFG)
        assert q.get(s, Action.IncFreq) == pytest.approx(0.95, abs=1e-15)

    def test_touches_exactly_one_cell(self):
        q = QTable.random(np.random.default_rng(2))
        before = np.array(q.rows)
        s, s2 = ThresholdConfig(100, 150), ThresholdConfig(100, 160)
        q_update(q, s, Action.IncRec, 1, s2, self.CFG)
        diff = (np.array(q.rows) != before).nonzero()
        assert [idx.tolist() for idx in diff] == [[10], [15], [3]]

    def test_step_size_is_alpha_times_td_error(self):
        rng = np.random.default_rng(4)
        q = QTable.random(rng)
        for _ in range(50):
            s = ThresholdConfig(int(rng.integers(21)) * 10,
                                int(rng.integers(31)) * 10)
            s2 = ThresholdConfig(int(rng.integers(21)) * 10,
                                 int(rng.integers(31)) * 10)
            a = Action(int(rng.integers(5)))
            r = int(rng.integers(-1, 2))
            old = q.get(s, a)
            td = r + self.CFG.gamma * max(q.row(s2)) - old
            q_update(q, s, a, r, s2, self.CFG)
            assert q.get(s, a) - old == pytest.approx(self.CFG.alpha * td)

    def test_values_stay_bounded(self):
        # rewards lie in {-1,0,1}, so |Q| can never pass 1/(1-gamma) = 20
        rng = np.random.default_rng(8)
        q = QTable.random(rng)
        for _ in range(5000):
            s = ThresholdConfig(int(rng.integers(21)) * 10,
                                int(rng.integers(31)) * 10)
            s2 = ThresholdConfig(int(rng.integers(21)) * 10,
                                 int(rng.integers(31)) * 10)
            q_update(q, s, Action(int(rng.integers(5))),
                     int(rng.integers(-1, 2)), s2, self.CFG)
        assert np.abs(np.array(q.rows)).max() <= 21.0


class TestDecayEpsilon:
    def test_hand_values(self):
        assert decay_epsilon(1.0, 0, 100) == 1.0
        assert decay_epsilon(0.5, 50, 100) == pytest.approx(0.25)
        assert decay_epsilon(1.0, 99, 100) == pytest.approx(0.01)

    @pytest.mark.parametrize("step,budget", [(-1, 100), (100, 100), (101, 100)])
    def test_rejects_step_out_of_range(self, step, budget):
        with pytest.raises(ValueError):
            decay_epsilon(0.5, step, budget)

    def test_never_increases_or_goes_negative(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            eps = float(rng.uniform(0, 1))
            budget = int(rng.integers(1, 50))
            step = int(rng.integers(0, budget))
            out = decay_epsilon(eps, step, budget)
            assert 0.0 <= out <= eps


class TestInitQTable:
    def test_random_mode(self):
        a = init_qtable(9)
        b = init_qtable(9)
        c = init_qtable(10)
        assert a.rows == b.rows
        assert a.rows != c.rows
        values = np.array(a.rows)
        assert (values >= 0.0).all() and (values < 0.01).all()

    # SHA-256 of the table's bytes, as the earlier init_qtable("random",
    # seed=s) built it; the last seed is the harness's init stream of seed 0
    @pytest.mark.parametrize("seed, digest", [
        (0, "d67efea0c79689d9e55513654cdc613a7a8f5d912dfe31b4bf8876874294c89f"),
        (9, "1a6d35c2666b19a5d298825fe4c49f8d6823c502e5be56ff635f9bd378cc0135"),
        (np.random.SeedSequence(0).spawn(3)[1],
         "280da420a0b565789672e5abca13435a3efbd291e5045dc9ccd2713d86449a84"),
    ])
    def test_random_init_pinned(self, seed, digest):
        assert hashlib.sha256(np.array(init_qtable(seed).rows).tobytes()).hexdigest() == digest

    def test_no_training_sets_leave_the_random_table(self):
        env = FakeEnv(lambda f, r: 100 if (f, r) == (130, 0) else 50)
        q = init_qtable(9, (), env, AgentConfig(budget=20))
        assert env.calls == 0
        assert q.rows == init_qtable(9).rows

    def test_from_training_learns_something(self):
        # the landscape rewards the first move away from the start cell, so
        # training pushes at least one cell far above the random-init cap
        def landscape(f, r):
            return 100 if (f, r) == (130, 0) else 50

        sets = [ThresholdConfig(130, 0), ThresholdConfig(0, 300)]
        cfg = AgentConfig(budget=20)
        q1 = init_qtable(9, sets, FakeEnv(landscape), cfg)
        q2 = init_qtable(9, sets, FakeEnv(landscape), cfg)
        assert q1.rows == q2.rows
        assert q1.rows != init_qtable(9).rows
        assert np.array(q1.rows).max() > 0.01


class TestQTrain:
    def test_flat_landscape_hits_the_cap(self):
        env = FakeEnv(lambda f, r: 50)
        cfg = AgentConfig(budget=30)
        res = q_train(env, QTable(), cfg, ThresholdConfig(100, 100), stream(0))
        assert res.episodes_run == 30
        assert not res.goal_met
        assert len(res.trace) == 31
        assert res.best.best_overhead == 50
        assert all(row.reward == 0 for row in res.trace)

    def test_unreachable_goal_hits_the_cap(self):
        # best possible reduction is 0.9 < goal 0.999
        def landscape(f, r):
            return 100 if (f, r) == (130, 0) else 10

        cfg = AgentConfig(budget=40, goal_mu=0.999)
        res = q_train(FakeEnv(landscape), QTable(), cfg, ThresholdConfig(130, 0),
                      stream(0))
        assert res.episodes_run == 40
        assert not res.goal_met
        assert res.best.best_overhead == 10

    def test_stops_on_first_sufficient_improvement(self):
        overheads = iter([100] + [10] * 1000)
        env = FakeEnv(lambda f, r: next(overheads))
        cfg = AgentConfig(budget=50, goal_mu=0.4)
        res = q_train(env, QTable(), cfg, ThresholdConfig(130, 0), stream(0))
        assert res.episodes_run == 1
        assert res.goal_met
        assert len(res.trace) == 2
        assert res.trace[1].reward == 1
        assert res.trace[1].reduction == pytest.approx(0.9)
        assert res.best.best_overhead == 10
        assert env.calls == 2

    def test_zero_initial_overhead_returns_immediately(self):
        env = FakeEnv(lambda f, r: 0)
        res = q_train(env, QTable(), AgentConfig(), ThresholdConfig(0, 0),
                      stream(0))
        assert res.episodes_run == 0
        assert res.goal_met
        assert len(res.trace) == 1
        assert env.calls == 1

    def test_deterministic_given_rng_seed(self):
        def landscape(f, r):
            return 40 + abs(f - 70) // 10 + abs(r - 120) // 10

        cfg = AgentConfig(budget=25, goal_mu=0.9)
        runs = []
        for _ in range(2):
            res = q_train(FakeEnv(landscape), QTable(), cfg,
                          ThresholdConfig(130, 0), stream(21))
            runs.append(res)
        assert runs[0].trace == runs[1].trace
        assert runs[0].episodes_run == runs[1].episodes_run

    def test_best_tracks_minimum_of_trace(self):
        def landscape(f, r):
            return 40 + abs(f - 70) // 10 + abs(r - 120) // 10

        res = q_train(FakeEnv(landscape), QTable(),
                      AgentConfig(budget=60, goal_mu=0.9),
                      ThresholdConfig(130, 0), stream(2))
        assert res.best.best_overhead == min(r.overhead for r in res.trace)
        bt = res.best.best_thresholds
        assert landscape(bt.freq_threshold, bt.recentness_threshold) == \
            res.best.best_overhead

    def test_epsilon_trace_decays(self):
        env = FakeEnv(lambda f, r: 50)
        cfg = AgentConfig(budget=10, epsilon0=1.0, epsilon_decay=True)
        res = q_train(env, QTable(), cfg, ThresholdConfig(100, 100),
                      stream(0))
        eps = [row.epsilon for row in res.trace]
        # row 0 reports epsilon0; row k>=1 reports the value used at step k-1
        assert eps[0] == 1.0 and eps[1] == 1.0 and eps[2] == 1.0
        assert eps[3] == pytest.approx(1.0 * (1 - 1 / 10))
        assert all(b <= a for a, b in zip(eps[1:], eps[2:]))

    def test_epsilon_static_when_decay_disabled(self):
        env = FakeEnv(lambda f, r: 50)
        cfg = AgentConfig(budget=10, epsilon0=0.1, epsilon_decay=False)
        res = q_train(env, QTable(), cfg, ThresholdConfig(100, 100),
                      stream(0))
        assert all(row.epsilon == 0.1 for row in res.trace)

    @pytest.mark.parametrize("k", [1, 2, 7, 30])
    def test_failed_run_keeps_the_updates_made_before_it(self, k):
        # env.run call k (call 0 evaluates the initial state) raises, so the
        # run has learned steps 0 .. k-2: exactly what a run capped at k - 1
        # episodes learns (no decay, an unreachable goal)
        def landscape(f, r):
            return 40 + abs(f - 70) // 10 + abs(r - 120) // 10

        class FailingEnv(FakeEnv):
            def run(self, thresholds):
                if self.calls == k:
                    raise RuntimeError("episode %d failed" % k)
                return super().run(thresholds)

        def config(budget):
            return AgentConfig(epsilon0=0.3, budget=budget, goal_mu=0.99,
                               epsilon_decay=False)

        start = ThresholdConfig(130, 0)
        q = QTable.random(np.random.default_rng(3))
        with pytest.raises(RuntimeError, match="episode %d failed" % k):
            q_train(FailingEnv(landscape), q, config(40), start, stream(5))
        ref = QTable.random(np.random.default_rng(3))
        if k > 1:
            q_train(FakeEnv(landscape), ref, config(k - 1), start, stream(5))
            assert ref.rows != QTable.random(np.random.default_rng(3)).rows
        assert q.rows == ref.rows


class TestToyMdpConvergence:
    def test_q_learning_converges_to_optimal_values(self):
        states, actions, rewards, step, q_star = toy_mdp()
        cfg = AgentConfig()
        q = QTable()
        rng = np.random.default_rng(7)
        si = 0
        for _ in range(30_000):
            if rng.random() < 0.2:
                ai = int(rng.integers(2))
            else:
                ai = int(np.argmax([q.get(states[si], a) for a in actions]))
            sj = step(si, ai)
            r = int(rewards[si, ai])
            q_update(q, states[si], actions[ai], r, states[sj], cfg)
            si = sj
        learned = np.array(
            [[q.get(s, a) for a in actions] for s in states]
        )
        assert np.abs(learned - q_star).max() < 1e-3


# SHA-256 over every file a run writes (report CSV, .summary, .cfg, the
# saved Q-table, significance's sub-reports), by sorted file name, taken
# before the training loop walked grid indices. On the 8-entry reference
# the baseline is positive, so every run explores its full cap.
PINNED_TABULAR_BYTES = [
    (ExperimentConfig(mode="ql", seed=0, episodes_cap=200, goal_mu=0.97,
                      table_capacity_bits=8 * 356),
     "156ac7665e44584b035b080e6026684df167c419c4c6c00f8cdec7c375ef6df7"),
    (ExperimentConfig(mode="ql", seed=3, episodes_cap=200, goal_mu=0.97,
                      table_capacity_bits=8 * 356, qtable_init="random"),
     "965332bf17d4ef9e198271946bb81d5f11a2ecf0eaba4c81f4f89cfe1ca28975"),
    (ExperimentConfig(mode="significance", seed=5, episodes_cap=200, goal_mu=0.97,
                      table_capacity_bits=8 * 356),
     "2d130df22215fad7db652ac43690394ac4e3eff60f9d13d65df6ca10db235f24"),
]


@pytest.mark.parametrize("cfg,digest", PINNED_TABULAR_BYTES,
                         ids=["ql-from_training", "ql-random", "significance"])
def test_tabular_bytes_pinned(tmp_path, cfg, digest):
    save_policy = str(tmp_path / "policy.q") if cfg.mode == "ql" else None
    write_report(run_experiment(cfg, save_policy=save_policy), str(tmp_path / "report.csv"))
    h = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    assert h.hexdigest() == digest
