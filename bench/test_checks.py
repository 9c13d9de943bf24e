"""Each output check must bind: it passes the program's real output and
fails the same output off by one.

    python3 -m pytest bench/test_checks.py
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from flowrl import harness, simnet, traffic  # noqa: E402
from flowrl.model import FREQ_GRID, REC_GRID, ThresholdConfig  # noqa: E402

TABLE_BITS = 8 * 356
MU = 0.97
CAP = 60


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Reference traffic at seed 0 against an 8-entry table, with the
    program's sweep, oracle, MBF and ql reports."""
    tmp = tmp_path_factory.mktemp("reports")
    cfg = harness.ExperimentConfig(seed=0, table_capacity_bits=TABLE_BITS)
    schedule = traffic.generate_schedule(cfg.traffic, 60, cfg.n_hosts, 0)
    pool = simnet.run_orchestration(schedule, 60)
    eval_schedule = harness.build_eval_schedule(schedule, 60, cfg.replay_lag)
    env = harness.EpisodeEnv(pool, eval_schedule, TABLE_BITS, 60)
    packets = checks.eval_packets(eval_schedule)
    reports = {}
    for mode, extra in (("oracle", {}), ("mbf", {}),
                        ("ql", {"episodes_cap": CAP, "goal_mu": MU}),
                        ("dqn", {"episodes_cap": 5, "goal_mu": MU, "qtable_init": "random"})):
        run_cfg = harness.ExperimentConfig(seed=0, table_capacity_bits=TABLE_BITS, mode=mode, **extra)
        out = str(tmp / (mode + ".csv"))
        policy = str(tmp / (mode + ".policy"))
        report = harness.run_experiment(run_cfg, save_policy=policy if mode == "dqn" else None)
        harness.write_report(report, out)
        reports[mode] = out
    return {
        "packets": packets,
        "total": sum(packets.values()),
        "land": checks.landscape(pool, packets, TABLE_BITS, 60),
        "oracle": checks.oracle_objective(packets, TABLE_BITS),
        "cells": {(f, r): env.run(ThresholdConfig(f, r)).overhead for f in FREQ_GRID for r in REC_GRID},
        "reports": reports,
        "net": str(tmp / "dqn.policy"),
    }


def test_landscape_is_not_degenerate(world):
    assert 0 < world["oracle"] < world["land"].min() < world["land"].max()


def test_sweep_cell_off_by_one(world):
    cells = dict(world["cells"])
    assert checks.check_sweep("sweep", cells, world["land"], world["oracle"]) == []
    for delta in (1, -1):
        cells[(130, 0)] = world["cells"][(130, 0)] + delta
        assert checks.check_sweep("sweep", cells, world["land"], world["oracle"])


def test_sweep_cell_below_oracle(world):
    land = world["land"].copy()
    cells = dict(world["cells"])
    cells[(0, 0)] = land[0, 0] = world["oracle"] - 1
    problems = checks.check_sweep("sweep", cells, land, world["oracle"])
    assert any("< oracle" in p for p in problems)


def test_oracle_objective_off_by_one(world):
    summary = checks.read_summary(world["reports"]["oracle"] + ".summary")
    objective = int(summary["objective"])
    assert checks.check_oracle("oracle", objective, world["packets"], TABLE_BITS) == []
    assert checks.check_oracle("oracle", objective + 1, world["packets"], TABLE_BITS)
    assert checks.check_oracle("oracle", objective - 1, world["packets"], TABLE_BITS)


def test_mbf_miss_count_off_by_one(world):
    summary = checks.read_summary(world["reports"]["mbf"] + ".summary")
    assert checks.check_mbf("mbf", summary, world["packets"]) == []
    fewer = dict(summary, misses=str(int(summary["misses"]) - 1))
    assert checks.check_mbf("mbf", fewer, world["packets"])


def test_mbf_misses_below_distinct_flows(world):
    distinct = sum(1 for n in world["packets"].values() if n > 0)
    misses = distinct - 1
    hits = world["total"] - misses
    summary = {"hits": str(hits), "misses": str(misses), "overhead": str(misses)}
    problems = checks.check_mbf("mbf", summary, world["packets"])
    assert problems and all("distinct" in p for p in problems)


def training(world):
    out = world["reports"]["ql"]
    return checks.read_summary(out + ".summary"), checks.read_rows(out)


def test_training_run_passes(world):
    summary, rows = training(world)
    assert len(rows) == CAP
    assert checks.check_training(
        "ql", summary, rows, world["land"], world["oracle"], MU, CAP, world["total"]
    ) == []


def test_best_overhead_not_the_trace_minimum(world):
    summary, rows = training(world)
    for delta in (1, -1):
        bad = dict(summary, best_overhead=str(int(summary["best_overhead"]) + delta))
        problems = checks.check_training(
            "ql", bad, rows, world["land"], world["oracle"], MU, CAP, world["total"]
        )
        assert any("not the minimum" in p for p in problems)


def test_episode_overhead_off_by_one(world):
    summary, rows = training(world)
    rows = [dict(row) for row in rows]
    rows[5]["overhead"] = str(int(rows[5]["overhead"]) + 1)
    assert checks.check_training(
        "ql", summary, rows, world["land"], world["oracle"], MU, CAP, world["total"]
    )


def test_goal_met_flag_must_follow_mu(world):
    summary, rows = training(world)
    flipped = dict(summary, goal_met="true")
    assert checks.check_training(
        "ql", flipped, rows, world["land"], world["oracle"], MU, CAP, world["total"]
    )


def test_network_must_be_finite(world, tmp_path):
    assert checks.check_network("dqn", world["net"]) == []
    with open(world["net"]) as fh:
        lines = fh.readlines()
    lines[7] = "nan\n"
    broken = tmp_path / "broken.net"
    broken.write_text("".join(lines))
    assert checks.check_network("dqn", str(broken))


def test_flipped_report_byte(world, tmp_path):
    source = world["reports"]["ql"]
    copy = tmp_path / "ql.csv"
    data = bytearray(open(source, "rb").read())
    copy.write_bytes(bytes(data))
    first = {"ql.csv": checks.sha256(source)}
    assert checks.check_digests("round", first, {"ql.csv": checks.sha256(str(copy))}) == []
    data[len(data) // 2] ^= 1
    copy.write_bytes(bytes(data))
    assert checks.check_digests("round", first, {"ql.csv": checks.sha256(str(copy))})
