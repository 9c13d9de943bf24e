"""Where the traced round wraps flowrl, and the per-layer metrics it
derives from the spans.

The layers are the package's modules. A span is named after the function
it wraps and the module that defines it (``model.select_rules``), so its
layer is the first part of its name. Each function is wrapped at every
module attribute that its callers look up: ``EpisodeEnv.run`` calls
``flowrl.harness.select_rules``, not ``flowrl.model.select_rules``.
"""

import statistics

from flowrl import baselines, cli, dqn, harness, model, qlearn, simnet, traffic

LAYERS = ("traffic", "model", "simnet", "harness", "qlearn", "dqn", "baselines", "cli")

# name -> (unit, better) for every metric that per_layer returns
METRICS = {
    "traffic.generate_schedule_s": ("s", "lower"),
    "traffic.flows": ("count", "lower"),
    "traffic.packets_for_tick_calls": ("count", "lower"),
    "traffic.packets_for_tick_s": ("s", "lower"),
    "traffic.self_s": ("s", "lower"),
    "model.select_rules_calls": ("count", "lower"),
    "model.select_rules_s": ("s", "lower"),
    "model.self_s": ("s", "lower"),
    "simnet.run_orchestration_s": ("s", "lower"),
    "simnet.run_episode_calls": ("count", "lower"),
    "simnet.run_episode_s": ("s", "lower"),
    "simnet.episode_ms": ("ms", "lower"),
    "simnet.self_s": ("s", "lower"),
    "harness.build_eval_schedule_s": ("s", "lower"),
    "harness.env_run_calls": ("count", "lower"),
    "harness.env_cache_hits": ("count", "higher"),
    "harness.cache_hit_ratio": ("ratio", "higher"),
    "harness.write_report_s": ("s", "lower"),
    "harness.report_bytes": ("bytes", "lower"),
    "harness.episodes_to_goal": ("episodes", "lower"),
    "harness.exchanges_saved": ("exchanges", "higher"),
    "harness.self_s": ("s", "lower"),
    "qlearn.train_runs": ("count", "lower"),
    "qlearn.steps": ("count", "lower"),
    "qlearn.self_s": ("s", "lower"),
    "qlearn.step_us": ("us", "lower"),
    "dqn.train_runs": ("count", "lower"),
    "dqn.steps": ("count", "lower"),
    "dqn.self_s": ("s", "lower"),
    "dqn.sgd_steps": ("count", "lower"),
    "dqn.sgd_step_s": ("s", "lower"),
    "dqn.sgd_step_us": ("us", "lower"),
    "dqn.snapshots": ("count", "lower"),
    "dqn.snapshot_s": ("s", "lower"),
    "dqn.replay_samples": ("count", "lower"),
    "baselines.mbf_episode_s": ("s", "lower"),
    "baselines.mbf_installs": ("count", "lower"),
    "baselines.mbf_evictions": ("count", "lower"),
    "baselines.mbf_importance_calls": ("count", "lower"),
    "baselines.knapsack_s": ("s", "lower"),
    "baselines.knapsack_cells": ("count", "lower"),
    "baselines.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "bench.self_s": ("s", "lower"),
    "trace.layer_self_sum_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def sites():
    """(owner, attribute, span name) for every wrapped lookup."""
    return [
        (cli, "main", "cli.main"),
        (cli, "load_config", "harness.load_config"),
        (cli, "run_experiment", "harness.run_experiment"),
        (cli, "write_report", "harness.write_report"),
        (harness, "write_report", "harness.write_report"),
        (harness, "build_eval_schedule", "harness.build_eval_schedule"),
        (harness.EpisodeEnv, "run", "harness.EpisodeEnv.run"),
        (harness, "generate_schedule", "traffic.generate_schedule"),
        (traffic, "generate_schedule", "traffic.generate_schedule"),
        (simnet, "packets_for_tick", "traffic.packets_for_tick"),
        (baselines, "packets_for_tick", "traffic.packets_for_tick"),
        (harness, "select_rules", "model.select_rules"),
        (harness, "run_orchestration", "simnet.run_orchestration"),
        (simnet, "run_orchestration", "simnet.run_orchestration"),
        (harness, "run_episode", "simnet.run_episode"),
        (harness, "init_qtable", "qlearn.init_qtable"),
        (harness, "q_train", "qlearn.q_train"),
        (qlearn, "q_train", "qlearn.q_train"),
        (harness, "init_mlp", "dqn.init_mlp"),
        (harness, "dqn_train", "dqn.dqn_train"),
        (dqn, "dqn_train", "dqn.dqn_train"),
        (dqn, "sgd_step", "dqn.sgd_step"),
        (dqn.Mlp, "copy", "dqn.Mlp.copy"),
        (dqn.ReplayMemory, "sample", "dqn.ReplayMemory.sample"),
        (harness, "run_mbf_episode", "baselines.run_mbf_episode"),
        (harness, "knapsack_exact", "baselines.knapsack_exact"),
        (baselines, "mbf_importance", "baselines.mbf_importance"),
        # a miss in the MBF episode installs a new FlowRule and, on a full
        # table, removes the victim; nothing else in the package removes
        (baselines, "FlowRule", "model.FlowRule"),
        (model.FlowTable, "remove", "model.FlowTable.remove"),
    ]


def layer_of(span_name):
    return span_name.split(".", 1)[0]


def per_layer(tracer, reports):
    """Per-layer metrics of one traced pass.

    reports holds the pass's deterministic figures, summed over its
    experiment seeds: report bytes, episodes to goal, exchanges saved,
    generated flows and knapsack cells.
    """
    spans = tracer.summary()

    def calls(name):
        return spans[name]["calls"] if name in spans else 0

    def total(name):
        return spans[name]["total_s"] if name in spans else 0.0

    def median_of(name, scale):
        if name not in spans or not spans[name]["calls"]:
            return 0.0
        return statistics.median(spans[name]["durations"].tolist()) * scale

    self_by_layer = dict.fromkeys(LAYERS + ("bench",), 0.0)
    for name, stats in spans.items():
        self_by_layer[layer_of(name)] += stats["self_s"]

    env_runs = calls("harness.EpisodeEnv.run")
    misses = tracer.children_named("harness.EpisodeEnv.run", "simnet.run_episode")
    q_runs = calls("qlearn.q_train")
    q_steps = tracer.child_count("qlearn.q_train", "harness.EpisodeEnv.run") - q_runs
    d_runs = calls("dqn.dqn_train")
    d_steps = tracer.child_count("dqn.dqn_train", "harness.EpisodeEnv.run") - d_runs

    m = {
        "traffic.generate_schedule_s": total("traffic.generate_schedule"),
        "traffic.flows": reports["flows"],
        "traffic.packets_for_tick_calls": calls("traffic.packets_for_tick"),
        "traffic.packets_for_tick_s": total("traffic.packets_for_tick"),
        "model.select_rules_calls": calls("model.select_rules"),
        "model.select_rules_s": total("model.select_rules"),
        "simnet.run_orchestration_s": total("simnet.run_orchestration"),
        "simnet.run_episode_calls": calls("simnet.run_episode"),
        "simnet.run_episode_s": total("simnet.run_episode"),
        "simnet.episode_ms": median_of("simnet.run_episode", 1e3),
        "harness.build_eval_schedule_s": total("harness.build_eval_schedule"),
        "harness.env_run_calls": env_runs,
        "harness.env_cache_hits": env_runs - misses,
        "harness.cache_hit_ratio": (env_runs - misses) / env_runs if env_runs else 0.0,
        "harness.write_report_s": total("harness.write_report"),
        "harness.report_bytes": reports["bytes"],
        "harness.episodes_to_goal": reports["episodes_to_goal"],
        "harness.exchanges_saved": reports["exchanges_saved"],
        "qlearn.train_runs": q_runs,
        "qlearn.steps": q_steps,
        "qlearn.self_s": self_by_layer["qlearn"],
        "qlearn.step_us": self_by_layer["qlearn"] / q_steps * 1e6 if q_steps else 0.0,
        "dqn.train_runs": d_runs,
        "dqn.steps": d_steps,
        "dqn.self_s": self_by_layer["dqn"],
        "dqn.sgd_steps": calls("dqn.sgd_step"),
        "dqn.sgd_step_s": total("dqn.sgd_step"),
        "dqn.sgd_step_us": median_of("dqn.sgd_step", 1e6),
        "dqn.snapshots": calls("dqn.Mlp.copy"),
        "dqn.snapshot_s": total("dqn.Mlp.copy"),
        "dqn.replay_samples": calls("dqn.ReplayMemory.sample"),
        "baselines.mbf_episode_s": total("baselines.run_mbf_episode"),
        "baselines.mbf_installs": calls("model.FlowRule"),
        "baselines.mbf_evictions": calls("model.FlowTable.remove"),
        "baselines.mbf_importance_calls": calls("baselines.mbf_importance"),
        "baselines.knapsack_s": total("baselines.knapsack_exact"),
        "baselines.knapsack_cells": reports["knapsack_cells"],
        "cli.self_s": self_by_layer["cli"],
        "bench.self_s": self_by_layer["bench"],
        "trace.spans": len(tracer.span_start),
    }
    for layer in ("traffic", "model", "simnet", "harness", "baselines"):
        m[layer + ".self_s"] = self_by_layer[layer]
    m["trace.layer_self_sum_s"] = sum(self_by_layer[layer] for layer in LAYERS)
    return m
