"""Checked-in mutants: each entry is a deliberate fault that one named test
must catch. tests/test_mutants.py applies each to a copy of src/ and runs
its test there.

An entry is (name, file under src/flowrl, exact text, replacement, test
id). The text must occur exactly once in the file, so a refactor that
moves it has to update the entry. Keep each test id cheap: a test that
fails on an explicit example, not one that only a timeout catches.
"""

MUTANTS = [
    # the closed-form landscape and the pool ranking
    ("landscape-prefix-excludes-freq-ties", "model.py",
     'side="right"',
     'side="left"',
     "tests/test_landscape.py::test_every_cell_equals_packet_replay"),
    ("landscape-head-not-clamped-to-limit", "model.py",
     'head = np.minimum(prefix * (param_mode != "recentness_only"), limit)',
     'head = prefix * (param_mode != "recentness_only")',
     "tests/test_landscape.py::test_every_cell_equals_packet_replay"),
    ("landscape-run-past-the-column-end", "model.py",
     "np.minimum(count[at_head] + (limit - head)[:, None], count[cols + n])",
     "count[at_head] + (limit - head)[:, None]",
     "tests/test_landscape.py::test_every_cell_equals_packet_replay"),
    ("landscape-prefix-under-recentness-only", "model.py",
     'prefix * (param_mode != "recentness_only")',
     "prefix",
     "tests/test_landscape.py::test_every_cell_equals_packet_replay"),
    ("rank-recentness-reversed", "model.py",
     "np.lexsort((*ids[::-1], recentness, -freq))",
     "np.lexsort((*ids[::-1], -recentness, -freq))",
     "tests/test_landscape.py::test_every_cell_equals_packet_replay"),
    ("read-bound-at-the-bound", "model.py",
     "if len(text) > MAX_TEXT_CHARS:",
     "if len(text) >= MAX_TEXT_CHARS:",
     "tests/test_model.py::test_loader_reads_at_most_max_text_chars[load_config]"),
    # the closed-form orchestration
    ("last-seen-at-window", "simnet.py",
     "np.minimum(window - 1, last_emission_tick(starts, totals, rate))",
     "np.minimum(window, last_emission_tick(starts, totals, rate))",
     "tests/test_simnet.py::test_closed_form_orchestration_equals_replay"),
    ("last-seen-one-tick-early", "simnet.py",
     "np.minimum(window - 1, last_emission_tick(starts, totals, rate))",
     "np.minimum(window - 1, last_emission_tick(starts, totals, rate) - 1)",
     "tests/test_simnet.py::test_closed_form_orchestration_equals_replay"),
    # the evaluation schedule from columns, against the per-flow reference
    ("eval-replay-tick-one-late", "harness.py",
     "replay_at = last_emission_tick(starts, totals, rate) + min(replay_lag, window)",
     "replay_at = last_emission_tick(starts, totals, rate) + 1 + min(replay_lag, window)",
     "tests/test_columns.py::test_columnar_build_equals_per_flow_reference"),
    ("eval-lag-not-clamped", "harness.py",
     "min(replay_lag, window)",
     "replay_lag",
     "tests/test_columns.py::test_columnar_build_equals_per_flow_reference"),
    ("eval-drained-flow-kept", "harness.py",
     "draining = remaining > 0",
     "draining = remaining >= 0",
     "tests/test_columns.py::test_columnar_build_equals_per_flow_reference"),
    ("eval-order-without-flowid", "harness.py",
     "key=lambda i: (start_of[i], ids[i])",
     "key=lambda i: start_of[i]",
     "tests/test_columns.py::test_columnar_build_equals_per_flow_reference"),
    ("rate-cap-dropped", "traffic.py",
     "min(round(self.per_flow_rate / (self.packet_size * 8)), MAX_FLOW_PACKETS)",
     "round(self.per_flow_rate / (self.packet_size * 8))",
     "tests/test_columns.py::test_columnar_build_equals_per_flow_reference"),
    # the MBF episode
    ("mbf-heap-kept-across-ticks", "baselines.py",
     "        heap = None\n",
     "        heap = heap if tick else None\n",
     "tests/test_baselines.py::test_mbf_episode_equals_naive_reference"),
    ("mbf-install-not-pushed", "baselines.py",
     "heapq.heappush(heap, victim_key(fid))",
     "pass",
     "tests/test_baselines.py::test_mbf_episode_equals_naive_reference"),
    ("mbf-flow-leaves-one-tick-early", "baselines.py",
     "active = [flow for flow in active if flow[1] > tick]",
     "active = [flow for flow in active if flow[1] > tick + 1]",
     "tests/test_baselines.py::test_mbf_episode_equals_naive_reference"),
    ("mbf-key-install-time-and-id-swapped", "baselines.py",
     "(mbf_importance(state, fid), table.entries[fid].install_time, fid)",
     "(mbf_importance(state, fid), fid, table.entries[fid].install_time)",
     "tests/test_baselines.py::test_mbf_episode_equals_naive_reference"),
    ("mbf-last-tick-at-full-rate", "baselines.py",
     "rate if tick < last else last_count",
     "rate",
     "tests/test_baselines.py::test_mbf_episode_equals_naive_reference"),
    ("mbf-run-to-emission-extent", "baselines.py",
     "duration = schedule.horizon",
     "duration = __import__('flowrl.traffic').traffic.emission_extent(schedule)",
     "tests/test_baselines.py::test_mbf_episode_equals_naive_reference"),
    # the oracle
    ("topk-zero-tail-kept", "baselines.py",
     "chosen = [i for i in chosen if i <= last]",
     "chosen = list(chosen)",
     "tests/test_baselines.py::TestKnapsackTopK::test_hand_cases[values4-1780-on_switch4-0]"),
    # the schedule's host and port draws
    ("below-high-half-first", "traffic.py",
     "            yield word & 0xFFFFFFFF\n"
     "            yield word >> 32\n",
     "            yield word >> 32\n"
     "            yield word & 0xFFFFFFFF\n",
     "tests/test_traffic.py::test_uniform_below_equals_generator_integers"),
    ("below-range-of-one-takes-a-word", "traffic.py",
     "if n == 1:",
     "if False:",
     "tests/test_traffic.py::test_schedule_pinned[contended-2-0]"),
    ("below-no-redraw-after-rejection", "traffic.py",
     "threshold = (2**32 - n) % n",
     "threshold = 0",
     "tests/test_traffic.py::test_uniform_below_equals_generator_integers"),
    ("below-spare-half-dropped-between-flows", "traffic.py",
     "        is_elephant = rng.random() < profile.elephant_fraction\n",
     "        is_elephant = rng.random() < profile.elephant_fraction\n"
     "        below = uniform_below(rng)\n",
     "tests/test_traffic.py::test_schedule_pinned[contended-2-0]"),
    # input bounds
    ("flow-packet-bound-removed", "traffic.py",
     "if total_packets(max(self.mice_size, self.elephant_size),",
     "if False and total_packets(max(self.mice_size, self.elephant_size),",
     "tests/test_traffic.py::TestTrafficProfile::test_flow_packet_bound[mice_size]"),
    ("schedule-flow-packet-bound-removed", "traffic.py",
     "if max(packets, default=0) > MAX_FLOW_PACKETS:",
     "if False:",
     "tests/test_traffic.py::TestFlowSchedule::test_rejects_flow_above_max_flow_packets"),
    ("episode-bound-removed", "harness.py",
     "if (self.n_training_sets + 1) * self.episodes_cap > MAX_EPISODES:",
     "if False:",
     "tests/test_harness.py::TestLoadConfig::test_episode_bound"),
    # the training loop and the tabular learner
    ("eps-used-after-decay", "qlearn.py",
     "        eps_used = eps\n"
     "        if decay:\n"
     "            eps = eps * (1.0 - step / budget)  # decay_epsilon\n",
     "        if decay:\n"
     "            eps = eps * (1.0 - step / budget)  # decay_epsilon\n"
     "        eps_used = eps\n",
     "tests/test_train_loop.py::test_index_walk_matches_public_function_loop"),
    ("tabular-target-from-the-current-row", "qlearn.py",
     "max(self.rows[nfi][nri])",
     "max(self.rows[fi][ri])",
     "tests/test_train_loop.py::test_index_walk_matches_public_function_loop"),
    # the DQN learn step
    ("dqn-targets-inside-the-step-loop", "dqn.py",
     "            targets = [dqn_target(e, net) for e in batch]\n"
     "            for e, target in zip(batch, targets):\n"
     "                sgd_step(net, e.s, e.a, target, LEARNING_RATE)\n",
     "            for e in batch:\n"
     "                sgd_step(net, e.s, e.a, dqn_target(e, net), LEARNING_RATE)\n",
     "tests/test_dqn.py::test_lean_learn_matches_snapshot_copy"),
    ("dqn-learns-one-store-late", "dqn.py",
     "if len(memory) >= REPLAY_START:",
     "if len(memory) > REPLAY_START:",
     "tests/test_dqn.py::TestDqnTrain::test_first_sgd_step_on_the_replay_start_store"),
    ("replay-sample-with-replacement", "dqn.py",
     "replace=False",
     "replace=True",
     "tests/test_dqn.py::TestReplayMemory::test_exhaustive_sample"),
]
