"""Output checks computed apart from the program.

Every expected value here is recomputed from the program's inputs (the
observed flow pool and the evaluation schedule) with the rules the
package documents, not with the package's own functions. Each check
returns a list of problems; an empty list means the output passed.
"""

import csv
import hashlib
import math
from fractions import Fraction

import numpy as np

ENTRY_BITS = 356
GRID_STEP = 10
N_FREQ = 21
N_REC = 31


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_summary(path):
    """A report's .summary file as a dict of strings."""
    with open(path) as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if line.strip())


def read_rows(path):
    """A report's per-episode CSV rows as dicts of strings."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def eval_packets(eval_schedule):
    """Per-flow packet totals of the evaluation episode: the sum of
    ceil(size / packet_size) over the flow's entries in the schedule."""
    packet_size = eval_schedule.profile.packet_size
    packets = {}
    for f in eval_schedule.flows:
        packets[f.id] = packets.get(f.id, 0) + (f.size + packet_size - 1) // packet_size
    return packets


def landscape(pool, packets, capacity_bits, window_close, param_mode="both"):
    """Overhead of every grid cell, as a (21, 31) int array indexed by
    (freq_threshold / 10, recentness_threshold / 10).

    A flow is eligible when freq >= the frequency threshold OR
    window_close - last_seen <= the recentness threshold (param_mode
    drops one branch). The placement is the first capacity_bits // 356
    eligible flows ranked by freq descending, recentness ascending, then
    FlowId. A cell's overhead is every evaluation packet minus the packets
    of the placed flows.
    """
    ranked = sorted(
        pool.records.items(),
        key=lambda item: (-item[1].freq, window_close - item[1].last_seen, item[0]),
    )
    freq = np.array([rec.freq for _, rec in ranked], dtype=np.int64)
    recent = np.array([window_close - rec.last_seen for _, rec in ranked], dtype=np.int64)
    placed_packets = np.array([packets.get(fid, 0) for fid, _ in ranked], dtype=np.int64)
    total = sum(packets.values())
    limit = capacity_bits // ENTRY_BITS
    use_freq = param_mode in ("both", "freq_only")
    use_rec = param_mode in ("both", "recentness_only")
    out = np.empty((N_FREQ, N_REC), dtype=np.int64)
    for fi in range(N_FREQ):
        by_freq = freq >= fi * GRID_STEP if use_freq else np.zeros(len(freq), bool)
        for ri in range(N_REC):
            eligible = by_freq | (recent <= ri * GRID_STEP) if use_rec else by_freq
            placed = eligible & (np.cumsum(eligible) <= limit)
            out[fi, ri] = total - int(placed_packets[placed].sum())
    return out


def oracle_objective(packets, capacity_bits):
    """Best static placement for equal-size rules: every packet minus the
    capacity_bits // 356 largest per-flow packet totals."""
    totals = sorted(packets.values(), reverse=True)
    return sum(totals) - sum(totals[: capacity_bits // ENTRY_BITS])


def check_conservation(label, episodes, expected_total):
    """hits + misses must equal every evaluation packet, in each episode."""
    problems = []
    for i, (hits, misses) in enumerate(episodes):
        if hits + misses != expected_total:
            problems.append(
                "%s: episode %d has %d hits + %d misses != %d packets"
                % (label, i, hits, misses, expected_total)
            )
    return problems


def check_oracle(label, objective, packets, capacity_bits):
    expected = oracle_objective(packets, capacity_bits)
    if objective != expected:
        return ["%s: oracle objective %d != closed form %d" % (label, objective, expected)]
    return []


def check_sweep(label, cells, land, oracle):
    """cells maps (freq, rec) thresholds to the program's overheads."""
    problems = []
    for (f, r), overhead in cells.items():
        expected = int(land[f // GRID_STEP, r // GRID_STEP])
        if overhead != expected:
            problems.append(
                "%s: cell (%d, %d) overhead %d != recomputed %d" % (label, f, r, overhead, expected)
            )
        if overhead < oracle:
            problems.append(
                "%s: cell (%d, %d) overhead %d < oracle %d" % (label, f, r, overhead, oracle)
            )
    return problems


def check_mbf(label, summary, packets):
    problems = check_conservation(
        label, [(int(summary["hits"]), int(summary["misses"]))], sum(packets.values())
    )
    misses = int(summary["misses"])
    distinct = sum(1 for n in packets.values() if n > 0)
    if misses < distinct:
        problems.append(
            "%s: %d misses < %d distinct flows on an empty table" % (label, misses, distinct)
        )
    if int(summary["overhead"]) != misses:
        problems.append("%s: overhead %s != misses %d" % (label, summary["overhead"], misses))
    return problems


def check_training(label, summary, rows, land, oracle, goal_mu, cap, expected_total):
    """One training run's summary and per-episode rows.

    rows are the report's CSV rows (episodes 1..n; the initial-state
    evaluation is only in the summary), as dicts of strings.
    """
    problems = []
    initial = int(summary["initial_overhead"])
    best = int(summary["best_overhead"])
    overheads = [int(row["overhead"]) for row in rows]

    def bad(msg, *args):
        problems.append("%s: %s" % (label, msg % args))

    if best != min([initial] + overheads):
        bad("best_overhead %d is not the minimum of the run's overheads", best)
    if best < oracle:
        bad("best_overhead %d < oracle %d", best, oracle)
    cell = land[int(summary["best_freq_thr"]) // GRID_STEP, int(summary["best_rec_thr"]) // GRID_STEP]
    if best != int(cell):
        bad("best_overhead %d != recomputed %d at the best thresholds", best, cell)

    reduction = Fraction(initial - best, initial) if initial else Fraction(0)
    if summary["reduction"] != "%.6f" % float(reduction):
        bad("reduction %s != (initial - best) / initial = %.6f", summary["reduction"], float(reduction))
    goal_met = initial == 0 or reduction > Fraction(goal_mu)
    if summary["goal_met"] != ("true" if goal_met else "false"):
        bad("goal_met %s but reduction %.6f vs mu %r", summary["goal_met"], float(reduction), goal_mu)

    episodes = len(rows)
    if int(summary["episodes_run"]) != episodes:
        bad("episodes_run %s != %d rows", summary["episodes_run"], episodes)
    if not goal_met and episodes != cap:
        bad("stopped after %d episodes without the goal (cap %d)", episodes, cap)
    if int(summary["episodes_to_goal"]) != (episodes if goal_met else cap):
        bad("episodes_to_goal %s inconsistent with %d episodes", summary["episodes_to_goal"], episodes)

    running = initial
    for row in rows:
        f = int(row["freq_thr"])
        r = int(row["rec_thr"])
        overhead = int(row["overhead"])
        expected = int(land[f // GRID_STEP, r // GRID_STEP])
        if overhead != expected:
            bad("episode %s at (%d, %d) overhead %d != recomputed %d", row["episode"], f, r, overhead, expected)
        reward = 1 if overhead < running else (-1 if overhead > running else 0)
        if int(row["reward"]) != reward:
            bad("episode %s reward %s != %d against best %d", row["episode"], row["reward"], reward, running)
        running = min(running, overhead)
    problems.extend(
        check_conservation(
            label, [(int(row["hits"]), int(row["misses"])) for row in rows], expected_total
        )
    )
    return problems


def check_significance(label, summary, reductions):
    """The comparative summary against its sub-runs; reductions maps each
    parameter mode to (initial - best, initial)."""
    exact = {pm: Fraction(saved, initial) if initial else Fraction(0)
             for pm, (saved, initial) in reductions.items()}
    problems = []
    for pm, value in exact.items():
        if summary["reduction_" + pm] != "%.6f" % float(value):
            problems.append("%s: reduction_%s %s != %.6f"
                            % (label, pm, summary["reduction_" + pm], float(value)))
    dominates = exact["both"] > max(exact["freq_only"], exact["recentness_only"])
    if summary["both_dominates"] != ("true" if dominates else "false"):
        problems.append("%s: both_dominates %s inconsistent with the reductions"
                        % (label, summary["both_dominates"]))
    return problems


def check_network(label, path, layer_sizes=(4, 24, 24, 24, 5)):
    """A saved network: the layer-size header, then one finite value per
    weight and bias."""
    with open(path) as fh:
        header = fh.readline().strip()
        values = [float(line) for line in fh if line.strip()]
    problems = []
    sizes = tuple(int(n) for n in header.split(","))
    if sizes != tuple(layer_sizes):
        problems.append("%s: layer sizes %s != %s" % (label, sizes, layer_sizes))
    expected = sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))
    if len(values) != expected:
        problems.append("%s: %d parameters, expected %d" % (label, len(values), expected))
    if not all(math.isfinite(v) for v in values):
        problems.append("%s: non-finite parameters after training" % label)
    return problems


def check_digests(label, first, again):
    """Report files of a repeated round must be byte-identical."""
    problems = []
    for name in sorted(set(first) | set(again)):
        if first.get(name) != again.get(name):
            problems.append("%s: %s differs between rounds" % (label, name))
    return problems
