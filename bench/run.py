"""flowrl benchmark: one workload, one seed, one process with one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports flowrl from ./src.
The seed N names the workload's experiment seeds N*K .. N*K+K-1 (K is the
workload's `subseeds`). A pass runs one round per experiment seed: it sets
up the environment several times, sweeps all 651 threshold cells on a
fresh environment, and runs the workload's modes through
``flowrl.cli.main`` with generated config files, checking every output
against computations made apart from the program (see checks.py).

An untraced run makes passes while another fits in --seconds (at least
one) and reports each end-to-end time as the mean over the experiment
seeds of the seed's median sample. A traced run makes one untraced pass,
then one traced pass, and reports the per-layer metrics of the traced
one. The last line of standard output is the JSON result.
"""

import os

# numpy reads these when it is imported: one BLAS thread on a 2-core host
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass

import checks
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join("bench", "out")

# environment set-ups per round; setup_s is their median
SETUPS_PER_ROUND = 5

# calibration_kernel's time on a 2-core 2.0 GHz host in a fast phase
CALIBRATION_NOMINAL_S = 0.001

END_TO_END = {
    "setup_s": "s",
    "significance_s": "s",
    "ql_s": "s",
    "dqn_s": "s",
    "mbf_s": "s",
    "oracle_s": "s",
    "sweep_s": "s",
    "peak_rss_mb": "MB",
}

PARAM_MODES = ("freq_only", "recentness_only", "both")


def die(message):
    print("bench: %s" % message, file=sys.stderr)
    sys.exit(2)


def import_flowrl():
    if not os.path.isfile(os.path.join(SRC, "flowrl", "__init__.py")):
        die("no flowrl sources at %s; run from a source checkout" % SRC)
    sys.path.insert(0, SRC)
    import flowrl

    if os.path.dirname(os.path.dirname(os.path.abspath(flowrl.__file__))) != SRC:
        die("imported flowrl from %s, not from the checkout" % flowrl.__file__)


@dataclass(frozen=True, order=True)
class _Key:
    a: int
    b: int


def calibration_kernel():
    """A fixed piece of interpreter work like the package's own: frozen
    dataclass keys (hashed in Python, as FlowId is), dict updates and
    lookups, and a keyed sort. Of the kernels tried it tracked the host's
    speed swings best: it cut the spread of back-to-back samples of a
    sweep row, an MBF run and a tabular run from 0.22-0.37 to under 0.09,
    where a dict of int tuples only reached 0.15-0.17."""
    keys = [_Key(i % 97, i % 89) for i in range(300)]
    table = {}
    for key in keys:
        table[key] = table.get(key, 0) + 1
    hits = 0
    for _ in range(5):
        for key in keys:
            if key in table:
                hits += 1
    ranked = sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
    return hits + len(ranked)


def write_config(path, settings):
    with open(path, "w", newline="\n") as fh:
        for key, value in settings.items():
            fh.write("%s=%s\n" % (key, value))


class Run:
    """What one benchmark run accumulates, keyed by experiment seed.

    Times are kept in nominal seconds: each raw time is scaled by
    CALIBRATION_NOMINAL_S over the mean time of calibration_kernel run
    twice just before and twice just after the operation. This host's
    speed swings by up to 2.3x within seconds, and every time moves with
    it; the kernel moves the same way, so the ratio keeps what the program
    itself costs.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.times = {}      # (metric, seed) -> nominal seconds
        self.raw = {}        # (metric, seed) -> seconds as measured
        self.factors = []
        self.digests = {}    # seed -> {file name: sha256}
        self.reports = {}    # seed -> deterministic report figures

    @staticmethod
    def _kernel_seconds():
        start = time.perf_counter()
        calibration_kernel()
        calibration_kernel()
        return (time.perf_counter() - start) / 2

    def timed(self, metric, seed, label, fn, *args):
        """Attempt one operation and record its time; an exception counts
        it as failed and returns None."""
        self.attempted += 1
        before = self._kernel_seconds()
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # the program failed: count it, keep going
            self.failed += 1
            print("bench: %s failed: %s: %s" % (label, type(exc).__name__, exc), file=sys.stderr)
            return None
        seconds = time.perf_counter() - start
        factor = CALIBRATION_NOMINAL_S / ((before + self._kernel_seconds()) / 2)
        self.factors.append(factor)
        self.raw.setdefault((metric, seed), []).append(seconds)
        self.times.setdefault((metric, seed), []).append(seconds * factor)
        return result

    def metric(self, name, table=None):
        """Mean over experiment seeds of each seed's median sample; a metric
        timed in parts ("sweep_s/3") is the sum of its parts."""
        table = self.times if table is None else table
        parts = {m for m, _ in table if m.startswith(name + "/")}
        if parts:
            return sum(self.metric(part, table) for part in parts)
        per_seed = [statistics.median(v) for (m, _), v in table.items() if m == name]
        return statistics.fmean(per_seed) if per_seed else None

    def totals(self):
        """The deterministic report figures, summed over experiment seeds."""
        return {key: sum(r[key] for r in self.reports.values())
                for key in next(iter(self.reports.values()))}

    def samples(self, name):
        return sum(len(v) for (m, _), v in self.times.items() if m == name or m.startswith(name + "/"))


class Round:
    """A workload's operations at one experiment seed."""

    def __init__(self, workload, seed, workdir, run):
        from flowrl import harness

        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.run = run
        self.base = {
            "seed": seed,
            "table_capacity_bits": workload.table_capacity_bits,
            "aggregate_rate": "%.17g" % workload.aggregate_rate,
        }
        base_path = os.path.join(workdir, "base.cfg")
        write_config(base_path, self.base)
        self.cfg = harness.load_config(base_path)
        self.digests = {}
        self.reports = dict.fromkeys(
            ("bytes", "episodes_to_goal", "exchanges_saved", "flows", "knapsack_cells"), 0
        )

    def setup(self):
        """Schedule generation, orchestration, evaluation schedule and a
        fresh environment, through the package's public functions."""
        from flowrl import harness, simnet, traffic

        cfg = self.cfg
        schedule = traffic.generate_schedule(
            cfg.traffic, cfg.orchestration_window, cfg.n_hosts, cfg.seed
        )
        pool = simnet.run_orchestration(schedule, cfg.orchestration_window)
        eval_schedule = harness.build_eval_schedule(
            schedule, cfg.orchestration_window, cfg.replay_lag
        )
        env = harness.EpisodeEnv(
            pool, eval_schedule, cfg.table_capacity_bits, cfg.orchestration_window
        )
        return schedule, env

    def expected(self, env):
        """The independent reference figures for this environment."""
        self.packets = checks.eval_packets(env.eval_schedule)
        self.total = sum(self.packets.values())
        bits = self.cfg.table_capacity_bits
        self.oracle = checks.oracle_objective(self.packets, bits)
        self.land = {
            pm: checks.landscape(env.pool, self.packets, bits, self.cfg.orchestration_window, pm)
            for pm in PARAM_MODES
        }

    def sweep_row(self, env, f):
        from flowrl.model import REC_GRID, ThresholdConfig

        return {(f, r): env.run(ThresholdConfig(f, r)) for r in REC_GRID}

    def check_sweep(self, cells):
        label = "%s/seed%d/sweep" % (self.w.name, self.seed)
        problems = checks.check_sweep(
            label, {k: m.overhead for k, m in cells.items()}, self.land["both"], self.oracle
        )
        problems += checks.check_conservation(
            label, [(m.hits, m.misses) for m in cells.values()], self.total
        )
        return problems

    def noop_policy(self, mode):
        """A policy file whose greedy action is NoOp in every state."""
        from flowrl.dqn import LAYER_SIZES
        from flowrl.model import FREQ_GRID, REC_GRID
        from flowrl.qlearn import ACTIONS, Action

        path = os.path.join(self.workdir, "noop." + mode)
        with open(path, "w", newline="\n") as fh:
            if mode == "ql":
                for f in FREQ_GRID:
                    for r in REC_GRID:
                        for a in ACTIONS:
                            fh.write("%d,%d,%s,%d\n" % (f, r, a.name, a == Action.NoOp))
            else:
                # zero weights; the output bias is 1 on the NoOp head only
                fh.write(",".join(map(str, LAYER_SIZES)) + "\n")
                for n_in, n_out in zip(LAYER_SIZES[:-1], LAYER_SIZES[1:]):
                    fh.write("0\n" * (n_in * n_out))
                    bias = [0] * n_out
                    if n_out == len(ACTIONS):
                        bias[Action.NoOp] = 1
                    fh.write("".join("%d\n" % b for b in bias))
        return path

    def mode_run(self, spec, cli_main):
        """Run one mode through the command line; returns its report files."""
        label = spec.metric[:-2]
        out = os.path.join(self.workdir, label + ".csv")
        cfg_path = os.path.join(self.workdir, label + ".in.cfg")
        write_config(cfg_path, dict(self.base, mode=spec.mode, output_path=out, **spec.settings))
        argv = ["--config", cfg_path]
        files = [out, out + ".summary", out + ".cfg"]
        if spec.mode == "significance":
            for pm in PARAM_MODES:
                files += ["%s.%s%s" % (out, pm, ext) for ext in ("", ".summary", ".cfg")]
        if spec.mode == "dqn":
            files.append(os.path.join(self.workdir, label + ".net"))
            argv += ["--save-policy", files[-1]]
        if spec.noop_policy:
            argv += ["--load-policy", self.noop_policy(spec.mode)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv)
        if code != 0:
            raise RuntimeError("flowrl %s exited %d" % (" ".join(argv), code))
        return files

    def check_mode(self, spec, files):
        label = "%s/seed%d/%s" % (self.w.name, self.seed, spec.mode)
        out = files[0]
        summary = checks.read_summary(out + ".summary")
        if spec.mode == "mbf":
            return checks.check_mbf(label, summary, self.packets)
        if spec.mode == "oracle":
            problems = checks.check_oracle(
                label, int(summary["objective"]), self.packets, self.cfg.table_capacity_bits
            )
            if int(summary["n_rules"]) != self.pool_flows:
                problems.append("%s: n_rules %s != %d pool flows"
                                % (label, summary["n_rules"], self.pool_flows))
            # the dynamic program fills n x (capacity / gcd + 1) cells; every
            # rule is one 356-bit entry, so the gcd is 356
            self.reports["knapsack_cells"] += spec.repeats * self.pool_flows * (
                self.cfg.table_capacity_bits // checks.ENTRY_BITS + 1
            )
            return problems
        problems = []
        runs = [(out, "both")]
        if spec.mode == "significance":
            runs = [("%s.%s" % (out, pm), pm) for pm in PARAM_MODES]
        reductions = {}
        for path, pm in runs:
            sub = checks.read_summary(path + ".summary")
            problems += checks.check_training(
                "%s/%s" % (label, pm), sub, checks.read_rows(path), self.land[pm],
                self.oracle, spec.settings["goal_mu"], spec.settings["episodes_cap"], self.total,
            )
            initial = int(sub["initial_overhead"])
            saved = initial - int(sub["best_overhead"])
            reductions[pm] = (saved, initial)
            self.reports["episodes_to_goal"] += int(sub["episodes_to_goal"])
            self.reports["exchanges_saved"] += saved
        if spec.mode == "significance":
            problems += checks.check_significance(label, summary, reductions)
        if spec.mode == "dqn":
            problems += checks.check_network(label, files[-1])
        return problems

    def execute(self, tracer=None):
        from flowrl import cli
        from flowrl.model import FREQ_GRID

        run = self.run
        call = tracer.call if tracer else (lambda name, fn, *a: fn(*a))

        env = None
        for _ in range(SETUPS_PER_ROUND):
            built = run.timed("setup_s", self.seed, "setup", call, "bench.setup", self.setup)
            if built is not None:
                schedule, env = built
        if env is None:
            return
        self.reports["flows"] = len(schedule.flows)
        self.pool_flows = len(env.pool)
        call("bench.expected", self.expected, env)

        # timed row by row, so that each row gets its own speed factor: a
        # contended sweep lasts seconds, longer than the host holds a speed
        cells = {}
        for f in FREQ_GRID:
            row = run.timed("sweep_s/%d" % f, self.seed, "sweep", call, "bench.sweep",
                            self.sweep_row, env, f)
            cells.update(row or {})
        run.problems += call("bench.check", self.check_sweep, cells)

        for spec in self.w.runs:
            for rep in range(spec.repeats):
                # cli.main is looked up here so that a traced pass sees its wrapper
                files = run.timed(spec.metric, self.seed, spec.mode, self.mode_run, spec, cli.main)
                if files is None:
                    continue
                digests = {os.path.basename(p): checks.sha256(p) for p in files}
                if rep == 0:
                    self.reports["bytes"] += sum(os.path.getsize(p) for p in files)
                    run.problems += call("bench.check", self.check_mode, spec, files)
                    self.digests.update(digests)
                else:
                    run.problems += checks.check_digests(
                        "%s/seed%d/%s repeat %d" % (self.w.name, self.seed, spec.mode, rep),
                        {k: self.digests[k] for k in digests}, digests,
                    )


def run_pass(workload, seeds, workdir, run, tracer=None):
    """One round per experiment seed; returns the pass's raw wall time."""
    start = time.perf_counter()
    for seed in seeds:
        subdir = os.path.join(workdir, "seed%d" % seed)
        os.makedirs(subdir, exist_ok=True)
        rnd = Round(workload, seed, subdir, run)
        if tracer is None:
            rnd.execute()
        else:
            tracer.call("bench.round", rnd.execute, tracer)
        # a repeated round must write the same bytes and reach the same figures
        if seed not in run.digests:
            run.digests[seed], run.reports[seed] = rnd.digests, rnd.reports
        else:
            label = "%s/seed%d" % (workload.name, seed)
            run.problems += checks.check_digests(label + " pass", run.digests[seed], rnd.digests)
            if rnd.reports != run.reports[seed]:
                run.problems.append("%s: report figures differ between passes: %s != %s"
                                    % (label, rnd.reports, run.reports[seed]))
    return time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    os.chdir(ROOT)
    import_flowrl()
    workload = WORKLOADS[args.workload]
    seeds = [args.seed * workload.subseeds + i for i in range(workload.subseeds)]
    workdir = os.path.join(OUT, "%s-seed%d" % (workload.name, args.seed))
    run = Run()
    extra = {}

    if args.trace:
        import layers
        from tracing import Tracer

        untraced = run_pass(workload, seeds, workdir, run)
        tracer = Tracer()
        for owner, attr, name in layers.sites():
            tracer.wrap(owner, attr, name)
        try:
            traced = run_pass(workload, seeds, workdir, run, tracer)
        finally:
            tracer.restore()
        metrics = layers.per_layer(tracer, run.totals())
        metrics["trace.untraced_wall_s"] = untraced
        metrics["trace.wall_s"] = traced
        metrics["trace.overhead_s"] = traced - untraced
        tracer.save(os.path.join(workdir, "trace.npz"))
        result_metrics = {
            name: {"value": metrics[name], "unit": unit}
            for name, (unit, _) in layers.METRICS.items()
        }
    else:
        start = time.perf_counter()
        while True:
            wall = run_pass(workload, seeds, workdir, run)
            if time.perf_counter() - start + wall > args.seconds:
                break
        values = {name: run.metric(name) for name in END_TO_END}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print("speed factor: median %.3f, range %.3f-%.3f" % (
            statistics.median(run.factors), min(run.factors), max(run.factors)))
        for name in END_TO_END:
            if name != "peak_rss_mb":
                print("%s nominal=%.6f raw=%.6f samples=%d" % (
                    name, values[name], run.metric(name, run.raw), run.samples(name)))
        result_metrics = {name: {"value": values[name], "unit": unit}
                          for name, unit in END_TO_END.items()}
        extra["per_seed"] = {
            "%s seed%d" % key: [statistics.median(v), statistics.median(run.raw[key])]
            for key, v in sorted(run.times.items())
        }

    for problem in run.problems:
        print("bench: check failed: %s" % problem, file=sys.stderr)
    print("workload=%s seed=%d experiment seeds=%s trace=%d" % (
        workload.name, args.seed, seeds, args.trace))
    reports = run.totals()
    print("report figures: %s" % reports)
    for seed in sorted(run.digests):
        for name, digest in sorted(run.digests[seed].items()):
            print("sha256 %s seed%d/%s" % (digest, seed, name))
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": result_metrics,
    }
    with open(os.path.join(workdir, "result-trace%d.json" % args.trace), "w") as fh:
        json.dump(dict(result, digests=run.digests, reports=reports, **extra), fh,
                  indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
