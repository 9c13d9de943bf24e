# Shared fixtures and helpers: tiny deterministic workloads, hand-built
# schedules, and a stub episode environment with a programmable landscape.

import copy
import dataclasses
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from flowrl.dqn import INIT_SCALE, Mlp
from flowrl.harness import MAX_WINDOW, REFERENCE_TRAFFIC, ExperimentConfig
from flowrl.model import ENTRY_BITS, FlowPool, ThresholdConfig, flow_key
from flowrl.qlearn import GRID_STATES
from flowrl.simnet import EpisodeMetrics
from flowrl.traffic import (
    DRAW_BLOCK, MAX_EXPECTED_FLOWS, FlowSchedule, FlowSpec, TrafficProfile, WordDraws,
    total_packets,
)

# Every property test draws the same examples on every run and host, has no
# per-example deadline to trip on a slow host, and keeps no example database.
settings.register_profile("flowrl", derandomize=True, deadline=None, database=None)
settings.load_profile("flowrl")


def pytest_configure(config):
    # Hypothesis caches the constants it finds in source files under its
    # home directory (at collection, database or not); keep that out of
    # the checkout.
    home = tempfile.mkdtemp(prefix="flowrl-hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)


def fid(i, j=None):
    """Distinct flow keys indexed by small integers."""
    if j is None:
        j = 1000 + i
    return flow_key(src_host=0, dst_host=1, src_port=1024 + i, dst_port=1024 + j)


def keys_of(keys):
    """Flow keys as the uint64 column a schedule or pool holds."""
    return np.array(list(keys), np.uint64)


# One packet per tick per flow: per_flow_rate / (packet_size*8) = 1.
ONE_PPS = TrafficProfile(
    elephant_fraction=0.5,
    mice_size=3000,
    elephant_size=4500,
    aggregate_rate=100_000.0,
    packet_size=1500,
    per_flow_rate=12_000.0,
)


# Two MBF runs whose episode work the config bound refuses: 20,000 one-packet
# elephants over 1,000 ticks against 8,000 entries, whose episode took 16 s
# on a 2-core host while doing only 20,000 flow-ticks (each tick heaps the
# full table), and just under MAX_EXPECTED_FLOWS reference flows over the
# longest window.
SLOW_MBF_CONFIG = ExperimentConfig(
    mode="mbf", orchestration_window=1000, table_capacity_bits=8000 * ENTRY_BITS,
    traffic=TrafficProfile(elephant_fraction=1.0, mice_size=1500, elephant_size=1500,
                           aggregate_rate=240_000.0, packet_size=1500,
                           per_flow_rate=12_000.0),
)
CROWDED_DAY_MBF_CONFIG = ExperimentConfig(
    mode="mbf", orchestration_window=MAX_WINDOW,
    traffic=dataclasses.replace(
        REFERENCE_TRAFFIC,
        aggregate_rate=(MAX_EXPECTED_FLOWS - 1) / MAX_WINDOW * REFERENCE_TRAFFIC.mean_flow_bits()),
)


def spec_schedule(flows, horizon, profile):
    """Build a FlowSchedule from FlowSpecs in schedule order, each flow's
    column entries taken from its spec (its size as total_packets)."""
    return FlowSchedule(keys_of(f.id for f in flows), [f.start for f in flows],
                        [f.klass == "elephant" for f in flows],
                        [total_packets(f.size, profile.packet_size) for f in flows],
                        horizon, profile)


def hand_schedule(specs, horizon, profile=ONE_PPS):
    """Build a FlowSchedule from (key, klass, size_bytes, start) tuples."""
    flows = [FlowSpec(*spec) for spec in specs]
    flows.sort(key=lambda f: (f.start, f.id))
    return spec_schedule(flows, horizon, profile)


def hand_pool(entries):
    """Build a FlowPool from {key: (freq, last_seen)}, in the dict's order."""
    freq = [freq for freq, _ in entries.values()]
    last_seen = [last_seen for _, last_seen in entries.values()]
    return FlowPool(keys_of(entries), np.array(last_seen, np.int64), np.array(freq, np.int64))


def random_net(rng, layer_sizes, scale=INIT_SCALE):
    """A net of any layer sizes, drawn as Mlp.random draws the agent's:
    every parameter uniform in [-scale, scale), layer by layer."""
    weights = []
    biases = []
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(rng.uniform(-scale, scale, size=(n_out, n_in)))
        biases.append(rng.uniform(-scale, scale, size=n_out))
    return Mlp(weights, biases)


class ReadThrough:
    """A sequence whose item i is read(i), read each time it is indexed."""

    def __init__(self, read):
        self.read = read

    def __getitem__(self, i):
        return self.read(i)


class FakeEnv:
    """Episode environment with a programmable overhead landscape.

    overhead_fn maps (freq_threshold, recentness_threshold) to an integer
    overhead; lookups are padded so the metrics invariants hold. cells()
    reads each [fi][ri] through run when it is indexed, so calls counts
    every episode, through either, in the order they are read.
    """

    def __init__(self, overhead_fn, total=100):
        self.overhead_fn = overhead_fn
        self.total = total
        self.calls = 0

    def run(self, thresholds):
        self.calls += 1
        o = int(self.overhead_fn(thresholds.freq_threshold,
                                 thresholds.recentness_threshold))
        hits = max(self.total - o, 0)
        return EpisodeMetrics(hits=hits, misses=o, duration=1)

    def cells(self):
        return ReadThrough(lambda fi: ReadThrough(lambda ri: self.run(GRID_STATES[fi][ri])))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def stream(seed):
    """A training run's draws: one WordDraws on a new generator of seed."""
    return WordDraws(np.random.default_rng(seed))


def assert_continues(draws, rng):
    """draws' next draws equal rng's next calls, which a copy of rng makes:
    bounded ones, which read a kept half first, then whole words past the
    end of a fetched block. Use no draw from draws afterwards."""
    twin = copy.deepcopy(rng)
    assert [draws.below(5) for _ in range(3)] == [int(twin.integers(0, 5)) for _ in range(3)]
    count = DRAW_BLOCK + 1
    assert [draws.random() for _ in range(count)] == twin.random(count).tolist()


def toy_mdp():
    """A 3-state, 2-action deterministic chain with known optimal values.

    States are the grid cells (0,0), (10,0), (20,0); actions move right or
    left with clamping at the chain ends. Rewards stay in {-1, 0, 1} and
    make every optimal action-value positive, so unused Q-table cells
    (which start at 0) never win a row max.

    Returns (states, actions, rewards, transition, q_star) with q_star the
    fixed point of the Bellman optimality recursion at gamma=0.95, iterated
    to 1e-10.
    """
    states = (ThresholdConfig(0, 0), ThresholdConfig(10, 0), ThresholdConfig(20, 0))
    from flowrl.qlearn import Action

    actions = (Action.IncFreq, Action.DecFreq)
    rewards = np.array([[1, 0], [0, 1], [-1, 1]])

    def step(si, ai):
        return min(si + 1, 2) if ai == 0 else max(si - 1, 0)

    gamma = 0.95
    q = np.zeros((3, 2))
    for _ in range(3000):
        q_next = np.empty_like(q)
        for si in range(3):
            for ai in range(2):
                q_next[si, ai] = rewards[si, ai] + gamma * q[step(si, ai)].max()
        if np.abs(q_next - q).max() < 1e-10:
            q = q_next
            break
        q = q_next
    return states, actions, rewards, step, q
