"""flowrl -- SDN flow-table management with reinforcement-learning threshold agents.

A deterministic switch/controller simulator with a capacity-bounded flow
table, elephant/mice traffic generation, a tabular Q-learning agent and a
from-scratch DQN that search rule-placement thresholds, an MBF eviction
baseline, and an exact 0/1-knapsack placement oracle.
"""

from flowrl.model import (
    ENTRY_BITS,
    FREQ_GRID,
    REC_GRID,
    CapacityExceeded,
    DuplicateRule,
    FlowId,
    FlowPool,
    FlowRule,
    FlowTable,
    ThresholdConfig,
    placement_landscape,
    select_rules,
)
from flowrl.traffic import (
    FlowSchedule,
    FlowSpec,
    InvalidProfile,
    TrafficProfile,
    emission_extent,
    emitted_before,
    generate_schedule,
    last_emission_tick,
    packets_for_tick,
    total_packets,
)
from flowrl.simnet import (
    BestSoFar,
    EpisodeMetrics,
    RulesetTooLarge,
    ZeroInitial,
    compute_reward,
    hit_ratio,
    reduction_fraction,
    run_episode,
    run_orchestration,
)
from flowrl.qlearn import (
    ACTIONS,
    Action,
    AgentConfig,
    EmptyTrainingSets,
    MalformedQTable,
    QTable,
    TraceRow,
    TrainResult,
    apply_action,
    decay_epsilon,
    epsilon_greedy_select,
    init_qtable,
    q_train,
    q_update,
)
from flowrl.dqn import (
    LAYER_SIZES,
    DqnConfig,
    Experience,
    InsufficientExperiences,
    MalformedNetwork,
    Mlp,
    NonFiniteInput,
    ReplayMemory,
    dqn_target,
    dqn_train,
    encode_state,
    init_mlp,
    mlp_forward,
    relu,
    sgd_step,
)
from flowrl.baselines import (
    Assignment,
    CapacityNegative,
    IlpInstance,
    MbfState,
    TooLarge,
    brute_force_partition,
    knapsack_exact,
    mbf_importance,
    mbf_step,
    run_mbf_episode,
)
from flowrl.harness import (
    REFERENCE_TRAFFIC,
    EpisodeEnv,
    ExperimentConfig,
    ParseError,
    RunReport,
    ValidationError,
    build_eval_schedule,
    load_config,
    run_experiment,
    save_config,
    write_report,
)

__version__ = "0.1.0"
