"""flowrl -- SDN flow-table management with reinforcement-learning threshold agents.

A deterministic switch/controller simulator with a capacity-bounded flow
table, elephant/mice traffic generation, a tabular Q-learning agent and a
from-scratch DQN that search rule-placement thresholds, an MBF eviction
baseline, and an exact 0/1-knapsack placement oracle.
"""

__version__ = "0.1.0"
