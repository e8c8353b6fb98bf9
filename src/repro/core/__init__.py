"""DRAS — the paper's primary contribution.

This package implements the Deep Reinforcement Agent for Scheduling:

* :mod:`repro.core.rewards` — the capability (Eq. 1) and capacity
  (Eq. 2) reward functions;
* :mod:`repro.core.state` — the job/node state encoding of §III-A;
* :mod:`repro.core.config` — network and agent configuration, including
  the exact Table III architectures;
* :mod:`repro.core.agent` — the hierarchical two-level decision loop of
  §III-B shared by both agents;
* :mod:`repro.core.dras_pg` / :mod:`repro.core.dras_dql` — the policy
  gradient and deep Q-learning variants;
* :mod:`repro.core.decima` — the flat Decima-PG baseline: DRAS-PG
  without level 2 (no reservation, no backfilling).

:data:`AGENTS` is the one table of these agents by kind: the
``train --agent`` choices and the ``kind`` an agent file records
(:mod:`repro.core.persistence`).
"""

from repro.core.rewards import (
    CapabilityReward,
    CapacityReward,
    RewardFunction,
    make_reward,
)
from repro.core.state import StateEncoder
from repro.core.config import DRASConfig, NetworkDims, table3_configs
from repro.core.agent import HierarchicalAgent
from repro.core.dras_pg import DRASPG
from repro.core.dras_dql import DRASDQL
from repro.core.decima import DecimaPG

#: every learning agent by ``train --agent`` kind: ``cls(config)``
AGENTS = {"pg": DRASPG, "dql": DRASDQL, "decima": DecimaPG}

__all__ = [
    "AGENTS",
    "CapabilityReward",
    "CapacityReward",
    "DRASConfig",
    "DRASDQL",
    "DRASPG",
    "DecimaPG",
    "HierarchicalAgent",
    "NetworkDims",
    "RewardFunction",
    "StateEncoder",
    "make_reward",
    "table3_configs",
]
