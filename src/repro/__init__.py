"""repro — a from-scratch reproduction of DRAS (IPDPS'21).

DRAS (Deep Reinforcement Agent for Scheduling) is an automated HPC
cluster-scheduling agent built on a hierarchical neural network that
incorporates resource reservation and backfilling.  This package
provides the complete system: the trace-driven scheduling simulator,
the workload tooling, the NumPy neural-network substrate, the DRAS-PG
and DRAS-DQL agents, every baseline the paper compares against, the
three-phase training strategy, and an experiment harness regenerating
every table and figure of the paper's evaluation.

Quick start::

    import numpy as np
    from repro import DRASConfig, DRASPG, ThetaModel, run_simulation

    model = ThetaModel.scaled(256)
    jobs = model.generate(500, np.random.default_rng(0))
    agent = DRASPG(DRASConfig.scaled(256))
    result = run_simulation(256, agent, jobs)
"""

from repro.core import (
    CapabilityReward,
    CapacityReward,
    DRASConfig,
    DRASDQL,
    DRASPG,
    DecimaPG,
    NetworkDims,
    StateEncoder,
    make_reward,
    table3_configs,
)
from repro.core.persistence import load_agent, save_agent
from repro.schedulers import (
    BinPacking,
    ConservativeBackfill,
    FCFSEasy,
    KnapsackOptimization,
    RandomScheduler,
)
from repro.sim import (
    Cluster,
    Engine,
    ExecMode,
    Job,
    JobState,
    RunMetrics,
)
from repro.sim.engine import run_simulation
from repro.workload import (
    CoriModel,
    ThetaModel,
    WorkloadModel,
    read_swf,
    three_phase_curriculum,
    write_swf,
)

__version__ = "1.0.0"

__all__ = [
    "BinPacking",
    "CapabilityReward",
    "CapacityReward",
    "Cluster",
    "ConservativeBackfill",
    "CoriModel",
    "DRASConfig",
    "DRASDQL",
    "DRASPG",
    "DecimaPG",
    "Engine",
    "ExecMode",
    "FCFSEasy",
    "Job",
    "JobState",
    "KnapsackOptimization",
    "NetworkDims",
    "RandomScheduler",
    "RunMetrics",
    "StateEncoder",
    "ThetaModel",
    "WorkloadModel",
    "load_agent",
    "make_reward",
    "read_swf",
    "run_simulation",
    "save_agent",
    "table3_configs",
    "three_phase_curriculum",
    "write_swf",
    "__version__",
]
