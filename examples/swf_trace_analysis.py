#!/usr/bin/env python
"""Working with real traces: SWF in, schedule out, SWF back.

The paper's experiments consume the Theta and Cori production logs.
Those are not redistributable, but any Standard Workload Format (SWF)
log — e.g. from the Parallel Workloads Archive — drops straight into
this reproduction:

1. write a synthetic trace to SWF (stand-in for a downloaded log);
2. read it back with ``read_swf`` exactly as you would a real log;
3. replay it under FCFS and DRAS-DQL;
4. write the *scheduled* trace back to SWF, with the simulated wait
   times filled in, for analysis with standard SWF tooling.

Run::

    python examples/swf_trace_analysis.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    DRASConfig,
    DRASDQL,
    FCFSEasy,
    RunMetrics,
    ThetaModel,
    read_swf,
    run_simulation,
    write_swf,
)

NODES = 128


def main() -> None:
    # the SWF files live only as long as the run
    with tempfile.TemporaryDirectory(prefix="dras-swf-") as workdir:
        analyse(Path(workdir))


def analyse(workdir: Path) -> None:
    rng = np.random.default_rng(5)

    # 1. Stand-in for a production log.
    model = ThetaModel.scaled(NODES)
    original = model.generate(800, rng)
    raw_path = workdir / "theta_like.swf"
    write_swf(original, raw_path, header="synthetic Theta-like trace")
    print(f"wrote {len(original)} jobs to {raw_path}")

    # 2. Read it back the way a real archive log would be read.
    #    (queue id 1 encodes high priority in our writer.)
    trace = read_swf(raw_path, high_priority_queues=frozenset({1}))
    print(f"parsed {len(trace)} jobs; "
          f"max size {max(j.size for j in trace)} nodes; "
          f"span {trace[-1].submit_time / 86400:.1f} days")

    # 3. Replay under two policies.
    agent = DRASDQL(DRASConfig.scaled(NODES, window=10))
    for _ in range(4):  # a few quick training passes over the same trace
        run_simulation(NODES, agent, [j.copy_fresh() for j in trace])
    agent.eval(online_learning=True)

    for scheduler in (FCFSEasy(), agent):
        jobs = [j.copy_fresh() for j in trace]
        result = run_simulation(NODES, scheduler, jobs)
        m = RunMetrics.from_result(result)
        out_path = workdir / f"scheduled_{scheduler.name.lower()}.swf"
        # 4. Persist the schedule: wait times now filled in.
        write_swf(
            result.finished_jobs, out_path,
            header=f"scheduled by {scheduler.name}",
        )
        print(f"{scheduler.name:10s} avg wait {m.avg_wait / 3600:6.2f} h, "
              f"utilization {m.utilization:.3f} -> {out_path.name}")

    # sanity: the written schedule round-trips
    replayed = read_swf(workdir / "scheduled_fcfs.swf")
    print(f"\nround-trip check: re-read {len(replayed)} scheduled jobs "
          f"from SWF (wait times preserved in field 3)")


if __name__ == "__main__":
    main()
