"""Workload tooling: SWF traces, synthetic generation, jobset curricula.

The paper evaluates DRAS with production job logs from Theta (ALCF) and
Cori (NERSC).  Those logs are not redistributable, so this package
provides

* an SWF (Standard Workload Format) reader/writer so real logs from the
  Parallel Workloads Archive can be dropped in unchanged, and
* statistical workload models (:class:`ThetaModel`, :class:`CoriModel`)
  calibrated to the characteristics the paper reports (Table II, Fig 2,
  Fig 3): system size, size mix, runtime caps, and diurnal/weekly
  arrival patterns.

It also builds the three kinds of training jobsets from §III-C:
Poisson-*sampled* jobsets, chunks of the *real* (or model-generated
reference) trace, and fully *synthetic* jobsets.
"""

from repro.workload.swf import read_swf, write_swf
from repro.workload.units import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.workload.generator import (
    CategoricalSizes,
    DiurnalArrivals,
    LognormalRuntimes,
    PoissonArrivals,
)
from repro.workload.models import CoriModel, ThetaModel, WorkloadModel
from repro.workload.stats import TraceStats, analyze_trace, fit_model
from repro.workload.jobsets import (
    normalize_times,
    real_jobsets,
    sampled_jobset,
    split_weeks,
    synthetic_jobsets,
    three_phase_curriculum,
)

__all__ = [
    "CategoricalSizes",
    "CoriModel",
    "DiurnalArrivals",
    "SECONDS_PER_DAY",
    "SECONDS_PER_HOUR",
    "LognormalRuntimes",
    "PoissonArrivals",
    "ThetaModel",
    "TraceStats",
    "WorkloadModel",
    "analyze_trace",
    "fit_model",
    "normalize_times",
    "read_swf",
    "real_jobsets",
    "sampled_jobset",
    "split_weeks",
    "synthetic_jobsets",
    "three_phase_curriculum",
    "write_swf",
]
