"""Analytic performance model.

Predicts steady-state throughput and PCM-style counters for sets of
concurrently running queries on a CAT-partitioned machine.  The model
rests on three pieces of memory-system physics:

* **LLC occupancy** under LRU sharing, computed with the Che
  characteristic-time approximation per way-mask segment
  (:mod:`repro.model.occupancy`),
* **miss latency** with memory-level parallelism and prefetching
  (:mod:`repro.model.latency`),
* **DRAM bandwidth contention** via max-min fair arbitration
  (:mod:`repro.model.bandwidth`).

The trace-driven simulator in :mod:`repro.hardware` validates the
occupancy model on scaled-down geometries (see the test suite).
"""

from .bandwidth import BandwidthUsage, solve_bandwidth
from .calibration import Calibration, DEFAULT_CALIBRATION
from .latency import LatencyModel
from .occupancy import CacheActorSet, RegionActor, StreamActor, solve_segment
from .segments import Segment, decompose_masks
from .simulator import (
    QueryResult,
    QuerySpec,
    SimulationResults,
    WorkloadSimulator,
)
from .streams import (
    AccessProfile,
    RandomRegion,
    SequentialStream,
    skewed_regions,
)

__all__ = [
    "AccessProfile",
    "BandwidthUsage",
    "CacheActorSet",
    "Calibration",
    "DEFAULT_CALIBRATION",
    "LatencyModel",
    "QueryResult",
    "QuerySpec",
    "RandomRegion",
    "RegionActor",
    "Segment",
    "SequentialStream",
    "SimulationResults",
    "StreamActor",
    "WorkloadSimulator",
    "decompose_masks",
    "skewed_regions",
    "solve_bandwidth",
    "solve_segment",
]
