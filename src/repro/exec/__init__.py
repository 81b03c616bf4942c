"""Campaign execution engine: job, executor and store layers.

The paper's evaluation is a (technique x benchmark) grid; related design-
space frameworks are only practical because they parallelize and memoize
that grid.  This package factors campaign execution into three layers:

* **job** (:mod:`repro.exec.spec`) — :class:`CellSpec`, a frozen, hashable
  description of one simulation cell with a canonical JSON form and a
  stable content hash, and :class:`PretrainSpec`, the pre-training job an
  RL cell deploys the policy of.
* **executor** (:mod:`repro.exec.executors`) — :class:`CellExecutor`,
  one scheduler running ``jobs`` jobs at a time (in the calling process
  at ``jobs == 1``, in a process pool above that) in dependency order,
  with retry-once-on-crash and progress callbacks; a job that still fails
  stops the campaign.
* **store** (:mod:`repro.exec.store`) — :class:`ResultStore`, an on-disk
  content-addressed cache of run artifacts and policies keyed by the spec
  hash, so repeated campaigns skip simulation entirely.

:mod:`repro.exec.engine` ties the layers together: dedupe, cache lookup,
execution of the misses, artifact write-back — and holds
:class:`EngineOptions`, the options and engine recipe the campaign
drivers in :mod:`repro.core` inherit.
"""

from repro.exec.engine import (
    CampaignEngine,
    CampaignReport,
    EngineOptions,
)
from repro.exec.executors import (
    CellExecutionError,
    CellExecutor,
    ProgressEvent,
)
from repro.exec.spec import (
    CellSpec,
    PretrainSpec,
    WorkloadSpec,
    parsec_cell,
    synthetic_cell,
)
from repro.exec.store import ResultStore, default_cache_dir
from repro.exec.worker import build_trace, execute_cell, execute_job

__all__ = [
    "CampaignEngine",
    "CampaignReport",
    "CellExecutionError",
    "CellExecutor",
    "CellSpec",
    "EngineOptions",
    "PretrainSpec",
    "ProgressEvent",
    "ResultStore",
    "WorkloadSpec",
    "build_trace",
    "default_cache_dir",
    "execute_cell",
    "execute_job",
    "parsec_cell",
    "synthetic_cell",
]
