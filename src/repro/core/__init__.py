"""CuttleSys proper: inference, search, and the resource controller.

The paper's contribution is the combination of

* **PQ-reconstruction with SGD** (:mod:`repro.core.sgd`) — collaborative
  filtering that infers each job's throughput / tail latency / power on
  all 108 configurations from two profiling samples plus an offline
  training set,
* **parallel Dynamically Dimensioned Search** (:mod:`repro.core.dds`) —
  a high-dimensional stochastic search that picks a per-job joint
  configuration maximising batch throughput under power, cache and QoS
  constraints, and
* the **Resource / Configuration controllers**
  (:mod:`repro.core.controller`, :mod:`repro.core.runtime`) that close
  the loop every 100 ms decision quantum.

Baseline estimators/search algorithms used in the paper's comparisons
(Flicker's RBF surrogate and genetic algorithm) live in
:mod:`repro.core.rbf` and :mod:`repro.core.ga`.
"""

from repro.core.controller import ControllerConfig, ResourceController
from repro.core.dds import DDSParams, DDSResult, DDSSearch
from repro.core.ga import GAParams, GAResult, GeneticSearch
from repro.core.matrices import ObservedMatrix
from repro.core.objective import SystemObjective
from repro.core.oracle import OracleReconfigPolicy
from repro.core.rbf import RBFSurrogate, l9_sample_configs
from repro.core.runtime import CuttleSysPolicy
from repro.core.sgd import PQReconstructor, SGDParams

__all__ = [
    "ControllerConfig",
    "CuttleSysPolicy",
    "DDSParams",
    "DDSResult",
    "DDSSearch",
    "GAParams",
    "GAResult",
    "GeneticSearch",
    "ObservedMatrix",
    "OracleReconfigPolicy",
    "PQReconstructor",
    "RBFSurrogate",
    "ResourceController",
    "SGDParams",
    "SystemObjective",
    "l9_sample_configs",
]
