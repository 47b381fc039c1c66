"""repro: locality-aware persistent neighborhood collectives, reproduced in Python.

This library reproduces "Optimizing Irregular Communication with Neighborhood
Collectives and Locality-Aware Parallelism" (Collom, Li, Bienz -- EuroMPI 2023).
It contains:

* the paper's contribution -- persistent neighborhood collectives with standard,
  locality-aware (three-step aggregation), and deduplicating implementations,
  plus model-driven dynamic selection (:mod:`repro.collectives`);
* every substrate the evaluation depends on -- machine topology and rank
  placement (:mod:`repro.topology`), the locality-aware communication cost
  model (:mod:`repro.perfmodel`), a simulated MPI runtime (:mod:`repro.simmpi`),
  communication patterns (:mod:`repro.pattern`), ParCSR-style distributed
  matrices and SpMV (:mod:`repro.sparse`), and a BoomerAMG-style solver
  (:mod:`repro.amg`);
* the experiment harness regenerating every figure of the paper's evaluation
  (:mod:`repro.experiments`).

Quickstart::

    from repro.topology import paper_mapping
    from repro.pattern import random_pattern
    from repro.collectives import all_plans, Variant
    from repro.perfmodel import lassen_parameters

    mapping = paper_mapping(n_ranks=64)
    pattern = random_pattern(64, seed=0)
    plans = all_plans(pattern, mapping)
    model = lassen_parameters()
    for variant, plan in plans.items():
        print(variant.value, plan.modeled_time(model))
"""

from repro import topology
from repro import perfmodel
from repro import simmpi
from repro import pattern
from repro import collectives
from repro import sparse
from repro import amg
from repro import utils

__version__ = "1.0.0"

__all__ = [
    "topology",
    "perfmodel",
    "simmpi",
    "pattern",
    "collectives",
    "sparse",
    "amg",
    "utils",
    "__version__",
]
