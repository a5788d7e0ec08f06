"""Distributed stochastic compositional optimization simulator."""

import os

# From n = 500 on, a BLAS product sums in an order that depends on its thread
# count, so pin BLAS to one thread before numpy loads unless the caller chose a
# count. A caller that imported numpy first keeps numpy's own count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .algorithms import (
    ab_dscsc_init,
    ab_dscsc_step,
    dscgd_step,
    run,
    single_agent_step,
)
from .schedules import Polynomial, StepSchedule
from .topology import (
    DirectedGraph,
    WeightPair,
    build_weight_pair,
    check_assumption2,
    contraction_factor,
    generate_ring_plus_random,
    underlying_metropolis,
)

__all__ = [
    "DirectedGraph",
    "WeightPair",
    "generate_ring_plus_random",
    "check_assumption2",
    "build_weight_pair",
    "contraction_factor",
    "underlying_metropolis",
    "StepSchedule",
    "Polynomial",
    "ab_dscsc_init",
    "ab_dscsc_step",
    "single_agent_step",
    "dscgd_step",
    "run",
]

__version__ = "0.1.0"
