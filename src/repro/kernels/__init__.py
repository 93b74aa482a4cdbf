"""Kernel backends for the DSE hot paths.

Two kernel families are swappable behind bit-identity contracts:

* **SFP kernels** — the System Failure Probability primitives (formulae (1),
  (4) and (5) of the paper), the innermost numeric kernel of the design-space
  exploration.  See :mod:`repro.kernels.base` for the contract.
* **Scheduler kernels** — the root-schedule construction of Section 6.4
  (priorities, layer placement, bus reservation, recovery slack).  See
  :mod:`repro.kernels.sched_base` for the contract.

Each family has a ``reference`` backend and one fast backend (SFP ``array``,
scheduler ``flat``, the defaults); selection is a name lookup in
:mod:`repro.kernels.registry` (``--sfp-kernel`` / ``--sched-kernel``).  See
``PERFORMANCE.md`` for measurements.
"""

from __future__ import annotations

from repro.kernels.array_backend import ArrayKernel
from repro.kernels.base import SFPKernel
from repro.kernels.reference import ReferenceKernel
from repro.kernels.registry import (
    DEFAULT_SCHED_KERNEL,
    DEFAULT_SFP_KERNEL,
    SCHED_KERNELS,
    SFP_KERNELS,
    active_kernel,
    active_sched_kernel,
    get_kernel,
    get_sched_kernel,
    resolve_kernel,
    resolve_sched_kernel,
    use_kernel,
)
from repro.kernels.sched_base import (
    SchedulerKernel,
    ScheduleStructure,
    SchedulingProblem,
)
from repro.kernels.sched_flat import FlatSchedulerKernel
from repro.kernels.sched_reference import ReferenceSchedulerKernel

__all__ = [
    "ArrayKernel",
    "DEFAULT_SCHED_KERNEL",
    "DEFAULT_SFP_KERNEL",
    "FlatSchedulerKernel",
    "ReferenceKernel",
    "ReferenceSchedulerKernel",
    "SCHED_KERNELS",
    "SFPKernel",
    "SFP_KERNELS",
    "SchedulerKernel",
    "ScheduleStructure",
    "SchedulingProblem",
    "active_kernel",
    "active_sched_kernel",
    "get_kernel",
    "get_sched_kernel",
    "resolve_kernel",
    "resolve_sched_kernel",
    "use_kernel",
]
