"""Kernel backend tables and selection.

Each kernel family is a ``{name: instance}`` table of two backends:
``reference``, the executable specification the other backend is checked
against, and one fast backend, which is the family default.

* **SFP kernels** (:class:`~repro.kernels.base.SFPKernel`) — the Appendix A
  numeric primitives; ``array`` (default) or ``reference``.
* **Scheduler kernels** (:class:`~repro.kernels.sched_base.SchedulerKernel`)
  — the root-schedule construction of Section 6.4; ``flat`` (default) or
  ``reference``.

Selection precedence within a family, highest first:

1. an explicit ``kernel=`` argument on the entry points (``SFPAnalysis``,
   ``EvaluationEngine``, ``ReExecutionOpt`` for SFP; ``ListScheduler`` for
   scheduling) — accepts a kernel instance or a backend name;
2. a *scoped* selection entered with :func:`use_kernel` (what the
   ``repro.api`` session layer and the CLI's ``--sfp-kernel`` /
   ``--sched-kernel`` flags use); it is restored on exit, also when the
   body raises;
3. the family default.

Because both backends of a family are bit-identical (see the family base
modules), switching kernels never changes results — only speed — so cached
design points (in-memory memo tables and the persistent store) remain valid
across kernel switches and the selection deliberately is **not** part of
any cache key.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Mapping, Tuple, TypeVar, Union

from repro.core.exceptions import ModelError
from repro.kernels.base import SFPKernel
from repro.kernels.sched_base import SchedulerKernel

#: Default backend name of each family.
DEFAULT_SFP_KERNEL = "array"
DEFAULT_SCHED_KERNEL = "flat"

KernelT = TypeVar("KernelT", SFPKernel, SchedulerKernel)

#: The scoped selection slot: backend name per family.
_SELECTED: Dict[str, str] = {"sfp": DEFAULT_SFP_KERNEL, "sched": DEFAULT_SCHED_KERNEL}


def _lookup(table: Mapping[str, KernelT], family: str, name: str) -> KernelT:
    kernel = table.get(name)
    if kernel is None:
        raise ModelError(f"Unknown {family} kernel {name!r}; expected one of {list(table)}")
    return kernel


def get_kernel(name: str) -> SFPKernel:
    """The SFP backend instance of ``name``."""
    return _lookup(SFP_KERNELS, "SFP", name)


def get_sched_kernel(name: str) -> SchedulerKernel:
    """The scheduler backend instance of ``name``."""
    return _lookup(SCHED_KERNELS, "scheduler", name)


def active_kernel() -> SFPKernel:
    """The SFP backend of the current scope (the default outside any)."""
    return SFP_KERNELS[_SELECTED["sfp"]]


def active_sched_kernel() -> SchedulerKernel:
    """The scheduler backend of the current scope (the default outside any)."""
    return SCHED_KERNELS[_SELECTED["sched"]]


def resolve_kernel(kernel: Union[SFPKernel, str, None]) -> SFPKernel:
    """Normalize an explicit SFP selection (instance, name or ``None``)."""
    if kernel is None:
        return active_kernel()
    if isinstance(kernel, SFPKernel):
        return kernel
    return get_kernel(kernel)


def resolve_sched_kernel(
    kernel: Union[SchedulerKernel, str, None],
) -> SchedulerKernel:
    """Normalize an explicit scheduler selection (instance, name or ``None``)."""
    if kernel is None:
        return active_sched_kernel()
    if isinstance(kernel, SchedulerKernel):
        return kernel
    return get_sched_kernel(kernel)


def _selection_name(
    table: Mapping[str, KernelT], family: str, kernel: Union[KernelT, str]
) -> str:
    """Validate a ``use_kernel`` selection and return its backend name."""
    if isinstance(kernel, str):
        return _lookup(table, family, kernel).name
    if table.get(kernel.name) is not kernel:
        raise ModelError(
            f"use_kernel only accepts the table instances of the {family} "
            f"family (got a separately built {type(kernel).__name__!r}); "
            f"pass the name {kernel.name!r} instead"
        )
    return kernel.name


@contextmanager
def use_kernel(
    sfp: Union[SFPKernel, str, None] = None,
    sched: Union[SchedulerKernel, str, None] = None,
) -> Iterator[Tuple[SFPKernel, SchedulerKernel]]:
    """Scoped kernel selection over both families.

    Applies the requested backends (``None`` leaves that family's current
    selection untouched) and restores the previous selection on exit,
    *including* when the body raises.  Yields the pair of active instances
    ``(sfp_kernel, scheduler_kernel)`` inside the scope.

    With no arguments this is a pure snapshot/restore guard, which is what
    the test-suite's autouse fixture uses to eliminate cross-test leakage.
    A kernel *instance* is accepted only when it is the table instance of
    its name: activating a foreign instance by name would silently hand out
    a different object, so that is an error instead.
    """
    snapshot = dict(_SELECTED)
    selection = dict(snapshot)
    if sfp is not None:
        selection["sfp"] = _selection_name(SFP_KERNELS, "SFP", sfp)
    if sched is not None:
        selection["sched"] = _selection_name(SCHED_KERNELS, "scheduler", sched)
    _select(selection)
    try:
        yield active_kernel(), active_sched_kernel()
    finally:
        _select(snapshot)


def _select(selection: Mapping[str, str]) -> None:
    # Worker-local state: a pool worker enters its own scope (see
    # _init_worker in repro.experiments.synthetic), so each process scopes
    # its own selection and the parent never depends on the write.
    # repro-lint: disable=R007
    _SELECTED.update(selection)


# ----------------------------------------------------------------------
# The backend tables.  The imports live at the bottom so that a backend
# module importing back into this one (the scheduler backends pull in
# repro.scheduling, whose list scheduler resolves its kernel here) finds
# every function already defined.
# ----------------------------------------------------------------------
from repro.kernels.array_backend import ArrayKernel  # noqa: E402
from repro.kernels.reference import ReferenceKernel  # noqa: E402
from repro.kernels.sched_flat import FlatSchedulerKernel  # noqa: E402
from repro.kernels.sched_reference import ReferenceSchedulerKernel  # noqa: E402

#: SFP backends by name, the default first.
SFP_KERNELS: Dict[str, SFPKernel] = {
    kernel.name: kernel for kernel in (ArrayKernel(), ReferenceKernel())
}

#: Scheduler backends by name, the default first.
SCHED_KERNELS: Dict[str, SchedulerKernel] = {
    kernel.name: kernel for kernel in (FlatSchedulerKernel(), ReferenceSchedulerKernel())
}
