"""Kernel backend interface for the System Failure Probability analysis.

A *kernel* implements the three numeric primitives of Appendix A that sit on
the design-space-exploration hot path (see :mod:`repro.core.sfp` for the
formula numbering):

* :meth:`SFPKernel.probability_no_fault` — formula (1),
* :meth:`SFPKernel.probability_exceeds` — formula (4) via the single-pass
  complete-homogeneous-polynomial dynamic program,
* :meth:`SFPKernel.system_failure` — the formula (5) union.

The backend contract is **bit identity**: every kernel must return,
for every input, the exact same ``float`` as the ``reference`` backend (the
pure-Python implementation historically living in ``core/sfp.py``).  The
rounding direction (success probabilities down, failure probabilities up, on
the decimal grid of ``decimals`` digits) is part of the paper's pessimism
argument, so a backend is free to reorganize *how* it computes — vectorized
buffers, integer quanta arithmetic, batched rounding — but never *what* comes
out.  The property suite (``tests/property/test_kernel_equivalence.py``)
cross-checks the backends against the reference on randomized
inputs, and the golden acceptance fixtures pin the end-to-end sweep output,
so a drifting backend cannot land silently.

Kernels may keep preallocated work buffers between calls and are therefore
**not** thread-safe; the process-parallel sweep gives each worker its own
instances (module state is per process).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.utils.rounding import DEFAULT_DECIMALS


class SFPKernel:
    """Abstract SFP kernel backend.

    Subclasses set :attr:`name` (the ``--sfp-kernel`` identifier) and a
    one-line :attr:`description`.
    """

    #: Backend name, also accepted by ``--sfp-kernel``.
    name: str = ""
    #: One-line human description shown by the CLI/benchmark artifacts.
    description: str = ""

    # ------------------------------------------------------------------
    # the three SFP primitives — see core/sfp.py for formula semantics
    # ------------------------------------------------------------------
    def probability_no_fault(
        self,
        failure_probabilities: Sequence[float],
        decimals: int = DEFAULT_DECIMALS,
    ) -> float:
        """Formula (1): probability that none of the processes fails."""
        raise NotImplementedError

    def probability_exceeds(
        self,
        failure_probabilities: Sequence[float],
        reexecutions: int,
        decimals: int = DEFAULT_DECIMALS,
    ) -> float:
        """Formula (4): probability that more than ``reexecutions`` faults occur."""
        raise NotImplementedError

    def system_failure(
        self,
        per_node_exceedance: Sequence[float],
        decimals: int = DEFAULT_DECIMALS,
    ) -> float:
        """Formula (5): probability that at least one node exceeds its budget."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def batch_probability_exceeds(
        self,
        blocks: Sequence[Sequence[float]],
        reexecutions: Sequence[int],
        decimals: int = DEFAULT_DECIMALS,
    ) -> List[float]:
        """Formula (4) for a block of rows: one scalar call per row.

        ``blocks[i]`` is the ordered per-process failure-probability tuple of
        row ``i`` and ``reexecutions[i]`` its re-execution budget.  Returns
        one float per row, each bit-identical to the corresponding scalar
        :meth:`probability_exceeds` call.  No DSE layer calls it; it stays
        as the block entry point the ``perfbench`` tracer wraps by name.
        """
        return [
            self.probability_exceeds(probabilities, budget, decimals)
            for probabilities, budget in zip(blocks, reexecutions)
        ]

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
