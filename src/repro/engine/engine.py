"""Memoized incremental evaluation engine for the DSE hot path.

One :class:`EvaluationEngine` is bound to a single ``(application, profile)``
context — the quantities that stay fixed while the design-space exploration
stack (:class:`~repro.core.design_strategy.DesignStrategy` →
:class:`~repro.core.mapping.MappingAlgorithm` →
:class:`~repro.core.redundancy.RedundancyOpt` → SFP /
:class:`~repro.scheduling.list_scheduler.ListScheduler`) varies architecture,
mapping and hardening.  The engine owns four memo tables:

``decisions``
    Full :class:`~repro.core.redundancy.RedundancyDecision` per design point,
    keyed by (evaluator signature, architecture, mapping, hardening vector).
    Hits skip the re-execution optimization *and* the list scheduler.
``optimizations``
    Outcome of a whole redundancy-optimizer run (Phase 1 + Phase 2, or a
    fixed-hardening baseline) per (optimizer signature, architecture,
    mapping).  Hits make revisited tabu-search moves free.
``exceedance`` / ``no_fault``
    Per-node SFP quantities keyed by the ordered tuple of per-process failure
    probabilities (which canonically encodes node type × hardening level ×
    mapped process multiset) plus the re-execution budget ``k``.  Changing one
    node's hardening or moving one process only invalidates — by key
    construction — the affected node(s).
``system``
    Formula (5) unions keyed by the ordered per-node exceedance tuple.

All memoized computations are deterministic pure functions of their keys, so
a warm engine returns bit-identical results to a cold one; this is asserted
by the equivalence test-suite.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple, Union

from repro.core.application import Application
from repro.core.profile import ExecutionProfile
from repro.engine.cache import MISS, CacheStats, MemoCache
from repro.engine.fingerprint import (
    context_fingerprint,
    stable_context_fingerprint,
)
from repro.kernels.base import SFPKernel
from repro.kernels.registry import active_sched_kernel, resolve_kernel
from repro.utils.rounding import DEFAULT_DECIMALS


class EvaluationEngine:
    """Memoization context for one (application, profile) exploration.

    The engine is intentionally dumb about *what* it caches: the redundancy
    and mapping layers build the keys (see :mod:`repro.engine.fingerprint`)
    and decide what to store.  The engine guarantees bookkeeping (hit/miss
    counters, evaluation counts) and context safety via :meth:`matches` —
    a consumer handed an engine for a different application/profile must
    bypass it.
    """

    def __init__(
        self,
        application: Application,
        profile: ExecutionProfile,
        decimals: int = DEFAULT_DECIMALS,
        kernel: Union[SFPKernel, str, None] = None,
    ) -> None:
        self.application = application
        self.profile = profile
        self.decimals = decimals
        #: SFP kernel backend computing cache misses.  Backends are
        #: bit-identical, so the kernel is *not* part of any memo key and
        #: cached entries stay valid across kernel switches.
        self.kernel = resolve_kernel(kernel)
        #: Lazily-computed context hashes (see :attr:`context` and
        #: :meth:`stable_context`) — ``None`` until first requested.
        self._context: Union[int, None] = None
        self._stable_context: Union[str, None] = None
        self.decisions = MemoCache("decisions")
        self.optimizations = MemoCache("optimizations")
        self.exceedance = MemoCache("exceedance")
        self.no_fault = MemoCache("no_fault")
        self.system = MemoCache("system_failure")
        #: Number of design points actually evaluated (decision-cache misses
        #: that ran the re-execution optimizer + scheduler).
        self.evaluations = 0

    # ------------------------------------------------------------------
    # context safety
    # ------------------------------------------------------------------
    @property
    def context(self) -> int:
        """Content hash of the bound context (diagnostics and reports).

        Computed on first access: the canonical encoding walks the whole
        application and profile, which is pure overhead on the DSE hot path
        (context safety uses identity, see :meth:`matches`).
        """
        if self._context is None:
            self._context = context_fingerprint(self.application, self.profile)
        return self._context

    def stable_context(self) -> str:
        """Cross-process content hash of the bound context, computed once.

        The application and profile are immutable for the engine's lifetime
        (the premise of every memo table), so the canonical encoding —
        which walks both structures in full — runs at most once per engine
        instead of once per store interaction (warm + persist + path).
        """
        if self._stable_context is None:
            self._stable_context = stable_context_fingerprint(
                self.application, self.profile
            )
        return self._stable_context

    def matches(self, application: Application, profile: ExecutionProfile) -> bool:
        """Is the engine bound to exactly this (application, profile) pair?

        Identity comparison keeps the check O(1) on the hot path; the content
        fingerprint exists for diagnostics and persisted artifacts.
        """
        return application is self.application and profile is self.profile

    # ------------------------------------------------------------------
    # incremental SFP layer
    # ------------------------------------------------------------------
    def node_no_fault(
        self, probabilities: Tuple[float, ...], decimals: int
    ) -> float:
        """Memoized formula (1) for one node's failure-probability tuple."""
        cache = self.no_fault
        key = (probabilities, decimals)
        value = cache.get(key)
        if value is MISS:
            value = cache.put(
                key, self.kernel.probability_no_fault(probabilities, decimals)
            )
        return value

    def node_exceedance(
        self, probabilities: Tuple[float, ...], reexecutions: int, decimals: int
    ) -> float:
        """Memoized formula (4) for one node.

        The probability tuple is kept in mapping order (not sorted): the DP
        accumulates floating-point sums whose last bits depend on the order,
        and bit-identical results with the unmemoized path are a hard
        requirement.
        """
        cache = self.exceedance
        key = (probabilities, reexecutions, decimals)
        value = cache.get(key)
        if value is MISS:
            value = cache.put(
                key,
                self.kernel.probability_exceeds(
                    probabilities, reexecutions, decimals
                ),
            )
        return value

    def system_failure(
        self, exceedances: Tuple[float, ...], decimals: int
    ) -> float:
        """Memoized formula (5) for an ordered per-node exceedance tuple."""
        cache = self.system
        key = (exceedances, decimals)
        value = cache.get(key)
        if value is MISS:
            value = cache.put(
                key, self.kernel.system_failure(exceedances, decimals)
            )
        return value

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def caches(self) -> Sequence[MemoCache]:
        return (
            self.decisions,
            self.optimizations,
            self.exceedance,
            self.no_fault,
            self.system,
        )

    @property
    def stats(self) -> CacheStats:
        """Aggregate hit/miss counters over all memo tables."""
        total = CacheStats()
        for cache in self.caches:
            total = total + cache.stats
        return total

    @property
    def disk_hits(self) -> int:
        """Hits served by entries preloaded from the persistent store."""
        return sum(cache.disk_hits for cache in self.caches)

    def stats_by_cache(self) -> Dict[str, Dict[str, float]]:
        return {cache.name: cache.stats.as_dict() for cache in self.caches}

    def report(self) -> Dict[str, object]:
        """JSON-friendly summary used by the CLI and benchmark artifacts.

        ``sched_kernel`` reports the active scheduler-kernel selection
        that computed this engine's decision-cache misses.  Like ``kernel``
        it is informational only: backends are bit-identical, so the choice
        can never affect a cached value.
        """
        total = self.stats
        return {
            "context": self.context,
            "evaluations": self.evaluations,
            "hits": total.hits,
            "misses": total.misses,
            "hit_rate": total.hit_rate,
            "disk_hits": self.disk_hits,
            "kernel": self.kernel.name,
            "sched_kernel": active_sched_kernel().name,
            "caches": self.stats_by_cache(),
        }

    def clear(self) -> None:
        """Drop all cached entries (counters are kept)."""
        for cache in self.caches:
            cache.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        total = self.stats
        return (
            f"EvaluationEngine(application={self.application.name!r}, "
            f"hits={total.hits}, misses={total.misses}, "
            f"evaluations={self.evaluations})"
        )
