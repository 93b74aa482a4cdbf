"""Kernel tables and selection: lookup, scoping, errors, known values."""

from __future__ import annotations

import pytest

from repro.comm.bus import SimpleBus
from repro.core.exceptions import ModelError
from repro.kernels import (
    DEFAULT_SCHED_KERNEL,
    DEFAULT_SFP_KERNEL,
    SCHED_KERNELS,
    SFP_KERNELS,
    ArrayKernel,
    FlatSchedulerKernel,
    ReferenceKernel,
    ReferenceSchedulerKernel,
    SchedulerKernel,
    SFPKernel,
    active_kernel,
    active_sched_kernel,
    get_kernel,
    get_sched_kernel,
    resolve_kernel,
    resolve_sched_kernel,
    use_kernel,
)


def test_each_family_has_its_fast_backend_and_the_reference():
    assert list(SFP_KERNELS) == ["array", "reference"]
    assert list(SCHED_KERNELS) == ["flat", "reference"]
    for table in (SFP_KERNELS, SCHED_KERNELS):
        for name, kernel in table.items():
            assert kernel.name == name


def test_defaults_are_the_fast_backends():
    assert DEFAULT_SFP_KERNEL == "array"
    assert DEFAULT_SCHED_KERNEL == "flat"
    assert isinstance(active_kernel(), ArrayKernel)
    assert isinstance(active_sched_kernel(), FlatSchedulerKernel)


def test_get_kernel_returns_singletons():
    assert get_kernel("array") is SFP_KERNELS["array"]
    assert get_kernel("reference") is get_kernel("reference")
    assert get_sched_kernel("flat") is SCHED_KERNELS["flat"]


@pytest.mark.parametrize("name", ["simd-on-a-toaster", "auto", "batch", ""])
def test_unknown_kernel_is_a_model_error(name):
    with pytest.raises(ModelError, match="Unknown SFP kernel"):
        get_kernel(name)
    with pytest.raises(ModelError, match="Unknown scheduler kernel"):
        get_sched_kernel(name)


def test_resolve_kernel_accepts_instance_name_and_none():
    instance = ArrayKernel()
    assert resolve_kernel(instance) is instance
    assert isinstance(resolve_kernel("reference"), ReferenceKernel)
    assert isinstance(resolve_kernel(None), SFPKernel)


# ----------------------------------------------------------------------
# Appendix A.2 worked values, per backend — small but absolute anchors.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["reference", "array"])
def test_appendix_a2_anchor_values(name):
    """The hand-computed SFP chain of the paper's Appendix A.2.

    Same inputs as ``tests/integration/test_appendix_sfp.py`` drives through
    the analysis layer; here each backend computes the primitives directly.
    """
    kernel = get_kernel(name)
    probabilities = [1.2e-5, 1.3e-5, 1.4e-5]
    # Exact decimal-grid values produced by the reference chain; pinned as
    # literals so a drifting backend fails loudly with the observed value.
    assert kernel.probability_no_fault(probabilities) == 0.9999610005
    assert kernel.probability_exceeds(probabilities, 0) == 3.89995e-05
    exceeds_one = kernel.probability_exceeds(probabilities, 1)
    assert exceeds_one == 1.03e-09
    union = kernel.system_failure([exceeds_one, exceeds_one])
    assert union >= exceeds_one


# ----------------------------------------------------------------------
# Scheduler kernel family
# ----------------------------------------------------------------------
def test_families_do_not_share_a_namespace():
    # "array" is an SFP kernel, "flat" a scheduler kernel; neither resolves
    # in the other family even though both tables hold a "reference".
    with pytest.raises(ModelError):
        get_sched_kernel("array")
    with pytest.raises(ModelError):
        get_kernel("flat")
    assert type(get_kernel("reference")) is ReferenceKernel
    assert type(get_sched_kernel("reference")) is ReferenceSchedulerKernel


def test_resolve_sched_kernel_accepts_instance_name_and_none():
    instance = FlatSchedulerKernel()
    assert resolve_sched_kernel(instance) is instance
    assert isinstance(resolve_sched_kernel("reference"), ReferenceSchedulerKernel)
    assert isinstance(resolve_sched_kernel(None), SchedulerKernel)


def test_flat_kernel_falls_back_to_reference_for_unknown_bus():
    """A Bus subclass with a custom policy must get the reference path."""

    class EveryOtherSlotBus(SimpleBus):
        """Doubles every window's start — not reproducible from flat tables."""

        def _find_window(self, sender_node, earliest_start, duration):
            return 2.0 * super()._find_window(sender_node, earliest_start, duration)

    from tests.conftest import build_diamond_application, uniform_profile_for
    from repro.core.architecture import Architecture, HVersion, Node, NodeType
    from repro.core.mapping_model import ProcessMapping
    from repro.scheduling.list_scheduler import ListScheduler

    application = build_diamond_application(message_time=2.0)
    node_types = [
        NodeType("TA", [HVersion(1, 1.0)]),
        NodeType("TB", [HVersion(1, 1.0)]),
    ]
    profile = uniform_profile_for(application, node_types)
    architecture = Architecture(
        [Node("NA", node_types[0]), Node("NB", node_types[1])]
    )
    mapping = ProcessMapping({"A": "NA", "B": "NB", "C": "NA", "D": "NB"})

    flat = ListScheduler(bus=EveryOtherSlotBus(), kernel="flat").schedule(
        application, architecture, mapping, profile
    )
    reference = ListScheduler(bus=EveryOtherSlotBus(), kernel="reference").schedule(
        application, architecture, mapping, profile
    )
    assert flat == reference
    # The custom policy actually fired (windows were doubled), so the flat
    # backend cannot have used its own SimpleBus gap search.
    assert flat.message_entry("mAB").start == 2.0 * 10.0


def test_flat_kernel_recompiles_after_in_place_profile_and_overhead_edits():
    """In-place WCET/mu edits must invalidate the flat kernel's compiled tables.

    Regression: the compiled cache was guarded by (structure, profile)
    identity only, so overwriting a profile entry or a recovery overhead
    replayed stale snapshot floats while the reference backend read the live
    objects.
    """
    from tests.conftest import build_diamond_application, uniform_profile_for
    from repro.core.architecture import Architecture, HVersion, Node, NodeType
    from repro.core.mapping_model import ProcessMapping
    from repro.scheduling.list_scheduler import ListScheduler

    application = build_diamond_application(message_time=2.0)
    node_types = [
        NodeType("TA", [HVersion(1, 1.0)]),
        NodeType("TB", [HVersion(1, 1.0)]),
    ]
    profile = uniform_profile_for(application, node_types)
    architecture = Architecture(
        [Node("NA", node_types[0]), Node("NB", node_types[1])]
    )
    mapping = ProcessMapping({"A": "NA", "B": "NB", "C": "NA", "D": "NB"})
    budgets = {"NA": 1, "NB": 1}

    flat = ListScheduler(kernel="flat")
    reference = ListScheduler(kernel="reference")
    assert flat.schedule(
        application, architecture, mapping, profile, budgets
    ) == reference.schedule(application, architecture, mapping, profile, budgets)

    # Overwrite one WCET in place: A now takes 30 ms instead of 10 ms on TA.
    profile.add_entry("A", "TA", 1, 30.0, 1e-6)
    after_wcet = flat.schedule(application, architecture, mapping, profile, budgets)
    assert after_wcet == reference.schedule(
        application, architecture, mapping, profile, budgets
    )
    assert after_wcet.entry("A").finish == 30.0

    # Edit a recovery overhead in place: slack must follow the live value.
    application.set_recovery_overhead("A", 50.0)
    after_mu = flat.schedule(application, architecture, mapping, profile, budgets)
    assert after_mu == reference.schedule(
        application, architecture, mapping, profile, budgets
    )
    assert after_mu.node_recovery_slack["NA"] == 30.0 + 50.0  # budget 1 × (t + mu)


# ----------------------------------------------------------------------
# Scoped selection: use_kernel
# ----------------------------------------------------------------------
class TestUseKernel:
    def test_scopes_both_families_and_restores(self):
        with use_kernel(sfp="reference", sched="reference") as (sfp, sched):
            assert isinstance(sfp, ReferenceKernel)
            assert isinstance(sched, ReferenceSchedulerKernel)
            assert isinstance(active_kernel(), ReferenceKernel)
            assert isinstance(active_sched_kernel(), ReferenceSchedulerKernel)
        assert isinstance(active_kernel(), ArrayKernel)
        assert isinstance(active_sched_kernel(), FlatSchedulerKernel)

    def test_none_leaves_the_current_selection_untouched(self):
        with use_kernel(sfp="reference"):
            with use_kernel(sched="reference") as (sfp, sched):
                assert isinstance(sfp, ReferenceKernel)  # outer scope decides SFP
                assert isinstance(sched, ReferenceSchedulerKernel)

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            with use_kernel(sfp="reference", sched="reference"):
                assert isinstance(active_kernel(), ReferenceKernel)
                raise RuntimeError("boom")
        assert isinstance(active_kernel(), ArrayKernel)
        assert isinstance(active_sched_kernel(), FlatSchedulerKernel)

    def test_invalid_name_leaves_state_untouched(self):
        with pytest.raises(ModelError):
            with use_kernel(sfp="no-such-backend"):
                pytest.fail("the scope body must not run")  # pragma: no cover
        assert isinstance(active_kernel(), ArrayKernel)

    def test_accepts_table_instances(self):
        with use_kernel(sfp=get_kernel("reference")) as (sfp, _):
            assert isinstance(sfp, ReferenceKernel)

    def test_rejects_foreign_instances(self):
        # A separately constructed object would be silently swapped for the
        # table instance of the same name; that must fail instead.
        with pytest.raises(ModelError, match="table instances"):
            with use_kernel(sfp=ReferenceKernel()):
                pytest.fail("the scope body must not run")  # pragma: no cover
        assert isinstance(active_kernel(), ArrayKernel)

    def test_nested_scopes_unwind_in_order(self):
        with use_kernel(sfp="reference"):
            with use_kernel(sfp="array"):
                assert isinstance(active_kernel(), ArrayKernel)
            assert isinstance(active_kernel(), ReferenceKernel)
        assert isinstance(active_kernel(), ArrayKernel)
