"""Unit tests for the application model (processes, messages, task graphs)."""

from __future__ import annotations

import hashlib
from typing import Dict

import pytest

from repro.core.application import (
    ONE_HOUR_MS,
    Application,
    Message,
    Process,
    TaskGraph,
    build_chain_application,
)
from repro.core.exceptions import ModelError
from repro.generator.benchmark import BenchmarkConfig, generate_benchmark


class TestProcess:
    def test_basic_construction(self):
        process = Process("P1", nominal_wcet=12.5)
        assert process.name == "P1"
        assert process.nominal_wcet == 12.5

    def test_empty_name_rejected(self):
        with pytest.raises(ModelError):
            Process("")

    def test_non_positive_wcet_rejected(self):
        with pytest.raises(ValueError):
            Process("P1", nominal_wcet=0.0)

    def test_is_frozen(self):
        process = Process("P1")
        with pytest.raises(AttributeError):
            process.name = "P2"  # type: ignore[misc]


class TestMessage:
    def test_basic_construction(self):
        message = Message("m1", "P1", "P2", transmission_time=3.0)
        assert message.source == "P1"
        assert message.destination == "P2"
        assert message.transmission_time == 3.0

    def test_self_loop_rejected(self):
        with pytest.raises(ModelError):
            Message("m1", "P1", "P1")

    def test_negative_transmission_time_rejected(self):
        with pytest.raises(ValueError):
            Message("m1", "P1", "P2", transmission_time=-1.0)

    def test_empty_name_rejected(self):
        with pytest.raises(ModelError):
            Message("", "P1", "P2")


class TestTaskGraph:
    def _chain(self) -> TaskGraph:
        graph = TaskGraph("G")
        graph.add_process(Process("A", nominal_wcet=5.0))
        graph.add_process(Process("B", nominal_wcet=10.0))
        graph.add_process(Process("C", nominal_wcet=15.0))
        graph.add_message(Message("m1", "A", "B", transmission_time=1.0))
        graph.add_message(Message("m2", "B", "C", transmission_time=2.0))
        return graph

    def test_duplicate_process_rejected(self):
        graph = TaskGraph("G")
        graph.add_process(Process("A"))
        with pytest.raises(ModelError):
            graph.add_process(Process("A"))

    def test_message_with_unknown_endpoint_rejected(self):
        graph = TaskGraph("G")
        graph.add_process(Process("A"))
        with pytest.raises(ModelError):
            graph.add_message(Message("m1", "A", "missing"))

    def test_duplicate_edge_rejected(self):
        graph = self._chain()
        with pytest.raises(ModelError):
            graph.add_message(Message("dup", "A", "B"))

    def test_cycle_rejected_and_rolled_back(self):
        graph = self._chain()
        graph.topological_order()  # fill the structure caches
        messages = graph.messages
        token = graph.structure_token()
        adjacency = {name: graph.successors(name) for name in graph.process_names}
        for source, destination in (("C", "A"), ("B", "A"), ("C", "B")):
            with pytest.raises(ModelError, match="would create a cycle"):
                graph.add_message(Message("back", source, destination))
        # The rejected edges must not linger in the graph or its caches.
        assert graph.message_between("C", "A") is None
        assert graph.messages == messages
        assert graph.structure_token() == token
        assert {name: graph.successors(name) for name in graph.process_names} == adjacency
        assert graph.topological_order() == ["A", "B", "C"]

    def test_sources_and_sinks(self):
        graph = self._chain()
        assert graph.sources() == ["A"]
        assert graph.sinks() == ["C"]

    def test_topological_order_respects_dependencies(self):
        graph = self._chain()
        order = graph.topological_order()
        assert order.index("A") < order.index("B") < order.index("C")

    def test_predecessors_and_successors(self):
        graph = self._chain()
        assert graph.predecessors("B") == ["A"]
        assert graph.successors("B") == ["C"]

    def test_incoming_and_outgoing_messages(self):
        graph = self._chain()
        assert [m.name for m in graph.incoming_messages("C")] == ["m2"]
        assert [m.name for m in graph.outgoing_messages("A")] == ["m1"]

    def test_critical_path_with_messages(self):
        graph = self._chain()
        length = graph.critical_path_length(
            lambda name: graph.process(name).nominal_wcet, include_messages=True
        )
        assert length == pytest.approx(5 + 1 + 10 + 2 + 15)

    def test_critical_path_without_messages(self):
        graph = self._chain()
        length = graph.critical_path_length(
            lambda name: graph.process(name).nominal_wcet, include_messages=False
        )
        assert length == pytest.approx(30.0)

    def test_downward_rank_of_source_equals_critical_path(self):
        graph = self._chain()
        ranks = graph.downward_rank(
            lambda name: graph.process(name).nominal_wcet, include_messages=True
        )
        assert ranks["A"] == pytest.approx(33.0)
        assert ranks["C"] == pytest.approx(15.0)

    def test_unknown_process_lookup_raises(self):
        graph = self._chain()
        with pytest.raises(ModelError):
            graph.process("missing")

    def test_len_and_contains(self):
        graph = self._chain()
        assert len(graph) == 3
        assert "A" in graph
        assert "missing" not in graph

    def test_back_edge_on_a_long_chain_is_rejected_without_recursion(self):
        length = 5000
        application = build_chain_application(
            "chain", [1.0] * length, deadline=10.0, reliability_goal=0.99,
            recovery_overhead=0.0,
        )
        graph = application.graphs[0]
        with pytest.raises(ModelError, match="would create a cycle"):
            graph.add_message(Message("back", f"P{length}", "P1"))
        assert len(graph.messages) == length - 1
        assert graph.topological_order() == [f"P{index}" for index in range(1, length + 1)]


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _ordering_digests(graph: TaskGraph) -> Dict[str, str]:
    names = graph.process_names
    return {
        "topological_order": _digest(graph.topological_order()),
        "topological_generations": _digest(
            " ".join(generation) for generation in graph.topological_generations()
        ),
        "predecessors": _digest(
            f"{name}:{','.join(graph.predecessors(name))}" for name in names
        ),
        "successors": _digest(
            f"{name}:{','.join(graph.successors(name))}" for name in names
        ),
    }


#: sha256 of the orders reported for generated graphs, keyed by
#: ``(seed, n_processes)``.  The mapping heuristics, the scheduling
#: priorities and the flat scheduler all iterate in these orders, so any
#: change here changes design points.  These are fixed data, captured once
#: from an independent graph library; never regenerate them from the code
#: under test.
_GENERATED_ORDER_DIGESTS = {
    (1, 40): {
        "topological_order": (
            "d1de6d00c6e195e02c164690104dd78d2f9bb1573f32207809ae3356e085c656"
        ),
        "topological_generations": (
            "1656c2146bd78a9bc7a2932b226137b0619fbcf4f6efca057024142034269d5a"
        ),
        "predecessors": (
            "fc1a7b945f2952231c1708758b5d9ea8662eb02745643a7980448ba012492808"
        ),
        "successors": (
            "8b4540d79447160230be70f080ec242934c5241c0de33d7139590e9597e8d397"
        ),
    },
    (2, 40): {
        "topological_order": (
            "bb58ab10bf4da0496b3bf178f80687e091e19ec56a94563a6a66afc1ef89c16f"
        ),
        "topological_generations": (
            "e89f5bfd2f693c073cdb53df424f0d477b2545cd23f94080ccdeb1aa5f0b6f7e"
        ),
        "predecessors": (
            "9cd326accadbc74fceae1c288e9ab7f92414e2fa39711398a5384dbaae2f3878"
        ),
        "successors": (
            "82af24b79a752bd2f9d75d0cef22a503564ce67b1eed3f413b37d60272ea9c5f"
        ),
    },
    (3, 40): {
        "topological_order": (
            "c0c3641101d0e7e1f109c4fc5eeb9b82abd2c0807c7d64329d195381dfdb9b5c"
        ),
        "topological_generations": (
            "488990a897cf3e754be4c66e0616ec1b0fa054eede935a12ed7511ba04446eef"
        ),
        "predecessors": (
            "919f03a1f94a92a68f033a40861e574cd2937215550c1198b1756d83f8b4efe8"
        ),
        "successors": (
            "fd8830096208c8a4fc649c0ec60351a59d0055fe983acc40a1ebbc0852bda885"
        ),
    },
    (4, 40): {
        "topological_order": (
            "2b6eb86783341d878bd0bf1e7010d3483628827287c43a43eb88cc985c157644"
        ),
        "topological_generations": (
            "9e851b07c0b3338c50c1f1d01efe5dd35c3a8a74f9ba05bc65bc1969af928f0e"
        ),
        "predecessors": (
            "eef96ace8a20dfd3da989ad168b65709373e95e890fd4bdd189c95dc3f34e715"
        ),
        "successors": (
            "09691c9c0f6db59525a41aac30b3353be709b507566f16836e44a311d2de4547"
        ),
    },
    (5, 40): {
        "topological_order": (
            "ae2193017f0a66dd0a3a8937a9da7fed8d3a5139f95418d11d94766ac119f001"
        ),
        "topological_generations": (
            "c082b6b7627a05f16934820e675ffed3f055368f35150f4704483d75eb805692"
        ),
        "predecessors": (
            "7842c2e0e265658d6ce1bf657ec2b240d8c9259dafe9475e9eaf0c8f21ffa698"
        ),
        "successors": (
            "301d0837786da648ea2bb3a8e91442c3bbaeec9fe430b9f9ca5fd68af6da666e"
        ),
    },
    (7, 400): {
        "topological_order": (
            "ac315ef62b10873fa296cb2a20e4dbdfdd9671a903549ce293ed84ca9edf026a"
        ),
        "topological_generations": (
            "d7865fd38ba233cfee15e3e12d81076172f7be8a330f95a4e332b5b6d3b54b15"
        ),
        "predecessors": (
            "621ac79c11f7857695d9eee7fb361b5b1b69f21ec4f6714e576b0f18e7da7cee"
        ),
        "successors": (
            "6419a3966fb09242263ec8adada9a278eaeeb3bbf98fccecb2e5867bd6ceafeb"
        ),
    },
}


class TestTaskGraphOrdering:
    """Every order the graph reports is pinned as literal expected data."""

    @pytest.mark.parametrize("seed, n_processes", sorted(_GENERATED_ORDER_DIGESTS))
    def test_generated_graph_orders_are_pinned(self, seed, n_processes):
        benchmark = generate_benchmark(
            seed, config=BenchmarkConfig(n_processes=n_processes)
        )
        graph = benchmark.application.graphs[0]
        assert _ordering_digests(graph) == _GENERATED_ORDER_DIGESTS[(seed, n_processes)]

    def _rewired(self) -> TaskGraph:
        graph = TaskGraph("G")
        for name in ["E", "A", "D", "B", "C", "F"]:
            graph.add_process(Process(name))
        edges = [("A", "B"), ("A", "C"), ("A", "D"), ("E", "D"),
                 ("B", "F"), ("C", "F"), ("D", "F")]
        for index, (source, destination) in enumerate(edges):
            graph.add_message(Message(f"m{index}", source, destination))
        graph.remove_message("A", "B")
        graph.add_message(Message("m7", "A", "B"))
        graph.remove_message("C", "F")
        graph.add_message(Message("m8", "C", "F"))
        graph.remove_message("E", "D")
        graph.add_message(Message("m9", "E", "B"))
        return graph

    def test_rewired_graph_orders_are_pinned(self):
        graph = self._rewired()
        assert graph.topological_order() == ["E", "A", "C", "D", "B", "F"]
        assert graph.topological_generations() == [["A", "E"], ["B", "C", "D"], ["F"]]
        assert {name: graph.predecessors(name) for name in graph.process_names} == (
            {"E": [], "A": [], "D": ["A"], "B": ["A", "E"], "C": ["A"], "F": ["B", "D", "C"]}
        )
        assert {name: graph.successors(name) for name in graph.process_names} == (
            {"E": ["B"], "A": ["C", "D", "B"], "D": ["F"], "B": ["F"], "C": ["F"], "F": []}
        )
        assert graph.sources() == ["E", "A"]
        assert graph.sinks() == ["F"]
        assert [m.name for m in graph.incoming_messages("F")] == ["m4", "m6", "m8"]
        assert [m.name for m in graph.outgoing_messages("A")] == ["m1", "m2", "m7"]

    def test_rewire_invalidates_cached_orders(self):
        graph = self._rewired()
        assert graph.topological_order() == ["E", "A", "C", "D", "B", "F"]
        graph.remove_message("A", "C")
        graph.add_message(Message("m10", "A", "C"))
        assert graph.successors("A") == ["D", "B", "C"]
        assert graph.topological_order() == ["E", "A", "D", "B", "C", "F"]


class TestApplication:
    def test_gamma_and_iterations(self):
        application = Application("app", deadline=100.0, reliability_goal=1 - 1e-5)
        assert application.gamma == pytest.approx(1e-5)
        assert application.iterations_per_time_unit == pytest.approx(ONE_HOUR_MS / 100.0)

    def test_period_defaults_to_deadline(self):
        application = Application("app", deadline=250.0, reliability_goal=0.999)
        assert application.period == 250.0

    def test_duplicate_graph_rejected(self):
        application = Application("app", deadline=10.0, reliability_goal=0.99)
        application.new_graph("G")
        with pytest.raises(ModelError):
            application.new_graph("G")

    def test_duplicate_process_across_graphs_rejected(self):
        application = Application("app", deadline=10.0, reliability_goal=0.99)
        first = application.new_graph("G1")
        first.add_process(Process("P1"))
        second = TaskGraph("G2")
        second.add_process(Process("P1"))
        with pytest.raises(ModelError):
            application.add_graph(second)

    def test_recovery_overhead_override(self):
        application = Application(
            "app", deadline=10.0, reliability_goal=0.99, recovery_overhead=2.0
        )
        graph = application.new_graph("G")
        graph.add_process(Process("P1"))
        graph.add_process(Process("P2"))
        application.set_recovery_overhead("P1", 0.5)
        assert application.recovery_overhead_of("P1") == 0.5
        assert application.recovery_overhead_of("P2") == 2.0

    def test_recovery_overhead_for_unknown_process_rejected(self):
        application = Application("app", deadline=10.0, reliability_goal=0.99)
        application.new_graph("G").add_process(Process("P1"))
        with pytest.raises(ModelError):
            application.set_recovery_overhead("missing", 1.0)

    def test_recovery_overhead_sees_processes_added_later(self):
        application = Application("app", deadline=10.0, reliability_goal=0.99)
        graph = application.new_graph("G")
        graph.add_process(Process("P1"))
        application.set_recovery_overhead("P1", 1.0)
        with pytest.raises(ModelError, match="unknown process P2"):
            application.set_recovery_overhead("P2", 1.0)
        graph.add_process(Process("P2"))
        application.set_recovery_overhead("P2", 0.5)
        assert application.recovery_overhead_of("P2") == 0.5

    def test_process_lookup_across_graphs(self):
        application = Application("app", deadline=10.0, reliability_goal=0.99)
        application.new_graph("G1").add_process(Process("P1"))
        application.new_graph("G2").add_process(Process("P2"))
        assert application.process("P2").name == "P2"
        assert application.graph_of("P1").name == "G1"
        assert application.number_of_processes() == 2

    def test_unknown_process_raises(self):
        application = Application("app", deadline=10.0, reliability_goal=0.99)
        application.new_graph("G")
        with pytest.raises(ModelError):
            application.process("nope")

    def test_validate_rejects_empty_application(self):
        application = Application("app", deadline=10.0, reliability_goal=0.99)
        with pytest.raises(ModelError):
            application.validate()

    def test_validate_accepts_fig1(self, fig1_app):
        fig1_app.validate()

    def test_invalid_reliability_goal_rejected(self):
        with pytest.raises(ValueError):
            Application("app", deadline=10.0, reliability_goal=1.5)

    def test_messages_listing(self, fig1_app):
        names = {message.name for message in fig1_app.messages()}
        assert names == {"m1", "m2", "m3", "m4"}


class TestBuildChainApplication:
    def test_chain_structure(self):
        application = build_chain_application(
            "chain", [5.0, 6.0, 7.0], deadline=100.0, reliability_goal=0.999,
            recovery_overhead=1.0, message_time=0.5,
        )
        graph = application.graphs[0]
        assert len(graph) == 3
        assert graph.sources() == ["P1"]
        assert graph.sinks() == ["P3"]
        assert graph.message_between("P1", "P2") is not None
        assert graph.message_between("P2", "P3") is not None

    def test_single_process_chain_has_no_messages(self):
        application = build_chain_application(
            "chain", [5.0], deadline=10.0, reliability_goal=0.99, recovery_overhead=0.0
        )
        assert application.messages() == []


class TestStructureToken:
    """The structural token guards memoized derived structure downstream."""

    def _chain(self) -> TaskGraph:
        graph = TaskGraph("G")
        graph.add_process(Process("A", nominal_wcet=5.0))
        graph.add_process(Process("B", nominal_wcet=10.0))
        graph.add_process(Process("C", nominal_wcet=15.0))
        graph.add_message(Message("m1", "A", "B", transmission_time=1.0))
        graph.add_message(Message("m2", "B", "C", transmission_time=2.0))
        return graph

    def test_token_stable_without_mutation(self):
        graph = self._chain()
        assert graph.structure_token() == graph.structure_token()

    def test_count_preserving_rewire_changes_token(self):
        graph = self._chain()
        before = graph.structure_token()
        graph.remove_message("B", "C")
        graph.add_message(Message("m2", "A", "C", transmission_time=2.0))
        assert len(graph.messages) == 2  # counts unchanged...
        assert graph.structure_token() != before  # ...token not

    def test_renamed_message_changes_token(self):
        graph = self._chain()
        before = graph.structure_token()
        graph.remove_message("A", "B")
        graph.add_message(Message("m1-renamed", "A", "B", transmission_time=1.0))
        assert graph.structure_token() != before

    def test_changed_transmission_time_changes_token(self):
        graph = self._chain()
        before = graph.structure_token()
        graph.remove_message("A", "B")
        graph.add_message(Message("m1", "A", "B", transmission_time=3.0))
        assert graph.structure_token() != before

    def test_remove_message_unknown_edge_raises(self):
        graph = self._chain()
        with pytest.raises(ModelError, match="No message from"):
            graph.remove_message("A", "C")

    def test_removed_edge_restores_schedulability_queries(self):
        graph = self._chain()
        removed = graph.remove_message("B", "C")
        assert removed.name == "m2"
        assert graph.incoming_messages("C") == []
        assert "C" in graph.sources() or graph.predecessors("C") == []

    def test_application_token_covers_all_graphs(self):
        application = Application(
            "app", deadline=100.0, reliability_goal=0.99, recovery_overhead=1.0
        )
        first = application.new_graph("G1")
        first.add_process(Process("A", nominal_wcet=5.0))
        before = application.structure_token()
        second = application.new_graph("G2")
        second.add_process(Process("B", nominal_wcet=5.0))
        mid = application.structure_token()
        assert mid != before
        second.add_process(Process("C", nominal_wcet=5.0))
        second.add_message(Message("m", "B", "C", transmission_time=1.0))
        assert application.structure_token() != mid
