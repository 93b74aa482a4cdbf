"""Property-based tests for task-graph construction: the cycle check.

``TaskGraph.add_message`` must accept an edge exactly when the graph stays
acyclic, and a rejected edge must leave every observable part of the graph
as it was.  The oracle here is a brute-force search over the accepted edges,
independent of the graph's own reachability code.
"""

from __future__ import annotations

from typing import Dict, List, Set

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.application import Message, Process, TaskGraph
from repro.core.exceptions import ModelError


def _path_exists(edges: Dict[str, Set[str]], start: str, target: str) -> bool:
    """Breadth-first search over an explicit edge table."""
    frontier: List[str] = [start]
    seen = {start}
    while frontier:
        following: List[str] = []
        for node in frontier:
            if node == target:
                return True
            for child in edges[node]:
                if child not in seen:
                    seen.add(child)
                    following.append(child)
        frontier = following
    return False


_sizes = st.integers(min_value=2, max_value=9)


@st.composite
def _edge_sequences(draw):
    size = draw(_sizes)
    pairs = st.tuples(
        st.integers(min_value=0, max_value=size - 1),
        st.integers(min_value=0, max_value=size - 1),
    ).filter(lambda pair: pair[0] != pair[1])
    return size, draw(st.lists(pairs, max_size=40))


class TestCycleCheck:
    @given(_edge_sequences())
    @settings(max_examples=200, deadline=None)
    def test_edge_accepted_iff_destination_does_not_reach_source(self, case):
        size, insertions = case
        names = [f"P{index}" for index in range(size)]
        graph = TaskGraph("G")
        for name in names:
            graph.add_process(Process(name))
        accepted: Dict[str, Set[str]] = {name: set() for name in names}
        for index, (i, j) in enumerate(insertions):
            source, destination = names[i], names[j]
            if destination in accepted[source]:
                continue  # duplicates are a different rejection
            creates_cycle = _path_exists(accepted, destination, source)
            messages = graph.messages
            token = graph.structure_token()
            order = graph.topological_order()
            try:
                graph.add_message(Message(f"m{index}", source, destination))
            except ModelError:
                assert creates_cycle
                assert graph.messages == messages
                assert graph.structure_token() == token
                assert graph.topological_order() == order
            else:
                assert not creates_cycle
                accepted[source].add(destination)

        order = graph.topological_order()
        assert sorted(order) == sorted(names)
        position = {name: rank for rank, name in enumerate(order)}
        for message in graph.messages:
            assert position[message.source] < position[message.destination]
        layer = {
            name: depth
            for depth, generation in enumerate(graph.topological_generations())
            for name in generation
        }
        for message in graph.messages:
            assert layer[message.source] < layer[message.destination]
