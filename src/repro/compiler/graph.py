"""DNN dataflow graphs.

A :class:`Graph` is a DAG of operators.  The frontend of an ML framework
produces one per model; our workload zoo (:mod:`repro.workloads`) builds
them programmatically.  The compiler passes (fusion, lowering) and the
profiler consume graphs in topological order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

from repro.compiler.operators import Operator
from repro.errors import CompileError


@dataclass
class GraphNode:
    """One operator instance in a graph."""

    node_id: int
    op: Operator
    inputs: List[int] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.op.name


class Graph:
    """A DAG of operators with insertion-order node ids.

    The common construction pattern is sequential chaining via
    :meth:`add` (each node depends on the previous one unless explicit
    ``inputs`` are given), which matches how layer-by-layer model
    definitions are written.
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._nodes: Dict[int, GraphNode] = {}
        self._next_id = 0
        self._last_id: Optional[int] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(
        self,
        op: Operator,
        inputs: Optional[Iterable[int]] = None,
        chain: bool = True,
    ) -> int:
        """Add an operator; returns its node id.

        With ``chain=True`` (default) and no explicit ``inputs``, the node
        depends on the most recently added node, building a pipeline.
        """
        if inputs is not None:
            input_ids = list(inputs)
        elif chain and self._last_id is not None:
            input_ids = [self._last_id]
        else:
            input_ids = []
        for dep in input_ids:
            if dep not in self._nodes:
                raise CompileError(f"unknown input node id {dep}")
        node_id = self._next_id
        self._next_id += 1
        self._nodes[node_id] = GraphNode(node_id=node_id, op=op, inputs=input_ids)
        self._last_id = node_id
        return node_id

    def remove(self, node_id: int) -> None:
        if node_id not in self._nodes:
            raise CompileError(f"unknown node id {node_id}")
        for node in self._nodes.values():
            if node_id in node.inputs:
                raise CompileError(f"node {node_id} still has consumers")
        del self._nodes[node_id]
        if self._last_id == node_id:
            self._last_id = max(self._nodes) if self._nodes else None

    def rewire(self, node_id: int, new_inputs: List[int]) -> None:
        node = self.node(node_id)
        for dep in new_inputs:
            if dep not in self._nodes:
                raise CompileError(f"unknown input node id {dep}")
        node.inputs = list(new_inputs)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> GraphNode:
        if node_id not in self._nodes:
            raise CompileError(f"unknown node id {node_id}")
        return self._nodes[node_id]

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[GraphNode]:
        return iter(self._nodes.values())

    def consumers(self, node_id: int) -> List[int]:
        return [n.node_id for n in self._nodes.values() if node_id in n.inputs]

    # ------------------------------------------------------------------
    # Topological order + validation
    # ------------------------------------------------------------------
    def topo_order(self) -> List[GraphNode]:
        """Kahn's algorithm, first in first out from the input-free
        nodes in id order, each node's consumers in id order; raises on
        cycles.  Linear in nodes plus edges: the consumer lists are
        built once, and each node counts down its distinct inputs, so it
        is queued once, when the last of them is placed."""
        nodes = self._nodes
        ids = sorted(nodes)
        consumers: Dict[int, List[int]] = {}
        waiting: Dict[int, int] = {}
        for nid in ids:
            deps = set(nodes[nid].inputs)
            waiting[nid] = len(deps)
            for dep in deps:
                consumers.setdefault(dep, []).append(nid)
        ready = deque(nid for nid in ids if not waiting[nid])
        order: List[GraphNode] = []
        while ready:
            nid = ready.popleft()
            order.append(nodes[nid])
            for consumer in consumers.get(nid, ()):
                waiting[consumer] -= 1
                if waiting[consumer] == 0:
                    ready.append(consumer)
        if len(order) != len(nodes):
            raise CompileError(f"graph {self.name!r} contains a cycle")
        return order

    def validate(self) -> None:
        self.topo_order()

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def total_flops(self) -> float:
        return sum(node.op.flops for node in self._nodes.values())

    @property
    def total_hbm_bytes(self) -> float:
        return sum(node.op.hbm_bytes for node in self._nodes.values())

    def count_me_ops(self) -> int:
        return sum(1 for node in self._nodes.values() if node.op.is_me_op)

    def count_ve_ops(self) -> int:
        return sum(1 for node in self._nodes.values() if not node.op.is_me_op)
