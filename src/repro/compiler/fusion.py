"""Operator fusion pass.

ML compilers fuse ME operators with their elementwise epilogues
(MatMul+ReLU, Conv+bias+activation) so the VE post-processing pipelines
with the systolic-array drain (paper Figs. 6/8).  The paper notes that
"such fusion opportunities are limited" -- most operators keep imbalanced
ME/VE demands even after fusion -- so this pass is deliberately
conservative:

- only a ``MatMul``/``Conv2D`` followed by a single-consumer, arity-1
  ``Elementwise`` of exactly matching size is fused;
- at most :data:`MAX_EPILOGUE_OPS` elementwise ops are folded per ME op.
"""

from __future__ import annotations

from repro.compiler.graph import Graph
from repro.compiler.operators import Conv2D, Elementwise, MatMul


#: Maximum elementwise operations folded into one ME operator's epilogue.
MAX_EPILOGUE_OPS = 2


def _output_elements(op) -> int:
    if isinstance(op, MatMul):
        return op.output_elements
    if isinstance(op, Conv2D):
        return op.output_elements
    return 0


def fuse_graph(graph: Graph) -> int:
    """Fuse eligible elementwise consumers into ME-op epilogues, in
    place.  Returns the number of operators fused away."""
    fused = 0
    changed = True
    while changed:
        changed = False
        for node in list(graph):
            op = node.op
            if not isinstance(op, (MatMul, Conv2D)):
                continue
            if len(op.epilogue) >= MAX_EPILOGUE_OPS:
                continue
            consumers = graph.consumers(node.node_id)
            if len(consumers) != 1:
                continue
            consumer = graph.node(consumers[0])
            eltwise = consumer.op
            if not isinstance(eltwise, Elementwise):
                continue
            if eltwise.arity != 1:
                continue
            if eltwise.elements != _output_elements(op):
                continue
            # Fold: the ME op absorbs the elementwise kind, downstream
            # nodes re-point to the ME op.
            op.epilogue.append(eltwise.kind)
            for grandchild_id in graph.consumers(consumer.node_id):
                grandchild = graph.node(grandchild_id)
                new_inputs = [
                    node.node_id if dep == consumer.node_id else dep
                    for dep in grandchild.inputs
                ]
                graph.rewire(grandchild_id, new_inputs)
            graph.remove(consumer.node_id)
            fused += 1
            changed = True
            break
    return fused
