"""Unified heterogeneous program graph over an IrModule.

Control, variable and constant nodes; control, data and call edges.  One
control node per instruction, one variable node per SSA result and function
parameter, constant nodes deduplicated per function by (operand kind,
canonical text).  Calls to functions without a body keep the callee name in
the call node's token ("call:MPI_Barrier") instead of a call edge.  A node
is named by its index in `nodes`; a control node's incoming data edges are
in operand order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ircore import IrModule, OperandKind, UndefinedLocal, canonical_type, successors

# Node types, in the order the GNN draws, lists and pools them.
NODE_TYPES: tuple[str, ...] = ("control", "variable", "constant")

# The typed edges a graph may hold: (source node type, edge type, destination
# node type).  The GNN has one attention relation per entry, in this order.
RELATIONS: tuple[tuple[str, str, str], ...] = (
    ("control", "control", "control"),
    ("control", "call", "control"),
    ("variable", "data", "control"),
    ("constant", "data", "control"),
    ("control", "data", "variable"),
)


@dataclass
class GraphNode:
    node_type: str
    token: str


@dataclass
class GraphEdge:
    src: int
    dst: int
    edge_type: str


@dataclass
class ProgramGraph:
    nodes: list[GraphNode] = field(default_factory=list)
    edges: list[GraphEdge] = field(default_factory=list)


def build_graph(module: IrModule) -> ProgramGraph:
    """Construct the program graph; node/edge order is deterministic."""
    g = ProgramGraph()
    defined = {f.name for f in module.defined_functions()}
    entry_ids: dict[str, int] = {}                      # fn name -> entry control node
    ret_ids: dict[str, list[int]] = {}                  # fn name -> ret control nodes
    call_sites: list[tuple[int, str]] = []

    def add_node(node_type: str, token: str) -> int:
        g.nodes.append(GraphNode(node_type, token))
        return len(g.nodes) - 1

    for fn in module.defined_functions():
        # nodes: parameters first, then instructions in order with their
        # result variables, then constants in first-occurrence order
        values = {pid: add_node("variable", canonical_type(ptype))
                  for pid, ptype in fn.params}
        control: list[list[int]] = []                   # [block][instr] -> node
        for block in fn.blocks:
            control.append([])
            for instr in block.instructions:
                token = instr.opcode
                if instr.call_target is not None and instr.call_target not in defined \
                        and not instr.call_target.startswith("%"):
                    token = f"{instr.opcode}:{instr.call_target}"
                nid = add_node("control", token)
                control[-1].append(nid)
                if instr.opcode == "ret":
                    ret_ids.setdefault(fn.name, []).append(nid)
                if instr.result_id is not None:
                    values[instr.result_id] = add_node(
                        "variable", canonical_type(instr.type_str))
        entry_ids[fn.name] = control[0][0]
        consts: dict[tuple[str, str], int] = {}
        for block in fn.blocks:
            for instr in block.instructions:
                for op in instr.operands:
                    if op.kind in (OperandKind.CONSTANT, OperandKind.GLOBAL,
                                   OperandKind.FUNCTION):
                        key = (op.kind, op.token)
                        if key not in consts:
                            consts[key] = add_node("constant", "Constant")

        # edges: data edges in instruction/operand order, control edges
        # after each block; call edges come after every function
        label_to_index = {b.label: i for i, b in enumerate(fn.blocks)}
        for block, ids in zip(fn.blocks, control):
            for instr, nid in zip(block.instructions, ids):
                for op in instr.operands:
                    if op.kind == OperandKind.LABEL:
                        continue
                    if op.kind == OperandKind.LOCAL:
                        src = values.get(op.token)
                        if src is None:
                            raise UndefinedLocal(op.token)
                    else:
                        src = consts[(op.kind, op.token)]
                    g.edges.append(GraphEdge(src, nid, "data"))
                if instr.result_id is not None:
                    g.edges.append(GraphEdge(nid, values[instr.result_id], "data"))
                if instr.call_target is not None and instr.call_target in defined:
                    call_sites.append((nid, instr.call_target))
            # control edges: falls within the block, then branch targets
            for a, b in zip(ids, ids[1:]):
                g.edges.append(GraphEdge(a, b, "control"))
            for target in successors(block):
                g.edges.append(GraphEdge(ids[-1], control[label_to_index[target]][0],
                                         "control"))

    for site, callee in call_sites:
        g.edges.append(GraphEdge(site, entry_ids[callee], "call"))
        for ret_node in ret_ids.get(callee, []):
            g.edges.append(GraphEdge(ret_node, site, "call"))
    return g
