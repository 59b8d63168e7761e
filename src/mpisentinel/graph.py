"""Unified heterogeneous program graph over an IrModule.

Control, variable and constant nodes; control, data and call edges.  One
control node per instruction, one variable node per SSA result and function
parameter, constant nodes deduplicated per function by (operand kind,
canonical text).  Calls to functions without a body keep the callee name in
the call node's token ("call:MPI_Barrier") instead of a call edge.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .ircore import IrModule, OperandKind, UndefinedLocal, canonical_type, successors


class NodeType(enum.Enum):
    CONTROL = "control"
    VARIABLE = "variable"
    CONSTANT = "constant"


class EdgeType(enum.Enum):
    CONTROL = "control"
    DATA = "data"
    CALL = "call"


@dataclass
class GraphNode:
    id: int
    node_type: NodeType
    token: str


@dataclass
class GraphEdge:
    src: int
    dst: int
    edge_type: EdgeType
    position: int = 0


@dataclass
class ProgramGraph:
    nodes: list[GraphNode] = field(default_factory=list)
    edges: list[GraphEdge] = field(default_factory=list)


# The typed edges a graph may hold: (source node type, edge type, destination
# node type).  The GNN has one attention relation per entry, in this order.
RELATIONS: tuple[tuple[str, str, str], ...] = (
    ("control", "control", "control"),
    ("control", "call", "control"),
    ("variable", "data", "control"),
    ("constant", "data", "control"),
    ("control", "data", "variable"),
)


@dataclass(frozen=True)
class Violation:
    rule: str
    message: str


def build_graph(module: IrModule) -> ProgramGraph:
    """Construct the program graph; node/edge order is deterministic."""
    g = ProgramGraph()
    defined = {f.name for f in module.defined_functions()}
    entry_ids: dict[str, int] = {}                      # fn name -> entry control node
    ret_ids: dict[str, list[int]] = {}                  # fn name -> ret control nodes
    call_sites: list[tuple[int, str]] = []

    def add_node(node_type: NodeType, token: str) -> int:
        nid = len(g.nodes)
        g.nodes.append(GraphNode(nid, node_type, token))
        return nid

    for fn in module.defined_functions():
        # nodes: parameters first, then instructions in order with their
        # result variables, then constants in first-occurrence order
        values = {pid: add_node(NodeType.VARIABLE, canonical_type(ptype))
                  for pid, ptype in fn.params}
        control: list[list[int]] = []                   # [block][instr] -> node
        for block in fn.blocks:
            control.append([])
            for instr in block.instructions:
                token = instr.opcode
                if instr.call_target is not None and instr.call_target not in defined \
                        and not instr.call_target.startswith("%"):
                    token = f"{instr.opcode}:{instr.call_target}"
                nid = add_node(NodeType.CONTROL, token)
                control[-1].append(nid)
                if instr.opcode == "ret":
                    ret_ids.setdefault(fn.name, []).append(nid)
                if instr.result_id is not None:
                    values[instr.result_id] = add_node(
                        NodeType.VARIABLE, canonical_type(instr.type_str))
        entry_ids[fn.name] = control[0][0]
        consts: dict[tuple[str, str], int] = {}
        for block in fn.blocks:
            for instr in block.instructions:
                for op in instr.operands:
                    if op.kind in (OperandKind.CONSTANT, OperandKind.GLOBAL,
                                   OperandKind.FUNCTION):
                        key = (op.kind.value, op.token)
                        if key not in consts:
                            consts[key] = add_node(NodeType.CONSTANT, "Constant")

        # edges: data edges in instruction/operand order, control edges
        # after each block; call edges come after every function
        label_to_index = {b.label: i for i, b in enumerate(fn.blocks)}
        for block, ids in zip(fn.blocks, control):
            for instr, nid in zip(block.instructions, ids):
                ordinal = 0
                for op in instr.operands:
                    if op.kind is OperandKind.LABEL:
                        continue
                    if op.kind is OperandKind.LOCAL:
                        src = values.get(op.token)
                        if src is None:
                            raise UndefinedLocal(op.token)
                    else:
                        src = consts[(op.kind.value, op.token)]
                    g.edges.append(GraphEdge(src, nid, EdgeType.DATA, ordinal))
                    ordinal += 1
                if instr.result_id is not None:
                    g.edges.append(GraphEdge(
                        nid, values[instr.result_id], EdgeType.DATA, 0))
                if instr.call_target is not None and instr.call_target in defined:
                    call_sites.append((nid, instr.call_target))
            # control edges: falls within the block, then branch targets
            for a, b in zip(ids, ids[1:]):
                g.edges.append(GraphEdge(a, b, EdgeType.CONTROL, 0))
            for k, target in enumerate(successors(block)):
                g.edges.append(GraphEdge(ids[-1], control[label_to_index[target]][0],
                                         EdgeType.CONTROL, k))

    ret_out: dict[int, int] = {}
    for site, callee in call_sites:
        g.edges.append(GraphEdge(site, entry_ids[callee], EdgeType.CALL, 0))
        for ret_node in ret_ids.get(callee, []):
            k = ret_out.get(ret_node, 0)
            g.edges.append(GraphEdge(ret_node, site, EdgeType.CALL, k))
            ret_out[ret_node] = k + 1
    return g


def validate_graph(g: ProgramGraph) -> list[Violation]:
    """Check the typed-edge rules, id contiguity and position consistency."""
    out: list[Violation] = []
    ids = [n.id for n in g.nodes]
    if ids != list(range(len(g.nodes))):
        out.append(Violation("id-contiguity",
                             f"node ids are not 0..{len(g.nodes) - 1}: {ids[:8]}..."))
        return out
    by_id = g.nodes
    for e in g.edges:
        if not (0 <= e.src < len(by_id)) or not (0 <= e.dst < len(by_id)):
            out.append(Violation("edge-endpoint",
                                 f"edge {e.src}->{e.dst} references a missing node"))
            continue
        src_t, dst_t = by_id[e.src].node_type.value, by_id[e.dst].node_type.value
        if (src_t, e.edge_type.value, dst_t) not in RELATIONS:
            out.append(Violation(
                "typed-edge",
                f"{e.edge_type.value} edge {e.src}->{e.dst} connects {src_t}->{dst_t}"))
    if out:
        return out
    # variable nodes: at most one defining data edge
    var_in: dict[int, int] = {}
    for e in g.edges:
        if e.edge_type is EdgeType.DATA and by_id[e.dst].node_type is NodeType.VARIABLE:
            var_in[e.dst] = var_in.get(e.dst, 0) + 1
    for nid, cnt in var_in.items():
        if cnt > 1:
            out.append(Violation("variable-def",
                                 f"variable node {nid} has {cnt} defining data edges"))
    # positions: control/call edges stay below the source's typed out-degree;
    # data edges into a control node number its inputs 0..k-1
    out_deg: dict[tuple[int, EdgeType], int] = {}
    for e in g.edges:
        if e.edge_type in (EdgeType.CONTROL, EdgeType.CALL):
            out_deg[(e.src, e.edge_type)] = out_deg.get((e.src, e.edge_type), 0) + 1
    for e in g.edges:
        if e.edge_type in (EdgeType.CONTROL, EdgeType.CALL):
            if e.position >= out_deg[(e.src, e.edge_type)]:
                out.append(Violation(
                    "edge-position",
                    f"{e.edge_type.value} edge {e.src}->{e.dst} position "
                    f"{e.position} >= out-degree"))
    data_in: dict[int, list[int]] = {}
    for e in g.edges:
        if e.edge_type is EdgeType.DATA and by_id[e.dst].node_type is NodeType.CONTROL:
            data_in.setdefault(e.dst, []).append(e.position)
    for nid, posns in data_in.items():
        if sorted(posns) != list(range(len(posns))):
            out.append(Violation(
                "data-position",
                f"control node {nid} data-edge positions {sorted(posns)} "
                f"are not 0..{len(posns) - 1}"))
    return out


def graph_stats(g: ProgramGraph) -> tuple[dict[str, int], dict[str, int]]:
    node_counts = {t.value: 0 for t in NodeType}
    edge_counts = {t.value: 0 for t in EdgeType}
    for n in g.nodes:
        node_counts[n.node_type.value] += 1
    for e in g.edges:
        edge_counts[e.edge_type.value] += 1
    return node_counts, edge_counts
