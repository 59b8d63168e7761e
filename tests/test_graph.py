import pytest

import oracles
from mpisentinel import ircore
from mpisentinel.graph import GraphEdge, GraphNode, ProgramGraph, build_graph
from mpisentinel.ircore import OperandKind, parse_ir
from oracles import graph_stats, validate_graph


def test_single_ret_function():
    g = build_graph(parse_ir("define void @f() { ret void }"))
    assert len(g.nodes) == 1
    assert g.nodes[0].node_type == "control"
    assert g.nodes[0].token == "ret"
    assert g.edges == []


STRAIGHT_LINE = """
define void @f(i32 %x) {
entry:
  %a = add i32 %x, 1
  ret void
}
"""


def test_straight_line_example_nodes_and_edges():
    # hand construction: control nodes add/ret, variables %x/%a, constant 1
    g = build_graph(parse_ir(STRAIGHT_LINE))
    tokens = [(n.node_type, n.token) for n in g.nodes]
    assert tokens == [("variable", "intTy"), ("control", "add"),
                      ("variable", "intTy"), ("control", "ret"),
                      ("constant", "Constant")]
    edges = [(e.edge_type, e.src, e.dst) for e in g.edges]
    assert edges == [
        ("data", 0, 1),   # %x -> add, operand 0
        ("data", 4, 1),   # constant 1 -> add, operand 1
        ("data", 1, 2),   # add defines %a
        ("control", 1, 3),
    ]


def test_straight_line_stats_with_used_result():
    text = """
define i32 @f(i32 %x) {
entry:
  %a = add i32 %x, 1
  ret i32 %a
}
"""
    node_counts, edge_counts = graph_stats(build_graph(parse_ir(text)))
    assert node_counts == {"control": 2, "variable": 2, "constant": 1}
    assert edge_counts == {"control": 1, "data": 4, "call": 0}


def test_two_fn_call_golden_edges(two_fn_call_text):
    g = build_graph(parse_ir(two_fn_call_text))
    # hand-derived node order: callee %x, add, %y, ret, const 7; main call,
    # %r, call:MPI_Barrier, add, %s, ret, consts @callee, 35, @MPI_Barrier, 1
    assert [(n.node_type, n.token) for n in g.nodes] == [
        ("variable", "intTy"), ("control", "add"), ("variable", "intTy"),
        ("control", "ret"), ("constant", "Constant"),
        ("control", "call"), ("variable", "intTy"),
        ("control", "call:MPI_Barrier"), ("control", "add"),
        ("variable", "intTy"), ("control", "ret"),
        ("constant", "Constant"), ("constant", "Constant"),
        ("constant", "Constant"), ("constant", "Constant"),
    ]
    assert [(e.edge_type, e.src, e.dst) for e in g.edges] == [
        ("data", 0, 1), ("data", 4, 1), ("data", 1, 2),
        ("data", 2, 3), ("control", 1, 3),
        ("data", 11, 5), ("data", 12, 5), ("data", 5, 6),
        ("data", 13, 7),
        ("data", 6, 8), ("data", 14, 8), ("data", 8, 9),
        ("data", 9, 10),
        ("control", 5, 7), ("control", 7, 8), ("control", 8, 10),
        ("call", 5, 1), ("call", 3, 5),
    ]
    call_edges = [e for e in g.edges if e.edge_type == "call"]
    assert len(call_edges) == 2  # one to the callee entry, one return edge


def test_declared_only_call_has_token_but_no_edge(two_fn_call_text):
    g = build_graph(parse_ir(two_fn_call_text))
    barrier_nodes = [i for i, n in enumerate(g.nodes) if n.token == "call:MPI_Barrier"]
    assert len(barrier_nodes) == 1
    nid = barrier_nodes[0]
    assert not any(e.edge_type == "call" and nid in (e.src, e.dst)
                   for e in g.edges)


class TestValidate:
    def test_fixture_graphs_valid(self, all_fixture_modules):
        for path, module in all_fixture_modules:
            assert validate_graph(build_graph(module)) == [], path

    def test_injected_bad_data_edge(self, two_fn_call_text):
        g = build_graph(parse_ir(two_fn_call_text))
        g.edges.append(GraphEdge(1, 3, "data"))  # control -> control
        violations = validate_graph(g)
        assert len(violations) == 1
        assert violations[0].rule == "typed-edge"
        assert "1->3" in violations[0].message

    def test_edge_to_a_missing_node_flagged(self, two_fn_call_text):
        g = build_graph(parse_ir(two_fn_call_text))
        g.edges.append(GraphEdge(1, len(g.nodes), "control"))
        assert [v.rule for v in validate_graph(g)] == ["edge-endpoint"]

    def test_double_definition_flagged(self):
        g = ProgramGraph(nodes=[GraphNode("control", "add"),
                                GraphNode("variable", "intTy")],
                         edges=[GraphEdge(0, 1, "data"), GraphEdge(0, 1, "data")])
        assert any(v.rule == "variable-def" for v in validate_graph(g))


class TestStats:
    def test_empty(self):
        node_counts, edge_counts = graph_stats(ProgramGraph())
        assert set(node_counts.values()) == {0}
        assert set(edge_counts.values()) == {0}

    def test_totals_equal_list_lengths(self, all_fixture_modules):
        for path, module in all_fixture_modules:
            g = build_graph(module)
            node_counts, edge_counts = graph_stats(g)
            assert sum(node_counts.values()) == len(g.nodes), path
            assert sum(edge_counts.values()) == len(g.edges), path

    def test_corpus_stats_match_independent_recount(self, all_fixture_modules):
        # recompute from the parsed module, not from the graph
        for path, module in all_fixture_modules:
            g = build_graph(module)
            node_counts, edge_counts = graph_stats(g)
            n_instr = sum(len(b.instructions) for f in module.defined_functions()
                          for b in f.blocks)
            assert node_counts["control"] == n_instr, path
            n_results = sum(1 for f in module.defined_functions()
                            for b in f.blocks for i in b.instructions
                            if i.result_id is not None)
            n_params = sum(len(f.params) for f in module.defined_functions())
            assert node_counts["variable"] == n_results + n_params, path
            n_operand_uses = sum(
                1 for f in module.defined_functions() for b in f.blocks
                for i in b.instructions for op in i.operands
                if op.kind != OperandKind.LABEL)
            assert edge_counts["data"] == n_operand_uses + n_results, path


class TestLaws:
    def test_control_node_count_law(self, all_fixture_modules):
        for path, module in all_fixture_modules:
            g = build_graph(module)
            n_instr = sum(len(b.instructions) for f in module.defined_functions()
                          for b in f.blocks)
            node_counts, _ = graph_stats(g)
            assert node_counts["control"] == n_instr, path

    def test_data_degree_law_exhaustive(self, all_fixture_modules):
        for path, module in all_fixture_modules:
            g = build_graph(module)
            in_data = [0] * len(g.nodes)
            out_data = [0] * len(g.nodes)
            for e in g.edges:
                if e.edge_type == "data":
                    in_data[e.dst] += 1
                    out_data[e.src] += 1
            instr_iter = (i for f in module.defined_functions()
                          for b in f.blocks for i in b.instructions)
            for nid, node in enumerate(g.nodes):
                if node.node_type != "control":
                    continue
                instr = next(instr_iter)
                expected_in = sum(1 for op in instr.operands
                                  if op.kind != OperandKind.LABEL)
                assert in_data[nid] == expected_in, (path, nid)
                assert out_data[nid] == (1 if instr.result_id else 0), (path, nid)


def test_determinism():
    text = STRAIGHT_LINE
    a = build_graph(parse_ir(text))
    b = build_graph(parse_ir(text))
    assert a.nodes == b.nodes
    assert a.edges == b.edges


def test_phi_data_edges_follow_operand_order(add_loop_text):
    g = build_graph(parse_ir(add_loop_text))
    phi_nodes = [i for i, n in enumerate(g.nodes) if n.token == "phi"]
    assert len(phi_nodes) == 3
    # %i = phi [ 0, %entry ], [ %inc, %loop ]: the constant, then %inc,
    # which the second add in the loop defines
    incoming = [e.src for e in g.edges if e.edge_type == "data" and e.dst == phi_nodes[0]]
    inc_add = [i for i, n in enumerate(g.nodes) if n.token == "add"][1]
    (inc,) = [e.dst for e in g.edges if e.edge_type == "data" and e.src == inc_add]
    assert [g.nodes[i].node_type for i in incoming] == ["constant", "variable"]
    assert incoming[1] == inc


def test_indirectbr_targets_are_control_edges():
    text = """
define void @f(ptr %a) {
entry:
  indirectbr ptr %a, [label %one, label %two]
one:
  ret void
two:
  ret void
}
"""
    g = build_graph(parse_ir(text))
    assert [(n.node_type, n.token) for n in g.nodes] == [
        ("variable", "ptrTy"), ("control", "indirectbr"),
        ("control", "ret"), ("control", "ret")]
    assert [(e.edge_type, e.src, e.dst) for e in g.edges] == [
        ("data", 0, 1), ("control", 1, 2), ("control", 1, 3)]


def test_undefined_local_propagates():
    text = "define void @f() {\nentry:\n  %a = add i32 %ghost, 1\n  ret void\n}"
    with pytest.raises(ircore.UndefinedLocal):
        build_graph(parse_ir(text))


def test_matches_two_pass_reference_on_fixtures(all_fixture_modules):
    for path, module in all_fixture_modules:
        got, want = build_graph(module), oracles.reference_build_graph(module)
        assert got.nodes == want.nodes, path
        assert got.edges == want.edges, path
