import copy
import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from conftest import FIXTURES, tape_nodes
from mpisentinel import autodiff as ad
from mpisentinel import gnn
from mpisentinel.graph import (
    EdgeType, GraphEdge, GraphNode, NodeType, ProgramGraph, build_graph,
)
from mpisentinel.ircore import parse_ir

BARRIER_MODULE = """
declare void @MPI_Barrier()
define void @a() {
entry:
  %x = add i32 1, 2
  call void @MPI_Barrier()
  ret void
}
"""
SEND_MODULE = """
declare void @MPI_Send()
define void @b() {
entry:
  %x = add i32 1, 2
  call void @MPI_Send()
  ret void
}
"""


def tiny_config(**kw):
    base = dict(num_classes=2, layer_sizes=(6, 5, 4), node_embed_dim=3,
                fc_hidden=3, rng_seed=0)
    base.update(kw)
    return gnn.GnnConfig(**base)


@pytest.fixture(scope="module")
def barrier_graph():
    return build_graph(parse_ir(BARRIER_MODULE))


@pytest.fixture(scope="module")
def send_graph():
    return build_graph(parse_ir(SEND_MODULE))


@pytest.fixture(scope="module")
def two_fn_graph(two_fn_call_text):
    return build_graph(parse_ir(two_fn_call_text))


@pytest.fixture(scope="module")
def fixture_samples():
    """Eleven labelled fixture graphs: a batch of 4 leaves a last batch of 3."""
    samples = []
    for ll in sorted((FIXTURES / "corpus_mbi").glob("*.ll"))[::6][:11]:
        label = "ok" if ll.stem.startswith("correct") else "bad"
        samples.append((build_graph(parse_ir(ll.read_text(), ll.stem)), label))
    return samples


def relation_params(w_att, a, w_val):
    return gnn.RelationParams(
        ad.Tensor(np.asarray(w_att, float), requires_grad=True),
        ad.Tensor(np.asarray(a, float), requires_grad=True),
        ad.Tensor(np.asarray(w_val, float), requires_grad=True))


class TestGatv2Relation:
    def test_single_edge_attention_is_identity(self):
        rng = np.random.default_rng(0)
        params = relation_params(rng.normal(size=(4, 6)),
                                 rng.normal(size=(4, 1)),
                                 rng.normal(size=(4, 3)))
        h_src = ad.Tensor(rng.normal(size=(2, 3)))
        h_dst = ad.Tensor(rng.normal(size=(3, 3)))
        out = gnn.gatv2_relation(h_src, h_dst, [(1, 2)], params)
        expected = params.w_val.data @ h_src.data[1]
        assert np.allclose(out.data[2], expected, atol=1e-12)
        assert np.all(out.data[[0, 1]] == 0)  # no incoming edges -> zeros

    def test_identical_sources_share_attention(self):
        rng = np.random.default_rng(1)
        params = relation_params(rng.normal(size=(4, 6)),
                                 rng.normal(size=(4, 1)),
                                 rng.normal(size=(4, 3)))
        h_src = ad.Tensor(np.vstack([np.ones(3), np.ones(3)]))
        h_dst = ad.Tensor(rng.normal(size=(1, 3)))
        out = gnn.gatv2_relation(h_src, h_dst, [(0, 0), (1, 0)], params)
        # alpha = (1/2, 1/2): output is the average of equal value vectors
        expected = params.w_val.data @ np.ones(3)
        assert np.allclose(out.data[0], expected, atol=1e-12)

    def test_three_node_hand_computation(self):
        # scalar features, unit scoring transform: alpha follows softmax of
        # the (leaky) source features themselves
        params = relation_params([[1.0, 0.0]], [[1.0]], [[2.0]])
        h_src = ad.Tensor(np.array([[1.0], [2.0], [-1.0]]))
        h_dst = ad.Tensor(np.zeros((2, 1)))
        out = gnn.gatv2_relation(h_src, h_dst,
                                 [(0, 1), (1, 1), (2, 0)], params, slope=0.2)
        a0 = np.exp(1.0) / (np.exp(1.0) + np.exp(2.0))
        hand_dst1 = a0 * 2.0 + (1 - a0) * 4.0   # 4 - 2/(1+e)
        assert abs(out.data[1, 0] - hand_dst1) < 1e-12
        assert abs(out.data[0, 0] - (-2.0)) < 1e-12  # single edge, leaky score
        assert abs(hand_dst1 - 3.4621171572600096) < 1e-12

    def test_matches_double_loop_oracle(self, two_fn_graph):
        rng = np.random.default_rng(2)
        params = relation_params(rng.normal(size=(4, 6)),
                                 rng.normal(size=(4, 1)),
                                 rng.normal(size=(4, 3)))
        h_src = ad.Tensor(rng.normal(size=(6, 3)))
        h_dst = ad.Tensor(rng.normal(size=(5, 3)))
        edges = [(0, 1), (1, 1), (2, 3), (5, 3), (4, 3), (0, 0)]
        got = gnn.gatv2_relation(h_src, h_dst, edges, params)
        want = oracles.gat_relation_forward(
            h_src.data, h_dst.data, edges, params.w_att.data,
            params.a.data, params.w_val.data)
        assert np.max(np.abs(got.data - want)) < 1e-9

    def test_shape_mismatch(self):
        params = relation_params(np.zeros((4, 5)), np.zeros((4, 1)),
                                 np.zeros((4, 3)))
        with pytest.raises(gnn.ShapeMismatch):
            gnn.gatv2_relation(ad.Tensor(np.zeros((2, 3))),
                               ad.Tensor(np.zeros((2, 3))), [(0, 0)], params)


    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_one_edge_per_destination_matches_full_attention(self, data):
        """With at most one incoming edge per destination the unscored path
        gives the full path's output and gradients bit for bit, and w_att
        and a get no gradient."""
        d_in, d_out = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        n_src, n_dst = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        shared = data.draw(st.booleans())  # one feature tensor at both ends
        if shared:
            n_dst = n_src
        values = st.one_of(st.sampled_from([0.0, -0.0]),
                           st.floats(-10, 10, allow_nan=False))

        def matrix(shape):
            return data.draw(arrays(np.float64, shape, elements=values))

        sources = data.draw(st.lists(st.one_of(st.none(), st.integers(0, n_src - 1)),
                                     min_size=n_dst, max_size=n_dst))
        edges = data.draw(st.permutations(
            [(i, j) for j, i in enumerate(sources) if i is not None]))
        h_src, h_dst = matrix((n_src, d_in)), matrix((n_dst, d_in))
        w_att, a = matrix((d_out, 2 * d_in)), matrix((d_out, 1))
        w_val, weights = matrix((d_out, d_in)), matrix((n_dst, d_out))

        def run(relation):
            src = ad.Tensor(h_src.copy(), requires_grad=True)
            dst = src if shared else ad.Tensor(h_dst.copy(), requires_grad=True)
            params = relation_params(w_att, a, w_val)
            leaves = [src, dst, *params.tensors()]
            for t in leaves:
                t.zero_grad()
            out = relation(src, dst, np.array(edges, np.int64).reshape(-1, 2), params)
            weighted = ad.matmul(oracles.mul(out, ad.Tensor(weights)),
                                 ad.Tensor(np.ones((d_out, 1))))
            oracles.segment_sum(weighted, np.zeros(n_dst, np.int64), 1).backward()
            return out.data, [t.grad for t in leaves]

        out, (g_src, g_dst, g_att, g_a, g_val) = run(gnn.gatv2_relation)
        ref, (r_src, r_dst, r_att, r_a, r_val) = run(oracles.gatv2_relation_full)
        assert out.tobytes() == ref.tobytes()
        for g, r in ((g_src, r_src), (g_dst, r_dst), (g_val, r_val)):
            assert g.tobytes() == r.tobytes()
        assert not g_att.any() and not g_a.any()
        assert not r_att.any() and not r_a.any()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_full_attention_chain(self, data):
        """The relation as one autodiff node against the chain of primitive
        operations that scores every edge: the output and every gradient are
        the same bytes, with or without edges, with destinations of in-degree
        0, 1 and more, with one feature tensor at both ends, and with
        features that take no gradient."""
        d_in, d_out = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        n_src, n_dst = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        shared = data.draw(st.booleans())
        if shared:
            n_dst = n_src
        src_grad, dst_grad = data.draw(st.booleans()), data.draw(st.booleans())
        values = st.one_of(st.sampled_from([0.0, -0.0]),
                           st.floats(-10, 10, allow_nan=False))

        def matrix(shape):
            return data.draw(arrays(np.float64, shape, elements=values))

        edges = data.draw(st.lists(st.tuples(st.integers(0, n_src - 1),
                                             st.integers(0, n_dst - 1)), max_size=8))
        h_src, h_dst = matrix((n_src, d_in)), matrix((n_dst, d_in))
        w_att, a = matrix((d_out, 2 * d_in)), matrix((d_out, 1))
        w_val, weights = matrix((d_out, d_in)), matrix((n_dst, d_out))

        def run(relation):
            src = ad.Tensor(h_src.copy(), requires_grad=src_grad)
            dst = src if shared else ad.Tensor(h_dst.copy(), requires_grad=dst_grad)
            params = relation_params(w_att, a, w_val)
            leaves = [src, dst, *params.tensors()]
            for t in leaves:
                if t.requires_grad:
                    t.zero_grad()
            out = relation(src, dst, np.array(edges, np.int64).reshape(-1, 2), params)
            weighted = ad.matmul(oracles.mul(out, ad.Tensor(weights)),
                                 ad.Tensor(np.ones((d_out, 1))))
            oracles.segment_sum(weighted, np.zeros(n_dst, np.int64), 1).backward()
            return out.data.tobytes(), [t.grad if t.grad is None else t.grad.tobytes()
                                        for t in leaves]

        assert run(gnn.gatv2_relation) == run(oracles.gatv2_relation_full)


def self_weights(rng, out_dim, in_dim):
    return {t: ad.Tensor(rng.normal(size=(out_dim, in_dim)), requires_grad=True)
            for t in gnn.NODE_TYPES}


class TestHeteroLayer:
    def test_self_relations_only(self):
        """Without relation edges each node gets only its type's self term."""
        rng = np.random.default_rng(3)
        feats = {"control": ad.Tensor(rng.normal(size=(3, 2))),
                 "variable": ad.Tensor(rng.normal(size=(2, 2))),
                 "constant": ad.Tensor(np.zeros((0, 2)))}
        params = {}
        for rel in gnn.RELATIONS:
            params[rel] = relation_params(rng.normal(size=(2, 4)),
                                          rng.normal(size=(2, 1)),
                                          rng.normal(size=(2, 2)))
        own = self_weights(rng, 2, 2)
        out = gnn.hetero_layer(feats, {}, params, own)
        for t in ("control", "variable"):
            for i in range(feats[t].data.shape[0]):
                pre = own[t].data @ feats[t].data[i]
                want = np.where(pre > 0, pre, np.expm1(pre))
                assert np.allclose(out[t].data[i], want, atol=1e-12)
        assert out["constant"].data.shape == (0, 2)

    def test_two_relations_sum_before_activation(self):
        rng = np.random.default_rng(4)
        feats = {"control": ad.Tensor(rng.normal(size=(2, 2))),
                 "variable": ad.Tensor(rng.normal(size=(2, 2))),
                 "constant": ad.Tensor(rng.normal(size=(1, 2)))}
        params = {rel: relation_params(rng.normal(size=(2, 4)),
                                       rng.normal(size=(2, 1)),
                                       rng.normal(size=(2, 2)))
                  for rel in gnn.RELATIONS}
        own = self_weights(rng, 2, 2)
        rel_edges = {("variable", "data", "control"): [(0, 1)],
                     ("constant", "data", "control"): [(0, 1)]}
        out = gnn.hetero_layer(feats, rel_edges, params, own)
        v1 = gnn.gatv2_relation(feats["variable"], feats["control"], [(0, 1)],
                                params[("variable", "data", "control")]).data
        v2 = gnn.gatv2_relation(feats["constant"], feats["control"], [(0, 1)],
                                params[("constant", "data", "control")]).data
        pre = (v1 + v2)[1] + own["control"].data @ feats["control"].data[1]
        want = np.where(pre > 0, pre, np.expm1(pre))
        assert np.allclose(out["control"].data[1], want, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_chain_of_primitives(self, data):
        """The layer with one node per relation and per sum against the chain
        of primitive operations: the outputs and every gradient are the same
        bytes.  A feature tensor feeds several relations and its own term,
        so the order in which its gradient is summed shows; the values are
        normal draws, whose sums round differently in another order."""
        d_in, d_out = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        sizes = {t: data.draw(st.integers(0, 4)) for t in gnn.NODE_TYPES}
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

        def matrix(shape):
            return rng.normal(size=shape)

        feats = {t: matrix((n, d_in)) for t, n in sizes.items()}
        rel_edges = {}
        for rel in gnn.RELATIONS:
            n_src, n_dst = sizes[rel[0]], sizes[rel[2]]
            if n_src and n_dst:
                rel_edges[rel] = np.array(data.draw(st.lists(
                    st.tuples(st.integers(0, n_src - 1), st.integers(0, n_dst - 1)),
                    max_size=8)), np.int64).reshape(-1, 2)
        params = {rel: (matrix((d_out, 2 * d_in)), matrix((d_out, 1)),
                        matrix((d_out, d_in))) for rel in gnn.RELATIONS}
        own = {t: matrix((d_out, d_in)) for t in gnn.NODE_TYPES}
        weights = {t: matrix((n, d_out)) for t, n in sizes.items()}

        def run(layer):
            inputs = {t: ad.Tensor(f.copy(), requires_grad=True) for t, f in feats.items()}
            layer_params = {rel: relation_params(*p) for rel, p in params.items()}
            self_w = {t: ad.Tensor(w.copy(), requires_grad=True) for t, w in own.items()}
            leaves = [*inputs.values(), *self_w.values(),
                      *(t for p in layer_params.values() for t in p.tensors())]
            for t in leaves:
                t.zero_grad()
            out = layer(inputs, rel_edges, layer_params, self_w)
            loss = ad.Tensor(np.zeros((1, 1)))
            for t in gnn.NODE_TYPES:
                weighted = ad.matmul(oracles.mul(out[t], ad.Tensor(weights[t])),
                                     ad.Tensor(np.ones((d_out, 1))))
                loss = ad.add(loss, oracles.segment_sum(
                    weighted, np.zeros(sizes[t], np.int64), 1))
            outputs = [out[t].data.tobytes() for t in gnn.NODE_TYPES]
            loss.backward()
            return outputs, [t.grad.tobytes() for t in leaves]

        assert run(gnn.hetero_layer) == run(oracles.hetero_layer_chain)

    def test_missing_relation_params(self):
        """An edge whose typed triple is no relation is refused when the
        batch is built, before any layer runs."""
        g = ProgramGraph([GraphNode(0, NodeType.CONSTANT, "Constant"),
                          GraphNode(1, NodeType.VARIABLE, "intTy")],
                         [GraphEdge(0, 1, EdgeType.DATA)])
        with pytest.raises(gnn.MissingRelationParams, match="constant->variable"):
            gnn._build_batch([g], {})


def independent_forward(model, graph):
    """Straight-line numpy reimplementation of the full forward pass."""
    feats = {}
    ids = {}
    for t in gnn.NODE_TYPES:
        rows = [n for n in graph.nodes if n.node_type.value == t]
        ids[t] = {n.id: i for i, n in enumerate(rows)}
        feats[t] = np.vstack([model.embedding.data[model.vocab.get(n.token, 0)]
                              for n in rows]) if rows else np.zeros((0, 0))
    for layer, own in zip(model.layers, model.self_w):
        rel_edges = {rel: [] for rel in gnn.RELATIONS}
        for e in graph.edges:
            src_t = graph.nodes[e.src].node_type.value
            dst_t = graph.nodes[e.dst].node_type.value
            rel_edges[(src_t, e.edge_type.value, dst_t)].append(
                (ids[src_t][e.src], ids[dst_t][e.dst]))
        out = {}
        for t in gnn.NODE_TYPES:
            width = own[t].data.shape[0]
            out[t] = np.zeros((len(ids[t]), width))
        for rel, edges in rel_edges.items():
            if not edges:
                continue
            p = layer[rel]
            out[rel[2]] += oracles.gat_relation_forward(
                feats[rel[0]], feats[rel[2]], edges, p.w_att.data, p.a.data,
                p.w_val.data, slope=model.config.leaky_slope)
        for t in gnn.NODE_TYPES:
            if len(ids[t]):
                out[t] += feats[t] @ own[t].data.T
        feats = {t: np.where(v > 0, v, np.expm1(v)) for t, v in out.items()}
    stacked = np.vstack([feats[t] for t in gnn.NODE_TYPES if feats[t].size])
    pooled = stacked.max(axis=0)
    hidden = np.maximum(pooled @ model.fc1_w.data + model.fc1_b.data, 0.0)
    return hidden @ model.fc2_w.data + model.fc2_b.data


class TestForward:
    def test_zero_parameters_give_zero_logits(self, barrier_graph):
        model = gnn.init_model(tiny_config(), gnn.build_vocab([barrier_graph]),
                               ["a", "b"])
        for _, t in model.parameter_items():
            t.data[...] = 0.0
        assert np.all(gnn.forward(model, barrier_graph) == 0)

    def test_single_node_graph_pooling_is_identity(self):
        g = build_graph(parse_ir("define void @f() { ret void }"))
        model = gnn.init_model(tiny_config(rng_seed=5), gnn.build_vocab([g]),
                               ["a", "b"])
        got = gnn.forward(model, g)
        assert np.allclose(got, independent_forward(model, g), atol=1e-12)

    def test_fixture_matches_independent_oracle(self, two_fn_graph):
        model = gnn.init_model(tiny_config(rng_seed=7),
                               gnn.build_vocab([two_fn_graph]), ["a", "b"])
        got = gnn.forward(model, two_fn_graph)
        want = independent_forward(model, two_fn_graph)
        assert np.max(np.abs(got - want)) < 1e-7

    def test_empty_graph_raises(self):
        g = build_graph(parse_ir(""))
        model = gnn.init_model(tiny_config(), {}, ["a", "b"])
        with pytest.raises(gnn.EmptyGraph):
            gnn.forward(model, g)

    def test_node_permutation_invariance(self, two_fn_graph):
        model = gnn.init_model(tiny_config(rng_seed=9),
                               gnn.build_vocab([two_fn_graph]), ["a", "b"])
        base = gnn.forward(model, two_fn_graph)
        g2 = copy.deepcopy(two_fn_graph)
        rng = np.random.default_rng(1)
        perm = rng.permutation(len(g2.nodes))
        remap = {i: int(p) for i, p in enumerate(perm)}
        for n in g2.nodes:
            n.id = remap[n.id]
        g2.nodes.sort(key=lambda n: n.id)
        for e in g2.edges:
            e.src, e.dst = remap[e.src], remap[e.dst]
        assert np.max(np.abs(gnn.forward(model, g2) - base)) < 1e-9


class TestInit:
    @pytest.mark.parametrize("cfg", [
        tiny_config(rng_seed=0), tiny_config(rng_seed=5, num_classes=3),
        tiny_config(rng_seed=2, layer_sizes=(16, 12, 8), node_embed_dim=8,
                    fc_hidden=4)])
    def test_initial_values_match_self_relation_initializer(self, cfg,
                                                            barrier_graph):
        """Each kept parameter starts where it did while self loops were
        relations; what is gone is exactly their w_att and a."""
        vocab = gnn.build_vocab([barrier_graph])
        labels = [str(k) for k in range(cfg.num_classes)]
        got = gnn.init_model(cfg, vocab, labels).parameter_items()
        ref = dict(oracles.reference_init_model(cfg, vocab, labels))
        for name, t in got:
            assert t.data.tobytes() == ref[name].tobytes(), name
        dropped = set(ref) - {name for name, _ in got}
        assert dropped == {f"layer{li}.{t}-self-{t}.{w}" for li in range(3)
                           for t in gnn.NODE_TYPES for w in ("w_att", "a")}
        assert [n for n, _ in got] == [n for n in ref if n not in dropped]


class TestGradcheck:
    def test_full_model_gradients_match_finite_differences(self, two_fn_graph):
        assert len(two_fn_graph.nodes) <= 20
        model = gnn.init_model(tiny_config(rng_seed=11),
                               gnn.build_vocab([two_fn_graph]), ["a", "b"])
        samples = [(two_fn_graph, "a")]

        def loss_fn():
            z = gnn.logits_batch(model, [two_fn_graph])
            return float(ad.cross_entropy_logits(z, [0]).data)

        params = model.parameters()
        for p in params:
            p.zero_grad()
        z = gnn.logits_batch(model, [two_fn_graph])
        ad.cross_entropy_logits(z, [0]).backward()
        fd = oracles.finite_difference_gradients(model, loss_fn, eps=1e-5)
        worst = 0.0
        for name, tensor in model.parameter_items():
            err = oracles.max_relative_error(tensor.grad, fd[name])
            worst = max(worst, err)
            assert err < 1e-3, (name, err)
        assert worst < 1e-3


class TestTraining:
    def test_zero_epochs_leaves_model(self, barrier_graph, send_graph):
        cfg = tiny_config(epochs=0)
        model = gnn.init_model(cfg, gnn.build_vocab([barrier_graph, send_graph]),
                               ["bad", "ok"])
        before = [t.data.copy() for _, t in model.parameter_items()]
        model, log = gnn.train(model, [(barrier_graph, "ok"), (send_graph, "bad")])
        assert log == []
        for (_, t), b in zip(model.parameter_items(), before):
            assert np.array_equal(t.data, b)

    def test_separable_by_token_across_seeds(self, barrier_graph, send_graph):
        samples = [(barrier_graph, "ok"), (send_graph, "bad")] * 3
        perfect = 0
        for seed in range(5):
            cfg = tiny_config(layer_sizes=(16, 12, 8), node_embed_dim=8,
                              fc_hidden=4, rng_seed=seed, lr=1e-2,
                              batch_size=2, epochs=10)
            model = gnn.init_model(cfg, gnn.build_vocab([barrier_graph, send_graph]),
                                   ["bad", "ok"])
            model, log = gnn.train(model, samples)
            acc = np.mean([gnn.predict_gnn(model, g) == lab for g, lab in samples])
            perfect += acc == 1.0
        assert perfect == 5

    def test_loss_decreases_on_separable_corpus(self, barrier_graph, send_graph):
        samples = [(barrier_graph, "ok"), (send_graph, "bad")] * 3
        passed = 0
        for seed in range(5):
            cfg = tiny_config(layer_sizes=(16, 12, 8), node_embed_dim=8,
                              fc_hidden=4, rng_seed=seed, lr=1e-2,
                              batch_size=2, epochs=10)
            model = gnn.init_model(cfg, gnn.build_vocab([barrier_graph, send_graph]),
                                   ["bad", "ok"])
            _, log = gnn.train(model, samples)
            passed += log[-1][1] < log[0][1]
        assert passed >= 4  # tolerate one unlucky seed

    def test_determinism_same_seed_same_loss_log(self, barrier_graph, send_graph):
        samples = [(barrier_graph, "ok"), (send_graph, "bad")] * 2
        logs = []
        for _ in range(2):
            cfg = tiny_config(rng_seed=3, lr=1e-2, batch_size=2, epochs=5)
            model = gnn.init_model(cfg, gnn.build_vocab([barrier_graph, send_graph]),
                                   ["bad", "ok"])
            _, log = gnn.train(model, samples)
            logs.append(log)
        assert logs[0] == logs[1]

    def test_empty_dataset(self, barrier_graph):
        cfg = tiny_config()
        model = gnn.init_model(cfg, {}, ["a", "b"])
        with pytest.raises(gnn.EmptyDataset):
            gnn.train(model, [])

    def test_unknown_label_rejected(self, barrier_graph):
        cfg = tiny_config()
        model = gnn.init_model(cfg, {}, ["a", "b"])
        with pytest.raises(gnn.ClassOutOfRange):
            gnn.train(model, [(barrier_graph, "mystery")])


def train_fixture_model(samples, seed):
    cfg = tiny_config(layer_sizes=(16, 12, 8), node_embed_dim=8, fc_hidden=4,
                      rng_seed=seed, lr=1e-2, batch_size=4, epochs=3)
    model = gnn.init_model(cfg, gnn.build_vocab([g for g, _ in samples]),
                           ["bad", "ok"])
    return gnn.train(model, samples)


class TestTrainingEngine:
    """Training with bincount scatters, copied first gradients and released
    interior gradients must match the np.add.at engine bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_engine_run(self, seed, fixture_samples,
                                          monkeypatch):
        assert len(fixture_samples) % 4 != 0  # a partial last batch
        model, log = train_fixture_model(fixture_samples, seed)
        oracles.use_reference_autodiff(monkeypatch)
        ref, ref_log = train_fixture_model(fixture_samples, seed)
        assert log == ref_log
        for (name, t), (_, r) in zip(model.parameter_items(),
                                     ref.parameter_items()):
            assert t.data.tobytes() == r.data.tobytes(), name
        for g, _ in fixture_samples:
            assert gnn.forward(model, g).tobytes() == gnn.forward(ref, g).tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_full_attention_run(self, seed, fixture_samples, monkeypatch):
        model, log = train_fixture_model(fixture_samples, seed)
        monkeypatch.setattr(gnn, "gatv2_relation", oracles.gatv2_relation_full)
        ref, ref_log = train_fixture_model(fixture_samples, seed)
        assert log == ref_log
        for (name, t), (_, r) in zip(model.parameter_items(),
                                     ref.parameter_items()):
            assert t.data.tobytes() == r.data.tobytes(), name
        for g, _ in fixture_samples:
            assert gnn.forward(model, g).tobytes() == gnn.forward(ref, g).tobytes()

    def test_only_relations_with_two_incoming_edges_are_scored(
            self, fixture_samples, monkeypatch):
        graphs = [g for g, _ in fixture_samples]
        model = gnn.init_model(tiny_config(), gnn.build_vocab(graphs), ["bad", "ok"])
        rel_edges = gnn._build_batch(graphs, model.vocab).rel_edges
        scored = [rel for rel, e in rel_edges.items()
                  if len(e) and np.bincount(e[:, 1]).max() >= 2]
        unscored = [rel for rel, e in rel_edges.items()
                    if len(e) and rel not in scored]
        assert set(rel_edges) == set(gnn.RELATIONS)  # no self-loop edges
        assert scored and ("control", "data", "variable") in unscored
        leaky_relu = gnn._leaky_relu
        calls = []

        def counted(x, slope):
            calls.append(x.shape[0])  # one row per scored edge
            return leaky_relu(x, slope)

        monkeypatch.setattr(gnn, "_leaky_relu", counted)
        gnn.logits_batch(model, graphs)
        per_layer = [len(rel_edges[rel]) for rel in scored]
        assert calls == per_layer * len(model.layers)

    def test_backward_keeps_only_leaf_grads(self, fixture_samples, monkeypatch):
        graphs = [g for g, _ in fixture_samples]
        targets = [int(lab == "ok") for _, lab in fixture_samples]
        model = gnn.init_model(tiny_config(rng_seed=4), gnn.build_vocab(graphs),
                               ["bad", "ok"])

        def leaf_grads():
            for p in model.parameters():
                p.zero_grad()
            loss = ad.cross_entropy_logits(gnn.logits_batch(model, graphs), targets)
            interior = [weakref.ref(t) for t in tape_nodes(loss) if t._parents]
            loss.backward()  # cuts the tape: collect it before
            return interior, [p.grad.copy() for p in model.parameters()]

        interior, grads = leaf_grads()
        # each layer adds a node per relation with edges and, per node type,
        # the self matrix's transpose, its matmul and the ELU
        rel_edges = gnn._build_batch(graphs, model.vocab).rel_edges
        per_layer = sum(len(e) > 0 for e in rel_edges.values()) + 3 * len(gnn.NODE_TYPES)
        assert len(interior) > len(model.layers) * per_layer
        assert all(r() is None or r().grad is None for r in interior)
        oracles.use_reference_autodiff(monkeypatch)
        _, ref_grads = leaf_grads()
        for (name, _), g, r in zip(model.parameter_items(), grads, ref_grads):
            assert g.tobytes() == r.tobytes(), name

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_self_relation_run(self, seed, fixture_samples, monkeypatch):
        """Training with the self term moves every parameter as training with
        self-loop relations did: same loss log, same trained bytes, same
        logits."""
        model, log = train_fixture_model(fixture_samples, seed)
        monkeypatch.setattr(gnn, "hetero_layer", oracles.hetero_layer_self_relations)
        ref, ref_log = train_fixture_model(fixture_samples, seed)
        assert log == ref_log
        for (name, t), (_, r) in zip(model.parameter_items(),
                                     ref.parameter_items()):
            assert t.data.tobytes() == r.data.tobytes(), name
        for g, _ in fixture_samples:
            assert gnn.forward(model, g).tobytes() == gnn.forward(ref, g).tobytes()

    def test_step_tape_freed_before_next_forward(self, fixture_samples,
                                                 monkeypatch):
        forward = gnn.logits_batch
        previous: list[weakref.ref] = []
        live_at_forward: list[int] = []
        params = set()

        def watched(model, graphs):
            if not params:
                params.update(id(p) for p in model.parameters())
            live_at_forward.append(sum(r() is not None for r in previous))
            out = forward(model, graphs)
            previous[:] = [weakref.ref(t) for t in tape_nodes(out)
                           if id(t) not in params]
            return out

        monkeypatch.setattr(gnn, "logits_batch", watched)
        was_enabled = gc.isenabled()
        gc.disable()  # the tape must go by reference counting alone
        try:
            train_fixture_model(fixture_samples, 0)
        finally:
            if was_enabled:
                gc.enable()
        assert len(live_at_forward) == 9  # 3 epochs of 3 batches
        assert live_at_forward == [0] * 9
        assert all(r() is None for r in previous)


class TestPredict:
    def test_zero_model_predicts_first_label(self, barrier_graph):
        model = gnn.init_model(tiny_config(), gnn.build_vocab([barrier_graph]),
                               ["first", "second"])
        for _, t in model.parameter_items():
            t.data[...] = 0.0
        assert gnn.predict_gnn(model, barrier_graph) == "first"

    def test_single_class_always(self, barrier_graph):
        model = gnn.init_model(tiny_config(num_classes=1),
                               gnn.build_vocab([barrier_graph]), ["only"])
        assert gnn.predict_gnn(model, barrier_graph) == "only"

    def test_trained_model_on_held_out_graph(self, barrier_graph, send_graph):
        samples = [(barrier_graph, "ok"), (send_graph, "bad")] * 3
        cfg = tiny_config(rng_seed=1, lr=1e-2, batch_size=2, epochs=10)
        model = gnn.init_model(cfg, gnn.build_vocab([barrier_graph, send_graph]),
                               ["bad", "ok"])
        model, _ = gnn.train(model, samples)
        held_out = build_graph(parse_ir(BARRIER_MODULE.replace("@a", "@fresh")))
        assert gnn.predict_gnn(model, held_out) == "ok"


class TestBatching:
    def test_batched_losses_equal_individual(self, barrier_graph, send_graph,
                                             two_fn_graph):
        samples = [(barrier_graph, "ok"), (send_graph, "bad"),
                   (two_fn_graph, "ok")]
        model = gnn.init_model(
            tiny_config(rng_seed=2),
            gnn.build_vocab([g for g, _ in samples]), ["bad", "ok"])
        batched = gnn.logits_batch(model, [g for g, _ in samples]).data
        single = np.array([gnn.forward(model, g) for g, _ in samples])
        assert batched.shape == single.shape == (3, 2)
        assert np.max(np.abs(batched - single)) < 1e-9


class TestCheckpoint:
    def test_round_trip_preserves_predictions(self, barrier_graph, send_graph,
                                              tmp_path):
        samples = [(barrier_graph, "ok"), (send_graph, "bad")] * 2
        cfg = tiny_config(rng_seed=6, lr=1e-2, batch_size=2, epochs=4)
        model = gnn.init_model(cfg, gnn.build_vocab([barrier_graph, send_graph]),
                               ["bad", "ok"])
        model, _ = gnn.train(model, samples)
        path = tmp_path / "model.json"
        gnn.save_checkpoint(path, model)
        again = gnn.load_checkpoint(path)
        assert again.label_space == model.label_space
        assert np.allclose(gnn.forward(again, barrier_graph),
                           gnn.forward(model, barrier_graph), atol=0)

    @pytest.mark.parametrize("case", ["missing-fc2.w", "missing-embedding",
                                      "duplicate", "unknown"])
    def test_parameter_list_must_match_model(self, barrier_graph, tmp_path, case):
        model = gnn.init_model(tiny_config(), gnn.build_vocab([barrier_graph]),
                               ["a", "b"])
        path = tmp_path / "model.json"
        gnn.save_checkpoint(path, model)
        doc = json.loads(path.read_text())
        if case.startswith("missing"):
            name = case.split("-", 1)[1]
            doc["params"] = [e for e in doc["params"] if e["name"] != name]
        elif case == "duplicate":
            name = "fc1.b"
            doc["params"].append(next(e for e in doc["params"] if e["name"] == name))
        else:
            name = "fc3.w"
            doc["params"].append({"name": name, "shape": [1], "values": [0.0]})
        path.write_text(json.dumps(doc))
        with pytest.raises(gnn.CheckpointParamsMismatch, match=name):
            gnn.load_checkpoint(path)

    def test_self_loop_relation_layout_refused(self, barrier_graph, tmp_path):
        """A checkpoint that still holds the self loops' w_att and a does not
        load; the error names the first of them."""
        cfg = tiny_config()
        vocab = gnn.build_vocab([barrier_graph])
        path = tmp_path / "model.json"
        gnn.save_checkpoint(path, gnn.init_model(cfg, vocab, ["a", "b"]))
        doc = json.loads(path.read_text())
        doc["params"] = [{"name": name, "shape": list(v.shape),
                          "values": v.ravel().tolist()}
                         for name, v in oracles.reference_init_model(cfg, vocab,
                                                                     ["a", "b"])]
        path.write_text(json.dumps(doc))
        with pytest.raises(gnn.CheckpointParamsMismatch,
                           match="layer0.control-self-control.w_att"):
            gnn.load_checkpoint(path)

    def test_config_validation(self):
        with pytest.raises(gnn.InvalidGnnConfig):
            gnn.GnnConfig(layer_sizes=(8, 4)).validate()

    @pytest.mark.parametrize("bad", [
        dict(lr=float("nan")), dict(lr=float("inf")), dict(lr=float("-inf")),
        dict(lr=0.0), dict(lr=-1e-3), dict(leaky_slope=float("nan")),
        dict(leaky_slope=float("inf")),
    ], ids=["lr-nan", "lr-inf", "lr-neg-inf", "lr-0", "lr-neg", "slope-nan",
            "slope-inf"])
    def test_learning_rate_and_slope_must_be_finite(self, bad):
        with pytest.raises(gnn.InvalidGnnConfig):
            gnn.GnnConfig(**bad).validate()

    def test_cross_entropy_examples(self):
        def loss(logits, true_class):
            z = ad.Tensor(np.array(logits))
            return float(ad.cross_entropy_logits(z, [true_class]).data)
        assert abs(loss([0.0, 0.0, 0.0], 1) - np.log(3)) < 1e-12
        assert loss([1000.0, 0.0], 0) < 1e-9
        with pytest.raises(gnn.ClassOutOfRange):
            loss([0.0, 0.0], 5)


class TestGraphJsonInterop:
    def test_loss_log_csv(self, barrier_graph, send_graph, tmp_path):
        cfg = tiny_config(epochs=3, batch_size=2)
        model = gnn.init_model(cfg, gnn.build_vocab([barrier_graph, send_graph]),
                               ["bad", "ok"])
        _, log = gnn.train(model, [(barrier_graph, "ok"), (send_graph, "bad")])
        path = tmp_path / "loss.csv"
        gnn.write_loss_log_csv(log, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,mean_loss"
        assert len(lines) == 4
        assert lines[1].startswith("1,")
