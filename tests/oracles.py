"""Independent reference implementations used as test oracles.

The brute-force ones deliberately avoid the library's vectorized code paths:
plain Python loops and dicts, recomputing results from first principles.  The
bit-exact ones keep an earlier, slower implementation (the per-feature
CART, the per-individual GA fitness, the np.add.at autodiff engine, the
GATv2 relation that scores every edge, the GATv2 layer as a chain of
primitive operations, the GNN's self loops as attention relations, the
embedding's per-instruction walk) that the library must
still match bit for bit.
They share only the parsed IR structures, the graph data classes, the
autodiff Tensor and the seeded vocabulary lookups with the code under
test; the reference trees are nested tuples, as cart_train's are.  Three
references are narrower: the embedding walk's reuses embed's row sums and
flow solve, the memo-free parse_ir reuses the library's function-body
and module-line handling, isolating the line memo, and the self-loop
hetero layer reuses gnn's typed relations, isolating the self term.  The IR helpers at the end
(def-use map, structural equality, printer) serve the parser's tests; the
per-character IR scanners and the two-pass graph builder before them are
the references for the parser's scanners and for ``build_graph``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from mpisentinel import autodiff, embed, gnn, ircore
from mpisentinel.autodiff import ShapeMismatch, Tensor
from mpisentinel.gnn import (
    NODE_TYPES, RELATIONS, GnnConfig, InvalidGnnConfig, RelationParams, _t,
)
from mpisentinel.graph import EdgeType, GraphEdge, GraphNode, NodeType, ProgramGraph
from mpisentinel.ircore import (
    BINARY_OPCODES, CAST_OPCODES, IrFunction, IrInstruction, IrModule, MalformedIr,
    Operand, OperandKind, UndefinedLocal, canonical_type, successors, token_triple,
)
from mpisentinel.tabular import EmptyDataset, FeatureSubset, LabeledVectors


def symbolic_sum(module: IrModule, vocab, weights=(1.0, 0.5, 0.2)) -> np.ndarray:
    """Naive per-token summation of the symbolic encoding."""
    w_op, w_ty, w_arg = weights
    total = [0.0] * vocab.dim
    for fn in module.defined_functions():
        for block in fn.blocks:
            for instr in block.instructions:
                triple = token_triple(instr)
                contrib = w_op * vocab.vector(triple.opcode_token) \
                    + w_ty * vocab.vector(triple.type_token)
                for kind in triple.arg_tokens:
                    contrib = contrib + w_arg * vocab.vector(kind)
                for i in range(vocab.dim):
                    total[i] += contrib[i]
    return np.array(total)


def flow_aware_sum(module: IrModule, vocab, weights=(1.0, 0.5, 0.2),
                   damping: float = 0.5, tol: float = 1e-6,
                   max_iter: int = 100) -> np.ndarray:
    """Dict-and-loop damped fixed-point iteration of the flow-aware rows;
    run with tol=1e-14 and max_iter=1000 it stops at the exact fixed point
    up to rounding, the reference for the library's linear solve."""
    w_op, w_ty, w_arg = weights
    total = np.zeros(vocab.dim)
    for fn in module.defined_functions():
        instrs = []
        defs = {}
        for block in fn.blocks:
            for instr in block.instructions:
                if instr.result_id is not None:
                    defs[instr.result_id] = len(instrs)
                instrs.append(instr)
        base = {}
        dyn = {}
        for idx, instr in enumerate(instrs):
            triple = token_triple(instr)
            vec = w_op * vocab.vector(triple.opcode_token) \
                + w_ty * vocab.vector(triple.type_token)
            dyn[idx] = []
            for op in instr.operands:
                if op.kind is OperandKind.LABEL:
                    continue
                if op.kind is OperandKind.LOCAL and op.token in defs:
                    dyn[idx].append(defs[op.token])
                else:
                    vec = vec + w_arg * vocab.vector(op.kind.value)
            base[idx] = vec
        state = {i: base[i].copy() for i in base}
        if any(dyn.values()):
            tol_eff = tol / max(1, len(base))
            for _ in range(max_iter):
                nxt = {}
                for i in base:
                    v = base[i].copy()
                    for j in dyn[i]:
                        v = v + w_arg * state[j]
                    nxt[i] = damping * v + (1 - damping) * state[i]
                residual = max(float(np.max(np.abs(nxt[i] - state[i])))
                               for i in base) if base else 0.0
                state = nxt
                if residual < tol_eff:
                    break
        for i in sorted(state):
            total += state[i]
    return total


def cart_train(x: np.ndarray, labels: list[str], label_space: list[str]):
    """Exhaustive-threshold CART with the same tie rules, in plain Python."""
    def gini(rows):
        n = len(rows)
        if n == 0:
            return 0.0
        score = 1.0
        for lab in label_space:
            p = sum(1 for r in rows if labels[r] == lab) / n
            score -= p * p
        return score

    def majority(rows):
        counts = [(sum(1 for r in rows if labels[r] == lab)) for lab in label_space]
        best = max(range(len(label_space)), key=lambda i: (counts[i], -i))
        return label_space[best]

    def grow(rows):
        labs = {labels[r] for r in rows}
        if len(rows) < 2 or len(labs) == 1:
            return ("leaf", majority(rows))
        best = None
        best_score = None
        for f in range(x.shape[1]):
            values = sorted({float(x[r, f]) for r in rows})
            for lo, hi in zip(values, values[1:]):
                thr = (lo + hi) / 2.0
                left = [r for r in rows if x[r, f] <= thr]
                right = [r for r in rows if x[r, f] > thr]
                score = (len(left) * gini(left) + len(right) * gini(right)) / len(rows)
                if best_score is None or score < best_score:
                    best_score = score
                    best = (f, thr, left, right)
        if best is None:
            return ("leaf", majority(rows))
        f, thr, left, right = best
        return ("split", f, thr, grow(left), grow(right))

    return grow(list(range(x.shape[0])))


def cart_predict(node, row) -> str:
    while node[0] == "split":
        _, f, thr, left, right = node
        node = left if row[f] <= thr else right
    return node[1]


def gat_relation_forward(h_src, h_dst, edges, w_att, a, w_val, slope=0.2):
    """Per-edge double-loop attention forward, no vectorization."""
    n_dst = h_dst.shape[0]
    out_dim = w_val.shape[0]
    incoming = {j: [] for j in range(n_dst)}
    for i, j in edges:
        x = np.concatenate([h_src[i], h_dst[j]])
        pre = w_att @ x
        act = np.where(pre > 0, pre, slope * pre)
        score = float(a.ravel() @ act)
        incoming[j].append((i, score))
    out = np.zeros((n_dst, out_dim))
    for j, items in incoming.items():
        if not items:
            continue
        mx = max(s for _, s in items)
        weights = [np.exp(s - mx) for _, s in items]
        z = sum(weights)
        for (i, _), w in zip(items, weights):
            out[j] += (w / z) * (w_val @ h_src[i])
    return out


def finite_difference_gradients(model, loss_fn, eps: float = 1e-5):
    """Central finite differences for every parameter coordinate of a model.

    loss_fn() must recompute the scalar loss from the model's current
    parameter data.  Returns {param name: gradient array}.
    """
    out = {}
    for name, tensor in model.parameter_items():
        grad = np.zeros_like(tensor.data)
        flat = tensor.data.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = loss_fn()
            flat[i] = orig - eps
            fm = loss_fn()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2 * eps)
        out[name] = grad
    return out


def max_relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / denom))


def symbolic_function_sum(fn, vocab, weights=(1.0, 0.5, 0.2)) -> np.ndarray:
    """One function's symbolic encoding, summed instruction by instruction."""
    w_op, w_ty, w_arg = weights
    total = np.zeros(vocab.dim)
    for block in fn.blocks:
        for instr in block.instructions:
            triple = token_triple(instr)
            vec = w_op * vocab.vector(triple.opcode_token) \
                + w_ty * vocab.vector(triple.type_token)
            for kind in triple.arg_tokens:
                vec = vec + w_arg * vocab.vector(kind)
            total += vec
    return total


# ---------------------------------------------------------------------------
# The embedding's per-function walk as it was before rows were memoized by
# key: one token_triple and one set of vocabulary adds per instruction.  The
# bit-exact reference for embed._function_parts and, through it, embed.

def reference_function_parts(fn: IrFunction, vocab, weights):
    w_op, w_ty, w_arg = weights
    defs: dict[str, int] = {}
    instrs = []
    for block in fn.blocks:
        for instr in block.instructions:
            idx = len(instrs)
            instrs.append(instr)
            if instr.result_id is not None:
                defs[instr.result_id] = idx
    rows = np.zeros((len(instrs), vocab.dim))
    base = np.zeros((len(instrs), vocab.dim))
    links: list[tuple[int, int]] = []
    for idx, instr in enumerate(instrs):
        triple = token_triple(instr)
        sym = flow = w_op * vocab.vector(triple.opcode_token) \
            + w_ty * vocab.vector(triple.type_token)
        for op in instr.operands:
            if op.kind is OperandKind.LABEL:
                continue
            arg = w_arg * vocab.vector(op.kind.value)
            sym = sym + arg
            if op.kind is OperandKind.LOCAL and op.token in defs:
                links.append((idx, defs[op.token]))
            else:
                flow = flow + arg
        rows[idx] = sym
        base[idx] = flow
    return rows, base, links


def reference_embed(module: IrModule, vocab, weights=(1.0, 0.5, 0.2)) -> np.ndarray:
    """embed's vector with every function's rows from reference_function_parts."""
    sym = np.zeros(vocab.dim)
    flow = np.zeros(vocab.dim)
    for fn in module.defined_functions():
        rows, base, links = reference_function_parts(fn, vocab, weights)
        sym += embed._seq_sum(rows, vocab.dim)
        flow += embed._flow_sum(base, links, weights[2])
    return np.concatenate([sym, flow])


# ---------------------------------------------------------------------------
# The autodiff engine as it was before its scatters used bincount and before
# backward() released interior gradients: np.add.at scatters, zeros-then-add
# accumulation, every gradient kept.  The bit-exact reference for GNN
# training; tests monkeypatch these into mpisentinel.autodiff, except
# segment_sum_add_at, the scatter reference for segment_sum below.

def scatter_add_at(idx: np.ndarray, values: np.ndarray, n_rows: int) -> np.ndarray:
    out = np.zeros((n_rows,) + values.shape[1:])
    np.add.at(out, idx, values)
    return out


def gather_rows_add_at(a: Tensor, idx) -> Tensor:
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(a.data[idx], parents=(a,))

    def backward(g):
        if a.requires_grad:
            a.accumulate(scatter_add_at(idx, g, a.data.shape[0]))
    out._backward = backward
    return out


def segment_sum_add_at(a: Tensor, seg, n_segments: int) -> Tensor:
    seg = np.asarray(seg, dtype=np.int64)
    out = Tensor(scatter_add_at(seg, a.data, n_segments), parents=(a,))

    def backward(g):
        if a.requires_grad:
            a.accumulate(g[seg])
    out._backward = backward
    return out


def accumulate_zeros_then_add(self: Tensor, g: np.ndarray):
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += g


def backward_keeping_grads(self: Tensor):
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(self, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    self.accumulate(np.ones_like(self.data))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def use_reference_autodiff(monkeypatch):
    """Run mpisentinel.autodiff with the reference scatters, accumulation and
    backward for the rest of the test."""
    monkeypatch.setattr(autodiff, "gather_rows", gather_rows_add_at)
    monkeypatch.setattr(autodiff.Tensor, "accumulate", accumulate_zeros_then_add)
    monkeypatch.setattr(autodiff.Tensor, "backward", backward_keeping_grads)


# ---------------------------------------------------------------------------
# Autodiff primitives that only the chain references below and the
# primitive gradchecks use: mpisentinel.gnn computes a relation as one
# autodiff node, so mpisentinel.autodiff no longer carries them.

def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data, parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a.accumulate(autodiff._unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(autodiff._unbroadcast(g * a.data, b.data.shape))
    out._backward = backward
    return out


def div(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data / b.data, parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a.accumulate(autodiff._unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(autodiff._unbroadcast(-g * a.data / (b.data * b.data),
                                               b.data.shape))
    out._backward = backward
    return out


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)
    out = Tensor(data, parents=(a,))

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * data)
    out._backward = backward
    return out


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    out = Tensor(np.where(a.data > 0, a.data, slope * a.data), parents=(a,))

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * np.where(a.data > 0, 1.0, slope))
    out._backward = backward
    return out


def segment_sum(a: Tensor, seg, n_segments: int) -> Tensor:
    seg = np.asarray(seg, dtype=np.int64)
    out = Tensor(autodiff._scatter_rows(seg, a.data, n_segments), parents=(a,))

    def backward(g):
        if a.requires_grad:
            a.accumulate(g[seg])
    out._backward = backward
    return out


# ---------------------------------------------------------------------------
# The GATv2 relation as it was before one-incoming-edge relations skipped
# their scoring: every edge is scored and softmaxed.  The bit-exact
# reference for gnn.gatv2_relation; tests monkeypatch it into mpisentinel.gnn.

ad = autodiff


def gatv2_relation_full(h_src: Tensor, h_dst: Tensor, edges, params: RelationParams,
                        slope: float = 0.2) -> Tensor:
    """Attention messages for one relation.

    Per edge (i, j): score = a . leaky_relu(W_att [h_i || h_j]); attention is
    the softmax of scores over each destination's incoming edges; the output
    row for j sums attention-weighted value transforms of the sources.
    Destinations without incoming edges output zeros.  `edges` is an (E, 2)
    int64 array of (source row, destination row) or a list of such pairs.
    """
    n_dst = h_dst.data.shape[0]
    out_dim = params.w_val.data.shape[0]
    if params.w_att.data.shape[1] != h_src.data.shape[1] + h_dst.data.shape[1]:
        raise ShapeMismatch(
            f"w_att expects width {params.w_att.data.shape[1]}, got "
            f"{h_src.data.shape[1]} + {h_dst.data.shape[1]}")
    if len(edges) == 0:
        return ad.zeros((n_dst, out_dim))
    src_idx, dst_idx = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    hs = ad.gather_rows(h_src, src_idx)
    hd = ad.gather_rows(h_dst, dst_idx)
    pair = ad.concat([hs, hd], axis=1)
    scores = ad.matmul(leaky_relu(ad.matmul(pair, _t(params.w_att)), slope),
                       params.a)                         # (E, 1)
    # softmax per destination; the shift is a constant so gradients are exact
    shift = np.full(n_dst, -np.inf)
    np.maximum.at(shift, dst_idx, scores.data.ravel())
    shifted = ad.add(scores, Tensor(-shift[dst_idx][:, None]))
    expd = exp(shifted)
    denom = segment_sum(expd, dst_idx, n_dst)             # (n_dst, 1)
    alpha = div(expd, ad.gather_rows(denom, dst_idx))     # (E, 1)
    values = ad.matmul(hs, _t(params.w_val))              # (E, out)
    return segment_sum(mul(values, alpha), dst_idx, n_dst)


# ---------------------------------------------------------------------------
# The GATv2 layer as it was before each relation and each node type's sum of
# messages became one autodiff node: a chain of primitive operations, with
# the unscored path for relations without a destination of in-degree two,
# whose tape keeps every intermediate array.  The reference for the fused
# layer's gradients and tape size; tests monkeypatch hetero_layer_chain into
# mpisentinel.gnn.

def gatv2_relation_chain(h_src: Tensor, h_dst: Tensor, edges, params: RelationParams,
                         slope: float = 0.2) -> Tensor:
    if len(edges):
        src_idx, dst_idx = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
        n_dst = h_dst.data.shape[0]
        if np.bincount(dst_idx, minlength=n_dst).max() <= 1:  # attention is 1
            values = ad.matmul(ad.gather_rows(h_src, src_idx), _t(params.w_val))
            return segment_sum(values, dst_idx, n_dst)
    return gatv2_relation_full(h_src, h_dst, edges, params, slope)


def hetero_layer_chain(features, rel_edges, layer_params, self_w,
                       slope: float = 0.2):
    """Per node type, the relation messages and then the self term, summed
    by a chain of adds, then ELU."""
    accum = {}
    for rel, params in layer_params.items():
        src_t, _, dst_t = rel
        edges = rel_edges.get(rel, ())
        if len(edges) == 0:
            continue
        msg = gatv2_relation_chain(features[src_t], features[dst_t], edges, params,
                                   slope)
        accum[dst_t] = ad.add(accum[dst_t], msg) if dst_t in accum else msg
    out = {}
    for t, feats in features.items():
        own = ad.matmul(feats, _t(self_w[t]))
        out[t] = ad.elu(ad.add(accum[t], own) if t in accum else own)
    return out


# ---------------------------------------------------------------------------
# The GNN as it was while a node's own term was a `self` relation per node
# type, with a w_att and an a that no score ever used.  The references for
# gnn.init_model's initial values and gnn.hetero_layer's self term.

SELF_LOOP_RELATIONS = RELATIONS + tuple((t, "self", t) for t in NODE_TYPES)


def reference_init_model(cfg: GnnConfig, vocab: dict[str, int],
                         label_space: list[str]) -> list[tuple[str, np.ndarray]]:
    """init_model with self loops as relations; returns (name, initial value)
    of every parameter in that model's checkpoint order."""
    cfg.validate()
    if cfg.num_classes != len(label_space):
        raise InvalidGnnConfig("num_classes must match the label space")
    rng = np.random.Generator(np.random.PCG64(cfg.rng_seed))
    emb = Tensor(ad.xavier_uniform(rng, len(vocab) + 1, cfg.node_embed_dim,
                                   (len(vocab) + 1, cfg.node_embed_dim)),
                 requires_grad=True, name="embedding")
    layers = []
    in_dim = cfg.node_embed_dim
    for li, out_dim in enumerate(cfg.layer_sizes):
        layer = {}
        for rel in SELF_LOOP_RELATIONS:
            tag = f"layer{li}.{'-'.join(rel)}"
            layer[rel] = RelationParams(
                w_att=Tensor(ad.xavier_uniform(rng, 2 * in_dim, out_dim,
                                               (out_dim, 2 * in_dim)),
                             requires_grad=True, name=f"{tag}.w_att"),
                a=Tensor(ad.xavier_uniform(rng, out_dim, 1, (out_dim, 1)),
                         requires_grad=True, name=f"{tag}.a"),
                w_val=Tensor(ad.xavier_uniform(rng, in_dim, out_dim,
                                               (out_dim, in_dim)),
                             requires_grad=True, name=f"{tag}.w_val"),
            )
        layers.append(layer)
        in_dim = out_dim
    fc1_w = Tensor(ad.xavier_uniform(rng, in_dim, cfg.fc_hidden,
                                     (in_dim, cfg.fc_hidden)),
                   requires_grad=True, name="fc1.w")
    fc1_b = Tensor(np.zeros(cfg.fc_hidden), requires_grad=True, name="fc1.b")
    fc2_w = Tensor(ad.xavier_uniform(rng, cfg.fc_hidden, cfg.num_classes,
                                     (cfg.fc_hidden, cfg.num_classes)),
                   requires_grad=True, name="fc2.w")
    fc2_b = Tensor(np.zeros(cfg.num_classes), requires_grad=True, name="fc2.b")
    params = [emb]
    for layer in layers:
        for rel in SELF_LOOP_RELATIONS:
            params.extend(layer[rel].tensors())
    params.extend([fc1_w, fc1_b, fc2_w, fc2_b])
    return [(t.name, t.data) for t in params]


def hetero_layer_self_relations(features, rel_edges, layer_params, self_w,
                                slope: float = 0.2):
    """hetero_layer with each node type's own term sent as a `self` relation
    after the typed ones: (i, i) edges through gatv2_relation_full, whose
    attention is always 1, with a zero w_att and a; a type without any
    message gets zeros."""
    messages = [(rel, params, rel_edges.get(rel, ()), gnn.gatv2_relation)
                for rel, params in layer_params.items()]
    for t, feats in features.items():
        n, width = feats.data.shape
        out_dim = self_w[t].data.shape[0]
        unused = RelationParams(Tensor(np.zeros((out_dim, 2 * width))),
                                Tensor(np.zeros((out_dim, 1))), self_w[t])
        loops = [(i, i) for i in range(n)]
        messages.append(((t, "self", t), unused, loops, gatv2_relation_full))
    accum = {}
    for (src_t, _, dst_t), params, edges, relation in messages:
        if len(edges) == 0:
            continue
        msg = relation(features[src_t], features[dst_t], edges, params, slope)
        accum[dst_t] = ad.add(accum[dst_t], msg) if dst_t in accum else msg
    out = {}
    for t, feats in features.items():
        pre = accum.get(t)
        if pre is None:
            pre = ad.zeros((feats.data.shape[0], self_w[t].data.shape[0]))
        out[t] = ad.elu(pre)
    return out


# ---------------------------------------------------------------------------
# CART as trained before presorting: every node re-sorts every column and
# scores one feature at a time.  The bit-exact reference for the library's
# presorted, feature-batched trainer (same trees, thresholds and counts).

def _reference_best_split(x: np.ndarray, y: np.ndarray, n_classes: int):
    """Exhaustive search: lowest weighted Gini; ties -> lowest feature index,
    then lowest threshold.  Thresholds are midpoints of consecutive distinct
    sorted values.  Returns (feature, threshold) or None."""
    n = x.shape[0]
    best = None
    best_score = np.inf
    eye = np.eye(n_classes)
    for f in range(x.shape[1]):
        col = x[:, f]
        order = np.argsort(col, kind="stable")
        sorted_col = col[order]
        distinct = np.nonzero(sorted_col[1:] != sorted_col[:-1])[0]
        if distinct.size == 0:
            continue
        left_counts = np.cumsum(eye[y[order]], axis=0)
        total = left_counts[-1]
        lc = left_counts[distinct]
        rc = total - lc
        nl = (distinct + 1).astype(np.float64)
        nr = n - nl
        p_l = lc / nl[:, None]
        p_r = rc / nr[:, None]
        gini_l = 1.0 - np.einsum("ij,ij->i", p_l, p_l)
        gini_r = 1.0 - np.einsum("ij,ij->i", p_r, p_r)
        scores = (nl * gini_l + nr * gini_r) / n
        k = int(np.argmin(scores))  # first minimum: lowest threshold wins ties
        if scores[k] < best_score:
            best_score = scores[k]
            cut = distinct[k]
            best = (f, (sorted_col[cut] + sorted_col[cut + 1]) / 2.0)
    return best


@dataclass
class ReferenceTree:
    """root is ("split", feature, threshold, left, right) or ("leaf", label,
    class counts); cart_predict walks it."""
    root: tuple
    n_features: int
    label_space: list[str]


def _reference_leaf(y: np.ndarray, label_space: list[str]) -> tuple:
    counts = np.bincount(y, minlength=len(label_space))
    label = label_space[int(np.argmax(counts))]  # argmax ties -> earliest label
    return ("leaf", label, {label_space[i]: int(c) for i, c in enumerate(counts) if c})


def _reference_grow(x: np.ndarray, y: np.ndarray, label_space: list[str]) -> tuple:
    if len(y) < 2 or np.all(y == y[0]):
        return _reference_leaf(y, label_space)
    split = _reference_best_split(x, y, len(label_space))
    if split is None:  # identical rows with conflicting labels
        return _reference_leaf(y, label_space)
    f, thr = split
    mask = x[:, f] <= thr
    return ("split", f, thr, _reference_grow(x[mask], y[mask], label_space),
            _reference_grow(x[~mask], y[~mask], label_space))


def reference_train_tree(data: LabeledVectors) -> ReferenceTree:
    if data.x.shape[0] == 0:
        raise EmptyDataset("cannot train on zero rows")
    index = {lab: i for i, lab in enumerate(data.label_space)}
    y = np.array([index[lab] for lab in data.labels])
    root = _reference_grow(data.x, y, data.label_space)
    return ReferenceTree(root, data.x.shape[1], list(data.label_space))


# ---------------------------------------------------------------------------
# GA fitness as computed before trees grew together: one sorted() over
# (label, value tuple) per individual, one reference_train_tree per inner
# fold, and held-out rows through cart_predict one at a time.  The
# bit-exact reference for the library's population scorer.

def reference_stratified_fold_ids(labels: list[str], values: np.ndarray, k: int,
                                  rng_seed: int) -> list[int]:
    n = len(labels)
    order = sorted(range(n), key=lambda i: (labels[i], tuple(values[i])))
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    fold_of = [0] * n
    group: list[int] = []

    def flush(group_rows):
        perm = rng.permutation(len(group_rows))
        for j, p in enumerate(perm):
            fold_of[group_rows[p]] = j % k
    prev = None
    for i in order:
        if prev is not None and labels[i] != prev:
            flush(group)
            group = []
        group.append(i)
        prev = labels[i]
    if group:
        flush(group)
    return fold_of


def reference_fitness(subset, data: LabeledVectors, cfg) -> float:
    indices = subset.indices if isinstance(subset, FeatureSubset) else tuple(subset)
    if data.x.shape[0] == 0:
        raise EmptyDataset("cannot score on zero rows")
    sub = data.restrict(indices)
    n = sub.x.shape[0]
    if n < 2:
        return 1.0
    k = min(5, n)
    fold_of = reference_stratified_fold_ids(sub.labels, sub.x, k, cfg.rng_seed)
    correct = 0
    total = 0
    for fold in range(k):
        train_rows = [i for i in range(n) if fold_of[i] != fold]
        val_rows = [i for i in range(n) if fold_of[i] == fold]
        if not train_rows or not val_rows:
            continue
        tree = reference_train_tree(LabeledVectors(
            sub.x[train_rows], [sub.labels[i] for i in train_rows], sub.label_space))
        for i in val_rows:
            total += 1
            if cart_predict(tree.root, sub.x[i]) == sub.labels[i]:
                correct += 1
    return correct / total if total else 1.0


def tree_dump(tree) -> tuple:
    """Nested tuples of feature, threshold bits, label and class counts, of
    a ReferenceTree or of the library's flat DecisionTree."""
    if isinstance(tree, ReferenceTree):
        def dump(node):
            if node[0] == "leaf":
                return ("leaf", node[1], tuple(sorted(node[2].items())))
            _, f, thr, left, right = node
            return (f, float(thr).hex(), dump(left), dump(right))
        return dump(tree.root)

    def flat(i):
        if tree.feature[i] < 0:
            counts = tree.counts[i].tolist()
            return ("leaf", tree.label_space[int(np.argmax(counts))],
                    tuple(sorted((lab, c) for lab, c in zip(tree.label_space, counts)
                                 if c)))
        return (int(tree.feature[i]), float(tree.threshold[i]).hex(),
                flat(tree.left[i]), flat(tree.right[i]))
    return flat(0)


# ---------------------------------------------------------------------------
# The parser's scanners as they were before one bracket table drove them:
# per-character comment and depth loops, a separate metadata pass over the
# tokens, and one bracket loop each for partitioning and splitting.  The
# references for the library's scanners (same output, same exceptions).

_REF_TOKEN_RE = re.compile(
    r'c?"(?:[^"]*)"'
    r"|[%@](?:\"[^\"]*\"|[-A-Za-z$._0-9]+)"
    r"|![-A-Za-z$._0-9]*"
    r"|\#\d+"
    r"|[-A-Za-z$._][-A-Za-z$._0-9]*"
    r"|[-+]?(?:0x[0-9a-fA-F]+|\d+\.\d+(?:[eE][-+]?\d+)?|\d+(?:[eE][-+]?\d+)?)"
    r"|\.\.\."
    r"|[,()\[\]{}<>*=]"
)

_REF_NUMBER_RE = re.compile(r"^[-+]?(?:0x[0-9a-fA-F]+|\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)$")


def reference_strip_comment(line: str) -> str:
    out = []
    in_string = False
    for ch in line:
        if ch == '"':
            in_string = not in_string
        elif ch == ";" and not in_string:
            break
        out.append(ch)
    return "".join(out).rstrip()


def reference_bracket_depth(text: str, braces: bool = True) -> int:
    openers, closers = ("([<{", ")]>}") if braces else ("([<", ")]>")
    depth = 0
    in_string = False
    for ch in text:
        if ch == '"':
            in_string = not in_string
        elif not in_string:
            if ch in openers:
                depth += 1
            elif ch in closers:
                depth -= 1
    return depth


def reference_strip_metadata_tokens(tokens: list[str]) -> list[str]:
    """Drop `!x !n` metadata pairs, attribute refs and align suffixes."""
    out: list[str] = []
    i = 0
    while i < len(tokens):
        t = tokens[i]
        if t.startswith("!"):
            i += 1
            continue
        if t.startswith("#"):
            i += 1
            continue
        if t == "," and i + 1 < len(tokens) and (
                tokens[i + 1].startswith("!") or tokens[i + 1].startswith("#")):
            i += 1
            continue
        if t == "align" and i + 1 < len(tokens) and _REF_NUMBER_RE.match(tokens[i + 1]):
            if out and out[-1] == ",":
                out.pop()
            i += 2
            continue
        out.append(t)
        i += 1
    return out


def reference_tokenize(text: str) -> list[str]:
    return reference_strip_metadata_tokens(_REF_TOKEN_RE.findall(text))


def reference_consume_group(tokens: list[str], i: int, open_tok: str,
                            close_tok: str) -> int:
    depth = 0
    while i < len(tokens):
        if tokens[i] == open_tok:
            depth += 1
        elif tokens[i] == close_tok:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    raise ValueError(f"unbalanced {open_tok}")


def reference_split_top_level(tokens: list[str], sep: str = ",") -> list[list[str]]:
    parts: list[list[str]] = []
    cur: list[str] = []
    depth = 0
    opens = {"(": ")", "[": "]", "{": "}", "<": ">"}
    closes = {v: k for k, v in opens.items()}
    for t in tokens:
        if t in opens:
            depth += 1
        elif t in closes:
            depth -= 1
        if t == sep and depth == 0:
            parts.append(cur)
            cur = []
        else:
            cur.append(t)
    if cur:
        parts.append(cur)
    return parts


def reference_partition(tokens: list[str], sep: str) -> tuple[list[str], str, list[str]]:
    depth = 0
    opens = {"(": 1, "[": 1, "{": 1, "<": 1}
    closes = {")": 1, "]": 1, "}": 1, ">": 1}
    for k, t in enumerate(tokens):
        if t == sep and depth == 0:
            return tokens[:k], t, tokens[k + 1:]
        if t in opens:
            depth += 1
        elif t in closes:
            depth -= 1
    return tokens, "", []


def _reference_opens_clauses(line: str) -> bool:
    """An invoke, callbr or landingpad, which clause lines may continue."""
    words = line.split()
    if len(words) > 2 and words[0].startswith("%") and words[1] == "=":
        words = words[2:]
    return bool(words) and words[0] in ("invoke", "callbr", "landingpad")


def _reference_is_clause(raw: str) -> bool:
    """`to label ...`, `cleanup`, `catch ...` or `filter ...`, perhaps with a
    `, !dbg` tail; a block label such as `cleanup:` starts with a word that
    ends in a colon instead."""
    words = raw.replace(",", " , ").split()
    if not words:
        return False
    if words[0] == "to":
        return len(words) > 1 and words[1] == "label"
    return words[0] in ("cleanup", "catch", "filter")


class _Forgetful(dict):
    """A line memo that never stores, so every instruction line is parsed."""

    def __setitem__(self, line, instr):
        pass


def _reference_logical_lines(raw_lines: list[str]):
    i = 0
    n = len(raw_lines)
    while i < n:
        line = reference_strip_comment(raw_lines[i]).strip()
        lineno = i + 1
        i += 1
        if not line:
            continue
        braces = not line.startswith("define")  # a define's braces are its body's
        depth = reference_bracket_depth(line, braces)
        clauses = _reference_opens_clauses(line)
        while i < n and (depth > 0 or clauses and _reference_is_clause(raw_lines[i])):
            nxt = reference_strip_comment(raw_lines[i]).strip()
            i += 1
            line = line + " " + nxt
            depth += reference_bracket_depth(nxt, braces)
        yield lineno, line


def reference_parse_ir(text: str, name: str = "") -> IrModule:
    """parse_ir without its line memo: every instruction line is parsed
    afresh by parse_instruction, and logical lines are joined with the
    per-character scanners above and a word-based clause rule.  The
    reference for parse_ir's memoized parse (same module, same MalformedIr
    line and message)."""
    module = IrModule(name=name, functions=[])
    seen: set[str] = set()
    fn_parser = None
    for lineno, line in _reference_logical_lines(text.splitlines()):
        if fn_parser is not None:
            if line == "}":
                fn_parser.finish()
                fn_parser = None
            elif line.startswith("define ") or line.startswith("declare "):
                raise MalformedIr(lineno, "function inside function body (unbalanced braces?)")
            else:
                fn_parser.feed(line, lineno)
            continue
        try:
            fn_parser = ircore._module_line(module, seen, _Forgetful(), line, lineno)
        except (ValueError, IndexError, TypeError) as exc:
            raise MalformedIr(lineno, f"cannot parse {line[:40]!r}: {exc}") from exc
    if fn_parser is not None:
        raise MalformedIr(len(text.splitlines()),
                          "unbalanced braces: unterminated function body")
    return module


# ---------------------------------------------------------------------------
# The program graph as built before one pass per function: every function's
# nodes first, then every function's edges, through dicts keyed by function
# name.  The reference for build_graph's node ids and edge order.

def reference_build_graph(module: IrModule) -> ProgramGraph:
    g = ProgramGraph()
    defined = {f.name for f in module.defined_functions()}

    control_ids: dict[tuple[str, int, int], int] = {}   # (fn, block, instr) -> node
    entry_ids: dict[str, int] = {}                      # fn name -> entry control node
    ret_ids: dict[str, list[int]] = {}                  # fn name -> ret control nodes

    def add_node(node_type: NodeType, token: str) -> int:
        nid = len(g.nodes)
        g.nodes.append(GraphNode(nid, node_type, token))
        return nid

    per_fn_values: dict[str, dict[str, int]] = {}
    per_fn_consts: dict[str, dict[tuple[str, str], int]] = {}
    for fn in module.defined_functions():
        values: dict[str, int] = {}
        for pid, ptype in fn.params:
            values[pid] = add_node(NodeType.VARIABLE, canonical_type(ptype))
        for bi, block in enumerate(fn.blocks):
            for ii, instr in enumerate(block.instructions):
                token = instr.opcode
                if instr.call_target is not None and instr.call_target not in defined \
                        and not instr.call_target.startswith("%"):
                    token = f"{instr.opcode}:{instr.call_target}"
                nid = add_node(NodeType.CONTROL, token)
                control_ids[(fn.name, bi, ii)] = nid
                if bi == 0 and ii == 0:
                    entry_ids[fn.name] = nid
                if instr.opcode == "ret":
                    ret_ids.setdefault(fn.name, []).append(nid)
                if instr.result_id is not None:
                    values[instr.result_id] = add_node(
                        NodeType.VARIABLE, canonical_type(instr.type_str))
        consts: dict[tuple[str, str], int] = {}
        for block in fn.blocks:
            for instr in block.instructions:
                for op in instr.operands:
                    if op.kind in (OperandKind.CONSTANT, OperandKind.GLOBAL,
                                   OperandKind.FUNCTION):
                        key = (op.kind.value, op.token)
                        if key not in consts:
                            consts[key] = add_node(NodeType.CONSTANT, "Constant")
        per_fn_values[fn.name] = values
        per_fn_consts[fn.name] = consts

    call_sites: list[tuple[int, str]] = []
    for fn in module.defined_functions():
        values = per_fn_values[fn.name]
        consts = per_fn_consts[fn.name]
        label_to_index = {b.label: i for i, b in enumerate(fn.blocks)}
        for bi, block in enumerate(fn.blocks):
            for ii, instr in enumerate(block.instructions):
                nid = control_ids[(fn.name, bi, ii)]
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
            for ii in range(len(block.instructions) - 1):
                g.edges.append(GraphEdge(control_ids[(fn.name, bi, ii)],
                                         control_ids[(fn.name, bi, ii + 1)],
                                         EdgeType.CONTROL, 0))
            last = len(block.instructions) - 1
            for k, target in enumerate(successors(block)):
                tbi = label_to_index[target]
                g.edges.append(GraphEdge(control_ids[(fn.name, bi, last)],
                                         control_ids[(fn.name, tbi, 0)],
                                         EdgeType.CONTROL, k))

    ret_out: dict[int, int] = {}
    for site, callee in call_sites:
        g.edges.append(GraphEdge(site, entry_ids[callee], EdgeType.CALL, 0))
        for ret_node in ret_ids.get(callee, []):
            k = ret_out.get(ret_node, 0)
            g.edges.append(GraphEdge(ret_node, site, EdgeType.CALL, k))
            ret_out[ret_node] = k + 1
    return g


# ---------------------------------------------------------------------------
# IR helpers for the parser's tests: the def-use map, structural equality,
# and a printer from the parsed structures back to IR text the parser reads,
# for round-trip tests (no compatibility promise).

def def_use_map(fn: IrFunction) -> dict[str, list[tuple[int, int]]]:
    """Map every defined local id (params included) to its list of use sites."""
    if fn.is_declaration:
        raise ValueError(f"@{fn.name} is a declaration")
    defs: dict[str, list[tuple[int, int]]] = {}
    for pid, _ in fn.params:
        defs[pid] = []
    for block in fn.blocks:
        for instr in block.instructions:
            if instr.result_id is not None:
                defs[instr.result_id] = []
    for bi, block in enumerate(fn.blocks):
        for ii, instr in enumerate(block.instructions):
            for op in instr.operands:
                if op.kind is OperandKind.LOCAL:
                    if op.token not in defs:
                        raise UndefinedLocal(op.token)
                    defs[op.token].append((bi, ii))
    return defs


def structurally_equal(a: IrModule, b: IrModule) -> bool:
    """Structural equality over everything the representations consume."""
    def fn_key(f: IrFunction):
        return (f.name, f.is_declaration,
                tuple((p, canonical_type(t)) for p, t in f.params),
                tuple((b2.label, tuple((i.opcode, canonical_type(i.type_str),
                                        i.result_id, i.call_target, i.operands)
                                       for i in b2.instructions))
                      for b2 in f.blocks))
    return [fn_key(f) for f in a.functions] == [fn_key(f) for f in b.functions]


def render(module: IrModule) -> str:
    parts = []
    for fn in module.functions:
        params = ", ".join(f"{t} {p}" for p, t in fn.params)
        if fn.is_declaration:
            parts.append(f"declare void @{fn.name}({params})")
            continue
        parts.append(f"define void @{fn.name}({params}) {{")
        for bi, block in enumerate(fn.blocks):
            if bi > 0 or block.label != "entry":
                parts.append(f"{block.label}:")
            for instr in block.instructions:
                parts.append("  " + _render_instruction(instr))
        parts.append("}")
    return "\n".join(parts) + "\n"


def _render_value(op: Operand) -> str:
    return op.token


def _render_instruction(instr: IrInstruction) -> str:  # noqa: C901
    prefix = f"{instr.result_id} = " if instr.result_id is not None else ""
    ops = instr.operands
    op = instr.opcode
    if op == "ret":
        return "ret void" if not ops else f"ret i64 {_render_value(ops[0])}"
    if op == "br":
        if len(ops) == 1:
            return f"br label %{ops[0].token}"
        return (f"br i1 {_render_value(ops[0])}, label %{ops[1].token}, "
                f"label %{ops[2].token}")
    if op == "switch":
        cases = []
        rest = ops[2:]
        for k in range(0, len(rest) - 1, 2):
            cases.append(f"i64 {_render_value(rest[k])}, label %{rest[k + 1].token}")
        return (f"switch i64 {_render_value(ops[0])}, label %{ops[1].token} "
                f"[ {' '.join(cases)} ]")
    if op == "unreachable":
        return "unreachable"
    if op in ("call", "invoke"):
        callee = ops[0].token
        args = ", ".join(f"i64 {_render_value(o)}" for o in ops[1:]
                         if o.kind is not OperandKind.LABEL)
        ret = instr.type_str if instr.result_id is not None else "void"
        text = f"{prefix}{op} {ret} {callee}({args})"
        labels = [o for o in ops if o.kind is OperandKind.LABEL]
        if labels:
            text += f" to label %{labels[0].token} unwind label %{labels[1].token}"
        return text
    if op == "load":
        return f"{prefix}load {instr.type_str}, ptr {_render_value(ops[0])}"
    if op == "store":
        return f"store i64 {_render_value(ops[0])}, ptr {_render_value(ops[1])}"
    if op == "alloca":
        extra = f", i64 {_render_value(ops[0])}" if ops else ""
        return f"{prefix}alloca i64{extra}"
    if op == "getelementptr":
        idx = "".join(f", i64 {_render_value(o)}" for o in ops[1:])
        return f"{prefix}getelementptr i64, ptr {_render_value(ops[0])}{idx}"
    if op in BINARY_OPCODES:
        vals = ", ".join(_render_value(o) for o in ops)
        return f"{prefix}{op} {instr.type_str} {vals}"
    if op == "fneg":
        return f"{prefix}fneg {instr.type_str} {_render_value(ops[0])}"
    if op in ("icmp", "fcmp"):
        pred = "eq" if op == "icmp" else "oeq"
        return f"{prefix}{op} {pred} i64 {_render_value(ops[0])}, {_render_value(ops[1])}"
    if op in CAST_OPCODES:
        return f"{prefix}{op} i64 {_render_value(ops[0])} to {instr.type_str}"
    if op == "freeze":
        return f"{prefix}freeze {instr.type_str} {_render_value(ops[0])}"
    if op == "phi":
        pairs = []
        for k in range(0, len(ops) - 1, 2):
            pairs.append(f"[ {_render_value(ops[k])}, %{ops[k + 1].token} ]")
        return f"{prefix}phi {instr.type_str} {', '.join(pairs)}"
    if op == "select":
        return (f"{prefix}select i1 {_render_value(ops[0])}, "
                f"{instr.type_str} {_render_value(ops[1])}, "
                f"{instr.type_str} {_render_value(ops[2])}")
    if op == "atomicrmw":
        return (f"{prefix}atomicrmw add ptr {_render_value(ops[0])}, "
                f"{instr.type_str} {_render_value(ops[1])} seq_cst")
    if op == "cmpxchg":
        inner = instr.type_str.strip("{} ").rsplit(",", 1)[0].strip()
        return (f"{prefix}cmpxchg ptr {_render_value(ops[0])}, "
                f"{inner} {_render_value(ops[1])}, {inner} {_render_value(ops[2])} "
                f"seq_cst seq_cst")
    if op == "fence":
        return "fence seq_cst"
    vals = ", ".join(_render_value(o) for o in ops)
    # an untyped `resume %x` would read its operand as a named type
    ty = instr.type_str if instr.type_str != "void" or vals else ""
    sep = " " if ty and vals else ""
    return f"{prefix}{op} {ty}{sep}{vals}".rstrip()
