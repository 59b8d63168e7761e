"""Heterogeneous GATv2 classifier over program graphs.

Three layers (128, 64, 32).  In each, every typed edge of the program graph
(`graph.RELATIONS`) is an attention relation; per node type the messages of
its relations are summed with the node's own term `W_self h`, one matrix per
node type (as in R-GCN), then ELU.  Elementwise max pooling over all nodes
and a two-layer fully connected head follow.  Trained with cross-entropy and
Adam.

Attention is scored only on contested edges, those into a node with two
or more incoming edges of the relation; any other edge's attention is
exactly 1.  Every value transform runs once per row of the table a layer
reads and is then gathered per edge or node, and the scoring transform
only on the rows that contested edges touch: layer 0 reads the embedding
table itself, each node being its token's row, and later layers read the
previous layer's node features.  In float64 this differs from
gathering first and scoring every edge only in the order of sums, within
rtol 1e-10 plus atol 1e-12 times the largest gradient of the model (see
`gatv2_relation`).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, ClassOutOfRange, ShapeMismatch, Tensor, adam_step
from .graph import NODE_TYPES, RELATIONS, ProgramGraph

__all__ = [
    "GnnConfig", "GnnModel", "RelationParams", "EmptyGraph",
    "MissingRelationParams", "CheckpointParamsMismatch", "ClassOutOfRange",
    "ShapeMismatch", "AdamState", "adam_step", "gatv2_relation", "hetero_layer",
    "forward", "logits_batch", "train", "predict_gnn",
    "predict_with_probabilities", "save_checkpoint", "load_checkpoint",
    "write_loss_log_csv", "RELATIONS",
]


class EmptyGraph(Exception):
    pass


class EmptyDataset(Exception):
    pass


class MissingRelationParams(Exception):
    pass


class InvalidGnnConfig(Exception):
    pass


class CheckpointParamsMismatch(Exception):
    """A checkpoint's parameter list does not name every model parameter
    exactly once."""


OOV_TOKEN = "<unk>"


@dataclass
class GnnConfig:
    num_classes: int = 2
    layer_sizes: tuple[int, int, int] = (128, 64, 32)
    node_embed_dim: int = 64
    fc_hidden: int = 16
    leaky_slope: float = 0.2
    lr: float = 4e-4
    epochs: int = 10
    batch_size: int = 32
    rng_seed: int = 0

    def validate(self):
        if len(self.layer_sizes) != 3:
            raise InvalidGnnConfig("exactly three attention layers are supported")
        dims = (*self.layer_sizes, self.node_embed_dim, self.fc_hidden,
                self.num_classes)
        if any(d < 1 for d in dims):
            raise InvalidGnnConfig("all dimensions must be >= 1")
        if self.batch_size < 1 or self.epochs < 0:
            raise InvalidGnnConfig("batch_size must be >= 1 and epochs >= 0")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise InvalidGnnConfig(f"lr must be finite and > 0, not {self.lr!r}")
        if not math.isfinite(self.leaky_slope):
            raise InvalidGnnConfig(f"leaky_slope must be finite, not {self.leaky_slope!r}")


@dataclass
class RelationParams:
    w_att: Tensor   # (out, 2*in) scoring transform
    a: Tensor       # (out, 1) attention vector
    w_val: Tensor   # (out, in) value transform

    def tensors(self):
        return [self.w_att, self.a, self.w_val]


@dataclass
class GnnModel:
    config: GnnConfig
    vocab: dict[str, int]                 # token -> embedding row; row 0 = OOV
    embedding: Tensor
    layers: list[dict[tuple[str, str, str], RelationParams]]
    self_w: list[dict[str, Tensor]]       # per layer: node type -> (out, in)
    fc1_w: Tensor
    fc1_b: Tensor
    fc2_w: Tensor
    fc2_b: Tensor
    label_space: list[str] = field(default_factory=list)

    def parameters(self) -> list[Tensor]:
        out = [self.embedding]
        for layer, own in zip(self.layers, self.self_w):
            for rel in RELATIONS:
                out.extend(layer[rel].tensors())
            out.extend(own[t] for t in NODE_TYPES)
        out.extend([self.fc1_w, self.fc1_b, self.fc2_w, self.fc2_b])
        return out

    def parameter_items(self) -> list[tuple[str, Tensor]]:
        return [(t.name, t) for t in self.parameters()]


def build_vocab(graphs: list[ProgramGraph]) -> dict[str, int]:
    tokens = sorted({n.token for g in graphs for n in g.nodes})
    return {tok: i + 1 for i, tok in enumerate(tokens)}  # row 0 is the OOV bucket


def init_model(cfg: GnnConfig, vocab: dict[str, int],
               label_space: list[str]) -> GnnModel:
    """Xavier-uniform parameters drawn from the seeded generator in a fixed
    order (embedding, then per layer each relation and each node type's self
    matrix, then the FC head)."""
    cfg.validate()
    if cfg.num_classes != len(label_space):
        raise InvalidGnnConfig("num_classes must match the label space")
    rng = np.random.Generator(np.random.PCG64(cfg.rng_seed))
    emb = Tensor(ad.xavier_uniform(rng, len(vocab) + 1, cfg.node_embed_dim,
                                   (len(vocab) + 1, cfg.node_embed_dim)),
                 requires_grad=True, name="embedding")
    layers, self_w = [], []
    in_dim = cfg.node_embed_dim
    for li, out_dim in enumerate(cfg.layer_sizes):
        layer, own = {}, {}
        for rel in RELATIONS:
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
        for t in NODE_TYPES:
            # skip the draws of the w_att and a that self loops had when they
            # were relations, so every parameter keeps its initial value
            rng.bit_generator.advance(out_dim * (2 * in_dim + 1))
            own[t] = Tensor(ad.xavier_uniform(rng, in_dim, out_dim, (out_dim, in_dim)),
                            requires_grad=True, name=f"layer{li}.{t}-self-{t}.w_val")
        layers.append(layer)
        self_w.append(own)
        in_dim = out_dim
    fc1_w = Tensor(ad.xavier_uniform(rng, in_dim, cfg.fc_hidden,
                                     (in_dim, cfg.fc_hidden)),
                   requires_grad=True, name="fc1.w")
    fc1_b = Tensor(np.zeros(cfg.fc_hidden), requires_grad=True, name="fc1.b")
    fc2_w = Tensor(ad.xavier_uniform(rng, cfg.fc_hidden, cfg.num_classes,
                                     (cfg.fc_hidden, cfg.num_classes)),
                   requires_grad=True, name="fc2.w")
    fc2_b = Tensor(np.zeros(cfg.num_classes), requires_grad=True, name="fc2.b")
    return GnnModel(cfg, dict(vocab), emb, layers, self_w, fc1_w, fc1_b, fc2_w,
                    fc2_b, list(label_space))


def gatv2_relation(h_src: Tensor, h_dst: Tensor, edges, params: RelationParams,
                   slope: float = 0.2, src_rows=None, dst_rows=None) -> Tensor:
    """Attention messages for one relation.

    Per edge (i, j): score = a . leaky_relu(W_att [h_i || h_j]); attention is
    the softmax of scores over each destination's incoming edges; the output
    row for j sums attention-weighted value transforms of the sources.
    Destinations without incoming edges output zeros.  `edges` is an (E, 2)
    int64 array of (source node, destination node) or a list of such pairs.
    Node i of a side is row `rows[i]` of that side's table (`src_rows`,
    `dst_rows`), or row i where no rows are given; layer 0 passes the
    embedding table and each node's token row.

    Only contested edges, those whose destination has two or more
    incoming edges, are scored.  Any other edge's attention is exactly 1
    (score minus its own max is +0.0, exp gives 1, over a denominator of
    1), so its message is `(h_src W_valᵀ)[src]`, and the gradient the full
    path gives its score is g/1 - g*1/1 = +0.0, which moves neither w_att
    nor a.  So scores, softmax and every score gradient run on contested
    edges alone, and a relation without one keeps its w_att and a at zero
    gradient.  Only a non-finite score on an uncontested edge, which would
    make the full path's attention NaN, gives a different result.

    Each value transform runs once per table row and is then gathered per
    edge: the values are `(h_src W_valᵀ)[src]`.  Since W_att [h_i || h_j] =
    W_l h_i + W_r h_j for the two halves of the one stored W_att (Brody et
    al., ICLR 2022), a contested edge's score reads `P_l[src] + P_r[dst]`
    with `P_l = h_src W_lᵀ` and `P_r = h_dst W_rᵀ` taken only on the
    distinct table rows that contested edges touch.  Backward scatters each
    edge gradient to its row first and then does one matmul per weight,
    and puts the input gradients of the scores back at the touched rows.
    The relation is one autodiff node, whose backward keeps the value
    transforms and, for the contested edges, the score inputs, attention,
    exponentiated scores and denominators; `hetero_layer` runs the same
    forward and backward inside its per-type sum, where the messages are
    no node of their own.  Against the chain of primitive operations that
    gathers before it transforms and scores every edge
    (`gatv2_relation_full` in the tests' oracles) only the summation order
    differs: outputs and gradients agree within rtol 1e-10 plus atol 1e-12
    times the largest gradient of the model.
    """
    messages, backward = _relation_messages(h_src, h_dst, edges, params, slope,
                                            src_rows, dst_rows)
    if backward is None:
        return Tensor(messages)
    return Tensor(messages, parents=(h_src, h_dst, *params.tensors()),
                  backward=backward)


def _relation_messages(h_src: Tensor, h_dst: Tensor, edges, params: RelationParams,
                       slope: float, src_rows, dst_rows):
    """`gatv2_relation`'s messages as an array, and the closure that takes
    their gradient into h_src, h_dst and the relation's parameters; the
    closure is None where there are no edges and the messages are zeros."""
    w_att, a, w_val = params.w_att, params.a, params.w_val
    n_src, d_src = h_src.data.shape
    n_dst = h_dst.data.shape[0] if dst_rows is None else len(dst_rows)
    if w_att.data.shape[1] != d_src + h_dst.data.shape[1]:
        raise ShapeMismatch(
            f"w_att expects width {w_att.data.shape[1]}, got "
            f"{d_src} + {h_dst.data.shape[1]}")
    if len(edges) == 0:
        return np.zeros((n_dst, w_val.data.shape[0])), None
    src_idx, dst_idx = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    src_row = src_idx if src_rows is None else src_rows[src_idx]
    contested = _contested_edges(dst_idx)

    p_val = h_src.data @ w_val.data.T                      # (n_src, out)
    values = p_val[src_row]                                # (E, out)
    # the W_att halves transform only the rows that contested edges touch
    c_dst = dst_idx[contested]
    c_src = src_row[contested]
    src_u, src_at = np.unique(c_src, return_inverse=True)
    dst_u, dst_at = np.unique(c_dst if dst_rows is None else dst_rows[c_dst],
                              return_inverse=True)
    w_l, w_r = w_att.data[:, :d_src], w_att.data[:, d_src:]
    pre = (h_src.data[src_u] @ w_l.T)[src_at] + (h_dst.data[dst_u] @ w_r.T)[dst_at]
    scores = _leaky_relu(pre, slope) @ a.data               # (C, 1)
    # softmax per destination; the shift is a constant so gradients are exact
    shift = np.full(n_dst, -np.inf)
    np.maximum.at(shift, c_dst, scores.ravel())
    expd = np.exp(scores + -shift[c_dst][:, None])
    denom = ad._scatter_rows(c_dst, expd, n_dst)[c_dst]   # (C, 1)
    alpha = expd / denom                                   # (C, 1)
    values[contested] *= alpha

    def backward(g):
        g_mv = g[dst_idx]                              # of values * alpha
        g_c = g_mv[contested]
        g_alpha = (g_c * p_val[c_src]).sum(axis=1, keepdims=True)
        g_mv[contested] = g_c * alpha
        g_val = ad._scatter_rows(src_row, g_mv, n_src)
        del g_mv, g_c
        g_expd = g_alpha / denom                       # of expd / denom
        g_denom = -g_alpha * expd / (denom * denom)
        g_expd += ad._scatter_rows(c_dst, g_denom, n_dst)[c_dst]
        g_scores = g_expd * expd                       # of exp, then the shift
        if a.requires_grad:
            a.accumulate(_leaky_relu(pre, slope).T @ g_scores)
        g_pre = (g_scores @ a.data.T) * np.where(pre > 0, 1.0, slope)
        g_l = ad._scatter_rows(src_at, g_pre, len(src_u))
        g_r = ad._scatter_rows(dst_at, g_pre, len(dst_u))
        del g_pre
        if w_val.requires_grad:
            w_val.accumulate(g_val.T @ h_src.data)
        if w_att.requires_grad:
            w_att.accumulate(np.hstack([g_l.T @ h_src.data[src_u],
                                        g_r.T @ h_dst.data[dst_u]]))
        if h_src.requires_grad:
            g_src = g_val @ w_val.data
            g_src[src_u] += g_l @ w_l
            h_src.accumulate(g_src)
        if h_dst.requires_grad:
            g_dst = np.zeros_like(h_dst.data)
            g_dst[dst_u] = g_r @ w_r
            h_dst.accumulate(g_dst)

    return ad._scatter_rows(dst_idx, values, n_dst), backward


def _contested_edges(dst_idx: np.ndarray) -> np.ndarray:
    """Ids of the edges whose destination has two or more incoming edges;
    every other edge's attention is exactly 1."""
    return np.flatnonzero(np.bincount(dst_idx)[dst_idx] > 1)


def _leaky_relu(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x > 0, x, slope * x)


def hetero_layer(features: dict[str, Tensor],
                 rel_edges: dict[tuple[str, str, str], np.ndarray],
                 layer_params: dict[tuple[str, str, str], RelationParams],
                 self_w: dict[str, Tensor], slope: float = 0.2,
                 rows: dict[str, np.ndarray] | None = None) -> dict[str, Tensor]:
    """One heterogeneous round: per node type, the messages of the relations
    into it and then its own term `h W_selfᵀ`, summed in that order, then
    ELU.  With `rows`, node i of type t is row `rows[t][i]` of
    `features[t]`, and the own term is `(features[t] W_selfᵀ)[rows[t]]`.
    Each node type's sum is one autodiff node (`_type_sum`)."""
    rows = rows or {}
    return {t: ad.elu(_type_sum(t, features, rel_edges, layer_params, self_w[t],
                                slope, rows))
            for t in features}


def _type_sum(t: str, features, rel_edges, layer_params, w_self: Tensor,
              slope: float, rows) -> Tensor:
    """Node type t's relation messages, added left to right, plus its own
    term, as one autodiff node.  Each message array is added into the total
    and dropped, and the own term's product is not kept, so the tape holds
    only what the relations' backward closures read.  Backward gives each
    relation the node's gradient in turn, then the own term: its gradient is
    scattered to the rows of features[t] (with `rows`), and features[t]
    gets `g W_self` and W_self gets `(features[t]ᵀ g)ᵀ`."""
    feats, own_rows = features[t], rows.get(t)
    total, parents, backwards = None, [], []
    for rel, params in layer_params.items():
        src_t, _, dst_t = rel
        edges = rel_edges.get(rel, ())
        if dst_t != t or len(edges) == 0:
            continue  # into another type, or without edges (only zeros)
        messages, relation_backward = _relation_messages(
            features[src_t], feats, edges, params, slope, rows.get(src_t), own_rows)
        if total is None:
            total = messages
        else:
            total += messages
        del messages  # free it before the next relation's arrays
        parents += [features[src_t], feats, *params.tensors()]
        backwards.append(relation_backward)
    own = feats.data @ w_self.data.T
    if own_rows is not None:
        own = own[own_rows]
    if total is None:
        total = own
    else:
        total += own

    def backward(g):
        for relation_backward in backwards:
            relation_backward(g)
        g_own = g if own_rows is None else ad._scatter_rows(
            own_rows, g, feats.data.shape[0])
        if feats.requires_grad:
            feats.accumulate(g_own @ w_self.data)
        if w_self.requires_grad:
            w_self.accumulate((feats.data.T @ g_own).T)
    return Tensor(total, parents=(*parents, feats, w_self), backward=backward)


@dataclass
class _Batch:
    token_rows: dict[str, np.ndarray]
    graph_ids: dict[str, np.ndarray]
    rel_edges: dict[tuple[str, str, str], np.ndarray]   # (E, 2) int64
    n_graphs: int


def _build_batch(graphs: list[ProgramGraph], vocab: dict[str, int]) -> _Batch:
    token_rows = {t: [] for t in NODE_TYPES}
    graph_ids = {t: [] for t in NODE_TYPES}
    rel_edges: dict[tuple[str, str, str], list[tuple[int, int]]] = {
        rel: [] for rel in RELATIONS}
    for gi, g in enumerate(graphs):
        if not g.nodes:
            raise EmptyGraph(f"graph {gi} has no nodes")
        local: list[tuple[str, int]] = []              # node -> (type, row)
        for node in g.nodes:
            t = node.node_type
            local.append((t, len(token_rows[t])))
            token_rows[t].append(vocab.get(node.token, 0))
            graph_ids[t].append(gi)
        for e in g.edges:
            st, si = local[e.src]
            dt, di = local[e.dst]
            rel = (st, e.edge_type, dt)
            if rel not in rel_edges:
                raise MissingRelationParams(
                    f"edge type {e.edge_type} connecting {st}->{dt} "
                    f"has no relation")
            rel_edges[rel].append((si, di))
    return _Batch(
        {t: np.array(v, dtype=np.int64) for t, v in token_rows.items()},
        {t: np.array(v, dtype=np.int64) for t, v in graph_ids.items()},
        {rel: np.array(v, dtype=np.int64).reshape(-1, 2)
         for rel, v in rel_edges.items()},
        len(graphs))


def logits_batch(model: GnnModel, graphs: list[ProgramGraph]) -> Tensor:
    """Forward pass over a disjoint-union batch; returns (n_graphs, C) logits."""
    cfg = model.config
    batch = _build_batch(graphs, model.vocab)
    # layer 0 reads each node type's token rows of the embedding table
    feats = {t: model.embedding for t in NODE_TYPES}
    rows = batch.token_rows
    for layer, own in zip(model.layers, model.self_w):
        feats = hetero_layer(feats, batch.rel_edges, layer, own, cfg.leaky_slope, rows)
        rows = None
    pooled_parts = []
    seg_parts = []
    for t in NODE_TYPES:
        if feats[t].data.shape[0]:
            pooled_parts.append(feats[t])
            seg_parts.append(batch.graph_ids[t])
    all_nodes = ad.concat(pooled_parts, axis=0) if len(pooled_parts) > 1 \
        else pooled_parts[0]
    segs = np.concatenate(seg_parts)
    pooled = ad.segment_max(all_nodes, segs, batch.n_graphs)   # (B, 32)
    hidden = ad.relu(ad.add(ad.matmul(pooled, model.fc1_w), model.fc1_b))
    return ad.add(ad.matmul(hidden, model.fc2_w), model.fc2_b)


def forward(model: GnnModel, graph: ProgramGraph) -> np.ndarray:
    """Logits for a single graph."""
    return logits_batch(model, [graph]).data[0]


def train(model: GnnModel, samples: list[tuple[ProgramGraph, str]],
          ) -> tuple[GnnModel, list[tuple[int, float]]]:
    """Seeded mini-batch training under the model's own config; returns the
    model and per-epoch mean loss."""
    cfg = model.config
    if not samples:
        raise EmptyDataset("no graphs to train on")
    index = {lab: i for i, lab in enumerate(model.label_space)}
    for _, lab in samples:
        if lab not in index:
            raise ClassOutOfRange(f"label {lab!r} not in label space")
    targets = np.array([index[lab] for _, lab in samples])
    graphs = [g for g, _ in samples]
    params = model.parameters()
    state = AdamState()
    rng = np.random.Generator(np.random.PCG64(cfg.rng_seed))
    log: list[tuple[int, float]] = []
    n = len(graphs)
    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            rows = perm[start:start + cfg.batch_size]
            logits = logits_batch(model, [graphs[i] for i in rows])
            loss = ad.cross_entropy_logits(logits, targets[rows])
            for p in params:
                p.grad = None  # adam_step reads None as a zero gradient
            loss.backward()
            adam_step(params, state, cfg.lr)
            total += float(loss.data) * len(rows)
            del logits, loss  # free this step's tape before the next forward
        log.append((epoch, total / n))
    return model, log


def _top_label(model: GnnModel, z: np.ndarray) -> str:
    return model.label_space[int(np.argmax(z))]  # ties break to earliest label


def predict_gnn(model: GnnModel, graph: ProgramGraph) -> str:
    return _top_label(model, forward(model, graph))


def predict_with_probabilities(model: GnnModel, graph: ProgramGraph,
                               ) -> tuple[str, dict[str, float]]:
    """The predicted label and the softmax over the label space, both from
    one forward pass."""
    z = forward(model, graph)
    e = np.exp(z - z.max())
    p = e / e.sum()
    return _top_label(model, z), {lab: float(p[i])
                                  for i, lab in enumerate(model.label_space)}


# ---------------------------------------------------------------------------
# Checkpoint file

def save_checkpoint(path, model: GnnModel):
    tokens = [None] * len(model.vocab)
    for tok, row in model.vocab.items():
        tokens[row - 1] = tok
    doc = {
        "kind": "gnn",
        "config": asdict(model.config),
        "tokens": tokens,
        "label_space": model.label_space,
        "params": [{"name": name, "shape": list(t.data.shape),
                    "values": t.data.ravel().tolist()}
                   for name, t in model.parameter_items()],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path) -> GnnModel:
    with open(path) as fh:
        doc = json.load(fh)
    cfg_doc = dict(doc["config"])
    cfg_doc["layer_sizes"] = tuple(cfg_doc["layer_sizes"])
    cfg = GnnConfig(**cfg_doc)
    vocab = {tok: i + 1 for i, tok in enumerate(doc["tokens"])}
    model = init_model(cfg, vocab, doc["label_space"])
    by_name = dict(model.parameter_items())
    unread = set(by_name)
    for entry in doc["params"]:
        name = entry["name"]
        if name not in unread:
            problem = "repeats" if name in by_name else "has unknown"
            raise CheckpointParamsMismatch(f"checkpoint {problem} parameter {name!r}")
        unread.discard(name)
        t = by_name[name]
        data = np.array(entry["values"], dtype=np.float64).reshape(entry["shape"])
        if data.shape != t.data.shape:
            raise ShapeMismatch(f"checkpoint {name} has shape "
                                f"{data.shape}, expected {t.data.shape}")
        t.data = data
    if unread:
        missing = next(name for name in by_name if name in unread)
        raise CheckpointParamsMismatch(f"checkpoint lacks parameter {missing!r}")
    return model


def write_loss_log_csv(log: list[tuple[int, float]], path):
    with open(path, "w") as fh:
        fh.write("epoch,mean_loss\n")
        for epoch, loss in log:
            fh.write(f"{epoch},{loss:.10f}\n")
