"""Decision-tree classifier over embedding vectors plus genetic-algorithm
coordinate selection.

The tree is CART with Gini impurity, exhaustive best-split search, grown to
purity (no depth cap, min split 2, min leaf 1).  Ties break toward the lowest
feature index then the lowest threshold; leaf ties toward the label earliest
in the label space, so training is deterministic across platforms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import embed as embed_mod


class EmptyDataset(Exception):
    pass


class WidthMismatch(Exception):
    pass


class InvalidConfig(Exception):
    pass


@dataclass
class LabeledVectors:
    x: np.ndarray               # (n, width)
    labels: list[str]
    label_space: list[str]

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.x.ndim != 2:
            self.x = self.x.reshape(len(self.labels), -1)
        if len(self.labels) != self.x.shape[0]:
            raise ValueError("row/label count mismatch")
        # NaN has no place in a sorted column, and an infinity can become a
        # threshold, which a model file may not hold
        if not np.isfinite(self.x).all():
            raise ValueError("feature values contain NaN or an infinity")
        known = set(self.label_space)
        for lab in self.labels:
            if lab not in known:
                raise ValueError(f"label {lab!r} not in label space")

    def restrict(self, indices) -> "LabeledVectors":
        idx = list(indices)
        if any(i >= self.x.shape[1] for i in idx):
            raise WidthMismatch(f"feature index out of range for width {self.x.shape[1]}")
        return LabeledVectors(self.x[:, idx], list(self.labels), list(self.label_space))


@dataclass(eq=False)
class DecisionTree:
    """CART as flat node arrays, rooted at node 0 (a batch grown together
    roots tree t at node t).  A split sends a row left when its value of
    feature[i] is <= threshold[i]; its children come after it.  A leaf has
    feature -1 and is its own left and right child.  counts (nodes, labels)
    holds every node's class counts over label_space."""
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray
    n_features: int
    label_space: list[str]

    def leaves(self, xt: np.ndarray, roots: np.ndarray,
               cols: np.ndarray) -> np.ndarray:
        """The leaf that column cols[i] of xt (F, S) reaches from roots[i]."""
        node = roots
        feature = self.feature[node]
        while (feature >= 0).any():  # a leaf reads any feature, stays put
            node = np.where(xt[feature, cols] <= self.threshold[node],
                            self.left[node], self.right[node])
            feature = self.feature[node]
        return node

    def leaf(self, rows):
        """The leaf a row of n_features values reaches from the root, or
        the array of leaves the rows of a 2-D block reach in one walk."""
        x = np.asarray(rows, dtype=np.float64)
        block = x if x.ndim == 2 else x.reshape(1, -1)
        if block.shape[1] != self.n_features:
            raise WidthMismatch(
                f"row width {block.shape[1]} != training width {self.n_features}")
        n = block.shape[0]
        nodes = self.leaves(block.T, np.zeros(n, np.intp), np.arange(n))
        return nodes if x.ndim == 2 else int(nodes[0])

    def codes(self, nodes) -> np.ndarray:
        """Label code of each node: the argmax of its counts, ties to the
        earliest label."""
        return self.counts[nodes].argmax(axis=-1)

    def label(self, node: int) -> str:
        return self.label_space[int(self.codes(node))]

    def class_counts(self, node: int) -> dict[str, int]:
        return {lab: c for lab, c in zip(self.label_space, self.counts[node].tolist())
                if c}

    def to_dict(self) -> dict:
        return {name: getattr(self, name).tolist()
                for name in ("feature", "threshold", "left", "right", "counts")}

    @classmethod
    def from_dict(cls, doc: dict, n_features: int,
                  label_space: list[str]) -> "DecisionTree":
        """Raises ValueError unless doc's arrays form such a tree; children
        after their parent also make every walk end."""
        feature, left, right, counts = (np.asarray(doc[name]) for name in
                                        ("feature", "left", "right", "counts"))
        threshold = np.asarray(doc["threshold"])
        n = len(feature)
        if not n or not label_space \
                or any(a.shape != (n,) for a in (threshold, left, right)) \
                or counts.shape != (n, len(label_space)):
            raise ValueError(f"tree arrays are empty or differ from {n} nodes "
                             f"with counts of shape (nodes, {len(label_space)})")
        if any(a.dtype.kind != "i" for a in (feature, left, right, counts)) \
                or threshold.dtype.kind not in "if":
            raise ValueError("tree arrays hold values of the wrong type")
        if (counts < 0).any() or not np.isfinite(threshold).all():
            raise ValueError("tree has a negative count or a non-finite threshold")
        ids = np.arange(n)
        split = feature >= 0
        if (feature < -1).any() or (feature >= n_features).any():
            raise ValueError(f"tree feature neither -1 (a leaf) nor in [0, {n_features})")
        if ((left <= ids) | (right <= ids) | (left >= n) | (right >= n))[split].any():
            raise ValueError("a split's child is out of range or not after it")
        if ((left != ids) | (right != ids))[~split].any():
            raise ValueError("a leaf is not its own left and right child")
        return cls(feature, threshold.astype(np.float64), left, right, counts,
                   n_features, list(label_space))


# Upper bound on features x rows x classes in one scoring pass: it bounds
# the class-count tensor and the scored candidates on wide data, and sets
# how many GA individuals' trees grow together (at least one feature of
# one individual per pass).
_SCORE_CELLS = 1 << 15


def _level_splits(xt, y, order, sizes, counts, onehot):
    """Exhaustive search for every node at once: lowest weighted Gini; ties
    -> lowest feature index, then lowest threshold.  Thresholds are
    midpoints of consecutive distinct sorted values (the lower value where
    the midpoint is not below the upper one).

    Node j owns the next sizes[j] columns of order; see _grow_forest.
    Returns (feature, threshold) per node, feature -1 where no cut exists
    (identical rows with conflicting labels)."""
    n_cols = order.shape[1]
    starts = np.cumsum(sizes) - sizes
    seg = np.repeat(np.arange(len(sizes)), sizes)
    inner = seg[1:] == seg[:-1]  # a cut between two columns of one node
    best_score = np.full(len(sizes), np.inf)
    best_feat = np.full(len(sizes), -1)
    best_thr = np.zeros(len(sizes))
    step = max(1, _SCORE_CELLS // (n_cols * onehot.shape[1]))
    for lo in range(0, len(order), step):
        rows = order[lo:lo + step]
        xs = xt[np.arange(lo, lo + len(rows))[:, None], rows]
        # candidate cuts: between distinct values of one node
        feat, col = ((xs[:, 1:] != xs[:, :-1]) & inner).nonzero()
        if feat.size == 0:
            continue
        # class counts before every column of every row, exact integers; a
        # node's counts left of a cut are a difference of two of them
        cum = np.zeros((rows.size + 1, onehot.shape[1]), np.int32)
        onehot.take(y.take(rows.ravel()), axis=0, out=cum[1:])
        np.cumsum(cum, axis=0, out=cum)
        node = seg[col]
        at = feat * n_cols
        lc = cum.take(at + col + 1, axis=0)
        lc -= cum.take(at + starts[node], axis=0)
        del cum
        n = sizes[node]
        nl = col - starts[node] + 1.0
        nr = n - nl
        p = lc / nl[:, None]
        gini_l = 1.0 - np.einsum("ij,ij->i", p, p)
        np.subtract(counts.take(node, axis=0), lc, out=lc)  # right of the cut
        np.divide(lc, nr[:, None], out=p)
        del lc
        gini_r = 1.0 - np.einsum("ij,ij->i", p, p)
        del p
        scores = np.full(xs.shape, np.inf)
        scores[feat, col] = (nl * gini_l + nr * gini_r) / n
        # each node's first minimum in (feature, column) order: the lowest
        # feature, then the lowest threshold
        low = np.minimum.reduceat(scores.min(axis=0), starts)
        won = low < best_score
        hit = np.where((scores == low[seg]) & won[seg],
                       np.arange(scores.size).reshape(scores.shape), scores.size)
        f, c = np.divmod(np.minimum.reduceat(hit.min(axis=0), starts)[won], n_cols)
        best_score[won] = low[won]
        best_feat[won] = lo + f
        a, b = xs[f, c], xs[f, c + 1]
        with np.errstate(over="ignore"):
            mid = (a + b) / 2.0
        # the midpoint can round onto b (adjacent doubles) or overflow; the
        # lower value a splits the node's rows the same way
        best_thr[won] = np.where((a <= mid) & (mid < b), mid, a)
    return best_feat, best_thr


def _grow_forest(xt: np.ndarray, y: np.ndarray, order: np.ndarray, sizes,
                 n_features: int, label_space: list[str]) -> DecisionTree:
    """Level-wise CART for a batch of trees: every open node of every tree
    is scored in one pass per level, then all of them split at once.

    xt (F, S) holds the feature values of S row slots (F >= 1) and y (S,)
    their label codes.  order (F, N) holds slot ids: tree t owns the next
    sizes[t] columns, and each row lists them sorted stably by its
    feature.  Tree t is rooted at node t."""
    n_classes = len(label_space)
    onehot = np.eye(n_classes, dtype=np.int32)
    sizes = np.asarray(sizes)
    parts = []
    base = 0
    while len(sizes):
        k = len(sizes)
        seg = np.repeat(np.arange(k), sizes)
        counts = np.bincount(seg * n_classes + y[order[0]], minlength=k * n_classes
                             ).reshape(k, n_classes).astype(np.int32)
        feature = np.full(k, -1)
        threshold = np.zeros(k)
        grow = counts.max(axis=1) < sizes  # two rows or more, not pure
        if grow.any():
            feature[grow], threshold[grow] = _level_splits(
                xt, y, order[:, grow[seg]], sizes[grow], counts[grow], onehot)
        split = feature >= 0
        n_split = int(split.sum())
        ids = base + np.arange(k)
        left = np.where(split, base + k + np.cumsum(split) - 1, ids)
        parts.append((feature, threshold, left,
                      np.where(split, left + n_split, ids), counts))
        base += k
        # the children: every left child in node order, then every right
        # child.  Boolean selection runs in row-major order, feature by
        # feature, so each child's slots stay sorted: a stable partition
        kept = order[:, split[seg]]
        node = seg[split[seg]]
        goes_left = np.zeros(xt.shape[1], bool)
        goes_left[kept[0]] = xt[feature[node], kept[0]] <= threshold[node]
        mask = goes_left[kept]
        order = np.concatenate((kept[mask].reshape(len(xt), -1),
                                kept[~mask].reshape(len(xt), -1)), axis=1)
        n_left = np.bincount(node[mask[0]], minlength=k)[split]
        sizes = np.concatenate((n_left, sizes[split] - n_left))
    return DecisionTree(*(np.concatenate(arrays) for arrays in zip(*parts)),
                        n_features, list(label_space))


def train_tree(data: LabeledVectors) -> DecisionTree:
    """Presorted CART: every column is sorted once, and the tree grows
    level by level (see _grow_forest)."""
    if data.x.shape[0] == 0:
        raise EmptyDataset("cannot train on zero rows")
    index = {lab: i for i, lab in enumerate(data.label_space)}
    y = np.array([index[lab] for lab in data.labels])
    # with no feature, a constant column grows a bare root
    xt = data.x.T if data.x.shape[1] else np.zeros((1, len(y)))
    return _grow_forest(xt, y, np.argsort(xt, axis=1, kind="stable"),
                        [len(y)], data.x.shape[1], data.label_space)


def predict_tree(tree: DecisionTree, rows) -> str | list[str]:
    """The label of a row, or the labels of the rows of a 2-D block."""
    nodes = tree.leaf(rows)
    if isinstance(nodes, int):
        return tree.label(nodes)
    return [tree.label_space[c] for c in tree.codes(nodes)]


# ---------------------------------------------------------------------------
# GA feature selection

@dataclass
class GaConfig:
    population: int = 2500
    generations: int = 25
    crossover_prob: float = 0.9
    mutation_prob: float = 0.1
    genes_per_individual: int = 5
    rng_seed: int = 0

    def validate(self, n_features: int):
        if not (0 <= self.crossover_prob <= 1 and 0 <= self.mutation_prob <= 1):
            raise InvalidConfig("probabilities must lie in [0, 1]")
        if self.population < 1 or self.generations < 0:
            raise InvalidConfig("population must be >= 1 and generations >= 0")
        if self.genes_per_individual < 1 or self.genes_per_individual > n_features:
            raise InvalidConfig(
                f"genes_per_individual must be in [1, {n_features}]")


@dataclass(frozen=True)
class FeatureSubset:
    indices: tuple[int, ...]
    fitness: float | None = None  # None when loaded from a model file


@dataclass
class GenerationStats:
    generation: int
    best_fitness: float
    mean_fitness: float


@dataclass
class GaRun:
    best: FeatureSubset
    log: list[GenerationStats] = field(default_factory=list)


def _stratified_fold_ids(labels: list[str], values: np.ndarray, k: int,
                         rng_seed: int) -> np.ndarray:
    """Fold id per row of values (n, F), or of each matrix in a stack
    (..., n, F): rows sorted by (label, values) so the assignment is
    invariant under row permutation, then shuffled per label from the
    seed.  Every matrix draws the same permutations."""
    space = {lab: i for i, lab in enumerate(sorted(set(labels)))}
    rank = np.array([space[lab] for lab in labels])
    values = np.asarray(values)
    # lexsort's last key is the primary one; it is stable, as sorted() is
    keys = [values[..., f] for f in reversed(range(values.shape[-1]))]
    order = np.lexsort(keys + [np.broadcast_to(rank, values.shape[:-1])], axis=-1)
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    fold_at = np.empty(len(labels), np.intp)  # fold per sorted position
    start = 0
    for size in np.bincount(rank):
        fold_at[start + rng.permutation(size)] = np.arange(size) % k
        start += size
    fold_of = np.empty_like(order)
    np.put_along_axis(fold_of, order, np.broadcast_to(fold_at, order.shape), axis=-1)
    return fold_of


def _score_population(individuals: list[tuple[int, ...]], data: LabeledVectors,
                      cfg: GaConfig) -> list[float]:
    """fitness of each individual (feature tuples of one length).  The
    trees of every individual and inner fold grow together, as many
    individuals at a time as _SCORE_CELLS admits, and their held-out rows
    descend all trees at once."""
    if data.x.shape[0] == 0:
        raise EmptyDataset("cannot score on zero rows")
    genes = np.array(individuals, dtype=np.intp).reshape(len(individuals), -1)
    if (genes >= data.x.shape[1]).any():
        raise WidthMismatch(f"feature index out of range for width {data.x.shape[1]}")
    n, n_feat = data.x.shape[0], genes.shape[1]
    if n < 2:
        return [1.0] * len(individuals)
    k = min(5, n)
    index = {lab: i for i, lab in enumerate(data.label_space)}
    y = np.array([index[lab] for lab in data.labels])
    # fold sizes depend on the labels alone: each label's rows are dealt
    # round-robin, whatever their order
    n_val = np.bincount(_stratified_fold_ids(data.labels, np.zeros((n, 0)), k,
                                             cfg.rng_seed), minlength=k)
    used = np.flatnonzero((n_val > 0) & (n_val < n))  # a train and a val row
    total = int(n_val[used].sum())
    if not total:
        return [1.0] * len(individuals)
    use_pos = np.full(k, -1)
    use_pos[used] = np.arange(len(used))

    def held_out_hits(chunk: np.ndarray) -> list[int]:
        """Correct held-out predictions of each individual in chunk."""
        m = len(chunk)
        values = np.moveaxis(data.x[:, chunk], 0, 1)  # (m, n, F)
        fold_of = _stratified_fold_ids(data.labels, values, k, cfg.rng_seed)
        if not n_feat:  # no feature: a constant column grows bare roots
            values = np.zeros((m, n, 1))
        # slot s * m * n + i * n + r is row r of individual i in the
        # training set of the s-th used fold
        n_cols = values.shape[2]
        xt = np.moveaxis(values, 2, 0).reshape(n_cols, m * n)
        sorted_rows = np.argsort(np.moveaxis(values, 2, 1), axis=2, kind="stable")
        sorted_folds = np.take_along_axis(fold_of[:, None, :], sorted_rows, axis=2)
        orders, sizes = [], []
        for s, j in enumerate(used):
            rows = sorted_rows[sorted_folds != j].reshape(m, n_cols, -1)
            rows += (s * m + np.arange(m))[:, None, None] * n
            orders.append(np.moveaxis(rows, 1, 0).reshape(n_cols, -1))
            sizes += [rows.shape[2]] * m
        del sorted_rows, sorted_folds
        forest = _grow_forest(np.tile(xt, len(used)), np.tile(y, len(used) * m),
                              np.concatenate(orders, axis=1), sizes, n_feat,
                              data.label_space)
        # every held-out row descends its individual's tree of its fold
        ind, row = np.nonzero(use_pos[fold_of] >= 0)
        leaf = forest.leaves(xt, use_pos[fold_of[ind, row]] * m + ind, ind * n + row)
        hit = forest.codes(leaf) == y[row]
        return np.bincount(ind[hit], minlength=m).tolist()

    per_ind = max(1, _SCORE_CELLS // (max(n_feat, 1) * len(data.label_space)
                                      * int((n - n_val[used]).sum())))
    return [hits / total for lo in range(0, len(genes), per_ind)
            for hits in held_out_hits(genes[lo:lo + per_ind])]


def fitness(subset: FeatureSubset | tuple, data: LabeledVectors,
            cfg: GaConfig) -> float:
    """Mean held-out accuracy of a tree over an internal stratified 5-fold
    split of the rows restricted to the subset's coordinates."""
    indices = subset.indices if isinstance(subset, FeatureSubset) else tuple(subset)
    return _score_population([indices], data, cfg)[0]


def run_ga(data: LabeledVectors, cfg: GaConfig) -> GaRun:
    """Tournament(2) selection, single-point crossover with duplicate repair,
    single-gene mutation, elitism of one; returns the best-ever individual."""
    if data.x.shape[0] == 0:
        raise EmptyDataset("cannot select features on zero rows")
    n_features = data.x.shape[1]
    cfg.validate(n_features)
    rng = np.random.Generator(np.random.PCG64(cfg.rng_seed))
    genes = cfg.genes_per_individual
    cache: dict[tuple[int, ...], float] = {}

    def score(population: list[tuple[int, ...]]) -> list[float]:
        """One _score_population call for the uncached individuals, in
        first-seen order."""
        new = list(dict.fromkeys(ind for ind in population if ind not in cache))
        if new:
            cache.update(zip(new, _score_population(new, data, cfg)))
        return [cache[ind] for ind in population]

    def random_individual() -> tuple[int, ...]:
        return tuple(sorted(int(i) for i in
                            rng.choice(n_features, size=genes, replace=False)))

    def repair(raw: list[int]) -> tuple[int, ...]:
        seen: list[int] = []
        used = set()
        for g in raw:
            while g in used:
                g = int(rng.integers(n_features))
            used.add(g)
            seen.append(g)
        return tuple(sorted(seen))

    population = [random_individual() for _ in range(cfg.population)]
    scores = score(population)
    best_idx = max(range(len(population)), key=lambda i: (scores[i], -i))
    best = FeatureSubset(population[best_idx], scores[best_idx])
    log = [GenerationStats(0, best.fitness, float(np.mean(scores)))]

    def tournament() -> tuple[int, ...]:
        a, b = int(rng.integers(len(population))), int(rng.integers(len(population)))
        return population[a] if scores[a] >= scores[b] else population[b]

    for gen in range(1, cfg.generations + 1):
        next_pop = [best.indices]  # elitism
        while len(next_pop) < cfg.population:
            p1, p2 = tournament(), tournament()
            if genes >= 2 and rng.random() < cfg.crossover_prob:
                point = int(rng.integers(1, genes))
                child = repair(list(p1[:point]) + list(p2[point:]))
            else:
                child = p1
            # a child holding every feature has no gene to mutate into
            if rng.random() < cfg.mutation_prob and genes < n_features:
                slot = int(rng.integers(genes))
                mutated = list(child)
                g = int(rng.integers(n_features))
                while g in child:
                    g = int(rng.integers(n_features))
                mutated[slot] = g
                child = tuple(sorted(mutated))
            next_pop.append(child)
        population = next_pop
        scores = score(population)
        gen_best = max(range(len(population)), key=lambda i: (scores[i], -i))
        if scores[gen_best] > best.fitness:
            best = FeatureSubset(population[gen_best], scores[gen_best])
        log.append(GenerationStats(gen, best.fitness, float(np.mean(scores))))
    return GaRun(best, log)


def ga_select(data: LabeledVectors, cfg: GaConfig) -> FeatureSubset:
    return run_ga(data, cfg).best


def write_ga_log_csv(log: list[GenerationStats], path):
    with open(path, "w") as fh:
        fh.write("generation,best_fitness,mean_fitness\n")
        for row in log:
            fh.write(f"{row.generation},{row.best_fitness:.6f},{row.mean_fitness:.6f}\n")


# ---------------------------------------------------------------------------
# Model file

@dataclass
class DtModel:
    """A fitted ir2vec-dt pipeline.  A module is embedded with the seed, dim
    and weights; the raw vector is normalized (a named strategy or a fitted
    IndexScaler), restricted to the optional GA subset, and walked down the
    tree."""
    tree: DecisionTree
    normalization: str | embed_mod.IndexScaler
    subset: FeatureSubset | None = None
    seed: int = 0
    dim: int = embed_mod.DEFAULT_DIM
    weights: tuple[float, float, float] = embed_mod.DEFAULT_WEIGHTS

    def embed(self, module) -> np.ndarray:
        vocab = embed_mod.SeedVocab(self.seed, self.dim)
        return embed_mod.embed(module, vocab, self.weights).values

    def _features(self, raw: np.ndarray) -> np.ndarray:
        x = embed_mod.normalize(raw, self.normalization)
        return x if self.subset is None else x[..., list(self.subset.indices)]

    def predict(self, raw: np.ndarray) -> str | list[str]:
        """The label of a raw vector, or of each row of a 2-D block."""
        return predict_tree(self.tree, self._features(raw))

    def leaf(self, raw: np.ndarray) -> int:
        return self.tree.leaf(self._features(raw))

    def fold_artifacts(self) -> dict:
        """The fold-report entries this model contributes."""
        doc = {}
        if self.subset is not None:
            doc["ga_subset"] = list(self.subset.indices)
            doc["ga_fitness"] = self.subset.fitness
        if isinstance(self.normalization, embed_mod.IndexScaler):
            doc["index_scaler"] = {"mins": self.normalization.mins.tolist(),
                                   "maxs": self.normalization.maxs.tolist()}
        return doc

    def save(self, path):
        meta = {"strategy": self.normalization, "dim": self.dim,
                "weights": list(self.weights)}
        if isinstance(self.normalization, embed_mod.IndexScaler):
            meta.update(strategy="index", mins=self.normalization.mins.tolist(),
                        maxs=self.normalization.maxs.tolist())
        doc = {
            "kind": "ir2vec-dt",
            "tree": self.tree.to_dict(),
            "n_features": self.tree.n_features,
            "feature_subset": (list(self.subset.indices)
                               if self.subset is not None else None),
            "label_space": list(self.tree.label_space),
            "normalization": meta,
            "seed": self.seed,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "DtModel":
        """Raises KeyError, TypeError or ValueError on a malformed file and
        WidthMismatch when its widths do not chain from embedding to tree."""
        with open(path) as fh:
            doc = json.load(fh)
        meta = doc["normalization"]
        strategy = meta.get("strategy", "vector")
        if strategy == "index":
            strategy = embed_mod.IndexScaler(meta["mins"], meta["maxs"])
        elif strategy not in (None, "none", "vector"):
            raise ValueError(f"unknown normalization strategy {strategy!r}")
        subset = doc.get("feature_subset")
        model = cls(DecisionTree.from_dict(doc["tree"], doc["n_features"],
                                           doc["label_space"]),
                    strategy,
                    FeatureSubset(tuple(int(i) for i in subset)) if subset else None,
                    doc["seed"], meta.get("dim", embed_mod.DEFAULT_DIM),
                    tuple(meta.get("weights", embed_mod.DEFAULT_WEIGHTS)))
        # three weights; the flow-aware solve needs w_arg >= 0
        if len(model.weights) != 3 or not model.weights[2] >= 0:
            raise ValueError(f"weights {model.weights!r} are not three with a "
                             f"nonnegative operand-kind weight")
        width = 2 * model.dim
        if isinstance(strategy, embed_mod.IndexScaler) \
                and strategy.mins.shape != (width,):
            raise WidthMismatch(f"index scaler width {strategy.mins.shape} "
                                f"!= embedding width {width}")
        if model.subset is not None:
            if not all(0 <= i < width for i in model.subset.indices):
                raise WidthMismatch(f"feature subset outside width {width}")
            width = len(model.subset.indices)
        if model.tree.n_features != width:
            raise WidthMismatch(f"tree expects width {model.tree.n_features}, "
                                f"the pipeline produces {width}")
        return model
