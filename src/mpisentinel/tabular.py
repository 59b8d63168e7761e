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
        known = set(self.label_space)
        for lab in self.labels:
            if lab not in known:
                raise ValueError(f"label {lab!r} not in label space")

    def restrict(self, indices) -> "LabeledVectors":
        idx = list(indices)
        if any(i >= self.x.shape[1] for i in idx):
            raise WidthMismatch(f"feature index out of range for width {self.x.shape[1]}")
        return LabeledVectors(self.x[:, idx], list(self.labels), list(self.label_space))

    def take(self, row_indices) -> "LabeledVectors":
        rows = list(row_indices)
        return LabeledVectors(self.x[rows], [self.labels[i] for i in rows],
                              list(self.label_space))


@dataclass
class TreeNode:
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    label: str | None = None
    class_counts: dict[str, int] | None = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass
class DecisionTree:
    root: TreeNode
    n_features: int
    label_space: list[str]


# Upper bound on rows x features x classes scored in one pass: one pass per
# node on narrow data (the GA's subsets), bounded temporaries on wide data.
_SCORE_CELLS = 1 << 12


def _best_split(sorted_x: np.ndarray, sorted_y: np.ndarray,
                classes: np.ndarray):
    """Exhaustive search over features in blocks: lowest weighted Gini;
    ties -> lowest feature index, then lowest threshold.  Thresholds are
    midpoints of consecutive distinct sorted values.

    Row f of sorted_x holds the node's values of feature f in stable
    ascending order, and the same row of sorted_y their label codes.
    Returns (feature, threshold) or None."""
    n = sorted_x.shape[1]
    step = max(1, _SCORE_CELLS // (n * len(classes)))
    best = None
    best_score = np.inf
    for lo in range(0, len(sorted_x), step):
        xs = sorted_x[lo:lo + step]
        # candidate cuts in feature-major order, so the first minimum of
        # the scores is the lowest feature, then the lowest threshold
        feat, cut = (xs[:, 1:] != xs[:, :-1]).nonzero()
        if feat.size == 0:
            continue
        # class counts left of every cut; float sums of 0/1 are exact
        left_counts = (sorted_y[lo:lo + step, :, None] == classes).cumsum(
            axis=1, dtype=np.float64)
        lc = left_counts[feat, cut]
        rc = left_counts[0, -1] - lc
        nl = cut + 1.0
        nr = n - nl
        p_l = lc / nl[:, None]
        p_r = rc / nr[:, None]
        gini_l = 1.0 - np.einsum("ij,ij->i", p_l, p_l)
        gini_r = 1.0 - np.einsum("ij,ij->i", p_r, p_r)
        scores = (nl * gini_l + nr * gini_r) / n
        k = scores.argmin()
        if scores[k] < best_score:
            best_score = scores[k]
            f, c = int(feat[k]), cut[k]
            best = (lo + f, (xs[f, c] + xs[f, c + 1]) / 2.0)
    return best


def _leaf(counts: np.ndarray, label_space: list[str]) -> TreeNode:
    label = label_space[int(counts.argmax())]  # argmax ties -> earliest label
    return TreeNode(label=label,
                    class_counts={label_space[i]: c
                                  for i, c in enumerate(counts.tolist()) if c})


def train_tree(data: LabeledVectors) -> DecisionTree:
    """Presorted CART: every column is sorted once, and each node receives
    its rows' part of that order."""
    if data.x.shape[0] == 0:
        raise EmptyDataset("cannot train on zero rows")
    label_space = data.label_space
    index = {lab: i for i, lab in enumerate(label_space)}
    y = np.array([index[lab] for lab in data.labels])
    xt = data.x.T
    features = np.arange(xt.shape[0])[:, None]
    classes = np.arange(len(label_space))

    def grow(order: np.ndarray) -> TreeNode:
        """order: (F, n), the node's rows sorted stably by each feature."""
        counts = np.bincount(y[order[0]], minlength=len(classes))
        split = None
        if counts.max() < order.shape[1]:  # two rows or more, not pure
            split = _best_split(xt[features, order], y[order], classes)
        if split is None:  # pure, or identical rows with conflicting labels
            return _leaf(counts, label_space)
        f, thr = split
        # boolean selection runs in row-major order, feature by feature, so
        # each child's rows stay sorted: a stable partition
        mask = xt[f][order] <= thr
        return TreeNode(feature=f, threshold=thr,
                        left=grow(order[mask].reshape(len(xt), -1)),
                        right=grow(order[~mask].reshape(len(xt), -1)))

    if len(xt) == 0:  # no feature to split on
        root = _leaf(np.bincount(y, minlength=len(classes)), label_space)
    else:
        root = grow(np.argsort(xt, axis=1, kind="stable"))
    return DecisionTree(root, data.x.shape[1], list(label_space))


def _descend(tree: DecisionTree, row) -> TreeNode:
    row = np.asarray(row, dtype=np.float64).ravel()
    if row.shape[0] != tree.n_features:
        raise WidthMismatch(
            f"row width {row.shape[0]} != training width {tree.n_features}")
    node = tree.root
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node


def predict_tree(tree: DecisionTree, row) -> str:
    return _descend(tree, row).label


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
                         rng_seed: int) -> list[int]:
    """Fold id per row: rows sorted by (label, values) so the assignment is
    invariant under row permutation, then shuffled per label from the seed."""
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


def fitness(subset: FeatureSubset | tuple, data: LabeledVectors,
            cfg: GaConfig) -> float:
    """Mean held-out accuracy of a tree over an internal stratified 5-fold
    split of the rows restricted to the subset's coordinates."""
    indices = subset.indices if isinstance(subset, FeatureSubset) else tuple(subset)
    if data.x.shape[0] == 0:
        raise EmptyDataset("cannot score on zero rows")
    sub = data.restrict(indices)
    n = sub.x.shape[0]
    if n < 2:
        return 1.0
    k = min(5, n)
    fold_of = _stratified_fold_ids(sub.labels, sub.x, k, cfg.rng_seed)
    correct = 0
    total = 0
    for fold in range(k):
        train_rows = [i for i in range(n) if fold_of[i] != fold]
        val_rows = [i for i in range(n) if fold_of[i] == fold]
        if not train_rows or not val_rows:
            continue
        tree = train_tree(sub.take(train_rows))
        for i in val_rows:
            total += 1
            if predict_tree(tree, sub.x[i]) == sub.labels[i]:
                correct += 1
    return correct / total if total else 1.0


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

    def score(ind: tuple[int, ...]) -> float:
        got = cache.get(ind)
        if got is None:
            got = fitness(ind, data, cfg)
            cache[ind] = got
        return got

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
    scores = [score(ind) for ind in population]
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
        scores = [score(ind) for ind in population]
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

def _node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"label": node.label, "counts": node.class_counts}
    return {"split": [node.feature, node.threshold],
            "left": _node_to_dict(node.left),
            "right": _node_to_dict(node.right)}


def _node_from_dict(doc: dict) -> TreeNode:
    if "label" in doc:
        return TreeNode(label=doc["label"], class_counts=doc["counts"])
    f, thr = doc["split"]
    return TreeNode(feature=int(f), threshold=float(thr),
                    left=_node_from_dict(doc["left"]),
                    right=_node_from_dict(doc["right"]))


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
        row = embed_mod.normalize(raw, self.normalization)
        return row if self.subset is None else row[list(self.subset.indices)]

    def predict(self, raw: np.ndarray) -> str:
        return predict_tree(self.tree, self._features(raw))

    def leaf(self, raw: np.ndarray) -> TreeNode:
        return _descend(self.tree, self._features(raw))

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
            "tree": _node_to_dict(self.tree.root),
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
        model = cls(DecisionTree(_node_from_dict(doc["tree"]), doc["n_features"],
                                 doc["label_space"]),
                    strategy,
                    FeatureSubset(tuple(int(i) for i in subset)) if subset else None,
                    doc["seed"], meta.get("dim", embed_mod.DEFAULT_DIM),
                    tuple(meta.get("weights", embed_mod.DEFAULT_WEIGHTS)))
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
