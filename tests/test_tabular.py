import json
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mpisentinel import tabular as tb


def make_data(x, labels, space=None):
    return tb.LabeledVectors(np.asarray(x, dtype=float), list(labels),
                             space or sorted(set(labels)))


class TestTrainTree:
    def test_single_label_single_leaf(self):
        tree = tb.train_tree(make_data([[1.0], [2.0], [3.0]], "AAA"))
        assert tree.feature[0] == -1 and tree.label(0) == "A"

    def test_separable_pair(self):
        tree = tb.train_tree(make_data([[0.0], [1.0]], "AB"))
        assert tree.feature[0] != -1
        assert 0.0 < tree.threshold[0] < 1.0
        assert tb.predict_tree(tree, [0.0]) == "A"
        assert tb.predict_tree(tree, [1.0]) == "B"

    def test_empty_dataset(self):
        with pytest.raises(tb.EmptyDataset):
            tb.train_tree(make_data(np.zeros((0, 3)), "", ["A"]))

    @pytest.mark.parametrize("lo, hi", [
        (1 + 2**-52, 1 + 2**-51),  # adjacent doubles: the midpoint rounds to hi
        (1e308, 1.7e308),          # the sum overflows to inf
        (-1.7e308, -1e308),        # the sum overflows to -inf
    ])
    def test_split_where_the_midpoint_is_not_below_the_upper_value(self, lo, hi):
        tree = tb.train_tree(make_data([[lo], [hi]], "AB"))
        assert tree.feature[tree.left[0]] == -1 and tree.feature[tree.right[0]] == -1
        assert lo <= tree.threshold[0] < hi
        assert tb.predict_tree(tree, [lo]) == "A"
        assert tb.predict_tree(tree, [hi]) == "B"
        data = make_data([[lo]] * 5 + [[hi]] * 5, "AAAAABBBBB")
        assert tb.fitness((0,), data, tb.GaConfig()) == 1.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            make_data([[0.0], [np.nan]], "AB")

    def test_infinity_rejected(self):
        # -inf next to a finite value would split at a -inf threshold
        with pytest.raises(ValueError, match="infinity"):
            make_data([[-np.inf], [0.0]], "AB")

    def test_matches_bruteforce_cart_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(size=(50, 4)).round(2)  # duplicates force tie rules
        labels = [("A", "B", "C")[i % 3] for i in range(50)]
        space = ["A", "B", "C"]
        tree = tb.train_tree(make_data(x, labels, space))
        oracle_root = oracles.cart_train(x, labels, space)
        for row in x:
            assert tb.predict_tree(tree, row) == oracles.cart_predict(oracle_root, row)

    def test_full_training_accuracy_without_contradictions(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(40, 3))
        labels = [("A", "B")[int(v)] for v in rng.integers(0, 2, 40)]
        data = make_data(x, labels)
        tree = tb.train_tree(data)
        assert all(tb.predict_tree(tree, x[i]) == labels[i] for i in range(40))

    def test_no_feature_gives_majority_leaf(self):
        tree = tb.train_tree(make_data(np.zeros((3, 0)), ["B", "A", "B"], ["A", "B"]))
        assert tree.feature[0] == -1 and tree.n_features == 0
        assert tree.class_counts(0) == {"A": 1, "B": 2}
        assert tb.predict_tree(tree, []) == "B"

    def test_contradictory_rows_majority_with_tie_to_earliest(self):
        data = make_data([[1.0], [1.0], [1.0]], ["B", "A", "B"], ["A", "B"])
        tree = tb.train_tree(data)
        assert tree.feature[0] == -1 and tree.label(0) == "B"
        tied = tb.train_tree(make_data([[1.0], [1.0]], ["B", "A"], ["A", "B"]))
        assert tied.label(0) == "A"  # earliest in label space wins ties


class TestPredict:
    def test_single_leaf_any_row(self):
        tree = tb.train_tree(make_data([[1.0, 2.0]], ["A"]))
        assert tb.predict_tree(tree, [100.0, -5.0]) == "A"

    def test_width_mismatch(self):
        tree = tb.train_tree(make_data([[0.0], [1.0]], "AB"))
        with pytest.raises(tb.WidthMismatch):
            tb.predict_tree(tree, [0.0, 1.0])

    def test_training_rows_hit_own_leaves(self):
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        labels = ["A", "B", "B", "A"]  # xor shape still separates exactly
        tree = tb.train_tree(make_data(x, labels))
        assert [tb.predict_tree(tree, r) for r in x] == labels


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 24), st.integers(1, 4), st.integers(0, 2 ** 31))
def test_training_accuracy_property(n, width, seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 4, size=(n, width)).astype(float)
    labels = ["L" + str(v) for v in rng.integers(0, 3, n)]
    # drop contradictions: keep first label seen per distinct row
    seen = {}
    keep = []
    for i in range(n):
        key = tuple(x[i])
        if key not in seen:
            seen[key] = labels[i]
            keep.append(i)
        elif seen[key] == labels[i]:
            keep.append(i)
    x = x[keep]
    labels = [labels[i] for i in keep]
    data = make_data(x, labels, sorted(set(labels)))
    tree = tb.train_tree(data)
    assert all(tb.predict_tree(tree, x[i]) == labels[i] for i in range(len(labels)))


@st.composite
def tie_heavy_data(draw):
    """Rows from a small value pool (duplicates, ties, +-0.0), some constant
    columns, repeated rows with conflicting labels, 1-10 classes."""
    n = draw(st.integers(1, 40))
    width = draw(st.integers(1, 6))
    n_classes = draw(st.integers(1, 10))
    pool = st.sampled_from([-1.5, -0.0, 0.0, 0.1, 0.25, 0.3, 0.5, 1.0, 2.0])
    cols = []
    for _ in range(width):
        if draw(st.booleans()) and draw(st.booleans()):
            cols.append([draw(pool)] * n)
        else:
            cols.append(draw(st.lists(pool, min_size=n, max_size=n)))
    x = np.array(cols, dtype=float).T.reshape(n, width)
    codes = draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))
    space = [f"L{i}" for i in range(n_classes)]
    return x, [space[c] for c in codes], space


@settings(max_examples=300, deadline=None)
@given(tie_heavy_data(), st.sampled_from([1, 8, 40, tb._SCORE_CELLS]))
def test_tree_matches_reference_cart_bit_for_bit(case, score_cells):
    x, labels, space = case
    data = make_data(x, labels, space)
    with mock.patch.object(tb, "_SCORE_CELLS", score_cells):  # feature blocks
        tree = tb.train_tree(data)
    ref = oracles.reference_train_tree(data)
    assert oracles.tree_dump(tree) == oracles.tree_dump(ref)
    assert (tree.n_features, tree.label_space) == (ref.n_features, ref.label_space)


@st.composite
def populations(draw):
    """A tie-heavy data set (n 1-40, 1-10 classes) and a population of
    equal-length individuals, duplicates and repeated genes included."""
    x, labels, space = draw(tie_heavy_data())
    genes = draw(st.integers(0, x.shape[1]))  # 0: a bare root per fold
    individual = st.lists(st.integers(0, x.shape[1] - 1), min_size=genes,
                          max_size=genes).map(tuple)
    pool = draw(st.lists(individual, min_size=1, max_size=4))
    population = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    return make_data(x, labels, space), population, draw(st.integers(0, 2 ** 16))


@settings(max_examples=200, deadline=None)
@given(populations(), st.sampled_from([1, 64, tb._SCORE_CELLS]))
def test_population_scores_match_reference_fitness(case, score_cells):
    data, population, seed = case
    cfg = tb.GaConfig(rng_seed=seed)
    with mock.patch.object(tb, "_SCORE_CELLS", score_cells):  # chunks, blocks
        got = tb._score_population(population, data, cfg)
    assert got == [oracles.reference_fitness(ind, data, cfg) for ind in population]


@settings(max_examples=200, deadline=None)
@given(tie_heavy_data(), st.integers(1, 5), st.integers(0, 2 ** 16))
def test_fold_ids_match_reference(case, k, seed):
    x, labels, _ = case
    got = tb._stratified_fold_ids(labels, x, k, seed)
    assert got.tolist() == oracles.reference_stratified_fold_ids(labels, x, k, seed)
    stacked = tb._stratified_fold_ids(labels, np.stack([x, x[:, ::-1]]), k, seed)
    assert stacked[1].tolist() == oracles.reference_stratified_fold_ids(
        labels, x[:, ::-1], k, seed)


class TestFitness:
    def test_perfectly_informative_coordinate(self):
        labels = [("A", "B")[i % 2] for i in range(20)]
        x = np.zeros((20, 3))
        x[:, 1] = [0.0 if lab == "A" else 1.0 for lab in labels]
        data = make_data(x, labels)
        assert tb.fitness((1,), data, tb.GaConfig(rng_seed=3)) == 1.0

    def test_single_label_data(self):
        data = make_data(np.random.default_rng(0).normal(size=(9, 4)), "A" * 9)
        assert tb.fitness((0, 2), data, tb.GaConfig(rng_seed=0)) == 1.0

    def test_uninformative_features_near_half(self):
        scores = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(40, 4))
            labels = ["A"] * 20 + ["B"] * 20
            data = make_data(x, labels)
            scores.append(tb.fitness((0, 1), data, tb.GaConfig(rng_seed=seed)))
        assert 0.35 <= float(np.mean(scores)) <= 0.65

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 4))
        labels = [("A", "B", "C")[i % 3] for i in range(30)]
        data = make_data(x, labels)
        cfg = tb.GaConfig(rng_seed=9)
        base = tb.fitness((0, 3), data, cfg)
        perm = rng.permutation(30)
        shuffled = make_data(x[perm], [labels[i] for i in perm], data.label_space)
        assert tb.fitness((0, 3), shuffled, cfg) == base

    def test_empty_dataset(self):
        with pytest.raises(tb.EmptyDataset):
            tb.fitness((0,), make_data(np.zeros((0, 2)), "", ["A"]), tb.GaConfig())


def planted_feature_data(n=60, width=10, target=None):
    target = width - 3 if target is None else target
    rng = np.random.default_rng(7)
    x = rng.uniform(size=(n, width))
    labels = ["L%d" % (i % 3) for i in range(n)]
    lookup = {"L0": 0.1, "L1": 0.5, "L2": 0.9}
    for i, lab in enumerate(labels):
        x[i, target] = lookup[lab]
    return make_data(x, labels, ["L0", "L1", "L2"])


class TestGa:
    def test_planted_feature_found_across_seeds(self):
        data = planted_feature_data()
        for seed in range(5):
            cfg = tb.GaConfig(population=50, generations=10, rng_seed=seed)
            run = tb.run_ga(data, cfg)
            assert 7 in run.best.indices, seed
            assert run.best.fitness == 1.0, seed

    def test_best_fitness_non_decreasing(self):
        data = planted_feature_data()
        run = tb.run_ga(data, tb.GaConfig(population=30, generations=8, rng_seed=1))
        bests = [g.best_fitness for g in run.log]
        assert bests == sorted(bests)
        assert len(run.log) == 9  # initial population plus eight generations

    def test_zero_generations_returns_initial_best(self):
        data = planted_feature_data()
        run = tb.run_ga(data, tb.GaConfig(population=20, generations=0, rng_seed=4))
        assert len(run.log) == 1
        assert run.best.indices == tuple(sorted(run.best.indices))
        assert 0.0 <= run.best.fitness <= 1.0

    def test_deterministic(self):
        data = planted_feature_data()
        cfg = tb.GaConfig(population=25, generations=5, rng_seed=12)
        a = tb.run_ga(data, cfg)
        b = tb.run_ga(data, cfg)
        assert a.best == b.best
        assert [(g.best_fitness, g.mean_fitness) for g in a.log] == \
            [(g.best_fitness, g.mean_fitness) for g in b.log]

    def test_subset_indices_valid(self):
        data = planted_feature_data()
        sub = tb.ga_select(data, tb.GaConfig(population=10, generations=2, rng_seed=0))
        assert len(sub.indices) == 5
        assert len(set(sub.indices)) == 5
        assert all(0 <= i < 10 for i in sub.indices)

    def test_invalid_config(self):
        data = planted_feature_data(width=4)
        with pytest.raises(tb.InvalidConfig):
            tb.ga_select(data, tb.GaConfig(genes_per_individual=9))
        with pytest.raises(tb.InvalidConfig):
            tb.ga_select(data, tb.GaConfig(crossover_prob=1.5))

    def test_empty_dataset(self):
        with pytest.raises(tb.EmptyDataset):
            tb.ga_select(make_data(np.zeros((0, 8)), "", ["A"]), tb.GaConfig())

    def test_restrict_checks_width(self):
        data = planted_feature_data(width=6)
        with pytest.raises(tb.WidthMismatch):
            data.restrict((0, 7))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_reference_cart_run(self, seed, monkeypatch):
        data = planted_feature_data(n=45, width=8)
        data = make_data(data.x.round(1), data.labels, data.label_space)
        cfg = tb.GaConfig(population=12, generations=3, rng_seed=seed)
        run = tb.run_ga(data, cfg)
        monkeypatch.setattr(tb, "_score_population", lambda population, d, c: [
            oracles.reference_fitness(ind, d, c) for ind in population])
        ref = tb.run_ga(data, cfg)
        assert run.best == ref.best
        assert run.log == ref.log

    def test_every_feature_a_gene_terminates(self):
        rng = np.random.default_rng(0)
        data = make_data(rng.uniform(size=(12, 2)), "ABABABABABAB")
        cfg = tb.GaConfig(population=6, generations=3, genes_per_individual=2)
        done = []
        worker = threading.Thread(target=lambda: done.append(tb.run_ga(data, cfg)),
                                  daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert done, "run_ga did not return"
        assert done[0].best.indices == (0, 1)
        assert len(done[0].log) == 4

    def test_log_csv(self, tmp_path):
        data = planted_feature_data()
        run = tb.run_ga(data, tb.GaConfig(population=10, generations=3, rng_seed=0))
        path = tmp_path / "ga.csv"
        tb.write_ga_log_csv(run.log, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "generation,best_fitness,mean_fitness"
        assert len(lines) == 5


class TestModelFile:
    def test_round_trip(self, tmp_path):
        data = planted_feature_data().restrict((0, 7))
        tree = tb.train_tree(data)
        path = tmp_path / "model.json"
        tb.DtModel(tree, "vector", tb.FeatureSubset((0, 7)), seed=1, dim=256,
                   weights=(1.0, 0.5, 0.2)).save(path)
        assert json.loads(path.read_text())["kind"] == "ir2vec-dt"
        loaded = tb.DtModel.load(path)
        assert loaded.subset.indices == (0, 7)
        again = loaded.tree
        for i in range(20):
            assert tb.predict_tree(again, data.x[i]) == tb.predict_tree(tree, data.x[i])

    def test_deep_chain_tree_trains_saves_loads_and_predicts(self, tmp_path):
        # alternating labels on one feature: each split peels off one row,
        # a chain 1,499 splits deep, beyond Python's recursion limit
        x = np.arange(1500.0)[:, None]
        labels = ["A", "B"] * 750
        tree = tb.train_tree(make_data(x, labels))
        path = tmp_path / "deep.json"
        # an embedding of width 2 restricted to its first coordinate
        tb.DtModel(tree, "none", tb.FeatureSubset((0,)), dim=1).save(path)
        loaded = tb.DtModel.load(path).tree
        assert [tb.predict_tree(loaded, row) for row in x] == labels
        for name in ("feature", "threshold", "left", "right", "counts"):
            assert np.array_equal(getattr(loaded, name), getattr(tree, name)), name

    def test_deep_chain_tree_labels_every_row_in_one_walk(self, monkeypatch):
        x = np.arange(1500.0)[:, None]
        labels = ["A", "B"] * 750
        tree = tb.train_tree(make_data(x, labels))
        walks = []
        leaves = tb.DecisionTree.leaves

        def counted(self, xt, roots, cols):
            walks.append(len(roots))
            return leaves(self, xt, roots, cols)

        monkeypatch.setattr(tb.DecisionTree, "leaves", counted)
        assert tb.predict_tree(tree, x) == labels
        assert walks == [1500]
        assert tb.predict_tree(tree, x[:0]) == []
