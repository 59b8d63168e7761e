import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from conftest import phi_call_loop
from mpisentinel import embed as em
from mpisentinel.ircore import OperandKind, parse_ir


@pytest.fixture(scope="module")
def vocab():
    return em.SeedVocab(1, 256)


def symbolic(module, vocab, **kw):
    return em.embed(module, vocab, **kw).values[:vocab.dim]


def flow_aware(module, vocab, **kw):
    return em.embed(module, vocab, **kw).values[vocab.dim:]


# the oracle's damped iteration run until it stops moving: the exact fixed
# point up to rounding
EXACT = {"tol": 1e-14, "max_iter": 1000}


class TestSeedVocab:
    def test_same_seed_token_bit_identical(self, vocab):
        a = em.SeedVocab(1, 256).vector("add")
        b = em.SeedVocab(1, 256).vector("add")
        assert np.array_equal(a, b)
        assert np.array_equal(a, vocab.vector("add"))

    def test_different_seeds_differ(self):
        a = em.SeedVocab(1, 256).vector("add")
        b = em.SeedVocab(2, 256).vector("add")
        assert np.any(a != b)

    def test_different_tokens_differ(self, vocab):
        assert np.any(vocab.vector("add") != vocab.vector("mul"))

    def test_components_in_unit_interval(self, vocab):
        for token in ("add", "mul", "intTy", "LocalValue", "call:MPI_Barrier"):
            v = vocab.vector(token)
            assert v.shape == (256,)
            assert np.all(v >= -1) and np.all(v <= 1)

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            em.SeedVocab(1, 0)
        assert em.SeedVocab(1, 5).vector("x").shape == (5,)


class TestSymbolic:
    def test_empty_module_zero(self, vocab):
        assert np.all(symbolic(parse_ir(""), vocab) == 0)

    def test_single_ret_formula(self, vocab):
        module = parse_ir("define void @f() { ret void }")
        got = symbolic(module, vocab)
        expected = 1.0 * vocab.vector("ret") + 0.5 * vocab.vector("void")
        assert np.array_equal(got, expected)

    def test_fixture_matches_bruteforce_oracle(self, vocab, all_fixture_modules):
        for path, module in all_fixture_modules:
            got = symbolic(module, vocab)
            want = oracles.symbolic_sum(module, vocab)
            assert np.max(np.abs(got - want)) < 1e-9, path

    def test_additivity_over_functions(self, vocab, two_fn_call_text):
        module = parse_ir(two_fn_call_text)
        whole = symbolic(module, vocab)
        parts = np.zeros(vocab.dim)
        for fn in module.defined_functions():
            alone = dataclasses.replace(module, functions=[fn])
            parts += symbolic(alone, vocab)
        assert len(module.defined_functions()) == 2
        assert whole.tobytes() == parts.tobytes()


class TestFlowAware:
    def test_no_chain_equals_symbolic_exactly(self, vocab):
        text = """
define void @f(i32 %x, ptr %p) {
entry:
  %a = add i32 %x, 1
  store i32 %x, ptr %p
  ret void
}
"""
        module = parse_ir(text)
        assert np.array_equal(flow_aware(module, vocab), symbolic(module, vocab))

    def test_two_instruction_chain_hand_expansion(self, vocab):
        module = parse_ir("""
define i32 @f(i32 %x) {
entry:
  %a = add i32 %x, 1
  ret i32 %a
}
""")
        w_op, w_ty, w_arg = em.DEFAULT_WEIGHTS
        e_add = w_op * vocab.vector("add") + w_ty * vocab.vector("intTy") \
            + w_arg * vocab.vector("LocalValue") + w_arg * vocab.vector("Constant")
        e_ret = w_op * vocab.vector("ret") + w_ty * vocab.vector("void") \
            + w_arg * e_add
        got = flow_aware(module, vocab)
        assert np.max(np.abs(got - (e_add + e_ret))) < 1e-5

    def test_cyclic_phi_converges_and_matches_long_run(self, vocab, add_loop_text):
        module = parse_ir(add_loop_text)
        ev = em.embed(module, vocab)
        long_run = oracles.flow_aware_sum(module, vocab, tol=0.0, max_iter=1000)
        assert np.max(np.abs(ev.values[vocab.dim:] - long_run)) < 1e-6

    def test_fixture_matches_oracle(self, vocab, all_fixture_modules):
        for path, module in all_fixture_modules:
            got = flow_aware(module, vocab)
            want = oracles.flow_aware_sum(module, vocab, **EXACT)
            assert np.max(np.abs(got - want)) < 1e-9, path

    def test_phi_call_loop_below_radius_one_matches_long_run(self, vocab):
        module = parse_ir(phi_call_loop(20))
        got = flow_aware(module, vocab)
        assert np.all(np.isfinite(got))
        long_run = oracles.flow_aware_sum(module, vocab, **EXACT)
        assert np.max(np.abs(got - long_run)) < 1e-9 * np.max(np.abs(long_run))

    def test_phi_call_loop_above_radius_one_diverges(self, vocab):
        module = parse_ir(phi_call_loop(30), "loop30")
        with pytest.raises(em.FlowDiverges, match="loop30: .*@f diverges"):
            em.embed(module, vocab)


W_ARG = em.DEFAULT_WEIGHTS[2]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_flow_sum_is_the_linear_solve_and_diverges_at_radius_one(data):
    n = data.draw(st.integers(1, 6))
    dim = data.draw(st.integers(1, 4))
    links = [(u, d) for u, d, k in data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 8)),
        min_size=1, max_size=8)) for _ in range(k)]
    base = data.draw(arrays(np.float64, (n, dim), elements=st.floats(-1, 1)))
    a = np.zeros((n, n))
    for u, d in links:
        a[u, d] += 1
    radius = np.max(np.abs(np.linalg.eigvals(W_ARG * a)))
    assume(abs(radius - 1) > 1e-9)
    if radius >= 1:
        with pytest.raises(em.FlowDiverges):
            em._flow_sum(base, links, W_ARG)
        return
    rows = np.linalg.solve(np.eye(n) - W_ARG * a, base)
    got = em._flow_sum(base, links, W_ARG)
    assert np.max(np.abs(got - rows.sum(0))) <= 1e-12 * np.max(np.abs(rows).sum(0))


class TestEmbed:
    def test_empty_module_512_zeros(self, vocab):
        ev = em.embed(parse_ir(""), vocab)
        assert ev.values.shape == (512,)
        assert np.all(ev.values == 0)

    def test_halves_match_components(self, vocab, add_loop_text):
        module = parse_ir(add_loop_text)
        ev = em.embed(module, vocab)
        sym = sum(oracles.symbolic_function_sum(fn, vocab)
                  for fn in module.defined_functions())
        flow = oracles.flow_aware_sum(module, vocab, **EXACT)
        assert ev.values[:256].tobytes() == (np.zeros(256) + sym).tobytes()
        assert np.max(np.abs(ev.values[256:] - flow)) < 1e-9

    def test_corpus_oracle_and_bit_identical_reruns(self, all_fixture_modules):
        for path, module in all_fixture_modules:
            first = em.embed(module, em.SeedVocab(42, 256)).values
            second = em.embed(module, em.SeedVocab(42, 256)).values
            assert np.array_equal(first, second), path
            want = np.concatenate([
                oracles.symbolic_sum(module, em.SeedVocab(42, 256)),
                oracles.flow_aware_sum(module, em.SeedVocab(42, 256), **EXACT)])
            assert np.max(np.abs(first - want)) < 1e-9, path


def _parts(fn, vocab, weights):
    """A function's symbolic rows, base rows and links through one row table,
    as embed builds them, and the table's keys."""
    keys: dict = {}
    ids, links = em._function_parts(fn, keys)
    rows = em._row_table(keys, vocab, weights)[ids]
    n = len(ids) // 2
    return rows[:n], rows[n:], links, keys


class TestRowMemo:
    """Each embed call has one row table with one row per key; the parts and
    the vector stay byte-identical to the per-instruction walk."""

    @pytest.mark.parametrize("weights", [em.DEFAULT_WEIGHTS, (0.3, 0.7, 0.05)])
    def test_function_parts_match_reference_on_fixtures(self, vocab, all_fixture_modules,
                                                        weights):
        for path, module in all_fixture_modules:
            for fn in module.defined_functions():
                rows, base, links, _ = _parts(fn, vocab, weights)
                want = oracles.reference_function_parts(fn, vocab, weights)
                assert rows.shape == want[0].shape, (path, fn.name)
                assert rows.tobytes() == want[0].tobytes(), (path, fn.name)
                assert base.tobytes() == want[1].tobytes(), (path, fn.name)
                assert np.array(links).tobytes() == np.array(want[2]).tobytes()

    def test_repeated_instructions_share_one_row_per_key(self, vocab):
        module = parse_ir("""
define i32 @f(i32 %x) {
entry:
  %a = add i32 %x, 1
  %b = add i32 %a, 1
  %c = add i32 %x, 1
  ret i32 %c
}
""")
        fn = module.functions[0]
        rows, base, links, keys = _parts(fn, vocab, em.DEFAULT_WEIGHTS)
        # %a, %b and %c have one symbolic key; %b's base row drops its local
        assert rows[0].tobytes() == rows[1].tobytes() == rows[2].tobytes()
        assert base[1].tobytes() != base[0].tobytes()
        assert links == [(1, 0), (3, 2)]
        # add: both kinds, constant only; ret: local, none; keyed on the kind strings
        assert list(keys) == [("add", "i32", ("LocalValue", "Constant")),
                              ("add", "i32", ("Constant",)),
                              ("ret", "void", ("LocalValue",)), ("ret", "void", ())]
        want = oracles.reference_function_parts(fn, vocab, em.DEFAULT_WEIGHTS)
        assert base.tobytes() == want[1].tobytes()

    def test_operand_kinds_are_the_tokens_embed_looks_up(self):
        """Each OperandKind constant is a str; embed looks up every kind
        but a label's as that very string."""
        kinds = {v for k, v in vars(OperandKind).items() if k.isupper()}
        assert len(kinds) == 5 and all(type(kind) is str for kind in kinds)
        module = parse_ir("""
@x = global i32 0
declare void @g(ptr)
define void @f(ptr %p) {
entry:
  call void @g(ptr @x)
  store i32 1, ptr %p
  br label %next
next:
  ret void
}
""")
        assert {op.kind for instr in module.instructions() for op in instr.operands} == kinds
        looked_up = []

        class Recording(em.SeedVocab):
            def vector(self, token):
                looked_up.append(token)
                return super().vector(token)

        em.embed(module, Recording(0, 8))
        assert kinds & set(looked_up) == kinds - {OperandKind.LABEL}

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(0, 300), st.integers(1, 9)),
                  elements=st.floats(-1e6, 1e6)))
    def test_row_sum_adds_row_by_row(self, rows):
        assert em._seq_sum(rows).tobytes() == oracles.row_by_row_sum(rows).tobytes()


class TestNormalize:
    def test_vector_divides_by_max(self):
        out = em.normalize(np.array([[2.0, 4.0, 8.0]]), "vector")
        assert np.allclose(out, [[0.25, 0.5, 1.0]], atol=0)

    def test_vector_zero_row_unchanged(self):
        out = em.normalize(np.zeros((1, 4)), "vector")
        assert np.all(out == 0)

    def test_vector_nonpositive_max_preserves_sign(self):
        out = em.normalize(np.array([[-2.0, -8.0]]), "vector")
        assert np.allclose(out, [[-0.25, -1.0]], atol=0)

    def test_index_minmax_and_clamp(self):
        scaler = em.fit_index_scaler(np.array([[3.0], [7.0]]))
        assert em.normalize(np.array([[5.0]]), scaler)[0, 0] == 0.5
        assert em.normalize(np.array([[9.0]]), scaler)[0, 0] == 1.0
        assert em.normalize(np.array([[-1.0]]), scaler)[0, 0] == 0.0

    def test_index_scaler_mismatch(self):
        scaler = em.fit_index_scaler(np.zeros((2, 3)))
        with pytest.raises(em.ScalerMismatch):
            em.normalize(np.zeros((1, 4)), scaler)

    def test_none_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(em.normalize(x, "none"), x)

    def test_thousand_random_rows_properties(self):
        rng = np.random.default_rng(0)
        rows = rng.uniform(0.0, 10.0, size=(1000, 16))
        rows[rng.random(1000) < 0.05] = 0.0  # sprinkle all-zero rows
        out = em.normalize(rows, "vector")
        for i in range(1000):
            if np.all(rows[i] == 0):
                assert np.all(out[i] == 0)
                continue
            assert out[i].min() >= 0.0 and out[i].max() <= 1.0
            assert out[i].max() == 1.0
            assert np.argmax(out[i]) == np.argmax(rows[i])

    def test_index_clamps_validation_values(self):
        rng = np.random.default_rng(1)
        train = rng.normal(size=(200, 8))
        val = rng.normal(size=(1000, 8)) * 3
        scaler = em.fit_index_scaler(train)
        out = em.normalize(val, scaler)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, (8,), elements=st.floats(0.001, 1e6)))
def test_vector_normalization_argmax_invariance(row):
    out = em.normalize(row[None, :], "vector")[0]
    assert np.argmax(out) == np.argmax(row)
    assert abs(out.max() - 1.0) < 1e-12
