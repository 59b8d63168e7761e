import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import tape_nodes
from mpisentinel import autodiff as ad


def numgrad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        x[i] += eps
        fp = f()
        x[i] -= 2 * eps
        fm = f()
        x[i] += eps
        g[i] = (fp - fm) / (2 * eps)
        it.iternext()
    return g


def tsum(a: ad.Tensor) -> ad.Tensor:
    """Sum of every element: the gradchecks' scalar reduction."""
    out = ad.Tensor(a.data.sum(), parents=(a,))

    def backward(g):
        if a.requires_grad:
            a.accumulate(np.full_like(a.data, float(g)))
    out._backward = backward
    return out


def relerr(a, b):
    return np.max(np.abs(a - b) / np.maximum(1e-6, np.abs(a) + np.abs(b)))


@pytest.fixture
def h():
    return ad.Tensor(np.random.default_rng(0).normal(size=(5, 4)),
                     requires_grad=True)


class TestPrimitives:
    @pytest.mark.parametrize("name", [
        "matmul", "gather", "segment_sum", "segment_max", "elu",
        "leaky_relu", "relu", "exp_div", "concat", "mul_broadcast",
    ])
    def test_against_finite_differences(self, name, h):
        w = np.random.default_rng(1).normal(size=(4, 2))
        idx = np.array([0, 1, 2, 3, 4, 0])
        seg = np.array([0, 0, 1, 1, 1])

        def build():
            return {
                "matmul": lambda: ad.matmul(h, ad.Tensor(w)),
                "gather": lambda: oracles.gather_rows(h, idx),
                "segment_sum": lambda: oracles.segment_sum(h, seg, 2),
                "segment_max": lambda: ad.segment_max(h, seg, 2),
                "elu": lambda: ad.elu(h),
                "leaky_relu": lambda: oracles.leaky_relu(h, 0.2),
                "relu": lambda: ad.relu(h),
                "exp_div": lambda: oracles.div(oracles.exp(h),
                                               ad.Tensor(np.full((5, 4), 3.0))),
                "concat": lambda: ad.concat([h, h], axis=1),
                "mul_broadcast": lambda: oracles.mul(h,
                                                     ad.Tensor(np.arange(1.0, 5.0))),
            }[name]()

        out = tsum(build())
        out.backward()
        got = h.grad.copy()
        want = numgrad(lambda: float(tsum(build()).data), h.data)
        assert relerr(got, want) < 1e-6, name

    def test_sum_of_parameter_gives_ones(self, h):
        tsum(h).backward()
        assert np.array_equal(h.grad, np.ones((5, 4)))

    def test_half_norm_squared_gradient_is_parameter(self, h):
        loss = oracles.mul(tsum(oracles.mul(h, h)), ad.Tensor(0.5))
        loss.backward()
        assert np.allclose(h.grad, h.data, atol=1e-12)

    def test_diamond_reuse_accumulates(self):
        x = ad.Tensor(np.array([3.0]), requires_grad=True)
        y = ad.add(oracles.mul(x, x), x)  # y = x^2 + x, dy/dx = 2x + 1
        y.backward()
        assert np.allclose(x.grad, [7.0])

    def test_unreachable_parameter_keeps_zero_grad(self, h):
        other = ad.Tensor(np.ones(3), requires_grad=True)
        other.zero_grad()
        tsum(h).backward()
        assert np.array_equal(other.grad, np.zeros(3))

    def test_backward_releases_interior_grads(self, h):
        w = ad.Tensor(np.random.default_rng(2).normal(size=(4, 3)),
                      requires_grad=True)
        hidden = ad.elu(ad.matmul(h, w))
        pooled = oracles.segment_sum(oracles.gather_rows(hidden, [0, 2, 2, 4]),
                                     [1, 0, 1, 1], 2)
        loss = tsum(oracles.mul(pooled, pooled))
        interior = [t for t in tape_nodes(loss) if t._parents]
        assert len(interior) == 6
        loss.backward()
        for node in interior:
            assert node.grad is None, node
            assert node._backward is None and node._parents == (), node
        assert h.grad.shape == h.data.shape and w.grad.shape == w.data.shape

    def test_first_accumulate_turns_negative_zero_positive(self):
        t = ad.Tensor(np.zeros(3))
        g = np.array([-0.0, 0.0, -2.0])
        t.accumulate(g)
        assert t.grad.tobytes() == np.array([0.0, 0.0, -2.0]).tobytes()
        assert not np.shares_memory(t.grad, g)

    def test_backward_requires_scalar(self, h):
        with pytest.raises(ad.ShapeMismatch):
            h.backward()

    def test_matmul_shape_check(self, h):
        with pytest.raises(ad.ShapeMismatch):
            ad.matmul(h, ad.Tensor(np.zeros((3, 2))))


_SCATTER_VALUES = (st.sampled_from([0.0, -0.0])
                   | st.builds(lambda m, neg: -m if neg else m,
                               st.floats(1e-5, 1e5), st.booleans()))


class TestScatter:
    """gather_rows' backward and segment_sum's forward sum rows with one
    bincount; they must equal the np.add.at scatter byte for byte."""

    @staticmethod
    def check(idx, values, n_rows):
        want = oracles.scatter_add_at(idx, values, n_rows)
        got = ad._scatter_rows(idx, values, n_rows)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

        seg = oracles.segment_sum(ad.Tensor(values), idx, n_rows)
        ref = oracles.segment_sum_add_at(ad.Tensor(values), idx, n_rows)
        assert seg.data.tobytes() == ref.data.tobytes()

        table = np.ones((n_rows,) + values.shape[1:])
        a = ad.Tensor(table, requires_grad=True)
        oracles.gather_rows(a, idx)._backward(values)
        a_ref = ad.Tensor(table, requires_grad=True)
        oracles.gather_rows_add_at(a_ref, idx)._backward(values)
        assert a.grad.tobytes() == a_ref.grad.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_add_at(self, data):
        n_rows = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(0, 12))
        tail = data.draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
        idx = np.array(data.draw(st.lists(st.integers(0, n_rows - 1),
                                          min_size=n, max_size=n)), dtype=np.int64)
        cells = n * int(np.prod(tail, dtype=np.int64))
        values = np.array(data.draw(st.lists(_SCATTER_VALUES, min_size=cells,
                                             max_size=cells)),
                          dtype=np.float64).reshape((n,) + tail)
        self.check(idx, values, n_rows)

    def test_repeated_rows_signed_zeros_and_empty(self):
        self.check(np.array([1, 1, 0, 1]),
                   np.array([[-0.0, 1e5], [-0.0, -1e5], [-0.0, 0.0], [1e-5, -0.0]]),
                   3)
        # summed in another order this cell would differ in its last bits
        self.check(np.array([2, 2, 2, 2]), np.array([1e-5, 1e5, -1e5, 3e-5]), 3)
        self.check(np.zeros(0, dtype=np.int64), np.zeros((0, 4)), 2)


class TestCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        for c in (2, 5, 9):
            loss = ad.cross_entropy_logits(ad.Tensor(np.zeros((1, c))), [0])
            assert abs(float(loss.data) - np.log(c)) < 1e-12

    def test_extreme_logits_stable(self):
        loss = ad.cross_entropy_logits(ad.Tensor(np.array([[1000.0, 0.0]])), [0])
        assert np.isfinite(float(loss.data))
        assert float(loss.data) < 1e-9

    def test_matches_longdouble_reference(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(6, 4)) * 5
        targets = rng.integers(0, 4, size=6)
        loss = ad.cross_entropy_logits(ad.Tensor(z), targets)
        zl = z.astype(np.longdouble)
        ref = 0.0
        for i in range(6):
            s = zl[i] - zl[i].max()
            ref += -(s[targets[i]] - np.log(np.exp(s).sum()))
        ref /= 6
        assert abs(float(loss.data) - float(ref)) < 1e-10

    def test_gradient(self):
        rng = np.random.default_rng(4)
        logits = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        targets = np.array([1, 3, 0])
        ad.cross_entropy_logits(logits, targets).backward()
        want = numgrad(lambda: float(
            ad.cross_entropy_logits(ad.Tensor(logits.data), targets).data),
            logits.data)
        assert relerr(logits.grad, want) < 1e-6

    def test_class_out_of_range(self):
        with pytest.raises(ad.ClassOutOfRange):
            ad.cross_entropy_logits(ad.Tensor(np.zeros((1, 3))), [3])


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        p = ad.Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.zero_grad()
        state = ad.AdamState()
        before = p.data.copy()
        ad.adam_step([p], state, 0.1)
        assert np.array_equal(p.data, before)
        assert state.step_count == 1

    def test_first_step_is_signed_lr(self):
        p = ad.Tensor(np.array([1.0, 1.0]), requires_grad=True)
        p.grad = np.array([0.5, -3.0])
        ad.adam_step([p], ad.AdamState(), 0.01)
        delta = p.data - 1.0
        assert np.allclose(delta, [-0.01, 0.01], atol=1e-6)

    def test_hundred_steps_on_quadratic(self):
        p = ad.Tensor(np.array([1.0]), requires_grad=True)
        state = ad.AdamState()
        for _ in range(100):
            p.grad = 2.0 * p.data
            ad.adam_step([p], state, 0.1)
        assert abs(float(p.data[0])) < 0.05

    def test_missing_grad_moves_by_decayed_first_moment(self):
        p = ad.Tensor(np.array([1.0]), requires_grad=True)
        state = ad.AdamState()
        p.grad = np.array([1.0])
        ad.adam_step([p], state, 0.1)
        before = p.data.copy()
        p.grad = None
        ad.adam_step([p], state, 0.1)
        assert p.data[0] < before[0]

    def test_shape_mismatch(self):
        p = ad.Tensor(np.zeros(3), requires_grad=True)
        p.grad = np.zeros(4)
        with pytest.raises(ad.ShapeMismatch):
            ad.adam_step([p], ad.AdamState(), 0.1)
