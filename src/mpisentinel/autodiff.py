"""Minimal reverse-mode automatic differentiation over numpy arrays.

Tensors record their parents and a backward closure on a tape; backward()
walks the tape in reverse topological order accumulating gradients.  Once
an interior tensor (one with parents) has passed its gradient on, backward()
drops its gradient, closure and parents, so the arrays the closure saved
are freed as the walk proceeds and only leaves keep their gradients.
Closures hold parents, never their own output, so a tape that is never
walked is freed as soon as its root is dropped.  Only the operations the
graph network needs are provided.
"""

from __future__ import annotations

import numpy as np


class ShapeMismatch(Exception):
    pass


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False, parents=(),
                 backward=None, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents
        self._backward = backward
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def accumulate(self, g: np.ndarray):
        if self.grad is None:
            # a fresh array, never a view of g (ops hand one buffer to several
            # parents); adding 0.0 turns -0.0 into +0.0 as a sum from zeros does
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def zero_grad(self):
        self.grad = np.zeros_like(self.data)

    def backward(self):
        if self.data.size != 1:
            raise ShapeMismatch("backward() needs a scalar loss")
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
        while topo:
            node = topo.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._parents:
                # interior: every consumer has been processed, so its
                # gradient and what its closure saved can go now
                node.grad = None
                node._backward = None
                node._parents = ()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, name={self.name!r})"


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum `g` back down to `shape` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data, parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.data.shape))
    out._backward = backward
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeMismatch(f"matmul {a.data.shape} @ {b.data.shape}")
    out = Tensor(a.data @ b.data, parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a.accumulate(g @ b.data.T)
        if b.requires_grad:
            b.accumulate(a.data.T @ g)
    out._backward = backward
    return out


def concat(parts: list[Tensor], axis: int = 1) -> Tensor:
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis),
                 parents=tuple(parts))
    sizes = [p.data.shape[axis] for p in parts]

    def backward(g):
        offset = 0
        for p, size in zip(parts, sizes):
            if p.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(offset, offset + size)
                p.accumulate(g[tuple(sl)])
            offset += size
    out._backward = backward
    return out


def _scatter_rows(idx: np.ndarray, values: np.ndarray, n_rows: int) -> np.ndarray:
    """Rows of `values` summed into `n_rows` rows at `idx`.  One bincount over
    the flat cell index adds in input order from +0.0, so each cell gets the
    same sum, bit for bit, as adding the rows one by one into zeros."""
    tail = values.shape[1:]
    width = int(np.prod(tail, dtype=np.int64))
    flat = (idx[:, None] * width + np.arange(width)).ravel()
    summed = np.bincount(flat, weights=values.ravel(), minlength=n_rows * width)
    return summed.reshape((n_rows,) + tail)


def gather_rows(a: Tensor, idx) -> Tensor:
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(a.data[idx], parents=(a,))

    def backward(g):
        if a.requires_grad:
            a.accumulate(_scatter_rows(idx, g, a.data.shape[0]))
    out._backward = backward
    return out


def segment_max(a: Tensor, seg, n_segments: int) -> Tensor:
    """Per-segment elementwise max; gradient flows to the first row attaining
    the maximum in each (segment, column)."""
    seg = np.asarray(seg, dtype=np.int64)
    n, c = a.data.shape
    data = np.full((n_segments, c), -np.inf)
    np.maximum.at(data, seg, a.data)
    winners = np.full((n_segments, c), n, dtype=np.int64)
    cand = np.where(a.data == data[seg], np.arange(n)[:, None], n)
    np.minimum.at(winners, seg, cand)
    out = Tensor(data, parents=(a,))

    def backward(g):
        if a.requires_grad:
            ga = np.zeros_like(a.data)
            rows = winners.ravel()
            cols = np.tile(np.arange(c), n_segments)
            valid = rows < n
            ga[rows[valid], cols[valid]] += g.ravel()[valid]
            a.accumulate(ga)
    out._backward = backward
    return out


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0), parents=(a,))

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * (a.data > 0))
    out._backward = backward
    return out


def elu(a: Tensor) -> Tensor:
    out = Tensor(np.where(a.data > 0, a.data, np.expm1(a.data)), parents=(a,))

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * np.where(a.data > 0, 1.0, np.exp(a.data)))
    out._backward = backward
    return out


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))


class ClassOutOfRange(Exception):
    pass


def cross_entropy_logits(logits: Tensor, targets) -> Tensor:
    """Mean -log softmax(logits)[target] over rows, max-shift stabilized."""
    targets = np.asarray(targets, dtype=np.int64).ravel()
    z = logits.data
    if z.ndim == 1:
        z = z[None, :]
    n, c = z.shape
    if targets.shape[0] != n:
        raise ShapeMismatch("one target per logits row required")
    if np.any(targets < 0) or np.any(targets >= c):
        raise ClassOutOfRange(f"targets must lie in [0, {c})")
    shift = z - z.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shift).sum(axis=1, keepdims=True))
    logprob = shift - logsumexp
    loss = -logprob[np.arange(n), targets].mean()
    out = Tensor(loss, parents=(logits,))
    softmax = np.exp(logprob)

    def backward(g):
        if logits.requires_grad:
            grad = softmax.copy()
            grad[np.arange(n), targets] -= 1.0
            grad *= float(g) / n
            logits.accumulate(grad.reshape(logits.data.shape))
    out._backward = backward
    return out


# ---------------------------------------------------------------------------
# Adam

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """First/second moment accumulators keyed by parameter identity."""

    def __init__(self):
        self.step_count = 0
        self.m: dict[int, np.ndarray] = {}
        self.v: dict[int, np.ndarray] = {}


def adam_step(params: list[Tensor], state: AdamState, lr: float):
    """One bias-corrected Adam update.  A parameter with grad=None counts as a
    zero gradient: its moments decay and it still moves by its decayed first
    moment."""
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for p in params:
        key = id(p)
        if key not in state.m:
            state.m[key] = np.zeros_like(p.data)
            state.v[key] = np.zeros_like(p.data)
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ShapeMismatch(f"gradient shape {g.shape} != param {p.data.shape}")
        state.m[key] = b1 * state.m[key] + (1 - b1) * g
        state.v[key] = b2 * state.v[key] + (1 - b2) * g * g
        m_hat = state.m[key] / (1 - b1 ** t)
        v_hat = state.v[key] / (1 - b2 ** t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)
