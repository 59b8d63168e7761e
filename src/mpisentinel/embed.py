"""IR2vec-style module embeddings.

A deterministic seeded vocabulary maps entity tokens (opcodes, type classes,
operand kinds) to base vectors.  ``embed`` is the one encoder: its symbolic
half sums weighted token vectors per instruction; its flow-aware half
additionally propagates the embeddings of defining instructions through
operand uses.  Those rows are the solution of a linear system,
X = B + w_arg * A X, where A[u, d] counts the operands of instruction u
that instruction d defines; since only the sum of a function's rows enters
the embedding, one vector solve per function, (I - w_arg * A^T) y = 1 and
1^T X = y^T B, replaces solving for X.  The rows exist only when the
spectral radius of w_arg * A is below 1 (a cycle of uses that multiplies
its own value by 1 or more diverges); `embed` raises FlowDiverges,
naming the function, when it is not.  Both halves are concatenated into
one 512-element feature vector per compilation unit.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .ircore import IrFunction, IrModule, OperandKind, canonical_type

DEFAULT_DIM = 256
DEFAULT_WEIGHTS = (1.0, 0.5, 0.2)  # opcode, type, operand-kind


class ScalerMismatch(Exception):
    pass


class FlowDiverges(ValueError):
    """A function's flow-aware rows have no finite solution: its uses form
    a cycle whose spectral radius times w_arg is 1 or more."""


class SeedVocab:
    """Deterministic token -> vector table: (seed, token) fully determines
    the entry, each component uniform in [-1, 1].  Entries are materialized
    lazily on first lookup and derived from a counter-mode hash stream, so
    they are identical across runs, platforms and library versions."""

    def __init__(self, seed: int, dim: int = DEFAULT_DIM):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.seed = int(seed)
        self.dim = int(dim)
        self._entries: dict[str, np.ndarray] = {}

    def vector(self, token: str) -> np.ndarray:
        vec = self._entries.get(token)
        if vec is None:
            vec = self._entries[token] = self._materialize(token)
        return vec

    def _materialize(self, token: str) -> np.ndarray:
        out = np.empty(self.dim, dtype=np.float64)
        blocks = (self.dim + 3) // 4
        key = f"{self.seed}|{token}|".encode("utf-8")
        pos = 0
        for b in range(blocks):
            digest = hashlib.sha256(key + str(b).encode()).digest()
            for (u,) in struct.iter_unpack(">Q", digest):
                if pos >= self.dim:
                    break
                out[pos] = (u / 2.0 ** 64) * 2.0 - 1.0
                pos += 1
        out.flags.writeable = False
        return out


@dataclass
class EmbeddingVector:
    values: np.ndarray  # length 2*dim: symbolic then flow-aware

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("embedding contains non-finite values")


def _function_parts(fn: IrFunction, keys: dict) -> tuple[list[int], list[tuple[int, int]]]:
    """One walk over a function's instructions.  Returns the row indices of
    its symbolic rows followed by those of its flow-aware base rows (the
    symbolic row without the operands that a local definition resolves),
    and the (user index, def index) links, which come out in user order
    and, within one user, in operand order.  A row depends only on its
    key, (opcode, type string, non-label operand kinds) for a
    symbolic row and the same with only the unresolved kinds for a base
    row; `keys` numbers the keys of one embed call in first-seen order,
    which is the order of its row table."""
    defs: dict[str, int] = {}
    instrs = []
    for block in fn.blocks:
        for instr in block.instructions:
            idx = len(instrs)
            instrs.append(instr)
            if instr.result_id is not None:
                defs[instr.result_id] = idx
    rows = []
    base = []
    links: list[tuple[int, int]] = []
    for idx, instr in enumerate(instrs):
        kinds = []
        free = []
        for op in instr.operands:
            if op.kind == OperandKind.LABEL:
                continue
            kinds.append(op.kind)
            if op.kind == OperandKind.LOCAL and op.token in defs:
                links.append((idx, defs[op.token]))
            else:
                free.append(op.kind)
        rows.append(keys.setdefault((instr.opcode, instr.type_str, tuple(kinds)), len(keys)))
        base.append(keys.setdefault((instr.opcode, instr.type_str, tuple(free)), len(keys)))
    return rows + base, links


def _row_table(keys, vocab: SeedVocab, weights) -> np.ndarray:
    """One row per key, in the keys' order: the weighted sum of the opcode,
    type class and operand kind vectors, added in that order."""
    w_op, w_ty, w_arg = weights
    table = np.empty((len(keys), vocab.dim))
    for k, (opcode, type_str, kinds) in enumerate(keys):
        row = w_op * vocab.vector(opcode) + w_ty * vocab.vector(canonical_type(type_str))
        for kind in kinds:
            row = row + w_arg * vocab.vector(kind)
        table[k] = row
    return table


def _flow_sum(base: np.ndarray, links: list[tuple[int, int]],
              w_arg: float) -> np.ndarray:
    """Sum of the rows X = base + w_arg * A X, where A[u, d] counts the
    (user u, def d) links, as y^T base with (I - w_arg * A^T) y = 1.
    X exists exactly when that Z-matrix is a nonsingular M-matrix, that is
    when y is positive; raises FlowDiverges when it is not, or when the
    system is singular to working precision."""
    if not links:
        # summation order matches the symbolic half so the two agree bitwise
        return _seq_sum(base)
    n = base.shape[0]
    m = np.eye(n)
    np.add.at(m.ravel(), [d * n + u for u, d in links], -w_arg)
    try:
        y = np.linalg.solve(m, np.ones(n))
    except np.linalg.LinAlgError:
        raise FlowDiverges("I - w_arg * A^T is singular") from None
    # an M-matrix has a nonnegative inverse, whose infinity norm is max(y)
    lo, hi = y.min(), y.max()
    if not (lo > 0 and np.abs(m).sum(1).max() * hi * np.finfo(float).eps < 1):
        raise FlowDiverges(f"I - w_arg * A^T is not a nonsingular M-matrix "
                           f"(adjoint weights in [{lo:.3e}, {hi:.3e}])")
    return y @ base


def _seq_sum(rows: np.ndarray) -> np.ndarray:
    """Sum of the rows, added one row at a time to zeros.  NumPy reduces
    the first axis of a C-ordered array of two or more columns row by row
    (tests/oracles.py checks the bits against an explicit loop), but a
    single column it adds pairwise."""
    if rows.shape[1] > 1:
        return rows.sum(axis=0, initial=0.0)
    total = np.zeros(1)
    for row in rows:
        total += row
    return total


def embed(module: IrModule, vocab: SeedVocab, weights=DEFAULT_WEIGHTS) -> EmbeddingVector:
    """Concatenated symbolic (first half) and flow-aware (second half) vector,
    from one walk over each function and one row table per call.  The
    weights are nonnegative.  Raises FlowDiverges for the first function
    whose flow-aware rows have no finite solution."""
    keys: dict = {}
    functions = module.defined_functions()
    parts = [_function_parts(fn, keys) for fn in functions]
    table = _row_table(keys, vocab, weights)
    sym = np.zeros(vocab.dim)
    flow = np.zeros(vocab.dim)
    for fn, (ids, links) in zip(functions, parts):
        rows = table[ids]
        n = len(ids) // 2
        sym += _seq_sum(rows[:n])
        try:
            flow += _flow_sum(rows[n:], links, weights[2])
        except FlowDiverges as exc:
            raise FlowDiverges(f"{module.name}: flow-aware embedding of "
                               f"@{fn.name} diverges: {exc}") from None
    return EmbeddingVector(np.concatenate([sym, flow]))


# ---------------------------------------------------------------------------
# Normalization strategies

@dataclass
class IndexScaler:
    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        self.mins = np.asarray(self.mins, dtype=np.float64)
        self.maxs = np.asarray(self.maxs, dtype=np.float64)
        if np.any(self.maxs < self.mins):
            raise ValueError("index scaler requires max >= min per coordinate")


def fit_index_scaler(matrix: np.ndarray) -> IndexScaler:
    m = np.asarray(matrix, dtype=np.float64)
    return IndexScaler(m.min(axis=0), m.max(axis=0))


def normalize(matrix: np.ndarray, strategy) -> np.ndarray:
    """strategy: "none", "vector", or a fitted IndexScaler.

    vector: each row is divided by its maximum element when that maximum is
    positive; all-zero rows pass through; rows whose maximum is <= 0 are
    divided by the maximum absolute value so signs are preserved.
    index: per-coordinate min-max from the fitted scaler, clamped to [0, 1].
    """
    m = np.asarray(matrix, dtype=np.float64)
    single = m.ndim == 1
    if single:
        m = m[None, :]
    if strategy == "none" or strategy is None:
        out = m.copy()
    elif strategy == "vector":
        out = m.copy()
        for i in range(out.shape[0]):
            row = out[i]
            mx = row.max() if row.size else 0.0
            if mx > 0:
                out[i] = row / mx
            elif np.any(row != 0):
                out[i] = row / np.abs(row).max()
    elif isinstance(strategy, IndexScaler):
        if m.shape[1] != strategy.mins.shape[0]:
            raise ScalerMismatch(
                f"scaler fitted on width {strategy.mins.shape[0]}, "
                f"matrix has width {m.shape[1]}")
        span = strategy.maxs - strategy.mins
        safe = np.where(span > 0, span, 1.0)
        out = np.clip((m - strategy.mins) / safe, 0.0, 1.0)
        out[:, span == 0] = 0.0
    else:
        raise ValueError(f"unknown normalization strategy: {strategy!r}")
    return out[0] if single else out
