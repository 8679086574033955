"""Reverse-mode automatic differentiation over dense numpy arrays.

The engine is intentionally small: a :class:`Tensor` wraps an ndarray
together with a gradient slot and a backward closure, and the operations
below cover exactly what the graph encoder, the attention decoder and
their training losses need.  Default precision is float32; gradient-check
suites switch the engine to float64 through :func:`default_dtype`.

Operations work on whole batches: the rows of a matrix are the nodes or
the sequences of a minibatch, and the row-level ops (``gather``,
``slice_rows``, ``segment_max``) let one op serve the whole minibatch
instead of a Python loop over vectors.

``affine`` (``x @ w + b``) is the one matrix product: every linear layer
is one ``affine`` op, an LSTM's four gates included.  Fused ops do the
elementwise work of a step: ``lstm_cell`` the gate math, and
``additive_scores`` and ``attend`` the attention.
Weight and embedding-lookup gradients are not summed as they arrive.
``affine`` stores the operand pair of each outer product on its weight
matrix and ``gather`` stores each looked-up index with its gradient; when
the reverse sweep reaches the matrix, all stored pairs become its
gradient in one GEMM and all stored rows in one ``np.add.at`` on the
flattened gradient, numpy's fast 1-D scatter.  So each weight gradient is
built once per backward, and an embedding's cost does not grow with the
vocabulary.  ``segment_max`` also scatters its gradient that way.

:meth:`Tensor.backward` consumes the graph it sweeps, freeing each
activation and intermediate gradient once passed; only leaf gradients
(parameters, or tensors the user made) remain, and they accumulate
across ``backward()`` calls until reset.

Grad mode (:func:`no_grad`) and the default dtype are context variables:
each thread starts from the defaults and switching them in one thread
never affects another.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from typing import Sequence

import numpy as np

_DEFAULT_DTYPE: ContextVar[type] = ContextVar("default_dtype", default=np.float32)
_GRAD_ENABLED: ContextVar[bool] = ContextVar("grad_enabled", default=True)


class AutodiffError(ValueError):
    """Shape mismatch or misuse of the autodiff engine."""


def get_default_dtype() -> type:
    return _DEFAULT_DTYPE.get()


@contextlib.contextmanager
def default_dtype(dtype):
    """Temporarily change the dtype used for newly created tensors."""
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise AutodiffError(f"unsupported dtype {dt}; use float32 or float64")
    token = _DEFAULT_DTYPE.set(dt.type)
    try:
        yield
    finally:
        _DEFAULT_DTYPE.reset(token)


@contextlib.contextmanager
def no_grad():
    """Disable graph building; forward values only (inference mode)."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


class Tensor:
    """Dense real array participating in reverse-mode differentiation.

    ``data`` is a row-major ndarray, ``grad`` (same shape, allocated on
    demand) holds partial derivatives; a leaf, which has no backward
    closure, accumulates them across calls to :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_pairs", "_rows")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_DEFAULT_DTYPE.get())
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward = None
        self._pairs: tuple | None = None  # ([u], [v]): grad += U.T @ V
        self._rows: tuple | None = None  # ([index], [g]): grad[index] += g

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Add to ``grad`` on every reachable leaf with requires_grad, and
        consume the graph: each non-leaf tensor drops its gradient, backward
        closure and parents once its own backward has run.

        The receiver must be a scalar.  A backward that reaches a consumed
        tensor (a second call on one loss, or a new loss built on a consumed
        intermediate) raises AutodiffError before any gradient changes.
        """
        if self.data.size != 1:
            raise AutodiffError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        order = _toposort(self)
        _accumulate(self, np.ones_like(self.data))
        while order:
            node = order.pop()  # so the list no longer pins the node
            # Every consumer of node has run, so its deferred terms are final.
            if node._pairs is not None or node._rows is not None:
                _flush(node)
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._backward = _consumed
            node._parents = ()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    __rmul__ = __mul__


def _consumed(g) -> None:
    """Backward closure of a tensor that a backward sweep has passed."""


def _toposort(root: Tensor) -> list[Tensor]:
    # Iterative DFS: graphs can be deeper than Python's recursion limit.
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node._backward is _consumed:
            raise AutodiffError("backward through a graph an earlier backward() consumed")
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, copy=True)
    else:
        t.grad += g


def _accumulate_at(t: Tensor, index, g: np.ndarray) -> None:
    """Add g to t's gradient at index (a basic numpy index)."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad[index] += g


def _defer_outer(t: Tensor, u: np.ndarray, v: np.ndarray) -> None:
    """Record the gradient term u.T @ v of matrix t; u and v are reshaped
    to rows, so a vector counts as one row and a (b, n, m) operand as b*n."""
    m, n = t.data.shape
    if t._pairs is None:
        t._pairs = ([], [])
    t._pairs[0].append(u.reshape(-1, m))
    t._pairs[1].append(v.reshape(-1, n))


def _flush(t: Tensor) -> None:
    """Add t's deferred terms to its gradient: one GEMM, one scatter-add."""
    if t._pairs is not None:
        us, vs = t._pairs
        t._pairs = None
        _accumulate(t, np.concatenate(us).T @ np.concatenate(vs))
    if t._rows is not None:
        index, gs = t._rows
        t._rows = None
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        t.grad = np.ascontiguousarray(t.grad)  # so reshape(-1) is a view
        # add.at sums repeated indices (fancy-index += keeps one); at flat
        # positions it adds what it would at rows, in its fast 1-D loop.
        width = t.data[0].size
        flat = (np.concatenate(index)[:, None] * width + np.arange(width)).reshape(-1)
        np.add.at(t.grad.reshape(-1), flat, np.concatenate(gs).reshape(-1))


def _records(parents: Sequence[Tensor]) -> bool:
    """Whether an op on these parents records a backward."""
    return _GRAD_ENABLED.get() and any(p.requires_grad for p in parents)


def _result(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._pairs = out._rows = None
    if _records(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=_DEFAULT_DTYPE.get()))


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    """Sum of two tensors under numpy broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data + b.data
    except ValueError:
        raise AutodiffError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}") from None

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _result(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise AutodiffError(f"mul shape mismatch: {a.data.shape} vs {b.data.shape}")

    def backward(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _result(a.data * b.data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    def backward(g):
        _accumulate(a, g * s)

    return _result(a.data * s, (a,), backward)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for x of shape (..., p), w (p, q) and b (q,), as one op;
    the weight gradient is deferred to one GEMM (see ``_defer_outer``)."""
    if x.data.shape[-1] != w.data.shape[0]:
        raise AutodiffError(
            f"affine dimension mismatch: input {x.data.shape} vs weight {w.data.shape}"
        )
    out = x.data @ w.data
    out += b.data

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g @ w.data.T)
        if w.requires_grad:
            _defer_outer(w, x.data, g)
        # The same axis-0 sums as add's, so bias gradients keep their bits.
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _result(out, (x, w, b), backward)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def backward(g):
        _accumulate(a, g * mask)

    return _result(np.where(mask, a.data, 0.0), (a,), backward)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def backward(g):
        _accumulate(a, g * (1.0 - out * out))

    return _result(out, (a,), backward)


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along an axis, by default the last."""
    if not parts:
        raise AutodiffError("concat of an empty sequence")
    out = np.concatenate([p.data for p in parts], axis=axis)

    def backward(g):
        bounds = np.cumsum([p.data.shape[axis] for p in parts])[:-1]
        for p, gp in zip(parts, np.split(g, bounds, axis=axis)):
            _accumulate(p, gp)

    return _result(out, tuple(parts), backward)


def gather(m: Tensor, index) -> Tensor:
    """Rows of m at an int index of any shape (a scalar picks one row, or
    one element of a vector); repeated indices add up their gradients,
    which are deferred as (index, g) pairs to one flat scatter-add."""
    index = np.asarray(index, dtype=np.intp)
    out = np.asarray(m.data[index])
    flat = index.reshape(-1)

    def backward(g):
        if m._rows is None:
            m._rows = ([], [])
        m._rows[0].append(flat)
        m._rows[1].append(g.reshape((-1,) + m.data.shape[1:]))

    return _result(out, (m,), backward)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows start:stop of a, as a view; a itself when that is every row."""
    if start == 0 and stop == a.data.shape[0]:
        return a

    def backward(g):
        _accumulate_at(a, slice(start, stop), g)

    return _result(a.data[start:stop], (a,), backward)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    def backward(g):
        _accumulate(a, g.reshape(a.data.shape))

    return _result(a.data.reshape(shape), (a,), backward)


def segment_max(m: Tensor, index: np.ndarray, valid: np.ndarray) -> Tensor:
    """Row r is the coordinatewise max of m[index[r, k]] over the k with
    valid[r, k], or zero if there is none; index and valid are (s, j >= 1)
    and padded entries must still be row numbers of m.  Each coordinate's
    gradient goes to the first position holding the max (ties: lowest k).
    Recorded, it makes one pass per column k, over the rows valid there.
    """
    if index.ndim != 2 or index.shape != valid.shape or index.shape[1] < 1:
        raise AutodiffError(f"segment_max: bad index/mask shapes {index.shape}, {valid.shape}")
    filled = valid.any(axis=1)
    if not _records((m,)):  # one max over the padded (s, j, d) block: fastest on one query
        picked = np.where(valid[:, :, None], m.data[index], -np.inf)
        return _result(np.where(filled[:, None], picked.max(axis=1), 0.0), (m,), None)
    d = m.data.shape[1]
    out = np.full((index.shape[0], d), -np.inf, dtype=m.data.dtype)
    src = np.repeat(index[:, :1], d, axis=1)  # (s, d) source rows
    for k in range(index.shape[1]):
        rows = np.flatnonzero(valid[:, k])
        ids = index[rows, k]
        cand, best = m.data[ids], out[rows]
        # Strictly greater keeps the lowest k on a tie; np.maximum keeps NaNs.
        src[rows] = np.where(cand > best, ids[:, None], src[rows])
        out[rows] = np.maximum(best, cand)
    out[~filled] = 0.0
    flat = (src[filled] * d + np.arange(d)).reshape(-1)  # source positions in m

    def backward(g):
        gm = np.zeros(m.data.size, dtype=m.data.dtype)
        np.add.at(gm, flat, g[filled].reshape(-1))
        _accumulate(m, gm.reshape(m.data.shape))

    return _result(out, (m,), backward)


def tsum(a: Tensor) -> Tensor:
    """Sum all elements to a scalar."""
    def backward(g):
        _accumulate(a, np.broadcast_to(g, a.data.shape))

    return _result(np.asarray(a.data.sum(), dtype=a.data.dtype), (a,), backward)


def lstm_cell(gates: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    """(h', c') = (o*tanh(c'), f*c + i*tanh(cand)) from (n, 4h) gate
    pre-activations in i, f, o, cand order, i, f and o through a sigmoid,
    and the (n, h) cell state c.  h' has c' as a parent, so the backward
    of c' runs once for the partials of both outputs."""
    hd = c.data.shape[-1]
    if gates.data.shape != c.data.shape[:-1] + (4 * hd,):
        raise AutodiffError(f"lstm_cell shape mismatch: gates {gates.data.shape} vs cell {c.data.shape}")
    # (1 + tanh(x/2)) / 2 keeps the input dtype and has no exp to overflow
    # or underflow, and no branch; its error is within an ulp of 1.
    sig = np.tanh(0.5 * gates.data[..., : 3 * hd])
    sig += 1.0
    sig *= 0.5
    i, f, o = sig[..., :hd], sig[..., hd : 2 * hd], sig[..., 2 * hd :]
    cand = np.tanh(gates.data[..., 3 * hd :])
    c2 = f * c.data + i * cand
    tc = np.tanh(c2)

    def c_backward(g):
        _accumulate_at(gates, (..., slice(0, hd)), g * cand * i * (1.0 - i))
        _accumulate_at(gates, (..., slice(hd, 2 * hd)), g * c.data * f * (1.0 - f))
        _accumulate_at(gates, (..., slice(3 * hd, None)), g * i * (1.0 - cand * cand))
        _accumulate(c, g * f)

    c_out = _result(c2, (gates, c), c_backward)

    def h_backward(g):
        _accumulate_at(gates, (..., slice(2 * hd, 3 * hd)), g * tc * o * (1.0 - o))
        _accumulate(c_out, g * o * (1.0 - tc * tc))

    return _result(o * tc, (gates, c_out), h_backward), c_out


def additive_scores(q: Tensor, proj: Tensor, v: Tensor) -> Tensor:
    """Additive attention scores tanh(proj + q[:, None]) @ v, (n, m), from
    (n, h) queries, (n, m, h) projected keys and an (h,) vector v."""
    energy = np.tanh(proj.data + q.data[:, None])

    def backward(g):
        d = np.einsum("bn,h->bnh", g, v.data) * (1.0 - energy * energy)
        _accumulate(proj, d)
        _accumulate(q, d.sum(axis=1))
        _accumulate(v, np.einsum("bnh,bn->h", energy, g))

    return _result(np.einsum("bnh,h->bn", energy, v.data), (q, proj, v), backward)


def attend(scores: Tensor, mask: np.ndarray, nodes: Tensor) -> tuple[Tensor, Tensor]:
    """(context, weights): the (n, m) weights are the stable softmax of the
    (n, m) scores, exactly 0 where ``mask`` is False (each row needs one
    True), and the (n, d) context rows are their sums over (n, m, d) nodes."""
    if scores.data.ndim != 2 or nodes.data.shape[:2] != scores.data.shape:
        raise AutodiffError(f"attend shape mismatch: scores {scores.data.shape} vs nodes {nodes.data.shape}")
    w = np.where(mask, scores.data, -np.inf)
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)

    def to_scores(gw):
        _accumulate(scores, w * (gw - (gw * w).sum(axis=-1, keepdims=True)))

    def context_backward(g):
        if scores.requires_grad:
            to_scores(np.einsum("bd,bnd->bn", g, nodes.data))
        if nodes.requires_grad:
            _accumulate(nodes, np.einsum("bn,bd->bnd", w, g))

    context = _result(np.einsum("bn,bnd->bd", w, nodes.data), (scores, nodes), context_backward)
    return context, _result(w, (scores,), to_scores)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Summed negative log-likelihood: sum over rows i of
    -log softmax(logits[i])[targets[i]], for (n, v) logits."""
    targets = np.asarray(targets, dtype=np.intp)
    if logits.data.ndim != 2 or targets.shape != logits.data.shape[:1]:
        raise AutodiffError(
            f"cross_entropy expects (n, v) logits and n targets, got {logits.data.shape}, {targets.shape}"
        )
    rows = np.arange(targets.shape[0])
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    out = np.asarray((np.log(total[:, 0]) - shifted[rows, targets]).sum(), dtype=logits.data.dtype)

    def backward(g):
        grad = e / total
        grad[rows, targets] -= 1.0
        _accumulate(logits, grad * g)

    return _result(out, (logits,), backward)


def dropout(a: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: keep with probability 1-p and scale by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise AutodiffError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
        return a
    mask = (rng.random(a.data.shape) >= p).astype(a.data.dtype) / (1.0 - p)

    def backward(g):
        _accumulate(a, g * mask)

    return _result(a.data * mask, (a,), backward)
