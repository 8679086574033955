"""Reverse-mode automatic differentiation over dense numpy arrays.

The engine is intentionally small: a :class:`Tensor` wraps an ndarray
together with a gradient slot and a backward closure, and the operations
below cover exactly what the graph encoder, the attention decoder and
their training losses need.  Default precision is float32; gradient-check
suites switch the engine to float64 through :func:`default_dtype`.

Operations work on whole batches: the rows of a matrix are the nodes or
the sequences of a minibatch, and the row-level ops (``gather``,
``segment_max``) let one op serve the whole minibatch instead of a
Python loop over vectors.

Every linear layer is one ``affine`` op (``x @ w + b``).  Each LSTM is
one op over all its steps, whose backward is hand-written
backpropagation through time, and both share the cell math (``_cell``,
``_cell_backward``): ``lstm`` reads rows of token ids from zero states,
and the attention decoder is ``attention_lstm``, one op over a whole
teacher-forced batch.  Its forward runs ``attention_lstm_step``, a numpy
function that greedy and beam decoding call directly on arrays.
Weight and embedding-lookup gradients are not summed as they arrive.
``affine`` and the two LSTM ops store the operand pair of each outer
product on its weight matrix, and ``gather`` and the LSTM ops each
looked-up index with its gradient; when
the reverse sweep reaches the matrix, all stored pairs become its
gradient in one GEMM and all stored rows in one ``np.add.at`` on the
flattened gradient, numpy's fast 1-D scatter.  So each weight gradient is
built once per backward, and an embedding's cost does not grow with the
vocabulary.  ``segment_max`` also scatters its gradient that way.

:meth:`Tensor.backward` runs reverse mode from any output: it seeds the
sweep with a cotangent of the output's shape (one, for a scalar, by
default) and adds its vector-Jacobian product to every leaf's gradient.
It consumes the graph it sweeps, freeing each activation and
intermediate gradient once passed; only leaf gradients (parameters, or
tensors the user made) remain, and they accumulate across
``backward()`` calls until reset.

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

    def backward(self, grad=None) -> None:
        """Reverse mode from this tensor: seed the sweep with the cotangent
        ``grad`` and add its vector-Jacobian product (J^T · grad, J the
        Jacobian of this tensor in the leaf) to the ``.grad`` of every
        reachable leaf with requires_grad.  The sweep consumes the graph:
        each non-leaf tensor drops its gradient, backward closure and
        parents once its own backward has run.

        ``grad`` is cast to this tensor's dtype, and its shape must be this
        tensor's.  Without it the receiver must be a scalar, and the seed
        is one.  A wrong-shaped cotangent, or a backward that reaches a
        consumed tensor (a second call on one output, or a new one built on
        a consumed intermediate), raises AutodiffError before any gradient
        changes.
        """
        if grad is None:
            if self.data.size != 1:
                raise AutodiffError(
                    f"backward without a cotangent requires a scalar, got shape {self.data.shape}"
                )
            seed = np.ones_like(self.data)
        else:
            seed = np.asarray(grad, dtype=self.data.dtype)
            if seed.shape != self.data.shape:
                raise AutodiffError(
                    f"cotangent shape {seed.shape} does not match output shape {self.data.shape}"
                )
        order = _toposort(self)
        _accumulate(self, seed)
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


def _defer_outer(t: Tensor, u: np.ndarray, v: np.ndarray) -> None:
    """Record the gradient term u.T @ v of matrix t; u and v are reshaped
    to rows, so a vector counts as one row and a (b, n, m) operand as b*n."""
    m, n = t.data.shape
    if t._pairs is None:
        t._pairs = ([], [])
    t._pairs[0].append(u.reshape(-1, m))
    t._pairs[1].append(v.reshape(-1, n))


def _defer_rows(t: Tensor, index: np.ndarray, g: np.ndarray) -> None:
    """Record the gradient term grad[index] += g of t, g holding one row of t per index entry."""
    if not t.requires_grad:
        return
    if t._rows is None:
        t._rows = ([], [])
    t._rows[0].append(index.reshape(-1))
    t._rows[1].append(g.reshape((-1,) + t.data.shape[1:]))


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
        # The bias gradient sums g over its leading axes, one axis-0 sum each.
        while g.ndim > 1:
            g = g.sum(axis=0)
        _accumulate(b, g)

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
        index, start = [slice(None)] * g.ndim, 0
        for p in parts:
            index[axis] = slice(start, start + p.data.shape[axis])
            _accumulate(p, g[tuple(index)])
            start = index[axis].stop

    return _result(out, tuple(parts), backward)


def gather(m: Tensor, index) -> Tensor:
    """Rows of m at an int index of any shape (a scalar picks one row, or
    one element of a vector); repeated indices add up their gradients,
    which are deferred as (index, g) pairs to one flat scatter-add."""
    index = np.asarray(index, dtype=np.intp)
    out = np.asarray(m.data[index])

    def backward(g):
        _defer_rows(m, index, g)

    return _result(out, (m,), backward)


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


def _cell(gates: np.ndarray, c: np.ndarray) -> tuple:
    """(h', c', saved) of an LSTM cell on arrays, from (n, 4h) gate
    pre-activations in i, f, o, cand order and the (n, h) cell state c."""
    hd = c.shape[-1]
    # (1 + tanh(x/2)) / 2 keeps the input dtype and has no exp to overflow
    # or underflow, and no branch; its error is within an ulp of 1.
    sig = np.tanh(0.5 * gates[..., : 3 * hd])
    sig += 1.0
    sig *= 0.5
    cand = np.tanh(gates[..., 3 * hd :])
    c2 = sig[..., hd : 2 * hd] * c + sig[..., :hd] * cand
    tc = np.tanh(c2)
    return sig[..., 2 * hd :] * tc, c2, (sig, cand, tc, c)


def _cell_backward(dh: np.ndarray, dc: np.ndarray, saved: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(d gates, d c) of :func:`_cell` from the partials of h' and c' (the
    latter without the share of h' through c')."""
    sig, cand, tc, c = saved
    hd = c.shape[-1]
    i, f, o = sig[..., :hd], sig[..., hd : 2 * hd], sig[..., 2 * hd :]
    dc = dh * o * (1.0 - tc * tc) + dc
    parts = [dc * cand * i * (1.0 - i), dc * c * f * (1.0 - f), dh * tc * o * (1.0 - o), dc * i * (1.0 - cand * cand)]
    return np.concatenate(parts, axis=-1), dc * f


def lstm(embed: Tensor, steps, weights) -> Tensor:
    """An LSTM over rows of token ids, as one op: every row starts from zero
    states, and step t feeds the ``embed`` rows of the ids ``steps[t]`` to
    the first len(steps[t]) rows (steps never grow).  ``weights`` are the
    joined gate weight and bias.  Returns every step's h rows, stacked step
    after step.

    Backward runs the steps in reverse, freeing each step's arrays once
    passed.  The gate weight gets one GEMM and ``embed`` one scatter."""
    w, b = weights
    sizes = [len(ids) for ids in steps]
    e, hd = embed.data.shape[1], w.data.shape[1] // 4
    if w.data.shape != (e + hd, 4 * hd) or b.data.shape != (4 * hd,) or sizes != sorted(sizes, reverse=True):
        shapes = f"embed {embed.data.shape}, gates {w.data.shape} and {b.data.shape}"
        raise AutodiffError(f"lstm shape mismatch: {shapes}, steps {sizes}")
    out = np.empty((sum(sizes), hd), dtype=embed.data.dtype)
    h = c = np.zeros((sizes[0], hd), dtype=embed.data.dtype)
    saved = []
    for ids, end in zip(steps, np.cumsum(sizes)):
        n = len(ids)
        z = np.concatenate([embed.data[ids], h[:n]], axis=1)
        gates = z @ w.data
        gates += b.data
        h, c, cell = _cell(gates, c[:n])
        out[end - n : end] = h
        saved.append((np.asarray(ids), z, cell))

    def backward(g):
        dh_next, dc_next = np.zeros((2, sizes[0], hd), dtype=g.dtype)
        end = len(g)
        while saved:
            ids, z, cell = saved.pop()
            n, end = len(ids), end - len(ids)
            dgates, dc_next[:n] = _cell_backward(g[end : end + n] + dh_next[:n], dc_next[:n], cell)
            _defer_outer(w, z, dgates)
            _accumulate(b, dgates.sum(axis=0))
            dz = dgates @ w.data.T
            _defer_rows(embed, ids, dz[:, :e])
            dh_next[:n] = dz[:, e:]

    return _result(out, (embed, w, b), backward)


# The decoder's step weights (arrays or tensors) are, in order: the LSTM's
# joined gate weight and bias, attn_s.w, attn_s.b, attn_v, attn_h.w, attn_h.b.
def attention_memory(node_rows: np.ndarray, slots: np.ndarray, weights) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, proj): the (n, m, d) node rows at ``slots`` and their
    (n, m, h) attn_h projection, the keys of additive attention."""
    nodes = node_rows[slots]
    proj = nodes @ weights[5]
    proj += weights[6]
    return nodes, proj


def masked_softmax(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Stable softmax of (n, m) scores over the last axis, exactly 0 where
    ``mask`` is False; each row needs one True."""
    w = np.where(mask, scores, -np.inf)
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    return w


def additive_attention(h: np.ndarray, weights, nodes, proj, mask) -> tuple:
    """(context, weights, energy) of (n, h) decoder states over the first n
    rows of a memory: the (n, m) weights are the masked softmax of
    energy @ v, energy = tanh(proj + attn_s(h)), and the contexts their sums."""
    q = h @ weights[2]
    q += weights[3]
    energy = np.tanh(proj[: len(h)] + q[:, None])
    w = masked_softmax(np.einsum("bnh,h->bn", energy, weights[4]), mask[: len(h)])
    return np.einsum("bn,bnd->bd", w, nodes[: len(h)]), w, energy


def attention_lstm_step(x, context, h, c, weights, nodes, proj, mask) -> tuple:
    """One decoder step on arrays: the joined-gate affine of the (n, e) token
    embeddings x, last (n, d) contexts and (n, h) states h, the LSTM cell,
    and attention from the new h.  Returns (h', c', context', attention
    weights, saved), ``saved`` being what backward reads."""
    z = np.concatenate([x, context, h], axis=1)
    gates = z @ weights[0]
    gates += weights[1]
    h, c, cell = _cell(gates, c)
    context, w, energy = additive_attention(h, weights, nodes, proj, mask)
    return h, c, context, w, (z, cell, energy)


def attention_lstm(embed: Tensor, steps, h: Tensor, c: Tensor, weights, node_rows: Tensor, slots, mask) -> Tensor:
    """The attention decoder over a teacher-forced batch, as one op: row r
    of the (n, h) states h and c starts a sequence that attends over
    ``node_rows[slots[r]]`` where ``mask[r]`` is True.  The initial contexts
    come from h; then step t feeds the ``embed`` rows of the ids
    ``steps[t]`` to the first len(steps[t]) rows (steps never grow).
    Returns every step's rows [h | context], stacked step after step.

    Backward runs the steps in reverse, freeing each step's arrays once
    passed.  Each weight gets one GEMM, ``embed`` one scatter, and
    ``node_rows`` the memory gradients summed over all steps, at its real
    slots only."""
    rows, hd = h.data.shape
    w = [t.data for t in weights]
    sizes = [len(ids) for ids in steps]
    e, d = embed.data.shape[1], node_rows.data.shape[1]
    if w[0].shape != (e + d + hd, 4 * hd) or sizes != sorted(sizes, reverse=True) or sizes[0] > rows:
        raise AutodiffError(f"attention_lstm shape mismatch: gate weight {w[0].shape}, {rows} rows, steps {sizes}")
    memory = (*attention_memory(node_rows.data, slots, w), mask)
    context, a0, energy0 = additive_attention(h.data, w, *memory)
    out = np.empty((sum(sizes), hd + d), dtype=h.data.dtype)
    hs, cs, saved = h.data, c.data, []
    for ids, end in zip(steps, np.cumsum(sizes)):
        n = len(ids)
        hs, cs, context, a, step = attention_lstm_step(embed.data[ids], context[:n], hs[:n], cs[:n], w, *memory)
        out[end - n : end, :hd], out[end - n : end, hd:] = hs, context
        saved.append((np.asarray(ids), hs, a, *step))

    def backward(g):
        nodes, proj, _ = memory
        dh_next, dc_next = np.zeros((2, rows, hd), dtype=g.dtype)
        dctx_next = np.zeros((rows, d), dtype=g.dtype)
        d_nodes, d_proj = np.zeros_like(nodes), np.zeros_like(proj)

        def attend_backward(dctx, h_t, a, energy):  # the partial of h_t from its context's
            n = len(a)
            ga = np.einsum("bd,bnd->bn", dctx, nodes[:n])
            ds = a * (ga - (ga * a).sum(axis=-1, keepdims=True))
            d_nodes[:n] += np.einsum("bn,bd->bnd", a, dctx)
            de = np.einsum("bn,h->bnh", ds, w[4]) * (1.0 - energy * energy)
            d_proj[:n] += de
            _accumulate(weights[4], np.einsum("bnh,bn->h", energy, ds))
            dq = de.sum(axis=1)
            _defer_outer(weights[2], h_t, dq)
            _accumulate(weights[3], dq.sum(axis=0))
            return dq @ w[2].T

        end = len(g)
        while saved:
            ids, h_t, a, z, cell, energy = saved.pop()
            n, end = len(ids), end - len(ids)
            dh = g[end : end + n, :hd] + dh_next[:n]
            dh += attend_backward(g[end : end + n, hd:] + dctx_next[:n], h_t, a, energy)
            dgates, dc_next[:n] = _cell_backward(dh, dc_next[:n], cell)
            _defer_outer(weights[0], z, dgates)
            _accumulate(weights[1], dgates.sum(axis=0))
            dz = dgates @ w[0].T
            _defer_rows(embed, ids, dz[:, :e])
            dctx_next[:n], dh_next[:n] = dz[:, e:-hd], dz[:, -hd:]
        dh_next += attend_backward(dctx_next, h.data, a0, energy0)
        _accumulate(h, dh_next)
        _accumulate(c, dc_next)
        dp = d_proj[mask]
        _defer_outer(weights[5], nodes[mask], dp)
        _accumulate(weights[6], dp.sum(axis=0))
        _defer_rows(node_rows, slots[mask], d_nodes[mask] + dp @ w[5].T)

    return _result(out, (embed, h, c, node_rows, *weights), backward)


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
