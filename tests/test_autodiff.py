import math
import threading
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sql2text import autodiff as ad
from sql2text.autodiff import AutodiffError, Tensor
from sql2text.data import ExamplePair, tokenize_text
from sql2text.graphs import template_interpret
from sql2text.parser import parse
from sql2text.training import TrainConfig, train


@pytest.fixture
def f64():
    with ad.default_dtype(np.float64):
        yield


def param(values):
    return Tensor(np.asarray(values), requires_grad=True)


def sum_backward(out):
    """Backward of the sum of out's entries: a cotangent of ones."""
    out.backward(np.ones_like(out.data))


def square(p):
    """p² for a one-entry p: p times the (1, 1) matrix gathered from p,
    so p's gradient arrives twice, as a product and as a deferred pair."""
    return ad.affine(p, ad.gather(p, [[0]]), Tensor([0.0]))


class TestAffine:
    def test_identity_weights(self):
        out = ad.affine(param([[1.0, 2.0]]), param(np.eye(2)), param([0.0, 0.0]))
        assert np.allclose(out.data, [[1.0, 2.0]])

    def test_hand_multiply(self):
        out = ad.affine(
            param([[1.0, 1.0]]), param([[2.0, 3.0], [4.0, 5.0]]), param([1.0, 1.0])
        )
        assert np.allclose(out.data, [[7.0, 9.0]])

    def test_zero_input_rows_equal_bias(self):
        w = param(np.full((3, 2), 5.0))
        b = param([1.5, -2.5])
        out = ad.affine(param(np.zeros((4, 3))), w, b)
        assert np.allclose(out.data, np.tile([1.5, -2.5], (4, 1)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(AutodiffError) as err:
            ad.affine(param(np.zeros((1, 3))), param(np.zeros((2, 2))), param(np.zeros(2)))
        assert "(1, 3)" in str(err.value) and "(2, 2)" in str(err.value)

    def test_gradients_flow_to_all_inputs(self, f64):
        x = param([[1.0, 2.0], [3.0, 4.0]])
        w = param([[0.5, -1.0], [2.0, 0.25]])
        b = param([0.1, 0.2])
        sum_backward(ad.affine(x, w, b))
        # d sum(xW+b)/dW[k][j] = sum_i x[i][k]
        assert np.allclose(w.grad, np.outer(x.data.sum(axis=0), [1.0, 1.0]))
        assert np.allclose(b.grad, [2.0, 2.0])
        assert np.allclose(x.grad, (w.data @ np.ones(2)).reshape(1, 2).repeat(2, axis=0))


class TestMaxReduce:
    # One segment over all rows of a matrix: the coordinatewise maximum.
    @staticmethod
    def max_over_rows(m):
        n = m.data.shape[0]
        return ad.segment_max(m, np.arange(n)[None, :], np.ones((1, n), dtype=bool))

    def test_coordinatewise_max(self):
        out = self.max_over_rows(param([[1.0, 5.0], [3.0, 2.0]]))
        assert np.allclose(out.data, [[3.0, 5.0]])

    def test_single_row_identity(self):
        out = self.max_over_rows(param([[7.0, -1.0]]))
        assert np.allclose(out.data, [[7.0, -1.0]])

    def test_empty_rejected(self):
        with pytest.raises(AutodiffError):
            ad.segment_max(param([[1.0]]), np.zeros((1, 0), dtype=np.intp), np.zeros((1, 0), dtype=bool))

    @given(st.permutations(range(5)))
    def test_permutation_invariant(self, perm):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(5, 4))
        base = self.max_over_rows(Tensor(rows))
        shuffled = self.max_over_rows(Tensor(rows[list(perm)]))
        assert np.array_equal(base.data, shuffled.data)

    def test_gradient_to_lowest_argmax_on_tie(self, f64):
        rows = param([[1.0, 2.0], [1.0, 0.0]])
        sum_backward(self.max_over_rows(rows))
        assert np.allclose(rows.grad[0], [1.0, 1.0])
        assert np.allclose(rows.grad[1], [0.0, 0.0])

    def test_no_grad_forward_matches_recorded_forward(self):
        rng = np.random.default_rng(3)
        m = param(rng.integers(-2, 3, size=(6, 4)).astype(np.float32))
        index = rng.integers(0, 6, size=(5, 3))
        valid = rng.random((5, 3)) < 0.7
        valid[0] = False
        recorded = ad.segment_max(m, index, valid)
        with ad.no_grad():
            plain = ad.segment_max(m, index, valid)
        assert recorded.requires_grad and not plain.requires_grad
        assert plain.data.dtype == recorded.data.dtype == np.float32
        assert np.array_equal(plain.data, recorded.data)

    def test_segments_pad_and_empty_rows(self, f64):
        m = param([[1.0, -2.0], [3.0, 0.5], [-1.0, 4.0]])
        index = np.array([[2, 0, 0], [1, 1, 0], [0, 0, 0]])
        valid = np.array([[True, True, False], [True, True, True], [False, False, False]])
        out = ad.segment_max(m, index, valid)
        assert np.array_equal(out.data, [[1.0, 4.0], [3.0, 0.5], [0.0, 0.0]])
        sum_backward(out)
        # Row 1 repeats m[1] twice: its gradient is counted once.
        assert np.array_equal(m.grad, [[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

    @pytest.mark.parametrize("recorded", [True, False])
    def test_nan_propagates_to_its_row_and_column(self, recorded):
        m = param([[1.0, 2.0], [np.nan, 0.0], [3.0, -1.0]])
        index = np.array([[0, 1, 2], [2, 0, 0], [1, 0, 0]])
        valid = np.array([[True, True, True], [True, True, False], [False, False, False]])
        if recorded:
            out = ad.segment_max(m, index, valid)
        else:
            with ad.no_grad():
                out = ad.segment_max(m, index, valid)
        assert out.requires_grad == recorded
        # Only row 0 reads m[1]; its NaN shows in column 0 there and nowhere else.
        assert np.isnan(out.data[0, 0])
        assert np.array_equal(out.data[0, 1:], [2.0])
        assert np.array_equal(out.data[1:], [[3.0, 2.0], [0.0, 0.0]])


def reference_segment_max(m, index, valid):
    """segment_max as one max over the padded (s, j, d) block, the argmax
    of that block for the source rows and a 2-D scatter-add backward."""
    picked = np.where(valid[:, :, None], m.data[index], -np.inf)
    empty = ~valid.any(axis=1, keepdims=True)
    out = np.where(empty, 0.0, picked.max(axis=1))
    if not ad._records((m,)):
        return ad._result(out, (m,), None)
    cols = np.arange(m.data.shape[1])
    src = np.take_along_axis(index, picked.argmax(axis=1), axis=1)

    def backward(g):
        gm = np.zeros_like(m.data)
        np.add.at(gm, (src, cols), np.where(empty, 0.0, g))
        ad._accumulate(m, gm)

    return ad._result(out, (m,), backward)


def reference_flush(t):
    """_flush with the deferred rows scattered by a 2-D np.add.at."""
    if t._pairs is not None:
        us, vs = t._pairs
        t._pairs = None
        ad._accumulate(t, np.concatenate(us).T @ np.concatenate(vs))
    if t._rows is not None:
        index, gs = t._rows
        t._rows = None
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        np.add.at(t.grad, np.concatenate(index), np.concatenate(gs))


def _segment_max_case(name, rng):
    """(m, index, valid) for one of the named segment_max cases."""
    if name == "random_mask":  # masks that are not prefixes
        m = rng.normal(size=(9, 6))
        index = rng.integers(0, 9, size=(7, 4))
        valid = rng.random((7, 4)) < 0.6
    elif name == "empty_rows_and_columns":
        m = rng.normal(size=(5, 3))
        index = rng.integers(0, 5, size=(6, 5))
        valid = rng.random((6, 5)) < 0.7
        valid[[0, 3]] = False
        valid[:, [1, 4]] = False
    elif name == "one_row_max_everywhere":
        m = rng.normal(size=(6, 4))
        m[2] += 10.0
        index = rng.integers(0, 6, size=(8, 3))
        index[:, 1] = 2
        valid = np.ones((8, 3), dtype=bool)
        valid[7] = False
    elif name == "integer_ties":
        m = rng.integers(-2, 3, size=(7, 5)).astype(float)
        index = rng.integers(0, 7, size=(9, 4))
        valid = rng.random((9, 4)) < 0.8
    else:  # prefix masks, as padded_index builds them
        m = rng.normal(size=(12, 8))
        sizes = rng.integers(0, 4, size=10)
        valid = np.arange(3) < sizes[:, None]
        index = np.where(valid, rng.integers(0, 12, size=(10, 3)), 0)
    return m, index, valid


SEGMENT_CASES = ["random_mask", "empty_rows_and_columns", "one_row_max_everywhere", "integer_ties", "prefix_masks"]


class TestKernelsMatchReferenceBitwise:
    """segment_max and the deferred row scatter give the values and
    gradients of the padded, 2-D reference formulation, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", SEGMENT_CASES)
    def test_segment_max(self, case, dtype):
        m0, index, valid = _segment_max_case(case, np.random.default_rng(SEGMENT_CASES.index(case)))
        upstream = np.random.default_rng(9).normal(size=(index.shape[0], m0.shape[1]))
        results = []
        with ad.default_dtype(dtype):
            for fn in (ad.segment_max, reference_segment_max):
                m = param(m0)
                out = fn(m, index, valid)
                with ad.no_grad():
                    plain = fn(Tensor(m0), index, valid)
                out.backward(upstream)
                results.append((out.data, plain.data, m.grad))
        for got, want in zip(*results):
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_gather_scatter_with_repeated_indices(self, dtype, order, monkeypatch):
        rng = np.random.default_rng(4)
        m0 = np.asarray(rng.normal(size=(6, 5)), order=order)
        indices = [np.array([1, 1, 4, 1, 0, 4]), np.array([[3, 1], [1, 1], [5, 3]]), np.array(1)]
        upstream = rng.normal(size=(19, 5))
        grads = []
        for flush in (ad._flush, reference_flush):
            monkeypatch.setattr(ad, "_flush", flush)
            with ad.default_dtype(dtype):
                m = Tensor(m0, requires_grad=True)
                vector, matrix, scalar = (ad.gather(m, i) for i in indices)
                # m's own tanh term reaches its gradient before the scatter;
                # the three lookups of m, one index shape each, are rows of one output.
                rows = [ad.tanh(m), vector, *(ad.gather(matrix, k) for k in range(3)), row(scalar)]
                ad.concat(rows, axis=0).backward(upstream)
                grads.append(m.grad)
        assert grads[0].dtype == grads[1].dtype == dtype
        assert np.array_equal(grads[0], grads[1])

    def test_vector_gather_scatter(self):
        v = param(np.arange(5.0))
        sum_backward(ad.gather(v, [3, 0, 3, 3]))
        assert np.array_equal(v.grad, [1.0, 0.0, 0.0, 3.0, 0.0])


TINY_QUERIES = (
    "SELECT a WHERE NOT (b = val_0 OR c > val_1) AND d < val_2",
    "SELECT MAX(e)",
    "SELECT f, g WHERE h = val_0",
    "SELECT a, b, c WHERE d = val_0 AND e = val_1 AND f > val_2",
    "SELECT g WHERE (h < val_0 OR a = val_1) AND b <= val_2",
)


def _train_tiny(ge_method, undirected):
    pairs = [ExamplePair(sql, tokenize_text(template_interpret(parse(sql)))) for sql in TINY_QUERIES]
    config = TrainConfig(
        word_dim=5, hidden=4, hop_size=2, epochs=2, batch_size=3, seed=3,
        ge_method=ge_method, undirected=undirected,
    )
    model = train(config, pairs).model
    outputs = [(model.generate(sql, greedy=True), model.generate(sql, beam_size=3)) for sql in TINY_QUERIES]
    return model.store.state_arrays(), outputs


@pytest.mark.parametrize("ge_method", ["pooling", "supernode"])
@pytest.mark.parametrize("undirected", [False, True])
def test_training_matches_reference_kernels_bitwise(ge_method, undirected, monkeypatch):
    params, outputs = _train_tiny(ge_method, undirected)
    monkeypatch.setattr(ad, "segment_max", reference_segment_max)
    monkeypatch.setattr(ad, "_flush", reference_flush)
    ref_params, ref_outputs = _train_tiny(ge_method, undirected)
    assert params.keys() == ref_params.keys()
    for name in params:
        assert params[name].tobytes() == ref_params[name].tobytes(), name
    assert outputs == ref_outputs


def attend_weights(scores) -> np.ndarray:
    """The attention weights ``masked_softmax`` gives one or more rows of
    scores, in the default dtype."""
    x = Tensor(np.atleast_2d(np.asarray(scores, dtype=float))).data
    return ad.masked_softmax(x, np.ones(x.shape, dtype=bool))


class TestSoftmax:
    # The softmax of the decoder's attention.
    def test_symmetry(self):
        assert np.allclose(attend_weights([0.0, 0.0]), [[0.5, 0.5]])

    def test_stability_under_large_inputs(self):
        out = attend_weights([1000.0, 1000.0])
        assert np.allclose(out, [[0.5, 0.5]])
        assert np.isfinite(out).all()

    def test_closed_form(self, f64):
        out = attend_weights([math.log(2.0), 0.0])
        assert np.allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    def test_positive_and_sums_to_one(self, values):
        out = attend_weights(values)
        assert (out > 0).all()
        assert abs(out.sum() - 1.0) < 1e-6

    @given(
        st.lists(st.integers(-1000, 1000), min_size=1, max_size=8),
        st.integers(-10**6, 10**6),
    )
    def test_shift_invariance_bitwise(self, values, c):
        # Integer-valued inputs keep x + c exact, so max-subtraction must
        # give bit-identical outputs.
        with ad.default_dtype(np.float64):
            base = attend_weights([float(v) for v in values])
            shifted = attend_weights([float(v + c) for v in values])
        assert np.array_equal(base, shifted)


def _sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def _unfused_cell(gates, c):
    # The cell one gate at a time in numpy, with the textbook sigmoid.
    i, f, o, cand = np.split(gates, 4, axis=-1)
    c2 = _sig(f) * c + _sig(i) * np.tanh(cand)
    return _sig(o) * np.tanh(c2), c2


class TestFusedOps:
    def test_lstm_cell_matches_numpy_cell(self, f64):
        rng = np.random.default_rng(7)
        gates, c = rng.normal(size=(4, 12)) * 2, rng.normal(size=(4, 3))
        h2, c2, _ = ad._cell(gates, c)
        i, f, o = (_sig(gates[:, k * 3 : (k + 1) * 3]) for k in range(3))
        want_c = f * c + i * np.tanh(gates[:, 9:])
        assert np.allclose(c2, want_c, rtol=0, atol=1e-12)
        assert np.allclose(h2, o * np.tanh(want_c), rtol=0, atol=1e-12)

    def test_lstm_cell_gradients_match_the_unfused_chain(self, f64):
        rng = np.random.default_rng(8)
        gates, c0 = rng.normal(size=(4, 12)) * 2, rng.normal(size=(4, 3))
        w1, w2 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        # loss = sum(h' * w1) + sum(tanh(c') * w2), so h' and c' both have partials.
        h2, c2, saved = ad._cell(gates, c0)
        dgates, dc = ad._cell_backward(w1, w2 * (1.0 - np.tanh(c2) ** 2), saved)
        h_ref, c2_ref = _unfused_cell(gates, c0)
        assert np.allclose(h2, h_ref, rtol=0, atol=1e-12)
        assert np.allclose(c2, c2_ref, rtol=0, atol=1e-12)

        def loss():
            h, c = _unfused_cell(gates, c0)
            return np.vdot(h, w1) + np.vdot(np.tanh(c), w2)

        assert np.allclose(dgates, _central_diff(loss, gates), rtol=0, atol=1e-8)
        assert np.allclose(dc, _central_diff(loss, c0), rtol=0, atol=1e-8)

    def test_lstm_matches_a_chain_of_steps(self, f64):
        # The op against its steps in numpy, one gate at a time: the values,
        # and the op's VJP against central differences of the steps.
        rng = np.random.default_rng(13)
        arrays = rng.normal(size=(4, EMBED)), rng.normal(size=(EMBED + HD, 4 * HD)), rng.normal(size=4 * HD)
        embed, w, b = arrays

        def steps():
            h = c = np.zeros((len(RAGGED_STEPS[0]), HD))
            states = []
            for ids in RAGGED_STEPS:
                z = np.concatenate([embed[ids], h[: len(ids)]], axis=1)
                h, c = _unfused_cell(z @ w + b, c[: len(ids)])
                states.append(h)
            return np.concatenate(states)

        params = [param(a.copy()) for a in arrays]
        out = ad.lstm(params[0], RAGGED_STEPS, params[1:])
        assert np.allclose(out.data, steps(), rtol=0, atol=1e-12)
        cot = rng.normal(size=out.data.shape)
        out.backward(cot)
        for t, a in zip(params, arrays):
            assert np.allclose(t.grad, _central_diff(lambda: np.vdot(cot, steps()), a), rtol=0, atol=1e-8)

    def test_attention_matches_numpy(self, f64):
        rng = np.random.default_rng(9)
        q, proj, v = rng.normal(size=(2, 3)), rng.normal(size=(2, 4, 3)), rng.normal(size=3)
        nodes = rng.normal(size=(2, 4, 5))
        mask = np.array([[True, True, True, False], [True, False, True, True]])
        # An identity attn_s, so the decoder states are the queries q.
        weights = (None, None, np.eye(3), np.zeros(3), v)
        context, attn, energy = ad.additive_attention(q, weights, nodes, proj, mask)
        assert np.allclose(energy, np.tanh(proj + q[:, None, :]), rtol=0, atol=1e-12)
        e = np.where(mask, np.exp(np.tanh(proj + q[:, None, :]) @ v), 0.0)
        want_w = e / e.sum(axis=1, keepdims=True)
        assert np.allclose(attn, want_w, rtol=0, atol=1e-12)
        assert np.allclose(context, np.einsum("bn,bnd->bd", want_w, nodes), rtol=0, atol=1e-12)

    def test_masked_positions_get_zero_weight_and_zero_gradient(self, f64):
        rng = np.random.default_rng(10)
        # Node row 3 fills padding slots only.
        slots = np.array([[0, 1, 3], [2, 3, 3], [0, 1, 2]])
        args = decoder_args(lambda shape, k: param(rng.normal(size=shape) * 2), [[1, 2, 3], [0]], slots, MASK)
        embed, _, h, c, weights, node_rows, _, _ = args
        memory = (*ad.attention_memory(node_rows.data, slots, [t.data for t in weights]), MASK)
        _, attn, _ = ad.additive_attention(h.data, [t.data for t in weights], *memory)
        assert (attn[~MASK] == 0.0).all()
        assert np.allclose(attn.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        sum_backward(ad.tanh(ad.attention_lstm(*args)))
        assert np.abs(node_rows.grad[:3]).min() > 0.0
        assert (node_rows.grad[3] == 0.0).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_attend_large_scores_do_not_overflow(self, dtype):
        scores = np.array([[1e3, -1e3, 0.0], [-1e3, -1e3, -1e3], [1e3, 1e3, 5.0]], dtype=dtype)
        rng = np.random.default_rng(12)
        with ad.default_dtype(dtype), np.errstate(over="raise", invalid="raise", divide="raise"):
            weights = ad.masked_softmax(scores, MASK)
            args = decoder_args(lambda shape, k: param(rng.normal(size=shape)))
            args[4][4].data *= 1e3  # attn_v: scores in the thousands
            sum_backward(ad.attention_lstm(*args))
        assert weights.dtype == dtype
        assert all(np.isfinite(t.grad).all() for t in [args[0], *args[2:4], *args[4], args[5]])
        assert np.allclose(weights, [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
        assert np.allclose(weights.sum(axis=1), 1.0)

    def test_shape_mismatches_rejected(self):
        gates = Tensor(np.zeros((EMBED + HD, 4 * HD))), Tensor(np.zeros(4 * HD))
        for embed, steps in ((np.zeros((4, EMBED + 1)), [[0]]), (np.zeros((4, EMBED)), [[0], [0, 1]])):
            with pytest.raises(AutodiffError, match="^lstm shape mismatch"):
                ad.lstm(Tensor(embed), steps, gates)
        with pytest.raises(AutodiffError, match="attention_lstm"):
            ad.attention_lstm(*decoder_args(lambda shape, k: Tensor(np.zeros(shape)), [[0], [0, 1]]))


class TestBackward:
    def test_sum_of_linear_map(self, f64):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        w = param([[1.0, 1.0], [1.0, 1.0]])
        sum_backward(ad.affine(x, w, Tensor([0.0, 0.0])))
        assert np.allclose(w.grad, np.outer(x.data.sum(axis=0), [1.0, 1.0]))

    def test_unused_parameter_has_no_gradient(self, f64):
        used = param([2.0])
        unused = param([5.0])
        square(used).backward()
        assert np.allclose(used.grad, [4.0])
        assert unused.grad is None  # semantically all zeros

    def test_constant_loss_leaves_grads_zero(self, f64):
        p = param([1.0])
        Tensor([3.0]).backward()
        assert p.grad is None

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(AutodiffError):
            Tensor([1.0, 2.0]).backward()

    def test_non_scalar_output_needs_a_cotangent(self, f64):
        p = param([0.5, -1.0])
        out = ad.tanh(p)
        with pytest.raises(AutodiffError, match="scalar"):
            out.backward()
        assert p.grad is None
        out.backward([2.0, 3.0])
        assert np.array_equal(p.grad, [2.0, 3.0] * (1.0 - np.tanh(p.data) ** 2))

    def test_cotangent_accumulates_its_vjp_into_the_leaves(self, f64):
        rng = np.random.default_rng(14)
        x, w, b = param(rng.normal(size=(2, 3))), param(rng.normal(size=(3, 4))), param(rng.normal(size=4))
        cot = rng.normal(size=(2, 4))
        for calls in (1, 2):
            ad.affine(x, w, b).backward(cot)
            # J^T · cot of x @ w + b, once per call.
            assert np.allclose(x.grad, calls * cot @ w.data.T, rtol=1e-12, atol=0)
            assert np.allclose(w.grad, calls * x.data.T @ cot, rtol=1e-12, atol=0)
            assert np.allclose(b.grad, calls * cot.sum(axis=0), rtol=1e-12, atol=0)

    def test_cotangent_is_cast_to_the_output_dtype(self):
        p = param([0.5, -1.0])
        ad.relu(p).backward(np.array([0.1, 0.2], dtype=np.float64))
        assert p.grad.dtype == np.float32
        assert np.array_equal(p.grad, np.array([0.1, 0.0], dtype=np.float32))

    @pytest.mark.parametrize(
        "cot", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], 1.0], ids=["short", "long", "extra_axis", "scalar"]
    )
    def test_wrong_shaped_cotangent_raises_before_any_gradient_changes(self, cot, f64):
        p = param([0.5, -1.0])
        ad.tanh(p).backward([1.0, 1.0])
        first = p.grad.copy()
        out = ad.tanh(p)
        with pytest.raises(AutodiffError, match="cotangent shape"):
            out.backward(cot)
        assert np.array_equal(p.grad, first)
        out.backward([1.0, 1.0])  # the graph is intact
        assert np.array_equal(p.grad, 2 * first)

    def test_repeated_backward_accumulates(self, f64):
        p = param([3.0])
        square(p).backward()
        first = p.grad.copy()
        square(p).backward()
        assert np.allclose(p.grad, 2 * first)

    def test_backward_frees_intermediate_activations(self, f64):
        p = param([[0.5, -1.0]])
        h = ad.tanh(ad.affine(p, param(np.ones((2, 3))), param(np.zeros(3))))
        # The output's backward holds h.data, as its input, until the sweep passes.
        loss = ad.affine(h, param(np.ones((3, 1))), param(np.zeros(1)))
        activation = weakref.ref(h.data)
        del h
        loss.backward()
        assert activation() is None
        assert p.grad is not None

    def test_leaf_gradients_survive_and_intermediate_ones_drop(self, f64):
        p = param([3.0])
        h = square(p)
        h.backward()
        assert h.grad is None
        assert np.array_equal(p.grad, [6.0])
        square(p).backward()
        assert np.array_equal(p.grad, [12.0])

    def test_second_backward_on_the_same_root_raises(self, f64):
        p = param([3.0])
        loss = square(p)
        loss.backward()
        with pytest.raises(AutodiffError, match="consumed"):
            loss.backward()
        assert np.array_equal(p.grad, [6.0])

    def test_backward_through_a_consumed_intermediate_raises(self, f64):
        p = param([3.0])
        h = ad.tanh(p)
        h.backward()
        first = p.grad.copy()
        with pytest.raises(AutodiffError, match="consumed"):
            ad.concat([h, ad.tanh(p)]).backward([1.0, 2.0])
        assert np.array_equal(p.grad, first)

    def test_diamond_graph(self, f64):
        p = param([1.5])
        sum_backward(ad.concat([p, p]))
        assert np.array_equal(p.grad, [2.0])

    def test_deep_chain_beyond_recursion_limit(self, f64):
        p = param([1.0])
        t = p
        for _ in range(5000):
            t = ad.gather(t, [0])
        t.backward([1.0])
        assert np.array_equal(p.grad, [1.0])


def _central_diff(loss_fn, arr, h=1e-6):
    g = np.zeros_like(arr)
    for i in range(arr.size):
        orig = arr.flat[i]
        arr.flat[i] = orig + h
        plus = loss_fn()
        arr.flat[i] = orig - h
        minus = loss_fn()
        arr.flat[i] = orig
        g.flat[i] = (plus - minus) / (2 * h)
    return g


MASK = np.array([[True, True, False], [True, False, False], [True, True, True]])


def sigmoid_gates():
    """The joined gate weight and bias of an LSTM with 3 inputs and 3 units
    whose gates are its input thrice and a saturated candidate (tanh(40) is
    1.0 in float64)."""
    w = np.zeros((6, 12))
    w[:3, :9] = np.hstack([np.eye(3)] * 3)
    return Tensor(w), Tensor(np.concatenate([np.zeros(9), np.full(3, 40.0)]))


# A ragged batch: three sequences of 5, 3 and 1 steps (one token repeats
# within a step), for the decoder over node slots padded where RAGGED_MASK
# is False.
HD, EMBED, NODE = 2, 2, 3
RAGGED_STEPS = [[1, 2, 3], [0, 3], [2, 2], [1], [3]]
RAGGED_SLOTS = np.array([[0, 1, 2], [3, 0, 0], [2, 1, 0]])
RAGGED_MASK = np.array([[True, True, True], [True, False, False], [True, True, False]])


def decoder_args(make, steps=RAGGED_STEPS, slots=RAGGED_SLOTS, mask=RAGGED_MASK):
    """Arguments of ``attention_lstm`` for a 4-token vocabulary, 4 node rows
    and 3 sequences, each tensor made by ``make(shape, key)``."""
    shapes = [(EMBED + NODE + HD, 4 * HD), (4 * HD,), (HD, HD), (HD,), (HD,), (NODE, HD), (HD,)]
    weights = [make(shape, k) for k, shape in enumerate(shapes)]
    return make((4, EMBED), 7), steps, make((3, HD), 8), make((3, HD), 9), weights, make((4, NODE), 10), slots, mask


def mixed(p, shape, key):
    """A tensor of the given shape that is a fixed random linear map of p:
    an affine map of p's joined rows, shaped by a gather."""
    r = np.random.default_rng(key).normal(size=(p.data.size, math.prod(shape))) / 3
    flat = ad.concat([ad.gather(p, i) for i in range(len(p.data))])
    return ad.gather(ad.affine(flat, Tensor(r), Tensor(np.zeros(r.shape[1]))), np.arange(r.shape[1]).reshape(shape))


def ragged_decoder(p):
    # Every input of the decoder op is a different map of p.
    return ad.attention_lstm(*decoder_args(lambda shape, k: mixed(p, shape, k)))


def ragged_lstm(p):
    # Ragged steps (lengths 5, 3 and 1) with a token repeated within a
    # step; every input of the op is a different map of p.
    embed, w, b = (mixed(p, shape, k) for k, shape in enumerate([(4, EMBED), (EMBED + HD, 4 * HD), (4 * HD,)]))
    return ad.lstm(embed, RAGGED_STEPS, (w, b))


def row(v):
    """A vector as a (1, n) matrix: a gather from it with a 2-D index."""
    return ad.gather(v, np.arange(len(v.data))[None, :])


# Each row maps the (3, 3) matrix p to an op's output, whose VJP the tests
# check.
OP_CASES = {
    "affine_2d2d": lambda p: ad.affine(p, p, ad.gather(p, 1)),
    "affine_1d2d": lambda p: ad.affine(ad.gather(p, 0), p, ad.gather(p, 2)),
    # A (b, n, p) input: the bias gradient sums over both leading axes.
    "affine_3d_nonleaf_weight": lambda p: ad.tanh(
        ad.affine(ad.gather(ad.tanh(p), [[0], [1], [2]]), ad.gather(p, [1, 2, 0]), ad.gather(p, 0))
    ),
    "relu": ad.relu,
    "tanh": ad.tanh,
    # The LSTM's input and output gates alone: one step from zero states
    # whose gates are p, p, p and a saturated candidate, so c' is exactly
    # sigmoid(p) and h' is sigmoid(p) * tanh(sigmoid(p)).
    "sigmoid": lambda p: ad.lstm(p, [[0, 1, 2]], sigmoid_gates()),
    "lstm_ragged": ragged_lstm,
    # Only each row's last state is read, as the encoder does, one of them twice.
    "lstm_last_rows": lambda p: ad.gather(ragged_lstm(p), [8, 6, 2, 6]),
    "attention_lstm_ragged": ragged_decoder,
    # Only the contexts are read, through a column-selecting map: h gets
    # its gradient through attention.
    "attention_lstm_context": lambda p: ad.affine(
        ragged_decoder(p), Tensor(np.eye(HD + NODE)[:, HD:]), Tensor(np.zeros(NODE))
    ),
    "concat": lambda p: ad.concat([ad.gather(p, 0), ad.gather(p, 2)]),
    "stack_max": lambda p: ad.segment_max(
        ad.concat([ad.gather(p, [i]) for i in range(3)], axis=0),
        np.array([[0, 1, 2]]),
        np.ones((1, 3), dtype=bool),
    ),
    # p receives deferred outer products from vector and matrix products.
    "affine_shared_weight": lambda p: ad.concat([
        row(ad.tanh(ad.affine(ad.gather(p, 0), p, ad.gather(p, 1)))),
        row(ad.affine(ad.gather(p, 2), p, ad.gather(p, 0))),
        ad.affine(ad.tanh(p), p, ad.gather(p, 2)),
    ], axis=0),
    # Non-leaf matrices receive deferred pairs, then backpropagate them.
    "nonleaf_pairs": lambda p: ad.concat([
        ad.tanh(ad.affine(ad.tanh(ad.gather(p, [2, 1, 0])), ad.tanh(p), ad.gather(p, 0))),
        ad.gather(ad.tanh(ad.affine(
            ad.gather(p, [2, 0]), ad.gather(ad.gather(p, 0), [[0], [1], [2]]), ad.gather(ad.gather(p, 1), [2])
        )), [0, 1, 1]),
    ]),
    "row_repeated_index": lambda p: ad.concat([ad.gather(p, 1), ad.tanh(ad.gather(p, 1)), ad.gather(p, 1)]),
    # Row 0 repeats row 1 (a tie the gradient must count once), row 1 is
    # padding only and row 2 mixes real and padded entries.
    "segment_max_empty_and_tie": lambda p: ad.segment_max(
        ad.tanh(p),
        np.array([[1, 1, 2], [0, 0, 0], [2, 0, 0]]),
        np.array([[True, True, True], [False, False, False], [True, True, False]]),
    ),
    "gather_2d_repeated": lambda p: ad.tanh(ad.gather(p, np.array([[0, 2], [2, 2]]))),
    "concat_rows": lambda p: ad.tanh(ad.concat([p, ad.gather(p, [1])], axis=0)),
    "cross_entropy": lambda p: ad.cross_entropy(ad.tanh(p), [2, 0, 2]),
    # A fresh generator on each call, so every call drops the same entries.
    "dropout": lambda p: ad.dropout(p, 0.4, np.random.default_rng(1)),
}


def op_case(name):
    """(p, output, cotangent) of a row, p and the cotangent drawn from a
    generator seeded by the row's name; p stays away from ReLU kinks and
    max-pool ties."""
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    p = param(rng.normal(size=(3, 3)) + 0.1)
    out = OP_CASES[name](p)
    return p, out, rng.normal(size=out.data.shape)


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_gradients_match_finite_differences(name, f64):
    # The VJP against central differences of vdot(cot, f(p)).
    p, out, cot = op_case(name)
    out.backward(cot)
    fd = _central_diff(lambda: float(np.vdot(cot, OP_CASES[name](p).data)), p.data)
    assert np.allclose(p.grad, fd, atol=1e-6), f"{name}: {p.grad} vs {fd}"


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_gradients_accumulate_over_backward_calls(name, f64):
    p, out, cot = op_case(name)
    out.backward(cot)
    first = p.grad.copy()
    OP_CASES[name](p).backward(cot)
    assert np.allclose(p.grad, 2 * first, rtol=1e-12, atol=0)


class TestDeferredGradients:
    def test_shared_weight_matches_dense_outer_sum(self, f64):
        rng = np.random.default_rng(5)
        w = param(rng.normal(size=(4, 3)))
        xs = [rng.normal(size=4) for _ in range(3)]
        cs = [rng.normal(size=3) for _ in range(3)]
        m, cm = rng.normal(size=(2, 4)), rng.normal(size=(2, 3))
        b = param(rng.normal(size=3))
        # One matrix product and three vector products share w and b.
        out = ad.concat([ad.affine(Tensor(m), w, b), *(row(ad.affine(Tensor(x), w, b)) for x in xs)], axis=0)
        out.backward(np.vstack([cm, *cs]))
        dense = m.T @ cm + sum(np.outer(x, c) for x, c in zip(xs, cs))
        assert np.allclose(w.grad, dense, rtol=1e-12, atol=1e-12)
        assert np.allclose(b.grad, cm.sum(axis=0) + sum(cs), rtol=1e-12, atol=1e-12)

    def test_repeated_row_lookups_sum(self, f64):
        embed = param(np.zeros((5, 2)))
        out = ad.concat([ad.gather(embed, 3), ad.gather(embed, 3), ad.gather(embed, 1)])
        out.backward([1.0, 1.0, 2.0, 2.0, 1.0, 1.0])
        expected = np.zeros((5, 2))
        expected[3] = 3.0
        expected[1] = 1.0
        assert np.array_equal(embed.grad, expected)

    def test_untouched_parameters_keep_no_gradient(self, f64):
        embed, w, unused = param(np.ones((4, 2))), param(np.ones((2, 3))), param(np.ones((2, 3)))
        sum_backward(ad.affine(ad.gather(embed, 2), w, Tensor(np.zeros(3))))
        assert embed.grad is not None and w.grad is not None
        assert unused.grad is None


def test_dropout_gradient_matches_mask(f64):
    p = param(np.ones(1000))
    out = ad.dropout(p, 0.5, np.random.default_rng(0))
    kept = out.data > 0
    assert abs(kept.mean() - 0.5) < 0.1
    assert np.allclose(out.data[kept], 2.0)  # inverted scaling
    sum_backward(out)
    assert np.allclose(p.grad[kept], 2.0)
    assert np.allclose(p.grad[~kept], 0.0)


def test_no_grad_blocks_graph_building():
    p = param([1.0, 2.0])
    with ad.no_grad():
        out = ad.tanh(p)
    assert not out.requires_grad
    assert out._parents == ()


def test_modes_are_local_to_a_thread():
    entered, release = threading.Event(), threading.Event()

    def hold_modes():
        with ad.no_grad(), ad.default_dtype(np.float64):
            entered.set()
            release.wait(timeout=10)

    worker = threading.Thread(target=hold_modes)
    worker.start()
    try:
        assert entered.wait(timeout=10)
        assert ad.tanh(param([1.0])).requires_grad
        assert Tensor([1.0]).data.dtype == np.float32
    finally:
        release.set()
        worker.join(timeout=10)
    assert not worker.is_alive()


def test_forward_values_stay_finite():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4, 4)) * 10)
    for op in (ad.relu, ad.tanh):
        assert np.isfinite(op(x).data).all()
    gates = Tensor(rng.normal(size=(8, 16)) * 10), Tensor(rng.normal(size=16) * 10)
    assert np.isfinite(ad.lstm(x, [[0, 1, 2, 3], [3, 2, 1, 0]], gates).data).all()
    assert np.isfinite(attend_weights([-1e4, 0.0, 1e4])).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_saturates_without_floating_point_errors(dtype):
    # The LSTM cell's gates: with c = 0 and the candidate saturated at +1e4,
    # c' is the input gate's sigmoid; backward through both outputs too.
    x = np.array([[-1e4, -50.0, 0.0, 50.0, 1e4]], dtype=dtype)
    with np.errstate(all="raise"):
        gates = np.concatenate([x, x, x, np.full_like(x, 1e4)], axis=1)
        h, c, saved = ad._cell(gates, np.zeros_like(x))
        dgates, _ = ad._cell_backward(np.ones_like(h), np.ones_like(c), saved)
    assert c.dtype == h.dtype == dgates.dtype == dtype
    assert ((c >= 0.0) & (c <= 1.0)).all()
    assert c[0, 0] == 0.0 and c[0, 2] == 0.5 and c[0, -1] == 1.0
    assert np.isfinite(dgates).all()
    assert (dgates[0, [0, 4, 5, 9, 10, 14]] == 0.0).all()  # saturated gates pass no gradient


def test_grad_shape_matches_value_shape(f64):
    p = param(np.ones((2, 3)))
    sum_backward(ad.tanh(p))
    assert p.grad.shape == p.data.shape


def test_dtype_switch_controls_new_tensors():
    assert Tensor([1.0]).data.dtype == np.float32
    with ad.default_dtype(np.float64):
        assert Tensor([1.0]).data.dtype == np.float64
    assert Tensor([1.0]).data.dtype == np.float32
