import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sql2text import autodiff as ad
from sql2text.autodiff import AutodiffError, Tensor
from sql2text.optim import (
    AdamState,
    ParameterStore,
    adam_step,
    clip_engages,
    clip_gradients,
    finite_difference_check,
    randomize_parameters,
)


@pytest.fixture
def f64():
    with ad.default_dtype(np.float64):
        yield


def store_with(values: dict) -> ParameterStore:
    store = ParameterStore()
    for name, arr in values.items():
        store.add(name, Tensor(np.asarray(arr), requires_grad=True))
    return store


class TestParameterStore:
    def test_duplicate_name_rejected(self):
        store = store_with({"w": [1.0]})
        with pytest.raises(ValueError):
            store.add("w", Tensor([2.0], requires_grad=True))

    def test_iteration_order_is_insertion_order(self):
        store = store_with({"b": [1.0], "a": [2.0], "c": [3.0]})
        assert store.names() == ["b", "a", "c"]

    def test_load_arrays_shape_mismatch(self):
        store = store_with({"w": np.zeros((2, 2))})
        with pytest.raises(ValueError) as err:
            store.load_arrays({"w": np.zeros((3, 2))})
        assert "(3, 2)" in str(err.value) and "(2, 2)" in str(err.value)

    def test_load_arrays_name_mismatch(self):
        store = store_with({"w": np.zeros(2)})
        with pytest.raises(ValueError):
            store.load_arrays({"v": np.zeros(2)})


class TestClipGradients:
    def test_below_threshold_unchanged(self, f64):
        store = store_with({"w": np.zeros(2)})
        store["w"].grad = np.array([6.0, 8.0])  # norm 10
        norm = clip_gradients(store, 20.0)
        assert norm == pytest.approx(10.0)
        assert np.allclose(store["w"].grad, [6.0, 8.0])

    def test_scales_to_max_norm(self, f64):
        store = store_with({"w": np.zeros(2)})
        store["w"].grad = np.array([30.0, 40.0])  # norm 50
        norm = clip_gradients(store, 20.0)
        assert norm == pytest.approx(50.0)
        assert np.allclose(store["w"].grad, [12.0, 16.0])

    def test_zero_gradients(self, f64):
        store = store_with({"w": np.zeros(3)})
        store["w"].grad = np.zeros(3)
        assert clip_gradients(store, 20.0) == 0.0
        assert np.allclose(store["w"].grad, 0.0)

    def test_spans_multiple_parameters(self, f64):
        store = store_with({"a": np.zeros(1), "b": np.zeros(1)})
        store["a"].grad = np.array([3.0])
        store["b"].grad = np.array([4.0])
        norm = clip_gradients(store, 1.0)
        assert norm == pytest.approx(5.0)
        assert np.allclose(store["a"].grad, [0.6])
        assert np.allclose(store["b"].grad, [0.8])

    @settings(deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12), st.floats(0.1, 100))
    def test_idempotent(self, grads, max_norm):
        with ad.default_dtype(np.float64):
            store = store_with({"w": np.zeros(len(grads))})
            store["w"].grad = np.asarray(grads)
            clip_gradients(store, max_norm)
            once = store["w"].grad.copy()
            clip_gradients(store, max_norm)
            assert np.array_equal(store["w"].grad, once)

    def test_engage_predicate_matches_behavior(self, f64):
        assert not clip_engages(10.0, 20.0)
        assert clip_engages(20.1, 20.0)


class TestAdam:
    def test_first_step_moves_by_lr(self, f64):
        store = store_with({"p": [1.0]})
        store["p"].grad = np.array([1.0])
        state = AdamState(lr=0.001)
        adam_step(store, state)
        # First-step Adam reduces to -lr * sign(g) up to epsilon.
        assert store["p"].data[0] == pytest.approx(1.0 - 0.001, abs=1e-8)

    def test_zero_grad_from_fresh_state_leaves_parameter(self, f64):
        store = store_with({"p": [2.0]})
        store["p"].grad = np.zeros(1)
        adam_step(store, AdamState())
        assert store["p"].data[0] == 2.0

    def test_two_identical_steps_match_hand_recursion(self, f64):
        store = store_with({"p": [0.0]})
        state = AdamState(lr=0.001)
        for _ in range(2):
            store["p"].grad = np.array([1.0])
            adam_step(store, state)
        assert state.step == 2
        # m2 = 0.9 * 0.1 + 0.1, v2 = 0.999 * 0.001 + 0.001
        assert state.m["p"][0] == pytest.approx(0.19, abs=1e-12)
        assert state.v["p"][0] == pytest.approx(0.001999, abs=1e-12)

    def test_grads_zeroed_after_step(self, f64):
        store = store_with({"p": [1.0]})
        store["p"].grad = np.array([1.0])
        adam_step(store, AdamState())
        assert store["p"].grad is None

    def test_missing_grad_treated_as_zero(self, f64):
        store = store_with({"p": [1.0], "q": [2.0]})
        store["p"].grad = np.array([1.0])
        adam_step(store, AdamState())
        assert store["q"].data[0] == 2.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_update_is_bitwise_the_textbook_formula(self, dtype):
        def textbook(params, grads, m, v, t, lr=0.01, b1=0.9, b2=0.999, eps=1e-8):
            # Adam with a new array per term: the in-place update must match it bit for bit.
            for name, p in params.items():
                g = grads.get(name, np.zeros_like(p))
                m[name] = b1 * m.get(name, np.zeros_like(p)) + (1.0 - b1) * g
                v[name] = b2 * v.get(name, np.zeros_like(p)) + (1.0 - b2) * g * g
                m_hat = m[name] / (1.0 - b1**t)
                v_hat = v[name] / (1.0 - b2**t)
                params[name] = p - lr * m_hat / (np.sqrt(v_hat) + eps)

        rng = np.random.default_rng(4)
        shapes = {"w": (3, 4), "b": (4,), "idle": (2, 2)}
        params = {name: rng.normal(size=shape).astype(dtype) for name, shape in shapes.items()}
        with ad.default_dtype(dtype):
            store = store_with({name: p.copy() for name, p in params.items()})
        state = AdamState(lr=0.01)
        m, v = {}, {}
        for t in range(1, 6):
            # "idle" never has a gradient; "b" has none at steps 2 and 4.
            grads = {"w": rng.normal(size=(3, 4)).astype(dtype)}
            if t % 2:
                grads["b"] = rng.normal(size=4).astype(dtype)
            for name, g in grads.items():
                store[name].grad = g.copy()
            adam_step(store, state)
            textbook(params, grads, m, v, t)
            for name, p in params.items():
                assert store[name].data.dtype == dtype
                assert store[name].data.tobytes() == p.tobytes(), (t, name)
            for name in ("w", "b"):
                assert state.m[name].tobytes() == m[name].tobytes(), (t, name)
                assert state.v[name].tobytes() == v[name].tobytes(), (t, name)
            # No moments are allocated for a parameter that never had a gradient.
            assert "idle" not in state.m and "idle" not in state.v


class TestFiniteDifferenceCheck:
    def test_quadratic_is_nearly_exact(self, f64):
        def square(s):
            # p times the (1, 1) matrix gathered from p is p², which reaches p twice.
            p = s["p"]
            return ad.gather(ad.affine(p, ad.gather(p, [[0]]), Tensor([0.0])), 0)

        store = store_with({"p": [3.0]})
        err = finite_difference_check(square, store, h=1e-4)
        assert err < 1e-8
        assert store["p"].data[0] == 3.0  # restored

    def test_loss_ignoring_parameter_gives_zero_error(self, f64):
        store = store_with({"p": [1.0]})
        err = finite_difference_check(lambda s: Tensor(2.0), store)
        assert err == 0.0

    @pytest.mark.parametrize("index", [0, [0], [[0]]])
    def test_one_entry_loss_of_any_shape(self, f64, index):
        # A 0-d, (1,) or (1, 1) loss: backward() seeds any one-entry loss
        # with one, and the probe reads it the same way.
        store = store_with({"p": [1.5]})

        def loss(s):
            return ad.gather(ad.affine(s["p"], Tensor([[2.0]]), Tensor([0.5])), index)

        assert finite_difference_check(loss, store) < 1e-8

    def test_loss_with_more_than_one_entry_rejected(self, f64):
        store = store_with({"p": [1.0, 2.0]})
        with pytest.raises(AutodiffError, match="one-entry"):
            finite_difference_check(lambda s: s["p"], store)

    def test_nondeterministic_loss_detected(self, f64):
        store = store_with({"p": [1.0]})
        counter = {"n": 0}

        def loss(s):
            counter["n"] += 1
            return Tensor(float(counter["n"]))

        with pytest.raises(AutodiffError):
            finite_difference_check(loss, store)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_fewer_than_one_sample_rejected(self, f64, samples):
        store = store_with({"p": [1.0]})
        calls = []

        def loss(s):
            calls.append(1)
            return s["p"]

        with pytest.raises(ValueError, match="samples"):
            finite_difference_check(loss, store, samples=samples)
        assert not calls

    def test_small_network_float32(self):
        store = ParameterStore()
        rng = np.random.default_rng(0)
        store.create("w1", (4, 5), rng)
        store.create("w2", (5, 3), rng)
        randomize_parameters(store, np.random.default_rng(1))
        x = np.linspace(-1.0, 1.0, 8).reshape(2, 4)

        def loss(s):
            hidden = ad.tanh(ad.affine(Tensor(x), s["w1"], Tensor(np.zeros(5))))
            return ad.cross_entropy(ad.tanh(ad.affine(hidden, s["w2"], Tensor(np.zeros(3)))), [0, 2])

        err = finite_difference_check(loss, store, samples=35, rng=np.random.default_rng(2))
        assert err < 1e-3

    def test_small_network_float64(self, f64):
        store = ParameterStore()
        rng = np.random.default_rng(0)
        store.create("w1", (4, 5), rng)
        store.create("w2", (5, 3), rng)
        randomize_parameters(store, np.random.default_rng(1))
        x = np.linspace(-1.0, 1.0, 8).reshape(2, 4)

        def loss(s):
            hidden = ad.tanh(ad.affine(Tensor(x), s["w1"], Tensor(np.zeros(5))))
            return ad.cross_entropy(ad.tanh(ad.affine(hidden, s["w2"], Tensor(np.zeros(3)))), [0, 2])

        err = finite_difference_check(loss, store, samples=35, rng=np.random.default_rng(2))
        assert err < 1e-6


def test_fixed_seed_step_sequence_is_bitwise_reproducible():
    def run():
        rng = np.random.default_rng(11)
        store = ParameterStore()
        store.create("w", (3, 3), rng)
        state = AdamState(lr=0.01)
        x = Tensor(np.arange(9.0).reshape(3, 3) / 10.0)
        for _ in range(5):
            out = ad.tanh(ad.affine(x, store["w"], Tensor(np.zeros(3))))
            out.backward(np.ones_like(out.data))
            clip_gradients(store, 20.0)
            adam_step(store, state)
        return store["w"].data.copy()

    assert np.array_equal(run(), run())
