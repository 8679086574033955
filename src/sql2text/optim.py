"""Named parameter store, Adam updates, gradient clipping and the
finite-difference gradient oracle."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .autodiff import AutodiffError, Tensor, default_dtype, get_default_dtype, no_grad

# Relative slack above max_norm before clipping engages.  Keeps
# clip_gradients exactly idempotent despite rounding in the rescale.
CLIP_SLACK = 1e-6

INIT_RANGE = 0.08


class ParameterStore:
    """Ordered map from name to trainable Tensor.

    Iteration order is insertion order, which makes checkpoints and the
    optimizer state deterministic.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def create(self, name: str, shape: tuple, rng: np.random.Generator) -> Tensor:
        """Add a weight initialized uniformly in [-INIT_RANGE, INIT_RANGE]."""
        data = rng.uniform(-INIT_RANGE, INIT_RANGE, size=shape).astype(get_default_dtype())
        return self.add(name, Tensor(data, requires_grad=True))

    def create_zeros(self, name: str, shape: tuple) -> Tensor:
        return self.add(name, Tensor(np.zeros(shape), requires_grad=True))

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name!r}")
        tensor.requires_grad = True
        self._params[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._params.items())

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Replace parameter values; names and shapes must match exactly."""
        missing = set(self._params) - set(arrays)
        extra = set(arrays) - set(self._params)
        if missing or extra:
            raise ValueError(
                f"parameter set mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}"
            )
        for name, t in self._params.items():
            arr = np.asarray(arrays[name])
            if arr.shape != t.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: stored {arr.shape}, expected {t.data.shape}"
                )
            t.data = arr.astype(t.data.dtype)


@dataclass
class AdamState:
    """First/second moment estimates and step counter for Adam."""

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def clip_engages(norm: float, max_norm: float) -> bool:
    return norm > max_norm * (1.0 + CLIP_SLACK)


def clip_gradients(store: ParameterStore, max_norm: float) -> float:
    """Rescale all gradients to global L2 norm max_norm when exceeded.

    Returns the pre-clip global norm.
    """
    total = 0.0
    for _, t in store.items():
        if t.grad is not None:
            total += float(np.sum(t.grad.astype(np.float64) ** 2))
    norm = float(np.sqrt(total))
    if clip_engages(norm, max_norm):
        factor = max_norm / norm
        for _, t in store.items():
            if t.grad is not None:
                t.grad *= factor
    return norm


def adam_step(store: ParameterStore, state: AdamState) -> None:
    """Apply one bias-corrected Adam update to every parameter, then zero grads."""
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    for name, p in store.items():
        if name not in state.m:
            if p.grad is None:
                continue  # zero moments and no gradient: a zero update
            state.m[name], state.v[name] = np.zeros_like(p.data), np.zeros_like(p.data)
        g = p.grad if p.grad is not None else 0.0
        # In place, rounding as m = b1 * m + (1 - b1) * g, v likewise with
        # g * g, and p - lr * (m / bias1) / (sqrt(v / bias2) + eps).
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        denom = v / bias2
        np.sqrt(denom, out=denom)
        denom += state.eps
        step = m / bias1
        step *= state.lr
        step /= denom
        p.data = p.data - step  # a new array: Tensor(ndarray) may alias the caller's
    store.zero_grad()


def randomize_parameters(
    store: ParameterStore, rng: np.random.Generator, scale: float = 0.5
) -> None:
    """Overwrite every parameter (biases included) with uniform noise.

    Gradient-check probes need this: with zero biases a clamped-to-zero
    activation puts a ReLU kink exactly at the finite-difference base
    point.
    """
    for _, t in store.items():
        t.data = rng.uniform(-scale, scale, t.data.shape).astype(t.data.dtype)


def finite_difference_check(
    model_loss: Callable[[ParameterStore], Tensor],
    store: ParameterStore,
    h: float = 1e-4,
    samples: int = 64,
    rng: np.random.Generator | None = None,
    fd_dtype=np.float64,
) -> float:
    """Compare backward gradients against central finite differences.

    ``model_loss`` must be deterministic (dropout off, fixed inputs); two
    initial evaluations are compared to verify this.  The difference
    quotients are evaluated in ``fd_dtype`` (float64 by default) so the
    returned worst relative error measures the engine's gradients rather
    than cancellation noise in the probe itself.  The default step ``h``
    of 1e-4 balances the probe's truncation error (order h^2) against its
    cancellation error (order eps / h).

    Relative error per sampled coordinate is `|ad - fd| / max(|ad|, |fd|,
    floor)` with floor equal to 1% of the largest sampled gradient
    magnitude, so near-zero coordinates are held to an absolute tolerance
    at the problem's own scale.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if rng is None:
        rng = np.random.default_rng(0)

    with no_grad():
        first = float(model_loss(store).data)
        second = float(model_loss(store).data)
    if first != second:
        raise AutodiffError(
            f"model_loss is not deterministic: {first!r} != {second!r}"
        )

    store.zero_grad()
    loss = model_loss(store)
    loss.backward()
    ad_grads = {
        name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for name, t in store.items()
    }
    store.zero_grad()

    coords: list[tuple[str, int]] = []
    for name, t in store.items():
        coords.extend((name, i) for i in range(t.data.size))
    if len(coords) > samples:
        chosen = rng.choice(len(coords), size=samples, replace=False)
        coords = [coords[int(i)] for i in sorted(chosen)]

    originals = {name: t.data for name, t in store.items()}
    pairs: list[tuple[float, float]] = []
    try:
        for name, t in store.items():
            t.data = t.data.astype(fd_dtype)
        with default_dtype(fd_dtype), no_grad():
            for name, flat_index in coords:
                arr = store[name].data
                base = arr.flat[flat_index]
                arr.flat[flat_index] = base + h
                plus = float(model_loss(store).data)
                arr.flat[flat_index] = base - h
                minus = float(model_loss(store).data)
                arr.flat[flat_index] = base
                fd = (plus - minus) / (2.0 * h)
                ad = float(ad_grads[name].flat[flat_index])
                pairs.append((ad, fd))
    finally:
        for name, t in store.items():
            t.data = originals[name]

    g_max = max((max(abs(a), abs(b)) for a, b in pairs), default=0.0)
    if g_max == 0.0:
        return 0.0
    floor = 0.01 * g_max
    worst = 0.0
    for a, b in pairs:
        err = abs(a - b) / max(abs(a), abs(b), floor)
        worst = max(worst, err)
    return worst
