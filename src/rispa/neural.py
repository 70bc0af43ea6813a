"""Minimal fully connected network core in plain numpy.

Fixed topology: affine layers with ELU on the hidden layers and identity on
the output. Reverse-mode gradients are exact and also returned with respect
to the input vector, which is what lets an inverse network train through a
frozen forward surrogate. Everything is float64 and seeded; the training
loop is single-threaded so fixed seeds give bit-identical histories.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class TrainingDiverged(RuntimeError):
    """Raised when a loss or gradient stops being finite; carries partial history."""

    def __init__(self, message, train_losses=None, val_losses=None):
        super().__init__(message)
        self.train_losses = list(train_losses or [])
        self.val_losses = list(val_losses or [])


@dataclass
class Mlp:
    """Weights are (fan_out, fan_in), biases (fan_out,); hidden activation ELU."""

    layer_dims: List[int]
    weights: List[np.ndarray]
    biases: List[np.ndarray]

    def copy(self) -> "Mlp":
        return Mlp(
            layer_dims=list(self.layer_dims),
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


def init_mlp(layer_dims, seed: int) -> Mlp:
    """Glorot-uniform weights, zero biases, from the seeded generator."""
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError("layer_dims needs at least 2 positive entries")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Mlp(layer_dims=dims, weights=weights, biases=biases)


def elu(x):
    x = np.asarray(x, dtype=float)
    return np.where(x >= 0.0, x, np.expm1(x))


def elu_grad(x):
    x = np.asarray(x, dtype=float)
    return np.where(x >= 0.0, 1.0, np.exp(x))


def forward(mlp: Mlp, x) -> np.ndarray:
    """Forward pass; accepts a single input vector or a (batch, dim) array."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    h = np.atleast_2d(x)
    if h.shape[1] != mlp.layer_dims[0]:
        raise ValueError(f"input dim {h.shape[1]} != expected {mlp.layer_dims[0]}")
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        h = h @ w.T + b
        if i != last:
            h = elu(h)
    return h[0] if squeeze else h


def mse(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def mse_grad(a, b) -> np.ndarray:
    """Gradient of mse(a, b) with respect to a: 2 (a - b) / a.size."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return 2.0 * (a - b) / a.size


@dataclass
class Gradients:
    weights: List[np.ndarray]
    biases: List[np.ndarray]
    inputs: np.ndarray


def backward(mlp: Mlp, x, grad_output) -> Gradients:
    """Exact reverse-mode gradients of the affine/ELU graph.

    ``grad_output`` is dLoss/dOutput at the network output (same shape as the
    output). Returns gradients for every weight and bias plus dLoss/dInput.
    Batched inputs sum parameter gradients over the batch.
    """
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    h = np.atleast_2d(x)
    g = np.atleast_2d(np.asarray(grad_output, dtype=float))
    if h.shape[1] != mlp.layer_dims[0]:
        raise ValueError(f"input dim {h.shape[1]} != expected {mlp.layer_dims[0]}")
    if g.shape != (h.shape[0], mlp.layer_dims[-1]):
        raise ValueError("grad_output shape mismatch")

    last = len(mlp.weights) - 1
    pres, acts = [], [h]
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = acts[-1] @ w.T + b
        pres.append(z)
        acts.append(elu(z) if i != last else z)

    gw = [None] * len(mlp.weights)
    gb = [None] * len(mlp.biases)
    delta = g  # identity output activation
    for i in range(last, -1, -1):
        gw[i] = delta.T @ acts[i]
        gb[i] = delta.sum(axis=0)
        upstream = delta @ mlp.weights[i]
        if i > 0:
            delta = upstream * elu_grad(pres[i - 1])
        else:
            gin = upstream
    return Gradients(weights=gw, biases=gb, inputs=gin[0] if squeeze else gin)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def mlp_params(mlp: Mlp) -> List[np.ndarray]:
    """Flat parameter list [W0, b0, W1, b1, ...] (views, not copies)."""
    out = []
    for w, b in zip(mlp.weights, mlp.biases):
        out.extend([w, b])
    return out


def set_mlp_params(mlp: Mlp, params: List[np.ndarray]) -> None:
    for i in range(len(mlp.weights)):
        mlp.weights[i] = params[2 * i]
        mlp.biases[i] = params[2 * i + 1]


def grads_list(g: Gradients) -> List[np.ndarray]:
    out = []
    for w, b in zip(g.weights, g.biases):
        out.extend([w, b])
    return out


@dataclass
class AdamState:
    first_moment: List[np.ndarray]
    second_moment: List[np.ndarray]
    step_count: int
    learning_rate: float
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    epsilon: float = ADAM_EPSILON


def init_adam(params: List[np.ndarray], learning_rate: float) -> AdamState:
    if not learning_rate > 0.0:
        raise ValueError("learning_rate must be positive")
    return AdamState(
        first_moment=[np.zeros_like(p) for p in params],
        second_moment=[np.zeros_like(p) for p in params],
        step_count=0,
        learning_rate=learning_rate,
    )


def adam_step(params, grads, state: AdamState) -> Tuple[List[np.ndarray], AdamState]:
    """One bias-corrected Adam update; returns new params and state."""
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged("diverged: non-finite gradient")
    t = state.step_count + 1
    lr, b1, b2, eps = state.learning_rate, state.beta1, state.beta2, state.epsilon
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        new_params.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m)
        new_v.append(v)
    return new_params, AdamState(
        first_moment=new_m,
        second_moment=new_v,
        step_count=t,
        learning_rate=lr,
        beta1=b1,
        beta2=b2,
        epsilon=eps,
    )


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainReport:
    train_losses: List[float]
    val_losses: List[float]
    model: Mlp            # best-validation snapshot (final params if no val data)
    best_epoch: int
    elapsed_seconds: float
    seed: int

    @property
    def best_val_loss(self) -> float:
        """Validation loss of the best epoch; NaN when no epoch was scored."""
        if 0 <= self.best_epoch < len(self.val_losses):
            return self.val_losses[self.best_epoch]
        return float("nan")


def _supervised_loss(mlp: Mlp, x, y) -> float:
    return mse(forward(mlp, x), y)


def _supervised_loss_and_grads(mlp: Mlp, x, y):
    pred = forward(mlp, x)
    loss = mse(pred, y)
    g = backward(mlp, x, mse_grad(pred, y))
    return loss, grads_list(g)


def train(
    mlp: Mlp,
    train_pairs: Tuple[np.ndarray, np.ndarray],
    val_pairs: Tuple[np.ndarray, np.ndarray],
    epochs: int,
    batch_size: int,
    learning_rate: float,
    seed: int,
    loss_fn: Optional[Callable] = None,
    loss_and_grads_fn: Optional[Callable] = None,
) -> TrainReport:
    """Minibatch Adam training with per-epoch validation and best-val snapshot.

    ``train_pairs``/``val_pairs`` are (inputs, targets) arrays. The default
    objective is batch-mean MSE on the network output; callers may supply a
    custom (loss_fn, loss_and_grads_fn) pair operating on the same Mlp, which
    is how the tandem stage trains through frozen downstream stages.

    Shuffling is seeded; batches run in a fixed order, so the loss histories
    are reproducible bit for bit.
    """
    loss_fn = loss_fn or _supervised_loss
    loss_and_grads_fn = loss_and_grads_fn or _supervised_loss_and_grads
    x_train, y_train = train_pairs
    x_val, y_val = val_pairs
    x_train = np.asarray(x_train, dtype=float)
    y_train = np.asarray(y_train, dtype=float)
    n = x_train.shape[0]
    if n == 0:
        raise ValueError("training set is empty")
    have_val = x_val is not None and len(x_val) > 0
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")

    rng = np.random.default_rng(seed)
    model = mlp.copy()
    state = init_adam(mlp_params(model), learning_rate)
    train_losses: List[float] = []
    val_losses: List[float] = []
    best_val = np.inf
    best_params = [p.copy() for p in mlp_params(model)]
    best_epoch = -1
    t0 = time.perf_counter()

    for epoch in range(epochs):
        perm = rng.permutation(n)
        sq_sum = 0.0
        for start in range(0, n, batch_size):
            idx = perm[start:start + batch_size]
            loss, grads = loss_and_grads_fn(model, x_train[idx], y_train[idx])
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"diverged: non-finite loss at epoch {epoch}", train_losses, val_losses
                )
            try:
                params, state = adam_step(mlp_params(model), grads, state)
            except TrainingDiverged as e:
                raise TrainingDiverged(
                    f"{e} at epoch {epoch}", train_losses, val_losses
                ) from e
            set_mlp_params(model, params)
            sq_sum += loss * len(idx)
        train_losses.append(sq_sum / n)
        if have_val:
            v = loss_fn(model, x_val, y_val)
            val_losses.append(v)
            if v < best_val:
                best_val = v
                best_params = [p.copy() for p in mlp_params(model)]
                best_epoch = epoch
        else:
            val_losses.append(float("nan"))

    if have_val and best_epoch >= 0:
        set_mlp_params(model, best_params)
    return TrainReport(
        train_losses=train_losses,
        val_losses=val_losses,
        model=model,
        best_epoch=best_epoch,
        elapsed_seconds=time.perf_counter() - t0,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Model file I/O and digests
# ---------------------------------------------------------------------------

MODEL_FORMAT_VERSION = 1


def mlp_to_dict(mlp: Mlp) -> dict:
    return {
        "layer_dims": list(mlp.layer_dims),
        "hidden_activation": "elu",
        "weights": [w.tolist() for w in mlp.weights],
        "biases": [b.tolist() for b in mlp.biases],
    }


def mlp_from_dict(d: dict) -> Mlp:
    if d.get("hidden_activation", "elu") != "elu":
        raise ValueError(f"unsupported activation {d.get('hidden_activation')!r}")
    mlp = Mlp(
        layer_dims=[int(v) for v in d["layer_dims"]],
        weights=[np.asarray(w, dtype=float) for w in d["weights"]],
        biases=[np.asarray(b, dtype=float) for b in d["biases"]],
    )
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        expect = (mlp.layer_dims[i + 1], mlp.layer_dims[i])
        if w.shape != expect or b.shape != (expect[0],):
            raise ValueError(f"layer {i} shape mismatch: {w.shape} vs {expect}")
    return mlp


def save_model(mlp: Mlp, path, provenance: Optional[dict] = None) -> None:
    """Write a model file: layout, row-major parameters, and a provenance block.

    JSON float serialization is shortest-round-trip, so save/load is lossless.
    """
    doc = {"format_version": MODEL_FORMAT_VERSION, **mlp_to_dict(mlp)}
    doc["provenance"] = provenance or {}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
        f.write("\n")


def load_model(path) -> Tuple[Mlp, dict]:
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"model file parse error in {path}: {e}") from e
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    return mlp_from_dict(doc), doc.get("provenance", {})


def param_digest(mlp: Mlp) -> str:
    """SHA-256 over the raw parameter bytes; detects any bit-level change."""
    h = hashlib.sha256()
    for p in mlp_params(mlp):
        h.update(np.ascontiguousarray(p).tobytes())
    return h.hexdigest()
