"""Minimal fully connected network core in plain numpy.

Fixed topology: affine layers with ELU on the hidden layers and identity on
the output. An ``Mlp`` keeps its parameters in one float64 vector, ``params``,
laid out [W0, b0, W1, b1, ...] row-major; its ``weights`` and ``biases`` are
views of it, and ``backward`` returns the parameter gradient in the same flat
layout, so Adam, the finite check, snapshots and the digest each act on one
array. Reverse-mode gradients are exact and also returned with respect
to the input vector, which is what lets an inverse network train through a
frozen forward surrogate. ``forward`` can record a tape (each layer's input
and pre-activation) that ``backward`` consumes instead of recomputing the
pass, and ``backward(..., inputs_only=True)`` skips the parameter gradients
of a frozen network. Everything is float64 and seeded; the training loop is
single-threaded so fixed seeds give bit-identical histories.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from .atomic import atomic_write

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class TrainingDiverged(RuntimeError):
    """Raised when a loss or gradient stops being finite; carries partial history."""

    def __init__(self, message, train_losses=None, val_losses=None):
        super().__init__(message)
        self.train_losses = list(train_losses or [])
        self.val_losses = list(val_losses or [])


def _layer_views(flat: np.ndarray, layer_dims) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Carve ``flat`` into per-layer (fan_out, fan_in) weight and (fan_out,) bias views."""
    weights, biases, start = [], [], 0
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        stop = start + fan_out * fan_in
        weights.append(flat[start:stop].reshape(fan_out, fan_in))
        biases.append(flat[stop:stop + fan_out])
        start = stop + fan_out
    if start != flat.size:
        raise ValueError(f"{flat.size} parameters where layer_dims {list(layer_dims)} need {start}")
    return weights, biases


@dataclass
class Mlp:
    """Flat ``params``; weights (fan_out, fan_in) and biases (fan_out,) are views of it."""

    layer_dims: List[int]
    params: np.ndarray

    def __post_init__(self):
        if len(self.layer_dims) < 2 or any(d < 1 for d in self.layer_dims):
            raise ValueError("layer_dims needs at least 2 positive entries")
        self.params = np.ascontiguousarray(self.params, dtype=float)
        self.weights, self.biases = _layer_views(self.params, self.layer_dims)

    def copy(self) -> "Mlp":
        return Mlp(layer_dims=list(self.layer_dims), params=self.params.copy())


def init_mlp(layer_dims, seed: int) -> Mlp:
    """Glorot-uniform weights, zero biases, from the seeded generator."""
    dims = [int(d) for d in layer_dims]
    rng = np.random.default_rng(seed)
    parts = [np.empty(0)]  # so that Mlp, not concatenate, rejects a one-entry layer_dims
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        parts += [rng.uniform(-limit, limit, size=fan_out * fan_in), np.zeros(fan_out)]
    return Mlp(layer_dims=dims, params=np.concatenate(parts))


# branch-free: a select mispredicts on mixed signs; same values, but -0.0 -> +0.0
def elu(x):
    x = np.asarray(x, dtype=float)
    out = np.minimum(x, 0.0, out=np.empty_like(x))
    np.expm1(out, out=out)
    out += np.maximum(x, 0.0)
    return out


def elu_grad(x):
    x = np.asarray(x, dtype=float)
    out = np.minimum(x, 0.0, out=np.empty_like(x))
    return np.exp(out, out=out)


def forward(mlp: Mlp, x, tape: Optional[list] = None) -> np.ndarray:
    """Forward pass; accepts a single input vector or a (batch, dim) array.

    When ``tape`` is a list, each layer's (input, pre-activation) pair is
    appended to it, as 2-D arrays, for ``backward``.
    """
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    h = np.atleast_2d(x)
    if h.shape[1] != mlp.layer_dims[0]:
        raise ValueError(f"input dim {h.shape[1]} != expected {mlp.layer_dims[0]}")
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = h @ w.T + b
        if tape is not None:
            tape.append((h, z))
        h = elu(z) if i != last else z
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
    params: Optional[np.ndarray]  # same layout as Mlp.params; None when inputs_only
    inputs: np.ndarray


def backward(mlp: Mlp, x, grad_output, tape: Optional[list] = None,
             inputs_only: bool = False) -> Gradients:
    """Exact reverse-mode gradients of the affine/ELU graph.

    ``grad_output`` is dLoss/dOutput at the network output (same shape as the
    output). Returns the parameter gradient as one flat vector laid out like
    ``mlp.params``, plus dLoss/dInput. Batched inputs sum parameter gradients
    over the batch. ``tape`` is the record of ``forward(mlp, x, tape)``;
    without it the pass is run here. ``inputs_only`` leaves the parameter
    gradient as None.
    """
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    if tape is None:
        tape = []
        forward(mlp, x, tape)
    g = np.atleast_2d(np.asarray(grad_output, dtype=float))
    if g.shape != (tape[0][0].shape[0], mlp.layer_dims[-1]):
        raise ValueError("grad_output shape mismatch")

    grad = None if inputs_only else np.empty_like(mlp.params)
    gw, gb = _layer_views(grad, mlp.layer_dims) if grad is not None else (None, None)
    delta = g  # identity output activation
    for i in range(len(mlp.weights) - 1, -1, -1):
        if grad is not None:
            np.matmul(delta.T, tape[i][0], out=gw[i])
            delta.sum(axis=0, out=gb[i])
        upstream = delta @ mlp.weights[i]
        if i > 0:
            delta = upstream * elu_grad(tape[i - 1][1])
    return Gradients(params=grad, inputs=upstream[0] if squeeze else upstream)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int
    learning_rate: float
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    epsilon: float = ADAM_EPSILON


def init_adam(params: np.ndarray, learning_rate: float) -> AdamState:
    if not learning_rate > 0.0:
        raise ValueError("learning_rate must be positive")
    return AdamState(
        first_moment=np.zeros_like(params),
        second_moment=np.zeros_like(params),
        step_count=0,
        learning_rate=learning_rate,
    )


def adam_step(params: np.ndarray, grads: np.ndarray,
              state: AdamState) -> Tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update of a flat vector; returns new params and state."""
    if not np.all(np.isfinite(grads)):
        raise TrainingDiverged("diverged: non-finite gradient")
    t = state.step_count + 1
    lr, b1, b2, eps = state.learning_rate, state.beta1, state.beta2, state.epsilon
    m = b1 * state.first_moment + (1.0 - b1) * grads
    v = b2 * state.second_moment + (1.0 - b2) * grads * grads
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    new_state = replace(state, first_moment=m, second_moment=v, step_count=t)
    return params - lr * m_hat / (np.sqrt(v_hat) + eps), new_state


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainReport:
    train_losses: List[float]
    val_losses: List[float]
    model: Mlp            # best-validation snapshot
    best_epoch: int
    seed: int

    @property
    def best_val_loss(self) -> float:
        """Validation loss of the best epoch; NaN when no epoch was scored."""
        if 0 <= self.best_epoch < len(self.val_losses):
            return self.val_losses[self.best_epoch]
        return float("nan")


def _supervised_loss_and_grads(mlp: Mlp, x, y):
    tape = []
    pred = forward(mlp, x, tape)
    loss = mse(pred, y)
    return loss, backward(mlp, x, mse_grad(pred, y), tape).params


# overflow and invalid values are caught by the explicit isfinite checks
# (TrainingDiverged), so numpy's RuntimeWarnings would only repeat them
@np.errstate(over="ignore", invalid="ignore")
def train(
    mlp: Mlp,
    train_pairs: Tuple[np.ndarray, np.ndarray],
    val_pairs: Tuple[np.ndarray, np.ndarray],
    epochs: int,
    batch_size: int,
    learning_rate: float,
    seed: int,
    predict_fn: Optional[Callable] = None,
    loss_and_grads_fn: Optional[Callable] = None,
) -> TrainReport:
    """Minibatch Adam training with per-epoch validation and best-val snapshot.

    ``train_pairs``/``val_pairs`` are non-empty (inputs, targets) arrays. The
    objective is batch-mean MSE against the targets, by default of the network
    output. The tandem stage trains through frozen downstream stages by supplying
    ``predict_fn(model, x=...)``, the derivative-free prediction validation
    scores, and ``loss_and_grads_fn(model, x=..., y=...)``, the training loss
    with its flat parameter gradient.

    Shuffling is seeded; batches run in a fixed order, so the loss histories
    are reproducible bit for bit.
    """
    loss_and_grads_fn = loss_and_grads_fn or _supervised_loss_and_grads
    x_train, y_train = train_pairs
    x_val, y_val = val_pairs
    x_train = np.asarray(x_train, dtype=float)
    y_train = np.asarray(y_train, dtype=float)
    n = x_train.shape[0]
    if n == 0:
        raise ValueError("training set is empty")
    if len(x_val) == 0:
        raise ValueError("validation set is empty")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")

    rng = np.random.default_rng(seed)
    model = mlp.copy()
    state = init_adam(model.params, learning_rate)
    train_losses: List[float] = []
    val_losses: List[float] = []
    best_val = np.inf
    best_params = model.params.copy()
    best_epoch = -1

    for epoch in range(epochs):
        perm = rng.permutation(n)
        sq_sum = 0.0
        for start in range(0, n, batch_size):
            idx = perm[start:start + batch_size]
            loss, grads = loss_and_grads_fn(model, x=x_train[idx], y=y_train[idx])
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"diverged: non-finite loss at epoch {epoch}", train_losses, val_losses
                )
            try:
                params, state = adam_step(model.params, grads, state)
            except TrainingDiverged as e:
                raise TrainingDiverged(
                    f"{e} at epoch {epoch}", train_losses, val_losses
                ) from e
            model.params[...] = params
            sq_sum += loss * len(idx)
        train_losses.append(sq_sum / n)
        # x stays positional: perfbench's tracer counts rows from forward's second argument
        pred = forward(model, x_val) if predict_fn is None else predict_fn(model, x=x_val)
        v = mse(pred, y_val)
        val_losses.append(v)
        if v < best_val:
            best_val = v
            best_params = model.params.copy()
            best_epoch = epoch

    if best_epoch >= 0:
        model.params[...] = best_params
    return TrainReport(
        train_losses=train_losses,
        val_losses=val_losses,
        model=model,
        best_epoch=best_epoch,
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


def mlp_from_dict(d) -> Mlp:
    """Rebuild an Mlp from ``mlp_to_dict`` output; a malformed document raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError("model is not a JSON object")
    if d.get("hidden_activation", "elu") != "elu":
        raise ValueError(f"unsupported activation {d.get('hidden_activation')!r}")
    dims = d.get("layer_dims")
    if not isinstance(dims, list) or any(type(v) is not int for v in dims):
        raise ValueError(f"layer_dims must be a list of integers, not {dims!r}")
    try:
        arrays = [np.asarray(a, dtype=float)
                  for pair in zip(d["weights"], d["biases"], strict=True) for a in pair]
    except (KeyError, TypeError, OverflowError) as e:
        raise ValueError(f"malformed model: {e!r}") from e
    mlp = Mlp(layer_dims=list(dims), params=np.concatenate([np.empty(0), *(a.ravel() for a in arrays)]))
    if [a.shape for a in arrays] != [v.shape for pair in zip(mlp.weights, mlp.biases) for v in pair]:
        raise ValueError(f"parameter shapes do not match layer_dims {dims}")
    if not np.all(np.isfinite(mlp.params)):
        raise ValueError("non-finite parameter")
    return mlp


def save_model(mlp: Mlp, path, provenance: Optional[dict] = None) -> None:
    """Write a model file: layout, row-major parameters, and a provenance block.

    JSON float serialization is shortest-round-trip, so save/load is lossless.
    """
    doc = {"format_version": MODEL_FORMAT_VERSION, **mlp_to_dict(mlp)}
    doc["provenance"] = provenance or {}
    with atomic_write(path) as f:
        json.dump(doc, f)
        f.write("\n")


def load_model(path) -> Tuple[Mlp, dict]:
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"model file parse error in {path}: {e}") from e
    if not isinstance(doc, dict):
        raise ValueError(f"{path} is not a model file: the top level is not an object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    try:
        return mlp_from_dict(doc), doc.get("provenance", {})
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


def param_digest(mlp: Mlp) -> str:
    """SHA-256 over the raw parameter bytes; detects any bit-level change."""
    return hashlib.sha256(mlp.params.tobytes()).hexdigest()
