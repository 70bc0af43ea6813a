"""Minimal fully connected network core in plain numpy.

Fixed topology: affine layers with ELU on the hidden layers and identity on
the output. An ``Mlp`` keeps its parameters in one flat vector, ``params``,
laid out [W0, b0, W1, b1, ...] row-major; its ``weights`` and ``biases`` are
views of it, and ``backward`` returns the parameter gradient in the same flat
layout, so Adam, the finite check, snapshots and the digest each act on one
array. Reverse-mode gradients are exact and also returned with respect
to the input vector, which is what lets an inverse network train through a
frozen forward surrogate. ``backward(..., wrt=...)`` computes both, only the
parameter gradient of a trained network (``"params"``, which skips the
layer-0 input product) or only the input gradient of a frozen one
(``"inputs"``). Everything is seeded; the training loop is single-threaded
so fixed seeds give bit-identical histories.

Precision: a pass computes in the dtype of its network's ``params``. An
``Mlp`` keeps float32 ``params`` as float32 and makes anything else float64,
and a pass casts its input to that dtype. ``train`` alone decides the
training precision: it casts the training inputs to float32 and runs every
step on a float32 copy of the model, made once per run and refreshed from
the float64 master after each Adam update, so the network passes of every
training step, and a tandem step's soft quantizer, run in float32. What is
stored, compared or optimized stays float64: the master ``params``, Adam's
moments and update (``adam_step`` widens a float32 gradient once, exactly,
into its first work buffer, so its other passes are float64 only), targets,
losses and their gradient, validation, inference and model files. The
master weights stay float64 because an Adam update far below a weight's
float32 spacing would round away: with float32 ``params`` and moments the
desk gate's soft/hard gap moved from 0.0489 to 0.0500, onto its bound of
0.05, where float32 passes over float64 weights read 0.0491.

A training run owns one scratch per network, a plain dict of buffers sized at
the first batch (a smaller batch uses their leading rows), and both passes
write into it: after the first step their batch-sized arrays are its buffers,
``backward``'s cast of its output gradient ``"g"`` included, and their
results are views that the next pass with that scratch overwrites. The
scratch is the record of the forward pass: ``backward`` reads each layer's
input and ``min(z, 0)`` of its pre-activation ``z`` from the buffers
``forward`` just filled, and turns the latter into the ELU derivative
``exp(min(z, 0))`` in place, so nothing of the pass is recomputed. The
parameter gradient is the scratch's ``"grad"`` buffer, and its per-layer
weight and bias views are made with it, once, under ``("gw", i)`` and
``("gb", i)``; it has the dtype of ``params``. A training step takes its loss
and the loss gradient from one difference ``pred - y`` in the scratch's
``"d"`` buffer (``mse_and_grad``). ``adam_step`` updates the parameters and
its moments in place. Supervised validation runs through one more scratch
per run, so its passes, too, reuse their buffers from epoch to epoch.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Optional, Tuple

import numpy as np

from .atomic import atomic_write

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
FLOAT32, FLOAT64 = np.dtype(np.float32), np.dtype(np.float64)


class TrainingDiverged(RuntimeError):
    """Raised on a non-finite loss or gradient, or a run that moves nothing; carries partial history."""

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
        params = np.asarray(self.params)
        self.params = np.ascontiguousarray(params, FLOAT32 if params.dtype == FLOAT32 else FLOAT64)
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


# branch-free: a select mispredicts on mixed signs; same values, but -0.0 -> +0.0.
# forward and backward run these same operations in their scratch buffers.
def elu(x):
    x = np.asarray(x, dtype=float)
    return np.expm1(np.minimum(x, 0.0)) + np.maximum(x, 0.0)


def elu_grad(x):
    return np.exp(np.minimum(np.asarray(x, dtype=float), 0.0))


def scratch_buffer(scratch: Optional[dict], key, shape, dtype=FLOAT64) -> np.ndarray:
    """A new array without a scratch, else the leading rows of ``scratch[key]``.

    The buffer is remade when it is short or of another dtype.
    """
    if scratch is None:
        return np.empty(shape, dtype)
    buf = scratch.get(key)
    if buf is None or len(buf) < shape[0] or buf.dtype != dtype:
        buf = scratch[key] = np.empty(shape, dtype)
    return buf[:shape[0]]


def _param_grad(mlp: Mlp, scratch: dict) -> np.ndarray:
    """The scratch's ``"grad"`` buffer, laid out and typed like ``params``.

    Its per-layer weight and bias views are made with it, once, under
    ``("gw", i)`` and ``("gb", i)``.
    """
    buf = scratch.get("grad")
    if buf is None or buf.shape != mlp.params.shape or buf.dtype != mlp.params.dtype:
        buf = scratch["grad"] = np.empty_like(mlp.params)
        for i, views in enumerate(zip(*_layer_views(buf, mlp.layer_dims))):
            scratch[("gw", i)], scratch[("gb", i)] = views
    return buf


def forward(mlp: Mlp, x, scratch: Optional[dict] = None) -> np.ndarray:
    """Forward pass; accepts a single input vector or a (batch, dim) array.

    The pass computes in the dtype of ``mlp.params``, to which ``x`` is cast.
    With a ``scratch`` the output is a view of its buffers, which keep, for
    ``backward``, each hidden layer's output ``("h", i)`` and ``min(z, 0)`` of
    its pre-activation ``z`` in ``("z", i)``.
    """
    x = np.asarray(x, dtype=mlp.params.dtype)
    squeeze = x.ndim == 1
    h = np.atleast_2d(x)
    if h.shape[1] != mlp.layer_dims[0]:
        raise ValueError(f"input dim {h.shape[1]} != expected {mlp.layer_dims[0]}")
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = np.matmul(h, w.T, out=scratch_buffer(scratch, ("z", i), (len(h), len(w)), x.dtype))
        z += b
        if i < last:
            # elu's operations, with min(z, 0) left in z for backward's derivative; the
            # positive part goes where backward later writes this layer's upstream.
            # Without a scratch it is made after h and freed with its layer: in that
            # order a fresh process's peak RSS is lowest.
            h = scratch_buffer(scratch, ("h", i), z.shape, x.dtype)
            pos = np.maximum(z, 0.0, out=scratch_buffer(scratch, ("up", i), z.shape, x.dtype))
            np.expm1(np.minimum(z, 0.0, out=z), out=h)
            h += pos
            del pos
    return z[0] if squeeze else z


def mse_and_grad(pred, y, scratch: Optional[dict] = None) -> Tuple[float, np.ndarray]:
    """Mean squared error of ``pred`` against ``y``, and its gradient with respect to ``pred``.

    Both come from one difference ``d = pred - y``, in the scratch's ``"d"``
    buffer when one is given: the loss is ``np.mean``'s sum of ``d * d`` over
    ``d.size``, and ``d`` then becomes the gradient ``(2 d) / d.size`` in
    place. These are the bits of ``np.mean((pred - y) ** 2)`` and
    ``2 (pred - y) / pred.size``. ``d`` is float64; a float32 ``pred`` is
    widened exactly inside the subtraction, not copied first.
    """
    pred, y = np.asarray(pred), np.asarray(y, dtype=float)
    if pred.shape != y.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {y.shape}")
    d = np.subtract(pred, y, out=scratch_buffer(scratch, "d", pred.shape))
    loss = float(np.add.reduce(d * d, axis=None)) / d.size
    d *= 2.0
    d /= d.size
    return loss, d


def mse(a, b) -> float:
    return mse_and_grad(a, b)[0]


def mse_grad(a, b) -> np.ndarray:
    """Gradient of mse(a, b) with respect to a: 2 (a - b) / a.size."""
    return mse_and_grad(a, b)[1]


@dataclass
class Gradients:
    params: Optional[np.ndarray]  # same layout as Mlp.params; None when wrt="inputs"
    inputs: Optional[np.ndarray]  # None when wrt="params"


def backward(mlp: Mlp, x, grad_output, scratch: Optional[dict] = None,
             wrt: str = "both") -> Gradients:
    """Exact reverse-mode gradients of the affine/ELU graph.

    ``grad_output`` is dLoss/dOutput at the network output (same shape as the
    output); it is cast into the scratch's ``"g"`` buffer, and ``x`` as in
    ``forward``, in the dtype of ``mlp.params``.
    Returns the parameter gradient as one flat vector laid out like
    ``mlp.params``, plus dLoss/dInput. Batched inputs sum parameter gradients
    over the batch. ``wrt="params"`` stops before the layer-0 input product
    and leaves ``inputs`` as None; ``wrt="inputs"`` leaves ``params`` as None.

    ``scratch`` is the one ``forward(mlp, x, scratch)`` just filled; without
    it the pass is run here, into a fresh one. The gradients are views of its
    buffers, and each ``("z", i)`` buffer, ``min(z, 0)``, is overwritten by
    its exp, the ELU derivative: a forward pass is read once.
    """
    if wrt not in ("both", "params", "inputs"):
        raise ValueError(f"wrt must be 'both', 'params' or 'inputs', not {wrt!r}")
    x = np.asarray(x, dtype=mlp.params.dtype)
    squeeze = x.ndim == 1
    if scratch is None:
        scratch = {}
        forward(mlp, x, scratch)
    x = np.atleast_2d(x)
    n = len(x)
    g = np.atleast_2d(grad_output)
    if g.shape != (n, mlp.layer_dims[-1]):
        raise ValueError("grad_output shape mismatch")

    grad = None if wrt == "inputs" else _param_grad(mlp, scratch)
    delta = scratch_buffer(scratch, "g", g.shape, x.dtype)  # identity output activation
    np.copyto(delta, g, casting="same_kind")
    for i in range(len(mlp.weights) - 1, -1, -1):
        if grad is not None:
            np.matmul(delta.T, x if i == 0 else scratch[("h", i - 1)][:n], out=scratch[("gw", i)])
            np.add.reduce(delta, axis=0, out=scratch[("gb", i)])  # delta.sum without its wrapper
        if i == 0 and wrt == "params":
            break
        upstream = np.matmul(delta, mlp.weights[i], out=scratch_buffer(
            scratch, ("up", i - 1), (n, mlp.layer_dims[i]), x.dtype))
        if i > 0:
            neg = scratch[("z", i - 1)][:n]  # min(z, 0); its exp is the ELU derivative
            delta = np.multiply(upstream, np.exp(neg, out=neg), out=upstream)
    inputs = None if wrt == "params" else upstream[0] if squeeze else upstream
    return Gradients(params=grad, inputs=inputs)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int
    learning_rate: float
    # adam_step's two temporaries: the widened gradient, then the step; the denominator
    work: Tuple[np.ndarray, np.ndarray] = field(repr=False)


def init_adam(params: np.ndarray, learning_rate: float) -> AdamState:
    if not learning_rate > 0.0:
        raise ValueError("learning_rate must be positive")
    return AdamState(
        first_moment=np.zeros_like(params),
        second_moment=np.zeros_like(params),
        step_count=0,
        learning_rate=learning_rate,
        work=(np.empty_like(params), np.empty_like(params)),
    )


def adam_step(params: np.ndarray, grads: np.ndarray,
              state: AdamState) -> Tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update of a flat vector, in place.

    ``params`` and the moments in ``state`` are overwritten and the same two
    objects are returned; a non-finite gradient raises before anything is.
    The update runs in float64 whatever the dtype of ``grads``: the gradient
    is widened once, exactly, into the first work buffer, so every later pass
    is a float64-only ufunc and a float32 gradient gives the bits of the same
    gradient upcast first.
    """
    if not np.isfinite(grads).all():
        raise TrainingDiverged("diverged: non-finite gradient")
    t = state.step_count + 1
    lr, b1, b2, eps = state.learning_rate, ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
    m, v = state.first_moment, state.second_moment
    g, denom = state.work
    np.copyto(g, grads)  # the one widening: every pass below reads float64 only
    v *= b2  # v = b2 v + ((1 - b2) g) g, m = b1 m + (1 - b1) g, in that order of operations
    v += np.multiply(np.multiply(1.0 - b2, g, out=denom), g, out=denom)
    m *= b1
    m += np.multiply(1.0 - b1, g, out=g)  # the last read of g; its buffer takes the step
    # params -= (lr m_hat) / (sqrt(v_hat) + eps)
    step = np.multiply(np.divide(m, 1.0 - b1 ** t, out=g), lr, out=g)
    np.add(np.sqrt(np.divide(v, 1.0 - b2 ** t, out=denom), out=denom), eps, out=denom)
    params -= np.divide(step, denom, out=step)
    state.step_count = t
    return params, state


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
    # validation MSE of a predictor that always outputs the mean training target
    baseline_val_loss: float = float("nan")

    @property
    def best_val_loss(self) -> float:
        """Validation loss of the best epoch; NaN when no epoch was scored."""
        if 0 <= self.best_epoch < len(self.val_losses):
            return self.val_losses[self.best_epoch]
        return float("nan")


def _supervised_loss_and_grads(mlp: Mlp, x, y, scratch: Optional[dict] = None):
    scratch = {} if scratch is None else scratch
    loss, g_pred = mse_and_grad(forward(mlp, x, scratch), y, scratch)
    return loss, backward(mlp, x, g_pred, scratch, wrt="params").params


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

    ``train_pairs``/``val_pairs`` are non-empty (inputs, targets) arrays.
    The training inputs are cast to float32 and the targets to float64. The
    steps get a float32 copy of the float64 master network, made once and
    refreshed from it after each Adam update, so their passes run in
    float32. Adam, validation, the best snapshot and the returned model use
    the master. The objective is batch-mean MSE against the targets, by
    default of the network output. The tandem stage trains
    through frozen downstream stages by supplying ``predict_fn(model, x=...)``,
    the derivative-free prediction validation scores, and
    ``loss_and_grads_fn(model, x=..., y=...)``, the training loss with its
    flat parameter gradient.

    Shuffling is seeded; batches run in a fixed order, so the loss histories
    are reproducible bit for bit. Each batch is gathered into two buffers made
    once per run, so ``loss_and_grads_fn`` gets views that the next batch
    overwrites; supervised validation runs through one scratch per run. A
    run of at least one epoch that returns the initial parameters unchanged
    (every gradient zero, e.g. a frozen quantizer) raises
    ``TrainingDiverged``.
    """
    loss_and_grads_fn = loss_and_grads_fn or partial(_supervised_loss_and_grads, scratch={})
    x_train, y_train = train_pairs
    x_val, y_val = val_pairs
    x_train = np.asarray(x_train, dtype=FLOAT32)
    y_train = np.asarray(y_train, dtype=float)
    n = x_train.shape[0]
    if n == 0:
        raise ValueError("training set is empty")
    if len(x_val) == 0:
        raise ValueError("validation set is empty")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")

    rng = np.random.default_rng(seed)
    model = Mlp(list(mlp.layer_dims), mlp.params.astype(FLOAT64))
    steps = Mlp(model.layer_dims, model.params.astype(FLOAT32))
    state = init_adam(model.params, learning_rate)
    train_losses: List[float] = []
    val_losses: List[float] = []
    best_val = np.inf
    best_params = model.params.copy()
    best_epoch = -1

    rows = min(batch_size, n)
    x_batch = np.empty((rows, *x_train.shape[1:]), x_train.dtype)
    y_batch = np.empty((rows, *y_train.shape[1:]))
    val_scratch = {}  # supervised validation's buffers, faulted in once per run
    for epoch in range(epochs):
        perm = rng.permutation(n)
        sq_sum = 0.0
        for start in range(0, n, batch_size):
            idx = perm[start:start + batch_size]
            # mode="clip" lets take write straight into out; "raise" would buffer it
            x = x_train.take(idx, axis=0, out=x_batch[:len(idx)], mode="clip")
            y = y_train.take(idx, axis=0, out=y_batch[:len(idx)], mode="clip")
            loss, grads = loss_and_grads_fn(steps, x=x, y=y)
            try:
                if not math.isfinite(loss):
                    raise TrainingDiverged("diverged: non-finite loss")
                adam_step(model.params, grads, state)
            except TrainingDiverged as e:
                raise TrainingDiverged(f"{e} at epoch {epoch}", train_losses, val_losses) from e
            # Adam is the master's only writer; the copy follows it
            np.copyto(steps.params, model.params, casting="same_kind")
            sq_sum += loss * len(idx)
        train_losses.append(sq_sum / n)
        # x stays positional: perfbench's tracer counts rows from forward's second argument
        pred = forward(model, x_val, val_scratch) if predict_fn is None else predict_fn(model, x=x_val)
        v = mse(pred, y_val)
        val_losses.append(v)
        if v < best_val:
            best_val = v
            best_params = model.params.copy()
            best_epoch = epoch

    if best_epoch >= 0:
        model.params[...] = best_params
    if epochs > 0 and np.array_equal(model.params, mlp.params):
        raise TrainingDiverged(f"frozen: no parameter moved in {epochs} epochs (zero gradients)",
                               train_losses, val_losses)
    return TrainReport(
        train_losses=train_losses,
        val_losses=val_losses,
        model=model,
        best_epoch=best_epoch,
        seed=seed,
        baseline_val_loss=mse(np.broadcast_to(y_train.mean(axis=0), np.shape(y_val)), y_val),
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
    Non-finite parameters, which ``load_model`` refuses, raise ``ValueError``
    before anything is written.
    """
    if not np.all(np.isfinite(mlp.params)):
        raise ValueError("refusing to save a model with non-finite parameters")
    doc = {"format_version": MODEL_FORMAT_VERSION, **mlp_to_dict(mlp)}
    doc["provenance"] = provenance or {}
    with atomic_write(path) as f:
        f.write(json.dumps(doc) + "\n")  # one C-encoder pass; json.dump streams through Python


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
