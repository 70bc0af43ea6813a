"""The two learning stages and closed-loop inference.

Stage one fits a forward surrogate (profile encoding -> normalized probe
intensities) on measured data. Stage two trains the inverse network through
the frozen chain

    targets -> inverse mlp -> wrap to degrees -> soft quantizer
            -> cos/sin encoding -> frozen forward surrogate -> predicted
    loss = MSE(targets, predicted)

so only the inverse network's weights move while gradients flow through every
stage. Deployment snaps the inverse network's angles to the hard states.

Precision: both stages hand ``neural.train`` float32 training inputs, so the
network passes of every training step run in float32 over the float64
master weights (see ``rispa.neural``). The tandem step writes the encoding
straight into a float32 surrogate input; the wrap, the soft quantizer, the
targets and the loss stay float64. Validation, ``fse_predict``,
``tandem_forward``, ``design_batch``, evaluation and model files are float64.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Tuple

import numpy as np

from . import neural
from .dataio import ScatterDataset, TargetDataset, derive_seed, file_field
from .neural import Mlp, TrainReport
from .quantizer import (
    QuantizerConfig,
    ide_output_to_angles,
    quantize_hard,
    quantize_soft_with_grad,
)
from .scene import (
    STATE_COUNT,
    STATE_STEP_DEG,
    Scene,
    check_states,
    measure,
    state_phases_deg,
)

FSE_HIDDEN = (100, 100)
IDE_HIDDEN = (50, 50)

# Inference passes run over this many rows at a time, and never over fewer:
# at 400 rows or fewer OpenBLAS takes another kernel, which changes the bits.
_CHUNK_ROWS = 1000


def fse_layer_dims(column_count: int = 20, probe_count: int = 3):
    return [2 * column_count, *FSE_HIDDEN, probe_count]


def ide_layer_dims(column_count: int = 20, probe_count: int = 3):
    return [probe_count, *IDE_HIDDEN, column_count]


@dataclass
class FseModel:
    """Forward scattering surrogate plus the provenance needed downstream."""

    mlp: Mlp
    column_count: int
    i_max: float
    scene_digest: str = ""
    dataset_digest: str = ""
    seed: int = 0

    def digest(self) -> str:
        return neural.param_digest(self.mlp)


@dataclass
class IdeModel:
    """Inverse-design network paired with the surrogate it was trained through."""

    mlp: Mlp
    fse_digest: str
    quantizer: QuantizerConfig = field(default_factory=QuantizerConfig)
    column_count: int = 20
    target_low: float = 0.0
    target_high: float = 0.6
    seed: int = 0


def encode_phases(angles_deg, scratch: Optional[dict] = None, dtype=neural.FLOAT64) -> np.ndarray:
    """Interleave [cos phi_1, sin phi_1, ..., cos phi_N, sin phi_N].

    Splitting the cyclic phase into its cosine and sine removes the wrap
    discontinuity from the surrogate's input space. Works on single profiles
    or (batch, N) arrays; a (batch, N) encoding can go into the buffers of
    the surrogate's ``scratch``. cos and sin are taken in float64 and stored
    in ``dtype``, the dtype of the surrogate pass that reads them.
    """
    rad = np.radians(np.asarray(angles_deg, dtype=float))
    out = neural.scratch_buffer(scratch, "x", rad.shape[:-1] + (2 * rad.shape[-1],), dtype)
    np.cos(rad, out=out[..., 0::2])
    np.sin(rad, out=out[..., 1::2])
    return out


def _encode_backward(encoded: np.ndarray, grad_encoded: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Pull gradients from the cos/sin features back to angles in degrees, into ``out``.

    ``encoded`` is the ``encode_phases`` output, whose cos/sin columns are
    exactly the derivative factors, so nothing is recomputed. The products
    are made in ``grad_encoded``, which is spent; cos g_sin - sin g_cos has
    the bits of -sin g_cos + cos g_sin, since IEEE negation and commuted
    products and sums are exact.
    """
    g_cos, g_sin = grad_encoded[..., 0::2], grad_encoded[..., 1::2]
    g_cos *= encoded[..., 1::2]
    g_sin *= encoded[..., 0::2]
    g = np.subtract(g_sin, g_cos, out=out)
    g *= np.pi / 180.0
    return g


def _in_chunks(fn, x: np.ndarray) -> np.ndarray:
    """``fn(x)`` for a row-wise ``fn``, run over ``_CHUNK_ROWS`` rows at a time.

    A single row, or ``_CHUNK_ROWS`` rows or fewer, goes through in one call.
    A longer input never makes a short chunk: the last chunk is the final
    ``_CHUNK_ROWS`` rows, overlapping the one before, and only its new rows
    are kept. So every row gets the bits of a one-pass call.
    """
    if x.ndim < 2 or len(x) <= _CHUNK_ROWS:
        return fn(x)
    parts = []
    for start in range(0, len(x), _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, len(x))
        parts.append(fn(x[stop - _CHUNK_ROWS:stop])[start - stop:])
    return np.concatenate(parts)


def profile_encoding(profiles, dtype=neural.FLOAT64) -> np.ndarray:
    """Encoding of discrete state profiles (via their 45-degree phases), stored in ``dtype``."""
    return encode_phases(state_phases_deg(np.asarray(profiles)), dtype=dtype)


# ---------------------------------------------------------------------------
# Forward scattering engine
# ---------------------------------------------------------------------------

def train_fse(
    train_set: ScatterDataset,
    val_set: ScatterDataset,
    epochs: int,
    learning_rate: float,
    batch_size: int,
    seed: int = 0,
) -> Tuple[FseModel, TrainReport]:
    """Supervised regression from encoded profiles to normalized intensities.

    The training inputs are float32, so every training step's passes run in
    float32; targets, validation and the model stay float64.
    """
    cols = train_set.profiles.shape[1]
    probes = train_set.raw.shape[1]
    mlp = neural.init_mlp(fse_layer_dims(cols, probes), seed=seed)
    report = neural.train(
        mlp,
        (profile_encoding(train_set.profiles, neural.FLOAT32), train_set.normalized),
        (profile_encoding(val_set.profiles), val_set.normalized),
        epochs=epochs,
        batch_size=batch_size,
        learning_rate=learning_rate,
        seed=seed,
    )
    model = FseModel(
        mlp=report.model,
        column_count=cols,
        i_max=train_set.i_max,
        scene_digest=train_set.scene_digest,
        dataset_digest=train_set.digest(),
        seed=seed,
    )
    return model, report


def fse_predict(model: FseModel, profile) -> np.ndarray:
    """Surrogate intensities for a discrete profile (or batch of profiles)."""
    profile = check_states(profile)
    if profile.shape[-1:] != (model.column_count,):
        raise ValueError(f"profile must hold {model.column_count} states")
    return _in_chunks(lambda rows: neural.forward(model.mlp, profile_encoding(rows)), profile)


# ---------------------------------------------------------------------------
# Tandem: inverse network through frozen quantizer + surrogate
# ---------------------------------------------------------------------------

def tandem_forward(ide_mlp: Mlp, fse_mlp: Mlp, qcfg: QuantizerConfig, x) -> np.ndarray:
    """Surrogate prediction through the soft-quantized chain, with no scratch."""
    def chain(rows):
        soft, _ = quantize_soft_with_grad(ide_output_to_angles(neural.forward(ide_mlp, rows)), qcfg)
        return neural.forward(fse_mlp, encode_phases(soft))
    return _in_chunks(chain, np.asarray(x, dtype=float))


def tandem_loss_and_grads(ide_mlp: Mlp, fse_mlp: Mlp, qcfg: QuantizerConfig, x, y,
                          ide_scratch: Optional[dict] = None, fse_scratch: Optional[dict] = None):
    """Batch-mean MSE through the frozen chain and its flat IDE parameter gradient.

    Each network runs forward once, into its scratch, and its backward reads
    that scratch. Only the inverse network's parameter gradients are
    produced; the surrogate contributes its input gradient and is never
    updated. Without scratches the step uses fresh ones. The backward half
    writes into buffers the forward half has spent: the input gradient of
    the surrogate, the soft angles and their derivative.

    Both networks' passes run in the dtype of ``x`` (see ``neural.pass_input``);
    the wrap, the soft quantizer, ``y``, the loss and its gradient are float64.
    """
    ide_scratch = {} if ide_scratch is None else ide_scratch
    fse_scratch = {} if fse_scratch is None else fse_scratch
    x = np.atleast_2d(neural.pass_input(x))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    raw = neural.forward(ide_mlp, x, ide_scratch)
    angles = ide_output_to_angles(raw)
    soft, soft_grad = quantize_soft_with_grad(angles, qcfg, ide_scratch)
    encoded = encode_phases(soft, fse_scratch, x.dtype)
    pred = neural.forward(fse_mlp, encoded, fse_scratch)
    loss, g_pred = neural.mse_and_grad(pred, y, fse_scratch)

    g_encoded = neural.backward(fse_mlp, encoded, g_pred, fse_scratch, wrt="inputs").inputs
    g_soft = _encode_backward(encoded, g_encoded, out=soft)
    g_raw = np.multiply(g_soft, soft_grad, out=soft_grad)  # wrap to degrees has unit gradient
    return loss, neural.backward(ide_mlp, x, g_raw, ide_scratch, wrt="params").params


def train_ide(
    fse: FseModel,
    train_targets: TargetDataset,
    val_targets: TargetDataset,
    epochs: int,
    learning_rate: float,
    batch_size: int,
    seed: int = 0,
    qcfg: Optional[QuantizerConfig] = None,
) -> Tuple[IdeModel, TrainReport]:
    """Train the inverse network against the frozen surrogate.

    The surrogate's parameters are digest-checked before and after; any
    drift is a bug, not a tolerance. As in ``train_fse``, the training inputs
    are float32 and validation is float64.
    """
    qcfg = qcfg or QuantizerConfig()
    probes = train_targets.targets.shape[1]
    ide_mlp = neural.init_mlp(ide_layer_dims(fse.column_count, probes), seed=seed)

    fse_digest_before = fse.digest()
    report = neural.train(
        ide_mlp,
        (train_targets.targets.astype(neural.FLOAT32), train_targets.targets),
        (val_targets.targets, val_targets.targets),
        epochs=epochs,
        batch_size=batch_size,
        learning_rate=learning_rate,
        seed=seed,
        predict_fn=partial(tandem_forward, fse_mlp=fse.mlp, qcfg=qcfg),
        loss_and_grads_fn=partial(tandem_loss_and_grads, fse_mlp=fse.mlp, qcfg=qcfg,
                                  ide_scratch={}, fse_scratch={}),
    )
    if fse.digest() != fse_digest_before:
        raise RuntimeError("surrogate parameters changed during inverse training")
    model = IdeModel(
        mlp=report.model,
        fse_digest=fse_digest_before,
        quantizer=qcfg,
        column_count=fse.column_count,
        target_low=train_targets.low,
        target_high=train_targets.high,
        seed=seed,
    )
    return model, report


def design_batch(ide: IdeModel, targets: np.ndarray) -> np.ndarray:
    """Deployable hard-quantized profiles, one row per row of ``targets``.

    Out-of-range targets warn but are still designed (the target range is a
    reachability envelope, not a hard constraint); non-finite targets error.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if not np.all(np.isfinite(targets)):
        raise ValueError("targets contain non-finite values")
    if np.any(targets < ide.target_low) or np.any(targets > ide.target_high):
        warnings.warn(
            f"targets outside trained range [{ide.target_low}, {ide.target_high}]",
            stacklevel=2,
        )
    return _in_chunks(
        lambda rows: quantize_hard(ide_output_to_angles(neural.forward(ide.mlp, rows))), targets)


# ---------------------------------------------------------------------------
# Closed-loop evaluation against the scene
# ---------------------------------------------------------------------------

@dataclass
class EvalResult:
    """Per-target closed-loop outcome: design, surrogate prediction, measurement."""

    table: np.ndarray          # (n, 9): target_1..3, predicted_1..3, measured_1..3
    mse_predicted: np.ndarray  # (probes,)
    mse_measured: np.ndarray   # (probes,)
    profiles: np.ndarray       # (n, columns) the deployed designs


def closed_loop_eval(
    ide: IdeModel,
    fse: FseModel,
    scene: Scene,
    targets: TargetDataset,
    noise_seed: Optional[int] = None,
) -> EvalResult:
    """Design every target, replay the designs on the scene, and score both paths.

    Measurements are normalized by the surrogate's training i_max (targets are
    defined on that scale). When the scene is noisy and ``noise_seed`` is set,
    each measurement uses a per-record derived seed.
    """
    if len(targets) == 0:
        raise ValueError("empty target set")
    if not fse.i_max > 0.0:
        raise ValueError("i_max must be positive")
    if ide.fse_digest and ide.fse_digest != fse.digest():
        warnings.warn("inverse network was trained against a different surrogate", stacklevel=2)

    t = targets.targets
    profiles = design_batch(ide, t)
    predicted = fse_predict(fse, profiles)

    noise_seeds = None
    if noise_seed is not None and scene.noise_sigma > 0.0:
        noise_seeds = derive_seed(noise_seed, np.arange(len(t)))
    measured = measure(scene, profiles, noise_seeds) / fse.i_max

    return EvalResult(
        table=np.hstack([t, predicted, measured]),
        mse_predicted=((predicted - t) ** 2).mean(axis=0),
        mse_measured=((measured - t) ** 2).mean(axis=0),
        profiles=profiles,
    )


def soft_hard_gap_rms(ide: IdeModel, fse: FseModel, result: EvalResult) -> float:
    """RMS difference between the surrogate fed soft-quantized vs hard-snapped angles.

    Quantifies how much the training-time relaxation disagrees with what the
    hardware can actually realize. The targets and the hard-snapped
    predictions are those of ``result``, so only the soft pass runs here.
    """
    probes = len(result.mse_predicted)
    pred_soft = tandem_forward(ide.mlp, fse.mlp, ide.quantizer, result.table[:, :probes])
    pred_hard = result.table[:, probes:2 * probes]
    return float(np.sqrt(np.mean((pred_soft - pred_hard) ** 2)))


# ---------------------------------------------------------------------------
# Model bundle I/O
# ---------------------------------------------------------------------------

def _provenance(path, block: dict, key: str):
    """``block[key]`` if it passes its file-field rule; otherwise a ValueError naming the path."""
    try:
        return file_field(block, key)
    except ValueError as e:
        raise ValueError(f"{path}: provenance {e}") from None


def _load_provenance(path, kind: str, what: str):
    """The network and provenance block of a model file of ``kind``."""
    mlp, prov = neural.load_model(path)
    if not isinstance(prov, dict) or prov.get("kind") != kind:
        raise ValueError(f"{path} is not {what} model file")
    return mlp, prov


def _column_count(path, prov: dict, width: int, units_per_column: int) -> int:
    """Provenance ``column_count``; it must account for the network layer of ``width`` units."""
    cols = _provenance(path, prov, "column_count")
    if units_per_column * cols != width:
        raise ValueError(f"{path}: provenance column_count {cols} does not match "
                         f"a network layer of {width} units")
    return cols


def save_fse(model: FseModel, path) -> None:
    neural.save_model(model.mlp, path, provenance={
        "kind": "fse",
        "column_count": model.column_count,
        "i_max": model.i_max,
        "scene_digest": model.scene_digest,
        "dataset_digest": model.dataset_digest,
        "seed": model.seed,
    })


def load_fse(path) -> FseModel:
    """Load a surrogate; every provenance field must be present with its exact JSON type."""
    mlp, prov = _load_provenance(path, "fse", "a forward-surrogate")
    return FseModel(
        mlp=mlp,
        column_count=_column_count(path, prov, mlp.layer_dims[0], 2),
        i_max=float(_provenance(path, prov, "i_max")),
        scene_digest=_provenance(path, prov, "scene_digest"),
        dataset_digest=_provenance(path, prov, "dataset_digest"),
        seed=_provenance(path, prov, "seed"),
    )


def save_ide(model: IdeModel, path) -> None:
    neural.save_model(model.mlp, path, provenance={
        "kind": "ide",
        "fse_digest": model.fse_digest,
        "quantizer": {
            "state_count": STATE_COUNT,
            "step_degrees": STATE_STEP_DEG,
            "temperature": model.quantizer.temperature,
        },
        "column_count": model.column_count,
        "target_low": model.target_low,
        "target_high": model.target_high,
        "seed": model.seed,
    })


def load_ide(path) -> IdeModel:
    """Load an inverse designer; as ``load_fse``, and its quantizer must be on the scene's grid."""
    mlp, prov = _load_provenance(path, "ide", "an inverse-design")
    q = _provenance(path, prov, "quantizer")
    grid = (q.get("state_count"), q.get("step_degrees"))
    if type(grid[0]) is not int or grid != (STATE_COUNT, STATE_STEP_DEG):
        raise ValueError(f"{path}: the quantizer grid must be {STATE_COUNT} states of "
                         f"{STATE_STEP_DEG:g} degrees, got {grid[0]!r} of {grid[1]!r}")
    low = float(_provenance(path, prov, "target_low"))
    high = float(_provenance(path, prov, "target_high"))
    if not low < high:
        raise ValueError(f"{path}: provenance target_low {low!r} must be below target_high {high!r}")
    return IdeModel(
        mlp=mlp,
        fse_digest=_provenance(path, prov, "fse_digest"),
        quantizer=QuantizerConfig(temperature=float(_provenance(path, q, "temperature"))),
        column_count=_column_count(path, prov, mlp.layer_dims[-1], 1),
        target_low=low,
        target_high=high,
        seed=_provenance(path, prov, "seed"),
    )
