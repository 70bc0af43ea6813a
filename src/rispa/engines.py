"""The two learning stages and closed-loop inference.

Stage one fits a forward surrogate (profile encoding -> normalized probe
intensities) on measured data. Stage two trains the inverse network through
the frozen chain

    targets -> inverse mlp -> wrap to degrees -> soft quantizer
            -> cos/sin encoding -> frozen forward surrogate -> predicted
    loss = MSE(targets, predicted)

so only the inverse network's weights move while gradients flow through every
stage. Deployment snaps the inverse network's angles to the hard states.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from . import neural
from .dataio import ScatterDataset, TargetDataset
from .neural import Mlp, TrainReport
from .quantizer import (
    QuantizerConfig,
    ide_output_to_angles,
    quantize_hard,
    quantize_soft_with_grad,
)
from .scene import Scene, measure, state_phases_deg

FSE_HIDDEN = (100, 100)
IDE_HIDDEN = (50, 50)

DEFAULT_FSE_EPOCHS = 10000
DEFAULT_FSE_LR = 0.0001
DEFAULT_IDE_EPOCHS = 6000
DEFAULT_IDE_LR = 0.0005
DEFAULT_BATCH_SIZE = 256


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


def encode_phases(angles_deg) -> np.ndarray:
    """Interleave [cos phi_1, sin phi_1, ..., cos phi_N, sin phi_N].

    Splitting the cyclic phase into its cosine and sine removes the wrap
    discontinuity from the surrogate's input space. Works on single profiles
    or (batch, N) arrays.
    """
    rad = np.radians(np.asarray(angles_deg, dtype=float))
    out = np.empty(rad.shape[:-1] + (2 * rad.shape[-1],))
    out[..., 0::2] = np.cos(rad)
    out[..., 1::2] = np.sin(rad)
    return out


def _encode_backward(encoded: np.ndarray, grad_encoded: np.ndarray) -> np.ndarray:
    """Pull gradients from the cos/sin features back to angles in degrees.

    ``encoded`` is the ``encode_phases`` output, whose cos/sin columns are
    exactly the derivative factors, so nothing is recomputed.
    """
    cos, sin = encoded[..., 0::2], encoded[..., 1::2]
    g = -sin * grad_encoded[..., 0::2] + cos * grad_encoded[..., 1::2]
    return g * (np.pi / 180.0)


def profile_encoding(profiles) -> np.ndarray:
    """Encoding of discrete state profiles (via their 45-degree phases)."""
    return encode_phases(state_phases_deg(np.asarray(profiles)))


# ---------------------------------------------------------------------------
# Forward scattering engine
# ---------------------------------------------------------------------------

def train_fse(
    train_set: ScatterDataset,
    val_set: ScatterDataset,
    epochs: int = DEFAULT_FSE_EPOCHS,
    learning_rate: float = DEFAULT_FSE_LR,
    batch_size: int = DEFAULT_BATCH_SIZE,
    seed: int = 0,
    init: Optional[Mlp] = None,
) -> Tuple[FseModel, TrainReport]:
    """Supervised regression from encoded profiles to normalized intensities.

    ``init`` warm-starts from existing parameters instead of a fresh draw.
    """
    cols = train_set.profiles.shape[1]
    probes = train_set.raw.shape[1]
    mlp = init.copy() if init is not None else neural.init_mlp(fse_layer_dims(cols, probes), seed=seed)
    report = neural.train(
        mlp,
        (profile_encoding(train_set.profiles), train_set.normalized),
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
    profile = np.asarray(profile)
    if profile.shape[-1] != model.column_count:
        raise ValueError(f"profile must hold {model.column_count} states")
    return neural.forward(model.mlp, profile_encoding(profile))


# ---------------------------------------------------------------------------
# Tandem: inverse network through frozen quantizer + surrogate
# ---------------------------------------------------------------------------

def tandem_forward(ide_mlp: Mlp, fse_mlp: Mlp, qcfg: QuantizerConfig, x) -> np.ndarray:
    raw = neural.forward(ide_mlp, x)
    angles = ide_output_to_angles(raw)
    soft, _ = quantize_soft_with_grad(angles, qcfg)
    return neural.forward(fse_mlp, encode_phases(soft))


def tandem_loss_and_grads(ide_mlp: Mlp, fse_mlp: Mlp, qcfg: QuantizerConfig, x, y):
    """Batch-mean MSE through the frozen chain and its exact IDE gradients.

    Each network runs forward once and its backward reads the recorded tape.
    Only the inverse network's parameter gradients are produced; the
    surrogate contributes its input gradient and is never updated.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    ide_tape, fse_tape = [], []
    raw = neural.forward(ide_mlp, x, ide_tape)
    angles = ide_output_to_angles(raw)
    soft, soft_grad = quantize_soft_with_grad(angles, qcfg)
    encoded = encode_phases(soft)
    pred = neural.forward(fse_mlp, encoded, fse_tape)
    loss = neural.mse(pred, y)

    g_pred = neural.mse_grad(pred, y)
    g_encoded = neural.backward(fse_mlp, encoded, g_pred, fse_tape, inputs_only=True).inputs
    g_soft = _encode_backward(encoded, g_encoded)
    g_raw = g_soft * soft_grad  # wrap to degrees has unit gradient
    g_ide = neural.backward(ide_mlp, x, g_raw, ide_tape)
    return loss, neural.grads_list(g_ide)


def _tandem_loss(fse_mlp: Mlp, qcfg: QuantizerConfig):
    def loss_fn(mlp, x, y):
        return neural.mse(tandem_forward(mlp, fse_mlp, qcfg, x), y)
    return loss_fn


def train_ide(
    fse: FseModel,
    train_targets: TargetDataset,
    val_targets: TargetDataset,
    epochs: int = DEFAULT_IDE_EPOCHS,
    learning_rate: float = DEFAULT_IDE_LR,
    batch_size: int = DEFAULT_BATCH_SIZE,
    seed: int = 0,
    qcfg: Optional[QuantizerConfig] = None,
    init: Optional[Mlp] = None,
) -> Tuple[IdeModel, TrainReport]:
    """Train the inverse network against the frozen surrogate.

    The surrogate's parameters are digest-checked before and after; any
    drift is a bug, not a tolerance.
    """
    qcfg = qcfg or QuantizerConfig()
    probes = train_targets.targets.shape[1]
    ide_mlp = init.copy() if init is not None else neural.init_mlp(
        ide_layer_dims(fse.column_count, probes), seed=seed
    )

    fse_digest_before = fse.digest()
    fse_mlp = fse.mlp

    def loss_and_grads(mlp, x, y):
        return tandem_loss_and_grads(mlp, fse_mlp, qcfg, x, y)

    report = neural.train(
        ide_mlp,
        (train_targets.targets, train_targets.targets),
        (val_targets.targets, val_targets.targets),
        epochs=epochs,
        batch_size=batch_size,
        learning_rate=learning_rate,
        seed=seed,
        loss_fn=_tandem_loss(fse_mlp, qcfg),
        loss_and_grads_fn=loss_and_grads,
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
    raw = neural.forward(ide.mlp, targets)
    return np.asarray(quantize_hard(ide_output_to_angles(raw), ide.quantizer))


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
    from .dataio import derive_seed  # local import keeps module deps one-way

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
        noise_seeds = [derive_seed(noise_seed, i) for i in range(len(t))]
    measured = measure(scene, profiles, noise_seeds) / fse.i_max

    return EvalResult(
        table=np.hstack([t, predicted, measured]),
        mse_predicted=((predicted - t) ** 2).mean(axis=0),
        mse_measured=((measured - t) ** 2).mean(axis=0),
        profiles=profiles,
    )


def soft_hard_gap_rms(ide: IdeModel, fse: FseModel, targets: TargetDataset) -> float:
    """RMS difference between the surrogate fed soft-quantized vs hard-snapped angles.

    Quantifies how much the training-time relaxation disagrees with what the
    hardware can actually realize.
    """
    raw = neural.forward(ide.mlp, targets.targets)
    angles = ide_output_to_angles(raw)
    soft, _ = quantize_soft_with_grad(angles, ide.quantizer)
    hard = state_phases_deg(quantize_hard(angles, ide.quantizer))
    pred_soft = neural.forward(fse.mlp, encode_phases(soft))
    pred_hard = neural.forward(fse.mlp, encode_phases(hard))
    return float(np.sqrt(np.mean((pred_soft - pred_hard) ** 2)))


# ---------------------------------------------------------------------------
# Model bundle I/O
# ---------------------------------------------------------------------------

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
    mlp, prov = neural.load_model(path)
    if prov.get("kind") != "fse":
        raise ValueError(f"{path} is not a forward-surrogate model file")
    return FseModel(
        mlp=mlp,
        column_count=int(prov["column_count"]),
        i_max=float(prov["i_max"]),
        scene_digest=prov.get("scene_digest", ""),
        dataset_digest=prov.get("dataset_digest", ""),
        seed=int(prov.get("seed", 0)),
    )


def save_ide(model: IdeModel, path) -> None:
    neural.save_model(model.mlp, path, provenance={
        "kind": "ide",
        "fse_digest": model.fse_digest,
        "quantizer": {
            "state_count": model.quantizer.state_count,
            "step_degrees": model.quantizer.step_degrees,
            "temperature": model.quantizer.temperature,
        },
        "column_count": model.column_count,
        "target_low": model.target_low,
        "target_high": model.target_high,
        "seed": model.seed,
    })


def load_ide(path) -> IdeModel:
    mlp, prov = neural.load_model(path)
    if prov.get("kind") != "ide":
        raise ValueError(f"{path} is not an inverse-design model file")
    q = prov.get("quantizer", {})
    return IdeModel(
        mlp=mlp,
        fse_digest=prov.get("fse_digest", ""),
        quantizer=QuantizerConfig(
            state_count=int(q.get("state_count", 8)),
            step_degrees=float(q.get("step_degrees", 45.0)),
            temperature=float(q.get("temperature", 10.0)),
        ),
        column_count=int(prov.get("column_count", 20)),
        target_low=float(prov.get("target_low", 0.0)),
        target_high=float(prov.get("target_high", 0.6)),
        seed=int(prov.get("seed", 0)),
    )
