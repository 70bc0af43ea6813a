"""Phase quantization: hard nearest-state snap and a smooth circular surrogate.

The hardware realizes 8 reflection phases on a 45-degree grid. Deployment uses
the hard quantizer; training uses a differentiable stand-in so gradients can
flow from the forward surrogate back into the inverse network. Because phase
is cyclic, the surrogate is a circular-softmax pull toward the state centers
rather than a sigmoid staircase:

    w_s ∝ exp(cos(theta - phi_s) / tau_rad),   out = arg( sum_s w_s e^{j phi_s} )

with tau in degrees (converted to radians inside the cosine-similarity score).
Small tau sharpens the staircase toward the hard quantizer. tau is a softmax
temperature on the cosine score, not an angular width: at distance d from a
tie the far neighbour's weight relative to the near one is
exp(-2 sin(22.5 deg) sin(d) / tau_rad), about 0.02 at d = 1.5 deg and
tau = 0.3 deg, so near ties the staircase settles on the hard centers only
for tau well below one degree.

A straight-through estimator (hard forward pass, identity gradient) would be
the usual alternative; it is deliberately not implemented here because the
smooth map keeps training and its gradients exactly consistent.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .scene import STATE_COUNT, STATE_STEP_DEG


@dataclass(frozen=True)
class QuantizerConfig:
    state_count: int = STATE_COUNT
    step_degrees: float = STATE_STEP_DEG
    temperature: float = 10.0

    def __post_init__(self):
        if abs(self.state_count * self.step_degrees - 360.0) > 1e-9:
            raise ValueError("state_count * step_degrees must equal 360 degrees")
        if not self.temperature > 0.0:
            raise ValueError("temperature must be positive")

    @property
    def centers_deg(self) -> np.ndarray:
        return np.arange(self.state_count) * self.step_degrees


def quantize_hard(angle_deg, cfg: QuantizerConfig = QuantizerConfig()):
    """Nearest state index under cyclic distance; ties round to the higher index mod 8.

    Accepts scalars or arrays of angles in degrees (any real value; reduced
    cyclically). floor(angle/step + 1/2) lands exact midpoints on the upper
    state, which is precisely the declared tie rule.
    """
    angle = np.asarray(angle_deg, dtype=float)
    idx = np.floor(angle / cfg.step_degrees + 0.5).astype(int) % cfg.state_count
    if idx.ndim == 0:
        return int(idx)
    return idx


def quantize_soft(angle_deg, cfg: QuantizerConfig = QuantizerConfig()):
    """Smooth surrogate of the hard quantizer; returns degrees in [0, 360)."""
    out, _ = quantize_soft_with_grad(angle_deg, cfg)
    return out


def quantize_soft_with_grad(angle_deg, cfg: QuantizerConfig = QuantizerConfig()):
    """Soft-quantized angle and its derivative d(out_deg)/d(angle_deg).

    The weight normalization cancels in arg(), so weights are stabilized by
    subtracting the per-point maximum score before exponentiation; this keeps
    tau as small as 0.1 degrees finite.
    """
    angle = np.asarray(angle_deg, dtype=float)
    scalar = angle.ndim == 0
    theta = np.radians(angle)[..., None]
    centers = np.radians(cfg.centers_deg)
    tau = np.radians(cfg.temperature)

    delta = theta - centers
    score = np.cos(delta) / tau
    # exact row maximum; np.maximum across the state columns beats max(axis=-1) ~10x
    score -= functools.reduce(np.maximum, np.moveaxis(score, -1, 0))[..., None]
    w = np.exp(score)
    dw = w * (-np.sin(delta) / tau)

    phasors = np.exp(1j * centers)
    z = (w * phasors).sum(axis=-1)
    dz = (dw * phasors).sum(axis=-1)

    out = np.degrees(np.arctan2(z.imag, z.real)) % 360.0
    # d arg(z)/d theta = Im(conj(z) dz) / |z|^2; degree factors cancel
    grad = (z.conj() * dz).imag / np.abs(z) ** 2
    if scalar:
        return float(out), float(grad)
    return out, grad


def ide_output_to_angles(raw):
    """Interpret raw network outputs directly as degrees, wrapped to [0, 360).

    The wrap is the identity plus a constant almost everywhere, so its
    gradient is 1 wherever it is defined.
    """
    return np.mod(np.asarray(raw, dtype=float), 360.0)
