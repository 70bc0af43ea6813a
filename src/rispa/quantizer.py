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

The state count must be even: state s + n/2 has the opposite phasor and score,
so with a_s = cos(theta - phi_s)/tau_rad and b_s = sin(theta - phi_s)/tau_rad for
s < n/2 (linear in cos theta and sin theta) the sums fold into antipodal pairs,
z ∝ sum_s sinh(a_s) e^{j phi_s} and dz/dtheta ∝ -sum_s cosh(a_s) b_s e^{j phi_s}.
Both exps are scaled by e^{-max|a|}, which keeps tau = 0.1 deg finite. The
sums run on real arrays in a fixed order, never as a matrix product: the
quantizer makes no BLAS call, so its bits do not depend on the BLAS threads.

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
        if self.state_count % 2:
            raise ValueError("state_count must be even: states pair with their antipodes")
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
    """Soft-quantized angle and its derivative d(out_deg)/d(angle_deg), in the paired form above."""
    angle = np.asarray(angle_deg, dtype=float)
    theta = np.radians(np.atleast_1d(angle))
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    tau = np.radians(cfg.temperature)
    phis = np.radians(cfg.centers_deg[: cfg.state_count // 2])
    cos_p, sin_p = np.cos(phis).tolist(), np.sin(phis).tolist()
    a = [cos_t * (c / tau) + sin_t * (s / tau) for c, s in zip(cos_p, sin_p)]
    b = [sin_t * (c / tau) - cos_t * (s / tau) for c, s in zip(cos_p, sin_p)]
    neg_m = -functools.reduce(np.maximum, map(np.abs, a))
    sinh, cosh_b = [], []   # 2 e^{-m} sinh(a_s) and 2 e^{-m} cosh(a_s) b_s
    for x, y in zip(a, b):
        up = np.exp(x + neg_m)
        # x becomes e^{-a_s - m} in place: fewer live temporaries run measurably faster
        down = np.exp(np.subtract(neg_m, x, out=x), out=x)
        sinh.append(up - down)
        cosh_b.append(np.multiply(np.add(down, up, out=down), y, out=down))
    zr, zi = _pair_sum(sinh, cos_p), _pair_sum(sinh, sin_p)
    out = np.degrees(np.arctan2(zi, zr)) % 360.0
    # d arg(z)/d theta = (zr dzi - zi dzr) / |z|^2, where dz = -sum_s cosh_b[s] e^{j phi_s}
    grad = (zi * _pair_sum(cosh_b, cos_p) - zr * _pair_sum(cosh_b, sin_p)) / (zr * zr + zi * zi)
    if angle.ndim == 0:
        return float(out[0]), float(grad[0])
    return out, grad


def _pair_sum(terms, coefs):
    """sum_s terms[s] * coefs[s], added left to right: a fixed order and no BLAS call."""
    return functools.reduce(np.add, [t * k for t, k in zip(terms, coefs)])


def ide_output_to_angles(raw):
    """Interpret raw network outputs directly as degrees, wrapped to [0, 360).

    The wrap is the identity plus a constant almost everywhere, so its
    gradient is 1 wherever it is defined.
    """
    return np.mod(np.asarray(raw, dtype=float), 360.0)
