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

The 8 states form 4 antipodal pairs: state s + 4 has the opposite phasor and
score, so with a_s = cos(theta - phi_s)/tau_rad and b_s = sin(theta - phi_s)/tau_rad
for s < 4 (linear in cos theta and sin theta) the sums fold into the pairs,
z ∝ sum_s sinh(a_s) e^{j phi_s} and dz/dtheta ∝ -sum_s cosh(a_s) b_s e^{j phi_s}.
Both exps are scaled by e^{-max|a|}, which keeps tau = 0.1 deg finite. The
sums run on real arrays in a fixed order, never as a matrix product: the
quantizer makes no BLAS call, so its bits do not depend on the BLAS threads.
The grid itself is ``scene.STATE_COUNT`` states of ``scene.STATE_STEP_DEG``;
this module only reads it. The soft map reads only cos theta and sin theta:
it takes any real angle and returns arg(z) in [-180, 180], unwrapped, or, for
a training step, its cos and sin as z/|z| (``soft_phasor_with_grad``) in its
output's dtype, float32 in training; the angle entries stay float64. tau is
floored at finfo(dtype).max ** -0.5 rad, so 1/tau stays finite. Only
``quantize_soft`` and ``quantize_hard`` reduce angles to [0, 360).

A straight-through estimator (hard forward pass, identity gradient) would be
the usual alternative; it is deliberately not implemented here because the
smooth map keeps training and its gradients exactly consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .neural import scratch_buffer
from .scene import STATE_COUNT, STATE_STEP_DEG, state_phases_deg

# cos and sin of the first half of the state phases; each state pairs with its antipode
_PAIR_PHASES = np.radians(state_phases_deg(np.arange(STATE_COUNT // 2)))
_PAIR_COS, _PAIR_SIN = np.cos(_PAIR_PHASES), np.sin(_PAIR_PHASES)


@dataclass(frozen=True)
class QuantizerConfig:
    temperature: float = 10.0

    def __post_init__(self):
        if not 0.0 < self.temperature < np.inf:
            raise ValueError("temperature must be positive and finite")


def quantize_hard(angle_deg):
    """Nearest state index under cyclic distance; ties round to the higher index mod ``STATE_COUNT``.

    Accepts scalars or arrays of angles in degrees (any finite value; reduced
    to [0, 360) first, so the index cast cannot overflow). floor(angle/step +
    1/2) lands exact midpoints on the upper state, the declared tie rule.
    """
    angle = np.mod(np.asarray(angle_deg, dtype=float), 360.0)
    idx = np.floor(angle / STATE_STEP_DEG + 0.5).astype(int) % STATE_COUNT
    if idx.ndim == 0:
        return int(idx)
    return idx


def quantize_soft(angle_deg, cfg: QuantizerConfig = QuantizerConfig()):
    """Smooth surrogate of the hard quantizer; returns degrees in [0, 360)."""
    out = np.mod(quantize_soft_with_grad(angle_deg, cfg)[0], 360.0)
    # np.mod rounds an arg(z) just below 0 up to 360.0, which is 0 on the circle
    return np.where(out == 360.0, 0.0, out)[()]


def quantize_soft_with_grad(angle_deg, cfg: QuantizerConfig = QuantizerConfig()):
    """Soft-quantized angle in [-180, 180] and its derivative d(out_deg)/d(angle_deg).

    Takes input of any dtype; the results are float64.
    """
    angle = np.asarray(angle_deg)
    zr, zi, _, grad, spent = _soft_kernel(angle, cfg, None)
    out = np.multiply(np.arctan2(zi, zr, out=spent), 180.0 / np.pi, out=spent)
    if angle.ndim == 0:
        return float(out[0]), float(grad[0])
    return out, grad


def soft_phasor_with_grad(angle_deg, cfg: QuantizerConfig, out: np.ndarray,
                          scratch: Optional[dict] = None):
    """The soft angle's unit phasor z/|z|, [cos, sin] interleaved into ``out`` of any float dtype.

    Computes in ``out.dtype``; into a float64 ``out`` it returns ``quantize_soft_with_grad``'s
    derivative, bit for bit, and a spent buffer of its shape. Every array is written in place,
    the radians first; with a ``scratch``, a dict as ``neural.forward`` takes, they are its
    buffers, the results included.
    """
    zr, zi, z_abs, grad, spent = _soft_kernel(np.asarray(angle_deg), cfg, scratch, out.dtype)
    np.divide(zr, np.sqrt(z_abs, out=z_abs), out=out[..., 0::2])   # |z|^2 becomes |z| in place
    np.divide(zi, z_abs, out=out[..., 1::2])
    return grad, spent


def _soft_kernel(angle: np.ndarray, cfg: QuantizerConfig, scratch: Optional[dict], dtype=np.float64):
    """zr, zi, |z|^2, d arg(z)/d theta and a spent buffer of their shape, all in ``dtype``."""
    theta = np.atleast_1d(angle)
    shape, pairs = theta.shape, len(_PAIR_COS)
    flat = [scratch_buffer(scratch, ("soft", k), shape, dtype) for k in range(5)]
    # the pairs stack on a leading axis, in the leading rows of a (pairs * rows, ...) buffer
    a, b, tmp, sinh = (scratch_buffer(scratch, ("soft", k), (pairs * len(theta),) + shape[1:], dtype)
                       .reshape((pairs,) + shape) for k in range(5, 9))
    theta = np.multiply(theta, np.pi / 180.0, out=flat[0], dtype=dtype)
    cos_t, sin_t = np.cos(theta, out=flat[1]), np.sin(theta, out=theta)
    # the floor keeps 1/tau, and every product of it below, finite in dtype
    tau = max(cfg.temperature * (np.pi / 180.0), float(np.finfo(dtype).max) ** -0.5)
    col = (pairs,) + (1,) * theta.ndim
    c, s = (_PAIR_COS / tau).astype(dtype).reshape(col), (_PAIR_SIN / tau).astype(dtype).reshape(col)
    np.add(np.multiply(cos_t, c, out=a), np.multiply(sin_t, s, out=tmp), out=a)
    np.subtract(np.multiply(sin_t, c, out=b), np.multiply(cos_t, s, out=tmp), out=b)
    neg_m = np.negative(np.abs(a, out=tmp).max(axis=0, out=flat[2]), out=flat[2])
    up = np.exp(np.add(a, neg_m, out=tmp), out=tmp)
    # a becomes e^{-a_s - m} in place
    down = np.exp(np.subtract(neg_m, a, out=a), out=a)
    np.subtract(up, down, out=sinh)   # 2 e^{-m} sinh(a_s)
    cosh_b = np.multiply(np.add(down, up, out=down), b, out=down)   # 2 e^{-m} cosh(a_s) b_s
    # what the cos/sin and m arrays held is spent: they take the sums and the gradient
    zr, zi = _pair_sum(sinh, _PAIR_COS, cos_t, tmp), _pair_sum(sinh, _PAIR_SIN, sin_t, tmp)
    # d arg(z)/d theta = (zr dzi - zi dzr) / |z|^2, where dz = -sum_s cosh_b[s] e^{j phi_s}
    grad = np.multiply(zi, _pair_sum(cosh_b, _PAIR_COS, flat[2], tmp), out=flat[2])
    grad -= np.multiply(zr, _pair_sum(cosh_b, _PAIR_SIN, flat[3], tmp), out=flat[3])
    grad /= np.add(np.multiply(zr, zr, out=flat[3]), np.multiply(zi, zi, out=flat[4]), out=flat[3])
    return zr, zi, flat[3], grad, flat[4]


def _pair_sum(stack, coefs, out, tmp):
    """sum_s stack[s] * coefs[s] into ``out``, added left to right: a fixed order and no BLAS call."""
    col = (-1,) + (1,) * (stack.ndim - 1)
    terms = np.multiply(stack, coefs.astype(stack.dtype).reshape(col), out=tmp)
    np.add(terms[0], terms[1], out=out)
    for t in terms[2:]:
        out += t
    return out
