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
it takes any real angle and returns arg(z) in [-180, 180], unwrapped. Only
``quantize_soft`` and ``quantize_hard`` reduce angles to [0, 360).

A straight-through estimator (hard forward pass, identity gradient) would be
the usual alternative; it is deliberately not implemented here because the
smooth map keeps training and its gradients exactly consistent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .neural import scratch_buffer
from .scene import STATE_COUNT, STATE_STEP_DEG, state_phases_deg

# cos and sin of the first half of the state phases; each state pairs with its antipode
_PAIR_PHASES = np.radians(state_phases_deg(np.arange(STATE_COUNT // 2)))
_PAIR_COS, _PAIR_SIN = np.cos(_PAIR_PHASES).tolist(), np.sin(_PAIR_PHASES).tolist()


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


def quantize_soft_with_grad(angle_deg, cfg: QuantizerConfig = QuantizerConfig(),
                            scratch: Optional[dict] = None):
    """Soft-quantized angle in [-180, 180] and its derivative d(out_deg)/d(angle_deg).

    Every array is written in place, the float64 radians first, from input of
    any dtype; with a ``scratch``, a dict as ``neural.forward`` takes, they
    are its buffers, the results included.
    """
    angle = np.asarray(angle_deg)
    theta = np.atleast_1d(angle)
    buffers = (scratch_buffer(scratch, ("soft", k), theta.shape) for k in itertools.count())
    theta = np.radians(theta, out=next(buffers), dtype=np.float64)
    cos_t, sin_t, tmp = np.cos(theta, out=next(buffers)), np.sin(theta, out=theta), next(buffers)
    tau = np.radians(cfg.temperature)
    a, b = [], []
    for c, s in zip(_PAIR_COS, _PAIR_SIN):
        a.append(np.multiply(cos_t, c / tau, out=next(buffers)))
        a[-1] += np.multiply(sin_t, s / tau, out=tmp)
        b.append(np.multiply(sin_t, c / tau, out=next(buffers)))
        b[-1] -= np.multiply(cos_t, s / tau, out=tmp)
    neg_m = np.abs(a[0], out=next(buffers))
    for x in a[1:]:
        np.maximum(neg_m, np.abs(x, out=tmp), out=neg_m)
    np.negative(neg_m, out=neg_m)
    sinh, cosh_b = [], []   # 2 e^{-m} sinh(a_s) and 2 e^{-m} cosh(a_s) b_s
    for x, y in zip(a, b):
        up = np.exp(np.add(x, neg_m, out=tmp), out=tmp)
        # x becomes e^{-a_s - m} in place: fewer live temporaries run measurably faster
        down = np.exp(np.subtract(neg_m, x, out=x), out=x)
        sinh.append(np.subtract(up, down, out=next(buffers)))
        cosh_b.append(np.multiply(np.add(down, up, out=down), y, out=down))
    # what the cos/sin and b arrays held is spent: they take the sums and the gradient,
    # and the first sinh, spent once zr and zi are summed, takes the angle
    zr, zi = _pair_sum(sinh, _PAIR_COS, cos_t, tmp), _pair_sum(sinh, _PAIR_SIN, sin_t, tmp)
    out = np.degrees(np.arctan2(zi, zr, out=sinh[0]), out=sinh[0])
    # d arg(z)/d theta = (zr dzi - zi dzr) / |z|^2, where dz = -sum_s cosh_b[s] e^{j phi_s}
    grad = np.multiply(zi, _pair_sum(cosh_b, _PAIR_COS, b[0], tmp), out=b[0])
    grad -= np.multiply(zr, _pair_sum(cosh_b, _PAIR_SIN, b[1], tmp), out=b[1])
    grad /= np.add(np.multiply(zr, zr, out=b[1]), np.multiply(zi, zi, out=tmp), out=b[1])
    if angle.ndim == 0:
        return float(out[0]), float(grad[0])
    return out, grad


def _pair_sum(terms, coefs, out, tmp):
    """sum_s terms[s] * coefs[s] into ``out``, added left to right: a fixed order and no BLAS call."""
    np.multiply(terms[0], coefs[0], out=out)
    for t, k in zip(terms[1:], coefs[1:]):
        out += np.multiply(t, k, out=tmp)
    return out

