"""Hard and soft quantizer behavior, including the declared tie rule."""

import math

import numpy as np
import pytest

from rispa.quantizer import (
    QuantizerConfig,
    ide_output_to_angles,
    quantize_hard,
    quantize_soft,
    quantize_soft_with_grad,
)
from rispa.scene import STATE_COUNT, state_phases_deg

CFG = QuantizerConfig()


def soft_reference(angle_deg: float, tau_deg: float) -> float:
    """Straight-line evaluation of the circular-softmax closed form."""
    tau = math.radians(tau_deg)
    z = 0.0 + 0.0j
    best = max(math.cos(math.radians(angle_deg - 45.0 * s)) for s in range(8))
    for s in range(8):
        w = math.exp((math.cos(math.radians(angle_deg - 45.0 * s)) - best) / tau)
        z += w * complex(math.cos(math.radians(45.0 * s)), math.sin(math.radians(45.0 * s)))
    return math.degrees(math.atan2(z.imag, z.real)) % 360.0


# ---------------------------------------------------------------------------
# hard quantizer
# ---------------------------------------------------------------------------

def test_hard_nearest_state():
    assert quantize_hard(10.0) == 0
    assert quantize_hard(44.0) == 1
    assert quantize_hard(340.0) == 0   # cyclic: 20 degrees to 0 beats 25 to state 7
    assert quantize_hard(-45.0) == 7


def test_hard_tie_rounds_to_higher_index():
    for k in range(8):
        tie = 22.5 + 45.0 * k
        assert quantize_hard(tie) == (k + 1) % 8


def test_hard_output_always_in_state_set():
    rng = np.random.default_rng(5)
    angles = rng.uniform(-1000.0, 1000.0, size=500)
    idx = quantize_hard(angles)
    assert set(np.unique(idx)).issubset(set(range(8)))


def test_hard_on_state_centers_is_identity():
    states = np.arange(8)
    assert np.array_equal(quantize_hard(state_phases_deg(states)), states)


# ---------------------------------------------------------------------------
# soft quantizer
# ---------------------------------------------------------------------------

def test_soft_fixes_state_centers():
    for tau in (30.0, 10.0, 1.0):
        cfg = QuantizerConfig(temperature=tau)
        for s in range(8):
            assert quantize_soft(45.0 * s, cfg) == pytest.approx(45.0 * s, abs=1e-6)


def test_soft_matches_independent_closed_form():
    rng = np.random.default_rng(17)
    for tau in (30.0, 10.0, 3.0, 1.0, 0.3, 0.1):
        for angle in rng.uniform(0.0, 360.0, size=10):
            assert quantize_soft(angle, QuantizerConfig(temperature=tau)) == pytest.approx(
                soft_reference(angle, tau), abs=1e-9
            )


def _soft_with_grad_reference(angle_deg, cfg):
    """The vectorized soft quantizer written as plainly as possible: all 8 states, complex sums."""
    theta = np.radians(np.asarray(angle_deg, dtype=float))[..., None]
    centers = np.radians(state_phases_deg(np.arange(STATE_COUNT)))
    tau = np.radians(cfg.temperature)
    score = np.cos(theta - centers) / tau
    score -= score.max(axis=-1, keepdims=True)
    w = np.exp(score)
    dw = w * (-np.sin(theta - centers) / tau)
    phasors = np.exp(1j * centers)
    z = (w * phasors).sum(axis=-1)
    dz = (dw * phasors).sum(axis=-1)
    out = np.degrees(np.arctan2(z.imag, z.real)) % 360.0
    return out, (z.conj() * dz).imag / np.abs(z) ** 2


def test_soft_with_grad_matches_reference():
    rng = np.random.default_rng(23)
    random_angles = rng.uniform(-720.0, 720.0, size=(64, 20))
    ties = 22.5 + 45.0 * np.arange(-16, 16)
    centers = 45.0 * np.arange(-16, 16)
    for tau in (30.0, 10.0, 3.0, 1.0, 0.3, 0.1):
        cfg = QuantizerConfig(temperature=tau)
        for angles in (random_angles, ties, centers):
            out, grad = quantize_soft_with_grad(angles, cfg)
            ref_out, ref_grad = _soft_with_grad_reference(angles, cfg)
            assert np.all(np.isfinite(out)) and np.all(np.isfinite(grad))
            assert _circ_diff(out, ref_out).max() <= 1e-9
            assert np.allclose(grad, ref_grad, rtol=1e-9, atol=1e-12)


def test_soft_small_tau_converges_to_hard_center():
    out = quantize_soft(10.0, QuantizerConfig(temperature=0.1))
    assert min(out, 360.0 - out) < 0.5


def test_soft_derivative_matches_finite_differences():
    rng = np.random.default_rng(23)
    h = 1e-5
    for tau in (10.0, 1.0, 0.3):
        cfg = QuantizerConfig(temperature=tau)
        angles = rng.uniform(0.0, 360.0, size=20)
        if tau != 10.0:   # the staircase is steep near a tie at small tau
            angles = angles[np.abs(angles % 45.0 - 22.5) >= 1.5]
        for angle in angles:
            _, grad = quantize_soft_with_grad(angle, cfg)
            up = quantize_soft(angle + h, cfg)
            dn = quantize_soft(angle - h, cfg)
            fd = ((up - dn + 180.0) % 360.0 - 180.0) / (2 * h)
            # rounding of out (~6e-14 deg) puts fd ~3e-9 off where the grad is tiny
            assert grad == pytest.approx(fd, rel=1e-5, abs=1e-8)


def _circ_diff(a, b):
    return np.abs((a - b + 180.0) % 360.0 - 180.0)


def test_soft_is_360_periodic():
    cfg = QuantizerConfig()
    angles = np.linspace(0.0, 359.0, 73)
    a = quantize_soft(angles, cfg)
    b = quantize_soft(angles + 360.0, cfg)
    c = quantize_soft(angles - 720.0, cfg)
    assert _circ_diff(a, b).max() < 1e-9
    assert _circ_diff(a, c).max() < 1e-9


def _grid_excluding_ties():
    grid = np.arange(0.0, 360.0, 1.0)
    dist_to_center = np.abs((grid - 22.5) % 45.0 - 22.5)
    # ties sit at 22.5 mod 45, i.e. 22.5 deg from the nearest center; the
    # integer grid keeps the 344 angles at least 1.5 deg away from a tie
    return grid[np.abs(dist_to_center - 22.5) > 1.0]


def test_monotone_refinement_as_tau_shrinks():
    grid = _grid_excluding_ties()
    centers = state_phases_deg(quantize_hard(grid))
    prev = np.inf
    for tau in (30.0, 10.0, 3.0, 1.0, 0.3):
        soft = quantize_soft(grid, QuantizerConfig(temperature=tau))
        dev = np.abs((soft - centers + 180.0) % 360.0 - 180.0)
        assert dev.max() <= prev + 1e-9
        prev = dev.max()


def test_hard_soft_consistency_at_tau_1():
    grid = _grid_excluding_ties()
    soft = quantize_soft(grid, QuantizerConfig(temperature=1.0))
    assert np.array_equal(quantize_hard(soft), quantize_hard(grid))


# ---------------------------------------------------------------------------
# raw output wrapping
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("raw,expected", [(0.0, 0.0), (405.0, 45.0), (-45.0, 315.0)])
def test_ide_output_wraps_cyclically(raw, expected):
    assert ide_output_to_angles(raw) == pytest.approx(expected)


def test_quantizer_config_validation():
    with pytest.raises(ValueError):
        QuantizerConfig(temperature=0.0)
    with pytest.raises(ValueError):
        QuantizerConfig(temperature=float("inf"))
