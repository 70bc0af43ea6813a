"""Hard and soft quantizer behavior, including the declared tie rule."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rispa.quantizer import (
    QuantizerConfig,
    quantize_hard,
    quantize_soft,
    quantize_soft_with_grad,
    soft_phasor_with_grad,
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


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
def test_hard_reduces_any_finite_angle_first(values):
    huge = [4e20, -4e20, 1e300, -1e300]
    x = np.array(values + huge)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflowing index cast
        assert np.array_equal(quantize_hard(x), quantize_hard(np.mod(x, 360.0)))
        for angle in huge:
            assert quantize_hard(angle) == quantize_hard(np.mod(angle, 360.0))


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


def _paired_expression_reference(angle_deg, cfg):
    """The paired form of the module docstring as expressions on fresh arrays: the bit reference.

    It converts with ``np.radians`` and ``np.degrees``, which the kernel's
    multiplies by pi/180 and 180/pi must match bit for bit. The third result
    is the unit phasor z/|z|, [cos, sin] interleaved.
    """
    theta = np.radians(np.atleast_1d(np.asarray(angle_deg, dtype=float)))
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    tau = np.radians(cfg.temperature)
    phases = np.radians(state_phases_deg(np.arange(STATE_COUNT // 2)))
    pairs = list(zip(np.cos(phases).tolist(), np.sin(phases).tolist()))
    a = [cos_t * (c / tau) + sin_t * (s / tau) for c, s in pairs]
    b = [sin_t * (c / tau) - cos_t * (s / tau) for c, s in pairs]
    m = np.maximum(np.maximum(np.maximum(np.abs(a[0]), np.abs(a[1])), np.abs(a[2])), np.abs(a[3]))
    up = [np.exp(x - m) for x in a]
    down = [np.exp(-m - x) for x in a]
    sinh = [u - d for u, d in zip(up, down)]
    cosh_b = [(d + u) * y for u, d, y in zip(up, down, b)]

    def pair_sum(terms, k):
        return ((terms[0] * pairs[0][k] + terms[1] * pairs[1][k]) + terms[2] * pairs[2][k]) + terms[3] * pairs[3][k]

    zr, zi = pair_sum(sinh, 0), pair_sum(sinh, 1)
    out = np.degrees(np.arctan2(zi, zr))
    r = np.sqrt(zr * zr + zi * zi)
    phasor = np.stack([zr / r, zi / r], axis=-1).reshape(*zr.shape[:-1], -1)
    return out, (zi * pair_sum(cosh_b, 0) - zr * pair_sum(cosh_b, 1)) / (zr * zr + zi * zi), phasor


def _spoiled(scratch):
    """``scratch`` with every buffer NaN, so a value left over from an earlier call would show."""
    for buf in scratch.values():
        buf.fill(np.nan)
    return scratch


def test_in_place_soft_kernel_is_bit_identical_to_expression_reference():
    rng = np.random.default_rng(29)
    scratch64, scratch32 = {}, {}
    for tau in (30.0, 10.0, 0.3, 0.1):
        cfg = QuantizerConfig(temperature=tau)
        for rows in (256, 94, 256):
            angles = rng.uniform(-720.0, 720.0, size=(rows, 20))
            angles[0, :4] = (22.5, 45.0, 0.0, -0.0)
            # a float32 input, as a float32 training step's network gives, is widened exactly
            for x in (angles, angles.astype(np.float32)):
                want_out, want_grad, want_phasor = _paired_expression_reference(x, cfg)
                got_out, got_grad = quantize_soft_with_grad(x, cfg)
                assert np.array_equal(got_out, want_out)
                assert np.array_equal(got_grad, want_grad)
                # the training step's entry into a float64 surrogate input: the same
                # derivative and z/|z|, with fresh or reused scratch buffers
                for use in (None, _spoiled(scratch64)):
                    phasor = np.empty((rows, 40))
                    got_grad, _ = soft_phasor_with_grad(x, cfg, phasor, use)
                    assert np.array_equal(got_grad, want_grad)
                    assert np.array_equal(phasor, want_phasor)
                # into a float32 input the kernel runs in float32; reused buffers change no bit
                fresh, reused = np.empty((rows, 40), np.float32), np.empty((rows, 40), np.float32)
                want_grad, _ = soft_phasor_with_grad(x, cfg, fresh)
                got_grad, _ = soft_phasor_with_grad(x, cfg, reused, _spoiled(scratch32))
                assert got_grad.dtype == np.float32 and np.array_equal(got_grad, want_grad)
                assert np.array_equal(reused, fresh)
    assert {buf.dtype for buf in scratch32.values()} == {np.dtype(np.float32)}


def test_float32_soft_kernel_is_within_roundoff_of_float64():
    # the float32 training step's phasor and derivative, against the float64 kernel on the
    # same float32 angles. The worst errors seen on 256 x 20 angles: phasor 2.9e-5 and
    # gradient 5.2e-5 of max |grad| at tau 0.1 on +-400 deg (they shrink about as 1/tau),
    # and below 7e-7 at tau >= 10
    rng = np.random.default_rng(37)
    for scale in (30.0, 400.0):
        x = (rng.uniform(-1.0, 1.0, size=(256, 20)) * scale).astype(np.float32)
        x[0, :4] = (22.5, 45.0, 0.0, -0.0)
        for tau in (0.1, 0.3, 1.0, 10.0, 30.0):
            cfg = QuantizerConfig(temperature=tau)
            phasor32, phasor64 = np.empty((256, 40), np.float32), np.empty((256, 40))
            grad32, _ = soft_phasor_with_grad(x, cfg, phasor32)
            grad64, _ = soft_phasor_with_grad(x, cfg, phasor64)
            bound = 1e-6 if tau >= 10.0 else 1e-4
            assert np.abs(phasor32 - phasor64).max() <= 0.5 * bound
            assert np.abs(grad32 - grad64).max() <= bound * np.abs(grad64).max()


def test_soft_phasor_is_finite_at_every_temperature():
    # tau is floored so that 1/tau and its products stay finite in the kernel's dtype
    angles = np.random.default_rng(41).uniform(-400.0, 400.0, size=(94, 20))
    angles[0, :4] = (22.5, 45.0, 0.0, -0.0)
    for tau in (1e-300, 1e-40, 1e-20, 0.1, 30.0):
        cfg = QuantizerConfig(temperature=tau)
        for dtype in (np.float32, np.float64):
            phasor = np.empty((94, 40), dtype)
            grad, _ = soft_phasor_with_grad(angles.astype(dtype), cfg, phasor)
            assert np.isfinite(phasor).all() and np.isfinite(grad).all(), (tau, dtype)
            assert np.abs(np.hypot(phasor[:, 0::2], phasor[:, 1::2]) - 1.0).max() <= 1e-6


def test_float32_angles_give_the_float64_results_of_their_widened_values():
    # quantize_soft_with_grad and quantize_soft, which validation and the gate read, stay float64
    x = np.random.default_rng(43).uniform(-400.0, 400.0, size=(94, 20)).astype(np.float32)
    for tau in (0.3, 10.0):
        cfg = QuantizerConfig(temperature=tau)
        wide = x.astype(float)
        got = (*quantize_soft_with_grad(x, cfg), quantize_soft(x, cfg))
        want = (*quantize_soft_with_grad(wide, cfg), quantize_soft(wide, cfg))
        for g, w in zip(got, want):
            assert g.dtype == np.float64 and g.tobytes() == w.tobytes()


def test_soft_phasor_is_cos_and_sin_of_the_soft_angle():
    rng = np.random.default_rng(31)
    angles = rng.uniform(-1.0, 1.0, size=(3, 94, 20)) * np.array([30.0, 400.0, 1e6])[:, None, None]
    angles[:, 0, :4] = (22.5, 45.0, 0.0, -0.0)
    for tau in (0.1, 0.3, 10.0, 30.0):
        cfg = QuantizerConfig(temperature=tau)
        for x in (*angles, *angles.astype(np.float32)):
            out, _ = quantize_soft_with_grad(x, cfg)
            phasor = np.empty((94, 40))
            soft_phasor_with_grad(x, cfg, phasor)
            assert np.abs(phasor[:, 0::2] - np.cos(np.radians(out))).max() <= 4e-15
            assert np.abs(phasor[:, 1::2] - np.sin(np.radians(out))).max() <= 4e-15


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


@settings(max_examples=300, deadline=None)
@given(turns=st.integers(-3, 3), offset=st.floats(-1e-9, 1e-9))
def test_soft_stays_in_0_360_just_below_a_turn(turns, offset):
    # arg(z) a hair below 0 must not come back as 360.0, from a scalar or an array
    angles = np.array([-1e-14, 360.0 - 1e-14, 720.0 - 1e-13, 360.0 * turns + offset])
    out = quantize_soft(angles)
    assert np.all((out >= 0.0) & (out < 360.0)), out
    for angle, want in zip(angles, out):
        got = quantize_soft(angle)
        assert np.ndim(got) == 0 and got == want


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


def test_quantizer_config_validation():
    with pytest.raises(ValueError):
        QuantizerConfig(temperature=0.0)
    with pytest.raises(ValueError):
        QuantizerConfig(temperature=float("inf"))
