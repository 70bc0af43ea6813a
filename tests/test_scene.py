"""Scene simulator tests, anchored by an independent brute-force field sum."""

import cmath
import contextlib
import json
import warnings
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rispa import scene as sc

# Frozen expected raw intensities, computed by the straight-line double-sum
# oracle below (pure python/cmath, no shared code with the package) before
# the simulator was built.
ALL0_NO_OBSTACLE = (109.61640255296007, 139.9954699359707, 109.61640255296007)
ALL0_WITH_OBSTACLE = (137.54226757956909, 457.4162508482907, 97.27932398248015)
MIXED_PROFILE = (0, 3, 7, 1, 4, 6, 2, 5, 0, 7, 3, 1, 6, 4, 2, 0, 5, 7, 1, 3)
MIXED_WITH_OBSTACLE = (43.33092431816595, 47.524723220600215, 74.10079999313338)


def oracle_intensities(scene: sc.Scene, states) -> list:
    """Brute-force double sum: feed -> column -> (scatterer ->) probe."""
    k = 2.0 * math.pi * scene.frequency / sc.SPEED_OF_LIGHT_M_PER_S
    n = scene.column_count

    def dist(a, b):
        return math.sqrt(sum((a[i] - b[i]) ** 2 for i in range(3)))

    def green(a, b):
        r = dist(a, b)
        return cmath.exp(-1j * k * r) / r

    cols = [((i - (n + 1) / 2.0) * scene.column_pitch, 0.0, 0.0) for i in range(1, n + 1)]
    feed = tuple(scene.feed_position)
    out = []
    for p in scene.probe_positions:
        probe = tuple(p)
        e = 0.0 + 0.0j
        for i in range(n):
            s = int(states[i])
            w = scene.amplitude_table[s] * cmath.exp(1j * math.radians(45.0 * s))
            e += w * green(feed, cols[i]) * green(cols[i], probe)
            if scene.obstacle is not None:
                for q, c in zip(scene.obstacle.positions, scene.obstacle.coefficients):
                    e += w * green(feed, cols[i]) * green(cols[i], tuple(q)) * c * green(tuple(q), probe)
        out.append(abs(e) ** 2)
    return out


# ---------------------------------------------------------------------------
# column_positions
# ---------------------------------------------------------------------------

def test_column_positions_default():
    pos = sc.column_positions(sc.default_scene())
    assert pos.shape == (20, 3)
    assert pos[0, 0] == pytest.approx(-0.1292, abs=1e-12)
    assert pos[-1, 0] == pytest.approx(0.1292, abs=1e-12)
    assert np.all(pos[:, 1:] == 0.0)


def test_column_positions_single_column_at_origin():
    scene = sc.Scene(column_count=1)
    assert np.allclose(sc.column_positions(scene), [[0.0, 0.0, 0.0]])


def test_column_positions_two_columns_symmetric():
    scene = sc.Scene(column_count=2, column_pitch=0.01)
    pos = sc.column_positions(scene)
    assert pos[:, 0] == pytest.approx([-0.005, 0.005])


# ---------------------------------------------------------------------------
# simulate_raw against the oracle
# ---------------------------------------------------------------------------

def test_simulate_raw_matches_frozen_oracle_values():
    scene = sc.default_scene()
    got = sc.simulate_raw(scene, np.zeros(20, dtype=int))
    assert got == pytest.approx(ALL0_NO_OBSTACLE, rel=1e-12)

    with_obs = sc.default_scene(with_obstacle=True)
    got = sc.simulate_raw(with_obs, np.zeros(20, dtype=int))
    assert got == pytest.approx(ALL0_WITH_OBSTACLE, rel=1e-12)

    got = sc.simulate_raw(with_obs, MIXED_PROFILE)
    assert got == pytest.approx(MIXED_WITH_OBSTACLE, rel=1e-12)


def test_simulate_raw_matches_oracle_on_random_profiles():
    scene = sc.default_scene(with_obstacle=True)
    rng = np.random.default_rng(101)
    for _ in range(5):
        states = rng.integers(0, 8, size=20)
        assert sc.simulate_raw(scene, states) == pytest.approx(
            oracle_intensities(scene, states), rel=1e-10
        )


def test_mirror_symmetry_swaps_outer_probes():
    scene = sc.default_scene()  # laterally symmetric, no obstacle
    rng = np.random.default_rng(7)
    for _ in range(5):
        states = rng.integers(0, 8, size=20)
        fwd = sc.simulate_raw(scene, states)
        rev = sc.simulate_raw(scene, states[::-1])
        assert rev[0] == pytest.approx(fwd[2], rel=1e-9)
        assert rev[2] == pytest.approx(fwd[0], rel=1e-9)
        assert rev[1] == pytest.approx(fwd[1], rel=1e-9)


def test_palindromic_profile_gives_equal_outer_probes():
    scene = sc.default_scene()
    states = np.array([1, 4, 2, 7, 0, 5, 3, 6, 2, 2, 2, 2, 6, 3, 5, 0, 7, 2, 4, 1])
    intensities = sc.simulate_raw(scene, states)
    assert intensities[0] == pytest.approx(intensities[2], rel=1e-9)


def test_global_phase_invariance_with_flat_amplitudes():
    scene = sc.Scene(amplitude_table=np.ones(8))
    rng = np.random.default_rng(3)
    states = rng.integers(0, 8, size=20)
    base = sc.simulate_raw(scene, states)
    for delta in range(1, 8):
        shifted = sc.simulate_raw(scene, (states + delta) % 8)
        assert shifted == pytest.approx(base, rel=1e-9)


def test_determinism_and_noise_seed():
    scene = sc.default_scene()
    states = np.arange(20) % 8
    a = sc.simulate_raw(scene, states, noise_seed=99)
    b = sc.simulate_raw(scene, states, noise_seed=99)
    assert np.array_equal(a, b)
    c = sc.simulate_raw(scene, states, noise_seed=100)
    assert not np.array_equal(a, c)
    # noiseless path ignores the generator entirely
    assert np.array_equal(
        sc.simulate_raw(scene, states), sc.simulate_raw(scene, states)
    )


def test_obstacle_changes_most_profiles_by_over_5_percent():
    clean = sc.default_scene()
    dirty = sc.default_scene(with_obstacle=True)
    rng = np.random.default_rng(42)
    changed = 0
    for _ in range(100):
        states = rng.integers(0, 8, size=20)
        a = sc.simulate_raw(clean, states)
        b = sc.simulate_raw(dirty, states)
        if np.any(np.abs(b - a) / a > 0.05):
            changed += 1
    assert changed >= 50


def test_coincident_points_error():
    scene = sc.default_scene()
    scene.probe_positions = sc.column_positions(scene)[:1]  # probe on a column
    with pytest.raises(ValueError, match="coincident points"):
        sc.simulate_raw(scene, np.zeros(20, dtype=int))


# ---------------------------------------------------------------------------
# simulate (normalization)
# ---------------------------------------------------------------------------

def test_simulate_divides_by_i_max():
    scene = sc.default_scene()
    states = np.zeros(20, dtype=int)
    raw = sc.simulate_raw(scene, states)
    for i_max in (4.0, raw.max(), 123.456):
        assert np.array_equal(sc.simulate(scene, states, i_max), raw / i_max)
    normalized = sc.simulate(scene, states, raw.max())
    assert normalized.max() == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_simulate_rejects_nonpositive_i_max(bad):
    scene = sc.default_scene()
    with pytest.raises(ValueError, match="i_max"):
        sc.simulate(scene, np.zeros(20, dtype=int), bad)


# ---------------------------------------------------------------------------
# validation and config I/O
# ---------------------------------------------------------------------------

def test_profile_validation():
    scene = sc.default_scene()
    with pytest.raises(ValueError, match="20 states"):
        sc.validate_profile(scene, np.zeros(19, dtype=int))
    with pytest.raises(ValueError, match="0..7"):
        sc.validate_profile(scene, np.full(20, 8))


def test_amplitude_table_validation():
    with pytest.raises(ValueError, match="amplitude"):
        sc.Scene(amplitude_table=np.full(8, 1.5))  # > 1
    with pytest.raises(ValueError, match="spread"):
        table = np.ones(8)
        table[7] = 10 ** (-2.5 / 20)  # 2.5 dB below the max
        sc.Scene(amplitude_table=table)


def test_default_amplitude_table_spread_is_1p7_db():
    table = sc.default_amplitude_table()
    spread = 20 * np.log10(table.max() / table.min())
    assert spread == pytest.approx(1.7, abs=1e-9)
    assert np.all((table > 0) & (table <= 1))


def test_scene_config_round_trip(tmp_path):
    scene = sc.default_scene(with_obstacle=True)
    path = tmp_path / "scene.json"
    sc.save_scene(scene, path)
    loaded = sc.load_scene(path)
    assert sc.scene_digest(loaded) == sc.scene_digest(scene)
    states = np.arange(20) % 8
    assert np.array_equal(sc.simulate_raw(loaded, states), sc.simulate_raw(scene, states))


def test_scene_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text('{"frequency_hz": 1e10, "bogus": 1}')
    with pytest.raises(ValueError, match="bogus"):
        sc.load_scene(path)


def test_obstacle_block_is_optional():
    d = sc.scene_to_dict(sc.default_scene())
    assert "obstacle" not in d
    assert sc.scene_from_dict(d).obstacle is None


def test_scenes_differ_only_in_obstacle():
    a = sc.default_scene()
    b = sc.default_scene(with_obstacle=True)
    assert sc.scenes_differ_only_in_obstacle(a, b)
    assert sc.scenes_differ_only_in_obstacle(a, a)
    c = sc.default_scene()
    c.noise_sigma = 0.5
    assert not sc.scenes_differ_only_in_obstacle(a, c)


MALFORMED_SCENES = {
    "empty-obstacle": {"obstacle": {}},
    "null-column-count": {"column_count": None},
    "top-level-list": [{"frequency_hz": 1e10}],
    "unpaired-coefficient": {"obstacle": {"positions_m": [[0.0, 0.0, 0.5]], "coefficients": [1]}},
    "fractional-column-count": {"column_count": 2.5},
    "huge-column-count": {"column_count": 10 ** 9},
    "planar-probes": {"probe_positions_m": [[0.0, 1.0], [0.3, 1.0]]},
    "two-d-feed": {"feed_position_m": [0.0, 0.5]},
    "nan-frequency": {"frequency_hz": float("nan")},
    "huge-noise": {"noise_sigma": 1e308},
    "obstacle-in-plane": {"obstacle": {"positions_m": [[0.0, 0.5]], "coefficients": [[0.1, 0.0]]}},
}


@pytest.mark.parametrize("case", MALFORMED_SCENES)
def test_malformed_scene_configs_are_value_errors(tmp_path, case):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(MALFORMED_SCENES[case]))
    with pytest.raises(ValueError):
        sc.load_scene(path)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_POINT = st.lists(st.floats(-2.0, 2.0) | _JSON, min_size=2, max_size=4)
_SCENE_LIKE = st.fixed_dictionaries({}, optional={
    "frequency_hz": st.floats() | _JSON,
    "column_count": st.integers(-2, 40) | _JSON,
    "column_pitch_m": st.floats() | _JSON,
    "feed_position_m": _POINT | _JSON,
    "probe_positions_m": st.lists(_POINT, max_size=3) | _JSON,
    "noise_sigma": st.floats() | _JSON,
    "amplitude_table": st.lists(st.floats(0.0, 1.5), max_size=9) | _JSON,
    "obstacle": st.fixed_dictionaries({}, optional={
        "positions_m": st.lists(_POINT, max_size=3) | _JSON,
        "coefficients": st.lists(st.lists(st.floats(), max_size=3) | _JSON, max_size=3) | _JSON,
    }) | _JSON,
})


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_SCENE_LIKE | _JSON)
def test_scene_loader_raises_only_value_errors(tmp_path, doc):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    with contextlib.suppress(ValueError):
        sc.scene_from_dict(doc)
    with contextlib.suppress(ValueError):
        sc.load_scene(path)


@pytest.mark.parametrize("overrides", [
    {"feed_position_m": [1e308, 0.0, 1.0]},
    {"probe_positions_m": [[1e308, 0.0, 1.0]]},
    {"probe_positions_m": [[0.0, -1001.0, 1.0]]},
    {"column_pitch_m": 1e306},
    {"column_count": 4096, "column_pitch_m": 0.5},
    {"obstacle": {"positions_m": [[0.0, 0.0, 1e308]], "coefficients": [[0.1, 0.0]]}},
    {"amplitude_table": [1.0] * 7 + [5e-324]},
])
def test_far_coordinates_are_rejected_without_warnings(overrides):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            sc.scene_from_dict(overrides)


def test_coordinates_at_the_bound_still_measure():
    bound = sc.MAX_COORDINATE_M
    scene = sc.scene_from_dict({"probe_positions_m": [[bound, -bound, bound]],
                                "feed_position_m": [0.0, 0.0, -bound]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        raw = sc.simulate_raw(scene, np.zeros(20, dtype=int), noise_seed=1)
    assert np.all(np.isfinite(raw)) and np.all(raw > 0.0)
