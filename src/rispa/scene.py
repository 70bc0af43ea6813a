"""Scalar-wave scattering scene: the virtual experiment.

A line of phase-controlled point radiators (the surface columns) is fed by a
point source; fixed probes record field intensity. Propagation is spherical
spreading exp(-jk r)/r, and an optional set of point scatterers (the obstacle)
adds a single-bounce Born term on the column -> probe leg. Deliberately
simple: rich enough that the obstacle matters and the learning problem is
nontrivial, cheap enough to "measure" tens of thousands of configurations in
seconds.

Scene config files are JSON with the following schema (all keys optional,
defaults below; the obstacle block may be omitted entirely)::

    {
      "frequency_hz": 1.1e10,
      "column_count": 20,
      "column_pitch_m": 0.0136,
      "feed_position_m": [0.0, 0.0, 0.5],
      "probe_positions_m": [[-0.3, 0.0, 1.0], [0.0, 0.0, 1.0], [0.3, 0.0, 1.0]],
      "noise_sigma": 0.01,
      "amplitude_table": [1.0, ...],            # 8 linear amplitudes
      "obstacle": {
        "positions_m": [[x, y, z], ...],
        "coefficients": [[re, im], ...]
      }
    }
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .atomic import atomic_write
from .seeding import default_rngs

SPEED_OF_LIGHT_M_PER_S = 299792458.0

STATE_COUNT = 8
STATE_STEP_DEG = 45.0

# largest allowed linear-amplitude spread across the 8 states, in dB
MAX_AMPLITUDE_SPREAD_DB = 1.7

# largest relative standard deviation of the intensity noise: 100%
MAX_NOISE_SIGMA = 1.0

# bounds the arrays a scene file can make the simulator allocate
MAX_COLUMN_COUNT = 4096

# bounds every coordinate, in meters: the scene is a 1-m desk set-up, and distances
# between points this far apart stay far from float overflow
MAX_COORDINATE_M = 1000.0


def _check_coordinates(name: str, points: np.ndarray) -> None:
    if not np.all(np.isfinite(points)):
        raise ValueError(f"{name} must be finite")
    if np.any(np.abs(points) > MAX_COORDINATE_M):
        raise ValueError(f"{name} must lie within {MAX_COORDINATE_M:g} m of the origin on each axis")


def state_phases_deg(states: np.ndarray) -> np.ndarray:
    """Reflection phase of each discrete state, in degrees (index * 45)."""
    return np.asarray(states, dtype=float) * STATE_STEP_DEG


def default_amplitude_table() -> np.ndarray:
    """dB-linear amplitude ramp: state s reflects at -1.7*s/(STATE_COUNT - 1) dB (max spread 1.7 dB)."""
    s = np.arange(STATE_COUNT, dtype=float)
    return 10.0 ** (-MAX_AMPLITUDE_SPREAD_DB * s / ((STATE_COUNT - 1) * 20.0))


@dataclass
class Obstacle:
    """Point scatterers with complex single-scattering coefficients."""

    positions: np.ndarray    # (m, 3) meters
    coefficients: np.ndarray  # (m,) complex, dimensionless

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        self.coefficients = np.atleast_1d(np.asarray(self.coefficients, dtype=complex))
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError("obstacle positions must be [x, y, z] points")
        if self.positions.shape[0] != self.coefficients.shape[0]:
            raise ValueError("obstacle positions and coefficients must pair up")
        _check_coordinates("obstacle positions", self.positions)
        mags = np.abs(self.coefficients)
        if not np.all(np.isfinite(mags)) or np.any(mags <= 0.0):
            raise ValueError("obstacle coefficients must be finite and nonzero")


def default_obstacle() -> Obstacle:
    """12 scatterers on the perimeter of a 0.2 m x 0.2 m frame.

    The frame lies in the x-y plane at z = 0.5 m, centered at (0.05, 0, 0.5),
    i.e. transverse to the surface -> probe path, slightly off axis. Points
    are spaced uniformly by arc length starting at the (-x, -y) corner.
    Coefficient 0.05 + 0j for every point.
    """
    cx, cy, cz = 0.05, 0.0, 0.5
    half = 0.1
    corners = np.array([
        [cx - half, cy - half],
        [cx + half, cy - half],
        [cx + half, cy + half],
        [cx - half, cy + half],
    ])
    n_points = 12
    step = (8.0 * half) / n_points
    pts = np.empty((n_points, 3))
    for m in range(n_points):
        d = m * step
        side = int(d // (2.0 * half))
        frac = (d - side * 2.0 * half) / (2.0 * half)
        a = corners[side]
        b = corners[(side + 1) % 4]
        pts[m, :2] = a + frac * (b - a)
        pts[m, 2] = cz
    return Obstacle(positions=pts, coefficients=np.full(n_points, 0.05 + 0.0j))


@dataclass
class Scene:
    """Geometry and measurement model of the virtual experiment.

    Distances in meters, frequency in Hz. ``noise_sigma`` is the relative
    standard deviation of the multiplicative intensity noise applied when a
    noise seed is supplied to the simulator.
    """

    frequency: float = 1.1e10
    column_count: int = 20
    column_pitch: float = 0.0136
    feed_position: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 0.5]))
    probe_positions: np.ndarray = field(
        default_factory=lambda: np.array([[-0.3, 0.0, 1.0], [0.0, 0.0, 1.0], [0.3, 0.0, 1.0]])
    )
    obstacle: Optional[Obstacle] = None
    noise_sigma: float = 0.01
    amplitude_table: np.ndarray = field(default_factory=default_amplitude_table)

    def __post_init__(self):
        self.feed_position = np.asarray(self.feed_position, dtype=float)
        self.probe_positions = np.atleast_2d(np.asarray(self.probe_positions, dtype=float))
        self.amplitude_table = np.asarray(self.amplitude_table, dtype=float)
        self.validate()

    def validate(self):
        if self.feed_position.shape != (3,):
            raise ValueError("feed_position must be one [x, y, z] point")
        if self.probe_positions.ndim != 2 or self.probe_positions.shape[1] != 3:
            raise ValueError("probe_positions must be [x, y, z] points")
        if not all(np.all(np.isfinite(v)) for v in (
                self.frequency, self.column_pitch, self.noise_sigma,
                self.feed_position, self.probe_positions, self.amplitude_table)):
            raise ValueError("scene values must be finite")
        if self.frequency <= 0.0:
            raise ValueError("frequency must be positive")
        if not 1 <= self.column_count <= MAX_COLUMN_COUNT:
            raise ValueError(f"column_count must lie in 1..{MAX_COLUMN_COUNT}")
        if self.column_pitch <= 0.0:
            raise ValueError("column_pitch must be positive")
        if float(self.column_pitch) * (self.column_count - 1) / 2.0 > MAX_COORDINATE_M:
            raise ValueError(f"columns must lie within {MAX_COORDINATE_M:g} m of the origin")
        _check_coordinates("feed_position", self.feed_position)
        _check_coordinates("probe_positions", self.probe_positions)
        if self.probe_positions.shape[0] < 1:
            raise ValueError("at least one probe is required")
        if not 0.0 <= self.noise_sigma <= MAX_NOISE_SIGMA:
            raise ValueError(f"noise_sigma must lie in [0, {MAX_NOISE_SIGMA:g}]")
        if self.amplitude_table.shape != (STATE_COUNT,):
            raise ValueError(f"amplitude_table must hold {STATE_COUNT} values")
        if np.any(self.amplitude_table <= 0.0) or np.any(self.amplitude_table > 1.0):
            raise ValueError("amplitudes must lie in (0, 1]")
        # a difference of logs: the ratio of a subnormal amplitude would overflow
        spread_db = 20.0 * (np.log10(self.amplitude_table.max()) - np.log10(self.amplitude_table.min()))
        if spread_db > MAX_AMPLITUDE_SPREAD_DB + 1e-9:
            raise ValueError(f"amplitude spread {spread_db:.3f} dB exceeds {MAX_AMPLITUDE_SPREAD_DB} dB")
        cols = column_positions(self)
        for name, pos in [("feed", self.feed_position[None, :]), ("probe", self.probe_positions)]:
            d = np.linalg.norm(pos[:, None, :] - cols[None, :, :], axis=-1)
            if np.any(d < 1e-9):
                raise ValueError(f"{name} position coincides with a column")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT_M_PER_S / self.frequency

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength

    @property
    def probe_count(self) -> int:
        return self.probe_positions.shape[0]


def default_scene(with_obstacle: bool = False) -> Scene:
    """The canonical 20-column / 3-probe scene, optionally with the frame obstacle."""
    return Scene(obstacle=default_obstacle() if with_obstacle else None)


def validate_profile(scene: Scene, states) -> np.ndarray:
    states = np.asarray(states)
    if states.shape != (scene.column_count,):
        raise ValueError(
            f"profile must hold {scene.column_count} states, got shape {states.shape}"
        )
    states = states.astype(int)
    if np.any(states < 0) or np.any(states >= STATE_COUNT):
        raise ValueError(f"state indices must lie in 0..{STATE_COUNT - 1}")
    return states


def column_positions(scene: Scene) -> np.ndarray:
    """Column phase centers on the lateral axis, centered on the origin.

    x_i = (i - (N+1)/2) * pitch for i = 1..N, with y = z = 0.
    """
    n = scene.column_count
    i = np.arange(1, n + 1, dtype=float)
    pos = np.zeros((n, 3))
    pos[:, 0] = (i - (n + 1) / 2.0) * scene.column_pitch
    return pos


def _greens(a: np.ndarray, b: np.ndarray, k: float) -> np.ndarray:
    """Spherical spreading exp(-jk|a-b|)/|a-b| between two point sets."""
    r = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)
    if np.any(r < 1e-9):
        raise ValueError("coincident points")
    return np.exp(-1j * k * r) / r


def transfer_matrix(scene: Scene) -> np.ndarray:
    """Complex (probes x columns) map from column excitations to probe fields.

    T[p, i] = G(feed, r_i) * [ G(r_i, probe_p) + sum_q G(r_i, q) c_q G(q, probe_p) ],
    with G(a, b) = exp(-jk|a-b|)/|a-b|. Purely geometric, so ``measure``
    computes it once for a whole batch of profiles.
    """
    k = scene.wavenumber
    cols = column_positions(scene)
    g_feed = _greens(scene.feed_position[None, :], cols, k)[0]      # (N,)
    g_cp = _greens(cols, scene.probe_positions, k)                  # (N, P)
    reach = g_cp
    if scene.obstacle is not None:
        g_cq = _greens(cols, scene.obstacle.positions, k)           # (N, M)
        g_qp = _greens(scene.obstacle.positions, scene.probe_positions, k)  # (M, P)
        reach = g_cp + (g_cq * scene.obstacle.coefficients[None, :]) @ g_qp
    return (g_feed[:, None] * reach).T                              # (P, N)


def column_weights(scene: Scene, states: np.ndarray) -> np.ndarray:
    """Per-column complex excitation A(s) * exp(j phi(s)) for one or many profiles."""
    states = np.asarray(states, dtype=int)
    phases = np.radians(state_phases_deg(states))
    return scene.amplitude_table[states] * np.exp(1j * phases)


def measure(scene: Scene, profiles, noise_seeds=None) -> np.ndarray:
    """Raw probe intensities, one row per profile, from one transfer matrix.

    With ``noise_seeds``, row i is multiplied by (1 + noise_sigma * n), n drawn
    standard normal from the stream of ``default_rng(noise_seeds[i])``, then
    clamped at zero. The generators come from ``seeding.default_rngs``, which
    hashes the PCG64 states of all rows in one pass instead of making one
    ``SeedSequence`` per row. The column weights are computed for the whole
    batch, but the product with the transfer matrix stays one row at a time
    because one (n, N) @ (N, P) product rounds differently in the last bits.
    """
    t = transfer_matrix(scene)
    weights = column_weights(scene, profiles)
    rngs = None
    if noise_seeds is not None:
        if len(noise_seeds) != len(weights):
            raise ValueError("measure needs one noise seed per profile")
        rngs = default_rngs(noise_seeds)
    out = np.empty((len(weights), scene.probe_count))
    for i, w in enumerate(weights):
        intensities = np.abs(t @ w) ** 2
        if rngs is not None:
            noise = next(rngs).standard_normal(scene.probe_count)
            intensities = np.maximum(intensities * (1.0 + scene.noise_sigma * noise), 0.0)
        out[i] = intensities
    return out


def simulate_raw(scene: Scene, profile, noise_seed: Optional[int] = None) -> np.ndarray:
    """Raw (unnormalized) probe intensities for one phase profile.

    ``noise_seed`` applies the measurement noise of ``measure``. Identical
    (scene, profile, seed) inputs produce bit-identical output.
    """
    states = validate_profile(scene, profile)
    return measure(scene, states[None], None if noise_seed is None else [noise_seed])[0]


def simulate(scene: Scene, profile, i_max: float, noise_seed: Optional[int] = None) -> np.ndarray:
    """Normalized probe intensities: simulate_raw values divided by ``i_max``."""
    if not i_max > 0.0:
        raise ValueError("i_max must be positive")
    return simulate_raw(scene, profile, noise_seed) / i_max


# ---------------------------------------------------------------------------
# Scene config file I/O
# ---------------------------------------------------------------------------

def scene_to_dict(scene: Scene) -> dict:
    d = {
        "frequency_hz": scene.frequency,
        "column_count": scene.column_count,
        "column_pitch_m": scene.column_pitch,
        "feed_position_m": scene.feed_position.tolist(),
        "probe_positions_m": scene.probe_positions.tolist(),
        "noise_sigma": scene.noise_sigma,
        "amplitude_table": scene.amplitude_table.tolist(),
    }
    if scene.obstacle is not None:
        d["obstacle"] = {
            "positions_m": scene.obstacle.positions.tolist(),
            "coefficients": [[c.real, c.imag] for c in scene.obstacle.coefficients],
        }
    return d


def scene_from_dict(d) -> Scene:
    """Build a Scene from a config document; a malformed document raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError("scene config is not a JSON object")
    known = {
        "frequency_hz", "column_count", "column_pitch_m", "feed_position_m",
        "probe_positions_m", "noise_sigma", "amplitude_table", "obstacle",
    }
    unknown = set(d) - known
    if unknown:
        raise ValueError(f"unknown scene config keys: {sorted(unknown)}")
    base = default_scene()
    columns = d.get("column_count", base.column_count)
    if type(columns) is not int:
        raise ValueError(f"column_count must be an integer, not {columns!r}")
    try:
        obstacle = None
        if d.get("obstacle") is not None:
            ob = d["obstacle"]
            coeffs = np.array([complex(re, im) for re, im in ob["coefficients"]])
            obstacle = Obstacle(positions=np.array(ob["positions_m"]), coefficients=coeffs)
        return Scene(
            frequency=float(d.get("frequency_hz", base.frequency)),
            column_count=columns,
            column_pitch=float(d.get("column_pitch_m", base.column_pitch)),
            feed_position=np.array(d.get("feed_position_m", base.feed_position)),
            probe_positions=np.array(d.get("probe_positions_m", base.probe_positions)),
            obstacle=obstacle,
            noise_sigma=float(d.get("noise_sigma", base.noise_sigma)),
            amplitude_table=np.array(d.get("amplitude_table", base.amplitude_table)),
        )
    except (KeyError, TypeError, OverflowError) as e:
        raise ValueError(f"malformed scene config: {e!r}") from e


def save_scene(scene: Scene, path) -> None:
    with atomic_write(path) as f:
        json.dump(scene_to_dict(scene), f, indent=2)
        f.write("\n")


def load_scene(path) -> Scene:
    with open(path, "r", encoding="utf-8") as f:
        try:
            d = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"scene config parse error in {path}: {e}") from e
    return scene_from_dict(d)


def scene_digest(scene: Scene) -> str:
    """SHA-256 of the canonical JSON form; stable across load/save round-trips."""
    text = json.dumps(scene_to_dict(scene), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def scenes_differ_only_in_obstacle(a: Scene, b: Scene) -> bool:
    da, db = scene_to_dict(a), scene_to_dict(b)
    da.pop("obstacle", None)
    db.pop("obstacle", None)
    return da == db
