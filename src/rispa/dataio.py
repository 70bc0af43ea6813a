"""Dataset generation, normalization, splitting, and JSONL persistence.

Measurement datasets pair random phase profiles with the probe intensities
the scene "measured" for them; target datasets hold requested intensity
triples. Files are JSON-lines: one header line with the normalization
constant and provenance, then one record per line. Profiles persist as state
indices (lossless), floats as shortest-round-trip decimals.

All randomness flows from explicit integer seeds; per-record noise seeds are
derived deterministically from the collection seed and the record index, so
each record is reproducible on its own.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
from dataclasses import dataclass
import numpy as np

from .atomic import atomic_write
from .scene import STATE_COUNT, Scene, measure, scene_digest

logger = logging.getLogger(__name__)

SCATTER_FORMAT = "rispa-scatter-dataset"
TARGET_FORMAT = "rispa-target-dataset"
FORMAT_VERSION = 1

DEFAULT_TARGET_LOW = 0.0
DEFAULT_TARGET_HIGH = 0.6


def derive_seed(master: int, *keys: int) -> int:
    """Stable child seed from a master seed and integer keys (order matters)."""
    ss = np.random.SeedSequence([int(master), *[int(k) for k in keys]])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


class DatasetFormatError(ValueError):
    """Malformed dataset file; ``line`` is the 1-based offending line number."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


@dataclass
class ScatterDataset:
    """(profile, raw intensity) records plus the dataset-wide normalizer.

    ``normalized`` is always raw / i_max; splits keep the parent's i_max so
    every subset lives on the scale of the full collection.
    """

    profiles: np.ndarray   # (n, columns) int
    raw: np.ndarray        # (n, probes) float
    i_max: float
    seed: int
    scene_digest: str

    def __post_init__(self):
        self.profiles = np.asarray(self.profiles, dtype=int)
        self.raw = np.asarray(self.raw, dtype=float)
        if self.profiles.ndim != 2 or self.raw.ndim != 2:
            raise ValueError("profiles and raw must be 2-D")
        if len(self.profiles) != len(self.raw):
            raise ValueError("profiles and raw must have equal length")
        if len(self.profiles) == 0:
            raise ValueError("dataset must hold at least one record")
        if not self.i_max > 0.0:
            raise ValueError("i_max must be positive")

    def __len__(self) -> int:
        return len(self.profiles)

    @property
    def normalized(self) -> np.ndarray:
        return self.raw / self.i_max

    def subset(self, indices) -> "ScatterDataset":
        return ScatterDataset(
            profiles=self.profiles[indices],
            raw=self.raw[indices],
            i_max=self.i_max,
            seed=self.seed,
            scene_digest=self.scene_digest,
        )

    def fraction_below(self, threshold: float = DEFAULT_TARGET_HIGH) -> np.ndarray:
        """Per-probe fraction of normalized intensities under ``threshold``."""
        return (self.normalized < threshold).mean(axis=0)

    def digest(self) -> str:
        buf = io.StringIO()
        _write_scatter(self, buf)
        return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


@dataclass
class TargetDataset:
    targets: np.ndarray    # (n, probes) float
    low: float = DEFAULT_TARGET_LOW
    high: float = DEFAULT_TARGET_HIGH
    seed: int = 0

    def __post_init__(self):
        self.targets = np.asarray(self.targets, dtype=float)
        if self.targets.ndim != 2 or len(self.targets) == 0:
            raise ValueError("targets must be a non-empty 2-D array")
        if not self.low < self.high:
            raise ValueError("low must be < high")
        if self.targets.min() < self.low - 1e-12 or self.targets.max() > self.high + 1e-12:
            raise ValueError("target components must lie in [low, high]")

    def __len__(self) -> int:
        return len(self.targets)

    def subset(self, indices) -> "TargetDataset":
        return TargetDataset(
            targets=self.targets[indices], low=self.low, high=self.high, seed=self.seed
        )

    def digest(self) -> str:
        buf = io.StringIO()
        _write_targets(self, buf)
        return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float
    val_fraction: float
    test_fraction: float

    def __post_init__(self):
        fracs = (self.train_fraction, self.val_fraction, self.test_fraction)
        if any(f <= 0.0 for f in fracs):
            raise ValueError("split fractions must be positive")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError(f"split fractions must sum to 1, got {sum(fracs)}")


# 8100 / 900 / 1000 out of 10000 measurements
SCATTER_SPLIT = SplitSpec(0.81, 0.09, 0.10)
# 40500 / 4500 / 3000 out of 48000 targets
TARGET_SPLIT = SplitSpec(0.84375, 0.09375, 0.0625)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

_NOISE_KEY = 7001  # namespaces per-record noise seeds under the collection seed


def collect(scene: Scene, count: int, seed: int) -> ScatterDataset:
    """Simulate ``count`` uniformly random profiles and normalize by the max.

    Profiles are drawn i.i.d. uniform over the 8^columns state space. Each
    record gets its own derived noise seed (skipped when the scene is
    noiseless), so the dataset is reproducible from (scene, count, seed).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    profiles = rng.integers(0, STATE_COUNT, size=(count, scene.column_count))
    noise_seeds = None
    if scene.noise_sigma > 0.0:
        noise_seeds = [derive_seed(seed, _NOISE_KEY, i) for i in range(count)]
    raw = measure(scene, profiles, noise_seeds)

    ds = ScatterDataset(
        profiles=profiles,
        raw=raw,
        i_max=float(raw.max()),
        seed=seed,
        scene_digest=scene_digest(scene),
    )
    fracs = ds.fraction_below(DEFAULT_TARGET_HIGH)
    logger.info(
        "collected %d records, i_max=%.6g, fraction below %.1f per probe: %s",
        count, ds.i_max, DEFAULT_TARGET_HIGH,
        ", ".join(f"{f:.1%}" for f in fracs),
    )
    return ds


def split_sizes(n: int, spec: SplitSpec):
    """(train, val, test) sizes: round(f*n) each, remainder to test, none empty."""
    if n < 3:
        raise ValueError("dataset too small to split three ways")
    n_train = int(round(spec.train_fraction * n))
    n_val = int(round(spec.val_fraction * n))
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(f"empty partition for n={n} and {spec}")
    return n_train, n_val, n_test


def split(dataset, spec: SplitSpec, seed: int):
    """Seeded shuffle then contiguous cut at ``split_sizes``."""
    n = len(dataset)
    n_train, n_val, _ = split_sizes(n, spec)
    perm = np.random.default_rng(seed).permutation(n)
    return (
        dataset.subset(perm[:n_train]),
        dataset.subset(perm[n_train:n_train + n_val]),
        dataset.subset(perm[n_train + n_val:]),
    )


def generate_targets(
    count: int,
    low: float = DEFAULT_TARGET_LOW,
    high: float = DEFAULT_TARGET_HIGH,
    seed: int = 0,
    probes: int = 3,
) -> TargetDataset:
    """i.i.d. uniform target intensities with components in [low, high]."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if not low < high:
        raise ValueError("low must be < high")
    rng = np.random.default_rng(seed)
    return TargetDataset(
        targets=rng.uniform(low, high, size=(count, probes)), low=low, high=high, seed=seed
    )


# ---------------------------------------------------------------------------
# Persistence (JSON lines)
# ---------------------------------------------------------------------------

def _write_scatter(ds: ScatterDataset, f) -> None:
    header = {
        "format": SCATTER_FORMAT,
        "version": FORMAT_VERSION,
        "count": len(ds),
        "column_count": int(ds.profiles.shape[1]),
        "i_max": ds.i_max,
        "seed": ds.seed,
        "scene_digest": ds.scene_digest,
    }
    f.write(json.dumps(header) + "\n")
    for profile, raw in zip(ds.profiles, ds.raw):
        f.write(json.dumps({"profile": profile.tolist(), "raw": raw.tolist()}) + "\n")


def save_scatter(ds: ScatterDataset, path) -> None:
    with atomic_write(path) as f:
        _write_scatter(ds, f)


def _parse_json_line(path, line_no: int, text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise DatasetFormatError(path, line_no, f"invalid JSON: {e.msg}") from e
    if not isinstance(obj, dict):
        raise DatasetFormatError(path, line_no, "expected a JSON object")
    return obj


def _header_positive_int(path, header: dict, key: str) -> int:
    value = header.get(key)
    if not isinstance(value, int) or value < 1:
        raise DatasetFormatError(path, 1, f"header {key} must be a positive integer")
    return value


def _read_records(path, f, expected_format: str):
    first = f.readline()
    if not first.strip():
        raise DatasetFormatError(path, 1, "missing header line")
    header = _parse_json_line(path, 1, first)
    if header.get("format") != expected_format:
        raise DatasetFormatError(path, 1, f"not a {expected_format} file")
    if header.get("version") != FORMAT_VERSION:
        raise DatasetFormatError(path, 1, f"unsupported version {header.get('version')!r}")
    count = _header_positive_int(path, header, "count")
    records = []
    for i in range(count):
        line_no = i + 2
        text = f.readline()
        if not text:
            raise DatasetFormatError(
                path, line_no, f"file truncated: expected {count} records, found {i}"
            )
        records.append(_parse_json_line(path, line_no, text))
    return header, records


def load_scatter(path, expected_scene_digest: str | None = None) -> ScatterDataset:
    """Load a measurement dataset; validates shapes and the header contract.

    If ``expected_scene_digest`` is given and differs from the stored one, a
    warning is logged (the data still loads; downstream stages decide whether
    a mismatch is fatal).
    """
    with open(path, "r", encoding="utf-8") as f:
        header, records = _read_records(path, f, SCATTER_FORMAT)
    cols = _header_positive_int(path, header, "column_count")
    profiles = np.empty((len(records), cols), dtype=int)
    raw = np.empty((len(records), len(records[0].get("raw", []))))
    for i, rec in enumerate(records):
        line_no = i + 2
        profile = rec.get("profile")
        if not isinstance(profile, list) or len(profile) != cols:
            raise DatasetFormatError(
                path, line_no,
                f"profile must hold {cols} states, got {len(profile) if isinstance(profile, list) else profile!r}",
            )
        if any((not isinstance(s, int)) or s < 0 or s >= STATE_COUNT for s in profile):
            raise DatasetFormatError(path, line_no, "state indices must be integers in 0..7")
        values = rec.get("raw")
        if not isinstance(values, list) or len(values) != raw.shape[1]:
            raise DatasetFormatError(path, line_no, "raw intensity triple malformed")
        profiles[i] = profile
        raw[i] = values
    ds = ScatterDataset(
        profiles=profiles,
        raw=raw,
        i_max=float(header["i_max"]),
        seed=int(header["seed"]),
        scene_digest=str(header["scene_digest"]),
    )
    if expected_scene_digest is not None and ds.scene_digest != expected_scene_digest:
        logger.warning(
            "scene digest mismatch: dataset %s was collected on %.12s..., expected %.12s...",
            path, ds.scene_digest, expected_scene_digest,
        )
    return ds


def _write_targets(ds: TargetDataset, f) -> None:
    header = {
        "format": TARGET_FORMAT,
        "version": FORMAT_VERSION,
        "count": len(ds),
        "low": ds.low,
        "high": ds.high,
        "seed": ds.seed,
    }
    f.write(json.dumps(header) + "\n")
    for t in ds.targets:
        f.write(json.dumps({"target": t.tolist()}) + "\n")


def save_targets(ds: TargetDataset, path) -> None:
    with atomic_write(path) as f:
        _write_targets(ds, f)


def load_targets(path) -> TargetDataset:
    with open(path, "r", encoding="utf-8") as f:
        header, records = _read_records(path, f, TARGET_FORMAT)
    width = len(records[0].get("target", []))
    targets = np.empty((len(records), width))
    for i, rec in enumerate(records):
        t = rec.get("target")
        if not isinstance(t, list) or len(t) != width:
            raise DatasetFormatError(path, i + 2, "target triple malformed")
        targets[i] = t
    return TargetDataset(
        targets=targets,
        low=float(header["low"]),
        high=float(header["high"]),
        seed=int(header["seed"]),
    )
