"""Dataset generation, normalization, splitting, and JSONL persistence.

Measurement datasets pair random phase profiles with the probe intensities
the scene "measured" for them; target datasets hold requested intensity
triples. Files are JSON-lines: one header line with the normalization
constant and provenance, then one record per line. Profiles persist as state
indices (lossless), floats as shortest-round-trip decimals.

All randomness flows from explicit integer seeds; per-record noise seeds are
derived deterministically from the collection seed and the record index, so
each record is reproducible on its own. ``derive_seed`` takes the record
indices as one array and hashes every seed in one vectorized pass, with the
same values as one ``SeedSequence`` per record.

The writer formats records a block of a hundred at a time: one
``json.dumps`` per array and block, split at the row breaks, gives the bytes
of one ``json.dumps`` per record. ``digest()`` hashes the same blocks, so it
equals the SHA-256 of the saved file without building the file in memory.
The dataset classes refuse at construction what the loaders refuse in a
file (states outside 0..7, non-finite values), so a saved dataset loads.

The loaders trust nothing in a file: every header value and every number is
type-checked and must be finite, and any violation is a ``DatasetFormatError``
naming the offending line. One table of rules, read through ``file_field``,
checks the header fields and the provenance fields of model files. Each line
is parsed on its own, so a record split over two lines is refused. The checks
run on whole columns at once; only when one fails does a per-record scan find
the first offending line.
"""

from __future__ import annotations

import hashlib
import json
import logging
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .atomic import atomic_write
from .scene import MAX_COLUMN_COUNT, STATE_COUNT, Scene, check_states, measure, scene_digest
from .seeding import seed_states

logger = logging.getLogger(__name__)

SCATTER_FORMAT = "rispa-scatter-dataset"
TARGET_FORMAT = "rispa-target-dataset"
FORMAT_VERSION = 1

DEFAULT_TARGET_LOW = 0.0
DEFAULT_TARGET_HIGH = 0.6


def derive_seed(master: int, *keys):
    """Stable child seed from a master seed and integer keys (order matters).

    Equals ``SeedSequence([master, *keys]).generate_state(1, np.uint64)[0]`` as a
    Python int. The last key may be a 1-D integer array; the result is then a
    uint64 array holding one child seed per entry, hashed in one pass.
    """
    *prefix, last = (master, *keys)
    batch = np.ndim(last) == 1
    seeds = seed_states(prefix, last if batch else np.array([int(last)], dtype=object), 1)[:, 0]
    return seeds if batch else int(seeds[0])


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
        profiles = np.asarray(self.profiles)
        self.raw = np.asarray(self.raw, dtype=float)
        if profiles.ndim != 2 or self.raw.ndim != 2:
            raise ValueError("profiles and raw must be 2-D")
        if len(profiles) != len(self.raw):
            raise ValueError("profiles and raw must have equal length")
        # the loader's contract, so that nothing saved is refused on load
        if profiles.size == 0 or self.raw.size == 0:
            raise ValueError("dataset must hold at least one record, state and intensity")
        self.profiles = check_states(profiles).astype(int, copy=False)
        if not np.isfinite(self.raw).all():
            raise ValueError("raw intensities must be finite")
        if not 0.0 < self.i_max < np.inf:
            raise ValueError("i_max must be positive and finite")

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
        """SHA-256 of the file ``save_scatter`` writes."""
        return _sha256(_scatter_blocks(self))


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
        if not (np.isfinite(self.targets).all() and np.isfinite([self.low, self.high]).all()):
            raise ValueError("targets and their range must be finite")
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
        """SHA-256 of the file ``save_targets`` writes."""
        return _sha256(_target_blocks(self))


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
        noise_seeds = derive_seed(seed, _NOISE_KEY, np.arange(count))
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

_BLOCK_ROWS = 100  # records per block of text, written or hashed at once


def _jsonl_blocks(header: dict, fields: dict):
    """JSON-lines text in blocks of up to ``_BLOCK_ROWS`` records, header first.

    Record i is ``json.dumps({key: array[i].tolist() for key, array in fields.items()})``.
    Each block dumps its rows of every array in one ``json.dumps`` call and
    splits that text at the row breaks, which gives the same bytes as one
    call per record. Small blocks keep the transient text and per-line strings
    small, so they reuse freed memory instead of growing the heap.
    """
    yield json.dumps(header) + "\n"
    line = "{" + ", ".join(f"{json.dumps(key)}: [%s]" for key in fields) + "}\n"
    arrays = list(fields.values())
    for start in range(0, len(arrays[0]), _BLOCK_ROWS):
        rows = [json.dumps(a[start:start + _BLOCK_ROWS].tolist())[2:-2].split("], [")
                for a in arrays]
        yield "".join([line % texts for texts in zip(*rows)])


def _sha256(blocks) -> str:
    h = hashlib.sha256()
    for block in blocks:
        h.update(block.encode("utf-8"))
    return h.hexdigest()


def _scatter_blocks(ds: ScatterDataset):
    header = {
        "format": SCATTER_FORMAT,
        "version": FORMAT_VERSION,
        "count": len(ds),
        "column_count": int(ds.profiles.shape[1]),
        "i_max": ds.i_max,
        "seed": ds.seed,
        "scene_digest": ds.scene_digest,
    }
    return _jsonl_blocks(header, {"profile": ds.profiles, "raw": ds.raw})


def save_scatter(ds: ScatterDataset, path) -> None:
    with atomic_write(path) as f:
        f.writelines(_scatter_blocks(ds))


def _parse_json_line(path, line_no: int, text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise DatasetFormatError(path, line_no, f"invalid JSON: {e.msg}") from e
    if not isinstance(obj, dict):
        raise DatasetFormatError(path, line_no, "expected a JSON object")
    return obj


def _finite_number(value) -> bool:
    """A JSON number (not a bool) that converts to a finite float."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


# field of a dataset header or of a model's provenance -> (test on its JSON value, what it must be)
_FIELD_RULES = {
    "count": (lambda v: type(v) is int and v >= 1, "a positive integer"),
    "column_count": (lambda v: type(v) is int and 1 <= v <= MAX_COLUMN_COUNT,
                     f"an integer in 1..{MAX_COLUMN_COUNT}"),
    "seed": (lambda v: type(v) is int and v >= 0, "a non-negative integer"),
    "quantizer": (lambda v: isinstance(v, dict), "an object"),
    **dict.fromkeys(("i_max", "temperature"),
                    (lambda v: _finite_number(v) and v > 0, "a positive finite number")),
    **dict.fromkeys(("low", "high", "target_low", "target_high"),
                    (_finite_number, "a finite number")),
    **dict.fromkeys(("scene_digest", "dataset_digest", "fse_digest"),
                    (lambda v: isinstance(v, str), "a string")),
}


def file_field(block: dict, key: str):
    """``block[key]`` if it passes the rule of a file field ``key``; otherwise a ValueError."""
    valid, expected = _FIELD_RULES[key]
    value = block.get(key)
    if not valid(value):
        raise ValueError(f"{key} must be {expected}, got {value!r}")
    return value


def _header_field(path, header: dict, key: str):
    try:
        return file_field(header, key)
    except ValueError as e:
        raise DatasetFormatError(path, 1, f"header {e}") from None


def _uniform_rows(rows, width: int, element_type: type, dtype):
    """``rows`` as one (len, width) array if every row is a list of ``width`` values of
    exactly ``element_type``; None otherwise, or when a Python int overflows ``dtype``."""
    if not (width and all(isinstance(row, list) and len(row) == width for row in rows)
            and set(map(type, chain.from_iterable(rows))) <= {element_type}):
        return None
    try:
        return np.array(rows, dtype=dtype)
    except OverflowError:
        return None


def _number_rows(path, rows, what: str) -> np.ndarray:
    """(records, width) floats from one field: equal-length lists of finite numbers.

    Lists of floats are checked as one array. Anything else (ints, whose range
    check must be exact, or a bad record) goes through the per-record scan,
    which names the first offending line.
    """
    width = len(rows[0]) if isinstance(rows[0], list) else 0
    values = _uniform_rows(rows, width, float, float)
    if values is not None and np.isfinite(values).all():
        return values
    values = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        if (width == 0 or not isinstance(row, list) or len(row) != width
                or not all(_finite_number(v) for v in row)):
            raise DatasetFormatError(
                path, i + 2, f"{what} must be a non-empty list of finite numbers, "
                f"as long as the first record's",
            )
        values[i] = row
    return values


def _profile_rows(path, rows, cols: int) -> np.ndarray:
    """(records, cols) state indices, checked as one array; a per-record scan names a bad line."""
    profiles = _uniform_rows(rows, cols, int, int)
    if profiles is not None and profiles.min() >= 0 and profiles.max() < STATE_COUNT:
        return profiles
    profiles = np.empty((len(rows), cols), dtype=int)
    for i, profile in enumerate(rows):
        if not isinstance(profile, list) or len(profile) != cols:
            raise DatasetFormatError(
                path, i + 2,
                f"profile must hold {cols} states, got {len(profile) if isinstance(profile, list) else profile!r}",
            )
        if any(type(s) is not int or s < 0 or s >= STATE_COUNT for s in profile):
            raise DatasetFormatError(path, i + 2,
                                     f"state indices must be integers in 0..{STATE_COUNT - 1}")
        profiles[i] = profile
    return profiles


def _read_records(path, f, expected_format: str, keys):
    """The header and, per key, the list of every record's value (None where absent).

    Each record's object is dropped once its values are taken, so a large
    file never holds all of its record dicts at once.
    """
    first = f.readline()
    if not first.strip():
        raise DatasetFormatError(path, 1, "missing header line")
    header = _parse_json_line(path, 1, first)
    if header.get("format") != expected_format:
        raise DatasetFormatError(path, 1, f"not a {expected_format} file")
    if header.get("version") != FORMAT_VERSION:
        raise DatasetFormatError(path, 1, f"unsupported version {header.get('version')!r}")
    count = _header_field(path, header, "count")
    columns = {key: [] for key in keys}
    for i in range(count):
        line_no = i + 2
        text = f.readline()
        if not text:
            raise DatasetFormatError(
                path, line_no, f"file truncated: expected {count} records, found {i}"
            )
        record = _parse_json_line(path, line_no, text)
        for key, values in columns.items():
            values.append(record.get(key))
    return header, columns


def load_scatter(path) -> ScatterDataset:
    """Load a measurement dataset; validates shapes and the header contract."""
    with open(path, "r", encoding="utf-8") as f:
        header, columns = _read_records(path, f, SCATTER_FORMAT, ("profile", "raw"))
    cols = _header_field(path, header, "column_count")
    i_max = float(_header_field(path, header, "i_max"))
    seed = _header_field(path, header, "seed")
    digest = _header_field(path, header, "scene_digest")
    profiles = _profile_rows(path, columns["profile"], cols)
    raw = _number_rows(path, columns["raw"], "raw intensities")
    return ScatterDataset(profiles=profiles, raw=raw, i_max=i_max, seed=seed, scene_digest=digest)


def _target_blocks(ds: TargetDataset):
    header = {
        "format": TARGET_FORMAT,
        "version": FORMAT_VERSION,
        "count": len(ds),
        "low": ds.low,
        "high": ds.high,
        "seed": ds.seed,
    }
    return _jsonl_blocks(header, {"target": ds.targets})


def save_targets(ds: TargetDataset, path) -> None:
    with atomic_write(path) as f:
        f.writelines(_target_blocks(ds))


def load_targets(path) -> TargetDataset:
    with open(path, "r", encoding="utf-8") as f:
        header, columns = _read_records(path, f, TARGET_FORMAT, ("target",))
    return TargetDataset(
        targets=_number_rows(path, columns["target"], "target"),
        low=float(_header_field(path, header, "low")),
        high=float(_header_field(path, header, "high")),
        seed=_header_field(path, header, "seed"),
    )
