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

The writer formats records a block of a hundred at a time, with the bytes of
one ``json.dumps`` per record: float rows take one ``json.dumps`` per array
and block, split at the row breaks, and state rows, one digit each, are
written by numpy from their ASCII digits. ``digest()`` hashes the same
blocks, so it equals the SHA-256 of the saved file without building the file
in memory. The dataset classes refuse at construction what the loaders
refuse in a file (states outside 0..7, non-finite values), so a saved
dataset loads.

The loaders trust nothing in a file: every header value and every number is
type-checked and must be finite, and any violation is a ``DatasetFormatError``
naming the offending line. One table of rules, read through ``file_field``,
checks the header fields and the provenance fields of model files. A file in
the writer's own form (its spacing and key order, states 0..7, numbers with
a fraction or an exponent and finite, lists as wide as the header's column
count or the first record's) is read a block of lines at a time and
converted as whole columns. Any other file is read again from its first
record, one ``json.loads`` per line and one check per record, so it loads
to the same values or names the same first offending line. Either way each
line is one record, so a record split over two lines is refused.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import sys
from dataclasses import dataclass

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
_TARGET_SLACK = 1e-12  # how far outside [low, high] a target component may lie


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
        if (self.targets.min() < self.low - _TARGET_SLACK
                or self.targets.max() > self.high + _TARGET_SLACK):
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

_BLOCK_ROWS = 100  # records per block of text, written, hashed or read at once


def _row_texts(rows: np.ndarray) -> list:
    """Each row's items as ``json.dumps(row.tolist())`` writes them, without the brackets.

    Float rows go through one ``json.dumps`` for the block, split at the row
    breaks. Integer rows are states, one digit each, so numpy writes their
    ``d, d, …`` text from the ASCII digits.
    """
    if rows.dtype.kind == "f":
        return json.dumps(rows.tolist())[2:-2].split("], [")
    n, width = check_states(rows).shape
    text = np.empty((n, 3 * width), dtype=np.uint8)
    np.add(rows, ord("0"), out=text[:, 0::3], casting="unsafe")
    text[:, 1::3] = ord(",")
    text[:, 2::3] = ord(" ")
    flat = text[:, :-2].tobytes().decode("ascii")
    size = 3 * width - 2
    return [flat[i:i + size] for i in range(0, len(flat), size)]


def _jsonl_blocks(header: dict, fields: dict):
    """JSON-lines text in blocks of up to ``_BLOCK_ROWS`` records, header first.

    Record i is ``json.dumps({key: array[i].tolist() for key, array in fields.items()})``;
    each block renders its rows of every array at once (``_row_texts``), which
    gives the same bytes as one call per record. Small blocks keep the
    transient text and per-line strings small, so they reuse freed memory
    instead of growing the heap.
    """
    yield json.dumps(header) + "\n"
    line = "{" + ", ".join(f"{json.dumps(key)}: [%s]" for key in fields) + "}\n"
    arrays = list(fields.values())
    for start in range(0, len(arrays[0]), _BLOCK_ROWS):
        rows = [_row_texts(a[start:start + _BLOCK_ROWS]) for a in arrays]
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


def _number_rows(path, rows, what: str) -> np.ndarray:
    """(records, width) floats from one field: equal-length lists of finite numbers;
    the first offending record's line is named."""
    width = len(rows[0]) if isinstance(rows[0], list) else 0
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
    """(records, cols) state indices; the first offending record's line is named."""
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


# list items of a record line in the writer's form: a state is one digit; a number is a
# JSON number with a fraction or an exponent, as ``json.dumps`` writes every float
_STATE = f"[0-{STATE_COUNT - 1}]"
_NUMBER = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)"


def _line_pattern(fields: dict, widths) -> re.Pattern:
    """A record line in the writer's form with ``fields`` (see ``_writer_columns``), one
    group per list's text; a width of None lets that list hold any number of items."""
    lists = [f"{re.escape(json.dumps(key))}: \\[({item}(?:, {item})"
             + ("*" if width is None else f"{{{width - 1}}}") + ")\\]"
             for (key, (item, _)), width in zip(fields.items(), widths)]
    return re.compile(r"\{" + ", ".join(lists) + r"\}\n")


def _writer_columns(f, count: int, fields: dict):
    """Every record as whole (count, width) columns if each line is in the writer's form;
    None as soon as one is not.

    ``fields`` maps each key, in line order, to (item pattern, width, or None
    for the first record's). The lines are matched a block at a time. States
    come from their digits; numbers go through Python ``float``, which rounds
    as ``json`` does, and must be finite.
    """
    first = f.readline()
    match = _line_pattern(fields, [None] * len(fields)).fullmatch(first)
    if match is None:
        return None
    widths = [text.count(",") + 1 for text in match.groups()]
    if any(want is not None and want != width
           for (_, want), width in zip(fields.values(), widths)):
        return None
    # every item takes at least three bytes with its separator, so no array outgrows the file
    if 3 * count * sum(widths) > os.fstat(f.fileno()).st_size:
        return None
    pattern = _line_pattern(fields, widths)
    columns = {key: np.empty((count, width), dtype=int if item == _STATE else float)
               for (key, (item, _)), width in zip(fields.items(), widths)}
    lines = [first]  # the first block's first line is read already
    for start in range(0, count, _BLOCK_ROWS):
        n = min(_BLOCK_ROWS, count - start)
        lines += [f.readline() for _ in range(n - len(lines))]
        matches = [pattern.fullmatch(line) for line in lines]
        if None in matches:
            return None
        for (key, (item, _)), texts in zip(fields.items(), zip(*[m.groups() for m in matches])):
            rows = columns[key][start:start + n]
            if item == _STATE:
                digits = np.frombuffer("".join(texts).encode("ascii"), dtype=np.uint8)
                np.subtract(digits.reshape(n, -1)[:, ::3], ord("0"), out=rows)
            else:
                rows.flat[:] = list(map(float, ", ".join(texts).split(", ")))
                if not np.isfinite(rows).all():
                    return None
        lines = []
    return columns


def _json_columns(path, f, count: int, keys) -> dict:
    """Per key, the list of every record's value (None where absent), one ``json.loads``
    per line. Each record's object is dropped once its values are taken, so a
    large file never holds all of its record dicts at once."""
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
    return columns


def _read_header(path, f, expected_format: str) -> dict:
    """The header line, checked for its format, version and record count."""
    first = f.readline()
    if not first.strip():
        raise DatasetFormatError(path, 1, "missing header line")
    header = _parse_json_line(path, 1, first)
    if header.get("format") != expected_format:
        raise DatasetFormatError(path, 1, f"not a {expected_format} file")
    if header.get("version") != FORMAT_VERSION:
        raise DatasetFormatError(path, 1, f"unsupported version {header.get('version')!r}")
    _header_field(path, header, "count")
    return header


def _read_records(path, f, count: int, fields: dict) -> dict:
    """Per key of ``fields`` (see ``_writer_columns``), every record's value: one checked
    array when each line is in the writer's form, else the list of JSON values,
    read again line by line from the first record."""
    if f.seekable():
        start = f.tell()
        columns = _writer_columns(f, count, fields)
        if columns is not None:
            return columns
        f.seek(start)
    return _json_columns(path, f, count, fields)


def load_scatter(path) -> ScatterDataset:
    """Load a measurement dataset; validates shapes and the header contract."""
    with open(path, "r", encoding="utf-8") as f:
        header = _read_header(path, f, SCATTER_FORMAT)
        columns = _read_records(path, f, header["count"], {
            "profile": (_STATE, header.get("column_count")), "raw": (_NUMBER, None)})
    cols = _header_field(path, header, "column_count")
    i_max = float(_header_field(path, header, "i_max"))
    seed = _header_field(path, header, "seed")
    digest = _header_field(path, header, "scene_digest")
    profiles, raw = columns["profile"], columns["raw"]
    if isinstance(raw, list):  # parsed line by line: check every record
        profiles = _profile_rows(path, profiles, cols)
        raw = _number_rows(path, raw, "raw intensities")
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
        header = _read_header(path, f, TARGET_FORMAT)
        targets = _read_records(path, f, header["count"], {"target": (_NUMBER, None)})["target"]
    if isinstance(targets, list):
        targets = _number_rows(path, targets, "target")
    low = float(_header_field(path, header, "low"))
    high = float(_header_field(path, header, "high"))
    seed = _header_field(path, header, "seed")
    if not low < high:
        raise DatasetFormatError(path, 1, f"header low must be < high, got {low!r} and {high!r}")
    outside = ((targets < low - _TARGET_SLACK) | (targets > high + _TARGET_SLACK)).any(axis=1)
    if outside.any():
        raise DatasetFormatError(path, int(outside.argmax()) + 2,
                                 f"target components must lie in [{low!r}, {high!r}]")
    return TargetDataset(targets=targets, low=low, high=high, seed=seed)
