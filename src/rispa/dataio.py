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
checks the header fields and the provenance fields of model files, all of
them before any record is read. The records are read in one pass, a block of
lines at a time, into arrays allocated once (no larger than the file's size
can fill). A block whose every line is in the writer's own form (its spacing
and key order, states 0..7, finite numbers with a fraction or an exponent,
lists as wide as the header's column count or the first record's) is
converted as whole columns. Any other block goes one ``json.loads`` and one
check per line, so it loads to the same values, and the first offending line
of the file is the one named. Each line is one record, so a record split
over two lines is refused, and only blank lines may follow the header's
count of records.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import os
import re
import sys
from dataclasses import dataclass
from typing import NamedTuple

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


class _Field(NamedTuple):
    """One list of every record line: ``width`` states if ``item`` is ``_STATE``, else
    numbers in [low, high] (``_TARGET_SLACK`` outside it at most), as many as the first
    record's when ``width`` is None. ``what`` names the numbers in messages."""

    key: str
    item: str  # the regex of one list item in the writer's form
    width: int | None
    what: str = ""
    low: float = -sys.float_info.max
    high: float = sys.float_info.max


# list items of a record line in the writer's form: a state is one digit; a number is a
# JSON number with a fraction or an exponent, as ``json.dumps`` writes every float
_STATE = f"[0-{STATE_COUNT - 1}]"
_NUMBER = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)"


def _line_pattern(fields, widths) -> re.Pattern:
    """A record line in the writer's form (its spacing and key order) with ``widths`` items
    per list, one group per list's text."""
    lists = [f"{re.escape(json.dumps(field.key))}: \\[({field.item}(?:, {field.item}){{{width - 1}}})\\]"
             for field, width in zip(fields, widths)]
    return re.compile(r"\{" + ", ".join(lists) + r"\}\n")


def _checked_list(path, line_no: int, field: _Field, value, width: int) -> list:
    """``value`` if it is the list of ``width`` items that ``field`` holds; else the line is named."""
    is_list = isinstance(value, list)
    if field.item == _STATE:
        if not is_list or len(value) != width:
            got = len(value) if is_list else repr(value)
            raise DatasetFormatError(path, line_no, f"profile must hold {width} states, got {got}")
        if any(type(s) is not int or s < 0 or s >= STATE_COUNT for s in value):
            raise DatasetFormatError(path, line_no, f"state indices must be integers in 0..{STATE_COUNT - 1}")
    elif not is_list or len(value) != width or not all(_finite_number(v) for v in value):
        raise DatasetFormatError(path, line_no, f"{field.what} must be a non-empty list of finite "
                                 "numbers, as long as the first record's")
    elif not _in_range(field, float(min(value)), float(max(value))):
        raise DatasetFormatError(path, line_no, f"{field.what} components must lie in "
                                 f"[{field.low!r}, {field.high!r}]")
    return value


def _in_range(field: _Field, least: float, most: float) -> bool:
    """Numbers from ``least`` to ``most`` lie in the field's range (so neither is NaN)."""
    return field.low - _TARGET_SLACK <= least and most <= field.high + _TARGET_SLACK


def _column_rows(fields, block, matches) -> bool:
    """Fill ``block`` (one rows view per field) from lines in the writer's form, as whole
    columns: states from their digits, numbers through Python ``float``, which rounds as
    ``json`` does. False if a number lies outside its field's range."""
    for field, rows, texts in zip(fields, block, zip(*[m.groups() for m in matches])):
        if field.item == _STATE:
            digits = np.frombuffer("".join(texts).encode("ascii"), dtype=np.uint8)
            np.subtract(digits.reshape(len(rows), -1)[:, ::3], ord("0"), out=rows)
        else:
            rows.flat[:] = list(map(float, ", ".join(texts).split(", ")))
            if not _in_range(field, rows.min(), rows.max()):
                return False
    return True


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


def _read_records(path, f, count: int, fields) -> list:
    """One checked (count, width) array per field, in one pass over the records.

    The lines are read a block at a time. A block whose every line is in the
    writer's form is converted as whole columns (``_column_rows``); any other
    block goes one ``json.loads`` and one ``_checked_list`` per line, so the first
    offending line is the one named. The arrays hold no more rows than the file's
    size can (every list item takes at least two bytes), and nothing but blank
    lines may follow the last record.
    """
    if f.seekable():
        size = os.fstat(f.fileno()).st_size
    else:  # a pipe has no size to bound the arrays by, so it is read whole first
        text = f.read()
        f, size = io.StringIO(text), len(text)
    arrays = []
    for start in range(0, count, _BLOCK_ROWS):
        lines = [f.readline() for _ in range(min(_BLOCK_ROWS, count - start))]
        if not arrays:
            # the first record gives the width of each list the header does not; a width of
            # 1 stands in for a value that is no list or an empty one, which its check refuses
            first = _parse_json_line(path, 2, lines[0]) if lines[0] else {}
            values = [first.get(field.key) for field in fields]
            widths = [field.width or (len(v) if isinstance(v, list) and v else 1)
                      for field, v in zip(fields, values)]
            arrays = [np.empty((min(count, size // (2 * sum(widths))), width),
                               dtype=int if field.item == _STATE else float)
                      for field, width in zip(fields, widths)]
            pattern = _line_pattern(fields, widths)
        block = [array[start:start + len(lines)] for array in arrays]
        matches = [pattern.fullmatch(line) for line in lines]
        if None in matches or not _column_rows(fields, block, matches):
            for i, line in enumerate(lines):
                line_no = start + i + 2
                if not line:
                    raise DatasetFormatError(path, line_no, f"file truncated: expected {count} "
                                             f"records, found {line_no - 2}")
                record = _parse_json_line(path, line_no, line)
                for field, rows, width in zip(fields, block, widths):
                    rows[i] = _checked_list(path, line_no, field, record.get(field.key), width)
    for line_no, line in enumerate(f, count + 2):
        if line.strip():
            raise DatasetFormatError(path, line_no, f"the header counts {count} records, but more follow")
    return arrays


def load_scatter(path) -> ScatterDataset:
    """Load a measurement dataset; validates shapes and the header contract."""
    with open(path, "r", encoding="utf-8") as f:
        header = _read_header(path, f, SCATTER_FORMAT)
        cols, i_max, seed, digest = (_header_field(path, header, key)
                                     for key in ("column_count", "i_max", "seed", "scene_digest"))
        profiles, raw = _read_records(path, f, header["count"], [
            _Field("profile", _STATE, cols), _Field("raw", _NUMBER, None, "raw intensities")])
    return ScatterDataset(profiles=profiles, raw=raw, i_max=float(i_max), seed=seed,
                          scene_digest=digest)


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
        low = float(_header_field(path, header, "low"))
        high = float(_header_field(path, header, "high"))
        seed = _header_field(path, header, "seed")
        if not low < high:
            raise DatasetFormatError(path, 1, f"header low must be < high, got {low!r} and {high!r}")
        [targets] = _read_records(path, f, header["count"],
                                  [_Field("target", _NUMBER, None, "target", low, high)])
    return TargetDataset(targets=targets, low=low, high=high, seed=seed)
