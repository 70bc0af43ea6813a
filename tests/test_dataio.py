"""Dataset collection, splitting, generation, and JSONL persistence."""

import contextlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rispa.dataio import (
    DatasetFormatError,
    ScatterDataset,
    SplitSpec,
    TargetDataset,
    collect,
    derive_seed,
    generate_targets,
    load_scatter,
    load_targets,
    save_scatter,
    save_targets,
    split,
)
from rispa.scene import default_scene, simulate_raw


@pytest.fixture(scope="module")
def small_dataset():
    return collect(default_scene(), count=50, seed=123)


# ---------------------------------------------------------------------------
# collect
# ---------------------------------------------------------------------------

def test_collect_is_deterministic():
    scene = default_scene()
    a = collect(scene, count=20, seed=9)
    b = collect(scene, count=20, seed=9)
    assert np.array_equal(a.profiles, b.profiles)
    assert np.array_equal(a.raw, b.raw)
    assert a.i_max == b.i_max
    c = collect(scene, count=20, seed=10)
    assert not np.array_equal(a.profiles, c.profiles)


def test_collect_single_record_normalizes_to_one():
    ds = collect(default_scene(), count=1, seed=4)
    assert ds.i_max == ds.raw.max()
    assert ds.normalized.max() == pytest.approx(1.0)


def test_collect_normalization_invariants(small_dataset):
    ds = small_dataset
    assert ds.i_max == ds.raw.max()
    assert np.array_equal(ds.normalized, ds.raw / ds.i_max)
    assert ds.normalized.max() <= 1.0
    assert np.all(ds.normalized >= 0.0)
    fracs = ds.fraction_below(0.6)
    assert fracs.shape == (3,)
    assert np.all((0.0 <= fracs) & (fracs <= 1.0))


def test_collect_noise_uses_per_record_seeds():
    scene = default_scene()  # noise_sigma 0.01
    ds = collect(scene, count=10, seed=77)
    # each record replays alone under its own derived noise seed
    for i, profile in enumerate(ds.profiles):
        expected = simulate_raw(scene, profile, noise_seed=derive_seed(77, 7001, i))
        assert np.array_equal(ds.raw[i], expected)
    assert not np.array_equal(ds.raw[0], simulate_raw(scene, ds.profiles[0]))


def test_collect_rejects_bad_count():
    with pytest.raises(ValueError):
        collect(default_scene(), count=0, seed=1)


@pytest.mark.slow
def test_collect_10000_reports_fraction_diagnostics(caplog):
    # full-size collection; the sub-0.6 fractions are diagnostics to log and
    # eyeball against the reference rig's 97.9/94.1/98.8%, never to assert
    with caplog.at_level("INFO", logger="rispa.dataio"):
        ds = collect(default_scene(), count=10000, seed=2024)
    fracs = ds.fraction_below(0.6)
    assert fracs.shape == (3,)
    assert np.all((fracs > 0.5) & (fracs <= 1.0))
    assert any("fraction below" in r.message for r in caplog.records)


def test_derive_seed_is_stable_and_keyed():
    assert derive_seed(7, 1) == derive_seed(7, 1)
    assert derive_seed(7, 1) != derive_seed(7, 2)
    assert derive_seed(7, 1, 5) != derive_seed(7, 1, 6)


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------

def _fake_scatter(n):
    rng = np.random.default_rng(0)
    return ScatterDataset(
        profiles=rng.integers(0, 8, size=(n, 20)),
        raw=rng.uniform(0.1, 10.0, size=(n, 3)),
        i_max=10.0,
        seed=0,
        scene_digest="x",
    )


@pytest.mark.parametrize("n,fracs,expected", [
    (10000, (0.81, 0.09, 0.10), (8100, 900, 1000)),
    (48000, (0.84375, 0.09375, 0.0625), (40500, 4500, 3000)),
    (10, (0.8, 0.1, 0.1), (8, 1, 1)),
])
def test_split_sizes(n, fracs, expected):
    ds = _fake_scatter(n)
    parts = split(ds, SplitSpec(*fracs), seed=1)
    assert tuple(len(p) for p in parts) == expected


def test_split_is_a_partition():
    ds = _fake_scatter(100)
    train, val, test = split(ds, SplitSpec(0.8, 0.1, 0.1), seed=5)
    seen = np.vstack([train.raw, val.raw, test.raw])
    assert seen.shape == ds.raw.shape
    # every original row appears exactly once
    original = {tuple(r) for r in ds.raw}
    recovered = [tuple(r) for r in seen]
    assert len(recovered) == len(set(recovered)) == len(original)
    assert set(recovered) == original
    # splits keep the parent normalizer
    assert train.i_max == val.i_max == test.i_max == ds.i_max


def test_split_rejects_empty_partition():
    ds = _fake_scatter(5)
    with pytest.raises(ValueError, match="empty partition"):
        split(ds, SplitSpec(0.9, 0.05, 0.05), seed=0)


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        SplitSpec(1.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# generate_targets
# ---------------------------------------------------------------------------

def test_generate_targets_uniform_range_and_mean():
    ds = generate_targets(48000, low=0.0, high=0.6, seed=11)
    flat = ds.targets.ravel()
    assert flat.shape == (144000,)
    assert flat.min() >= 0.0 and flat.max() <= 0.6
    # CLT bound: 4 sigma of the mean of 144000 U[0, 0.6] draws
    bound = 4 * 0.6 / np.sqrt(12 * 144000)
    assert abs(flat.mean() - 0.3) < bound


def test_generate_targets_degenerate_interval():
    ds = generate_targets(5, low=0.3, high=0.3 + 1e-9, seed=2)
    assert np.allclose(ds.targets, 0.3, atol=1e-8)


def test_generate_targets_deterministic():
    a = generate_targets(10, seed=3)
    b = generate_targets(10, seed=3)
    assert np.array_equal(a.targets, b.targets)


def test_generate_targets_rejects_bad_range():
    with pytest.raises(ValueError, match="low"):
        generate_targets(5, low=0.6, high=0.6, seed=0)


def test_normalization_idempotence(small_dataset):
    renormalized = small_dataset.normalized / 1.0
    assert np.array_equal(renormalized, small_dataset.normalized)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_scatter_round_trip(tmp_path, small_dataset):
    path = tmp_path / "data.jsonl"
    save_scatter(small_dataset, path)
    loaded = load_scatter(path)
    assert np.array_equal(loaded.profiles, small_dataset.profiles)
    assert np.array_equal(loaded.raw, small_dataset.raw)
    assert loaded.i_max == small_dataset.i_max
    assert loaded.seed == small_dataset.seed
    assert loaded.scene_digest == small_dataset.scene_digest
    assert np.array_equal(loaded.normalized, small_dataset.normalized)
    assert loaded.digest() == small_dataset.digest()


def test_targets_round_trip(tmp_path):
    ds = generate_targets(25, seed=8)
    path = tmp_path / "targets.jsonl"
    save_targets(ds, path)
    loaded = load_targets(path)
    assert np.array_equal(loaded.targets, ds.targets)
    assert (loaded.low, loaded.high, loaded.seed) == (ds.low, ds.high, ds.seed)


def test_truncated_file_names_offending_line(tmp_path, small_dataset):
    path = tmp_path / "data.jsonl"
    save_scatter(small_dataset, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:11]) + "\n")  # header + 10 of 50 records
    with pytest.raises(DatasetFormatError, match="truncated") as exc:
        load_scatter(path)
    assert exc.value.line == 12


def test_malformed_json_line_is_reported(tmp_path, small_dataset):
    path = tmp_path / "data.jsonl"
    save_scatter(small_dataset, path)
    lines = path.read_text().splitlines()
    lines[3] = "{broken"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match="invalid JSON"):
        load_scatter(path)


def test_wrong_profile_length_is_a_validation_error(tmp_path, small_dataset):
    path = tmp_path / "data.jsonl"
    save_scatter(small_dataset, path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["profile"] = rec["profile"][:19]
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match="20 states") as exc:
        load_scatter(path)
    assert exc.value.line == 2


def test_wrong_format_header(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"format": "something-else", "version": 1, "count": 1}\n{}\n')
    with pytest.raises(DatasetFormatError):
        load_scatter(path)


def test_scene_digest_mismatch_warns(tmp_path, small_dataset, caplog):
    path = tmp_path / "data.jsonl"
    save_scatter(small_dataset, path)
    with caplog.at_level("WARNING"):
        load_scatter(path, expected_scene_digest="deadbeef")
    assert any("digest mismatch" in r.message for r in caplog.records)


def test_dataset_validation():
    with pytest.raises(ValueError):
        ScatterDataset(profiles=np.zeros((0, 20), dtype=int), raw=np.zeros((0, 3)),
                       i_max=1.0, seed=0, scene_digest="")
    with pytest.raises(ValueError):
        TargetDataset(targets=np.array([[0.1, 0.2, 0.9]]), low=0.0, high=0.6)


# ---------------------------------------------------------------------------
# hostile files
# ---------------------------------------------------------------------------

def _edited(path, line_index, edit):
    lines = path.read_text().splitlines()
    doc = json.loads(lines[line_index])
    edit(doc)
    lines[line_index] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n")


def _set(key, value):
    return lambda doc: doc.__setitem__(key, value)


def _drop(key):
    return lambda doc: doc.pop(key)


MALFORMED_SCATTER = {
    "null-i_max": (0, _set("i_max", None)),
    "string-i_max": (0, _set("i_max", "1.5")),
    "zero-i_max": (0, _set("i_max", 0.0)),
    "missing-seed": (0, _drop("seed")),
    "negative-seed": (0, _set("seed", -3)),
    "null-scene_digest": (0, _set("scene_digest", None)),
    "huge-column_count": (0, _set("column_count", 10**12)),
    "null-raw-value": (3, _set("raw", [0.1, None, 0.3])),
    "nan-raw-value": (3, _set("raw", [0.1, float("nan"), 0.3])),
    "huge-raw-value": (3, _set("raw", [0.1, 10**400, 0.3])),
    "string-raw-value": (3, _set("raw", [0.1, "0.2", 0.3])),
    "bool-raw-value": (3, _set("raw", [0.1, True, 0.3])),
    "scalar-raw": (1, _set("raw", 5)),
    "empty-raw": (1, _set("raw", [])),
    "bool-state": (2, lambda doc: doc["profile"].__setitem__(0, True)),
}


@pytest.mark.parametrize("case", MALFORMED_SCATTER)
def test_malformed_scatter_files_name_the_line(tmp_path, small_dataset, case):
    path = tmp_path / "data.jsonl"
    save_scatter(small_dataset, path)
    line_index, edit = MALFORMED_SCATTER[case]
    if case == "empty-raw":  # every record, so that no width can be inferred
        for i in range(1, len(small_dataset) + 1):
            _edited(path, i, edit)
    else:
        _edited(path, line_index, edit)
    with pytest.raises(DatasetFormatError) as exc:
        load_scatter(path)
    assert exc.value.line == line_index + 1


MALFORMED_TARGETS = {
    "null-low": (0, _set("low", None)),
    "missing-high": (0, _drop("high")),
    "missing-seed": (0, _drop("seed")),
    "inf-high": (0, _set("high", float("inf"))),
    "nan-target": (2, _set("target", [0.1, float("nan"), 0.3])),
    "null-target": (2, _set("target", None)),
    "short-target": (4, _set("target", [0.1, 0.2])),
}


@pytest.mark.parametrize("case", MALFORMED_TARGETS)
def test_malformed_target_files_name_the_line(tmp_path, case):
    path = tmp_path / "targets.jsonl"
    save_targets(generate_targets(6, seed=8), path)
    line_index, edit = MALFORMED_TARGETS[case]
    _edited(path, line_index, edit)
    with pytest.raises(DatasetFormatError) as exc:
        load_targets(path)
    assert exc.value.line == line_index + 1


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_DROP = object()
_ROW = st.lists(st.floats() | st.integers() | _JSON, min_size=2, max_size=4)
# (line, key, new value or _DROP): edits of a valid three-record file
_EDITS = st.lists(st.tuples(
    st.integers(0, 3),
    st.sampled_from(["format", "version", "count", "column_count", "i_max", "seed",
                     "scene_digest", "low", "high", "profile", "raw", "target"]),
    st.just(_DROP) | _ROW | _JSON,
), min_size=1, max_size=3)


def _apply(text, edits) -> str:
    docs = [json.loads(line) for line in text.splitlines()]
    for line, key, value in edits:
        if value is _DROP:
            docs[line].pop(key, None)
        else:
            docs[line][key] = value
    return "".join(json.dumps(doc) + "\n" for doc in docs)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scatter_edits=_EDITS, target_edits=_EDITS)
def test_dataset_loaders_raise_only_value_errors(tmp_path, scatter_edits, target_edits):
    path = tmp_path / "data.jsonl"
    save_scatter(collect(default_scene(), count=3, seed=1), path)
    scatter = _apply(path.read_text(), scatter_edits)
    save_targets(generate_targets(3, seed=2), path)
    targets = _apply(path.read_text(), target_edits)
    for text, load in ((scatter, load_scatter), (targets, load_targets)):
        path.write_text(text)
        with contextlib.suppress(ValueError):
            ds = load(path)
            values = ds.raw if load is load_scatter else ds.targets
            assert values.size > 0 and np.all(np.isfinite(values))
            assert type(ds.seed) is int
            if load is load_scatter:
                assert isinstance(ds.scene_digest, str)
