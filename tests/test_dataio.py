"""Dataset collection, splitting, generation, and JSONL persistence."""

import json

import numpy as np
import pytest

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
