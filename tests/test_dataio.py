"""Dataset collection, splitting, generation, and JSONL persistence."""

import contextlib
import hashlib
import json
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rispa import dataio
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


def _edge_scatter(n):
    """Every state and floats whose text is easy to get wrong: subnormal, huge, -0.0, 1/3."""
    edge = [5e-324, 1e300, -0.0, 0.0, 1.0 / 3.0, 1e16, 123.0, 2.5e-7]
    return ScatterDataset(
        profiles=np.arange(n * 20).reshape(n, 20) % 8,
        raw=np.resize(edge, (n, 3)),
        i_max=1e300,
        seed=2**63,
        scene_digest="edge",
    )


@pytest.mark.parametrize("make", [
    lambda: collect(default_scene(with_obstacle=True), count=2500, seed=4),
    lambda: _edge_scatter(2001),
    lambda: _edge_scatter(1),
], ids=["collected-2500", "edge-2001", "edge-1"])
def test_save_scatter_bytes_match_per_record_dumps(tmp_path, make):
    ds = make()
    path = tmp_path / "data.jsonl"
    save_scatter(ds, path)
    header = {"format": "rispa-scatter-dataset", "version": 1, "count": len(ds),
              "column_count": 20, "i_max": ds.i_max, "seed": ds.seed,
              "scene_digest": ds.scene_digest}
    expected = json.dumps(header) + "\n" + "".join(
        json.dumps({"profile": p.tolist(), "raw": r.tolist()}) + "\n"
        for p, r in zip(ds.profiles, ds.raw))
    saved = path.read_bytes()
    assert saved == expected.encode("utf-8")
    assert ds.digest() == hashlib.sha256(saved).hexdigest()
    loaded = load_scatter(path)
    assert loaded.raw.tobytes() == ds.raw.tobytes()
    assert np.array_equal(loaded.profiles, ds.profiles)


def test_save_targets_bytes_match_per_record_dumps(tmp_path):
    ds = generate_targets(2500, seed=8)
    path = tmp_path / "targets.jsonl"
    save_targets(ds, path)
    header = {"format": "rispa-target-dataset", "version": 1, "count": 2500,
              "low": ds.low, "high": ds.high, "seed": 8}
    expected = json.dumps(header) + "\n" + "".join(
        json.dumps({"target": t.tolist()}) + "\n" for t in ds.targets)
    saved = path.read_bytes()
    assert saved == expected.encode("utf-8")
    assert ds.digest() == hashlib.sha256(saved).hexdigest()


def _compact(path, out):
    """The records of ``path`` re-dumped without spaces: valid JSON that is not in the
    writer's form, so only the per-line JSON path reads it."""
    lines = path.read_text().splitlines()
    out.write_text("".join(json.dumps(json.loads(line), separators=(",", ":")) + "\n"
                           for line in lines))
    return out


@pytest.mark.parametrize("make", [
    lambda: _edge_scatter(1),
    lambda: _edge_scatter(100),
    lambda: _edge_scatter(101),
    lambda: _edge_scatter(2001),
    lambda: collect(default_scene(with_obstacle=True), count=250, seed=6),
], ids=["edge-1", "edge-100", "edge-101", "edge-2001", "collected-250"])
def test_column_and_json_paths_load_the_same_dataset(tmp_path, monkeypatch, make):
    ds = make()
    path = tmp_path / "data.jsonl"
    save_scatter(ds, path)
    compact = _compact(path, tmp_path / "compact.jsonl")
    json_loaded = load_scatter(compact)
    with monkeypatch.context() as m:  # the writer's own file never goes line by line
        m.setattr(dataio, "_checked_list", None)
        column_loaded = load_scatter(path)
    for loaded in (column_loaded, json_loaded):
        assert loaded.raw.tobytes() == ds.raw.tobytes()
        assert loaded.profiles.tobytes() == ds.profiles.tobytes()
        assert (loaded.i_max, loaded.seed, loaded.scene_digest) == (ds.i_max, ds.seed, ds.scene_digest)


def test_target_column_and_json_paths_agree(tmp_path, monkeypatch):
    ds = generate_targets(2001, seed=8)
    path = tmp_path / "targets.jsonl"
    save_targets(ds, path)
    json_loaded = load_targets(_compact(path, tmp_path / "compact.jsonl"))
    monkeypatch.setattr(dataio, "_checked_list", None)
    assert load_targets(path).targets.tobytes() == json_loaded.targets.tobytes() == ds.targets.tobytes()


def test_only_the_block_not_in_the_writers_form_goes_line_by_line(tmp_path, monkeypatch):
    ds = _fake_scatter(250)
    ds.raw[149] = [2.0, 1.0, 3.0]
    path = tmp_path / "data.jsonl"
    save_scatter(ds, path)
    _edited(path, 150, _set("raw", [2, 1, 3]))  # integers: valid JSON, not the writer's form
    checked, check = [], dataio._checked_list

    def counted(path, line_no, *rest):
        checked.append(line_no)
        return check(path, line_no, *rest)

    monkeypatch.setattr(dataio, "_checked_list", counted)
    loaded = load_scatter(path)
    assert loaded.raw.tobytes() == ds.raw.tobytes()
    assert loaded.profiles.tobytes() == ds.profiles.tobytes()
    assert sorted(set(checked)) == list(range(102, 202))  # the second block of 100 records


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), records=st.integers(1, 130), columns=st.integers(1, 6),
       probes=st.integers(1, 4))
def test_any_finite_raw_and_any_states_round_trip_bit_exactly(tmp_path, data, records,
                                                              columns, probes):
    raw = data.draw(st.lists(st.lists(_FINITE, min_size=probes, max_size=probes),
                             min_size=records, max_size=records))
    states = data.draw(st.lists(st.lists(st.integers(0, 7), min_size=columns, max_size=columns),
                                min_size=records, max_size=records))
    ds = ScatterDataset(profiles=np.array(states), raw=np.array(raw), i_max=1.0, seed=0,
                        scene_digest="h")
    path = tmp_path / "data.jsonl"
    save_scatter(ds, path)
    loaded = load_scatter(path)
    assert loaded.raw.tobytes() == ds.raw.tobytes()
    assert loaded.profiles.tobytes() == ds.profiles.tobytes()


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


def test_dataset_validation():
    with pytest.raises(ValueError):
        ScatterDataset(profiles=np.zeros((0, 20), dtype=int), raw=np.zeros((0, 3)),
                       i_max=1.0, seed=0, scene_digest="")
    with pytest.raises(ValueError):
        TargetDataset(targets=np.array([[0.1, 0.2, 0.9]]), low=0.0, high=0.6)


def _bad_state(value):
    def edit(kw):
        kw["profiles"] = kw["profiles"].astype(type(value))
        kw["profiles"][1, 4] = value
    return edit


def _bad_raw(value):
    return lambda kw: kw["raw"].__setitem__((2, 1), value)


# each would construct and save, and then be refused by the loader
UNLOADABLE_SCATTER = {
    "nan-raw": _bad_raw(np.nan),
    "inf-raw": _bad_raw(np.inf),
    "state-9": _bad_state(9),
    "state-minus-1": _bad_state(-1),
    "float-states": _bad_state(2.0),
    "inf-i_max": lambda kw: kw.__setitem__("i_max", np.inf),
    "no-states": lambda kw: kw.__setitem__("profiles", kw["profiles"][:, :0]),
    "no-intensities": lambda kw: kw.__setitem__("raw", kw["raw"][:, :0]),
}


@pytest.mark.parametrize("case", UNLOADABLE_SCATTER)
def test_scatter_dataset_enforces_the_loader_contract(case):
    fake = _fake_scatter(5)
    kw = dict(profiles=fake.profiles.copy(), raw=fake.raw.copy(), i_max=fake.i_max,
              seed=fake.seed, scene_digest=fake.scene_digest)
    UNLOADABLE_SCATTER[case](kw)
    with pytest.raises(ValueError):
        ScatterDataset(**kw)


@pytest.mark.parametrize("kw", [
    {"targets": [[0.1, np.nan, 0.3]]},
    {"targets": [[0.1, 0.2, 0.3]], "high": np.inf},
    {"targets": [[0.1, 0.2, 0.3]], "low": -np.inf},
], ids=["nan-target", "inf-high", "minus-inf-low"])
def test_target_dataset_enforces_the_loader_contract(kw):
    with pytest.raises(ValueError):
        TargetDataset(**kw)


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
    "float-state": (2, lambda doc: doc["profile"].__setitem__(3, 2.0)),
    "state-8": (4, lambda doc: doc["profile"].__setitem__(19, 8)),
    "negative-state": (4, lambda doc: doc["profile"].__setitem__(0, -1)),
    "huge-state": (2, lambda doc: doc["profile"].__setitem__(0, 10**30)),
    # rounds to the largest float, but is larger than it
    "just-over-max-int-raw": (3, _set("raw", [0.1, int(sys.float_info.max) + 1, 0.3])),
}


def _check_malformed_scatter(path, dataset, case, record=None):
    """Save ``dataset``, apply ``case`` (its record edit moved to ``record`` if given) and
    expect the loader to name the edited line."""
    save_scatter(dataset, path)
    line_index, edit = MALFORMED_SCATTER[case]
    if record is not None and line_index > 0:
        line_index = record
    if case == "empty-raw":  # every record from there on, so that no width can be inferred
        for i in range(line_index, len(dataset) + 1):
            _edited(path, i, edit)
    else:
        _edited(path, line_index, edit)
    with pytest.raises(DatasetFormatError) as exc:
        load_scatter(path)
    assert exc.value.line == line_index + 1


@pytest.mark.parametrize("case", MALFORMED_SCATTER)
def test_malformed_scatter_files_name_the_line(tmp_path, small_dataset, case):
    _check_malformed_scatter(tmp_path / "data.jsonl", small_dataset, case)


@pytest.mark.parametrize("case", MALFORMED_SCATTER)
def test_malformed_scatter_files_name_the_line_in_the_second_block(tmp_path, case):
    # record 150 of 250: the first block of 100 records is in the writer's form
    _check_malformed_scatter(tmp_path / "data.jsonl", _fake_scatter(250), case, record=150)


def _with_number_text(path, line_index, text):
    """Replace the first raw number of one record line by ``text``, leaving the rest as written."""
    lines = path.read_text().splitlines(keepends=True)
    head, tail = lines[line_index].split('"raw": [')
    lines[line_index] = head + '"raw": [' + text + tail[tail.index(","):]
    path.write_text("".join(lines))


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400", ".5", "1.",
                                  "+1.0", "01.5", "1.0e", "1_0.0"])
@pytest.mark.parametrize("line_index", [3, 150])
def test_raw_number_outside_the_json_grammar_names_its_line(tmp_path, text, line_index):
    path = tmp_path / "data.jsonl"
    save_scatter(_fake_scatter(250), path)
    _with_number_text(path, line_index, text)
    with pytest.raises(DatasetFormatError) as exc:
        load_scatter(path)
    assert exc.value.line == line_index + 1


def test_loader_names_the_first_offending_record(tmp_path, small_dataset):
    path = tmp_path / "data.jsonl"
    save_scatter(small_dataset, path)
    _edited(path, 9, _set("raw", [0.1, float("nan"), 0.3]))
    _edited(path, 6, _set("raw", [0.1, 0.2]))
    with pytest.raises(DatasetFormatError) as exc:
        load_scatter(path)
    assert exc.value.line == 7


def _broken(line_index):
    """An edit of a whole file: one line that is not JSON."""
    def edit(path):
        lines = path.read_text().splitlines()
        lines[line_index] = "{broken"
        path.write_text("\n".join(lines) + "\n")
    return edit


def _record_edit(line_index, edit):
    return lambda path: _edited(path, line_index, edit)


# two faults in one 6-record file: (the edits that make them, the line of the earlier one)
TWO_FAULTS = {
    "bad-raw-then-state-8": ([_record_edit(2, _set("raw", [0.1, None, 0.3])),
                              _record_edit(4, lambda doc: doc["profile"].__setitem__(19, 8))], 3),
    "bad-raw-then-invalid-json": ([_record_edit(2, _set("raw", [0.1, None, 0.3])), _broken(4)], 3),
    # a valid header, but line 2 holds 20 states, not 19
    "column_count-19-then-invalid-json": ([_record_edit(0, _set("column_count", 19)), _broken(2)], 2),
}


@pytest.mark.parametrize("case", TWO_FAULTS)
def test_the_earlier_of_two_faults_is_named(tmp_path, case):
    path = tmp_path / "data.jsonl"
    save_scatter(_fake_scatter(6), path)
    edits, line = TWO_FAULTS[case]
    for edit in edits:
        edit(path)
    with pytest.raises(DatasetFormatError) as exc:
        load_scatter(path)
    assert exc.value.line == line


@pytest.mark.parametrize("text", ["1E5", "1.50", "2.5e-3", "-0.0", "2", " 1.0", "1e-400"])
def test_raw_number_texts_that_json_reads_load_with_its_value(tmp_path, text):
    path = tmp_path / "data.jsonl"
    save_scatter(_fake_scatter(250), path)
    _with_number_text(path, 150, text)
    loaded = load_scatter(path)
    assert loaded.raw[149, 0].tobytes() == np.float64(json.loads(text)).tobytes()


def test_header_column_count_off_the_records_names_the_first_record(tmp_path, small_dataset):
    path = tmp_path / "data.jsonl"
    save_scatter(small_dataset, path)
    _edited(path, 0, _set("column_count", 19))
    with pytest.raises(DatasetFormatError, match="19 states") as exc:
        load_scatter(path)
    assert exc.value.line == 2


def test_header_count_beyond_the_file_is_a_truncation(tmp_path, small_dataset):
    path = tmp_path / "data.jsonl"
    save_scatter(small_dataset, path)
    _edited(path, 0, _set("count", 10**12))
    with pytest.raises(DatasetFormatError, match="truncated") as exc:
        load_scatter(path)
    assert exc.value.line == len(small_dataset) + 2


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
@pytest.mark.parametrize("count", [None, 10**12], ids=["as-saved", "count-beyond-the-file"])
def test_dataset_loads_from_a_named_pipe(tmp_path, count):
    ds = collect(default_scene(with_obstacle=True), count=250, seed=6)
    path, fifo = tmp_path / "data.jsonl", tmp_path / "pipe"
    save_scatter(ds, path)
    if count is not None:
        _edited(path, 0, _set("count", count))
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True)
    writer.start()
    try:
        if count is None:
            loaded, saved = load_scatter(fifo), load_scatter(path)
            assert loaded.raw.tobytes() == saved.raw.tobytes() == ds.raw.tobytes()
            assert loaded.profiles.tobytes() == saved.profiles.tobytes() == ds.profiles.tobytes()
        else:
            with pytest.raises(DatasetFormatError, match="truncated") as exc:
                load_scatter(fifo)
            assert exc.value.line == len(ds) + 2
    finally:
        writer.join(timeout=10)


def _appended(text):
    return lambda path: path.write_text(path.read_text() + text)


def _records_again(first, last):
    """Lines ``first`` to ``last`` appended once more to the end of the file."""
    def edit(path):
        text = path.read_text()
        path.write_text(text + "".join(text.splitlines(keepends=True)[first:last + 1]))
    return edit


# lines after the header's count of records: (saved dataset, edit, line named or None to load)
TRAILING_LINES = {
    "two-scatter-records": (lambda: _fake_scatter(6), _records_again(1, 2), 8),
    "garbage": (lambda: _fake_scatter(6), _appended("garbage\n"), 8),
    "five-target-records": (lambda: generate_targets(5, seed=8), _records_again(1, 5), 7),
    "blank-lines": (lambda: _fake_scatter(6), _appended("\n  \n\t\n"), None),
    "blank-lines-after-targets": (lambda: generate_targets(5, seed=8), _appended("\n\n"), None),
}


@pytest.mark.parametrize("case", TRAILING_LINES)
def test_lines_after_the_last_record(tmp_path, case):
    make, edit, line = TRAILING_LINES[case]
    ds = make()
    save, load = (save_targets, load_targets) if isinstance(ds, TargetDataset) else (save_scatter, load_scatter)
    path = tmp_path / "data.jsonl"
    save(ds, path)
    edit(path)
    if line is None:
        assert load(path).digest() == ds.digest()
    else:
        with pytest.raises(DatasetFormatError, match="more follow") as exc:
            load(path)
        assert exc.value.line == line


def test_integer_raw_values_in_range_load(tmp_path, small_dataset):
    path = tmp_path / "data.jsonl"
    save_scatter(small_dataset, path)
    _edited(path, 3, _set("raw", [1, 0.5, 2]))
    loaded = load_scatter(path)
    assert loaded.raw[2].tolist() == [1.0, 0.5, 2.0]


MALFORMED_TARGETS = {
    "null-low": (0, _set("low", None)),
    "missing-high": (0, _drop("high")),
    "missing-seed": (0, _drop("seed")),
    "inf-high": (0, _set("high", float("inf"))),
    "nan-target": (2, _set("target", [0.1, float("nan"), 0.3])),
    "null-target": (2, _set("target", None)),
    "short-target": (4, _set("target", [0.1, 0.2])),
    "low-not-below-high": (0, _set("low", 0.6)),
    "target-above-high": (3, _set("target", [0.1, 0.6 + 1e-9, 0.3])),
    "target-below-low": (5, _set("target", [-1e-9, 0.2, 0.3])),
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


def test_targets_within_the_slack_load(tmp_path):
    path = tmp_path / "targets.jsonl"
    save_targets(generate_targets(6, seed=8), path)
    _edited(path, 2, _set("target", [0.6 + 1e-13, -1e-13, 0.3]))
    assert load_targets(path).targets[1].tolist() == [0.6 + 1e-13, -1e-13, 0.3]


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
