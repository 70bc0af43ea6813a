"""Pipeline orchestration, CSV exports, and the adaptation-study mechanics."""

import csv
import dataclasses

import numpy as np
import pytest

from rispa import cli, evalkit
from rispa.dataio import SplitSpec
from rispa.evalkit import (
    PipelineSettings,
    desk_settings,
    export_history,
    export_scatter,
    paper_settings,
    run_pipeline,
    run_special_cases,
)
from rispa.neural import TrainReport, init_mlp
from rispa.scene import default_scene, scene_digest


def tiny_settings(**over):
    base = dict(
        profile_count=80, target_count=120, epochs_fse=8, epochs_ide=4,
        lr_fse=2e-3, lr_ide=2e-3, batch_fse=32, batch_ide=32,
        noise_sigma=0.0,
        scatter_split=SplitSpec(0.8, 0.1, 0.1),
        target_split=SplitSpec(0.8, 0.1, 0.1),
    )
    base.update(over)
    return PipelineSettings(**base)


def test_preset_hyperparameters():
    paper = paper_settings()
    assert paper.profile_count == 10000
    assert paper.target_count == 48000
    assert paper.epochs_fse == 10000
    assert paper.epochs_ide == 6000
    assert paper.lr_fse == pytest.approx(1e-4)
    assert paper.lr_ide == pytest.approx(5e-4)
    desk = desk_settings()
    assert desk.profile_count == 2000
    assert desk.target_count == 8000
    assert desk.epochs_fse == 1000
    assert desk.epochs_ide == 600
    assert desk.noise_sigma == 0.0
    for preset in (paper, desk):
        assert preset.temperature == 10.0


@pytest.mark.parametrize("override", [
    {"profile_count": 2}, {"target_count": 5}, {"epochs_fse": 0}, {"epochs_ide": 0},
    {"batch_fse": 0}, {"batch_ide": -1}, {"lr_fse": 0.0}, {"lr_ide": float("inf")},
    {"lr_fse": float("nan")}, {"temperature": 0.0}, {"temperature": -1.0},
    {"temperature": float("inf")}, {"noise_sigma": -0.01}, {"noise_sigma": 1e308},
], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
def test_settings_reject_unusable_values(override):
    for preset in (desk_settings, paper_settings):
        with pytest.raises(ValueError):
            dataclasses.replace(preset(), **override)
    with pytest.raises(ValueError):
        tiny_settings(**override)


@pytest.fixture(scope="module")
def tiny_run():
    return run_pipeline(default_scene(), tiny_settings(), seed=21)


def test_run_pipeline_structure(tiny_run):
    res = tiny_run
    assert res.fse.mlp.layer_dims == [40, 100, 100, 3]
    assert res.ide.mlp.layer_dims == [3, 50, 50, 20]
    assert len(res.fse_report.train_losses) == 8
    assert len(res.ide_report.train_losses) == 4
    assert res.eval_result.table.shape == (12, 9)
    assert res.special_table.shape == (3, 9)
    assert set(res.timings) == {"collect", "train_fse", "train_ide", "eval"}
    assert all(t >= 0 for t in res.timings.values())


def test_run_pipeline_is_deterministic(tiny_run):
    res2 = run_pipeline(default_scene(), tiny_settings(), seed=21)
    assert np.array_equal(res2.eval_result.table, tiny_run.eval_result.table)
    assert res2.fse.digest() == tiny_run.fse.digest()
    assert res2.ide.fse_digest == tiny_run.ide.fse_digest
    res3 = run_pipeline(default_scene(), tiny_settings(), seed=22)
    assert not np.array_equal(res3.eval_result.table, tiny_run.eval_result.table)


def test_special_cases_table_shape(tiny_run):
    names, table = run_special_cases(tiny_run.ide, tiny_run.fse, default_scene())
    assert names == ["001", "101", "000"]
    assert table.shape == (3, 9)
    assert np.allclose(table[0, :3], [0.0, 0.0, 0.55])
    assert np.allclose(table[1, :3], [0.55, 0.0, 0.55])
    assert np.allclose(table[2, :3], [0.0, 0.0, 0.0])


def test_summary_text(tiny_run, tmp_path):
    cfg = cli.RunConfig(scene=default_scene(), scene_b=None, out_dir=tmp_path, seed=21,
                        preset="desk", settings=tiny_settings())
    text = cli.outcome_text(cli.cmd_pipeline(cfg))
    assert (tmp_path / cli.SUMMARY_FILE).read_text() == text
    lines = dict(line.split(": ", 1) for line in text.splitlines())
    for key in ("seed", "scene_digest", "fse_test_mse", "mse_measured",
                "soft_hard_gap_rms", "special_000_measured", "collect_seconds"):
        assert key in lines
    # the summary prints the run's own metrics, floats at full precision
    assert lines["seed"] == "21"
    assert lines["scene_digest"] == scene_digest(default_scene())
    assert lines["fse_test_mse"] == repr(float(tiny_run.fse_test_mse))
    assert lines["mse_measured"] == ",".join(map(repr, tiny_run.eval_result.mse_measured.tolist()))
    assert lines["soft_hard_gap_rms"] == repr(float(tiny_run.soft_hard_gap))


# ---------------------------------------------------------------------------
# CSV exports
# ---------------------------------------------------------------------------

def test_export_scatter_line_count_and_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    table = rng.uniform(0.0, 1.0, size=(3000, 9))
    path = tmp_path / "eval.csv"
    export_scatter(table, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3001  # header + rows
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        parsed = np.array([[float(row[c]) for c in evalkit.SCATTER_CSV_COLUMNS]
                           for row in reader])
    assert np.array_equal(parsed, table)


def test_export_scatter_bytes_match_per_value_format(tmp_path):
    rng = np.random.default_rng(2)
    table = rng.normal(size=(40, 9)) * 10.0 ** rng.integers(-300, 300, size=(40, 9))
    table[3] = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.0 / 3.0, 1e16, -1.0]
    table[7, ::2] = np.nan
    path = tmp_path / "eval.csv"
    export_scatter(table, path, provenance={"seed": 1})
    expected = "# seed=1\n" + ",".join(evalkit.SCATTER_CSV_COLUMNS) + "\n" + "".join(
        ",".join(format(v, ".17g") for v in row) + "\n" for row in table.tolist())
    assert path.read_bytes() == expected.encode("utf-8")
    assert "nan,inf,-inf,-0,0," in path.read_text()


def test_export_scatter_provenance_line(tmp_path):
    table = np.zeros((2, 9))
    path = tmp_path / "eval.csv"
    export_scatter(table, path, provenance={"seed": 7, "scene_digest": "abc"})
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed=7 scene_digest=abc"
    assert len(lines) == 4


def test_export_scatter_rejects_empty_and_misshapen(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        export_scatter(np.empty((0, 9)), tmp_path / "x.csv")
    with pytest.raises(ValueError, match="columns"):
        export_scatter(np.zeros((2, 4)), tmp_path / "x.csv")


def test_export_interrupted_mid_write_keeps_previous_file(tmp_path):
    path = tmp_path / "eval.csv"
    export_scatter(np.zeros((2, 9)), path)
    before = path.read_bytes()
    bad = np.zeros((50, 9), dtype=object)
    bad[40, 4] = "not a number"   # rows 0-39 are written before the writer raises
    with pytest.raises(ValueError):
        export_scatter(bad, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["eval.csv"]


def test_export_history_round_trip(tmp_path):
    report = TrainReport(
        train_losses=[0.5, 0.25, 0.125], val_losses=[0.6, 0.3, 0.2],
        model=init_mlp([2, 2], seed=0), best_epoch=2, seed=0,
    )
    path = tmp_path / "history.csv"
    export_history(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_mse,val_mse"
    assert len(lines) == 4
    assert [float(v) for v in lines[1].split(",")] == [0, 0.5, 0.6]

    empty = TrainReport(train_losses=[], val_losses=[], model=init_mlp([2, 2], seed=0),
                        best_epoch=-1, seed=0)
    with pytest.raises(ValueError, match="empty"):
        export_history(empty, tmp_path / "empty.csv")


# ---------------------------------------------------------------------------
# adaptation study
# ---------------------------------------------------------------------------

def test_adaptation_rejects_unrelated_scenes(tiny_run):
    a = default_scene()
    b = default_scene()
    b.noise_sigma = 0.2
    with pytest.raises(ValueError, match="obstacle"):
        evalkit.run_adaptation_study(tiny_run, a, b, tiny_settings())


@pytest.mark.parametrize("scenes, settings", [
    ((default_scene(with_obstacle=True), default_scene()), tiny_settings()),
    ((default_scene(), default_scene(with_obstacle=True)), tiny_settings(noise_sigma=0.01)),
], ids=["scenes-swapped", "noise-override-differs"])
def test_adaptation_refuses_a_base_from_another_scene(tiny_run, scenes, settings):
    with pytest.raises(ValueError, match="different scene"):
        evalkit.run_adaptation_study(tiny_run, *scenes, settings)


ADAPT_SETTINGS = tiny_settings(
    profile_count=800, target_count=2400, epochs_fse=400, epochs_ide=120,
    batch_fse=128, batch_ide=256,
)


@pytest.fixture(scope="module")
def seed5_base():
    return run_pipeline(default_scene(), ADAPT_SETTINGS, seed=5)


@pytest.mark.slow
def test_adaptation_degenerate_control(seed5_base):
    # identical scenes: "stale" and "retrained" are two independently seeded
    # pipelines on the same physics, so their MSEs must be comparable
    rep = evalkit.run_adaptation_study(
        seed5_base, default_scene(), default_scene(), ADAPT_SETTINGS
    )
    stale, retrained = rep.stale_mse.mean(), rep.retrained_mse.mean()
    assert stale < 2.0 * retrained
    assert retrained < 2.0 * stale
    assert rep.collect_seconds > 0.0 and rep.train_seconds > 0.0


@pytest.mark.slow
def test_adaptation_study_is_fully_seeded():
    settings = tiny_settings(profile_count=200, target_count=300,
                             epochs_fse=30, epochs_ide=10)
    base = run_pipeline(default_scene(), settings, seed=9)
    a, b = (evalkit.run_adaptation_study(
        base, default_scene(), default_scene(with_obstacle=True), settings
    ) for _ in range(2))
    assert np.array_equal(a.stale_mse, b.stale_mse)
    assert np.array_equal(a.retrained_mse, b.retrained_mse)
    assert np.array_equal(a.stale_table, b.stale_table)
    assert np.array_equal(a.retrained_table, b.retrained_table)


@pytest.mark.slow
def test_adaptation_obstacle_degrades_then_recovers(seed5_base):
    rep = evalkit.run_adaptation_study(
        seed5_base, default_scene(), default_scene(with_obstacle=True),
        ADAPT_SETTINGS,
    )
    # the obstacle must hurt the stale design pipeline noticeably
    assert rep.stale_mse.mean() > rep.retrained_mse.mean()
    assert rep.stale_table.shape == rep.retrained_table.shape
