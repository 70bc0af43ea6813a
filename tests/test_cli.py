"""CLI contract: stage chaining, dependency errors, digests, determinism."""

import dataclasses
import json
import subprocess
import sys

import pytest

from rispa import cli, evalkit
from rispa.evalkit import desk_settings
from rispa.scene import default_scene, save_scene, scene_digest

TINY = ["--profiles", "80", "--targets", "120", "--epochs-fse", "6",
        "--epochs-ide", "3", "--batch", "32"]


def run_cli(args, out_dir):
    return cli.main([*args, "--out", str(out_dir)])


def test_pipeline_writes_all_artifacts(tmp_path):
    assert run_cli(["pipeline", "--seed", "5", *TINY], tmp_path) == 0
    for name in ("dataset.jsonl", "fse.json", "ide.json", "eval.csv",
                 "special_cases.csv", "summary.txt", "manifest.json",
                 "fse_history.csv", "ide_history.csv", "scene.json"):
        assert (tmp_path / name).exists(), name


def test_pipeline_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["pipeline", "--seed", "9", *TINY], a) == 0
    assert run_cli(["pipeline", "--seed", "9", *TINY], b) == 0
    assert (a / "eval.csv").read_bytes() == (b / "eval.csv").read_bytes()
    assert (a / "dataset.jsonl").read_bytes() == (b / "dataset.jsonl").read_bytes()
    assert (a / "fse.json").read_bytes() == (b / "fse.json").read_bytes()
    c = tmp_path / "c"
    assert run_cli(["pipeline", "--seed", "10", *TINY], c) == 0
    assert (a / "eval.csv").read_bytes() != (c / "eval.csv").read_bytes()


def test_stagewise_chain_matches_contract(tmp_path):
    assert run_cli(["collect", "--seed", "5", *TINY], tmp_path) == 0
    assert run_cli(["train-fse", "--seed", "5", *TINY], tmp_path) == 0
    assert run_cli(["train-ide", "--seed", "5", *TINY], tmp_path) == 0
    assert run_cli(["eval", "--seed", "5", *TINY], tmp_path) == 0
    assert run_cli(["special-cases", "--seed", "5", *TINY], tmp_path) == 0
    assert (tmp_path / "eval.csv").exists()
    assert (tmp_path / "special_cases.csv").exists()


def _as_json_or_text(text):
    try:
        return json.loads(text)
    except ValueError:
        return text


def _same_outcome(lines, outcome):
    """True if the ``key: value`` lines print the manifest ``outcome``, value for value."""
    printed = {key: [_as_json_or_text(v) for v in text.split(",")]
               for key, text in (line.split(": ", 1) for line in lines)}
    return len(printed) == len(lines) and printed == {
        k: v if isinstance(v, list) else [v] for k, v in outcome.items()}


def test_pipeline_matches_stagewise_chain(tmp_path, capsys):
    piped, chained = tmp_path / "piped", tmp_path / "chained"
    assert run_cli(["pipeline", "--seed", "5", *TINY], piped) == 0
    piped_lines = capsys.readouterr().out.splitlines()
    chained_lines = []
    for stage in ("collect", "train-fse", "train-ide", "eval", "special-cases"):
        assert run_cli([stage, "--seed", "5", *TINY], chained) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"artifacts -> {chained}"
        manifest = json.loads((chained / "manifest.json").read_text())
        assert _same_outcome(lines[:-1], manifest[stage]["outcome"]), stage
        chained_lines += lines[:-1]
    for name in ("dataset.jsonl", "targets.jsonl", "fse.json", "ide.json", "eval.csv",
                 "special_cases.csv", "fse_history.csv", "ide_history.csv", "scene.json"):
        assert (piped / name).read_bytes() == (chained / name).read_bytes(), name

    # pipeline prints the chain's lines between its provenance and its timings
    assert piped_lines[-1] == f"artifacts -> {piped}"
    assert [line.split(":")[0] for line in piped_lines[:2]] == ["seed", "scene_digest"]
    timings = [line.split(":")[0] for line in piped_lines[-5:-1]]
    assert timings == ["collect_seconds", "train_fse_seconds", "train_ide_seconds", "eval_seconds"]
    assert piped_lines[2:-5] == chained_lines
    assert (piped / "summary.txt").read_text() == "".join(f"{line}\n" for line in piped_lines[:-1])
    manifest = json.loads((piped / "manifest.json").read_text())
    assert _same_outcome(piped_lines[:-1], manifest["pipeline"]["outcome"])
    assert run_cli(["eval", "--seed", "5", *TINY], piped) == 0


@pytest.mark.parametrize("flags", [
    ["--batch", "0"], ["--tau", "-1"], ["--tau", "inf"], ["--profiles", "2"], ["--epochs-fse", "0"],
    ["--lr-ide", "0"], ["--noise", "-0.1"], ["--noise", "1e308"], ["--seed", "-1"],
], ids=lambda flags: " ".join(flags))
def test_bad_flag_fails_before_any_work(tmp_path, capsys, flags):
    assert run_cli(["pipeline", *TINY, *flags], tmp_path) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "dataset.jsonl").exists()


def test_scatter_header_without_column_count_is_runtime_error(tmp_path, capsys):
    assert run_cli(["collect", "--seed", "5", *TINY], tmp_path) == 0
    path = tmp_path / "dataset.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    del header["column_count"]
    path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
    assert run_cli(["train-fse", "--seed", "5", *TINY], tmp_path) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "dataset.jsonl:1:" in err and "column_count" in err


def test_diverged_training_is_runtime_error(tmp_path, capsys):
    assert run_cli(["collect", "--seed", "5", *TINY], tmp_path) == 0
    code = run_cli(["train-fse", "--seed", "5", *TINY, "--lr-fse", "1e300"], tmp_path)
    assert code == cli.EXIT_RUNTIME
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: diverged") and "\n" not in err
    assert not (tmp_path / "fse.json").exists()


def test_diverged_training_prints_one_line(tmp_path):
    # a subprocess sees numpy's RuntimeWarnings, which pytest would capture in-process
    assert run_cli(["collect", "--seed", "5", *TINY], tmp_path) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "rispa.cli", "train-fse", "--seed", "5", *TINY,
         "--lr-fse", "1e300", "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == cli.EXIT_RUNTIME
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: diverged"), proc.stderr


def test_unhealthy_surrogate_is_written_flagged_and_exits_0(tmp_path, capsys, caplog):
    caplog.set_level("INFO")
    # at --lr-fse 1e6 the float32 steps stay finite, but validation MSE reaches about 1e40
    assert run_cli(["collect", "--seed", "5", *TINY], tmp_path) == 0
    capsys.readouterr()
    assert run_cli(["train-fse", "--seed", "5", *TINY, "--lr-fse", "1e6"], tmp_path) == cli.EXIT_OK
    assert (tmp_path / "fse.json").exists()
    outcome = json.loads((tmp_path / "manifest.json").read_text())["train-fse"]["outcome"]
    assert outcome["fse_healthy"] is False
    assert outcome["fse_val_mse"] > 1e30 > 1.0 > outcome["fse_mean_predictor_mse"] > 0.0
    assert "fse_healthy: false\n" in capsys.readouterr().out
    flagged = [r.getMessage() for r in caplog.records if r.getMessage().startswith("unhealthy")]
    assert len(flagged) == 1 and flagged[0].startswith("unhealthy fse: validation MSE")


def test_frozen_inverse_training_is_runtime_error(tmp_path, capsys):
    # at tau = 1e-300 the soft quantizer is an exact staircase: every IDE gradient is zero
    assert run_cli(["pipeline", "--seed", "5", *TINY, "--tau", "1e-300"], tmp_path) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: frozen") and "zero gradients" in err and "\n" not in err
    assert not (tmp_path / "ide.json").exists()


def test_eval_with_corrupt_surrogate_file_prints_one_line(tmp_path, capsys):
    (tmp_path / "fse.json").write_text('{"format_version": 1, "weights": [], "biases": []}')
    assert run_cli(["eval", "--seed", "5", *TINY], tmp_path) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "fse.json" in err, err


def test_eval_with_a_16_state_inverse_model_prints_one_line(tmp_path, capsys):
    for stage in ("collect", "train-fse", "train-ide"):
        assert run_cli([stage, "--seed", "5", *TINY], tmp_path) == 0
    path = tmp_path / "ide.json"
    doc = json.loads(path.read_text())
    doc["provenance"]["quantizer"].update(state_count=16, step_degrees=22.5)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli(["eval", "--seed", "5", *TINY], tmp_path) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "ide.json" in err, err
    assert not (tmp_path / "eval.csv").exists()


def test_train_ide_without_fse_is_dependency_error(tmp_path, capsys):
    code = run_cli(["train-ide", *TINY], tmp_path)
    assert code == cli.EXIT_MISSING_DEPENDENCY
    assert "missing dependency: train-fse" in capsys.readouterr().err


def test_train_fse_without_dataset_is_dependency_error(tmp_path, capsys):
    code = run_cli(["train-fse", *TINY], tmp_path)
    assert code == cli.EXIT_MISSING_DEPENDENCY
    assert "missing dependency: collect" in capsys.readouterr().err


def test_eval_without_models_is_dependency_error(tmp_path):
    assert run_cli(["eval", *TINY], tmp_path) == cli.EXIT_MISSING_DEPENDENCY


def test_eval_with_mismatched_seed_is_config_error(tmp_path, capsys):
    for stage in ("collect", "train-fse", "train-ide"):
        assert run_cli([stage, "--seed", "5", *TINY], tmp_path) == 0
    code = run_cli(["eval", "--seed", "6", *TINY], tmp_path)
    assert code == cli.EXIT_CONFIG
    assert "different --seed" in capsys.readouterr().err


def test_missing_scene_file_is_config_error(tmp_path, capsys):
    code = run_cli(["collect", "--scene", str(tmp_path / "nope.json"), *TINY], tmp_path)
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [{"obstacle": {}}, {"column_count": None}, [1],
                                 {"obstacle": {"positions_m": [[0, 0, 1]], "coefficients": [1]}}])
def test_malformed_scene_file_is_one_line_config_error(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["collect", "--scene", str(path), *TINY], tmp_path) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error: --scene: "), err


@pytest.mark.parametrize("probes", [2, 4])
@pytest.mark.parametrize("command,flag", [("collect", "--scene"), ("eval", "--scene"),
                                          ("adapt", "--scene"), ("adapt", "--scene-b")])
def test_scene_without_three_probes_fails_before_any_work(tmp_path, capsys, probes, command, flag):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"probe_positions_m": [[0.1 * i, 0.0, 1.0] for i in range(probes)]}))
    out = tmp_path / "out"
    assert run_cli([command, flag, str(path), *TINY], out) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: {flag}: the scene has {probes} probes; rispa needs exactly 3\n"
    assert not out.exists()


def test_adapt_with_scenes_differing_outside_the_obstacle_fails_before_any_work(tmp_path):
    # a subprocess, so that any log line of a started run would show on stderr
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"frequency_hz": 1.0e10}))
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "rispa.cli", "adapt", "--scene-b", str(path),
                           "--seed", "1", *TINY, "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_CONFIG
    assert proc.stderr == "config error: --scene-b: scenes must differ only in the obstacle block\n"
    assert proc.stdout == "" and not out.exists()


def test_scene_digest_mismatch_refused_without_force(tmp_path, capsys):
    assert run_cli(["collect", "--seed", "5", *TINY], tmp_path) == 0
    # different scene (nonzero noise changes the digest)
    assert run_cli(["train-fse", "--seed", "5", "--noise", "0.05", *TINY],
                   tmp_path) == cli.EXIT_CONFIG
    assert "digest mismatch" in capsys.readouterr().err
    assert run_cli(["train-fse", "--seed", "5", "--noise", "0.05", "--force", *TINY],
                   tmp_path) == 0


def test_scene_digest_mismatch_is_reported_once(tmp_path):
    # a subprocess sees the log lines of main's basicConfig handler, which pytest would not
    assert run_cli(["collect", "--seed", "5", *TINY], tmp_path) == 0
    train_fse = [sys.executable, "-m", "rispa.cli", "train-fse", "--seed", "5", "--noise", "0.05",
                 *TINY, "--out", str(tmp_path)]
    refused = subprocess.run(train_fse, capture_output=True, text=True)
    assert refused.returncode == cli.EXIT_CONFIG
    assert len(refused.stderr.splitlines()) == 1 and "digest mismatch" in refused.stderr
    forced = subprocess.run([*train_fse, "--force"], capture_output=True, text=True)
    assert forced.returncode == 0
    warnings = [line for line in forced.stderr.splitlines() if line.startswith("WARNING")]
    assert len(warnings) == 1 and "digest mismatch" in warnings[0], forced.stderr


def test_surrogate_mismatch_is_reported_once(tmp_path):
    # retraining the surrogate alone leaves an inverse network trained against another one
    assert run_cli(["pipeline", "--seed", "5", *TINY], tmp_path) == 0
    assert run_cli(["train-fse", "--seed", "5", "--lr-fse", "2e-3", *TINY], tmp_path) == 0
    evaluate = [sys.executable, "-m", "rispa.cli", "eval", "--seed", "5", *TINY,
                "--out", str(tmp_path)]
    refused = subprocess.run(evaluate, capture_output=True, text=True)
    assert refused.returncode == cli.EXIT_CONFIG
    assert len(refused.stderr.splitlines()) == 1 and "different surrogate" in refused.stderr
    forced = subprocess.run([*evaluate, "--force"], capture_output=True, text=True)
    assert forced.returncode == 0
    warnings = [line for line in forced.stderr.splitlines() if line.startswith("WARNING")]
    assert len(warnings) == 1 and "different surrogate" in warnings[0], forced.stderr
    assert "UserWarning" not in forced.stderr


def test_explicit_scene_file_and_rispa_out_env(tmp_path, monkeypatch):
    scene_path = tmp_path / "scene.json"
    save_scene(default_scene(), scene_path)
    out = tmp_path / "from_env"
    monkeypatch.setenv("RISPA_OUT", str(out))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["collect", "--scene", str(scene_path), "--seed", "1", *TINY]) == 0
    assert (out / "dataset.jsonl").exists()


def test_adapt_command_runs_tiny(tmp_path):
    assert run_cli(["pipeline", "--seed", "5", *TINY], tmp_path) == 0
    code = run_cli(["adapt", "--seed", "5", *TINY], tmp_path)
    assert code == 0
    for name in ("adapt_stale.csv", "adapt_retrained.csv", "adapt_summary.txt"):
        assert (tmp_path / name).exists(), name
    text = (tmp_path / "adapt_summary.txt").read_text()
    assert "stale_mse:" in text and "retrained_mse:" in text
    # the tables were measured on the obstacle scene under the desk preset's noise override
    measured_on = dataclasses.replace(default_scene(with_obstacle=True), noise_sigma=0.0)
    for name in ("adapt_stale.csv", "adapt_retrained.csv"):
        first = (tmp_path / name).read_text().splitlines()[0]
        assert first == f"# seed=5 scene_digest={scene_digest(measured_on)}", name


def test_adapt_reproduces_the_in_process_study_byte_for_byte(tmp_path):
    assert run_cli(["pipeline", "--seed", "5", *TINY], tmp_path) == 0
    assert run_cli(["adapt", "--seed", "5", *TINY], tmp_path) == 0

    # the same run in process: TINY's flags over the desk preset, on the default scenes
    settings = dataclasses.replace(desk_settings(), profile_count=80, target_count=120,
                                   epochs_fse=6, epochs_ide=3, batch_fse=32, batch_ide=32)
    clean, obstacle = default_scene(), default_scene(with_obstacle=True)
    base = evalkit.run_pipeline(clean, settings, 5)
    report = evalkit.run_adaptation_study(base, clean, obstacle, settings)
    prov = {"seed": 5, "scene_digest": scene_digest(dataclasses.replace(obstacle, noise_sigma=0.0))}
    expected = tmp_path / "expected"
    expected.mkdir()
    evalkit.export_scatter(report.stale_table, expected / "adapt_stale.csv", prov)
    evalkit.export_scatter(report.retrained_table, expected / "adapt_retrained.csv", prov)
    for name in ("adapt_stale.csv", "adapt_retrained.csv"):
        assert (tmp_path / name).read_bytes() == (expected / name).read_bytes(), name

    baseline = cli.outcome_text({"baseline_mse": base.eval_result.mse_measured.tolist()})
    assert baseline in (tmp_path / "adapt_summary.txt").read_text()
    mse_measured = cli.outcome_text({"mse_measured": base.eval_result.mse_measured.tolist()})
    assert mse_measured in (tmp_path / "summary.txt").read_text()


def test_adapt_without_a_deployed_system_is_dependency_error(tmp_path, capsys):
    assert run_cli(["adapt", "--seed", "5", *TINY], tmp_path) == cli.EXIT_MISSING_DEPENDENCY
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("missing dependency: "), err
    assert not list(tmp_path.glob("adapt_*"))


def test_adapt_with_mismatched_seed_is_config_error(tmp_path):
    # a subprocess, so that any log line of a started study would show on stderr
    assert run_cli(["pipeline", "--seed", "5", *TINY], tmp_path) == 0
    proc = subprocess.run([sys.executable, "-m", "rispa.cli", "adapt", "--seed", "6", *TINY,
                           "--out", str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_CONFIG
    assert len(proc.stderr.splitlines()) == 1 and "different --seed" in proc.stderr, proc.stderr
    assert not list(tmp_path.glob("adapt_*"))


def test_adapt_after_a_pipeline_on_another_scene(tmp_path):
    # nonzero noise changes the digest of the scene the deployed system was trained on
    assert run_cli(["pipeline", "--seed", "5", "--noise", "0.05", *TINY], tmp_path) == 0
    adapt = [sys.executable, "-m", "rispa.cli", "adapt", "--seed", "5", *TINY,
             "--out", str(tmp_path)]
    # the study cannot start from a surrogate of another scene, so --force changes nothing:
    # one line and exit 2, before anything is scored or written
    for flags in ([], ["--force"]):
        refused = subprocess.run([*adapt, *flags], capture_output=True, text=True)
        assert refused.returncode == cli.EXIT_CONFIG, refused.stderr
        assert len(refused.stderr.splitlines()) == 1, refused.stderr
        assert "digest mismatch" in refused.stderr and "--force does not apply" in refused.stderr
        assert refused.stdout == ""
    assert not list(tmp_path.glob("adapt_*"))
    assert "adapt" not in json.loads((tmp_path / "manifest.json").read_text())


def test_threads_flag_is_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["collect", "--threads", "2", *TINY], tmp_path)
    assert exc.value.code == 2
    assert not (tmp_path / "dataset.jsonl").exists()


def test_manifest_that_is_not_an_object_is_started_afresh(tmp_path):
    (tmp_path / "manifest.json").write_text("[1]\n")
    assert run_cli(["collect", "--seed", "5", *TINY], tmp_path) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert list(manifest) == ["collect"]


def test_console_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "rispa.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for flag in ("--scene", "--seed", "--preset", "--tau", "--force"):
        assert flag in proc.stdout
