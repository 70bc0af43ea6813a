"""Command-line entry point: one subcommand per pipeline stage.

Stages communicate through files in a flat output directory (``--out``, or
the RISPA_OUT environment variable): dataset.jsonl, fse.json, ide.json,
targets.jsonl, eval.csv, plus CSV histories and a summary. Every artifact
embeds the seed and scene digest that produced it; there is no hidden state
between commands, and reruns with the same flags are byte-identical. The
stages themselves live in ``evalkit``; ``pipeline`` runs them in one process
and writes the same artifacts as the stage-by-stage chain.

Each command's results are one outcome dict: stdout prints it as ``key: value``
lines, followed by one ``artifacts -> <out>`` line, and manifest.json records
it under the command's name. ``pipeline``'s outcome is the seed, the scene
digest, the five stages' outcomes in chain order and the stage timings; its
summary.txt is the printed text without the artifacts line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from . import dataio, engines, evalkit
from .atomic import atomic_write
from .dataio import derive_seed
from .evalkit import PRESETS, PipelineSettings
from .neural import TrainingDiverged
from .scene import Scene, default_scene, load_scene, save_scene, scene_digest

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_MISSING_DEPENDENCY = 3

DATASET_FILE = "dataset.jsonl"
TARGETS_FILE = "targets.jsonl"
FSE_FILE = "fse.json"
IDE_FILE = "ide.json"
FSE_HISTORY_FILE = "fse_history.csv"
IDE_HISTORY_FILE = "ide_history.csv"
EVAL_FILE = "eval.csv"
SPECIAL_FILE = "special_cases.csv"
SUMMARY_FILE = "summary.txt"
MANIFEST_FILE = "manifest.json"
ADAPT_STALE_FILE = "adapt_stale.csv"
ADAPT_RETRAINED_FILE = "adapt_retrained.csv"
ADAPT_SUMMARY_FILE = "adapt_summary.txt"


class CliError(Exception):
    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


class MissingDependency(CliError):
    def __init__(self, stage: str):
        super().__init__(f"missing dependency: {stage}", EXIT_MISSING_DEPENDENCY)


@dataclasses.dataclass
class RunConfig:
    """Resolved invocation: scene(s) under the noise override, output directory, seed, settings."""

    scene: Scene
    scene_b: Scene | None
    out_dir: Path
    seed: int
    preset: str
    settings: PipelineSettings
    force: bool = False


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rispa",
        description="Power allocation with a programmable reflecting surface: "
                    "virtual experiment, tandem training, closed-loop evaluation.",
    )
    p.add_argument("command", choices=list(COMMANDS))
    p.add_argument("--scene", help="scene config JSON (default: built-in scene)")
    p.add_argument("--scene-b", help="second scene for adapt (default: built-in scene with obstacle)")
    p.add_argument("--out", help="output directory (default: $RISPA_OUT or ./rispa_out)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--preset", choices=sorted(PRESETS), default="desk")
    p.add_argument("--epochs-fse", type=int)
    p.add_argument("--epochs-ide", type=int)
    p.add_argument("--lr-fse", type=float)
    p.add_argument("--lr-ide", type=float)
    p.add_argument("--batch", type=int)
    p.add_argument("--tau", type=float, help="soft quantizer temperature in degrees")
    p.add_argument("--noise", type=float, help="override scene noise sigma")
    p.add_argument("--force", action="store_true",
                   help="proceed despite scene digest mismatches")
    p.add_argument("--profiles", type=int, help="override measurement count")
    p.add_argument("--targets", type=int, help="override generated target count")
    p.add_argument("-v", "--verbose", action="store_true")
    return p


# flag (argparse dest) -> the PipelineSettings fields it overrides
SETTING_FLAGS = {
    "epochs_fse": ("epochs_fse",),
    "epochs_ide": ("epochs_ide",),
    "lr_fse": ("lr_fse",),
    "lr_ide": ("lr_ide",),
    "batch": ("batch_fse", "batch_ide"),
    "tau": ("temperature",),
    "noise": ("noise_sigma",),
    "profiles": ("profile_count",),
    "targets": ("target_count",),
}


def _scene_flag(flag: str, path, with_obstacle: bool = False) -> Scene:
    try:
        return load_scene(path) if path else default_scene(with_obstacle=with_obstacle)
    except (OSError, ValueError) as e:
        raise CliError(f"config error: {flag}: {e}", EXIT_CONFIG) from e


def resolve_config(args) -> RunConfig:
    if args.seed < 0:
        raise CliError(f"config error: --seed: must be a non-negative integer, got {args.seed}",
                       EXIT_CONFIG)
    overrides = {
        name: getattr(args, flag)
        for flag, names in SETTING_FLAGS.items() for name in names
        if getattr(args, flag) is not None
    }
    try:
        settings = dataclasses.replace(PRESETS[args.preset](), **overrides)
    except (TypeError, ValueError) as e:
        raise CliError(f"config error: {e}", EXIT_CONFIG) from e

    # every stage reads the scene under the noise override, so it is applied here once
    scene = evalkit._apply_noise_override(_scene_flag("--scene", args.scene), settings)
    scene_b = None
    if args.command == "adapt":
        scene_b = evalkit._apply_noise_override(
            _scene_flag("--scene-b", args.scene_b, with_obstacle=True), settings)

    out = Path(args.out or os.environ.get("RISPA_OUT") or "rispa_out")
    return RunConfig(scene=scene, scene_b=scene_b, out_dir=out, seed=args.seed,
                     preset=args.preset, settings=settings, force=args.force)


# ---------------------------------------------------------------------------
# Stages: each returns its outcome, a flat dict of Python scalars and lists.
# A stage's save-and-report helper writes its artifacts and returns its part
# of the outcome, for the stage command and ``pipeline`` alike.
# ---------------------------------------------------------------------------

def _provenance(cfg: RunConfig, scene: Scene) -> dict:
    return {"seed": cfg.seed, "scene_digest": scene_digest(scene)}


def _require(path: Path, stage: str) -> Path:
    if not path.exists():
        raise MissingDependency(stage)
    return path


def _refuse_unless_forced(cfg: RunConfig, msg: str) -> None:
    if not cfg.force:
        raise CliError(msg + " (use --force to proceed)", EXIT_CONFIG)
    logger.warning("%s (continuing due to --force)", msg)


def _check_digest(cfg: RunConfig, stored: str, what: str) -> None:
    current = scene_digest(cfg.scene)
    if stored and stored != current:
        _refuse_unless_forced(cfg, f"scene digest mismatch: {what} was built on "
                                   f"{stored[:12]}..., current scene is {current[:12]}...")


def _format_value(value) -> str:
    if isinstance(value, list):
        return ",".join(map(_format_value, value))
    if isinstance(value, bool):
        return json.dumps(value)  # true or false, as manifest.json holds it
    return repr(value) if isinstance(value, float) else str(value)


def outcome_text(outcome: dict) -> str:
    """One ``key: value`` line per entry; floats print their shortest round-trip repr."""
    return "".join(f"{key}: {_format_value(value)}\n" for key, value in outcome.items())


def _collected(cfg: RunConfig, ds: dataio.ScatterDataset) -> dict:
    dataio.save_scatter(ds, cfg.out_dir / DATASET_FILE)
    save_scene(cfg.scene, cfg.out_dir / "scene.json")
    return {"records": len(ds), "i_max": float(ds.i_max),
            "fraction_below_0.6": ds.fraction_below().tolist()}


def _health(name: str, report) -> dict:
    """A saved network's validation MSE, the mean predictor's, and whether it beats that.

    The mean predictor always outputs the mean training target. A network
    that does no better is still written, and the command still exits 0;
    one INFO line names it. It is not a WARNING: short runs, such as
    ``perfbench cli_chain``'s, are routinely unhealthy, and a WARNING stays
    kept for a check the user overrode, such as a forced scene mismatch.
    """
    val, mean = float(report.best_val_loss), float(report.baseline_val_loss)
    healthy = val < mean
    if not healthy:
        logger.info("unhealthy %s: validation MSE %.4g is not below %.4g, the MSE of always "
                    "predicting the mean training target", name, val, mean)
    return {f"{name}_val_mse": val, f"{name}_mean_predictor_mse": mean, f"{name}_healthy": healthy}


def _fse_trained(cfg: RunConfig, fse, report, test_mse: float) -> dict:
    engines.save_fse(fse, cfg.out_dir / FSE_FILE)
    evalkit.export_history(report, cfg.out_dir / FSE_HISTORY_FILE, _provenance(cfg, cfg.scene))
    return {**_health("fse", report), "fse_test_mse": float(test_mse)}


def _ide_trained(cfg: RunConfig, targets, ide, report) -> dict:
    dataio.save_targets(targets, cfg.out_dir / TARGETS_FILE)
    engines.save_ide(ide, cfg.out_dir / IDE_FILE)
    evalkit.export_history(report, cfg.out_dir / IDE_HISTORY_FILE, _provenance(cfg, cfg.scene))
    return _health("ide", report)


def _evaluated(cfg: RunConfig, result: engines.EvalResult, gap: float) -> dict:
    evalkit.export_scatter(result.table, cfg.out_dir / EVAL_FILE, _provenance(cfg, cfg.scene))
    return {
        "eval_targets": len(result.table),
        "mse_predicted": result.mse_predicted.tolist(),
        "mse_measured": result.mse_measured.tolist(),
        "soft_hard_gap_rms": float(gap),
    }


def _specials(cfg: RunConfig, table) -> dict:
    evalkit.export_scatter(table, cfg.out_dir / SPECIAL_FILE, _provenance(cfg, cfg.scene))
    return {f"special_{name}_measured": row[6:9].tolist()
            for (name, _), row in zip(evalkit.SPECIAL_CASES, table)}


def cmd_collect(cfg: RunConfig) -> dict:
    return _collected(cfg, evalkit.stage_collect(cfg.scene, cfg.settings, cfg.seed))


def cmd_train_fse(cfg: RunConfig) -> dict:
    path = _require(cfg.out_dir / DATASET_FILE, "collect")
    ds = dataio.load_scatter(path)
    _check_digest(cfg, ds.scene_digest, "dataset")
    return _fse_trained(cfg, *evalkit.stage_train_fse(ds, cfg.settings, cfg.seed))


def cmd_train_ide(cfg: RunConfig) -> dict:
    fse = engines.load_fse(_require(cfg.out_dir / FSE_FILE, "train-fse"))
    _check_digest(cfg, fse.scene_digest, "surrogate")
    targets, splits = evalkit.stage_targets(cfg.settings, cfg.seed)
    return _ide_trained(cfg, targets, *evalkit.stage_train_ide(fse, splits, cfg.settings, cfg.seed))


def _load_models(cfg: RunConfig):
    fse = engines.load_fse(_require(cfg.out_dir / FSE_FILE, "train-fse"))
    ide = engines.load_ide(_require(cfg.out_dir / IDE_FILE, "train-ide"))
    _check_digest(cfg, fse.scene_digest, "surrogate")
    if ide.fse_digest != fse.digest():
        _refuse_unless_forced(cfg, "inverse engine was trained against a different surrogate")
    return fse, ide


def cmd_eval(cfg: RunConfig) -> dict:
    fse, ide = _load_models(cfg)
    targets_path = _require(cfg.out_dir / TARGETS_FILE, "train-ide")
    targets = dataio.load_targets(targets_path)
    if targets.seed != derive_seed(cfg.seed, evalkit.SEED_TARGETS):
        _refuse_unless_forced(cfg, "targets file was generated under a different --seed; "
                                   "the held-out split would not match training")
    t_test = evalkit.target_splits(targets, cfg.settings, cfg.seed)[2]
    result = evalkit.stage_eval(ide, fse, cfg.scene, t_test, cfg.seed)
    return _evaluated(cfg, result, engines.soft_hard_gap_rms(ide, fse, result))


def cmd_special_cases(cfg: RunConfig) -> dict:
    fse, ide = _load_models(cfg)
    return _specials(cfg, evalkit.run_special_cases(ide, fse, cfg.scene)[1])


def cmd_adapt(cfg: RunConfig) -> dict:
    base = evalkit.run_pipeline(cfg.scene, cfg.settings, cfg.seed)
    report = evalkit.run_adaptation_study(base, cfg.scene, cfg.scene_b, cfg.settings)
    prov = _provenance(cfg, cfg.scene_b)
    evalkit.export_scatter(report.stale_table, cfg.out_dir / ADAPT_STALE_FILE, prov)
    evalkit.export_scatter(report.retrained_table, cfg.out_dir / ADAPT_RETRAINED_FILE, prov)
    outcome = {
        "baseline_mse": base.eval_result.mse_measured.tolist(),
        "stale_mse": report.stale_mse.tolist(),
        "retrained_mse": report.retrained_mse.tolist(),
        "recollect_seconds": report.collect_seconds,
        "retrain_seconds": report.train_seconds,
    }
    with atomic_write(cfg.out_dir / ADAPT_SUMMARY_FILE) as f:
        f.write(outcome_text(outcome))
    return outcome


def cmd_pipeline(cfg: RunConfig) -> dict:
    r = evalkit.run_pipeline(cfg.scene, cfg.settings, cfg.seed)
    outcome = {
        **_provenance(cfg, cfg.scene),
        **_collected(cfg, r.dataset),
        **_fse_trained(cfg, r.fse, r.fse_report, r.fse_test_mse),
        **_ide_trained(cfg, r.targets, r.ide, r.ide_report),
        **_evaluated(cfg, r.eval_result, r.soft_hard_gap),
        **_specials(cfg, r.special_table),
        **{f"{stage}_seconds": secs for stage, secs in r.timings.items()},
    }
    with atomic_write(cfg.out_dir / SUMMARY_FILE) as f:
        f.write(outcome_text(outcome))
    return outcome


COMMANDS = {
    "collect": cmd_collect,
    "train-fse": cmd_train_fse,
    "train-ide": cmd_train_ide,
    "eval": cmd_eval,
    "special-cases": cmd_special_cases,
    "adapt": cmd_adapt,
    "pipeline": cmd_pipeline,
}


def _write_manifest(cfg: RunConfig, command: str, outcome: dict) -> None:
    manifest_path = cfg.out_dir / MANIFEST_FILE
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):  # none yet, or unreadable: start afresh
        manifest = {}
    if not isinstance(manifest, dict):  # parses, but is not a manifest: start afresh too
        manifest = {}
    manifest[command] = {
        "seed": cfg.seed,
        "preset": cfg.preset,
        "scene_digest": scene_digest(cfg.scene),
        "settings": dataclasses.asdict(cfg.settings),
        "outcome": outcome,
    }
    with atomic_write(manifest_path) as f:
        f.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = resolve_config(args)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        outcome = COMMANDS[args.command](cfg)
        print(outcome_text(outcome), end="")
        print(f"artifacts -> {cfg.out_dir}")
        _write_manifest(cfg, args.command, outcome)
    except CliError as e:
        print(str(e), file=sys.stderr)
        return e.exit_code
    except (ValueError, OSError, TrainingDiverged) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
