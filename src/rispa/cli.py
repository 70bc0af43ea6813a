"""Command-line entry point: one subcommand per pipeline stage.

Stages communicate through files in a flat output directory (``--out``, or
the RISPA_OUT environment variable): dataset.jsonl, fse.json, ide.json,
targets.jsonl, eval.csv, plus CSV histories and a summary. Every artifact
embeds the seed and scene digest that produced it; there is no hidden state
between commands, and reruns with the same flags are byte-identical. The
stages themselves live in ``evalkit``; ``pipeline`` runs them in one process
and writes the same artifacts as the stage-by-stage chain.
"""

from __future__ import annotations

import argparse
import ctypes
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
    """Resolved invocation: scene(s), output directory, seed, and settings."""

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
    scene = _scene_flag("--scene", args.scene)
    scene_b = None
    if args.command == "adapt":
        scene_b = _scene_flag("--scene-b", args.scene_b, with_obstacle=True)

    overrides = {
        name: getattr(args, flag)
        for flag, names in SETTING_FLAGS.items() for name in names
        if getattr(args, flag) is not None
    }
    try:
        settings = dataclasses.replace(PRESETS[args.preset](), **overrides)
    except (TypeError, ValueError) as e:
        raise CliError(f"config error: {e}", EXIT_CONFIG) from e

    out = Path(args.out or os.environ.get("RISPA_OUT") or "rispa_out")
    return RunConfig(
        scene=scene,
        scene_b=scene_b,
        out_dir=out,
        seed=args.seed,
        preset=args.preset,
        settings=settings,
        force=args.force,
    )


# ---------------------------------------------------------------------------
# Stage helpers
# ---------------------------------------------------------------------------

def _provenance(cfg: RunConfig, scene: Scene) -> dict:
    return {"seed": cfg.seed, "scene_digest": scene_digest(scene)}


def _effective_scene(cfg: RunConfig) -> Scene:
    return evalkit._apply_noise_override(cfg.scene, cfg.settings)


def _require(path: Path, stage: str) -> Path:
    if not path.exists():
        raise MissingDependency(stage)
    return path


def _refuse_unless_forced(cfg: RunConfig, msg: str) -> None:
    if not cfg.force:
        raise CliError(msg + " (use --force to proceed)", EXIT_CONFIG)
    logger.warning("%s (continuing due to --force)", msg)


def _check_digest(cfg: RunConfig, stored: str, what: str) -> None:
    current = scene_digest(_effective_scene(cfg))
    if stored and stored != current:
        _refuse_unless_forced(cfg, f"scene digest mismatch: {what} was built on "
                                   f"{stored[:12]}..., current scene is {current[:12]}...")


def _save_dataset(cfg: RunConfig, scene: Scene, ds: dataio.ScatterDataset) -> None:
    dataio.save_scatter(ds, cfg.out_dir / DATASET_FILE)
    save_scene(scene, cfg.out_dir / "scene.json")


def _save_fse(cfg: RunConfig, scene: Scene, fse, report) -> None:
    engines.save_fse(fse, cfg.out_dir / FSE_FILE)
    evalkit.export_history(report, cfg.out_dir / FSE_HISTORY_FILE, _provenance(cfg, scene))


def _save_ide(cfg: RunConfig, scene: Scene, targets, ide, report) -> None:
    dataio.save_targets(targets, cfg.out_dir / TARGETS_FILE)
    engines.save_ide(ide, cfg.out_dir / IDE_FILE)
    evalkit.export_history(report, cfg.out_dir / IDE_HISTORY_FILE, _provenance(cfg, scene))


def cmd_collect(cfg: RunConfig) -> dict:
    scene = _effective_scene(cfg)
    ds = evalkit.stage_collect(scene, cfg.settings, cfg.seed)
    _save_dataset(cfg, scene, ds)
    fracs = ds.fraction_below()
    print(f"collected {len(ds)} records -> {cfg.out_dir / DATASET_FILE}")
    print(f"i_max: {ds.i_max:.6g}")
    print("fraction_below_0.6: " + ",".join(f"{f:.4f}" for f in fracs))
    return {"i_max": ds.i_max, "fraction_below": fracs.tolist()}


def cmd_train_fse(cfg: RunConfig) -> dict:
    scene = _effective_scene(cfg)
    path = _require(cfg.out_dir / DATASET_FILE, "collect")
    ds = dataio.load_scatter(path, expected_scene_digest=scene_digest(scene))
    _check_digest(cfg, ds.scene_digest, "dataset")
    fse, report, test_mse = evalkit.stage_train_fse(ds, cfg.settings, cfg.seed)
    _save_fse(cfg, scene, fse, report)
    print(f"surrogate trained ({cfg.settings.epochs_fse} epochs) -> {cfg.out_dir / FSE_FILE}")
    print(f"fse_val_mse: {report.best_val_loss:.6g}")
    print(f"fse_test_mse: {test_mse:.6g}")
    return {"fse_test_mse": test_mse}


def cmd_train_ide(cfg: RunConfig) -> dict:
    scene = _effective_scene(cfg)
    fse = engines.load_fse(_require(cfg.out_dir / FSE_FILE, "train-fse"))
    _check_digest(cfg, fse.scene_digest, "surrogate")
    targets, splits = evalkit.stage_targets(cfg.settings, cfg.seed)
    ide, report = evalkit.stage_train_ide(fse, splits, cfg.settings, cfg.seed)
    _save_ide(cfg, scene, targets, ide, report)
    print(f"inverse engine trained ({cfg.settings.epochs_ide} epochs) -> {cfg.out_dir / IDE_FILE}")
    print(f"ide_val_mse: {report.best_val_loss:.6g}")
    return {"ide_val_mse": report.best_val_loss}


def _load_models(cfg: RunConfig):
    fse = engines.load_fse(_require(cfg.out_dir / FSE_FILE, "train-fse"))
    ide = engines.load_ide(_require(cfg.out_dir / IDE_FILE, "train-ide"))
    _check_digest(cfg, fse.scene_digest, "surrogate")
    if ide.fse_digest != fse.digest():
        _refuse_unless_forced(cfg, "inverse engine was trained against a different surrogate")
    return fse, ide


def cmd_eval(cfg: RunConfig) -> dict:
    scene = _effective_scene(cfg)
    fse, ide = _load_models(cfg)
    targets_path = _require(cfg.out_dir / TARGETS_FILE, "train-ide")
    targets = dataio.load_targets(targets_path)
    if targets.seed != derive_seed(cfg.seed, evalkit.SEED_TARGETS):
        _refuse_unless_forced(cfg, "targets file was generated under a different --seed; "
                                   "the held-out split would not match training")
    t_test = evalkit.target_splits(targets, cfg.settings, cfg.seed)[2]
    result = evalkit.stage_eval(ide, fse, scene, t_test, cfg.seed)
    gap = engines.soft_hard_gap_rms(ide, fse, t_test)
    evalkit.export_scatter(result.table, cfg.out_dir / EVAL_FILE, _provenance(cfg, scene))
    lines = [
        f"eval_targets: {len(result.table)}",
        "mse_predicted: " + ",".join(f"{v:.6g}" for v in result.mse_predicted),
        "mse_measured: " + ",".join(f"{v:.6g}" for v in result.mse_measured),
        f"soft_hard_gap_rms: {gap:.6g}",
    ]
    print("\n".join(lines))
    print(f"eval table -> {cfg.out_dir / EVAL_FILE}")
    return {
        "mse_predicted": result.mse_predicted.tolist(),
        "mse_measured": result.mse_measured.tolist(),
        "soft_hard_gap_rms": gap,
    }


def cmd_special_cases(cfg: RunConfig) -> dict:
    scene = _effective_scene(cfg)
    fse, ide = _load_models(cfg)
    names, table = evalkit.run_special_cases(ide, fse, scene)
    evalkit.export_scatter(table, cfg.out_dir / SPECIAL_FILE, _provenance(cfg, scene))
    for name, row in zip(names, table):
        print(f"case {name}: target=" + ",".join(f"{v:.3g}" for v in row[:3])
              + " measured=" + ",".join(f"{v:.4g}" for v in row[6:9]))
    print(f"special-case table -> {cfg.out_dir / SPECIAL_FILE}")
    return {"cases": names}


def cmd_adapt(cfg: RunConfig) -> dict:
    report = evalkit.run_adaptation_study(cfg.scene, cfg.scene_b, cfg.settings, cfg.seed)
    prov = _provenance(cfg, cfg.scene_b)
    evalkit.export_scatter(report.stale_table, cfg.out_dir / ADAPT_STALE_FILE, prov)
    evalkit.export_scatter(report.retrained_table, cfg.out_dir / ADAPT_RETRAINED_FILE, prov)
    lines = [
        "baseline_mse: " + ",".join(f"{v:.6g}" for v in report.baseline_mse),
        "stale_mse: " + ",".join(f"{v:.6g}" for v in report.stale_mse),
        "retrained_mse: " + ",".join(f"{v:.6g}" for v in report.retrained_mse),
        f"recollect_seconds: {report.collect_seconds:.2f}",
        f"retrain_seconds: {report.train_seconds:.2f}",
    ]
    text = "\n".join(lines) + "\n"
    with atomic_write(cfg.out_dir / ADAPT_SUMMARY_FILE) as f:
        f.write(text)
    print(text, end="")
    print(f"adaptation tables -> {cfg.out_dir / ADAPT_STALE_FILE}, {cfg.out_dir / ADAPT_RETRAINED_FILE}")
    return {
        "stale_mse": report.stale_mse.tolist(),
        "retrained_mse": report.retrained_mse.tolist(),
        "recollect_seconds": report.collect_seconds,
        "retrain_seconds": report.train_seconds,
    }


def cmd_pipeline(cfg: RunConfig) -> dict:
    scene = _effective_scene(cfg)
    result = evalkit.run_pipeline(scene, cfg.settings, cfg.seed)
    prov = _provenance(cfg, scene)
    _save_dataset(cfg, scene, result.dataset)
    _save_fse(cfg, scene, result.fse, result.fse_report)
    _save_ide(cfg, scene, result.targets, result.ide, result.ide_report)
    evalkit.export_scatter(result.eval_result.table, cfg.out_dir / EVAL_FILE, prov)
    evalkit.export_scatter(result.special_table, cfg.out_dir / SPECIAL_FILE, prov)

    summary = evalkit.summarize(result, scene)
    text = summary.to_text()
    with atomic_write(cfg.out_dir / SUMMARY_FILE) as f:
        f.write(text)
    print(text, end="")
    print(f"artifacts -> {cfg.out_dir}")
    return {
        "fse_test_mse": result.fse_test_mse,
        "mse_measured": result.eval_result.mse_measured.tolist(),
        "timings": result.timings,
    }


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
    manifest = {}
    if manifest_path.exists():
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            manifest = {}
    manifest[command] = {
        "seed": cfg.seed,
        "preset": cfg.preset,
        "scene_digest": scene_digest(_effective_scene(cfg)),
        "settings": dataclasses.asdict(cfg.settings),
        "outcome": outcome,
    }
    with atomic_write(manifest_path) as f:
        f.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _keep_freed_memory() -> None:
    """Keep glibc from handing each training step's freed memory back to the kernel."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # not glibc: leave the allocator alone
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _keep_freed_memory()  # not at import: a library must not retune its host's allocator
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = resolve_config(args)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        outcome = COMMANDS[args.command](cfg)
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
