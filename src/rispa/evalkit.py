"""Experiment narratives: full pipeline runs, special cases, obstacle adaptation.

The stages (collect, train-FSE, targets, train-IDE, eval) are defined once here;
the CLI, ``run_pipeline`` and the adaptation study all compose them into the
three stories the artifact exists to tell: (1) train a surrogate and an inverse
designer from "measured" data and score them closed-loop, (2) hit the named
power-allocation patterns, (3) degrade the system with an obstacle and show
that on-site re-collection plus retraining restores it. The study takes the
deployed clean-scene system as its baseline rather than training one: a
``run_pipeline`` result in process, or the models and targets that ``rispa
adapt`` loads from a pipeline's output directory.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from . import dataio, engines
from .atomic import atomic_write
from .dataio import SCATTER_SPLIT, TARGET_SPLIT, SplitSpec, derive_seed
from .engines import EvalResult, FseModel, IdeModel
from .neural import TrainReport
from .quantizer import QuantizerConfig
from .scene import MAX_NOISE_SIGMA, Scene, scene_digest, scenes_differ_only_in_obstacle, simulate

logger = logging.getLogger(__name__)

SPECIAL_CASES = (
    ("001", (0.0, 0.0, 0.55)),
    ("101", (0.55, 0.0, 0.55)),
    ("000", (0.0, 0.0, 0.0)),
)

SCATTER_CSV_COLUMNS = (
    "target_1", "target_2", "target_3",
    "predicted_1", "predicted_2", "predicted_3",
    "measured_1", "measured_2", "measured_3",
)


# ---------------------------------------------------------------------------
# Pipeline settings and presets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineSettings:
    """Stage hyperparameters for one end-to-end run; rejected up front if unusable."""

    profile_count: int
    target_count: int
    epochs_fse: int
    epochs_ide: int
    lr_fse: float
    lr_ide: float
    batch_fse: int = 128
    batch_ide: int = 256
    temperature: float = 10.0
    noise_sigma: Optional[float] = None   # None keeps the scene's own value
    scatter_split: SplitSpec = SCATTER_SPLIT
    target_split: SplitSpec = TARGET_SPLIT

    def __post_init__(self):
        dataio.split_sizes(self.profile_count, self.scatter_split)
        dataio.split_sizes(self.target_count, self.target_split)
        for name in ("epochs_fse", "epochs_ide", "batch_fse", "batch_ide"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("lr_fse", "lr_ide"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        QuantizerConfig(self.temperature)  # refuses a temperature the quantizer cannot use
        if self.noise_sigma is not None and not 0.0 <= self.noise_sigma <= MAX_NOISE_SIGMA:
            raise ValueError(f"noise_sigma must lie in [0, {MAX_NOISE_SIGMA:g}]")


def desk_settings() -> PipelineSettings:
    """CI-scale preset: small counts, noiseless scene, faster learning rates."""
    return PipelineSettings(
        profile_count=2000,
        target_count=8000,
        epochs_fse=1000,
        epochs_ide=600,
        lr_fse=1e-3,
        lr_ide=2e-3,
        noise_sigma=0.0,
    )


def paper_settings() -> PipelineSettings:
    """Full-scale preset matching the reference training protocol."""
    return PipelineSettings(
        profile_count=10000,
        target_count=48000,
        epochs_fse=10000,
        epochs_ide=6000,
        lr_fse=1e-4,
        lr_ide=5e-4,
        batch_fse=256,
        noise_sigma=None,
    )


PRESETS = {"desk": desk_settings, "paper": paper_settings}


# seed derivation keys, one per randomness consumer
SEED_COLLECT = 0
SEED_SCATTER_SPLIT = 1
SEED_TARGETS = 2
SEED_FSE = 3
SEED_TARGET_SPLIT = 4
SEED_IDE = 5
SEED_EVAL_NOISE = 6
SEED_RECOLLECT = 10
SEED_REFSE = 11
SEED_REIDE = 12
SEED_REEVAL_NOISE = 13


def _apply_noise_override(scene: Scene, settings: PipelineSettings) -> Scene:
    if settings.noise_sigma is None or settings.noise_sigma == scene.noise_sigma:
        return scene
    return dataclasses.replace(scene, noise_sigma=settings.noise_sigma)


# ---------------------------------------------------------------------------
# Stages: each maps (inputs, settings, seed, stage key) to its artifacts
# ---------------------------------------------------------------------------

def stage_collect(scene: Scene, settings: PipelineSettings, seed: int,
                  key: int = SEED_COLLECT) -> dataio.ScatterDataset:
    return dataio.collect(scene, settings.profile_count, derive_seed(seed, key))


def stage_train_fse(dataset: dataio.ScatterDataset, settings: PipelineSettings, seed: int,
                    key: int = SEED_FSE):
    """Split the measurements, fit the surrogate; returns (fse, report, test MSE)."""
    d_train, d_val, d_test = dataio.split(
        dataset, settings.scatter_split, derive_seed(seed, SEED_SCATTER_SPLIT)
    )
    fse, report = engines.train_fse(
        d_train, d_val,
        epochs=settings.epochs_fse,
        learning_rate=settings.lr_fse,
        batch_size=settings.batch_fse,
        seed=derive_seed(seed, key),
    )
    test_pred = engines.fse_predict(fse, d_test.profiles)
    test_mse = float(np.mean((test_pred - d_test.normalized) ** 2))
    logger.info("surrogate test MSE %.5g on %d held-out records", test_mse, len(d_test))
    return fse, report, test_mse


def target_splits(targets: dataio.TargetDataset, settings: PipelineSettings, seed: int):
    return dataio.split(targets, settings.target_split, derive_seed(seed, SEED_TARGET_SPLIT))


def stage_targets(settings: PipelineSettings, seed: int):
    """Generate the design targets and split them; returns (targets, (train, val, test))."""
    targets = dataio.generate_targets(settings.target_count, seed=derive_seed(seed, SEED_TARGETS))
    return targets, target_splits(targets, settings, seed)


def stage_train_ide(fse: FseModel, splits, settings: PipelineSettings, seed: int,
                    key: int = SEED_IDE):
    """Train through ``fse`` on the train/val parts of ``splits``; returns (ide, report)."""
    return engines.train_ide(
        fse, splits[0], splits[1],
        epochs=settings.epochs_ide,
        learning_rate=settings.lr_ide,
        batch_size=settings.batch_ide,
        seed=derive_seed(seed, key),
        qcfg=QuantizerConfig(temperature=settings.temperature),
    )


def stage_eval(ide: IdeModel, fse: FseModel, scene: Scene, t_test: dataio.TargetDataset,
               seed: int, key: int = SEED_EVAL_NOISE) -> EvalResult:
    """Closed-loop scores on ``t_test``, the held-out split of the training targets."""
    return engines.closed_loop_eval(ide, fse, scene, t_test, noise_seed=derive_seed(seed, key))


@dataclass
class PipelineResult:
    fse: FseModel
    ide: IdeModel
    fse_report: TrainReport
    ide_report: TrainReport
    fse_test_mse: float
    dataset: dataio.ScatterDataset
    targets: dataio.TargetDataset
    target_splits: tuple          # (train, val, test) TargetDataset
    eval_result: EvalResult
    special_table: np.ndarray     # (3, 9)
    soft_hard_gap: float
    timings: dict                 # stage -> seconds
    seed: int


def run_pipeline(scene: Scene, settings: PipelineSettings, seed: int) -> PipelineResult:
    """collect -> train surrogate -> train inverse -> closed-loop eval.

    Every stage draws from a seed derived from ``seed`` and a fixed stage key,
    so the whole run is reproducible from (scene, settings, seed).
    """
    scene = _apply_noise_override(scene, settings)
    timings = {}

    def timed(stage, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        timings[stage] = time.perf_counter() - t0
        return out

    dataset = timed("collect", stage_collect, scene, settings, seed)
    fse, fse_report, fse_test_mse = timed("train_fse", stage_train_fse, dataset, settings, seed)
    targets, splits = stage_targets(settings, seed)
    ide, ide_report = timed("train_ide", stage_train_ide, fse, splits, settings, seed)
    eval_result = timed("eval", stage_eval, ide, fse, scene, splits[2], seed)
    _, special_table = run_special_cases(ide, fse, scene)

    return PipelineResult(
        fse=fse,
        ide=ide,
        fse_report=fse_report,
        ide_report=ide_report,
        fse_test_mse=fse_test_mse,
        dataset=dataset,
        targets=targets,
        target_splits=splits,
        eval_result=eval_result,
        special_table=special_table,
        soft_hard_gap=engines.soft_hard_gap_rms(ide, fse, eval_result),
        timings=timings,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Special cases
# ---------------------------------------------------------------------------

def run_special_cases(ide: IdeModel, fse: FseModel, scene: Scene):
    """Design and replay the named patterns; rows are (target, predicted, measured)."""
    names = []
    rows = []
    for name, target in SPECIAL_CASES:
        profile = engines.design_batch(ide, np.asarray(target))[0]
        predicted = engines.fse_predict(fse, profile)
        measured = simulate(scene, profile, fse.i_max)
        names.append(name)
        rows.append(np.concatenate([target, predicted, measured]))
    return names, np.vstack(rows)


# ---------------------------------------------------------------------------
# Obstacle adaptation study
# ---------------------------------------------------------------------------

@dataclass
class AdaptationReport:
    stale_mse: np.ndarray         # per probe: old models scored on the new scene
    retrained_mse: np.ndarray     # per probe: fresh models on the new scene
    collect_seconds: float
    train_seconds: float
    stale_table: np.ndarray
    retrained_table: np.ndarray


def run_adaptation_study(
    base: PipelineResult,
    scene_without: Scene,
    scene_with: Scene,
    settings: PipelineSettings,
) -> AdaptationReport:
    """Score ``base`` on the changed scene, then re-collect and retrain on site.

    ``base`` is the system deployed on ``scene_without`` under ``settings``,
    such as that scene's ``run_pipeline`` result. The study reads only
    ``base.fse``, ``base.ide``, ``base.target_splits`` and ``base.seed``. The
    surrogate must carry that scene's digest (after the noise override), and
    the study draws every seed from ``base.seed``. The two scenes must agree
    outside the obstacle block. The base's target test split scores both the
    stale and the retrained models, so the MSEs are comparable. Retraining
    draws fresh profiles and fresh seeds and starts both networks from scratch.
    """
    if not scenes_differ_only_in_obstacle(scene_without, scene_with):
        raise ValueError("scenes must differ only in the obstacle block")
    if base.fse.scene_digest != scene_digest(_apply_noise_override(scene_without, settings)):
        raise ValueError("the base run was trained on a different scene")
    scene_with = _apply_noise_override(scene_with, settings)
    seed = base.seed

    t_test = base.target_splits[2]
    stale = stage_eval(base.ide, base.fse, scene_with, t_test, seed)
    logger.info(
        "stale per-probe MSE on changed scene: %s",
        ", ".join(f"{v:.4g}" for v in stale.mse_measured),
    )

    t0 = time.perf_counter()
    new_data = stage_collect(scene_with, settings, seed, key=SEED_RECOLLECT)
    collect_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    new_fse, _, _ = stage_train_fse(new_data, settings, seed, key=SEED_REFSE)
    new_ide, _ = stage_train_ide(new_fse, base.target_splits, settings, seed, key=SEED_REIDE)
    train_seconds = time.perf_counter() - t0

    retrained = stage_eval(new_ide, new_fse, scene_with, t_test, seed, key=SEED_REEVAL_NOISE)
    logger.info(
        "retrained per-probe MSE: %s (collect %.1fs, retrain %.1fs)",
        ", ".join(f"{v:.4g}" for v in retrained.mse_measured),
        collect_seconds, train_seconds,
    )

    return AdaptationReport(
        stale_mse=stale.mse_measured,
        retrained_mse=retrained.mse_measured,
        collect_seconds=collect_seconds,
        train_seconds=train_seconds,
        stale_table=stale.table,
        retrained_table=retrained.table,
    )


# ---------------------------------------------------------------------------
# CSV exports
# ---------------------------------------------------------------------------

def _write_csv(path, header, rows, provenance: Optional[dict]) -> None:
    # "%.17g" % x is the text of format(x, ".17g"), nan, inf and -0 included
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with atomic_write(path) as f:
        if provenance:
            f.write("# " + " ".join(f"{k}={v}" for k, v in provenance.items()) + "\n")
        f.write(",".join(header) + "\n")
        f.writelines(line % tuple(map(float, row)) for row in rows)


def export_scatter(table: np.ndarray, path, provenance: Optional[dict] = None) -> None:
    """Write an eval table as CSV: header plus one row per target.

    Floats carry 17 significant digits, so parsing the file recovers every
    value exactly. ``provenance`` adds a leading ``# key=value`` comment line.
    """
    table = np.asarray(table)
    if table.size == 0:
        raise ValueError("refusing to export an empty table")
    if table.ndim != 2 or table.shape[1] != len(SCATTER_CSV_COLUMNS):
        raise ValueError(f"table must have {len(SCATTER_CSV_COLUMNS)} columns")
    # Python floats format fastest; converted a block at a time to bound the copy
    rows = chain.from_iterable(table[i:i + 1000].tolist() for i in range(0, len(table), 1000))
    _write_csv(path, SCATTER_CSV_COLUMNS, rows, provenance)


def export_history(report: TrainReport, path, provenance: Optional[dict] = None) -> None:
    """Write per-epoch loss history as CSV (epoch, train_mse, val_mse)."""
    if len(report.train_losses) == 0:
        raise ValueError("refusing to export an empty history")
    rows = zip(range(len(report.train_losses)), report.train_losses, report.val_losses)
    _write_csv(path, ("epoch", "train_mse", "val_mse"), rows, provenance)
