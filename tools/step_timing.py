"""In-process timings of one desk training step.

Times, on warm scratches, what ``perfbench --trace 1`` cannot show apart:
the wrap of the inverse network's output to degrees, one whole desk-shaped
tandem step (batch 256: the inverse network trained through the frozen
surrogate, with its Adam update), one whole desk-shaped surrogate step
(batch 128: ``forward``, ``mse_and_grad``, the parameter-only ``backward``
and Adam) and one desk-shaped surrogate epoch of ``neural.train`` itself
(1,620 rows at batch 128, then 180 validation rows). The steps get float32
input batches, as ``neural.train`` gathers them from the training inputs of
``engines.train_fse`` and ``engines.train_ide``, and float64 targets; the
epoch's validation inputs are float64, as in a run.
The trace already reports the self time of the soft quantizer, the encoding
and each network pass. Each line gives one timing in microseconds per call,
the best of ``--repeat`` averages over ``--number`` calls (over a tenth as
many for the epoch); the last line is one JSON summary of them all.

    python tools/step_timing.py [--number 1000] [--repeat 7]

It imports ``rispa`` from the ``src`` directory beside it. The numbers depend
on the host and on the BLAS thread count (``OPENBLAS_NUM_THREADS``), which
the summary records.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rispa import engines, neural  # noqa: E402
from rispa.quantizer import QuantizerConfig, ide_output_to_angles  # noqa: E402

TANDEM_BATCH = 256   # the desk preset's batch_ide
FSE_BATCH = 128      # the desk preset's batch_fse
FSE_ROWS = (1620, 180)  # the desk preset's surrogate training and validation split of 2,000
SEED = 0             # picks the weights and inputs only
BATCH_DTYPE = np.float32  # the dtype of a training step's input batch


def _tandem_kernels():
    """Name -> callable for the wrap and for one whole tandem step."""
    rng = np.random.default_rng(SEED)
    ide = neural.init_mlp(engines.ide_layer_dims(), seed=SEED)
    fse = neural.init_mlp(engines.fse_layer_dims(), seed=SEED + 1)
    qcfg = QuantizerConfig()
    y = rng.uniform(0.0, 0.6, size=(TANDEM_BATCH, 3))
    x = y.astype(BATCH_DTYPE)
    ide_scratch, fse_scratch = {}, {}
    raw = neural.forward(ide, x).copy()
    adam = neural.init_adam(ide.params, 2e-3)

    def step():
        _, grads = engines.tandem_loss_and_grads(ide, fse, qcfg, x, y, ide_scratch, fse_scratch)
        neural.adam_step(ide.params, grads, adam)

    step()
    return {"wrap": lambda: ide_output_to_angles(raw), "step": step}


def _fse_step():
    """One supervised surrogate step as ``neural.train`` runs it, with its Adam update."""
    rng = np.random.default_rng(SEED)
    fse = neural.init_mlp(engines.fse_layer_dims(), seed=SEED)
    x = engines.profile_encoding(rng.integers(0, 8, size=(FSE_BATCH, 20)), BATCH_DTYPE)
    y = rng.uniform(0.0, 1.0, size=(FSE_BATCH, 3))
    scratch, adam = {}, neural.init_adam(fse.params, 1e-3)

    def step():
        _, g_pred = neural.mse_and_grad(neural.forward(fse, x, scratch), y, scratch)
        grads = neural.backward(fse, x, g_pred, scratch, wrt="params").params
        neural.adam_step(fse.params, grads, adam)

    step()
    return step


def _fse_epoch():
    """One ``neural.train`` epoch of the surrogate on desk-sized random data."""
    rng = np.random.default_rng(SEED)
    fse = neural.init_mlp(engines.fse_layer_dims(), seed=SEED)
    cut = FSE_ROWS[0]
    profiles = rng.integers(0, 8, size=(sum(FSE_ROWS), 20))
    x_train = engines.profile_encoding(profiles[:cut], BATCH_DTYPE)
    x_val = engines.profile_encoding(profiles[cut:])
    y = rng.uniform(0.0, 1.0, size=(sum(FSE_ROWS), 3))
    return lambda: neural.train(fse, (x_train, y[:cut]), (x_val, y[cut:]), epochs=1,
                                batch_size=FSE_BATCH, learning_rate=1e-3, seed=SEED)


def _best_us(fn, number: int, repeat: int) -> float:
    return min(timeit.repeat(fn, number=number, repeat=repeat)) / number * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--number", type=int, default=1000, help="calls per timing")
    parser.add_argument("--repeat", type=int, default=7, help="timings per kernel; the best is kept")
    args = parser.parse_args(argv)
    if args.number < 1 or args.repeat < 1:
        parser.error("--number and --repeat must be >= 1")

    tandem = {}
    for name, fn in _tandem_kernels().items():
        tandem[name] = _best_us(fn, args.number, args.repeat)
        print(f"tandem {name:5s} {tandem[name]:10.1f} us", flush=True)
    fse_step = _best_us(_fse_step(), args.number, args.repeat)
    print(f"fse    {'step':5s} {fse_step:10.1f} us", flush=True)
    fse_epoch = _best_us(_fse_epoch(), max(1, args.number // 10), args.repeat)
    print(f"fse    {'epoch':5s} {fse_epoch:10.1f} us", flush=True)
    print(json.dumps({
        "tandem_batch": TANDEM_BATCH,
        "fse_batch": FSE_BATCH,
        "batch_dtype": np.dtype(BATCH_DTYPE).name,
        "number": args.number,
        "repeat": args.repeat,
        "tandem_us": {k: round(v, 1) for k, v in tandem.items()},
        "fse_step_us": round(fse_step, 1),
        "fse_epoch_rows": list(FSE_ROWS),
        "fse_epoch_us": round(fse_epoch, 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
