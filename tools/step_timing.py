"""In-process timings of one desk training step.

Times, on warm scratches, what ``perfbench --trace 1`` cannot show apart:
one whole desk-shaped tandem step (batch 256: the inverse network trained
through the frozen surrogate, with its Adam update), one whole desk-shaped
surrogate step (batch 128: ``forward``, ``mse_and_grad``, the
parameter-only ``backward`` and Adam) and one desk-shaped surrogate epoch
of ``neural.train`` itself (1,620 rows at batch 128, then 180 validation
rows). Two more lines time the same two steps at batch 1, where nearly all
of a step is its fixed cost: Python calls, argument checks and views. Two
more time ``neural.adam_step`` alone at the surrogate's 14,503 and the
inverse network's 3,770 parameters, as ``neural.train`` calls it: a
float32 gradient over a float64 master. The steps run as
``neural.train`` runs them: on copies of the networks in its step dtype
(``neural.FLOAT32``), with input batches in that dtype and float64 targets,
and each step ends by refreshing the trained network's copy from its
float64 master after Adam has updated that. The epoch gets float64 inputs,
as ``engines.train_fse`` passes them, and ``neural.train`` casts them.

The trace reports the self time of each network pass, but not of a
training step's soft quantizer and encoding: ``soft_phasor_with_grad`` has
no span, so their time sits in the self time of ``engines.tandem_step``.
Each line gives one timing in microseconds per call, the best of
``--repeat`` averages over ``--number`` calls (over a tenth as many for the
epoch); the last line is one JSON summary of them all. Each timing runs in
a fresh spawned process, so what one kernel leaves allocated cannot move
the timings after it.

    python tools/step_timing.py [--number 1000] [--repeat 7]

It imports ``rispa`` from the ``src`` directory beside it. The numbers depend
on the host and on the BLAS thread count (``OPENBLAS_NUM_THREADS``), which
the summary records.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import sys
import timeit
from functools import partial
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rispa import engines, neural  # noqa: E402
from rispa.quantizer import QuantizerConfig  # noqa: E402

TANDEM_BATCH = 256   # the desk preset's batch_ide
FSE_BATCH = 128      # the desk preset's batch_fse
FSE_ROWS = (1620, 180)  # the desk preset's surrogate training and validation split of 2,000
SEED = 0             # picks the weights and inputs only


def _step_copy(mlp):
    """A training step's copy of ``mlp``, as ``neural.train`` makes it."""
    return neural.Mlp(mlp.layer_dims, mlp.params.astype(neural.FLOAT32))


def _tandem_step(batch=TANDEM_BATCH):
    """One whole tandem step as ``neural.train`` runs it, with its Adam update."""
    rng = np.random.default_rng(SEED)
    ide = neural.init_mlp(engines.ide_layer_dims(), seed=SEED)
    ide_steps = _step_copy(ide)
    fse_steps = _step_copy(neural.init_mlp(engines.fse_layer_dims(), seed=SEED + 1))
    qcfg = QuantizerConfig()
    y = rng.uniform(0.0, 0.6, size=(batch, 3))
    x = y.astype(neural.FLOAT32)
    ide_scratch, fse_scratch = {}, {}
    adam = neural.init_adam(ide.params, 2e-3)

    def step():
        _, grads = engines.tandem_loss_and_grads(ide_steps, fse_steps, qcfg, x, y,
                                                 ide_scratch, fse_scratch)
        neural.adam_step(ide.params, grads, adam)
        np.copyto(ide_steps.params, ide.params, casting="same_kind")

    step()
    return step


def _fse_step(batch=FSE_BATCH):
    """One supervised surrogate step as ``neural.train`` runs it, with its Adam update."""
    rng = np.random.default_rng(SEED)
    fse = neural.init_mlp(engines.fse_layer_dims(), seed=SEED)
    fse_steps = _step_copy(fse)
    x = engines.profile_encoding(rng.integers(0, 8, size=(batch, 20))).astype(neural.FLOAT32)
    y = rng.uniform(0.0, 1.0, size=(batch, 3))
    scratch, adam = {}, neural.init_adam(fse.params, 1e-3)

    def step():
        _, grads = neural._supervised_loss_and_grads(fse_steps, x, y, scratch)
        neural.adam_step(fse.params, grads, adam)
        np.copyto(fse_steps.params, fse.params, casting="same_kind")

    step()
    return step


def _adam_step(layer_dims):
    """One ``adam_step`` as ``neural.train`` calls it: a float32 gradient, a float64 master."""
    params = neural.init_mlp(layer_dims, seed=SEED).params
    grads = np.random.default_rng(SEED).normal(0.0, 1e-2, params.size).astype(neural.FLOAT32)
    state = neural.init_adam(params, 1e-3)
    return partial(neural.adam_step, params, grads, state)


def _fse_epoch():
    """One ``neural.train`` epoch of the surrogate on desk-sized random data."""
    rng = np.random.default_rng(SEED)
    fse = neural.init_mlp(engines.fse_layer_dims(), seed=SEED)
    cut = FSE_ROWS[0]
    profiles = rng.integers(0, 8, size=(sum(FSE_ROWS), 20))
    x_train = engines.profile_encoding(profiles[:cut])
    x_val = engines.profile_encoding(profiles[cut:])
    y = rng.uniform(0.0, 1.0, size=(sum(FSE_ROWS), 3))
    return lambda: neural.train(fse, (x_train, y[:cut]), (x_val, y[cut:]), epochs=1,
                                batch_size=FSE_BATCH, learning_rate=1e-3, seed=SEED)


def _best_us(make, number: int, repeat: int) -> float:
    return min(timeit.repeat(make(), number=number, repeat=repeat)) / number * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--number", type=int, default=1000, help="calls per timing")
    parser.add_argument("--repeat", type=int, default=7, help="timings per kernel; the best is kept")
    args = parser.parse_args(argv)
    if args.number < 1 or args.repeat < 1:
        parser.error("--number and --repeat must be >= 1")

    spawn = multiprocessing.get_context("spawn")

    def fresh_us(make, number):
        with spawn.Pool(1) as pool:
            return pool.apply(_best_us, (make, number, args.repeat))

    tandem_step = fresh_us(_tandem_step, args.number)
    print(f"tandem {'step':5s} {tandem_step:10.1f} us", flush=True)
    fse_step = fresh_us(_fse_step, args.number)
    print(f"fse    {'step':5s} {fse_step:10.1f} us", flush=True)
    tandem_b1 = fresh_us(partial(_tandem_step, 1), args.number)
    print(f"tandem {'b1':5s} {tandem_b1:10.1f} us", flush=True)
    fse_b1 = fresh_us(partial(_fse_step, 1), args.number)
    print(f"fse    {'b1':5s} {fse_b1:10.1f} us", flush=True)
    fse_epoch = fresh_us(_fse_epoch, max(1, args.number // 10))
    print(f"fse    {'epoch':5s} {fse_epoch:10.1f} us", flush=True)
    adam = {}
    for name, dims in (("fse", engines.fse_layer_dims()), ("ide", engines.ide_layer_dims())):
        adam[name] = fresh_us(partial(_adam_step, dims), args.number)
        print(f"adam   {name:5s} {adam[name]:10.1f} us", flush=True)
    print(json.dumps({
        "tandem_batch": TANDEM_BATCH,
        "fse_batch": FSE_BATCH,
        "batch_dtype": neural.FLOAT32.name,
        "step_network_dtype": neural.FLOAT32.name,
        "number": args.number,
        "repeat": args.repeat,
        "tandem_step_us": round(tandem_step, 1),
        "fse_step_us": round(fse_step, 1),
        "tandem_step_b1_us": round(tandem_b1, 1),
        "fse_step_b1_us": round(fse_b1, 1),
        "fse_epoch_rows": list(FSE_ROWS),
        "fse_epoch_us": round(fse_epoch, 1),
        "adam_fse_us": round(adam["fse"], 1),
        "adam_ide_us": round(adam["ide"], 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
