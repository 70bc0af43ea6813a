"""Margins of the gated desk numbers over a range of seeds.

The acceptance gate samples one seed. This tool runs the desk ``rispa
pipeline`` once per seed, each in its own subprocess with one BLAS thread,
two at a time, and prints every gated desk number next to its bound:
criterion 2's held-out surrogate MSE, criterion 3's measured MSE and
predicted-to-measured ratio per probe, criterion 4's three special cases and
the soft/hard deployment gap; a value over its bound is marked ``!``. A
margin is the distance to the bound, positive on the passing side. The last
line is one JSON summary: per metric, the min, median and max margin and the
number of seeds over the bound. It only reports; its exit code is 0 unless a
pipeline run fails.

    python tools/margins.py --seeds 1..10

It runs ``rispa`` from the ``src`` directory beside it. A desk pipeline takes
about 20 s at one BLAS thread on a 2-vCPU Xeon, so ten seeds take about two
minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKERS = 2


def _dominance_001(o):
    m = o["special_001_measured"]
    return m[2] / max(m[0], m[1])


def _dominance_101(o):
    m = o["special_101_measured"]
    return min(m[0], m[2]) / m[1]


# name -> (value from a pipeline outcome, bound, sense); the gate's desk criteria
METRICS = {
    "fse_test_mse": (lambda o: o["fse_test_mse"], 0.005, "<="),
    **{f"mse_measured_{p + 1}": (lambda o, p=p: o["mse_measured"][p], 0.008, "<=")
       for p in range(3)},
    **{f"pred_over_meas_{p + 1}": (lambda o, p=p: o["mse_predicted"][p] / o["mse_measured"][p],
                                   1.5, "<=") for p in range(3)},
    "special_001_dominance": (_dominance_001, 3.0, ">="),
    "special_101_dominance": (_dominance_101, 3.0, ">="),
    "special_000_max": (lambda o: max(o["special_000_measured"]), 0.08, "<="),
    "soft_hard_gap_rms": (lambda o: o["soft_hard_gap_rms"], 0.05, "<"),
}


def margin(value: float, bound: float, sense: str) -> float:
    return value - bound if sense == ">=" else bound - value


def over(value: float, bound: float, sense: str) -> bool:
    m = margin(value, bound, sense)
    return m <= 0.0 if sense == "<" else m < 0.0


def seed_range(text: str):
    first, _, last = text.partition("..")
    try:
        seeds = range(int(first), int(last) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}") from None
    if not seeds or seeds[0] < 0:
        raise argparse.ArgumentTypeError(f"expected non-negative A <= B, got {text!r}")
    return seeds


def run_seed(seed: int, root: Path):
    """The desk pipeline outcome of ``seed``, or the last line of its stderr on failure."""
    out = root / f"seed{seed}"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "rispa.cli", "pipeline", "--preset", "desk",
                           "--seed", str(seed), "--out", str(out)],
                          env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None, (proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"])[-1]
    return json.loads((out / "manifest.json").read_text(encoding="utf-8"))["pipeline"]["outcome"], ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="seed range A..B, inclusive")
    args = parser.parse_args(argv)

    width = max(map(len, METRICS))
    print(f"{'seed':>5s} " + " ".join(f"{name:>{width}s}" for name in METRICS))
    print(f"{'bound':>5s} " + " ".join(f"{sense + format(bound, 'g'):>{width}s}"
                                       for _, bound, sense in METRICS.values()), flush=True)
    values = {name: [] for name in METRICS}
    failed = {}
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(WORKERS) as pool:
        runs = pool.map(lambda s: run_seed(s, Path(tmp)), args.seeds)
        for seed, (outcome, error) in zip(args.seeds, runs):
            if outcome is None:
                failed[seed] = error
                print(f"{seed:>5d} failed: {error}", flush=True)
                continue
            row = []
            for name, (value_of, bound, sense) in METRICS.items():
                v = float(value_of(outcome))
                values[name].append(v)
                mark = "!" if over(v, bound, sense) else ""
                row.append(f"{mark + format(v, '.5g'):>{width}s}")
            print(f"{seed:>5d} " + " ".join(row), flush=True)

    summary = {}
    for name, (_, bound, sense) in METRICS.items():
        margins = [margin(v, bound, sense) for v in values[name]]
        summary[name] = {
            "bound": bound, "sense": sense,
            "min_margin": min(margins, default=None),
            "median_margin": statistics.median(margins) if margins else None,
            "max_margin": max(margins, default=None),
            "seeds_over": sum(over(v, bound, sense) for v in values[name]),
        }
    print(json.dumps({
        "seeds": [args.seeds[0], args.seeds[-1]],
        "failed": {str(k): v for k, v in failed.items()},
        "metrics": summary,
        "openblas_num_threads": 1,
        "python": platform.python_version(),
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
