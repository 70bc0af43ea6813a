"""rispa benchmark: run one workload (or all four) and print its metrics.

Usage, from the root of a rispa checkout:

    python3 perfbench/run.py --workload tandem --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Each workload runs in fresh child processes (``worker.py``): a few that only
build the fixture, to sample set-up time, then one that measures. The last
line of output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("tandem", "surrogate", "lab", "cli_chain")
SETUP_PROBES = 2      # set-up-only processes per run, besides the measuring one
CLI_STARTS = 5        # `rispa --help` starts that time cli_chain's set-up

# what rows_per_s and quality_mse are on each workload, by the names the docs use
ALIASES = {
    "tandem": {"rows_per_s": "train_samples_per_s", "quality_mse": "ide_val_mse"},
    "surrogate": {"rows_per_s": "train_samples_per_s", "quality_mse": "fse_val_mse"},
    "lab": {"rows_per_s": "lab_records_per_s", "quality_mse": "closed_loop_mse"},
    "cli_chain": {"rows_per_s": "chain_records_per_s", "quality_mse": "closed_loop_mse"},
}
INFO_UNITS = {"measure_records_per_s": "rows/s", "io_records_per_s": "rows/s",
              "eval_targets_per_s": "rows/s", "cli.artifact_bytes": "B", "wall_s": "s",
              "reference_s": "s"}


def worker_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_worker(args, timeout):
    """Start a worker, return (its last stdout line as JSON, monotonic time it was started).

    The worker gets its own process group, so that a timeout also ends the
    `rispa` processes a cli_chain worker has started.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1]), started


def at_reference_speed(seconds, reference_s):
    """Scale a wall time to a host on which worker.py's reference loop takes REFERENCE_S."""
    return seconds * REFERENCE_S / statistics.median(reference_s)


def setup_samples(workload, seed):
    """Set-up times in seconds: process start to fixture ready, or one idle `rispa` start.

    A set-up-only worker's time is scaled by the reference times it takes once
    its fixture is ready; the `rispa` starts are left to the caller to scale.
    """
    samples = []
    if workload == "cli_chain":
        for i in range(CLI_STARTS + 1):  # the first start only warms the file cache
            t0 = time.monotonic()
            subprocess.run([sys.executable, "-m", "rispa.cli", "--help"], cwd=ROOT,
                           env=worker_env(), stdout=subprocess.DEVNULL, check=True, timeout=60)
            if i:
                samples.append(time.monotonic() - t0)
        return samples
    for _ in range(SETUP_PROBES):
        out, started = run_worker(["--workload", workload, "--seed", str(seed),
                                   "--setup-only"], timeout=60)
        samples.append(at_reference_speed(out["ready"] - started, out["reference_s"]))
    return samples


def run_workload(workload, seed, seconds, trace):
    setups = setup_samples(workload, seed)
    out, started = run_worker(["--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)],
                              timeout=seconds + 120)
    # the measuring worker's reference times scale its own set-up and the `rispa` starts
    if workload == "cli_chain":
        setups = [at_reference_speed(s, out["reference_s"]) for s in setups]
    else:
        setups.append(at_reference_speed(out["ready"] - started, out["reference_s"]))
    correct = out["attempted"] > 0 and out["failed"] == 0
    lines = [f"== {workload} seed={seed} seconds={seconds} trace={trace}",
             "provenance: " + json.dumps(out["provenance"], sort_keys=True)]
    verdict = "PASS" if correct else "FAIL"
    lines.append(f"output check: {verdict} ({out['attempted'] - out['failed']}/"
                 f"{out['attempted']} passes)")
    lines += [f"  error: {e}" for e in out["errors"]]
    lines.append(f"  error_rate {out['failed']}/{out['attempted']} failed/attempted")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if trace:
        values = dict(out["layers"], **{"cli.startup_s": statistics.median(setups)
                                         if workload == "cli_chain" else 0.0})
        metrics = {m["name"]: {"value": values.pop(m["name"]), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        if values:
            raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(values)}")
        coverage = not out["missing"] and not out["unexpected"]
        correct = correct and coverage
        lines.append(f"span coverage: {'PASS' if coverage else 'FAIL'}"
                     f" missing={out['missing']} unexpected={out['unexpected']}")
        lines += [f"  {k:<42} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    else:
        values = dict(out["metrics"], setup_s=statistics.median(setups))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        for k, v in metrics.items():
            alias = ALIASES[workload].get(k)
            label = f"{k} ({alias})" if alias else k
            lines.append(f"  {label:<42} {v['value']:.6g} {v['unit']}")
        lines.append(f"  (setup_s is the median of {len(setups)} starts, pass timings are "
                     f"medians over {out['attempted'] - 1} passes after a warm-up; both are "
                     f"scaled to a host on which the reference loop takes {REFERENCE_S} s)")
        for k, v in out["info"].items():
            if k in INFO_UNITS:
                lines.append(f"  {k:<42} {v:.6g} {INFO_UNITS[k]}")
    result = {"correct": correct, "attempted": out["attempted"], "failed": out["failed"],
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-trace{trace}.json").write_text(
        json.dumps(dict(result, provenance=out["provenance"], setup_samples=setups), indent=1))
    return lines, result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "rispa" / "__init__.py").is_file():
        print(f"error: no rispa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 1 <= args.seconds <= 60:
        print("error: --seconds must lie in 1..60", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        lines, result = run_workload(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
