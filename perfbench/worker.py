"""One workload in one process: set up its fixture, run timed passes, check every pass.

Started by ``run.py``, never by hand. With ``--setup-only`` the process exits
as soon as its fixture is ready, which is how ``run.py`` samples set-up time
several times per run. Otherwise it runs passes until ``--seconds`` have gone
by (and each of its problems has run once), checks each pass's outputs, and
prints one JSON line: per-pass timings, the quality value, check verdicts,
peak RSS and, with ``--trace 1``, per-layer metrics of the traced passes.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Set-up builds a few problems from sub-seeds of the workload seed and passes
# cycle through them. The quality value is the mean over the problems: after
# a short, fixed training it varies by 10-30% from one dataset to the next, and
# the mean of several keeps that spread out of the run-to-run comparison. The
# mean, not the median: on tandem one problem's value falls near either of two
# levels, about 0.01 and 0.023, and a median over 16 jumps between them.
# tandem: desk-shaped inverse training through a briefly trained surrogate
DESK_PROFILES = 2000
DESK_TARGETS = 8000
FIXTURE_FSE_EPOCHS = 30
TANDEM_FIXTURES = 8
TANDEM_PROBLEMS = 16   # each fixture serves two target sets
TANDEM_EPOCHS = 8
# surrogate: desk-shaped supervised training, no quantizer or tandem code
SURROGATE_PROBLEMS = 8
SURROGATE_EPOCHS = 50
# lab: paper-shaped measurement side on the noisy obstacle scene
LAB_PROFILES = 10000
LAB_TARGETS = 3000
LAB_FIXTURE_IDE_EPOCHS = 2
LAB_PROBLEMS = 3
LAB_REPLAY_ROWS = 16
# cli_chain: desk counts, training kept to a minor share of the chain
CLI_STAGES = ("collect", "train-fse", "train-ide", "eval", "special-cases")
CLI_EPOCHS_FSE = 10
CLI_EPOCHS_IDE = 1
CLI_PROBLEMS = 6

# Spans each workload must exercise; every other traced span must record no call.
EXERCISED = {
    "tandem": {"engines.tandem_step", "engines.tandem_forward", "engines.encode_phases",
               "quantizer.soft", "neural.forward", "neural.backward", "neural.adam_step"},
    "surrogate": {"engines.encode_phases", "neural.forward", "neural.backward",
                  "neural.adam_step"},
    "lab": {"dataio.collect", "dataio.derive_seed", "scene.transfer_matrix",
            "scene.column_weights", "dataio.save_scatter", "dataio.load_scatter",
            "engines.closed_loop_eval", "engines.design_batch", "engines.fse_predict",
            "engines.encode_phases", "neural.forward", "quantizer.hard", "scene.simulate",
            "evalkit.run_special_cases", "evalkit.export_scatter", "evalkit.export_history"},
    "cli_chain": None,  # every traced span
}


class CheckFailed(Exception):
    pass


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# Host speed: a fixed reference loop timed between passes
# ---------------------------------------------------------------------------
# On a shared host the speed of a vCPU drifts by 20-40% over tens of seconds,
# as other tenants load the physical cores, and no statistic over the passes of
# one run removes that drift. A run therefore also times a fixed reference loop
# before every pass and after the last, and scales each pass's wall time by
# REFERENCE_S / (mean of the two reference times around it): the pass's time
# on a host where that loop takes REFERENCE_S seconds. The loop is benchmark
# code, identical on parent and change. It uses numpy ufuncs over large arrays
# and small-array calls, but no BLAS routine, so a change to rispa's BLAS
# threading does not change it.
REFERENCE_S = 0.075
_REF = None


def reference_loop():
    """Run the reference loop once and return its wall seconds."""
    global _REF
    import numpy as np
    if _REF is None:
        rng = np.random.default_rng(0)
        _REF = (rng.standard_normal(100_000), rng.permutation(100_000)[:5000],
                rng.standard_normal((256, 100)), rng.standard_normal((64, 3)))
    v, idx, x, small = _REF
    t0 = time.perf_counter()
    for _ in range(25):
        a = np.cos(v) * np.exp(-np.abs(v))
        np.sqrt(a * a + 1.0).sum()
        np.tanh(x * 0.3).sum(axis=0)
        v[idx].cumsum()
    acc = 0.0
    for i in range(1000):
        acc += float(np.clip(np.sin(small * (i * 1e-3)), -0.5, 0.5).mean()) + math.cos(i)
    return time.perf_counter() - t0


def reference_point():
    """One reference time: the faster of two loops, as the first may find cold caches."""
    return min(reference_loop(), reference_loop())


# ---------------------------------------------------------------------------
# In-process workloads: set-up returns a fixture, a pass returns its numbers
# ---------------------------------------------------------------------------

def _noiseless_scene():
    """The desk preset's scene: the built-in geometry measured without noise."""
    import dataclasses
    from rispa.scene import default_scene
    return dataclasses.replace(default_scene(), noise_sigma=0.0)


def _desk_collection(seed, scene):
    from rispa import dataio
    ds = dataio.collect(scene, DESK_PROFILES, dataio.derive_seed(seed, 0))
    return dataio.split(ds, dataio.SCATTER_SPLIT, dataio.derive_seed(seed, 1))


def _desk_targets(seed):
    from rispa import dataio
    targets = dataio.generate_targets(DESK_TARGETS, seed=dataio.derive_seed(seed, 2))
    return dataio.split(targets, dataio.TARGET_SPLIT, dataio.derive_seed(seed, 4))


def setup_tandem(seed):
    from rispa import dataio, engines
    fixtures = []
    for f in range(TANDEM_FIXTURES):
        sub = dataio.derive_seed(seed, f)
        d_train, d_val, _ = _desk_collection(sub, _noiseless_scene())
        fixtures.append(engines.train_fse(d_train, d_val, epochs=FIXTURE_FSE_EPOCHS,
                                          learning_rate=1e-3, batch_size=128,
                                          seed=dataio.derive_seed(sub, 3))[0])
    problems = []
    for k in range(TANDEM_PROBLEMS):
        sub = dataio.derive_seed(seed, 100 + k)
        fse = fixtures[k % TANDEM_FIXTURES]
        t_train, t_val, _ = _desk_targets(sub)
        trivial = float(((t_val.targets - t_train.targets.mean(axis=0)) ** 2).mean())
        problems.append({"fse": fse, "digest": fse.digest(), "train": t_train, "val": t_val,
                         "trivial": trivial, "seed": dataio.derive_seed(sub, 5)})
    return {"problems": problems}


def pass_tandem(fx, seed, k, tmp):
    from rispa import engines
    from rispa.quantizer import QuantizerConfig
    pb = fx["problems"][k]
    t0 = time.perf_counter()
    _, report = engines.train_ide(
        pb["fse"], pb["train"], pb["val"], epochs=TANDEM_EPOCHS, learning_rate=2e-3,
        batch_size=256, seed=pb["seed"], qcfg=QuantizerConfig(temperature=10.0))
    wall = time.perf_counter() - t0

    def verify():
        losses = report.train_losses + report.val_losses
        check(all(math.isfinite(v) for v in losses), "non-finite tandem loss")
        check(pb["fse"].digest() == pb["digest"], "surrogate parameters changed")
        best = report.val_losses[report.best_epoch]
        check(best < pb["trivial"],
              f"ide_val_mse {best:.4g} not below mean-target predictor {pb['trivial']:.4g}")
        return best
    return wall, TANDEM_EPOCHS * len(pb["train"]), {}, verify


def setup_surrogate(seed):
    from rispa import dataio
    problems = []
    for k in range(SURROGATE_PROBLEMS):
        sub = dataio.derive_seed(seed, k)
        d_train, d_val, _ = _desk_collection(sub, _noiseless_scene())
        baseline = float(d_val.normalized.var(axis=0).mean())
        problems.append({"train": d_train, "val": d_val, "baseline": baseline,
                         "seed": dataio.derive_seed(sub, 3)})
    return {"problems": problems}


def pass_surrogate(fx, seed, k, tmp):
    from rispa import engines
    pb = fx["problems"][k]
    t0 = time.perf_counter()
    _, report = engines.train_fse(pb["train"], pb["val"], epochs=SURROGATE_EPOCHS,
                                  learning_rate=1e-3, batch_size=128, seed=pb["seed"])
    wall = time.perf_counter() - t0

    def verify():
        losses = report.train_losses + report.val_losses
        check(all(math.isfinite(v) for v in losses), "non-finite surrogate loss")
        best = report.val_losses[report.best_epoch]
        check(best < pb["baseline"],
              f"fse_val_mse {best:.4g} not below variance baseline {pb['baseline']:.4g}")
        return best
    return wall, SURROGATE_EPOCHS * len(pb["train"]), {}, verify


def setup_lab(seed):
    from rispa import dataio, engines
    from rispa.quantizer import QuantizerConfig
    from rispa.scene import default_scene
    scene = default_scene(with_obstacle=True)
    d_train, d_val, _ = _desk_collection(seed, scene)
    fse, fse_report = engines.train_fse(d_train, d_val, epochs=FIXTURE_FSE_EPOCHS,
                                        learning_rate=1e-3, batch_size=128,
                                        seed=dataio.derive_seed(seed, 3))
    t_train, t_val, _ = _desk_targets(seed)
    ide, ide_report = engines.train_ide(fse, t_train, t_val, epochs=LAB_FIXTURE_IDE_EPOCHS,
                                        learning_rate=2e-3, batch_size=256,
                                        seed=dataio.derive_seed(seed, 5),
                                        qcfg=QuantizerConfig(temperature=10.0))
    targets = dataio.generate_targets(LAB_TARGETS, seed=dataio.derive_seed(seed, 20))
    # seeds derived here, outside the timed and traced region
    problems = [{"collect_seed": dataio.derive_seed(seed, 30, k),
                 "noise_seed": dataio.derive_seed(seed, 6, k)} for k in range(LAB_PROBLEMS)]
    return {"scene": scene, "fse": fse, "ide": ide, "targets": targets,
            "reports": (fse_report, ide_report), "problems": problems}


def pass_lab(fx, seed, k, tmp):
    from rispa import dataio, engines, evalkit
    scene, fse, ide = fx["scene"], fx["fse"], fx["ide"]
    data_path = tmp / "lab_dataset.jsonl"
    csv_path = tmp / "lab_eval.csv"
    noise_seed = fx["problems"][k]["noise_seed"]
    t0 = time.perf_counter()
    ds = dataio.collect(scene, LAB_PROFILES, fx["problems"][k]["collect_seed"])
    t1 = time.perf_counter()
    dataio.save_scatter(ds, data_path)
    loaded = dataio.load_scatter(data_path)
    t2 = time.perf_counter()
    result = engines.closed_loop_eval(ide, fse, scene, fx["targets"], noise_seed=noise_seed)
    t3 = time.perf_counter()
    _, special = evalkit.run_special_cases(ide, fse, scene)
    evalkit.export_scatter(result.table, csv_path, provenance={"seed": seed})
    evalkit.export_history(fx["reports"][0], tmp / "lab_fse_history.csv")
    evalkit.export_history(fx["reports"][1], tmp / "lab_ide_history.csv")
    t4 = time.perf_counter()

    def verify():
        import numpy as np
        from rispa.scene import simulate
        check(len(ds) == LAB_PROFILES and np.all(np.isfinite(ds.raw)), "bad collection")
        check(np.array_equal(loaded.profiles, ds.profiles)
              and np.array_equal(loaded.raw, ds.raw)
              and loaded.i_max == ds.i_max and loaded.seed == ds.seed
              and loaded.scene_digest == ds.scene_digest, "save/load round trip not exact")
        rows = np.random.default_rng(seed + k).choice(LAB_TARGETS, LAB_REPLAY_ROWS, replace=False)
        for i in rows:
            ref = simulate(scene, result.profiles[i], fse.i_max,
                           noise_seed=dataio.derive_seed(noise_seed, int(i)))
            got = result.table[i, 6:9]
            check(np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref)),
                  f"closed-loop row {i} differs from a per-record replay")
        check(special.shape == (3, 9) and np.all(np.isfinite(special)), "bad special cases")
        with open(csv_path, encoding="utf-8") as f:
            lines = [line for line in f if not line.startswith("#")]
        parsed = list(csv.reader(lines))
        check(tuple(parsed[0]) == evalkit.SCATTER_CSV_COLUMNS, "eval CSV header changed")
        table = np.array([[float(v) for v in row] for row in parsed[1:]])
        check(table.shape == result.table.shape and np.array_equal(table, result.table),
              "exported CSV does not re-parse exactly")
        return float(result.mse_measured.mean())
    extra = {
        "measure_records_per_s": LAB_PROFILES / (t1 - t0),
        "io_records_per_s": 2 * LAB_PROFILES / (t2 - t1),
        "eval_targets_per_s": LAB_TARGETS / (t3 - t2),
    }
    return t4 - t0, LAB_PROFILES + LAB_TARGETS, extra, verify


# ---------------------------------------------------------------------------
# cli_chain: the rispa command line as subprocesses
# ---------------------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def pass_cli_chain(fx, seed, k, tmp, trace_dir=None):
    out = tmp / f"chain{k}"
    shutil.rmtree(out, ignore_errors=True)
    chain_seed = fx["problems"][k]
    args = ["--out", str(out), "--seed", str(chain_seed), "--preset", "desk",
            "--epochs-fse", str(CLI_EPOCHS_FSE), "--epochs-ide", str(CLI_EPOCHS_IDE)]
    stage_s, codes = {}, {}
    t0 = time.perf_counter()
    for stage in CLI_STAGES:
        if trace_dir is None:
            cmd = [sys.executable, "-m", "rispa.cli", stage, *args]
            env = child_env()
        else:
            cmd = [sys.executable, str(HERE / "cli_shim.py"), stage, *args]
            env = dict(child_env(), PERFBENCH_SPANS=str(trace_dir / f"{stage}.jsonl"))
        s0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        codes[stage] = (proc.returncode, proc.stderr.strip().splitlines()[-1:])
        stage_s[f"cli.{stage}.s"] = time.perf_counter() - s0
    wall = time.perf_counter() - t0

    def verify():
        failed = {s: c for s, c in codes.items() if c[0] != 0}
        check(not failed, f"stages exited non-zero (code, last stderr line): {failed}")
        with open(out / "eval.csv", encoding="utf-8") as f:
            rows = list(csv.reader(line for line in f if not line.startswith("#")))[1:]
        expected = DESK_TARGETS - round(0.84375 * DESK_TARGETS) - round(0.09375 * DESK_TARGETS)
        check(len(rows) == expected, f"eval.csv holds {len(rows)} rows, expected {expected}")
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        check(set(CLI_STAGES) <= set(manifest), f"manifest lists {sorted(manifest)}")
        sq = [(float(r[6 + p]) - float(r[p])) ** 2 for r in rows for p in range(3)]
        return sum(sq) / len(sq)
    extra = dict(stage_s)
    extra["cli.artifact_bytes"] = sum(p.stat().st_size for p in out.iterdir())
    return wall, DESK_PROFILES + DESK_TARGETS, extra, verify


WORKLOADS = {
    "tandem": (setup_tandem, pass_tandem),
    "surrogate": (setup_surrogate, pass_surrogate),
    "lab": (setup_lab, pass_lab),
    "cli_chain": (lambda seed: {"problems": [seed * 100 + k for k in range(CLI_PROBLEMS)]},
                  pass_cli_chain),
}


# ---------------------------------------------------------------------------
# Measurement loop
# ---------------------------------------------------------------------------

def run_passes(workload, fx, seed, seconds, trace, tmp):
    """Run passes for ``seconds``; with tracing, alternate untraced and traced passes.

    One untimed warm-up pass comes first; it is checked like any other.
    Returns the passes, the traced aggregates, tandem step durations and the
    reference-loop times taken around the timed passes.
    """
    import tracing
    _, run_pass = WORKLOADS[workload]
    passes = []
    traced_aggs, step_durations, traced_spans = [], [], []
    problems = len(fx["problems"])
    k = -1  # the warm-up pass
    deadline = None
    refs = []
    while k < problems * (2 if trace else 1) or time.perf_counter() < deadline:
        if k == 0:
            deadline = time.perf_counter() + seconds
            refs.append(reference_point())
        traced = trace and k >= 0 and k % 2 == 1
        sub = (max(k, 0) // 2 if trace else max(k, 0)) % problems
        entry = {"traced": traced, "problem": sub, "ok": False, "warmup": k < 0}
        tracer = tracing.Tracer()
        try:
            if workload == "cli_chain":
                trace_dir = None
                if traced:
                    trace_dir = Path(tempfile.mkdtemp(dir=tmp))
                wall, rows, extra, verify = run_pass(fx, seed, sub, tmp, trace_dir)
                if traced:
                    agg = {}
                    for i, stage in enumerate(CLI_STAGES):
                        spans = tracing.load_spans(trace_dir / f"{stage}.jsonl")
                        traced_spans.append({"pass": k, "process": stage, "spans": spans})
                        tracing.aggregate(spans, agg, process=i)
                    shutil.rmtree(trace_dir)
            else:
                if traced:
                    tracer.install()
                try:
                    wall, rows, extra, verify = run_pass(fx, seed, sub, tmp)
                finally:
                    tracer.uninstall()
                if traced:
                    agg = tracing.aggregate(tracer.spans)
                    traced_spans.append({"pass": k, "process": "worker", "spans": tracer.spans})
            entry.update(wall=wall, pass_s=wall, rows=rows, extra=extra)
            if k >= 0:
                refs.append(reference_point())
                entry["pass_s"] = wall * REFERENCE_S / ((refs[-2] + refs[-1]) / 2)
            entry["quality"] = verify()
            entry["ok"] = True
        except Exception as e:  # a pass that raises or fails its check is counted, not fatal
            entry["error"] = f"{type(e).__name__}: {e}"
            if not isinstance(e, CheckFailed):
                traceback.print_exc(file=sys.stderr)
        if traced and "wall" in entry:
            traced_aggs.append(agg)
            step_durations += agg.get("engines.tandem_step", {}).get("durations", [])
        passes.append(entry)
        k += 1
    if trace:
        tracing.dump(traced_spans, OUT / f"spans-{workload}.jsonl")
    return passes, traced_aggs, step_durations, refs


def layer_report(workload, passes, traced_aggs, step_durations):
    """Per-layer medians over traced passes, tracing overhead and the coverage check."""
    import tracing
    per_pass = [tracing.layer_metrics(agg) for agg in traced_aggs] or [tracing.layer_metrics({})]
    metrics = {key: median([m[key] for m in per_pass]) for key in per_pass[0]}
    metrics.update(tracing.step_percentiles(step_durations))
    for key in [f"cli.{s}.s" for s in CLI_STAGES] + ["cli.artifact_bytes"]:
        metrics[key] = median([p["extra"].get(key, 0) for p in passes
                               if "extra" in p and not p["warmup"]])
    times = {t: [p["pass_s"] for p in passes
                 if p["traced"] == t and "pass_s" in p and not p["warmup"]]
             for t in (True, False)}
    metrics["trace_overhead_s"] = median(times[True]) - median(times[False])
    expected = EXERCISED[workload]
    expected = set(tracing.SPANS) if expected is None else expected
    missing = set() if traced_aggs else set(expected)
    unexpected = set()
    for agg in traced_aggs:
        called = {name for name, a in agg.items() if a["calls"] > 0}
        missing |= expected - called
        unexpected |= called - expected
    return metrics, sorted(missing), sorted(unexpected)


def blas_threads():
    """Effective OpenBLAS thread count of the numpy build, or None when unknown."""
    import ctypes
    import glob
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "lib*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(seed):
    import hashlib
    import platform
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    sources = [p.read_bytes() for p in sorted((SRC / "rispa").glob("*.py"))]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": hashlib.sha256(b"".join(sources)).hexdigest(),
        "src_rispa_lines": sum(len(b.splitlines()) for b in sources),
        "seed": seed,
    }


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.workload != "cli_chain":
            import rispa
            if not Path(rispa.__file__).resolve().is_relative_to(SRC):
                raise SystemExit(f"rispa imported from {rispa.__file__}, not {SRC}")
        setup, _ = WORKLOADS[args.workload]
        fx = setup(args.seed)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready,
                              "reference_s": [reference_point() for _ in range(3)]}))
            return
        passes, traced_aggs, step_durations, refs = run_passes(
            args.workload, fx, args.seed, args.seconds, args.trace, tmp)
        self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        rss_kib = child_rss if args.workload == "cli_chain" else self_rss
        result = {
            "ready": ready,
            "attempted": len(passes),
            "failed": sum(not p["ok"] for p in passes),
            "errors": sorted({p["error"] for p in passes if "error" in p}),
            "pass_walls": [round(p["wall"], 6) for p in passes if "wall" in p],
            "reference_s": refs,
            "provenance": provenance(args.seed),
        }
        untraced = [p for p in passes if p["ok"] and not p["traced"] and not p["warmup"]]
        quality = {}
        for p in untraced:
            quality.setdefault(p["problem"], p["quality"])
        result["metrics"] = {
            "pass_s": median([p["pass_s"] for p in untraced]),
            "rows_per_s": median([p["rows"] / p["pass_s"] for p in untraced]),
            "peak_rss_mb": rss_kib / 1024.0,
            "quality_mse": statistics.fmean(quality.values()) if quality else 0.0,
        }
        # lab's phase rates are scaled like the pass time
        result["info"] = {key: median([p["extra"][key] * p["wall"] / p["pass_s"]
                                       if key.endswith("_per_s") else p["extra"][key]
                                       for p in untraced])
                          for key in (untraced[0]["extra"] if untraced else {})}
        result["info"]["wall_s"] = median([p["wall"] for p in untraced])
        result["info"]["reference_s"] = median(refs)
        if args.trace:
            layers, missing, unexpected = layer_report(
                args.workload, passes, traced_aggs, step_durations)
            result.update(layers=layers, missing=missing, unexpected=unexpected)
        print(json.dumps(result))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
