"""Acceptance gate: every shipping criterion at its stated tolerance.

One test per criterion; each prints a PASS/FAIL line (visible with -s).
Criteria 2-5 and 8 share one desk-scale pipeline run: criterion 5 takes it as
the baseline of the obstacle study and trains only the re-collected pair, and
criterion 8 trains the desk pipeline once more to compare. The module takes
about four and a half minutes on a 2-vCPU Xeon (266 s of test time),
dominated by network training.

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

from rispa import dataio, engines, evalkit, neural, quantizer, scene

pytestmark = pytest.mark.acceptance

ACCEPTANCE_SEED = 12


def _criterion(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def desk_result():
    return evalkit.run_pipeline(
        scene.default_scene(), evalkit.desk_settings(), ACCEPTANCE_SEED
    )


# ---------------------------------------------------------------------------
# 1. gradient suite: 100 random small instances, rel err < 1e-4, < 30 s
# ---------------------------------------------------------------------------

def _fd_check_mlp(rng) -> float:
    dims = [int(rng.integers(2, 11)), int(rng.integers(2, 9)),
            int(rng.integers(2, 9)), int(rng.integers(1, 4))]
    mlp = neural.init_mlp(dims, seed=int(rng.integers(1 << 30)))
    x = rng.normal(size=dims[0])
    y = rng.normal(size=dims[-1])
    g = neural.backward(mlp, x, neural.mse_grad(neural.forward(mlp, x), y))

    def loss():
        return neural.mse(neural.forward(mlp, x), y)

    h = 1e-5
    worst = 0.0
    analytic = [g.params, g.inputs]
    arrays = [mlp.params, x]
    for arr, ga in zip(arrays, analytic):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            old = arr[idx]
            arr[idx] = old + h
            up = loss()
            arr[idx] = old - h
            dn = loss()
            arr[idx] = old
            fd = (up - dn) / (2 * h)
            worst = max(worst, abs(fd - ga[idx]) / max(1e-6, abs(fd), abs(ga[idx])))
    return worst


def _fd_check_mse(rng) -> float:
    n = int(rng.integers(2, 9))
    a, b = rng.normal(size=n), rng.normal(size=n)
    g = neural.mse_grad(a, b)
    h = 1e-6
    worst = 0.0
    for i in range(n):
        ap, am = a.copy(), a.copy()
        ap[i] += h
        am[i] -= h
        fd = (neural.mse(ap, b) - neural.mse(am, b)) / (2 * h)
        worst = max(worst, abs(fd - g[i]) / max(1e-8, abs(fd), abs(g[i])))
    return worst


def _fd_check_quantizer(rng) -> float:
    tau = float(rng.choice([3.0, 10.0, 30.0]))
    cfg = quantizer.QuantizerConfig(temperature=tau)
    angle = float(rng.uniform(0.0, 360.0))
    _, grad = quantizer.quantize_soft_with_grad(angle, cfg)
    h = 1e-5
    up = quantizer.quantize_soft(angle + h, cfg)
    dn = quantizer.quantize_soft(angle - h, cfg)
    fd = ((up - dn + 180.0) % 360.0 - 180.0) / (2 * h)
    return abs(fd - grad) / max(1e-6, abs(fd), abs(grad))


def _fd_check_tandem(rng) -> float:
    cols = int(rng.integers(2, 4))
    probes = int(rng.integers(1, 4))
    ide = neural.init_mlp([3, 4, 4, cols], seed=int(rng.integers(1 << 30)))
    fse = neural.init_mlp([2 * cols, 5, probes], seed=int(rng.integers(1 << 30)))
    cfg = quantizer.QuantizerConfig()
    x = rng.uniform(0.0, 0.6, size=(2, 3))
    y = rng.uniform(0.0, 0.6, size=(2, probes))
    _, grads = engines.tandem_loss_and_grads(ide, fse, cfg, x, y)

    def loss():
        return neural.mse(engines.tandem_forward(ide, fse, cfg, x), y)

    h = 1e-5
    worst = 0.0
    arr, ga = ide.params, grads
    for idx in range(arr.size):
        old = arr[idx]
        arr[idx] = old + h
        up = loss()
        arr[idx] = old - h
        dn = loss()
        arr[idx] = old
        fd = (up - dn) / (2 * h)
        worst = max(worst, abs(fd - ga[idx]) / max(1e-6, abs(fd), abs(ga[idx])))
    return worst


def test_criterion_1_gradient_suite():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(40):
        worst = max(worst, _fd_check_mlp(rng))
    for _ in range(20):
        worst = max(worst, _fd_check_mse(rng))
    for _ in range(20):
        worst = max(worst, _fd_check_quantizer(rng))
    for _ in range(20):
        worst = max(worst, _fd_check_tandem(rng))
    elapsed = time.perf_counter() - t0
    _criterion(
        1,
        worst < 1e-4 and elapsed < 30.0,
        f"100 instances, worst rel err {worst:.3g}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. surrogate quality at desk scale
# ---------------------------------------------------------------------------

def test_criterion_2_fse_surrogate_quality(desk_result):
    res = desk_result
    runtime = res.timings["collect"] + res.timings["train_fse"]
    _criterion(
        2,
        res.fse_test_mse <= 0.005 and runtime < 180.0,
        f"held-out test MSE {res.fse_test_mse:.5f} (<= 0.005), "
        f"collect+train {runtime:.0f}s (< 180s)",
    )


# ---------------------------------------------------------------------------
# 3. closed-loop power allocation, no obstacle
# ---------------------------------------------------------------------------

def test_criterion_3_closed_loop(desk_result):
    res = desk_result
    meas = res.eval_result.mse_measured
    pred = res.eval_result.mse_predicted
    runtime = res.timings["train_ide"] + res.timings["eval"]
    ok = (
        bool((meas <= 8e-3).all())
        and bool((pred <= 1.5 * meas).all())
        and runtime < 360.0
    )
    _criterion(
        3,
        ok,
        "measured MSE " + "/".join(f"{v:.4f}" for v in meas) + " (<= 0.008), "
        "predicted " + "/".join(f"{v:.4f}" for v in pred) + " (<= 1.5x measured), "
        f"train+eval {runtime:.0f}s (< 360s)",
    )


# ---------------------------------------------------------------------------
# 4. special cases 001 / 101 / 000
# ---------------------------------------------------------------------------

def test_criterion_4_special_cases(desk_result):
    rows = desk_result.special_table
    m001, m101, m000 = rows[0, 6:9], rows[1, 6:9], rows[2, 6:9]
    ok_001 = m001[2] >= 3.0 * max(m001[0], m001[1])
    ok_101 = min(m101[0], m101[2]) >= 3.0 * m101[1]
    ok_000 = bool((m000 <= 0.08).all())
    _criterion(
        4,
        ok_001 and ok_101 and ok_000,
        f"001 measured {np.round(m001, 3).tolist()} (>=3x dominance), "
        f"101 measured {np.round(m101, 3).tolist()} (>=3x dominance), "
        f"000 measured {np.round(m000, 3).tolist()} (<= 0.08)",
    )


# ---------------------------------------------------------------------------
# 5. obstacle adaptation study
# ---------------------------------------------------------------------------

def test_criterion_5_adaptation_study(desk_result):
    report = evalkit.run_adaptation_study(
        desk_result,
        scene.default_scene(),
        scene.default_scene(with_obstacle=True),
        evalkit.desk_settings(),
    )
    clock = report.collect_seconds + report.train_seconds
    ok = (
        report.stale_mse.mean() >= 2.0 * report.retrained_mse.mean()
        and bool((report.retrained_mse <= 8e-3).all())
        and clock < 600.0
    )
    _criterion(
        5,
        ok,
        f"stale mean {report.stale_mse.mean():.4f} >= 2x retrained mean "
        f"{report.retrained_mse.mean():.4f}; retrained per-probe "
        + "/".join(f"{v:.4f}" for v in report.retrained_mse)
        + f" (<= 0.008); re-collect+retrain {clock:.0f}s (< 600s)",
    )


# ---------------------------------------------------------------------------
# 6. quantizer suite
# ---------------------------------------------------------------------------

def test_criterion_6_quantizer_suite():
    rng = np.random.default_rng(1006)
    angles = rng.uniform(-720.0, 720.0, size=1000)
    in_set = set(np.unique(quantizer.quantize_hard(angles))).issubset(set(range(8)))

    ties_ok = all(
        quantizer.quantize_hard(22.5 + 45.0 * k) == (k + 1) % 8 for k in range(8)
    )

    grid = np.arange(0.0, 360.0, 1.0)
    dist_to_tie = np.abs(np.abs((grid - 22.5) % 45.0 - 22.5) - 22.5)
    grid = grid[dist_to_tie > 1.0]
    centers = 45.0 * np.asarray(quantizer.quantize_hard(grid))
    prev = np.inf
    refine_ok = True
    devs = {}
    for tau in (30.0, 10.0, 3.0, 1.0, 0.3, 0.1):
        soft = quantizer.quantize_soft(grid, quantizer.QuantizerConfig(temperature=tau))
        dev = np.abs((soft - centers + 180.0) % 360.0 - 180.0).max()
        refine_ok = refine_ok and dev <= prev + 1e-9
        devs[tau] = prev = dev
    # The closed form comes within 0.5 deg of the hard centers at tau=0.1; at a
    # 1.5 deg tie margin it does so only for tau below about 0.25 (0.87 at 0.3).
    converged = prev < 0.5

    a = quantizer.quantize_soft(grid, quantizer.QuantizerConfig())
    b = quantizer.quantize_soft(grid + 360.0, quantizer.QuantizerConfig())
    periodic = np.abs((a - b + 180.0) % 360.0 - 180.0).max() < 1e-9

    _criterion(
        6,
        in_set and ties_ok and refine_ok and converged and periodic,
        f"hard in 8-state set: {in_set}, tie rule exact: {ties_ok}, "
        f"soft->hard refinement monotone: {refine_ok}, "
        f"max dev by tau: {', '.join(f'{t:g}: {d:.4f}' for t, d in devs.items())} deg "
        f"(< 0.5 at tau=0.1: {converged}), "
        f"360-periodic: {periodic}",
    )


# ---------------------------------------------------------------------------
# 7. scene physics suite
# ---------------------------------------------------------------------------

def test_criterion_7_scene_physics_suite():
    rng = np.random.default_rng(1007)
    clean = scene.default_scene()
    dirty = scene.default_scene(with_obstacle=True)
    flat = scene.Scene(amplitude_table=np.ones(8))

    mirror_ok = True
    for _ in range(10):
        states = rng.integers(0, 8, size=20)
        fwd = scene.simulate_raw(clean, states)
        rev = scene.simulate_raw(clean, states[::-1])
        mirror_ok = mirror_ok and np.allclose(rev, fwd[::-1], rtol=1e-9)

    states = rng.integers(0, 8, size=20)
    base = scene.simulate_raw(flat, states)
    phase_ok = all(
        np.allclose(scene.simulate_raw(flat, (states + d) % 8), base, rtol=1e-9)
        for d in range(1, 8)
    )

    det_ok = np.array_equal(
        scene.simulate_raw(clean, states, noise_seed=5),
        scene.simulate_raw(clean, states, noise_seed=5),
    )

    changed = 0
    for _ in range(100):
        s = rng.integers(0, 8, size=20)
        a = scene.simulate_raw(clean, s)
        b = scene.simulate_raw(dirty, s)
        if np.any(np.abs(b - a) / a > 0.05):
            changed += 1

    _criterion(
        7,
        mirror_ok and phase_ok and det_ok and changed >= 50,
        f"mirror symmetry: {mirror_ok}, global-phase invariance: {phase_ok}, "
        f"determinism: {det_ok}, obstacle changed {changed}/100 profiles by >5%",
    )


# ---------------------------------------------------------------------------
# 8. end-to-end determinism at desk scale
# ---------------------------------------------------------------------------

def test_criterion_8_desk_pipeline_determinism(desk_result, tmp_path):
    rerun = evalkit.run_pipeline(
        scene.default_scene(), evalkit.desk_settings(), ACCEPTANCE_SEED
    )
    prov = {"seed": ACCEPTANCE_SEED, "scene_digest": "acceptance"}
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    evalkit.export_scatter(desk_result.eval_result.table, a, prov)
    evalkit.export_scatter(rerun.eval_result.table, b, prov)
    identical = a.read_bytes() == b.read_bytes()
    digests_match = (
        desk_result.fse.digest() == rerun.fse.digest()
        and neural.param_digest(desk_result.ide.mlp) == neural.param_digest(rerun.ide.mlp)
    )
    _criterion(
        8,
        identical and digests_match,
        f"eval CSVs byte-identical: {identical}, model digests match: {digests_match}",
    )


# ---------------------------------------------------------------------------
# 9. split arithmetic
# ---------------------------------------------------------------------------

def test_criterion_9_split_arithmetic():
    ds = dataio.generate_targets(10000, seed=0)
    sizes_a = tuple(len(p) for p in dataio.split(ds, dataio.SCATTER_SPLIT, seed=1))
    ds = dataio.generate_targets(48000, seed=0)
    sizes_b = tuple(len(p) for p in dataio.split(ds, dataio.TARGET_SPLIT, seed=1))
    _criterion(
        9,
        sizes_a == (8100, 900, 1000) and sizes_b == (40500, 4500, 3000),
        f"10000 -> {sizes_a}, 48000 -> {sizes_b}",
    )


# ---------------------------------------------------------------------------
# engines module invariants (not numbered criteria)
# ---------------------------------------------------------------------------

def test_invariant_deployment_consistency_gap(desk_result):
    """Surrogate outputs under soft-quantized vs hard-snapped angles.

    Not a numbered criterion; this is the tandem's training/deployment
    consistency bound. The value sits close to the physical snap sensitivity
    of the scene, so its margin is small by nature (see decisions ledger).
    """
    gap = desk_result.soft_hard_gap
    print(f"[invariant] deployment-consistency gap {gap:.4f} RMS (< 0.05 at tau=10)")
    assert gap < 0.05, f"soft/hard deployment gap {gap:.4f} not under 0.05"


def test_invariant_fse_generalization_sanity(desk_result):
    """Held-out error within 3x of validation error, overall and per probe."""
    res = desk_result
    val = min(res.fse_report.val_losses)
    assert res.fse_test_mse <= 3.0 * val
    d_train, d_val, d_test = dataio.split(
        res.dataset, evalkit.desk_settings().scatter_split,
        dataio.derive_seed(ACCEPTANCE_SEED, evalkit.SEED_SCATTER_SPLIT),
    )
    per_probe = ((engines.fse_predict(res.fse, d_test.profiles) - d_test.normalized) ** 2).mean(axis=0)
    assert bool((per_probe <= 0.005).all()), f"per-probe test MSE {per_probe}"


def test_invariant_inverse_nonuniqueness_tolerance(desk_result):
    """A differently seeded inverse network finds different designs, yet both
    sides must satisfy the closed-loop bound."""
    res = desk_result
    settings = evalkit.desk_settings()
    t_train, t_val, t_test = res.target_splits
    alt_seed = dataio.derive_seed(ACCEPTANCE_SEED, evalkit.SEED_IDE, 1)
    ide2, _ = engines.train_ide(
        res.fse, t_train, t_val,
        epochs=settings.epochs_ide,
        learning_rate=settings.lr_ide,
        batch_size=settings.batch_ide,
        seed=alt_seed,
        qcfg=quantizer.QuantizerConfig(temperature=settings.temperature),
    )
    eval_scene = evalkit._apply_noise_override(scene.default_scene(), settings)
    ev2 = engines.closed_loop_eval(ide2, res.fse, eval_scene, t_test)
    p1 = engines.design_batch(res.ide, t_test.targets)
    p2 = engines.design_batch(ide2, t_test.targets)
    n_differ = int((p1 != p2).any(axis=1).sum())
    print(f"[invariant] non-uniqueness: {n_differ}/{len(p1)} designs differ, "
          f"alt measured MSE {np.round(ev2.mse_measured, 4).tolist()}")
    assert n_differ > 0
    assert bool((ev2.mse_measured <= 8e-3).all())
    assert bool((res.eval_result.mse_measured <= 8e-3).all())
