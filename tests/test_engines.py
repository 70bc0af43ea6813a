"""Forward surrogate, tandem gradients, inference, and closed-loop scoring."""

import json
import platform
import subprocess
import sys
import warnings

import numpy as np
import pytest

from rispa import dataio, engines, neural
from rispa.engines import (
    FseModel,
    IdeModel,
    closed_loop_eval,
    design_batch,
    encode_phases,
    fse_layer_dims,
    fse_predict,
    ide_layer_dims,
    load_fse,
    load_ide,
    profile_encoding,
    save_fse,
    save_ide,
    soft_hard_gap_rms,
    tandem_forward,
    tandem_loss_and_grads,
    train_fse,
    train_ide,
)
from rispa.quantizer import (
    QuantizerConfig,
    quantize_hard,
    quantize_soft_with_grad,
    soft_phasor_with_grad,
)
from rispa.scene import default_scene, simulate


def test_layer_dims_match_contract():
    assert fse_layer_dims(20, 3) == [40, 100, 100, 3]
    assert ide_layer_dims(20, 3) == [3, 50, 50, 20]


# ---------------------------------------------------------------------------
# phase encoding
# ---------------------------------------------------------------------------

def test_encode_phases_examples():
    enc = encode_phases(np.zeros(20))
    assert enc.shape == (40,)
    assert np.allclose(enc[0::2], 1.0) and np.allclose(enc[1::2], 0.0)

    angles = np.zeros(20)
    angles[0] = 90.0
    enc = encode_phases(angles)
    assert enc[0] == pytest.approx(0.0, abs=1e-12)
    assert enc[1] == pytest.approx(1.0)

    enc = encode_phases(np.array([225.0]))
    assert enc == pytest.approx([-0.70711, -0.70711], abs=1e-5)


def test_encode_phases_batched():
    rng = np.random.default_rng(0)
    angles = rng.uniform(0, 360, size=(5, 20))
    batched = encode_phases(angles)
    assert batched.shape == (5, 40)
    for i in range(5):
        assert np.array_equal(batched[i], encode_phases(angles[i]))


# ---------------------------------------------------------------------------
# tandem gradient flow
# ---------------------------------------------------------------------------

def test_tandem_gradients_match_finite_differences():
    # tiny configuration: 2 columns, 2 probes, 3-dim target input
    ide = neural.init_mlp([3, 4, 4, 2], seed=1)
    fse = neural.init_mlp([4, 5, 2], seed=2)
    qcfg = QuantizerConfig()
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 0.6, size=(3, 3))
    y = rng.uniform(0.0, 0.6, size=(3, 2))

    loss, grads = tandem_loss_and_grads(ide, fse, qcfg, x, y)
    assert np.isfinite(loss)

    def loss_now():
        return neural.mse(tandem_forward(ide, fse, qcfg, x), y)

    h = 1e-5
    arr, analytic = ide.params, grads
    for idx in range(arr.size):
        old = arr[idx]
        arr[idx] = old + h
        up = loss_now()
        arr[idx] = old - h
        dn = loss_now()
        arr[idx] = old
        fd = (up - dn) / (2 * h)
        denom = max(1e-7, abs(fd), abs(analytic[idx]))
        assert abs(fd - analytic[idx]) / denom < 1e-4


def _plain_layers(mlp, h):
    """Output, layer inputs and pre-activations of ``mlp`` as plain expressions with fresh arrays."""
    inputs, pre = [], []
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        inputs.append(h)
        pre.append(h @ w.T + b)
        h = neural.elu(pre[-1]) if i < len(mlp.weights) - 1 else pre[-1]
    return h, inputs, pre


def _plain_gradients(mlp, inputs, pre, delta):
    """Flat parameter gradient and input gradient of ``mlp`` for the output gradient ``delta``."""
    parts = []
    for i in range(len(mlp.weights) - 1, -1, -1):
        parts = [(delta.T @ inputs[i]).ravel(), delta.sum(axis=0)] + parts
        delta = delta @ mlp.weights[i]
        if i > 0:
            delta = delta * neural.elu_grad(pre[i - 1])
    return np.concatenate(parts), delta


def _reference_tandem(ide, fse, qcfg, x, y):
    """The tandem step as plain numpy expressions around the soft quantizer: the bit reference.

    The surrogate reads the unit phasor of the soft angle, [cos, sin] interleaved,
    as the quantizer gives it; the angle's derivative is ``quantize_soft_with_grad``'s.
    """
    raw, ide_inputs, ide_pre = _plain_layers(ide, x)
    _, soft_grad = quantize_soft_with_grad(raw, qcfg)
    encoded = np.empty((len(x), 2 * raw.shape[1]))
    soft_phasor_with_grad(raw, qcfg, encoded)
    cos, sin = encoded[..., 0::2], encoded[..., 1::2]
    pred, fse_inputs, fse_pre = _plain_layers(fse, encoded)
    _, g_encoded = _plain_gradients(fse, fse_inputs, fse_pre, 2.0 * (pred - y) / pred.size)
    g_soft = (-sin * g_encoded[..., 0::2] + cos * g_encoded[..., 1::2])
    g_soft = g_soft * (np.pi / 180.0)
    g_ide, _ = _plain_gradients(ide, ide_inputs, ide_pre, g_soft * soft_grad)
    return float(np.mean((pred - y) ** 2)), g_ide


@pytest.mark.parametrize("rows,tau", [(256, 10.0), (1, 10.0), (37, 0.3)])
def test_tandem_step_is_bit_identical_to_reference(rows, tau):
    ide = neural.init_mlp(ide_layer_dims(20, 3), seed=31)
    fse = neural.init_mlp(fse_layer_dims(20, 3), seed=32)
    qcfg = QuantizerConfig(temperature=tau)
    rng = np.random.default_rng(rows)
    x = rng.uniform(0.0, 0.6, size=(rows, 3))
    y = rng.uniform(0.0, 0.6, size=(rows, 3))
    loss, grads = tandem_loss_and_grads(ide, fse, qcfg, x, y)
    ref_loss, ref_grads = _reference_tandem(ide, fse, qcfg, x, y)
    assert loss == ref_loss
    assert np.array_equal(grads, ref_grads)


def test_tandem_steps_on_one_scratch_are_bit_identical_to_reference():
    ide = neural.init_mlp(ide_layer_dims(20, 3), seed=31)
    fse = neural.init_mlp(fse_layer_dims(20, 3), seed=32)
    qcfg = QuantizerConfig(temperature=10.0)
    rng = np.random.default_rng(33)
    ide_scratch, fse_scratch = {}, {}
    state = neural.init_adam(ide.params, learning_rate=1e-2)
    ref_params, ref_state = ide.params.copy(), neural.init_adam(ide.params, learning_rate=1e-2)
    buffers = None
    for rows in (256, 256, 94, 256):
        x = rng.uniform(0.0, 0.6, size=(rows, 3))
        y = rng.uniform(0.0, 0.6, size=(rows, 3))
        for buf in (*ide_scratch.values(), *fse_scratch.values()):
            buf.fill(np.nan)  # a value left over from an earlier step would show
        loss, grads = tandem_loss_and_grads(ide, fse, qcfg, x, y,
                                            ide_scratch=ide_scratch, fse_scratch=fse_scratch)
        ref_loss, ref_grads = _reference_tandem(ide, fse, qcfg, x, y)
        assert loss == ref_loss
        assert np.array_equal(grads, ref_grads)
        assert np.shares_memory(grads, ide_scratch["grad"])
        # the first batch sizes the buffers; the short batch uses their leading rows
        buffers = buffers or (dict(ide_scratch), dict(fse_scratch))
        for scratch, first in zip((ide_scratch, fse_scratch), buffers):
            assert scratch.keys() == first.keys()
            assert all(scratch[k] is v for k, v in first.items())
        # Adam consumes the gradient in the scratch before the next step writes over it
        params, state = neural.adam_step(ide.params, grads, state)
        ref_params, ref_state = neural.adam_step(ref_params, ref_grads, ref_state)
        assert params is ide.params
        assert np.array_equal(ide.params, ref_params)


@pytest.mark.parametrize("shift", [360.0, -360.0])
def test_tandem_chain_is_360_periodic_in_the_ide_output(shift):
    # the soft quantizer and the encoding read only cos and sin, so no wrap is needed
    ide = neural.init_mlp(ide_layer_dims(20, 3), seed=31)
    fse = neural.init_mlp(fse_layer_dims(20, 3), seed=32)
    shifted = ide.copy()
    shifted.biases[-1][:] += shift
    qcfg = QuantizerConfig(temperature=10.0)
    rng = np.random.default_rng(34)
    x = rng.uniform(0.0, 0.6, size=(64, 3))
    y = rng.uniform(0.0, 0.6, size=(64, 3))
    loss, grads = tandem_loss_and_grads(ide, fse, qcfg, x, y)
    shifted_loss, shifted_grads = tandem_loss_and_grads(shifted, fse, qcfg, x, y)
    assert shifted_loss == pytest.approx(loss, rel=1e-9)
    assert np.abs(shifted_grads - grads).max() <= 1e-9 * np.abs(grads).max()
    pred = tandem_forward(ide, fse, qcfg, x)
    assert np.abs(tandem_forward(shifted, fse, qcfg, x) - pred).max() <= 1e-9 * np.abs(pred).max()


def test_tandem_forward_on_float32_inputs_is_float64_bit_for_bit():
    # validation, inference and the soft/hard gap never run the float32 step kernel
    ide = neural.init_mlp(ide_layer_dims(20, 3), seed=35)
    fse = neural.init_mlp(fse_layer_dims(20, 3), seed=36)
    x = np.random.default_rng(37).uniform(0.0, 0.6, size=(64, 3)).astype(np.float32)
    for tau in (0.3, 10.0):
        qcfg = QuantizerConfig(temperature=tau)
        pred = tandem_forward(ide, fse, qcfg, x)
        assert pred.dtype == np.float64
        assert pred.tobytes() == tandem_forward(ide, fse, qcfg, x.astype(float)).tobytes()


# 3 warm-up steps, then the minor page faults of 20 desk-shape tandem steps on one
# pair of scratches, in a fresh process that keeps glibc's allocator defaults
_TANDEM_STEP_FAULTS = """
import resource
import numpy as np
from rispa import engines, neural
from rispa.quantizer import QuantizerConfig
ide = neural.init_mlp(engines.ide_layer_dims(), seed=0)
fse = neural.init_mlp(engines.fse_layer_dims(), seed=1)
y = np.random.default_rng(2).uniform(0.0, 1.0, size=(256, 3))
state = neural.init_adam(ide.params, 1e-3)
scratches = {"ide_scratch": {}, "fse_scratch": {}}
for step in range(23):
    if step == 3:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _, grads = engines.tandem_loss_and_grads(ide, fse, QuantizerConfig(), x=y, y=y, **scratches)
    neural.adam_step(ide.params, grads, state)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_tandem_steps_take_no_page_faults():
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the faults come from glibc returning freed memory to the kernel")
    proc = subprocess.run([sys.executable, "-c", _TANDEM_STEP_FAULTS],
                          capture_output=True, text=True, check=True)
    assert int(proc.stdout) < 100


def test_float32_tandem_steps_take_no_page_faults():
    # the steps as train_ide runs them: a float32 batch of inputs, float64 targets, float32
    # copies of both networks, and the inverse network's copy refreshed after each Adam update
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the faults come from glibc returning freed memory to the kernel")
    script = _TANDEM_STEP_FAULTS
    for old, new in (
        ("state = ", "x = y.astype(np.float32)\n"
                     "ide32 = neural.Mlp(ide.layer_dims, ide.params.astype(np.float32))\n"
                     "fse32 = neural.Mlp(fse.layer_dims, fse.params.astype(np.float32))\n"
                     "state = "),
        ("(ide, fse, QuantizerConfig(), x=y,", "(ide32, fse32, QuantizerConfig(), x=x,"),
        ("neural.adam_step(ide.params, grads, state)\n",
         "neural.adam_step(ide.params, grads, state)\n"
         "    np.copyto(ide32.params, ide.params, casting='same_kind')\n"),
    ):
        assert script.count(old) == 1, old
        script = script.replace(old, new)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True)
    assert int(proc.stdout) < 100


# growth of the peak resident set over one noisy closed-loop eval of 10,000 targets
# with untrained networks, in a fresh process
_EVAL_PEAK_GROWTH = """
import resource
from rispa import dataio, engines, neural
from rispa.scene import default_scene
fse = engines.FseModel(mlp=neural.init_mlp(engines.fse_layer_dims(), seed=1),
                       column_count=20, i_max=1.0)
ide = engines.IdeModel(mlp=neural.init_mlp(engines.ide_layer_dims(), seed=0), fse_digest="")
targets = dataio.generate_targets(10000, seed=2)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
engines.closed_loop_eval(ide, fse, default_scene(), targets, noise_seed=3)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_closed_loop_eval_memory_is_bounded():
    if not sys.platform.startswith("linux"):
        pytest.skip("ru_maxrss is in KiB only on Linux")
    proc = subprocess.run([sys.executable, "-c", _EVAL_PEAK_GROWTH],
                          capture_output=True, text=True, check=True)
    # one pass over the whole batch grows it by about 46 MiB
    assert int(proc.stdout) < 16 * 1024


# ---------------------------------------------------------------------------
# surrogate training and prediction
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_corpus():
    scene = default_scene()
    scene.noise_sigma = 0.0
    return scene, dataio.collect(scene, count=24, seed=5)


def test_train_fse_memorizes_tiny_dataset(tiny_corpus):
    _, ds = tiny_corpus
    train = ds.subset(np.arange(20))
    val = ds.subset(np.arange(20, 24))
    model, report = train_fse(train, val, epochs=1500, learning_rate=3e-3,
                              batch_size=20, seed=6)
    assert report.train_losses[-1] < 1e-4
    assert model.i_max == ds.i_max
    assert model.mlp.layer_dims == [40, 100, 100, 3]


def test_fse_predict_contract(tiny_corpus):
    _, ds = tiny_corpus
    model = FseModel(mlp=neural.init_mlp([40, 100, 100, 3], seed=0),
                     column_count=20, i_max=1.0)
    a = fse_predict(model, ds.profiles[0])
    b = fse_predict(model, ds.profiles[0])
    assert np.array_equal(a, b)
    assert a.shape == (3,)
    batch = fse_predict(model, ds.profiles[:5])
    assert batch.shape == (5, 3)
    for wrong_width in (np.zeros(19, dtype=int), 3):
        with pytest.raises(ValueError, match="20 states"):
            fse_predict(model, wrong_width)
    for off_grid in (np.full(20, 8), np.full(20, 2.5), np.full(20, -1)):
        with pytest.raises(ValueError, match="state indices"):
            fse_predict(model, off_grid)


@pytest.fixture(scope="module")
def tiny_tandem(tiny_corpus):
    scene, ds = tiny_corpus
    train = ds.subset(np.arange(20))
    val = ds.subset(np.arange(20, 24))
    fse, _ = train_fse(train, val, epochs=300, learning_rate=3e-3,
                       batch_size=20, seed=6)
    targets = dataio.generate_targets(40, seed=7)
    t_train = targets.subset(np.arange(32))
    t_val = targets.subset(np.arange(32, 40))
    ide, report = train_ide(fse, t_train, t_val, epochs=50,
                            learning_rate=2e-3, batch_size=16, seed=8)
    return scene, fse, ide, report, targets


def test_train_ide_freezes_surrogate(tiny_tandem):
    _, fse, ide, report, _ = tiny_tandem
    assert ide.fse_digest == fse.digest()
    assert len(report.train_losses) == 50
    assert len(report.val_losses) == 50
    assert ide.mlp.layer_dims == [3, 50, 50, 20]


def test_train_ide_loss_decreases(tiny_tandem):
    _, _, _, report, _ = tiny_tandem
    assert report.train_losses[-1] < report.train_losses[0]


# the buffer the loss writes; every other buffer, the soft quantizer's included, is the step's dtype
_FLOAT64_STEP_KEYS = {"d"}


def _step_dtypes(scratch):
    return {k[0] if isinstance(k, tuple) else k: v.dtype for k, v in scratch.items()}


def test_training_steps_run_float32_and_validation_float64(tiny_corpus, monkeypatch):
    _, ds = tiny_corpus
    scratches, validated = [], []
    supervised, tandem, mse = (neural._supervised_loss_and_grads, engines.tandem_loss_and_grads,
                               neural.mse)

    def spy_supervised(mlp, x, y, scratch):
        result = supervised(mlp, x, y, scratch)
        scratches.append(scratch)
        return result

    def spy_tandem(ide_mlp, fse_mlp, qcfg, x, y, ide_scratch, fse_scratch):
        result = tandem(ide_mlp, fse_mlp, qcfg, x, y, ide_scratch, fse_scratch)
        scratches.extend((ide_scratch, fse_scratch))
        return result

    def spy_mse(pred, y):  # validation scores its predictions with neural.mse
        validated.append(pred.dtype)
        return mse(pred, y)

    monkeypatch.setattr(neural, "_supervised_loss_and_grads", spy_supervised)
    monkeypatch.setattr(engines, "tandem_loss_and_grads", spy_tandem)
    monkeypatch.setattr(neural, "mse", spy_mse)
    fse, _ = train_fse(ds.subset(np.arange(20)), ds.subset(np.arange(20, 24)), epochs=2,
                       learning_rate=1e-3, batch_size=8, seed=1)
    targets = dataio.generate_targets(40, seed=2)
    train_ide(fse, targets.subset(np.arange(32)), targets.subset(np.arange(32, 40)), epochs=2,
              learning_rate=1e-3, batch_size=16, seed=3)
    # train_fse: 3 steps an epoch, one scratch each; train_ide: 2 steps an epoch, two scratches each
    assert len(scratches) == 3 * 2 + 2 * 2 * 2
    for scratch in scratches:
        for key, dtype in _step_dtypes(scratch).items():
            assert dtype == (np.float64 if key in _FLOAT64_STEP_KEYS else np.float32), key
    assert "x" in scratches[-1] and ("soft", 0) in scratches[-2]
    assert validated and set(validated) == {np.dtype(np.float64)}
    assert fse.mlp.params.dtype == np.float64


def test_train_ide_steps_get_float32_copies_bit_equal_to_their_masters(monkeypatch):
    fse = FseModel(mlp=neural.init_mlp(fse_layer_dims(), seed=1), column_count=20, i_max=1.0)
    start = neural.init_mlp(ide_layer_dims(), seed=3)  # train_ide's initial inverse network
    surrogates, updated = [], []
    tandem, adam_step = engines.tandem_loss_and_grads, neural.adam_step

    def spy_adam(params, grads, state):
        updated.append(params)
        return adam_step(params, grads, state)

    def spy_tandem(ide_mlp, fse_mlp, qcfg, x, y, ide_scratch, fse_scratch):
        master = updated[-1] if updated else start.params
        assert ide_mlp.params.dtype == fse_mlp.params.dtype == np.float32
        assert ide_mlp.params.tobytes() == master.astype(np.float32).tobytes()
        assert fse_mlp.params.tobytes() == fse.mlp.params.astype(np.float32).tobytes()
        surrogates.append(fse_mlp)
        return tandem(ide_mlp, fse_mlp, qcfg, x, y, ide_scratch, fse_scratch)

    monkeypatch.setattr(neural, "adam_step", spy_adam)
    monkeypatch.setattr(engines, "tandem_loss_and_grads", spy_tandem)
    targets = dataio.generate_targets(40, seed=2)
    ide, _ = train_ide(fse, targets.subset(np.arange(32)), targets.subset(np.arange(32, 40)),
                       epochs=2, learning_rate=1e-3, batch_size=16, seed=3)
    # 2 steps an epoch on one surrogate copy, made once per run; the masters stay float64
    assert len(surrogates) == len(updated) == 2 * 2
    assert all(s is surrogates[0] for s in surrogates)
    assert all(p is ide.mlp.params for p in updated)
    assert ide.mlp.params.dtype == fse.mlp.params.dtype == np.float64


def test_design_batch_contract(tiny_tandem):
    _, _, ide, _, _ = tiny_tandem
    a = design_batch(ide, [0.1, 0.2, 0.3])
    b = design_batch(ide, [0.1, 0.2, 0.3])
    assert np.array_equal(a, b)
    assert a.shape == (1, 20)
    assert a.dtype.kind == "i"
    assert np.all((a >= 0) & (a < 8))

    with pytest.warns(UserWarning, match="outside trained range"):
        design_batch(ide, [[0.1, 0.2, 0.3], [0.9, 0.0, 0.0]])
    with pytest.raises(ValueError, match="non-finite"):
        design_batch(ide, [[0.1, 0.2, 0.3], [np.nan, 0.0, 0.0]])


def test_design_batch_matches_single(tiny_tandem):
    _, _, ide, _, targets = tiny_tandem
    batch = design_batch(ide, targets.targets[:4])
    for i in range(4):
        assert np.array_equal(batch[i], design_batch(ide, targets.targets[i])[0])


def test_closed_loop_eval_shapes_and_noise_seeds(tiny_tandem):
    scene, fse, ide, _, targets = tiny_tandem
    sub = targets.subset(np.arange(10))
    res = closed_loop_eval(ide, fse, scene, sub)
    assert res.table.shape == (10, 9)
    assert res.mse_measured.shape == (3,)
    assert np.all(res.mse_measured >= 0.0)
    assert np.array_equal(res.table[:, :3], sub.targets)
    noisy = default_scene()  # noise_sigma 0.01
    res_noisy = closed_loop_eval(ide, fse, noisy, sub, noise_seed=123)
    assert np.array_equal(res_noisy.profiles, res.profiles)
    for i, profile in enumerate(res.profiles):
        assert np.array_equal(res.table[i, 6:], simulate(scene, profile, fse.i_max))
        expected = simulate(noisy, profile, fse.i_max, noise_seed=dataio.derive_seed(123, i))
        assert np.array_equal(res_noisy.table[i, 6:], expected)
    assert not np.array_equal(res_noisy.table[:, 6:], res.table[:, 6:])


def test_closed_loop_eval_rejects_empty_targets(tiny_tandem):
    scene, fse, ide, _, _ = tiny_tandem
    with pytest.raises(ValueError):
        dataio.TargetDataset(targets=np.empty((0, 3)))
    empty = dataio.generate_targets(1, seed=0)
    empty.targets = np.empty((0, 3))  # bypass constructor validation
    with pytest.raises(ValueError, match="empty"):
        closed_loop_eval(ide, fse, scene, empty)


def test_soft_hard_gap_is_finite(tiny_tandem):
    scene, fse, ide, _, targets = tiny_tandem
    gap = soft_hard_gap_rms(ide, fse, closed_loop_eval(ide, fse, scene, targets))
    assert np.isfinite(gap) and gap >= 0.0
    # the formula that ran its own hard pass
    pred_soft = tandem_forward(ide.mlp, fse.mlp, ide.quantizer, targets.targets)
    pred_hard = fse_predict(fse, design_batch(ide, targets.targets))
    assert gap == float(np.sqrt(np.mean((pred_soft - pred_hard) ** 2)))


@pytest.fixture(scope="module")
def untrained_models():
    fse = FseModel(mlp=neural.init_mlp(fse_layer_dims(), seed=41), column_count=20, i_max=1.0)
    ide = IdeModel(mlp=neural.init_mlp(ide_layer_dims(), seed=42), fse_digest="")
    return ide, fse


@pytest.mark.parametrize("rows", [500, 1000, 1001, 2100, 3000, 4500])
def test_chunked_inference_is_bit_identical_to_one_pass(untrained_models, rows):
    ide, fse = untrained_models
    qcfg = QuantizerConfig(temperature=10.0)
    rng = np.random.default_rng(rows)
    targets = rng.uniform(0.0, 0.6, size=(rows, 3))
    profiles = rng.integers(0, 8, size=(rows, 20))
    raw = neural.forward(ide.mlp, targets)
    designed = quantize_hard(np.mod(raw, 360.0))
    assert np.array_equal(design_batch(ide, targets), designed)
    assert np.array_equal(fse_predict(fse, profiles),
                          neural.forward(fse.mlp, profile_encoding(profiles)))
    soft, _ = quantize_soft_with_grad(raw, qcfg)
    assert np.array_equal(tandem_forward(ide.mlp, fse.mlp, qcfg, targets),
                          neural.forward(fse.mlp, encode_phases(soft)))


def test_chunked_noisy_closed_loop_eval_is_bit_identical_to_replay(untrained_models):
    ide, fse = untrained_models
    scene = default_scene()  # noise_sigma 0.01
    targets = dataio.generate_targets(2100, seed=43)
    res = closed_loop_eval(ide, fse, scene, targets, noise_seed=44)
    raw = neural.forward(ide.mlp, targets.targets)
    designed = quantize_hard(np.mod(raw, 360.0))
    assert np.array_equal(res.profiles, designed)
    assert np.array_equal(res.table[:, 3:6], neural.forward(fse.mlp, profile_encoding(designed)))
    soft, _ = quantize_soft_with_grad(raw, ide.quantizer)
    pred_soft = neural.forward(fse.mlp, encode_phases(soft))
    assert soft_hard_gap_rms(ide, fse, res) == float(
        np.sqrt(np.mean((pred_soft - res.table[:, 3:6]) ** 2)))
    # the last chunk overlaps the one before from row 1,100; its kept rows start at 2,000
    rows = [0, 999, 1000, 1099, 1100, 1999, 2000, 2099]
    rows += np.random.default_rng(45).choice(2100, 8, replace=False).tolist()
    for i in rows:
        expected = simulate(scene, res.profiles[i], fse.i_max,
                            noise_seed=dataio.derive_seed(44, i))
        assert np.array_equal(res.table[i, 6:], expected)


def test_design_batch_warns_once_over_chunks(untrained_models):
    ide, _ = untrained_models
    targets = np.random.default_rng(46).uniform(0.0, 0.6, size=(2100, 3))
    targets[[5, 1500, 2090]] = 0.9  # out of range in every chunk
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        design_batch(ide, targets)
    assert [str(w.message) for w in caught] == ["targets outside trained range [0.0, 0.6]"]


# ---------------------------------------------------------------------------
# model bundle files
# ---------------------------------------------------------------------------

def test_fse_file_round_trip(tmp_path, tiny_tandem):
    _, fse, _, _, _ = tiny_tandem
    path = tmp_path / "fse.json"
    save_fse(fse, path)
    loaded = load_fse(path)
    assert loaded.digest() == fse.digest()
    assert loaded.i_max == fse.i_max
    assert loaded.column_count == fse.column_count
    assert loaded.scene_digest == fse.scene_digest


def test_ide_file_round_trip(tmp_path, tiny_tandem):
    _, _, ide, _, _ = tiny_tandem
    path = tmp_path / "ide.json"
    save_ide(ide, path)
    loaded = load_ide(path)
    assert neural.param_digest(loaded.mlp) == neural.param_digest(ide.mlp)
    assert loaded.fse_digest == ide.fse_digest
    assert loaded.quantizer == ide.quantizer
    assert (loaded.target_low, loaded.target_high) == (ide.target_low, ide.target_high)


def test_model_files_reject_kind_mixups(tmp_path, tiny_tandem):
    _, fse, ide, _, _ = tiny_tandem
    save_fse(fse, tmp_path / "fse.json")
    save_ide(ide, tmp_path / "ide.json")
    with pytest.raises(ValueError, match="not a"):
        load_ide(tmp_path / "fse.json")
    with pytest.raises(ValueError, match="not a"):
        load_fse(tmp_path / "ide.json")


def _nan_first_weight(doc):
    doc["weights"][0][0][0] = float("nan")
    return doc


def _without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


def _with_provenance(**changes):
    return lambda d: {**d, "provenance": {**d["provenance"], **changes}}


def _with_quantizer(**changes):
    return lambda d: {**d, "provenance": {
        **d["provenance"], "quantizer": {**d["provenance"]["quantizer"], **changes}}}


MALFORMED_MODEL_FILES = {
    "no-layer-dims": ("fse", lambda d: _without(d, "layer_dims")),
    "top-level-list": ("fse", lambda d: [d]),
    "null-layer-dims": ("fse", lambda d: {**d, "layer_dims": None}),
    "string-layer-dims": ("fse", lambda d: {**d, "layer_dims": "432"}),
    "fractional-layer-dims": ("fse", lambda d: {**d, "layer_dims": [4.7, 3, 2]}),
    "missing-layer": ("fse", lambda d: {**d, "weights": d["weights"][:1], "biases": d["biases"][:1]}),
    "nan-weight": ("fse", _nan_first_weight),
    "transposed-layer": ("fse", lambda d: {
        **d, "weights": [np.array(d["weights"][0]).T.tolist(), *d["weights"][1:]]}),
    "provenance-list": ("fse", lambda d: {**d, "provenance": [1]}),
    "no-column-count": ("fse", lambda d: {**d, "provenance": _without(d["provenance"], "column_count")}),
    "quantizer-list": ("ide", lambda d: {
        **d, "provenance": {**d["provenance"], "quantizer": [8, 45.0, 10.0]}}),
    # the phase grid is the scene's: any other grid is refused, not replayed
    "grid-16x22.5": ("ide", _with_quantizer(state_count=16, step_degrees=22.5)),
    "grid-4x90": ("ide", _with_quantizer(state_count=4, step_degrees=90.0)),
    "no-quantizer": ("ide", lambda d: {**d, "provenance": _without(d["provenance"], "quantizer")}),
    # every provenance field is required, with its exact JSON type
    "string-i-max": ("fse", _with_provenance(i_max="inf")),
    "zero-i-max": ("fse", _with_provenance(i_max=0.0)),
    "infinite-temperature": ("ide", _with_quantizer(temperature=float("inf"))),
    "string-column-count": ("fse", _with_provenance(column_count="20")),
    "bool-column-count": ("ide", _with_provenance(column_count=True)),
    # the column count must match the network: 2 inputs per column, 1 output per column
    "fse-column-count-off-input-width": ("fse", _with_provenance(column_count=19)),
    "ide-column-count-off-output-width": ("ide", _with_provenance(column_count=7)),
    "huge-column-count": ("fse", _with_provenance(column_count=10 ** 9)),
    "string-nan-target-low": ("ide", _with_provenance(target_low="nan")),
    "inverted-target-bounds": ("ide", _with_provenance(target_low=0.6, target_high=0.0)),
    "negative-seed": ("fse", _with_provenance(seed=-1)),
    "fractional-seed": ("ide", _with_provenance(seed=2.5)),
    "numeric-scene-digest": ("fse", _with_provenance(scene_digest=5)),
    "no-dataset-digest": ("fse", lambda d: {
        **d, "provenance": _without(d["provenance"], "dataset_digest")}),
    "null-fse-digest": ("ide", _with_provenance(fse_digest=None)),
}


def test_save_ide_writes_the_scene_grid(tmp_path):
    path = tmp_path / "ide.json"
    save_ide(IdeModel(mlp=neural.init_mlp([2, 3, 2], seed=1), fse_digest="",
                      quantizer=QuantizerConfig(temperature=0.3), column_count=2), path)
    quantizer = json.loads(path.read_text())["provenance"]["quantizer"]
    assert json.dumps(quantizer) == '{"state_count": 8, "step_degrees": 45.0, "temperature": 0.3}'


@pytest.mark.parametrize("case", MALFORMED_MODEL_FILES)
def test_malformed_model_files_are_value_errors(tmp_path, case):
    kind, mutate = MALFORMED_MODEL_FILES[case]
    fse = FseModel(mlp=neural.init_mlp([4, 3, 2], seed=0), column_count=2, i_max=1.0)
    path = tmp_path / f"{kind}.json"
    if kind == "fse":
        save_fse(fse, path)
    else:
        save_ide(IdeModel(mlp=neural.init_mlp([2, 3, 2], seed=1), fse_digest=fse.digest(),
                          column_count=2), path)
    path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
    with pytest.raises(ValueError):
        (load_fse if kind == "fse" else load_ide)(path)
