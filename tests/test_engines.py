"""Forward surrogate, tandem gradients, inference, and closed-loop scoring."""

import json

import numpy as np
import pytest

from rispa import dataio, neural
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
    save_fse,
    save_ide,
    soft_hard_gap_rms,
    tandem_forward,
    tandem_loss_and_grads,
    train_fse,
    train_ide,
)
from rispa.quantizer import QuantizerConfig, ide_output_to_angles, quantize_soft_with_grad
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


def _reference_tandem(ide, fse, qcfg, x, y):
    """The tandem step composed from public pieces: tape-less backward, sin/cos encode backward."""
    raw = neural.forward(ide, x)
    soft, soft_grad = quantize_soft_with_grad(ide_output_to_angles(raw), qcfg)
    encoded = encode_phases(soft)
    pred = neural.forward(fse, encoded)
    g_encoded = neural.backward(fse, encoded, neural.mse_grad(pred, y)).inputs
    rad = np.radians(soft)
    g_soft = (-np.sin(rad) * g_encoded[..., 0::2] + np.cos(rad) * g_encoded[..., 1::2])
    g_soft = g_soft * (np.pi / 180.0)
    g_ide = neural.backward(ide, x, g_soft * soft_grad)
    return neural.mse(pred, y), g_ide.params


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
    with pytest.raises(ValueError, match="20 states"):
        fse_predict(model, np.zeros(19, dtype=int))


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
    _, fse, ide, _, targets = tiny_tandem
    gap = soft_hard_gap_rms(ide, fse, targets)
    assert np.isfinite(gap) and gap >= 0.0


def test_mismatched_surrogate_warns(tiny_tandem):
    scene, fse, ide, _, targets = tiny_tandem
    other = FseModel(mlp=neural.init_mlp([40, 100, 100, 3], seed=99),
                     column_count=20, i_max=fse.i_max)
    with pytest.warns(UserWarning, match="different surrogate"):
        closed_loop_eval(ide, other, scene, targets.subset(np.arange(3)))


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
