"""Batched seeding: golden values against numpy's SeedSequence and the per-row measurement."""

import numpy as np
import pytest

from rispa import dataio, engines
from rispa import scene as sc
from rispa.neural import init_mlp
from rispa.seeding import seed_states

EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**100]


def _reference_seed(*entropy) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1, np.uint64)[0])


def _per_row_measure(scene, profiles, noise_seeds=None):
    """``measure`` as it was before batching: one ``default_rng`` per noisy row."""
    t = sc.transfer_matrix(scene)
    out = np.empty((len(profiles), scene.probe_count))
    for i, profile in enumerate(profiles):
        intensities = np.abs(t @ sc.column_weights(scene, profile)) ** 2
        if noise_seeds is not None:
            rng = np.random.default_rng(noise_seeds[i])
            intensities = intensities * (1.0 + scene.noise_sigma * rng.standard_normal(scene.probe_count))
            intensities = np.maximum(intensities, 0.0)
        out[i] = intensities
    return out


@pytest.mark.parametrize("master", EDGES)
def test_derive_seed_scalar_matches_seed_sequence(master):
    assert dataio.derive_seed(master) == _reference_seed(master)
    for key in EDGES:
        assert dataio.derive_seed(master, key) == _reference_seed(master, key)
        assert dataio.derive_seed(master, 7001, key) == _reference_seed(master, 7001, key)
        assert dataio.derive_seed(master, key, 2**65, key) == _reference_seed(master, key, 2**65, key)
    assert type(dataio.derive_seed(master, 3)) is int


@pytest.mark.parametrize("master", EDGES)
def test_derive_seed_array_matches_seed_sequence(master):
    draws = np.random.default_rng(master % 2**32).integers(0, 2**64, size=64, dtype=np.uint64)
    for keys in (np.arange(40), draws, np.array(EDGES, dtype=object)):
        for prefix in ((), (7001,), (2**64, 5)):
            got = dataio.derive_seed(master, *prefix, keys)
            assert got.dtype == np.uint64 and got.shape == (len(keys),)
            expected = [_reference_seed(master, *prefix, int(k)) for k in keys]
            assert got.tolist() == expected


def test_seed_states_match_generate_state_for_random_entropy():
    rng = np.random.default_rng(11)
    for _ in range(20):
        prefix = [int(v) for v in rng.integers(0, 2**63, size=rng.integers(0, 6))]
        last = rng.integers(0, 2**63, size=5)
        for n_words in (1, 4):
            got = seed_states(prefix, last, n_words)
            for row, v in zip(got, last):
                ss = np.random.SeedSequence([*prefix, int(v)])
                assert np.array_equal(row, ss.generate_state(n_words, np.uint64))


def test_negative_seeds_raise_value_error():
    with pytest.raises(ValueError):
        dataio.derive_seed(-1, 3)
    with pytest.raises(ValueError):
        dataio.derive_seed(3, -1)
    with pytest.raises(ValueError):
        dataio.derive_seed(3, np.array([0, -1, 2]))
    with pytest.raises(ValueError):
        sc.simulate_raw(sc.default_scene(), np.zeros(20, dtype=int), noise_seed=-5)


@pytest.mark.parametrize("seed", [0, 1, 77, 2**40, 2**70])
def test_noisy_collect_matches_per_row_measure(seed):
    scene = sc.default_scene(with_obstacle=True)
    ds = dataio.collect(scene, count=300, seed=seed)
    profiles = np.random.default_rng(seed).integers(0, sc.STATE_COUNT, size=(300, scene.column_count))
    noise_seeds = [_reference_seed(seed, 7001, i) for i in range(300)]
    assert np.array_equal(ds.profiles, profiles)
    assert np.array_equal(ds.raw, _per_row_measure(scene, profiles, noise_seeds))


def test_noisy_closed_loop_eval_matches_per_row_measure():
    scene = sc.default_scene(with_obstacle=True)
    fse = engines.FseModel(mlp=init_mlp(engines.fse_layer_dims(), seed=1), column_count=20, i_max=0.05)
    ide = engines.IdeModel(mlp=init_mlp(engines.ide_layer_dims(), seed=2), fse_digest=fse.digest())
    targets = dataio.generate_targets(200, seed=3)
    result = engines.closed_loop_eval(ide, fse, scene, targets, noise_seed=2**64 + 9)
    noise_seeds = [_reference_seed(2**64 + 9, i) for i in range(200)]
    expected = _per_row_measure(scene, result.profiles, noise_seeds) / fse.i_max
    assert np.array_equal(result.table[:, 6:], expected)


def test_simulate_raw_matches_per_row_measure_for_wide_noise_seeds():
    scene = sc.default_scene(with_obstacle=True)
    profiles = np.random.default_rng(5).integers(0, sc.STATE_COUNT, size=(len(EDGES) + 2, 20))
    for profile, noise_seed in zip(profiles, EDGES + [2**200 + 3, 3**90]):
        expected = _per_row_measure(scene, profile[None], [noise_seed])[0]
        assert np.array_equal(sc.simulate_raw(scene, profile, noise_seed=noise_seed), expected)


def test_measure_needs_one_noise_seed_per_profile():
    scene = sc.default_scene()
    profiles = np.zeros((3, 20), dtype=int)
    for seeds in ([1, 2], [1, 2, 3, 4]):
        with pytest.raises(ValueError, match="one noise seed per profile"):
            sc.measure(scene, profiles, seeds)
