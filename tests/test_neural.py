"""Network core: forward/backward correctness, Adam, and the training loop."""

import contextlib
import hashlib
import json
import math
import platform
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rispa import neural as nn


def finite_diff_param_grads(mlp, x, y, h):
    """Central finite differences of batch-mean MSE over every parameter, flat."""
    def loss():
        return nn.mse(nn.forward(mlp, x), y)

    arr = mlp.params
    g = np.zeros_like(arr)
    for idx in range(arr.size):
        old = arr[idx]
        arr[idx] = old + h
        up = loss()
        arr[idx] = old - h
        dn = loss()
        arr[idx] = old
        g[idx] = (up - dn) / (2 * h)
    return g


def rel_err(a, b, floor=1e-8):
    return np.abs(a - b) / np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))


# ---------------------------------------------------------------------------
# init / elu / forward
# ---------------------------------------------------------------------------

def test_init_shapes_and_zero_biases():
    mlp = nn.init_mlp([40, 100, 100, 3], seed=0)
    assert [w.shape for w in mlp.weights] == [(100, 40), (100, 100), (3, 100)]
    assert all(np.all(b == 0.0) for b in mlp.biases)
    limit = math.sqrt(6.0 / (40 + 100))
    assert np.abs(mlp.weights[0]).max() <= limit


def test_init_is_seeded():
    a = nn.init_mlp([4, 5, 2], seed=3)
    b = nn.init_mlp([4, 5, 2], seed=3)
    c = nn.init_mlp([4, 5, 2], seed=4)
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    assert not all(np.array_equal(x, y) for x, y in zip(a.weights, c.weights))


@pytest.mark.parametrize("dims", [[3], [0, 2], [4, -1, 2]])
def test_init_rejects_bad_dims(dims):
    with pytest.raises(ValueError):
        nn.init_mlp(dims, seed=0)


def test_elu_values():
    assert nn.elu(0.0) == 0.0
    assert nn.elu(-1.0) == pytest.approx(1.0 / math.e - 1.0)
    assert nn.elu(2.5) == 2.5
    assert nn.elu_grad(1.0) == 1.0
    assert nn.elu_grad(-2.0) == pytest.approx(math.exp(-2.0))


def _select_elu(x):
    """The select form elu/elu_grad replaced; kept here as their reference."""
    with np.errstate(over="ignore"):
        return np.where(x >= 0.0, x, np.expm1(x)), np.where(x >= 0.0, 1.0, np.exp(x))


_ELU_EDGES = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308,
                       -2.2e-308, 1e-300, -1e-300, 1e300, -1e300, 709.8, -745.2, 1.0, -1.0])


@pytest.mark.parametrize("scale", [1e-310, 1e-8, 1.0, 30.0, 1e3, 1e300])
def test_branch_free_elu_matches_select_form(scale):
    x = np.random.default_rng(41).standard_normal((256, 100)) * scale
    x.flat[:_ELU_EDGES.size] = _ELU_EDGES
    want_value, want_grad = _select_elu(x)
    assert np.array_equal(nn.elu(x), want_value, equal_nan=True)
    assert np.array_equal(nn.elu_grad(x), want_grad, equal_nan=True)


@pytest.mark.parametrize("x", [-3.5, -0.0, 0.0, 2.0, np.float64(-1e-300), np.array(-0.25)])
def test_branch_free_elu_scalars_and_0d(x):
    want_value, want_grad = _select_elu(np.asarray(x, dtype=float))
    assert np.shape(nn.elu(x)) == () and np.shape(nn.elu_grad(x)) == ()
    assert nn.elu(x) == want_value and nn.elu_grad(x) == want_grad


def test_forward_zero_parameters_gives_zero():
    mlp = nn.init_mlp([4, 6, 3], seed=0)
    for w in mlp.weights:
        w[:] = 0.0
    assert np.all(nn.forward(mlp, np.ones(4)) == 0.0)


def test_forward_single_affine_layer():
    mlp = nn.Mlp(layer_dims=[2, 1], params=np.array([1.0, 2.0, 0.5]))
    assert nn.forward(mlp, np.array([3.0, 4.0]))[0] == pytest.approx(11.5)


def test_forward_matches_straight_line_oracle():
    mlp = nn.init_mlp([5, 7, 6, 2], seed=11)
    rng = np.random.default_rng(12)
    xs = rng.normal(size=(4, 5))
    got = nn.forward(mlp, xs)
    for r, x in enumerate(xs):
        h = list(x)
        for layer in range(3):
            w, b = mlp.weights[layer], mlp.biases[layer]
            z = [sum(w[o][i] * h[i] for i in range(len(h))) + b[o] for o in range(len(b))]
            if layer < 2:
                h = [v if v >= 0 else math.exp(v) - 1.0 for v in z]
            else:
                h = z
        assert got[r] == pytest.approx(h, rel=1e-12)


def test_forward_rejects_wrong_dim():
    mlp = nn.init_mlp([4, 3], seed=0)
    with pytest.raises(ValueError, match="dim"):
        nn.forward(mlp, np.ones(5))


# ---------------------------------------------------------------------------
# mse
# ---------------------------------------------------------------------------

def test_mse_basics():
    assert nn.mse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert nn.mse([1.0, 0.0, 0.0], [0.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError):
        nn.mse([1.0], [1.0, 2.0])


def test_mse_grad_matches_finite_differences():
    rng = np.random.default_rng(2)
    a = rng.normal(size=6)
    b = rng.normal(size=6)
    g = nn.mse_grad(a, b)
    h = 1e-6
    for i in range(6):
        ap = a.copy(); ap[i] += h
        am = a.copy(); am[i] -= h
        fd = (nn.mse(ap, b) - nn.mse(am, b)) / (2 * h)
        assert rel_err(g[i], fd) < 1e-6


@pytest.mark.parametrize("shape", [(3,), (7, 3), (128, 3), (1, 20), (1000, 3)])
def test_mse_and_grad_is_bit_identical_to_plain_expressions(shape):
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=shape), rng.normal(size=shape)
    scratch = {}
    loss, grad = nn.mse_and_grad(a, b, scratch)
    assert loss == float(np.mean((a - b) ** 2)) == nn.mse(a, b)
    assert grad.tobytes() == (2.0 * (a - b) / a.size).tobytes() == nn.mse_grad(a, b).tobytes()
    assert np.shares_memory(grad, scratch["d"])
    # a float32 prediction (a float32 step's) gives the bits of its upcast, in the float64 buffer
    a32 = a.astype(np.float32)
    loss32, grad32 = nn.mse_and_grad(a32, b, scratch)
    assert grad32.dtype == np.float64 and np.shares_memory(grad32, scratch["d"])
    assert loss32 == float(np.mean((a32.astype(float) - b) ** 2))
    assert grad32.tobytes() == (2.0 * (a32.astype(float) - b) / a.size).tobytes()
    with pytest.raises(ValueError, match="shape mismatch"):
        nn.mse_and_grad(a, b[..., :-1])


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_zero_grad_output_gives_zero_grads():
    mlp = nn.init_mlp([4, 5, 3], seed=1)
    g = nn.backward(mlp, np.ones(4), np.zeros(3))
    assert np.all(g.params == 0.0)
    assert np.all(g.inputs == 0.0)


def test_backward_matches_finite_differences():
    mlp = nn.init_mlp([4, 5, 3], seed=9)
    rng = np.random.default_rng(10)
    x = rng.normal(size=4)
    y = rng.normal(size=3)
    pred = nn.forward(mlp, x)
    g = nn.backward(mlp, x, nn.mse_grad(pred, y))
    fd = finite_diff_param_grads(mlp, x, y, h=1e-5)
    assert rel_err(g.params, fd, floor=1e-7).max() < 1e-4


def test_backward_input_gradient_matches_finite_differences():
    mlp = nn.init_mlp([4, 5, 3], seed=9)
    rng = np.random.default_rng(13)
    x = rng.normal(size=4)
    y = rng.normal(size=3)
    g = nn.backward(mlp, x, nn.mse_grad(nn.forward(mlp, x), y))
    h = 1e-5
    for i in range(4):
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        fd = (nn.mse(nn.forward(mlp, xp), y) - nn.mse(nn.forward(mlp, xm), y)) / (2 * h)
        assert rel_err(g.inputs[i], fd, floor=1e-7) < 1e-4


def test_gradient_correctness_over_100_random_nets():
    # random layouts up to [10, 8, 8, 3]; every parameter and input gradient
    # against central finite differences
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        depth = int(rng.integers(1, 3))
        dims = [int(rng.integers(2, 11))]
        dims += [int(rng.integers(2, 9)) for _ in range(depth)]
        dims += [int(rng.integers(1, 4))]
        mlp = nn.init_mlp(dims, seed=int(rng.integers(1 << 30)))
        x = rng.normal(size=dims[0])
        y = rng.normal(size=dims[-1])
        g = nn.backward(mlp, x, nn.mse_grad(nn.forward(mlp, x), y))
        fd = finite_diff_param_grads(mlp, x, y, h=1e-5)
        worst = max(worst, rel_err(g.params, fd, floor=1e-6).max())
    assert worst < 1e-4


@pytest.mark.parametrize("shape", [(4,), (7, 4)])
def test_backward_on_the_forward_scratch_is_bit_identical(shape):
    mlp = nn.init_mlp([4, 6, 5, 3], seed=21)
    rng = np.random.default_rng(22)
    x = rng.normal(size=shape)
    gout = rng.normal(size=shape[:-1] + (3,))
    reference = nn.backward(mlp, x, gout)  # runs its own forward pass
    scratch = {}
    for wrt in ("both", "params", "inputs"):
        pred = nn.forward(mlp, x, scratch)  # backward overwrote the last pass's record
        assert np.array_equal(pred, nn.forward(mlp, x))
        got = nn.backward(mlp, x, gout, scratch, wrt=wrt)
        if wrt == "params":
            assert got.inputs is None
        else:
            assert np.array_equal(got.inputs, reference.inputs)
        if wrt == "inputs":
            assert got.params is None
        else:
            assert got.params.tobytes() == reference.params.tobytes()


def test_backward_rejects_an_unknown_wrt():
    mlp = nn.init_mlp([2, 3, 1], seed=0)
    with pytest.raises(ValueError, match="wrt"):
        nn.backward(mlp, np.ones(2), np.ones(1), wrt="weights")


def _plain_loss_and_grads(mlp, x, y):
    """The supervised step as plain numpy expressions with fresh arrays: the bit reference.

    The passes run in the dtype of ``mlp.params`` and ``x``; the loss and its
    gradient are float64, and the gradient is cast to that dtype for backward.
    """
    inputs, pre, h = [], [], x
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = h @ w.T + b
        inputs.append(h)
        pre.append(z)
        # nn.elu's expression, without its cast to float64
        h = np.expm1(np.minimum(z, 0.0)) + np.maximum(z, 0.0) if i < len(mlp.weights) - 1 else z
    delta, parts = (2.0 * (h - y) / h.size).astype(mlp.params.dtype), []
    for i in range(len(mlp.weights) - 1, -1, -1):
        parts = [(delta.T @ inputs[i]).ravel(), delta.sum(axis=0)] + parts
        if i > 0:
            delta = (delta @ mlp.weights[i]) * np.exp(np.minimum(pre[i - 1], 0.0))
    return float(np.mean((h - y) ** 2)), np.concatenate(parts)


def test_supervised_steps_on_one_scratch_are_bit_identical_to_reference():
    mlp = nn.init_mlp([40, 100, 100, 3], seed=23)  # the desk FSE's layout
    rng = np.random.default_rng(24)
    scratch = {}
    state = nn.init_adam(mlp.params, learning_rate=1e-2)
    ref_params, ref_state = mlp.params.copy(), nn.init_adam(mlp.params, learning_rate=1e-2)
    buffers = None
    for rows in (256, 256, 94, 256):
        x = rng.uniform(-1.0, 1.0, size=(rows, 40))
        y = rng.uniform(0.0, 1.0, size=(rows, 3))
        for buf in scratch.values():
            buf.fill(np.nan)  # a value left over from an earlier step would show
        loss, grads = nn._supervised_loss_and_grads(mlp, x, y, scratch=scratch)
        ref_loss, ref_grads = _plain_loss_and_grads(mlp, x, y)
        assert loss == ref_loss
        assert np.array_equal(grads, ref_grads)
        assert np.array_equal(nn._supervised_loss_and_grads(mlp, x, y)[1], ref_grads)
        assert np.shares_memory(grads, scratch["grad"])
        # the first batch sizes the buffers; the short batch uses their leading rows
        buffers = buffers or dict(scratch)
        assert scratch.keys() == buffers.keys()
        assert all(scratch[k] is v for k, v in buffers.items())
        # Adam consumes the gradient in the scratch before the next step writes over it
        params, state = nn.adam_step(mlp.params, grads, state)
        ref_params, ref_state = nn.adam_step(ref_params, ref_grads, ref_state)
        assert params is mlp.params
        assert np.array_equal(mlp.params, ref_params)


# 3 warm-up steps, then the minor page faults of 40 desk-shape surrogate steps on one
# scratch, a short last batch among them, in a fresh process that keeps glibc's defaults
_SUPERVISED_STEP_FAULTS = """
import resource
import numpy as np
from rispa import engines, neural
mlp = neural.init_mlp(engines.fse_layer_dims(), seed=0)
rng = np.random.default_rng(1)
x = rng.uniform(-1.0, 1.0, size=(128, 40))
y = rng.uniform(0.0, 1.0, size=(128, 3))
state = neural.init_adam(mlp.params, 1e-3)
scratch = {}
for step in range(43):
    if step == 3:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    rows = 84 if step % 10 == 9 else 128
    _, grads = neural._supervised_loss_and_grads(mlp, x[:rows], y[:rows], scratch=scratch)
    neural.adam_step(mlp.params, grads, state)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_supervised_steps_take_no_page_faults():
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the faults come from glibc returning freed memory to the kernel")
    proc = subprocess.run([sys.executable, "-c", _SUPERVISED_STEP_FAULTS],
                          capture_output=True, text=True, check=True)
    assert int(proc.stdout) < 100


def _replaced(text, *pairs):
    for old, new in pairs:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    return text


# the steps as neural.train runs them on float32 inputs: a float32 copy of the network takes
# the step, and after Adam updates the float64 master the copy is refreshed from it
_FLOAT32_STEPS = (
    ("state = ", "steps = neural.Mlp(mlp.layer_dims, mlp.params.astype(np.float32))\nstate = "),
    ("(mlp, x[:rows]", "(steps, x[:rows]"),
    ("neural.adam_step(mlp.params, grads, state)\n",
     "neural.adam_step(mlp.params, grads, state)\n"
     "    np.copyto(steps.params, mlp.params, casting='same_kind')\n"),
)


def test_float32_supervised_steps_take_no_page_faults():
    # the steps as train_fse runs them: a float32 batch of inputs, float64 targets
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the faults come from glibc returning freed memory to the kernel")
    script = _replaced(_SUPERVISED_STEP_FAULTS, *_FLOAT32_STEPS,
                       ("size=(128, 40))", "size=(128, 40)).astype(np.float32)"))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True)
    assert int(proc.stdout) < 100


# the minor page faults of one surrogate train run of sys.argv[1] epochs, validated on
# 900 rows (the paper's 9% of 10,000), in a fresh process that keeps glibc's defaults
_SUPERVISED_VALIDATION_FAULTS = """
import resource, sys
import numpy as np
from rispa import engines, neural
mlp = neural.init_mlp(engines.fse_layer_dims(), seed=0)
rng = np.random.default_rng(1)
train_pairs = rng.uniform(-1.0, 1.0, size=(256, 40)), rng.uniform(0.0, 1.0, size=(256, 3))
val_pairs = rng.uniform(-1.0, 1.0, size=(900, 40)), rng.uniform(0.0, 1.0, size=(900, 3))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
neural.train(mlp, train_pairs, val_pairs, epochs=int(sys.argv[1]), batch_size=128,
             learning_rate=1e-3, seed=2)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_supervised_validation_takes_no_page_faults():
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the faults come from glibc returning freed memory to the kernel")
    faults = [int(subprocess.run([sys.executable, "-c", _SUPERVISED_VALIDATION_FAULTS, str(epochs)],
                                 capture_output=True, text=True, check=True).stdout)
              for epochs in (2, 12)]
    assert (faults[1] - faults[0]) / 10 < 100, faults


def test_backward_batched_equals_sum_of_singles():
    mlp = nn.init_mlp([3, 4, 2], seed=5)
    rng = np.random.default_rng(6)
    xs = rng.normal(size=(3, 3))
    gout = rng.normal(size=(3, 2))
    batched = nn.backward(mlp, xs, gout)
    singles = [nn.backward(mlp, xs[i], gout[i]) for i in range(3)]
    assert np.allclose(batched.params, sum(s.params for s in singles), atol=1e-12)
    assert np.allclose(batched.inputs, np.vstack([s.inputs for s in singles]), atol=1e-12)


# float32's unit roundoff. A float32 dot product of length n is within
# gamma_n = n u / (1 - n u) of the exact one, relative to its sum of absolute
# products (Higham, Accuracy and Stability of Numerical Algorithms, Thm 3.5).
# Casting the input and the weights and adding the bias round twice more per
# layer. To first order these errors add along the pass: forward has dot
# products of length fan_in, backward of length fan_out, and the parameter
# gradient sums over the batch rows. So the tolerance on a pass's error,
# relative to its largest float64 value, is that count of roundings times u.
U32 = 2.0 ** -24


def _float32_tolerance(dims, rows):
    count = sum(fan_in + fan_out + 4 for fan_in, fan_out in zip(dims[:-1], dims[1:])) + rows
    return count * U32 / (1.0 - count * U32)


def _relative_to_max(got, want):
    return float(np.max(np.abs(got.astype(float) - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("dims,rows", [([40, 100, 100, 3], 128), ([3, 50, 50, 20], 256),
                                       ([4, 6, 5, 3], 1)])
def test_float32_passes_match_float64_within_roundoff(dims, rows):
    mlp = nn.init_mlp(dims, seed=rows)
    mlp32 = nn.Mlp(list(dims), mlp.params.astype(np.float32))  # a training step's copy
    rng = np.random.default_rng(len(dims) + rows)
    x = rng.uniform(-1.0, 1.0, size=(rows, dims[0]))
    gout = rng.normal(size=(rows, dims[-1]))
    tol = _float32_tolerance(dims, rows)
    # the float32 network casts the float64 input itself
    out32, out64 = nn.forward(mlp32, x), nn.forward(mlp, x)
    assert out32.dtype == np.float32 and out64.dtype == np.float64
    assert _relative_to_max(out32, out64) < tol
    g32, g64 = nn.backward(mlp32, x, gout), nn.backward(mlp, x, gout)
    assert g32.params.dtype == g32.inputs.dtype == np.float32
    assert _relative_to_max(g32.params, g64.params) < tol
    assert _relative_to_max(g32.inputs, g64.inputs) < tol
    # the float32 copy holds the rounded master weights; the master is untouched
    assert mlp32.params.dtype == np.float32 and mlp.params.dtype == np.float64
    assert mlp32.params.tobytes() == mlp.params.astype(np.float32).tobytes()


@pytest.mark.parametrize("x", [np.ones((5, 4)), np.ones(4), np.ones((5, 4), dtype=int),
                               [1, 2, 3, 4]])
def test_non_float32_inputs_keep_float64_buffers_and_output(x):
    mlp = nn.init_mlp([4, 6, 5, 3], seed=1)
    scratch = {}
    out = nn.forward(mlp, x, scratch)
    grads = nn.backward(mlp, x, np.ones_like(out), scratch)
    assert out.dtype == grads.params.dtype == grads.inputs.dtype == np.float64
    assert all(buf.dtype == np.float64 for buf in scratch.values())
    assert np.array_equal(out, nn.forward(mlp, np.asarray(x, dtype=float)))


def test_float32_scratch_buffers_are_remade_in_the_pass_dtype():
    mlp = nn.init_mlp([4, 6, 5, 3], seed=1)
    networks = {np.float64: mlp, np.float32: nn.Mlp(mlp.layer_dims, mlp.params.astype(np.float32))}
    x = np.random.default_rng(2).normal(size=(7, 4))
    scratch = {}
    # one scratch serving networks of both dtypes remakes every buffer in the network's dtype;
    # the passes read the network's own weights, so the scratch holds no cast of them, only
    # backward's cast of the output gradient, "g"
    for dtype in (np.float64, np.float32, np.float64):
        net = networks[dtype]
        out = nn.forward(net, x, scratch)
        grads = nn.backward(net, x, np.ones_like(out), scratch)
        assert out.dtype == grads.params.dtype == grads.inputs.dtype == dtype
        assert {buf.dtype for buf in scratch.values()} == {np.dtype(dtype)}
        assert {k if isinstance(k, str) else k[0] for k in scratch} == {"z", "h", "up", "g",
                                                                          "grad", "gw", "gb"}


def test_float32_input_to_a_float64_network_runs_a_float64_pass():
    mlp = nn.init_mlp([4, 6, 5, 3], seed=1)
    x32 = np.random.default_rng(3).normal(size=(7, 4)).astype(np.float32)
    scratch = {}
    out = nn.forward(mlp, x32, scratch)
    grads = nn.backward(mlp, x32, np.ones_like(out), scratch)
    assert out.dtype == grads.params.dtype == grads.inputs.dtype == np.float64
    assert {buf.dtype for buf in scratch.values()} == {np.dtype(np.float64)}
    # the bits of the same pass on the exactly widened input
    x64 = x32.astype(np.float64)
    ref = nn.backward(mlp, x64, np.ones_like(out))
    assert out.tobytes() == nn.forward(mlp, x64).tobytes()
    assert grads.params.tobytes() == ref.params.tobytes()
    assert grads.inputs.tobytes() == ref.inputs.tobytes()


# ---------------------------------------------------------------------------
# adam
# ---------------------------------------------------------------------------

def test_adam_first_step_moves_by_learning_rate():
    params = np.array([1.0, -2.0])
    grads = np.array([100.0, -0.5])
    state = nn.init_adam(params, learning_rate=0.01)
    new, state = nn.adam_step(params, grads, state)
    # bias-corrected first step is -lr * sign(g) up to epsilon
    assert new[0] == pytest.approx(1.0 - 0.01, rel=1e-6)
    assert new[1] == pytest.approx(-2.0 + 0.01, rel=1e-6)
    assert state.step_count == 1


def test_adam_zero_gradient_keeps_parameters():
    params = np.array([1.0, 2.0])
    state = nn.init_adam(params, learning_rate=0.1)
    for _ in range(3):
        params, state = nn.adam_step(params, np.zeros(2), state)
    assert np.array_equal(params, [1.0, 2.0])


def test_adam_two_steps_on_quadratic_match_hand_trace():
    # f(theta) = theta^2, grad = 2 theta, from theta=1 with lr=0.1
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    theta, m, v = 1.0, 0.0, 0.0
    trace = []
    for t in (1, 2):
        g = 2.0 * theta
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta = theta - lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
        trace.append(theta)

    params = np.array([1.0])
    state = nn.init_adam(params, learning_rate=lr)
    got = []
    for _ in range(2):
        params, state = nn.adam_step(params, 2.0 * params, state)
        got.append(params[0])
    assert got == pytest.approx(trace, rel=1e-12)
    assert got[1] < got[0] < 1.0


def test_adam_rejects_non_finite_gradient():
    params = np.ones(2)
    state = nn.init_adam(params, learning_rate=0.1)
    with pytest.raises(nn.TrainingDiverged, match="diverged"):
        nn.adam_step(params, np.array([1.0, np.nan]), state)


def test_adam_updates_in_place_and_writes_nothing_on_a_non_finite_gradient():
    params = np.array([1.0, -2.0, 0.5])
    state = nn.init_adam(params, learning_rate=0.1)
    new, new_state = nn.adam_step(params, np.array([0.3, -0.1, 2.0]), state)
    assert new is params and new_state is state
    before = (params.copy(), state.first_moment.copy(), state.second_moment.copy())
    for bad in (np.nan, np.inf):
        with pytest.raises(nn.TrainingDiverged):
            nn.adam_step(params, np.array([1.0, bad, 0.0]), state)
        assert np.array_equal(params, before[0])
        assert np.array_equal(state.first_moment, before[1])
        assert np.array_equal(state.second_moment, before[2])
        assert state.step_count == 1


def _per_array_adam(params, grads, first, second, t, lr):
    """Reference: Adam applied array by array, as before the flat parameter vector."""
    b1, b2, eps = nn.ADAM_BETA1, nn.ADAM_BETA2, nn.ADAM_EPSILON
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, first, second):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        new_params.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m)
        new_v.append(v)
    return new_params, new_m, new_v


def test_flat_adam_is_bit_identical_to_per_array_reference():
    mlp = nn.init_mlp([3, 50, 50, 20], seed=41)  # the desk IDE's layout
    rng = np.random.default_rng(42)
    lr = 5e-4
    arrays = [a.copy() for pair in zip(mlp.weights, mlp.biases) for a in pair]
    first = [np.zeros_like(a) for a in arrays]
    second = [np.zeros_like(a) for a in arrays]
    flat, state = mlp.params.copy(), nn.init_adam(mlp.params, learning_rate=lr)

    def joined(parts):
        return np.concatenate([a.ravel() for a in parts])

    for t in (1, 2, 3):
        grads = [rng.normal(size=a.shape) for a in arrays]
        flat, state = nn.adam_step(flat, joined(grads), state)
        arrays, first, second = _per_array_adam(arrays, grads, first, second, t, lr)
        assert np.array_equal(flat, joined(arrays))
        assert np.array_equal(state.first_moment, joined(first))
        assert np.array_equal(state.second_moment, joined(second))
    assert state.step_count == 3


def test_float32_adam_step_is_bit_identical_to_upcast_gradients():
    mlp = nn.init_mlp([3, 50, 50, 20], seed=43)
    rng = np.random.default_rng(44)
    params32, state32 = mlp.params.copy(), nn.init_adam(mlp.params, learning_rate=2e-3)
    params64, state64 = mlp.params.copy(), nn.init_adam(mlp.params, learning_rate=2e-3)
    for scale in (1.0, 1e-3, 1e3):
        grads = (scale * rng.normal(size=mlp.params.size)).astype(np.float32)
        nn.adam_step(params32, grads, state32)
        nn.adam_step(params64, grads.astype(np.float64), state64)
        assert params32.dtype == state32.first_moment.dtype == np.float64
        assert params32.tobytes() == params64.tobytes()
        assert state32.first_moment.tobytes() == state64.first_moment.tobytes()
        assert state32.second_moment.tobytes() == state64.second_moment.tobytes()
    with pytest.raises(nn.TrainingDiverged, match="non-finite gradient"):
        nn.adam_step(params32, np.full(mlp.params.size, np.inf, dtype=np.float32), state32)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _toy_pairs(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, 3))
    y = rng.uniform(-1.0, 1.0, size=(n, 2))
    return x, y


def test_train_memorizes_small_dataset():
    x, y = _toy_pairs(10, seed=0)
    mlp = nn.init_mlp([3, 32, 32, 2], seed=1)
    report = nn.train(mlp, (x, y), (x, y), epochs=2000, batch_size=10,
                      learning_rate=3e-3, seed=2)
    assert report.train_losses[-1] < 1e-4


def test_train_zero_epochs_returns_initial_parameters():
    x, y = _toy_pairs(6, seed=3)
    mlp = nn.init_mlp([3, 4, 2], seed=4)
    report = nn.train(mlp, (x, y), (x, y), epochs=0, batch_size=4,
                      learning_rate=1e-3, seed=5)
    assert report.train_losses == [] and report.val_losses == []
    assert np.array_equal(report.model.params, mlp.params)


def _plain_train(mlp, x, y, x_val, y_val, epochs, batch_size, learning_rate, seed, step_dtype):
    """``nn.train`` as a plain loop, with steps on a ``step_dtype`` copy of the float64 master.

    The copy is made afresh from the master after each Adam update. Returns
    the training and validation losses and the master's parameters after each epoch.
    """
    model, order, n = mlp.copy(), np.random.default_rng(seed), len(x)
    state = nn.init_adam(model.params, learning_rate=learning_rate)
    steps, x_steps = nn.Mlp(model.layer_dims, model.params.astype(step_dtype)), x.astype(step_dtype)
    train_losses, val_losses, snapshots = [], [], []
    for _ in range(epochs):
        perm, sq_sum = order.permutation(n), 0.0
        for start in range(0, n, batch_size):
            idx = perm[start:start + batch_size]
            loss, grads = _plain_loss_and_grads(steps, x_steps[idx], y[idx])
            nn.adam_step(model.params, grads, state)
            steps = nn.Mlp(model.layer_dims, model.params.astype(step_dtype))
            sq_sum += loss * len(idx)
        train_losses.append(sq_sum / n)
        val_losses.append(float(np.mean((nn.forward(model, x_val) - y_val) ** 2)))
        snapshots.append(model.params.copy())
    return train_losses, val_losses, snapshots


def test_train_is_bit_identical_to_a_plain_loop():
    # the desk FSE's layout, 300 rows at batch 128: two full batches and a short one
    rng = np.random.default_rng(51)
    x, y = rng.uniform(-1.0, 1.0, size=(300, 40)), rng.uniform(0.0, 1.0, size=(300, 3))
    x_val, y_val = rng.uniform(-1.0, 1.0, size=(40, 40)), rng.uniform(0.0, 1.0, size=(40, 3))
    mlp = nn.init_mlp([40, 100, 100, 3], seed=52)
    report = nn.train(mlp, (x, y), (x_val, y_val), epochs=3, batch_size=128,
                      learning_rate=1e-2, seed=53)
    train_losses, val_losses, snapshots = _plain_train(mlp, x, y, x_val, y_val, epochs=3,
                                                       batch_size=128, learning_rate=1e-2,
                                                       seed=53, step_dtype=np.float32)
    assert report.train_losses == train_losses
    assert report.val_losses == val_losses
    assert report.best_epoch == int(np.argmin(val_losses))
    assert report.model.params.tobytes() == snapshots[report.best_epoch].tobytes()


def test_frozen_training_is_an_error():
    x, y = _toy_pairs(8, seed=19)
    mlp = nn.init_mlp([3, 4, 2], seed=20)

    def frozen(model, x, y):
        loss, grads = nn._supervised_loss_and_grads(model, x, y)
        return loss, np.zeros_like(grads)

    with pytest.raises(nn.TrainingDiverged, match="zero gradients") as exc:
        nn.train(mlp, (x, y), (x, y), epochs=2, batch_size=4,
                 learning_rate=1e-3, seed=21, loss_and_grads_fn=frozen)
    assert len(exc.value.train_losses) == 2 and len(exc.value.val_losses) == 2


def test_train_is_deterministic():
    x, y = _toy_pairs(32, seed=6)
    mlp = nn.init_mlp([3, 8, 2], seed=7)
    r1 = nn.train(mlp, (x, y), (x[:4], y[:4]), epochs=20, batch_size=8,
                  learning_rate=1e-3, seed=8)
    r2 = nn.train(mlp, (x, y), (x[:4], y[:4]), epochs=20, batch_size=8,
                  learning_rate=1e-3, seed=8)
    assert r1.train_losses == r2.train_losses
    assert r1.val_losses == r2.val_losses
    assert np.array_equal(r1.model.params, r2.model.params)


def test_float32_training_is_bit_identical_when_repeated():
    # the desk FSE's layout: float32 steps over float64 master weights
    rng = np.random.default_rng(54)
    x, y = rng.uniform(-1.0, 1.0, size=(300, 40)), rng.uniform(0.0, 1.0, size=(300, 3))
    mlp = nn.init_mlp([40, 100, 100, 3], seed=55)
    reports = [nn.train(mlp, (x.astype(np.float32), y), (x[:40], y[:40]), epochs=3,
                        batch_size=128, learning_rate=1e-2, seed=56) for _ in range(2)]
    assert reports[0].train_losses == reports[1].train_losses
    assert reports[0].val_losses == reports[1].val_losses
    assert reports[0].model.params.dtype == np.float64
    assert reports[0].model.params.tobytes() == reports[1].model.params.tobytes()
    # and it stays close to the same loop with float64 steps
    float64_losses = _plain_train(mlp, x, y, x[:40], y[:40], epochs=3, batch_size=128,
                                  learning_rate=1e-2, seed=56, step_dtype=np.float64)[0]
    assert float64_losses == pytest.approx(reports[0].train_losses, rel=1e-4)


def test_train_is_bit_identical_for_float32_and_float64_inputs():
    # train casts the inputs itself, so their dtype picks nothing
    rng = np.random.default_rng(60)
    x, y = rng.uniform(-1.0, 1.0, size=(300, 40)), rng.uniform(0.0, 1.0, size=(300, 3))
    mlp = nn.init_mlp([40, 100, 100, 3], seed=61)
    r64, r32 = (nn.train(mlp, (inputs, y), (x[:40], y[:40]), epochs=2, batch_size=128,
                         learning_rate=1e-2, seed=62) for inputs in (x, x.astype(np.float32)))
    assert r64.train_losses == r32.train_losses
    assert r64.val_losses == r32.val_losses
    assert r64.model.params.tobytes() == r32.model.params.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_training_steps_get_a_float32_copy_of_the_master_for_any_input_dtype(monkeypatch, dtype):
    # the steps get one float32 copy of the master, refreshed after each Adam update, whatever
    # the dtype of the inputs. Adam, validation and the result use the master.
    rng = np.random.default_rng(57)
    x, y = rng.uniform(-1.0, 1.0, size=(50, 3)), rng.normal(size=(50, 2))
    mlp = nn.init_mlp([3, 8, 2], seed=58)
    stepped, validated, updated = [], [], []
    adam_step = nn.adam_step

    def spy_adam(params, grads, state):
        updated.append(params)
        return adam_step(params, grads, state)

    def spy_step(model, x, y):
        master = updated[-1] if updated else mlp.params  # before the first update: the start
        assert model.params.dtype == np.float32
        assert model.params.tobytes() == master.astype(np.float32).tobytes()
        stepped.append(model)
        return nn._supervised_loss_and_grads(model, x, y)

    def spy_predict(model, x):
        validated.append(model)
        return nn.forward(model, x)

    monkeypatch.setattr(nn, "adam_step", spy_adam)
    report = nn.train(mlp, (x.astype(dtype), y), (x[:10], y[:10]), epochs=3, batch_size=16,
                      learning_rate=1e-2, seed=59, predict_fn=spy_predict,
                      loss_and_grads_fn=spy_step)
    assert len(stepped) == len(updated) == 3 * 4 and len(validated) == 3
    assert all(s is stepped[0] for s in stepped)
    assert stepped[0] is not report.model
    assert all(p is report.model.params for p in updated)
    assert all(v is report.model for v in validated)
    assert report.model.params.dtype == np.float64


def test_full_batch_epoch_independent_of_record_order():
    x, y = _toy_pairs(16, seed=9)
    perm = np.random.default_rng(10).permutation(16)
    mlp = nn.init_mlp([3, 8, 2], seed=11)
    r1 = nn.train(mlp, (x, y), (x, y), epochs=1, batch_size=16,
                  learning_rate=1e-3, seed=12)
    r2 = nn.train(mlp, (x[perm], y[perm]), (x, y), epochs=1, batch_size=16,
                  learning_rate=1e-3, seed=12)
    assert r1.train_losses[0] == pytest.approx(r2.train_losses[0], rel=1e-12)
    assert np.allclose(r1.model.params, r2.model.params, rtol=1e-12, atol=1e-14)


def test_train_returns_best_validation_snapshot():
    x, y = _toy_pairs(24, seed=13)
    mlp = nn.init_mlp([3, 16, 2], seed=14)
    report = nn.train(mlp, (x, y), (x, y), epochs=300, batch_size=24,
                      learning_rate=5e-3, seed=15)
    final_val = nn.mse(nn.forward(report.model, x), y)
    assert final_val == pytest.approx(min(report.val_losses), rel=1e-9)
    assert report.best_epoch == int(np.argmin(report.val_losses))


def test_train_rejects_empty_training_set():
    with pytest.raises(ValueError, match="empty"):
        nn.train(nn.init_mlp([2, 2], seed=0), (np.empty((0, 2)), np.empty((0, 2))),
                 (None, None), epochs=1, batch_size=4, learning_rate=1e-3, seed=0)


def test_train_rejects_empty_validation_set():
    x, y = _toy_pairs(8, seed=16)
    with pytest.raises(ValueError, match="validation set is empty"):
        nn.train(nn.init_mlp([3, 2], seed=0), (x, y), (x[:0], y[:0]),
                 epochs=1, batch_size=4, learning_rate=1e-3, seed=0)


@pytest.mark.parametrize("poison", ["loss", "gradient"])
def test_train_divergence_carries_partial_history(poison):
    x, y = _toy_pairs(8, seed=16)
    mlp = nn.init_mlp([3, 4, 2], seed=17)

    calls = {"n": 0}

    def poisoned(model, x, y):
        calls["n"] += 1
        loss, grads = nn._supervised_loss_and_grads(model, x, y)
        if calls["n"] < 3:
            return loss, grads
        if poison == "loss":
            return float("nan"), grads
        return loss, np.full_like(grads, np.nan)

    with pytest.raises(nn.TrainingDiverged) as exc:
        nn.train(mlp, (x, y), (x, y), epochs=10, batch_size=4,
                 learning_rate=1e-3, seed=18, loss_and_grads_fn=poisoned)
    assert str(exc.value).endswith(f"non-finite {poison} at epoch 1")
    # one full epoch completed
    assert len(exc.value.train_losses) == 1 and len(exc.value.val_losses) == 1


# ---------------------------------------------------------------------------
# model files and digests
# ---------------------------------------------------------------------------

def test_model_file_round_trip_is_lossless(tmp_path):
    mlp = nn.init_mlp([4, 7, 3], seed=21)
    prov = {"kind": "test", "seed": 21, "epochs": 0}
    path = tmp_path / "model.json"
    nn.save_model(mlp, path, provenance=prov)
    loaded, got_prov = nn.load_model(path)
    assert loaded.layer_dims == mlp.layer_dims
    assert got_prov == prov
    assert all(np.array_equal(a, b) for a, b in zip(loaded.weights, mlp.weights))
    assert all(np.array_equal(a, b) for a, b in zip(loaded.biases, mlp.biases))
    assert nn.param_digest(loaded) == nn.param_digest(mlp)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_model_refuses_non_finite_parameters_and_writes_nothing(tmp_path, bad):
    mlp = nn.init_mlp([4, 7, 3], seed=21)
    mlp.params[5] = bad
    path = tmp_path / "model.json"
    with pytest.raises(ValueError, match="non-finite"):
        nn.save_model(mlp, path)
    assert list(tmp_path.iterdir()) == []


def test_model_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="parse error"):
        nn.load_model(path)
    path.write_text('{"format_version": 99}')
    with pytest.raises(ValueError, match="version"):
        nn.load_model(path)


def test_param_digest_tracks_changes():
    mlp = nn.init_mlp([3, 4, 2], seed=30)
    before = nn.param_digest(mlp)
    mlp.weights[0][0, 0] += 1e-15
    assert nn.param_digest(mlp) != before


# ---------------------------------------------------------------------------
# flat layout and model loader
# ---------------------------------------------------------------------------

def test_param_digest_golden_values():
    # recorded with the per-array layout; the flat vector must hash the same bytes
    assert nn.param_digest(nn.init_mlp([40, 100, 100, 3], seed=0)) == (
        "96b4164e22301ad8620bfe123e22e0fc5caa679878aa78b4852f4fd4787bd516")
    assert nn.param_digest(nn.init_mlp([3, 50, 50, 20], seed=1)) == (
        "97eed2e304cf2628ea9940211450df898f7fe957c31bf436225cbd9ee4c69af6")


def test_model_file_bytes_golden(tmp_path):
    # recorded with the per-array layout; the file format must not drift
    path = tmp_path / "model.json"
    nn.save_model(nn.init_mlp([3, 50, 50, 20], seed=1), path, provenance={"kind": "x"})
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "449f76958fb37c27733086da5aa9b7f2a0ff2f43a240914eb75b1cba45d0d036")


def test_views_share_memory_with_params_and_copy_does_not():
    mlp = nn.init_mlp([4, 6, 3], seed=2)
    assert all(np.shares_memory(v, mlp.params) for v in mlp.weights + mlp.biases)
    twin = mlp.copy()
    assert np.array_equal(twin.params, mlp.params)
    assert not np.shares_memory(twin.params, mlp.params)
    assert not any(np.shares_memory(v, mlp.params) for v in twin.weights + twin.biases)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_FLOAT_ROWS = st.lists(st.lists(st.floats(), max_size=3), max_size=3)
_MODEL_LIKE = st.fixed_dictionaries({}, optional={
    "format_version": st.just(nn.MODEL_FORMAT_VERSION) | _JSON,
    "hidden_activation": st.just("elu") | _JSON,
    "layer_dims": st.lists(st.integers(-1, 4), max_size=4) | _JSON,
    "weights": st.lists(_FLOAT_ROWS, max_size=3) | _JSON,
    "biases": _FLOAT_ROWS | _JSON,
    "provenance": _JSON,
})


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_MODEL_LIKE | _JSON)
def test_model_loader_raises_only_value_errors(tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with contextlib.suppress(ValueError):
        nn.mlp_from_dict(doc)
    with contextlib.suppress(ValueError):
        nn.load_model(path)
