import json
import struct

import numpy as np
import pytest

from qtpart.dataset import normalize_targets
from qtpart.features import LAYOUT_HASH, mask_indices
from qtpart.mlp import (DEFAULT_HIDDEN, NORM_BLOWUP_LIMIT, REDUCED_HIDDEN,
                        AdamState, MlpModel, ModelError, TrainHyper, adam_init,
                        adam_step, backward, check_parameter_scale, forward,
                        forward_cached, init_model, layer_operator_norms,
                        load_model, loss_and_grads, save_model, train_regression)

from helpers import reference_adam_step, reference_backward, write_header_only_model


# -- initialization -----------------------------------------------------


def test_init_is_seed_deterministic():
    a = init_model(hidden=(16, 8), out=2, seed=7)
    b = init_model(hidden=(16, 8), out=2, seed=7)
    c = init_model(hidden=(16, 8), out=2, seed=8)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_init_shapes_and_he_scale():
    m = init_model(hidden=(64, 32), out=1, seed=0)
    assert m.layer_sizes == [115, 64, 32, 1]
    assert m.in_dim == 115 and m.out_dim == 1
    assert all((b == 0).all() for b in m.biases)
    # empirical std of the first layer tracks sqrt(2 / fan_in)
    assert m.weights[0].std() == pytest.approx(np.sqrt(2 / 115), rel=0.1)
    assert m.dtype == np.float32
    assert init_model(dtype="float64").dtype == np.float64


def test_init_rejects_bad_widths():
    with pytest.raises(ModelError, match="output width"):
        init_model(out=3)
    with pytest.raises(ModelError, match="positive"):
        init_model(hidden=(16, 0))


def test_default_hidden_sizes():
    assert DEFAULT_HIDDEN == (256, 256, 128)
    assert REDUCED_HIDDEN == (128, 128, 64)


# -- forward -------------------------------------------------------------


def test_forward_single_matches_batch_row():
    m = init_model(hidden=(8, 4), out=2, seed=1)
    rng = np.random.default_rng(2)
    X = rng.random((5, 115)).astype(np.float32)
    batch = forward(m, X)
    assert batch.shape == (5, 2)
    single = forward(m, X[3])
    assert single.shape == (2,)
    # BLAS may pick different kernels per shape; agreement is to float32 ulp
    assert np.allclose(single, batch[3], rtol=1e-6, atol=1e-7)


def test_forward_rejects_wrong_width():
    m = init_model(hidden=(8,), out=1, seed=1)
    with pytest.raises(ModelError, match="input width"):
        forward(m, np.zeros(20, np.float32))


def test_linear_model_with_no_hidden_layers():
    m = init_model(hidden=(), out=2, seed=0, dtype="float64")
    m.weights[0][:] = 0.0
    m.weights[0][3, 0] = 2.0
    m.biases[0][:] = (1.0, -1.0)
    x = np.zeros(115)
    x[3] = 4.0
    assert np.array_equal(forward(m, x), [9.0, -1.0])


# -- gradients -----------------------------------------------------------


def test_gradients_match_finite_differences():
    m = init_model(hidden=(6, 5), out=2, seed=3, dtype="float64")
    rng = np.random.default_rng(4)
    x = rng.random((3, 115))
    y = rng.random((3, 2))
    _, grads = loss_and_grads(m, x, y)
    h = 1e-6
    worst = 0.0
    for l in range(len(m.weights)):
        for park, g in ((m.weights[l], grads[l][0]), (m.biases[l], grads[l][1])):
            flat = park.reshape(-1)
            gflat = np.asarray(g).reshape(-1)
            for idx in rng.choice(flat.size, size=min(20, flat.size),
                                  replace=False):
                keep = flat[idx]
                flat[idx] = keep + h
                lp, _ = loss_and_grads(m, x, y)
                flat[idx] = keep - h
                lm, _ = loss_and_grads(m, x, y)
                flat[idx] = keep
                fd = (lp - lm) / (2 * h)
                rel = abs(fd - gflat[idx]) / max(abs(fd), abs(gflat[idx]), 1e-8)
                worst = max(worst, rel)
    assert worst < 1e-5


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_backward_bit_identical_to_pre_activation_mask(dtype):
    # the rectified output is positive exactly where the pre-activation
    # is; a NaN row and a zero row (pre-activations +-0.0) included
    m = init_model(hidden=(32, 16), out=2, seed=4, dtype=dtype)
    m.biases[0][::2] = -0.0
    rng = np.random.default_rng(13)
    x = rng.normal(0.0, 1.0, (300, 115)).astype(dtype)
    x[7] = np.nan
    x[8] = 0.0
    dout = rng.normal(0.0, 1.0, (300, 2)).astype(dtype)
    out, acts = forward_cached(m, x)
    assert out.tobytes() == forward(m, x).tobytes()
    got = backward(m, acts, dout)
    want = reference_backward(m, x, dout)
    assert np.isnan(got[0][0]).any()
    for (gw, gb), (rw, rb) in zip(got, want):
        assert gw.tobytes() == rw.tobytes() and gb.tobytes() == rb.tobytes()


def test_loss_is_mse_over_all_elements():
    m = init_model(hidden=(), out=2, seed=0, dtype="float64")
    m.weights[0][:] = 0.0
    m.biases[0][:] = (1.0, 3.0)
    x = np.zeros((2, 115))
    y = np.array([[0.0, 3.0], [1.0, 1.0]])
    loss, _ = loss_and_grads(m, x, y)
    assert loss == pytest.approx((1 + 0 + 0 + 4) / 4, abs=1e-12)


# -- optimizer ------------------------------------------------------------


def test_adam_zero_gradient_keeps_parameters():
    m = init_model(hidden=(4,), out=1, seed=5)
    before = [w.copy() for w in m.weights]
    st = adam_init(m, lr=0.1)
    zero = [(np.zeros_like(w), np.zeros_like(b))
            for w, b in zip(m.weights, m.biases)]
    adam_step(m, zero, st)
    for w, old in zip(m.weights, before):
        assert np.array_equal(w, old)
    assert st.step == 1


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("lr", [1e-3, 1e-5])
def test_adam_step_bit_identical_to_reference(dtype, lr):
    rng = np.random.default_rng(12)
    x = rng.random((48, 115)).astype(dtype)
    y = rng.random((48, 2)).astype(dtype)
    models = [init_model(hidden=(32, 16), out=2, seed=3, dtype=dtype) for _ in range(2)]
    states = [adam_init(m, lr=lr) for m in models]
    for step in range(20):
        rows = rng.choice(48, size=16, replace=False)
        _, grads = loss_and_grads(models[0], x[rows], y[rows])
        adam_step(models[0], grads, states[0])
        reference_adam_step(models[1], grads, states[1])
    got, want = models
    for a, b in zip(got.weights + got.biases, want.weights + want.biases):
        assert a.dtype == np.dtype(dtype) and a.tobytes() == b.tobytes()
    for ma, mb in zip(states[0].m + states[0].v, states[1].m + states[1].v):
        assert all(p.tobytes() == q.tobytes() for p, q in zip(ma, mb))
    assert states[0].step == states[1].step == 20


def test_adam_first_step_is_bias_corrected_sign_step():
    m = init_model(hidden=(), out=1, seed=6, dtype="float64")
    w0 = m.weights[0].copy()
    st = adam_init(m, lr=1e-2)
    g = np.zeros_like(w0)
    g[10, 0] = 4.0
    g[11, 0] = -0.25
    adam_step(m, [(g, np.zeros(1))], st)
    # mhat = g, vhat = g*g, so the move is lr * g / (|g| + eps)
    for idx in ((10, 0), (11, 0)):
        want = w0[idx] - 1e-2 * g[idx] / (abs(g[idx]) + 1e-8)
        assert m.weights[0][idx] == pytest.approx(want, rel=1e-12)
    untouched = np.ones_like(w0, bool)
    untouched[10, 0] = untouched[11, 0] = False
    assert np.array_equal(m.weights[0][untouched], w0[untouched])


def test_train_hyper_validation():
    assert TrainHyper().lr == 1e-5
    with pytest.raises(ValueError, match="positive"):
        TrainHyper(epochs=0)
    for lr in (0.0, -1e-3, float("nan")):
        with pytest.raises(ValueError, match="positive"):
            TrainHyper(lr=lr)


# -- parameter scale -------------------------------------------------------


def test_operator_norms_match_svd():
    m = init_model(hidden=(8,), out=1, seed=7, dtype="float64")
    norms = layer_operator_norms(m)
    for n, w in zip(norms, m.weights):
        assert n == pytest.approx(np.linalg.svd(w, compute_uv=False)[0],
                                  rel=1e-12)


def test_parameter_scale_check_trips_on_blowup_and_nan():
    m = init_model(hidden=(4,), out=1, seed=8)
    check_parameter_scale(m)     # fresh init is fine
    m.weights[0][:] = 5e3
    with pytest.raises(ModelError, match="blow-up"):
        check_parameter_scale(m)
    m.weights[0][:] = np.nan
    with pytest.raises(ModelError, match="blow-up"):
        check_parameter_scale(m)


def _set_first_layer(m, entries):
    m.weights[0][:] = 0.0
    for (i, j), v in entries.items():
        m.weights[0][i, j] = v


@pytest.mark.parametrize("entries", [
    {(0, 0): 900.0, (1, 1): 900.0},         # Frobenius 1273 > limit > spectral 900
    {(0, 0): NORM_BLOWUP_LIMIT},            # rank 1, exactly at the limit
])
def test_parameter_scale_check_uses_spectral_not_frobenius(entries):
    m = init_model(hidden=(4,), out=1, seed=8, dtype="float64")
    _set_first_layer(m, entries)
    check_parameter_scale(m)


@pytest.mark.parametrize("entries", [
    {(0, 0): NORM_BLOWUP_LIMIT * (1 + 1e-13)},  # rank 1, just above the limit
    {(0, 0): 800.0, (1, 0): 800.0},         # rank 1, spectral 1131
    {(2, 3): np.nan},
    {(2, 3): np.inf},
])
def test_parameter_scale_check_trips_above_spectral_limit(entries):
    m = init_model(hidden=(4,), out=1, seed=8, dtype="float64")
    _set_first_layer(m, entries)
    with pytest.raises(ModelError, match="blow-up"):
        check_parameter_scale(m)


# -- training -------------------------------------------------------------


def test_train_rejects_wrong_size_mix(records_mixed):
    with pytest.raises(ModelError, match="expects block sizes"):
        train_regression(records_mixed, "N32",
                         TrainHyper(epochs=1, batch=64))
    with pytest.raises(ModelError, match="unknown variant"):
        train_regression(records_mixed, "N64")


def test_train_single_size_ratio_model(records32):
    hyper = TrainHyper(lr=1e-4, batch=128, epochs=2)
    model, hist = train_regression(records32, "N32", hyper, seed=4)
    assert model.out_dim == 1
    assert len(hist) == 2
    assert model.meta["variant"] == "N32"
    assert model.meta["normalization"] == {"mode": "ratio", "c_median": None}
    assert model.meta["layout_hash"] == LAYOUT_HASH
    assert model.meta["seed"] == 4 and model.meta["mask"] == []
    assert model.meta["hidden"] == list(DEFAULT_HIDDEN)


def test_train_two_size_median_model(records_mixed):
    hyper = TrainHyper(lr=1e-4, batch=128, epochs=1)
    model, _ = train_regression(records_mixed, "N32_16", hyper, seed=4,
                                hidden=REDUCED_HIDDEN)
    assert model.out_dim == 2
    norm = model.meta["normalization"]
    assert norm["mode"] == "median" and norm["c_median"] > 0
    assert model.meta["hidden"] == list(REDUCED_HIDDEN)
    # the stored normalization is the one the targets were built with
    assert norm == normalize_targets(records_mixed)[2]


def test_train_is_seed_deterministic(records32):
    hyper = TrainHyper(lr=1e-4, batch=128, epochs=2)
    a, ha = train_regression(records32, "N32", hyper, seed=9)
    b, hb = train_regression(records32, "N32", hyper, seed=9)
    c, _ = train_regression(records32, "N32", hyper, seed=10)
    assert ha == hb
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert not all(np.array_equal(x, y) for x, y in zip(a.weights, c.weights))


def test_train_loss_decreases(records32):
    hyper = TrainHyper(lr=3e-4, batch=128, epochs=30)
    _, hist = train_regression(records32, "N32", hyper, seed=11)
    assert hist[-1] < hist[0] / 2


def test_train_records_mask_in_meta(records32):
    hyper = TrainHyper(lr=1e-4, batch=128, epochs=1)
    model, _ = train_regression(records32, "N32", hyper, seed=12,
                                mask=["glcm", "Hog"])
    assert model.meta["mask"] == ["HOG", "GLCM"]
    # the masked rows start at zero and get no gradient
    assert not model.weights[0][mask_indices(["hog", "glcm"])].any()
    # an unknown group is refused before anything else is checked
    with pytest.raises(ValueError, match="unknown feature groups"):
        train_regression(records32, "N64", hyper, mask=["HOG", "DC"])


def test_train_blowup_raises(records32):
    with pytest.raises(ModelError, match="blow-up"):
        with np.errstate(all="ignore"):
            train_regression(records32, "N32",
                             TrainHyper(lr=1e6, batch=64, epochs=3), seed=0)


# -- persistence ------------------------------------------------------------


def test_model_container_roundtrip(tmp_path, records32):
    model, _ = train_regression(records32, "N32",
                                TrainHyper(lr=1e-4, batch=128, epochs=1),
                                seed=13)
    p = tmp_path / "m.qtnn"
    save_model(model, p)
    back = load_model(p)
    assert back.layer_sizes == model.layer_sizes
    assert back.meta == model.meta
    x = np.random.default_rng(0).random((4, 115)).astype(np.float32)
    assert np.array_equal(forward(back, x), forward(model, x))
    # byte-stable across repeated saves
    p2 = tmp_path / "m2.qtnn"
    save_model(model, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_model_header_layout(tmp_path):
    m = init_model(hidden=(4,), out=1, seed=14)
    p = tmp_path / "h.qtnn"
    save_model(m, p)
    raw = p.read_bytes()
    assert raw[:4] == b"QTNN"
    (hlen,) = struct.unpack_from("<I", raw, 4)
    header = json.loads(raw[8:8 + hlen])
    assert header["layers"] == [115, 4, 1]
    assert header["dtype"] == "float32"
    blob = raw[8 + hlen:]
    assert len(blob) == (115 * 4 + 4 + 4 * 1 + 1) * 4


def test_load_rejects_corrupt_model(tmp_path):
    m = init_model(hidden=(4,), out=1, seed=15)
    p = tmp_path / "c.qtnn"
    save_model(m, p)
    good = p.read_bytes()

    p.write_bytes(b"XXXX" + good[4:])
    with pytest.raises(ModelError, match="bad model magic"):
        load_model(p)

    p.write_bytes(good[:-8])
    with pytest.raises(ModelError, match="blob size"):
        load_model(p)

    (hlen,) = struct.unpack_from("<I", good, 4)
    broken = good[:8] + b"{nope" + good[13:]
    p.write_bytes(broken)
    with pytest.raises(ModelError, match="unreadable model header"):
        load_model(p)

    header = json.loads(good[8:8 + hlen])
    header["dtype"] = "float16"
    enc = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    p.write_bytes(good[:4] + struct.pack("<I", len(enc)) + enc + good[8 + hlen:])
    with pytest.raises(ModelError, match="unsupported parameter dtype"):
        load_model(p)

    # NaN and inf in a weight and in a bias: a NaN prediction never
    # reaches the threshold, so such a model would silently gate nothing
    first_bias = 115 * 4 * 4
    for offset, value in ((0, np.nan), (4, np.inf), (first_bias, np.nan),
                          (len(good) - 8 - hlen - 4, -np.inf)):
        blob = bytearray(good[8 + hlen:])
        struct.pack_into("<f", blob, offset, value)
        p.write_bytes(good[:8 + hlen] + bytes(blob))
        with pytest.raises(ModelError, match="model parameters hold NaN or inf"):
            load_model(p)


def test_load_zeroes_masked_rows_and_keeps_the_rest(tmp_path):
    # a file whose masked rows are not zero loads with them zeroed; every
    # other parameter and the metadata come back as written
    model = init_model(hidden=(8,), out=1, seed=4)
    model.meta["mask"] = ["HOG"]
    save_model(model, tmp_path / "m.qtnn")
    back = load_model(tmp_path / "m.qtnn")
    rows = mask_indices(["HOG"])
    assert model.weights[0][rows].all() and not back.weights[0][rows].any()
    assert np.array_equal(back.weights[0][~rows], model.weights[0][~rows])
    for a, b in zip(back.weights[1:] + back.biases, model.weights[1:] + model.biases):
        assert np.array_equal(a, b)
    assert back.meta == model.meta


@pytest.mark.parametrize("width, mask, message", [
    (115, ["HOG", "FOO"], r"unknown feature groups \['FOO'\]"),
    (114, ["HOG"], "a masked model needs 115 inputs, not 114"),
], ids=["unknown-group", "narrow-input"])
def test_load_rejects_a_bad_mask(tmp_path, width, mask, message):
    model = MlpModel(weights=[np.ones((width, 1), np.float32)],
                     biases=[np.zeros(1, np.float32)],
                     meta={"layout_hash": LAYOUT_HASH, "mask": mask})
    save_model(model, tmp_path / "m.qtnn")
    with pytest.raises(ModelError, match=message):
        load_model(tmp_path / "m.qtnn")


@pytest.mark.parametrize("layers", [[115], [115, 0, 1]])
def test_load_rejects_impossible_layers(tmp_path, layers):
    # no input-only model exists, and a zero-width layer would leave the
    # output to its bias alone; both blobs match their headers
    p = tmp_path / "impossible.qtnn"
    write_header_only_model(p, layers)
    with pytest.raises(ModelError, match="impossible layer widths"):
        load_model(p)


def test_masked_columns_do_not_affect_inference(records32, tmp_path):
    # the first-layer rows of the masked slots are zero, so whatever those
    # slots hold, a model gives the output of the zeroed input bit for bit,
    # trained in memory and after a save/load round trip
    mask = ["NI", "PI"]
    model, _ = train_regression(records32, "N32",
                                TrainHyper(lr=1e-4, batch=128, epochs=1),
                                seed=16, mask=mask)
    save_model(model, tmp_path / "m.qtnn")
    zeroed = mask_indices(mask)
    rng = np.random.default_rng(3)
    x = rng.random((8, 115)).astype(np.float32)
    x[:, zeroed] = 0.0
    raw = x.copy()
    raw[:, zeroed] = rng.normal(0.0, 1e3, (8, int(zeroed.sum())))
    for m in (model, load_model(tmp_path / "m.qtnn")):
        assert np.array_equal(forward(m, raw), forward(m, x))
        for r, z in zip(raw, x):
            assert np.array_equal(forward(m, r), forward(m, z))
