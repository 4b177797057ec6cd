"""Checkpoint format: bit-exact round trips and corruption detection."""
import os

import numpy as np
import pytest

from elkpp.checkpoint import MAGIC, load_checkpoint, save_checkpoint


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def sample_state(seed=1):
    r = rng(seed)
    params = {"enc.w": r.standard_normal((3, 2, 3, 3)).astype(np.float32),
              "enc.b": r.standard_normal(3).astype(np.float32)}
    optim = {"step": np.array(7.0, dtype=np.float32),
             "m/enc.w": r.standard_normal((3, 2, 3, 3)).astype(np.float32)}
    buffers = {"bn.mean": r.standard_normal(3).astype(np.float32)}
    digest = bytes(range(32))
    return params, optim, buffers, digest


def test_round_trip_bit_exact(tmp_path):
    params, optim, buffers, digest = sample_state()
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, 123, digest, params, optim, buffers)
    ck = load_checkpoint(p)
    assert ck.iteration == 123
    assert ck.config_digest == digest
    assert set(ck.params) == set(params)
    for k in params:
        assert np.array_equal(ck.params[k], params[k])
        assert ck.params[k].dtype == np.float32
    assert np.array_equal(ck.optim["step"], optim["step"])
    assert np.array_equal(ck.buffers["bn.mean"], buffers["bn.mean"])

    # save -> load -> save produces identical bytes
    q = tmp_path / "b.ckpt"
    save_checkpoint(q, ck.iteration, ck.config_digest, ck.params, ck.optim,
                    ck.buffers)
    assert p.read_bytes() == q.read_bytes()


def test_failed_save_leaves_previous_file_intact(tmp_path):
    params, optim, buffers, digest = sample_state()
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, 1, digest, params, optim, buffers)
    before = p.read_bytes()
    # "p/zz.bad" sorts last, so every other tensor is written before the
    # conversion of this one raises
    bad = {**params, "zz.bad": "not a number"}
    with pytest.raises(ValueError):
        save_checkpoint(p, 2, digest, bad, optim, buffers)
    assert p.read_bytes() == before
    assert os.listdir(tmp_path) == ["a.ckpt"]


def test_insertion_order_does_not_change_bytes(tmp_path):
    params, optim, buffers, digest = sample_state()
    a = tmp_path / "a.ckpt"
    b = tmp_path / "b.ckpt"
    save_checkpoint(a, 5, digest, params, optim, buffers)
    reordered = dict(reversed(list(params.items())))
    save_checkpoint(b, 5, digest, reordered, optim, buffers)
    assert a.read_bytes() == b.read_bytes()


def test_scalar_and_zero_rank(tmp_path):
    p = tmp_path / "s.ckpt"
    save_checkpoint(p, 0, bytes(32), {}, {"step": np.float32(3.0)}, {})
    ck = load_checkpoint(p)
    assert ck.optim["step"].shape == ()
    assert float(ck.optim["step"]) == 3.0


def test_bad_magic(tmp_path):
    p = tmp_path / "x.ckpt"
    p.write_bytes(b"NOPE" + b"\x00" * 60)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(p)


def test_bad_version(tmp_path):
    params, optim, buffers, digest = sample_state()
    p = tmp_path / "x.ckpt"
    save_checkpoint(p, 1, digest, params, optim, buffers)
    raw = bytearray(p.read_bytes())
    raw[4] = 99
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(p)


def test_truncation_detected(tmp_path):
    params, optim, buffers, digest = sample_state()
    p = tmp_path / "x.ckpt"
    save_checkpoint(p, 1, digest, params, optim, buffers)
    raw = p.read_bytes()
    p.write_bytes(raw[:len(raw) - 7])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(p)


def test_trailing_bytes_detected(tmp_path):
    params, optim, buffers, digest = sample_state()
    p = tmp_path / "x.ckpt"
    save_checkpoint(p, 1, digest, params, optim, buffers)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(p)


def test_bad_digest_length():
    with pytest.raises(ValueError, match="digest"):
        save_checkpoint("/tmp/never-written.ckpt", 0, b"short", {}, {}, {})


def test_unknown_section_rejected(tmp_path):
    p = tmp_path / "x.ckpt"
    save_checkpoint(p, 1, bytes(32), {}, {}, {"ok": np.zeros(1,
                                                             np.float32)})
    raw = bytearray(p.read_bytes())
    # the single tensor is named "b/ok"; corrupt its section prefix
    idx = raw.find(b"b/ok")
    raw[idx] = ord("z")
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="section"):
        load_checkpoint(p)


def test_f64_inputs_stored_as_f32(tmp_path):
    p = tmp_path / "x.ckpt"
    w = np.array([1.0, 2.0], dtype=np.float64)
    save_checkpoint(p, 0, bytes(32), {"w": w}, {}, {})
    ck = load_checkpoint(p)
    assert ck.params["w"].dtype == np.float32
    assert np.array_equal(ck.params["w"], w.astype(np.float32))
