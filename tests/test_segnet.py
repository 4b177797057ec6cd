"""Whole-model wiring: pyramid of feature extents, output shapes,
determinism, prediction."""
import numpy as np
import pytest

from elkpp import segnet
from elkpp.lkpp import LkppConfig, default_block_specs
from elkpp.segnet import BackboneConfig, DecoderConfig, ElkppNet, ModelConfig
from elkpp.tensor import Tensor, backward


TINY = ModelConfig(
    num_classes=3,
    backbone=BackboneConfig(stem_channels=2, stage_channels=(2, 3, 4, 5),
                            stage_blocks=(1, 1, 1, 1)),
    decoder=DecoderConfig(stage_channels=(4, 3, 2)),
    lkpp=LkppConfig(default_block_specs(2), 2, 2),
    head_channels=3,
)


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(num_classes=1)
    with pytest.raises(ValueError):
        BackboneConfig(stage_channels=(1, 2, 3))
    with pytest.raises(ValueError):
        DecoderConfig(stage_channels=(1, 2))


def test_encoder_pyramid_extents():
    net = ElkppNet(TINY, seed=0)
    x = rng(1).standard_normal((2, 3, 64, 64))
    feats = net.encoder(Tensor(x), training=True)
    shapes = [f.data.shape for f in feats]
    assert shapes[0][2:] == (16, 16)   # 1/4
    assert shapes[1][2:] == (8, 8)     # 1/8
    assert shapes[2][2:] == (4, 4)     # 1/16
    assert shapes[3][2:] == (2, 2)     # 1/32
    assert [s[1] for s in shapes] == [2, 3, 4, 5]


def test_encoder_handles_odd_extents():
    net = ElkppNet(TINY, seed=0)
    x = rng(2).standard_normal((1, 3, 224, 448))
    feats = net.encoder(Tensor(x), training=True)
    # ceil-divide at each stride-2 step
    assert feats[0].data.shape[2:] == (56, 112)
    assert feats[3].data.shape[2:] == (7, 14)


def test_forward_logits_at_input_extent():
    net = ElkppNet(TINY, seed=0)
    for hw in [(64, 64), (36, 20)]:
        x = rng(3).standard_normal((2, 3) + hw)
        logits = net.forward(x, training=True)
        assert logits.data.shape == (2, 3) + hw
        assert np.isfinite(logits.data).all()


def test_forward_backward_reaches_every_parameter():
    # batch of two: with a single sample the deepest 1x1 map makes the
    # training-mode normalization degenerate (zero variance, constant
    # output), legitimately cutting the gradient path
    net = ElkppNet(TINY, seed=0)
    x = rng(4).standard_normal((2, 3, 32, 32))
    logits = net.forward(x, training=True)
    loss = (logits * logits).mean()
    backward(loss, store=net.store)
    dead = [name for name, p in net.store.items() if p.grad is None
            or not np.isfinite(p.grad).all()
            or np.abs(p.grad).max() == 0]
    assert dead == []


def test_same_seed_same_model():
    a = ElkppNet(TINY, seed=11)
    b = ElkppNet(TINY, seed=11)
    x = rng(5).standard_normal((1, 3, 32, 32))
    assert np.array_equal(a.forward(x, training=False).data,
                          b.forward(x, training=False).data)
    c = ElkppNet(TINY, seed=12)
    assert not np.array_equal(a.forward(x, training=False).data,
                              c.forward(x, training=False).data)


def test_predict_shape_and_range():
    net = ElkppNet(TINY, seed=0)
    x = rng(6).standard_normal((2, 3, 32, 32))
    pred = net.predict(x)
    assert pred.shape == (2, 32, 32)
    assert pred.dtype == np.int64
    assert pred.min() >= 0 and pred.max() < 3


def test_predict_trims_heap_without_changing_labels(monkeypatch):
    net = ElkppNet(TINY, seed=0)
    x = rng(6).standard_normal((2, 3, 32, 32))
    expected = np.argmax(net.forward(x, training=False).data, axis=1)
    calls = []
    monkeypatch.setattr(segnet, "_MALLOC_TRIM", calls.append)
    np.testing.assert_array_equal(net.predict(x), expected)
    assert calls == [0]
    # a C library without malloc_trim: no trim, same labels
    monkeypatch.setattr(segnet, "_MALLOC_TRIM", None)
    np.testing.assert_array_equal(net.predict(x), expected)


def test_param_count_matches_store():
    net = ElkppNet(TINY, seed=0)
    total = sum(p.data.size for _, p in net.store.items())
    assert net.param_count() == total
    # tiny configuration stays under the gradcheck budget
    assert net.param_count() <= 5000


def test_default_model_size():
    net = ElkppNet(ModelConfig(num_classes=4), seed=0)
    # frozen reference size of the default configuration; a change here
    # is an architecture change and must be deliberate
    assert net.param_count() == 1195252
