"""The three workloads: what one unit of work is, how the inputs are made
from the seed, and the checks made once the timed phase is over.

Each workload has the same shape: ``make_inputs()`` and ``build()`` are
the set-up, ``unit()`` does one unit of work and returns what the
untimed ``account()`` needs, ``run(units, deadline)`` drives the timed
phase, and ``checks()`` yields ``(name, (ok, detail))`` pairs. Spans go
to ``self.tr``, which the traced run replaces with a recording tracer.
"""
from __future__ import annotations

import os
import traceback

import numpy as np

from elkpp import checkpoint, config, data, edge_loss, gradcheck, metrics, \
    nn, segnet, tensor
from elkpp.lkpp import LkppConfig, default_block_specs
from elkpp.train import Adam, poly_lr

import checks
from spans import NULL


def seeded_rng(*key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def assemble_batch(samples, picks):
    """Images and labels of one training batch, each sample mirrored when
    its pick says so (the body of the training loop's batch assembly)."""
    images, labels = [], []
    for idx, flip in picks:
        img, lab = data.mirror_flip(samples[idx].image, samples[idx].label,
                                    flip)
        images.append(img)
        labels.append(lab)
    return data.to_model_input(np.stack(images)), np.stack(labels)


def conv_specs(obj, found=None):
    """Every distinct ConvSpec of the convolution layers reachable from
    ``obj``, in first-seen order."""
    found = {} if found is None else found
    if isinstance(obj, nn.Conv2d):
        found.setdefault(obj.spec, None)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            conv_specs(item, found)
    elif type(obj).__module__.startswith("elkpp.") \
            and hasattr(obj, "__dict__"):
        for value in vars(obj).values():
            conv_specs(value, found)
    return list(found)


class Workload:
    warmup_units = 3
    min_units = 1
    yardstick = "conv"  # the Yardstick kind that tracks this workload
    tr = NULL  # the run's tracer; NULL when timing end to end

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def run(self, units, deadline):
        """Units back to back until the deadline has passed and at least
        ``min_units`` are done."""
        while units.attempted < self.min_units or units.now() < deadline:
            result = units.call(self.unit)
            if result is not None:
                self.account(result)

    def account(self, result):
        pass


class Train(Workload):
    """One unit is one optimizer step of the reference configuration."""

    # the loss-trend check compares the first and the last ten steps
    min_units = 20

    def make_inputs(self):
        root = os.path.join(self.workdir, "data")
        data.write_dataset(root, data.SynthConfig(), num_train=128,
                           num_val=32, seed=self.seed)
        self.cfg = config.TrainConfig(data_root=root, seed=self.seed)
        tensor.set_precision(self.cfg.precision)
        self.samples = data.load_split(root, "train", self.cfg.num_classes)

    def build(self):
        cfg = self.cfg
        self.net = segnet.ElkppNet(cfg.model, seed=cfg.seed)
        self.opt = Adam(self.net.store, cfg.adam_beta1, cfg.adam_beta2,
                        cfg.adam_eps)
        self.iteration = 0
        self.l_seg = []

    def unit(self):
        cfg, net, it, tr = self.cfg, self.net, self.iteration, self.tr
        lr = poly_lr(cfg.base_lr, it, cfg.total_iterations, cfg.poly_power)
        with tr.span("data.batch"):
            x, labels = assemble_batch(self.samples, data.batch_at(
                len(self.samples), cfg.batch_size, cfg.seed, it))
        logits = net.forward(tensor.Tensor(x), training=True)
        with tr.span("edge_loss.ece"):
            loss, parts = edge_loss.ece_loss(logits, labels, net.store,
                                             cfg.loss)
        net.store.zero_grads()
        tensor.backward(loss, net.store)
        with tr.span("train.adam"):
            self.opt.step(lr)
        self.iteration += 1
        return parts["l_seg"]

    def account(self, l_seg):
        self.l_seg.append(l_seg)

    def checks(self):
        yield "loss_trend", checks.check_loss_trend(self.l_seg)
        yield "checkpoint_roundtrip", self._checkpoint_roundtrip()
        tensor.set_precision("f64")
        yield "conv_oracle", self._conv_oracle()
        yield "directional_derivative", self._directional_derivative()

    def _checkpoint_roundtrip(self):
        path = os.path.join(self.workdir, "roundtrip.ckpt")
        sections = {"p/": self.net.store.state_dict(),
                    "o/": self.opt.state_tensors(), "b/": self.net.buffers}
        checkpoint.save_checkpoint(
            path, self.iteration, config.config_digest(self.cfg),
            sections["p/"], sections["o/"], sections["b/"])
        state = {prefix + k: v for prefix, section in sections.items()
                 for k, v in section.items()}
        return checks.check_bit_identical(
            state, checkpoint.load_checkpoint(path).all_tensors())

    def _conv_oracle(self):
        """Each distinct convolution of the model, and the edge loss's
        template convolution, on seeded 10x11 inputs."""
        k = self.cfg.loss.kernel_scale
        template = nn.ConvSpec(3 * k, 3 * k, 1, 1, padding_mode="valid")
        specs = conv_specs(self.net) + [template]
        rng = seeded_rng(self.seed, 1)
        worst = None
        for spec in specs:
            x = rng.standard_normal((2, spec.in_channels, 10, 11))
            if spec is template:
                w = edge_loss.laplacian_template(k).reshape(spec.weight_shape)
            else:
                w = rng.standard_normal(spec.weight_shape)
            b = rng.standard_normal(spec.out_channels) \
                if spec.has_bias else None
            got = nn.dilated_conv2d(
                tensor.Tensor(x), spec, tensor.Tensor(w),
                None if b is None else tensor.Tensor(b)).data
            ok, detail = checks.check_conv(got, checks.direct_conv(x, w, b,
                                                                   spec))
            if not ok:
                return ok, "%s: %s" % (spec, detail)
            worst = detail
        return True, "%d specs, last %s" % (len(specs), worst)

    def _directional_derivative(self):
        """Float64 model at the initial parameters, first training batch."""
        cfg = self.cfg
        net = segnet.ElkppNet(cfg.model, seed=cfg.seed)
        x, labels = assemble_batch(self.samples, data.batch_at(
            len(self.samples), cfg.batch_size, cfg.seed, 0))
        x = tensor.Tensor(x)

        def loss():
            return edge_loss.ece_loss(net.forward(x, training=True), labels,
                                      net.store, cfg.loss)[0]

        grads, direction = tape_and_direction(loss, net.store,
                                              seeded_rng(self.seed, 2))
        return directional_check(loss, net.store, grads, direction)


def tape_and_direction(loss, store, rng):
    """Tape gradient of ``loss()`` and a random unit direction, both as
    name -> array maps over the parameters of ``store``."""
    tensor.backward(loss(), store)
    grads = {k: t.grad.copy() for k, t in store.items()}
    direction = {k: rng.standard_normal(t.shape) for k, t in store.items()}
    norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
    return grads, {k: d / norm for k, d in direction.items()}


def directional_check(loss, store, grads, direction,
                      steps=(1e-5, 1e-6, 1e-7)):
    """Central differences of ``loss()`` along ``direction`` against
    <grads, direction>.

    A step that carries the probe across a relu kink spoils the central
    difference, so the steps descend until one agrees with the tape. A
    wrong tape value disagrees at every step."""
    origin = store.state_dict()
    try:
        for step in steps:
            values = []
            for sign in (1.0, -1.0):
                for k, t in store.items():
                    t.data = origin[k] + sign * step * direction[k]
                with tensor.no_grad():
                    values.append(float(loss().data))
            fd = (values[0] - values[1]) / (2.0 * step)
            ok, detail = checks.check_directional(grads, direction, fd)
            if ok:
                break
    finally:
        store.load_state_dict(origin)
    return ok, "step %.0e: %s" % (step, detail)


class Eval(Workload):
    """One unit is one batch of 8 validation samples: prediction, the
    confusion-matrix update and the boundary agreement of each sample."""

    batch_size = 8

    def make_inputs(self):
        root = os.path.join(self.workdir, "data")
        data.write_dataset(root, data.SynthConfig(), num_train=0, num_val=32,
                           seed=self.seed)
        self.cfg = config.TrainConfig(data_root=root, seed=self.seed)
        tensor.set_precision(self.cfg.precision)
        samples = data.load_split(root, "val", self.cfg.num_classes)
        self.batches = [samples[i:i + self.batch_size]
                        for i in range(0, len(samples), self.batch_size)]

    def build(self):
        self.net = segnet.ElkppNet(self.cfg.model, seed=self.cfg.seed)
        self.position = 0
        self.cm = metrics.ConfusionMatrix(self.cfg.num_classes)
        self.tally = checks.Tally(self.cfg.num_classes)
        self.agreement = []

    def unit(self):
        tr = self.tr
        chunk = self.batches[self.position % len(self.batches)]
        self.position += 1
        with tr.span("data.batch"):
            x = data.to_model_input(np.stack([s.image for s in chunk]))
            labels = np.stack([s.label for s in chunk])
        preds = self.net.predict(tensor.Tensor(x))
        with tr.span("metrics.confusion"):
            self.cm.update(preds, labels)
        with tr.span("metrics.boundary"):
            for i in range(len(chunk)):
                self.agreement.append(
                    metrics.boundary_agreement(preds[i], labels[i]))
        return preds, labels

    def account(self, result):
        self.tally.add(*result)

    def checks(self):
        yield "confusion_total", checks.check_confusion_total(
            self.cm.as_array(), self.tally.valid)
        yield "scores", checks.check_scores(self.cm.summary(), self.tally)
        chunk = self.batches[seeded_rng(self.seed, 3).integers(
            len(self.batches))]
        pick = int(seeded_rng(self.seed, 4).integers(len(chunk)))
        x = data.to_model_input(np.stack([s.image for s in chunk]))
        with tensor.no_grad():
            batch = self.net.forward(tensor.Tensor(x), training=False).data
            alone = self.net.forward(tensor.Tensor(x[pick:pick + 1]),
                                     training=False).data
        yield "batch_invariance", checks.check_batch_invariance(
            alone[0], batch[pick])
        yield "argmax", checks.check_argmax(
            self.net.predict(tensor.Tensor(x)), batch)


def tiny_model_config():
    """The model of ``elkpp gradcheck --target model``."""
    return segnet.ModelConfig(
        num_classes=2,
        backbone=segnet.BackboneConfig(stem_channels=2,
                                       stage_channels=(2, 3, 4, 5),
                                       stage_blocks=(1, 1, 1, 1)),
        decoder=segnet.DecoderConfig(stage_channels=(4, 3, 2)),
        lkpp=LkppConfig(default_block_specs(2), 2, 2),
        head_channels=3,
    )


class Gradcheck(Workload):
    """One unit is one loss evaluation inside ``check_gradients``. A round
    is one bounded check of every parameter tensor; every round probes
    the same entries, and the timed phase runs whole rounds."""

    probes_per_tensor = 1
    tolerance = 1e-3
    yardstick = "small"

    def make_inputs(self):
        tensor.set_verification_mode(True)
        rng = seeded_rng(self.seed)
        self.x = tensor.Tensor(rng.standard_normal((4, 3, 16, 16)) * 0.5)
        self.labels = rng.integers(0, 2, size=(4, 16, 16)).astype(np.uint8)
        self.labels[1, -3:, -3:] = 255

    def build(self):
        self.net = segnet.ElkppNet(tiny_model_config(), seed=self.seed)
        self.params = edge_loss.EdgeLossParams()
        self.reports = []

    def unit(self):
        """One loss evaluation without a tape, as the probes make them."""
        with tensor.no_grad():
            self.loss()

    def loss(self):
        logits = self.net.forward(self.x, training=True)
        with self.tr.span("edge_loss.ece"):
            return edge_loss.ece_loss(logits, self.labels, self.net.store,
                                      self.params)[0]

    def run(self, units, deadline):
        timed_loss = units.wrap(self.loss)
        rounds = 0
        while rounds == 0 or units.now() < deadline:
            rounds += 1
            try:
                with self.tr.span("gradcheck.check"):
                    report = gradcheck.check_gradients(
                        timed_loss, list(self.net.store.items()),
                        tol=self.tolerance,
                        max_entries=self.probes_per_tensor,
                        rng=seeded_rng(self.seed, 5))
            except Exception:  # the failing evaluation is counted as failed
                traceback.print_exc()
                continue
            self.reports.append(report)

    def checks(self):
        if not self.reports:
            yield "gradcheck_report", (False, "no round completed")
            return
        for i, report in enumerate(self.reports):
            ok, detail = checks.check_gradcheck_report(report)
            if not ok:
                yield "gradcheck_report", (False, "round %d: %s" % (i, detail))
                return
        yield "gradcheck_report", (True, "%d rounds, %s" % (
            len(self.reports), detail))


WORKLOADS = {"train": Train, "eval": Eval, "gradcheck": Gradcheck}
