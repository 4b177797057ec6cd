"""Training loop: Adam with a polynomial learning-rate schedule, CSV
logging, periodic evaluation and bit-reproducible checkpoints.

Runs are pure functions of (config, dataset): parameter init, batch
order and flips all derive from the config seed, so the same config
produces byte-identical checkpoints across runs. The BLAS thread count
does not change them either: a test trains the default model under one
and under two OpenBLAS threads and compares the checkpoint bytes.
"""
from __future__ import annotations

import csv
import json
import os
import time

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint, write_json
from .config import config_digest, save_config
from .data import batch_at, load_split, mirror_flip, to_model_input
from .edge_loss import ece_loss
from .metrics import ConfusionMatrix, boundary_agreement
from .segnet import ElkppNet
from .tensor import Tensor, backward, precision, set_precision


def poly_lr(base_lr, iteration, total_iterations, power=0.9):
    """base_lr * (1 - iteration / total)^power, clamped at the end."""
    if total_iterations < 1:
        raise ValueError("total_iterations must be >= 1")
    if iteration < 0:
        raise ValueError("iteration must be nonnegative")
    frac = min(iteration / total_iterations, 1.0)
    return base_lr * (1.0 - frac) ** power


class Adam:
    """Adam with bias correction; state is keyed by parameter name."""

    def __init__(self, store, beta1=0.9, beta2=0.999, eps=1e-8):
        self.store = store
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.m = {k: np.zeros_like(t.data) for k, t in store.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in store.items()}

    def step(self, lr):
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1 ** t
        c2 = 1.0 - self.beta2 ** t
        for name, p in self.store.items():
            g = p.grad if p.grad is not None else 0.0
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def state_tensors(self):
        out = {"step": np.array([self.step_count], dtype=np.float32)}
        for k, arr in self.m.items():
            out["m/" + k] = arr
        for k, arr in self.v.items():
            out["v/" + k] = arr
        return out

    def load_state_tensors(self, state):
        self.step_count = int(state["step"][0])
        for k in self.m:
            self.m[k] = np.asarray(state["m/" + k],
                                   dtype=self.m[k].dtype).reshape(
                                       self.m[k].shape).copy()
            self.v[k] = np.asarray(state["v/" + k],
                                   dtype=self.v[k].dtype).reshape(
                                       self.v[k].shape).copy()


def _assemble_batch(samples, picks):
    images = []
    labels = []
    for idx, flip in picks:
        s = samples[idx]
        img, lab = mirror_flip(s.image, s.label, flip)
        images.append(img)
        labels.append(lab)
    return to_model_input(np.stack(images)), np.stack(labels)


def evaluate(net, samples, num_classes, batch_size=8):
    """Confusion-matrix metrics plus mean boundary agreement over a split."""
    cm = ConfusionMatrix(num_classes)
    agreement = []
    for start in range(0, len(samples), batch_size):
        chunk = samples[start:start + batch_size]
        x = to_model_input(np.stack([s.image for s in chunk]))
        labels = np.stack([s.label for s in chunk])
        preds = net.predict(Tensor(x))
        cm.update(preds, labels)
        for i in range(len(chunk)):
            agreement.append(boundary_agreement(preds[i], labels[i]))
    out = cm.summary()
    out["boundary_agreement"] = float(np.mean(agreement))
    return out


def load_weights(net, cfg, path):
    """Load the parameters and buffers of the checkpoint at ``path``,
    which must have been written under ``cfg``, into ``net``; returns
    the checkpoint."""
    ckpt = load_checkpoint(path)
    if ckpt.config_digest != config_digest(cfg):
        raise ValueError("checkpoint %s was written under a different "
                         "configuration" % path)
    net.store.load_state_dict(ckpt.params)
    for k, arr in ckpt.buffers.items():
        if k not in net.buffers:
            raise ValueError("checkpoint buffer %r has no destination" % k)
        net.buffers[k][...] = arr
    return ckpt


def _restore(net, optimizer, cfg, resume_path):
    ckpt = load_weights(net, cfg, resume_path)
    optimizer.load_state_tensors(ckpt.optim)
    return ckpt.iteration


def _save(path, iteration, cfg, net, optimizer):
    save_checkpoint(path, iteration, config_digest(cfg),
                    net.store.state_dict(), optimizer.state_tensors(),
                    net.buffers)


def _truncate_log(path, iteration):
    """Cut the CSV log at ``path`` after its last row at or before
    ``iteration``, so that a resume from there logs each later row once."""
    with open(path, "r+b") as f:
        keep = 0
        for i, line in enumerate(f):
            if i > 0 and int(line.split(b",", 1)[0]) > iteration:
                break
            keep += len(line)
        f.truncate(keep)


def train(cfg, out_dir, resume=None, log=print):
    """Run the configured training job; returns a summary dict.

    Writes ``config.json`` before the first iteration (after a resume's
    config check), then ``train_log.csv``, periodic
    ``checkpoints/ckpt_NNNNNN.ckpt``, the best-by-miou checkpoint with a
    JSON sidecar, and ``summary.json`` under ``out_dir``. A resume keeps
    the best score already recorded in ``out_dir/best.json`` and drops
    the log rows after the resumed iteration before it logs them again.
    The process-wide precision is ``cfg.precision`` while it runs and is
    restored when it returns.
    """
    previous = precision()
    set_precision(cfg.precision)
    try:
        return _train(cfg, out_dir, resume, log)
    finally:
        set_precision(previous)


def _train(cfg, out_dir, resume, log):
    os.makedirs(out_dir, exist_ok=True)
    ckpt_dir = os.path.join(out_dir, "checkpoints")
    os.makedirs(ckpt_dir, exist_ok=True)

    train_samples = load_split(cfg.data_root, "train", cfg.num_classes)
    val_samples = None
    if os.path.isfile(os.path.join(cfg.data_root, "val.txt")):
        val_samples = load_split(cfg.data_root, "val", cfg.num_classes)

    net = ElkppNet(cfg.model, seed=cfg.seed)
    optimizer = Adam(net.store, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    start_iter = 0
    best = {"miou": float("-inf"), "iteration": 0}
    best_path = os.path.join(out_dir, "best.json")
    if resume is not None:
        start_iter = _restore(net, optimizer, cfg, resume)
        log("resumed from %s at iteration %d" % (resume, start_iter))
        if os.path.isfile(best_path):
            with open(best_path) as f:
                best = json.load(f)
    save_config(os.path.join(out_dir, "config.json"), cfg)

    n = len(train_samples)
    t0 = time.monotonic()

    log_path = os.path.join(out_dir, "train_log.csv")
    mode = "w"
    if resume is not None and os.path.exists(log_path):
        _truncate_log(log_path, start_iter)
        mode = "a"
    with open(log_path, mode, newline="") as log_file:
        writer = csv.writer(log_file)
        if mode == "w":
            writer.writerow(["iter", "lr", "l_seg", "l_edge", "reg", "total"])
        for it in range(start_iter, cfg.total_iterations):
            lr = poly_lr(cfg.base_lr, it, cfg.total_iterations,
                         cfg.poly_power)
            x, labels = _assemble_batch(
                train_samples, batch_at(n, cfg.batch_size, cfg.seed, it))
            logits = net.forward(Tensor(x), training=True)
            loss, parts = ece_loss(logits, labels, net.store, cfg.loss)
            net.store.zero_grads()
            backward(loss, net.store)
            optimizer.step(lr)
            done = it + 1
            if done % cfg.log_interval == 0 or done == cfg.total_iterations:
                writer.writerow(["%d" % done, "%.8e" % lr,
                                 "%.8e" % parts["l_seg"],
                                 "%.8e" % parts["l_edge"],
                                 "%.8e" % parts["reg"],
                                 "%.8e" % parts["total"]])
                log_file.flush()
            if val_samples and (done % cfg.eval_interval == 0
                                or done == cfg.total_iterations):
                scores = evaluate(net, val_samples, cfg.num_classes,
                                  cfg.batch_size)
                log("iter %6d  loss %.4f  val miou %.4f  boundary %.4f"
                    % (done, parts["total"], scores["miou"],
                       scores["boundary_agreement"]))
                if scores["miou"] > best["miou"]:
                    best = dict(scores, iteration=done)
                    _save(os.path.join(out_dir, "best.ckpt"), done, cfg, net,
                          optimizer)
                    write_json(best_path, best)
            if done % cfg.checkpoint_interval == 0 \
                    or done == cfg.total_iterations:
                _save(os.path.join(ckpt_dir, "ckpt_%06d.ckpt" % done), done,
                      cfg, net, optimizer)

    summary = {
        "iterations": cfg.total_iterations,
        "param_scalars": net.param_count(),
        "elapsed_sec": round(time.monotonic() - t0, 3),
        "best": best if best["miou"] > float("-inf") else None,
    }
    if val_samples:
        summary["final"] = evaluate(net, val_samples, cfg.num_classes,
                                    cfg.batch_size)
    write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary
