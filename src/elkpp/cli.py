"""Command-line interface.

Subcommands: synth-data, train, eval, gradcheck, edge-extract,
rf-report, gridding-check, param-report. Exit status 0 on success, 1 on
a reported error (missing file, malformed config, failed check);
argument errors exit 2 via argparse.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import rf
from .config import ConfigError, TrainConfig, load_config
from .data import SynthConfig, load_label_map, save_pgm, write_dataset
from .edge_loss import EdgeLossParams, ece_loss, edge_labels
from .gradcheck import DEFAULT_STEPS, check_gradients
from .lkpp import block_footprint, equivalent_chain
from .segnet import ElkppNet
from .tensor import Tensor, set_precision, set_verification_mode
from .train import evaluate, load_weights, train


def _add_common(p):
    p.add_argument("--seed", type=int, default=None,
                   help="override the configured seed")
    p.add_argument("--precision", choices=("f32", "f64"), default=None,
                   help="override the configured float width")


def _load_cfg(args):
    if args.config is None:
        cfg = TrainConfig()
    else:
        cfg = load_config(args.config)
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "precision", None) is not None:
        overrides["precision"] = args.precision
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def cmd_synth_data(args):
    cfg = SynthConfig(num_classes=args.classes, height=args.size,
                      width=args.size, void_border=args.void_border)
    write_dataset(args.out, cfg, args.train, args.val, args.seed)
    print("wrote %d train / %d val samples (%dx%d, %d classes) to %s"
          % (args.train, args.val, args.size, args.size, args.classes,
             args.out))
    return 0


def cmd_train(args):
    cfg = _load_cfg(args)
    log = (lambda *a: None) if args.quiet else print
    summary = train(cfg, args.out, resume=args.resume, log=log)
    if summary.get("best"):
        print("best val miou %.4f at iteration %d"
              % (summary["best"]["miou"], summary["best"]["iteration"]))
    print("finished %d iterations in %.1fs; outputs in %s"
          % (summary["iterations"], summary["elapsed_sec"], args.out))
    return 0


def _load_model(cfg, ckpt_path):
    set_precision(cfg.precision)
    net = ElkppNet(cfg.model, seed=cfg.seed)
    return net, load_weights(net, cfg, ckpt_path).iteration


def cmd_eval(args):
    cfg = _load_cfg(args)
    from .data import load_split
    net, iteration = _load_model(cfg, args.checkpoint)
    samples = load_split(cfg.data_root, args.split, cfg.num_classes)
    scores = evaluate(net, samples, cfg.num_classes, cfg.batch_size)
    print("checkpoint iteration %d, split %r, %d samples"
          % (iteration, args.split, len(samples)))
    for key in ("pixel_acc", "mean_class_acc", "miou", "fwiou",
                "boundary_agreement"):
        print("%-20s %.6f" % (key, scores[key]))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.json"), "w") as f:
            json.dump(dict(scores, iteration=iteration, split=args.split),
                      f, indent=2, sort_keys=True)
            f.write("\n")
    return 0


def _tiny_model_config():
    from .lkpp import LkppConfig, default_block_specs
    from .segnet import BackboneConfig, DecoderConfig, ModelConfig
    return ModelConfig(
        num_classes=2,
        backbone=BackboneConfig(stem_channels=2, stage_channels=(2, 3, 4, 5),
                                stage_blocks=(1, 1, 1, 1)),
        decoder=DecoderConfig(stage_channels=(4, 3, 2)),
        lkpp=LkppConfig(default_block_specs(2), 2, 2),
        head_channels=3,
    )


def _gradcheck_loss_setup(seed):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    logits = Tensor(rng.standard_normal((2, 4, 8, 8)), requires_grad=True)
    labels = rng.integers(0, 4, size=(2, 8, 8)).astype(np.uint8)
    labels[0, :2, :2] = 255  # exercise the void path
    params = EdgeLossParams(lambda_reg=0.0)

    def loss_fn():
        return ece_loss(logits, labels, store=None, params=params)[0]

    return loss_fn, [("logits", logits)]


def _gradcheck_model_setup(seed):
    # Batch 4: the deepest feature maps are 1x1, so the batch is the whole
    # population each batch-norm normalizes over. Two samples there can
    # land nearly equal, and the resulting near-zero variance makes the
    # loss so sharply curved that central differences lose several digits
    # to truncation error. Four samples keep the variances healthy.
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    net = ElkppNet(_tiny_model_config(), seed=seed)
    x = Tensor(rng.standard_normal((4, 3, 16, 16)) * 0.5)
    labels = rng.integers(0, 2, size=(4, 16, 16)).astype(np.uint8)
    labels[1, -3:, -3:] = 255
    params = EdgeLossParams()

    def loss_fn():
        logits = net.forward(x, training=True)
        return ece_loss(logits, labels, net.store, params)[0]

    return loss_fn, list(net.store.items())


def cmd_gradcheck(args):
    set_verification_mode(True)
    seed = args.seed if args.seed is not None else 0
    if args.target == "loss":
        tol = args.tol if args.tol is not None else 1e-6
        loss_fn, named = _gradcheck_loss_setup(seed)
    else:
        tol = args.tol if args.tol is not None else 1e-3
        loss_fn, named = _gradcheck_model_setup(seed)
    steps = (args.step,) if args.step is not None else DEFAULT_STEPS
    report = check_gradients(loss_fn, named, steps=steps, tol=tol,
                             max_entries=args.max_entries)
    print(report.render())
    return 0 if report.passed else 1


def cmd_edge_extract(args):
    label = load_label_map(args.label, args.classes)
    params = EdgeLossParams(kernel_scale=args.scale, alpha=args.alpha)
    edges, ignore = edge_labels(label, args.classes, params)
    out = np.zeros(label.shape, dtype=np.uint8)
    out[edges > 0] = 255
    out[ignore] = 128
    save_pgm(args.out, out)
    print("edges %d, ignored %d of %d pixels -> %s"
          % (int((edges > 0).sum()), int(ignore.sum()), label.size, args.out))
    return 0


def _describe_chain(chain):
    return ", ".join("%dx%d r(%d,%d)" % (l.kernel_h, l.kernel_w, l.rate_h,
                                         l.rate_w) for l in chain)


def _report_block(index, block):
    k1 = block.pairs[0].kernel_a
    k2 = block.pairs[0].kernel_b
    rates = tuple(p.rate for p in block.pairs)
    print("block %d: kernels (%d, %d), rates %s, mode %s"
          % (index, k1, k2, rates, block.mode))
    if block.mode == "cascade":
        print("  chain: %s" % _describe_chain(equivalent_chain(block)))
    fp = block_footprint(block)
    series = rf.max_distance_series(rates, max(k1, k2))
    verdict = rf.hdc_verdict(rates, max(k1, k2))
    print("  max-distance series %s (kernel %d) -> %s"
          % (series, max(k1, k2), "pass" if verdict else "FAIL"))
    print("  footprint %dx%d, %d of %d pixels -> %s"
          % (fp.extents[0], fp.extents[1], fp.size,
             fp.extents[0] * fp.extents[1],
             "GRIDDED" if rf.has_gridding(fp) else "hole-free"))


def cmd_rf_report(args):
    cfg = _load_cfg(args)
    for i, block in enumerate(cfg.model.lkpp.blocks):
        _report_block(i, block)
    return 0


def _parse_kernels(text):
    layers = []
    for part in text.split(","):
        part = part.strip().lower()
        if "x" not in part:
            raise ValueError("kernel %r is not of the form HxW" % part)
        kh, kw = part.split("x", 1)
        layers.append((int(kh), int(kw)))
    return layers


def cmd_gridding_check(args):
    kernels = _parse_kernels(args.kernels)
    rates = [int(r) for r in args.rates.split(",")]
    if len(rates) != len(kernels):
        raise ValueError("need one rate per kernel (%d kernels, %d rates)"
                         % (len(kernels), len(rates)))
    chain = rf.layer_chain([(kh, kw, r) for (kh, kw), r in zip(kernels,
                                                               rates)])
    fp = rf.footprint_oracle(chain)
    if rf.footprint_minkowski(chain) != fp:
        raise AssertionError("footprint routes disagree")  # should not happen
    eq_kernel = args.eq_kernel or max(max(kh, kw) for kh, kw in kernels)
    series = rf.max_distance_series(rates, eq_kernel)
    verdict = rf.hdc_verdict(rates, eq_kernel)
    print("chain: %s" % _describe_chain(chain))
    print("max-distance series %s (kernel %d) -> %s"
          % (series, eq_kernel, "pass" if verdict else "FAIL"))
    print("footprint %dx%d, %d of %d pixels -> %s"
          % (fp.extents[0], fp.extents[1], fp.size,
             fp.extents[0] * fp.extents[1],
             "GRIDDED" if rf.has_gridding(fp) else "hole-free"))
    if args.mask:
        save_pgm(args.mask, fp.mask.astype(np.uint8) * 255)
        print("footprint mask written to %s" % args.mask)
    return 0


def cmd_param_report(args):
    single = rf.param_count([(5, 5)])
    pair = rf.param_count([(5, 1), (1, 5)])
    print("factorization demo: 5x5 = %d weights, 5x1 + 1x5 = %d weights "
          "(%.0f%% smaller)" % (single, pair, 100.0 * (1 - pair / single)))
    cfg = _load_cfg(args)
    net = ElkppNet(cfg.model, seed=cfg.seed)
    sections = {}
    for name, t in net.store.items():
        sections.setdefault(name.split(".")[0], [0, 0])
        sections[name.split(".")[0]][0] += 1
        sections[name.split(".")[0]][1] += t.data.size
    print("%-12s %8s %12s" % ("section", "tensors", "scalars"))
    for sec in sorted(sections):
        print("%-12s %8d %12d" % (sec, sections[sec][0], sections[sec][1]))
    print("%-12s %8d %12d" % ("total", len(net.store),
                              net.store.num_scalars()))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="elkpp",
        description="implementation and verification kit for edge-aware "
                    "dilated-convolution segmentation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="generate a synthetic shapes "
                                          "dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--train", type=int, default=128)
    p.add_argument("--val", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--void-border", type=int, default=2)
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser("train", help="train from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="runs/train")
    p.add_argument("--resume", default=None, metavar="CKPT")
    p.add_argument("--quiet", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="val")
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient "
                                         "verification")
    p.add_argument("--target", choices=("loss", "model"), default="loss")
    p.add_argument("--step", type=float, default=None,
                   help="single probe step (default: a %s refinement "
                        "ladder)" % "/".join("%.0e" % s for s in
                                             DEFAULT_STEPS))
    p.add_argument("--tol", type=float, default=None,
                   help="default 1e-6 for loss, 1e-3 for model")
    p.add_argument("--max-entries", type=int, default=None,
                   help="probe at most N positions per tensor")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("edge-extract", help="derive edge labels from a "
                                            "label map")
    p.add_argument("--label", required=True, metavar="PGM")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--out", required=True, metavar="PGM")
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--alpha", type=float, default=1.0)
    p.set_defaults(func=cmd_edge_extract)

    p = sub.add_parser("rf-report", help="receptive-field analysis of the "
                                         "pyramid blocks")
    p.add_argument("--config", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_rf_report)

    p = sub.add_parser("gridding-check", help="footprint analysis of an "
                                              "explicit convolution chain")
    p.add_argument("--kernels", required=True,
                   help="comma-separated HxW list, e.g. 3x3,3x3,3x3")
    p.add_argument("--rates", required=True,
                   help="comma-separated dilation rates, one per kernel")
    p.add_argument("--eq-kernel", type=int, default=None,
                   help="kernel size for the max-distance series")
    p.add_argument("--mask", default=None, metavar="PGM",
                   help="write the footprint mask")
    p.set_defaults(func=cmd_gridding_check)

    p = sub.add_parser("param-report", help="parameter counts and the "
                                            "factorization saving")
    p.add_argument("--config", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_param_report)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print("error: bad configuration: %s" % e, file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print("error: file not found: %s" % e, file=sys.stderr)
        return 1
    except (ValueError, OSError, AssertionError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
