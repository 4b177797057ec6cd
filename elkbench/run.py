"""Benchmark of elkpp: one workload per run, timed end to end or traced
per layer.

    env OPENBLAS_NUM_THREADS=1 python3 elkbench/run.py \\
        --workload train|eval|gradcheck --seed N --seconds S --trace 0|1

Run from the root of a checkout; elkpp is imported from its ``src/``.
The run makes its inputs from the seed, does warm-up units, runs whole
units back to back for ``--seconds``, checks the program's outputs, and
prints one JSON object as the last line of standard output. With
``--trace 0`` it holds the end-to-end metrics, with ``--trace 1`` the
per-layer ones. A record of the run (unit times, checks and, when
traced, every span) is written to ``elkbench/out/``.
"""
import time

# The run's clock starts at process start: the CPU time already spent is
# interpreter start-up, which runs on one thread without waiting.
_T0 = time.perf_counter() - time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from statistics import median  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train", "eval", "gradcheck"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Yardstick:
    """A fixed piece of work that does not touch elkpp, run between timed
    units. The machine's speed drifts by tens of percent over minutes as
    other tenants load it, and a unit's time divided by the mean time of
    the yardsticks on either side of it cancels most of that drift
    (README.md has the figures).

    Two kinds, each shaped like the work that dominates a workload:
    ``conv``, one convolution tap of the head layer (a 4 x 32 x 64 x 64
    float32 map contracted with a 32 x 32 weight over channels, copied
    back to NCHW), and ``small``, a hundred elementwise passes and
    reductions over a 4 x 3 x 16 x 16 float64 array (per-call overhead)."""

    # seconds each kind takes on the reference machine when it runs
    # fast; a normalized time is in ms at that speed
    NOMINAL = {"conv": 1.85e-3, "small": 0.8e-3}

    def __init__(self, numpy, kind):
        rng = numpy.random.default_rng(0)
        self.np = numpy
        self.kind = kind
        self.w = rng.standard_normal((32, 32)).astype(numpy.float32)
        self.fmap = rng.standard_normal((4, 32, 64, 64)).astype(numpy.float32)
        self.x = rng.standard_normal((4, 3, 16, 16))

    def __call__(self):
        np = self.np
        start = time.perf_counter()
        if self.kind == "conv":
            np.ascontiguousarray(np.tensordot(
                self.fmap, self.w, axes=([1], [0])).transpose(0, 3, 1, 2))
        else:
            for _ in range(100):
                t = self.x + self.x
                t *= 0.5
                np.maximum(t, 0.0, out=t)
                t.sum(axis=(0, 2, 3))
        return time.perf_counter() - start


class Units:
    """Counts and times units of work; each unit is a span of its own.
    With a yardstick, one yardstick run precedes each unit and one more
    follows the last (``close``). ``times`` holds None for a unit that
    raised."""

    now = staticmethod(time.perf_counter)

    def __init__(self, tracer, yardstick=None):
        self.tr = tracer
        self.yardstick = yardstick
        self.times = []
        self.yard_times = []
        self.attempted = 0
        self.failed = 0

    def call(self, fn):
        """Run one unit; a unit that raises is counted as failed, its
        traceback printed, and None returned."""
        try:
            return self.wrap(fn)()
        except Exception:
            traceback.print_exc()
            return None

    def wrap(self, fn):
        """``fn`` timed as one unit per call; exceptions propagate."""
        def timed(*args):
            if self.yardstick:
                self.yard_times.append(self.yardstick())
            self.attempted += 1
            start = time.perf_counter()
            try:
                with self.tr.span("unit"):
                    result = fn(*args)
            except Exception:
                self.failed += 1
                self.times.append(None)
                raise
            self.times.append(time.perf_counter() - start)
            return result
        return timed

    def close(self):
        if self.yardstick:
            self.yard_times.append(self.yardstick())

    def completed(self):
        return [t for t in self.times if t is not None]

    def speed(self):
        """Nominal over measured time of the first five yardstick runs,
        the ones nearest the set-up: below 1 when the machine runs slow."""
        return Yardstick.NOMINAL[self.yardstick.kind] \
            / median(self.yard_times[:5])

    def step_ms(self):
        """The step statistic: the median over units of the unit's time
        divided by the mean time of the yardsticks before and after it,
        in ms at nominal speed."""
        y = self.yard_times
        return 1000.0 * Yardstick.NOMINAL[self.yardstick.kind] * median(
            [2.0 * t / (y[i] + y[i + 1])
             for i, t in enumerate(self.times) if t is not None])


def layer_metrics(tracer, setup, units, rounds):
    n = units.attempted
    total = tracer.totals()

    def ms(seconds):
        return 1000.0 * seconds / n

    def span_ms(name):
        return ms(total.get(name, 0.0))

    ece = tracer.child_totals("edge_loss.ece")
    check_children = tracer.child_totals("gradcheck.check")
    conv_s = total.get("nn.conv2d", 0.0) \
        + total.get("tensor.backward.conv2d", 0.0)
    flop = tracer.counts.get("nn.conv_flop", 0)
    m = {"setup.%s_s" % k: (v, "s") for k, v in setup.items()}
    for name in ("data.batch", "segnet.encoder", "lkpp.forward",
                 "segnet.decoder", "segnet.head", "edge_loss.ce",
                 "edge_loss.edge_labels", "edge_loss.reg", "tensor.backward",
                 "tensor.backward.conv2d", "tensor.backward.batch_norm",
                 "tensor.backward.bilinear_resize",
                 "tensor.backward.pad_replicate", "tensor.backward.other",
                 "train.adam", "metrics.confusion", "metrics.boundary"):
        m[name + "_ms"] = (span_ms(name), "ms")
    m["edge_loss.edge_term_ms"] = (ms(
        total.get("edge_loss.ece", 0.0) - ece.get("edge_loss.ce", 0.0)
        - ece.get("edge_loss.edge_labels", 0.0)
        - ece.get("edge_loss.reg", 0.0)), "ms")
    m["gradcheck.self_ms"] = (ms(total.get("gradcheck.check", 0.0)
                                 - sum(check_children.values())), "ms")
    m["gradcheck.loss_evals_per_round"] = (n / rounds if rounds else 0,
                                           "count")
    m["tensor.nodes_per_step"] = (tracer.counts.get("tensor.nodes", 0) / n,
                                  "count")
    m["nn.conv_calls_per_step"] = (tracer.counts.get("nn.conv_calls", 0) / n,
                                   "count")
    m["nn.conv_gflop_per_step"] = (flop / n / 1e9, "GFLOP")
    m["nn.conv_gflop_per_s"] = (flop / conv_s / 1e9 if conv_s else 0.0,
                                "GFLOP/s")
    return m


def main(argv=None):
    args = parse_args(argv)
    clock = time.perf_counter
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import numpy
        import spans
        import workloads
    except ImportError as e:
        print("elkbench: cannot import elkpp from %s: %s"
              % (os.path.join(ROOT, "src"), e), file=sys.stderr)
        return 2
    marks = {"import": clock()}

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.make_inputs()
        marks["data"] = clock()
        wl.build()
        marks["build"] = clock()
        yardstick = None if args.trace else Yardstick(numpy, wl.yardstick)
        for _ in range(wl.warmup_units):
            if yardstick:
                yardstick()
            result = wl.unit()
            if result is not None:
                wl.account(result)
        marks["warmup"] = clock()

        tracer = spans.Tracer() if args.trace else spans.NULL
        if args.trace:
            restore = tracer.instrument(wl.net)
            wl.tr = tracer
            tracer.start()
        units = Units(tracer, yardstick)
        first = clock()
        wl.run(units, first + args.seconds)
        elapsed = clock() - first
        units.close()
        if args.trace:
            tracer.stop()
            restore()
            wl.tr = spans.NULL
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        results = dict(wl.checks())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (ok, detail) in results.items():
        print("check %-24s %s  %s" % (name, "ok" if ok else "FAIL", detail),
              file=sys.stderr)
    if not units.completed():
        print("elkbench: no unit completed", file=sys.stderr)
        return 1

    previous = _T0
    setup = {}
    for phase in ("import", "data", "build", "warmup"):
        setup[phase] = marks[phase] - previous
        previous = marks[phase]
    if args.trace:
        metrics = layer_metrics(tracer, setup, units,
                                len(getattr(wl, "reports", ())))
    else:
        metrics = {"setup_s": ((first - _T0) * units.speed(), "s"),
                   "step_ms": (units.step_ms(), "ms"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    out = {
        "correct": all(ok for ok, _ in results.values()),
        "attempted": units.attempted,
        "failed": units.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    record = dict(out, workload=args.workload, seed=args.seed,
                  seconds=elapsed, setup=setup, unit_times=units.times,
                  yardstick_times=units.yard_times,
                  checks={k: list(v) for k, v in results.items()})
    if args.trace:
        record["trace"] = tracer.dump()
    path = os.path.join(OUT, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(record, f)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
