"""Spans and counters for the traced run.

A span is ``[name, start, end, parent]``: two ``perf_counter`` readings
and the index of the span that was open when it began (-1 at the top).
Spans stay in memory and are written out once the run ends. Only the
timed phase is recorded: :meth:`Tracer.start` and :meth:`Tracer.stop`
bracket it.

Every span is opened from this benchmark's own code, around calls into
elkpp. :meth:`Tracer.instrument` installs the wrappers for the calls the
program makes internally (the network's sub-modules, the loss terms,
the convolution, the backward pass and each tape node's backward rule)
by replacing instance and module attributes, and returns a function
that puts the originals back. Nothing under ``src/`` changes.

The untraced run uses :data:`NULL`, whose spans cost one attribute
lookup and an empty ``with`` block.
"""
from __future__ import annotations

import contextlib
import time

# tape op kinds that get their own backward bucket; all others are "other"
BACKWARD_KINDS = ("conv2d", "batch_norm", "bilinear_resize", "pad_replicate")


class NullTracer:
    """Records nothing; used for the end-to-end run."""

    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null


NULL = NullTracer()


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._active = False

    def start(self):
        self._active = True

    def stop(self):
        self._active = False

    def count(self, name, amount=1):
        if self._active:
            self.counts[name] = self.counts.get(name, 0) + amount

    @contextlib.contextmanager
    def span(self, name):
        if not self._active:
            yield
            return
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, self._stack[-1]
               if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    # -- instrumentation of elkpp -------------------------------------------

    def instrument(self, net):
        """Install span and counter wrappers around the layers of ``net``
        and the module functions elkpp calls internally. Returns a
        function that removes them again."""
        from elkpp import edge_loss, gradcheck, nn, tensor

        undo = []

        def patch(owner, attr, value):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        for attr, name in (("encoder", "segnet.encoder"),
                           ("lkpp", "lkpp.forward"),
                           ("decoder", "segnet.decoder"),
                           ("head", "segnet.head"),
                           ("classifier", "segnet.head")):
            patch(net, attr, self.wrap(name, getattr(net, attr)))
        conv = self._counted_conv(nn.dilated_conv2d)
        patch(nn, "dilated_conv2d", conv)
        patch(edge_loss, "dilated_conv2d", conv)
        for attr, name in (("ce_loss", "edge_loss.ce"),
                           ("edge_labels", "edge_loss.edge_labels"),
                           ("regularizer", "edge_loss.reg")):
            patch(edge_loss, attr, self.wrap(name, getattr(edge_loss, attr)))
        traced_backward = self._split_backward(tensor.backward)
        patch(tensor, "backward", traced_backward)
        patch(gradcheck, "backward", traced_backward)

        def restore():
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)
        return restore

    def _counted_conv(self, conv):
        """Forward-conv span plus call and flop counters. A tap product
        costs 2 * N * OH * OW * O * C flops per tap; the backward pass
        repeats it once for the weight gradient and once for the input
        gradient, each only when that operand is tracked."""
        def traced(x, spec, weights, bias=None):
            with self.span("nn.conv2d"):
                out = conv(x, spec, weights, bias)
            n, o, oh, ow = out.data.shape
            flop = (2 * n * oh * ow * o * spec.in_channels
                    * spec.kernel_h * spec.kernel_w)
            passes = 1
            if out.requires_grad:
                passes += int(weights.requires_grad)
                passes += int(getattr(x, "requires_grad", False))
            self.count("nn.conv_calls")
            self.count("nn.conv_flop", flop * passes)
            return out
        return traced

    def _split_backward(self, backward):
        """``backward`` inside a span, with every recorded tape node's
        backward rule wrapped in a span named after its op kind."""
        def traced(loss, store=None):
            nodes = 0
            seen = set()
            todo = [loss]
            while todo:
                node = todo.pop()
                if id(node) in seen:
                    continue
                seen.add(id(node))
                if node._backward is not None:
                    kind = node.op if node.op in BACKWARD_KINDS else "other"
                    node._backward = self.wrap("tensor.backward." + kind,
                                               node._backward)
                    nodes += 1
                todo.extend(p for p in node._parents if p.requires_grad)
            self.count("tensor.nodes", nodes)
            with self.span("tensor.backward"):
                return backward(loss, store)
        return traced

    # -- summary ------------------------------------------------------------

    def totals(self):
        """Summed duration per span name, in seconds."""
        out = {}
        for name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def child_totals(self, parent_name):
        """Summed duration per name of the direct children of every span
        called ``parent_name``."""
        out = {}
        for name, start, end, parent in self.spans:
            if parent >= 0 and self.spans[parent][0] == parent_name:
                out[name] = out.get(name, 0.0) + (end - start)
        return out

    def dump(self):
        return {"spans": self.spans, "counts": self.counts}
