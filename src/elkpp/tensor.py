"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays. Every differentiable operation passes
:meth:`Tensor._node` its output, its inputs and its backward rule (a
function of the output's gradient that accumulates into the inputs'
``.grad``), and ``_node`` records the node on the tape only when
recording is enabled and some input requires grad. Calling
:func:`backward` on a scalar walks that graph once in reverse
topological order and runs each recorded rule.

Precision is a process-global switch: float32 by default, float64 in
verification mode, which additionally traps non-finite values after every
primitive and rejects out-of-domain log/sqrt inputs.

Conventions:

* op outputs are treated as immutable once produced; the one sanctioned
  mutation point is an optimizer updating leaf parameters between steps
* ``backward`` resets the gradients of every node reachable from the loss
  before accumulating, so repeated calls on the same graph are bit-identical
* broadcasting is restricted to scalar-with-tensor; equal shapes otherwise
"""
from __future__ import annotations

import contextlib
import weakref

import numpy as np

_PRECISIONS = {"f32": np.float32, "f64": np.float64}
_state = {"precision": "f32", "nan_trap": False, "grad": True}


def set_precision(name):
    if name not in _PRECISIONS:
        raise ValueError("precision must be 'f32' or 'f64', got %r" % (name,))
    _state["precision"] = name


def precision():
    return _state["precision"]


def default_dtype():
    return _PRECISIONS[_state["precision"]]


def set_verification_mode(enabled):
    """64-bit arithmetic plus a hard error on any non-finite value."""
    _state["precision"] = "f64" if enabled else "f32"
    _state["nan_trap"] = bool(enabled)


@contextlib.contextmanager
def no_grad():
    """Disable graph recording; outputs inside are constants."""
    old = _state["grad"]
    _state["grad"] = False
    try:
        yield
    finally:
        _state["grad"] = old


def _trap(arr, op):
    if _state["nan_trap"] and not np.all(np.isfinite(arr)):
        raise FloatingPointError("non-finite value produced by %r" % op)
    return arr


class Tensor:
    """A numpy array plus an optional gradient accumulator and tape entry."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents",
                 "_backward", "__weakref__")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=default_dtype())
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self._parents = ()
        self._backward = None

    @classmethod
    def _node(cls, data, parents, rule, op):
        """Wrap an op output. When recording is enabled and some parent
        requires grad, the node keeps its parents and a ``_backward`` that
        calls ``rule(out.grad)``; otherwise it keeps neither, so the rule
        and what it closes over are freed when the op returns."""
        out = cls.__new__(cls)
        out.data = _trap(data, op)
        out.grad = None
        out.op = op
        out.requires_grad = _state["grad"] and any(
            p.requires_grad for p in parents)
        out._parents = ()
        out._backward = None
        if out.requires_grad:
            out._parents = tuple(parents)
            # through a weak reference: a closure over ``out`` itself would
            # make every node a reference cycle, so a step's graph would
            # outlive its last use until the cyclic collector ran
            ref = weakref.ref(out)
            out._backward = lambda: rule(ref().grad)
        return out

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return "Tensor(shape=%s, op=%s%s)" % (
            self.data.shape, self.op, ", grad" if self.requires_grad else "")

    def _accum(self, delta):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += delta

    # -- elementwise binary --------------------------------------------

    def __add__(self, other):
        return _binary("add", self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return _binary("sub", self, other)

    def __rsub__(self, other):
        return _binary("sub", _const_like(other, self), self)

    def __mul__(self, other):
        return _binary("mul", self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _binary("div", self, other)

    def __neg__(self):
        return self * -1.0

    # -- elementwise unary ----------------------------------------------

    def relu(self):
        a = self
        # subgradient 0 at exactly 0
        return Tensor._node(np.maximum(a.data, 0), (a,),
                            lambda g: a._accum(g * (a.data > 0)), "relu")

    def exp(self):
        a = self
        data = np.exp(a.data)
        return Tensor._node(data, (a,), lambda g: a._accum(g * data), "exp")

    def log(self):
        a = self
        if _state["nan_trap"] and np.any(a.data <= 0):
            raise FloatingPointError("log of non-positive input")
        with np.errstate(divide="ignore", invalid="ignore"):
            data = np.log(a.data)
        return Tensor._node(data, (a,), lambda g: a._accum(g / a.data), "log")

    def sqrt(self):
        a = self
        if _state["nan_trap"] and np.any(a.data < 0):
            raise FloatingPointError("sqrt of negative input")
        with np.errstate(invalid="ignore"):
            data = np.sqrt(a.data)
        return Tensor._node(data, (a,),
                            lambda g: a._accum(g * 0.5 / data), "sqrt")

    def clip(self, lo, hi):
        """Clamp to [lo, hi]; gradient passes through wherever the input
        already lay inside the closed interval."""
        a = self
        return Tensor._node(
            np.clip(a.data, lo, hi), (a,),
            lambda g: a._accum(g * ((a.data >= lo) & (a.data <= hi))), "clip")

    # -- reductions ------------------------------------------------------

    def sum(self, axes=None, keepdims=False):
        return _reduce("sum", self, axes, keepdims)

    def mean(self, axes=None, keepdims=False):
        return _reduce("mean", self, axes, keepdims)

    # -- shape -----------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        return Tensor._node(a.data.reshape(shape), (a,),
                            lambda g: a._accum(g.reshape(a.data.shape)),
                            "reshape")


def _const_like(value, ref):
    t = Tensor(0.0)
    t.data = np.asarray(value, dtype=ref.data.dtype)
    return t


def _coerce_pair(a, b, op):
    """Validate the scalar-with-tensor broadcasting contract."""
    if not isinstance(a, Tensor):
        a = _const_like(a, b)
    if not isinstance(b, Tensor):
        b = _const_like(b, a)
    if a.data.shape != b.data.shape and a.data.size != 1 and b.data.size != 1:
        raise ValueError("%s: shape mismatch %s vs %s (only scalar broadcast "
                         "is supported)" % (op, a.data.shape, b.data.shape))
    return a, b


def _reduce_to(grad, shape):
    # undo scalar broadcast: collapse the gradient back to the operand shape
    if grad.shape == shape:
        return grad
    return grad.sum().reshape(shape) if shape else np.asarray(grad.sum())


def _binary(kind, a, b):
    a, b = _coerce_pair(a, b, kind)
    x, y = a.data, b.data
    # ga and gb map the output gradient to each operand's gradient
    if kind == "add":
        data, ga, gb = x + y, (lambda g: g), (lambda g: g)
    elif kind == "sub":
        data, ga, gb = x - y, (lambda g: g), (lambda g: -g)
    elif kind == "mul":
        data, ga, gb = x * y, (lambda g: g * y), (lambda g: g * x)
    else:  # "div"
        with np.errstate(divide="ignore", invalid="ignore"):
            data = x / y
        ga, gb = (lambda g: g / y), (lambda g: -g * x / (y * y))

    def rule(g):
        if a.requires_grad:
            a._accum(_reduce_to(ga(g), x.shape))
        if b.requires_grad:
            b._accum(_reduce_to(gb(g), y.shape))

    return Tensor._node(data, (a, b), rule, kind)


def _reduce(op, a, axes, keepdims):
    """Sum or mean over ``axes`` (all axes when None)."""
    ndim = a.data.ndim
    if axes is None:
        axes = range(ndim)
    elif isinstance(axes, int):
        axes = (axes,)
    axes = tuple(sorted(ax % ndim for ax in axes))
    count = 1
    for ax in axes:
        if a.data.shape[ax] == 0:
            raise ValueError("reduction over empty axis %d" % ax)
        count *= a.data.shape[ax]
    data = a.data.sum(axis=axes, keepdims=keepdims)
    if op == "mean":
        data = data / count

    def rule(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        g = np.broadcast_to(g, a.data.shape)
        a._accum(g / count if op == "mean" else g)

    return Tensor._node(data, (a,), rule, op)


def concat(tensors, axis):
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]

    def rule(g):
        splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t._accum(piece)

    return Tensor._node(np.concatenate([t.data for t in tensors], axis=axis),
                        tuple(tensors), rule, "concat")


def _toposort(root):
    order = []
    visited = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, it = stack[-1]
        advanced = False
        for p in it:
            if id(p) not in visited and p.requires_grad:
                visited.add(id(p))
                stack.append((p, iter(p._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    return order


def backward(loss, store=None):
    """Accumulate d(loss)/d(node) into ``.grad`` over the whole graph.

    Gradients of every reachable node are reset first, so a repeated call
    reproduces the same values bit for bit. Parameters that the graph does
    not reach keep whatever gradient they held; with ``store``, those
    holding none get zeros.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor loss")
    if loss.data.size != 1:
        raise ValueError("backward needs a scalar loss, got shape %s"
                         % (loss.data.shape,))
    if not loss.requires_grad:
        raise ValueError("loss does not depend on any tracked parameter")
    order = _toposort(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None:
            node._backward()
    if store is not None:
        for t in store.tensors():
            if t.grad is None:
                t.grad = np.zeros_like(t.data)


class ParameterStore:
    """Named trainable tensors, ordered by insertion.

    Iteration order is deterministic, which fixes the layout of
    checkpoints and the accumulation order of the weight regularizer.
    """

    def __init__(self):
        self._params = {}

    def add(self, name, value):
        if name in self._params:
            raise ValueError("duplicate parameter %r" % name)
        t = value if isinstance(value, Tensor) else Tensor(value)
        t.requires_grad = True
        t.grad = np.zeros_like(t.data)
        self._params[name] = t
        return t

    def __getitem__(self, name):
        return self._params[name]

    def __len__(self):
        return len(self._params)

    def items(self):
        return self._params.items()

    def tensors(self):
        return self._params.values()

    def zero_grads(self):
        for t in self._params.values():
            t.grad = np.zeros_like(t.data)

    def num_scalars(self):
        return sum(t.data.size for t in self._params.values())

    def state_dict(self):
        return {k: t.data.copy() for k, t in self._params.items()}

    def load_state_dict(self, state):
        missing = set(self._params) - set(state)
        extra = set(state) - set(self._params)
        if missing or extra:
            raise ValueError("parameter set mismatch: missing %s, unexpected %s"
                             % (sorted(missing), sorted(extra)))
        for k, t in self._params.items():
            arr = np.asarray(state[k], dtype=t.data.dtype)
            if arr.shape != t.data.shape:
                raise ValueError("shape mismatch for %r: %s vs %s"
                                 % (k, arr.shape, t.data.shape))
            t.data = arr.copy()
