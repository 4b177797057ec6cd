"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays. Every differentiable operation links its output
to its inputs and records a backward rule as a closure; calling
:func:`backward` on a scalar walks that graph once in reverse topological
order and accumulates gradients additively into ``.grad``.

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


def verification_mode():
    return _state["nan_trap"]


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

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=default_dtype())
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self._parents = ()
        self._backward = None

    @classmethod
    def _node(cls, data, parents, backward, op):
        """Wrap an op output. Records the tape entry only when some parent
        still requires grad and recording is enabled."""
        out = cls.__new__(cls)
        out.data = _trap(data, op)
        out.grad = None
        out.op = op
        if _state["grad"] and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
        return out

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def numpy(self):
        return self.data

    def item(self):
        return float(self.data)

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
        out = Tensor._node(np.maximum(a.data, 0), (a,), None, "relu")
        if out.requires_grad:
            # subgradient 0 at exactly 0
            out._backward = lambda o=out: a._accum(o.grad * (a.data > 0))
        return out

    def exp(self):
        a = self
        out = Tensor._node(np.exp(a.data), (a,), None, "exp")
        if out.requires_grad:
            out._backward = lambda o=out: a._accum(o.grad * o.data)
        return out

    def log(self):
        a = self
        if _state["nan_trap"] and np.any(a.data <= 0):
            raise FloatingPointError("log of non-positive input")
        with np.errstate(divide="ignore", invalid="ignore"):
            out = Tensor._node(np.log(a.data), (a,), None, "log")
        if out.requires_grad:
            out._backward = lambda o=out: a._accum(o.grad / a.data)
        return out

    def sqrt(self):
        a = self
        if _state["nan_trap"] and np.any(a.data < 0):
            raise FloatingPointError("sqrt of negative input")
        with np.errstate(invalid="ignore"):
            out = Tensor._node(np.sqrt(a.data), (a,), None, "sqrt")
        if out.requires_grad:
            out._backward = lambda o=out: a._accum(o.grad * 0.5 / o.data)
        return out

    def clip(self, lo, hi):
        """Clamp to [lo, hi]; gradient passes through wherever the input
        already lay inside the closed interval."""
        a = self
        out = Tensor._node(np.clip(a.data, lo, hi), (a,), None, "clip")
        if out.requires_grad:
            mask = (a.data >= lo) & (a.data <= hi)
            out._backward = lambda o=out: a._accum(o.grad * mask)
        return out

    # -- reductions ------------------------------------------------------

    def sum(self, axes=None, keepdims=False):
        return reduce("sum", self, axes, keepdims)

    def mean(self, axes=None, keepdims=False):
        return reduce("mean", self, axes, keepdims)

    def max(self, axes=None, keepdims=False):
        return reduce("max", self, axes, keepdims)

    # -- shape -----------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        out = Tensor._node(a.data.reshape(shape), (a,), None, "reshape")
        if out.requires_grad:
            out._backward = lambda o=out: a._accum(o.grad.reshape(a.data.shape))
        return out


def _const_like(value, ref):
    t = Tensor.__new__(Tensor)
    t.data = np.asarray(value, dtype=ref.data.dtype)
    t.grad = None
    t.requires_grad = False
    t.op = "const"
    t._parents = ()
    t._backward = None
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
    if kind == "add":
        data = x + y
        def bwd(o):
            if a.requires_grad:
                a._accum(_reduce_to(o.grad, x.shape))
            if b.requires_grad:
                b._accum(_reduce_to(o.grad, y.shape))
    elif kind == "sub":
        data = x - y
        def bwd(o):
            if a.requires_grad:
                a._accum(_reduce_to(o.grad, x.shape))
            if b.requires_grad:
                b._accum(_reduce_to(-o.grad, y.shape))
    elif kind == "mul":
        data = x * y
        def bwd(o):
            if a.requires_grad:
                a._accum(_reduce_to(o.grad * y, x.shape))
            if b.requires_grad:
                b._accum(_reduce_to(o.grad * x, y.shape))
    elif kind == "div":
        with np.errstate(divide="ignore", invalid="ignore"):
            data = x / y
        def bwd(o):
            if a.requires_grad:
                a._accum(_reduce_to(o.grad / y, x.shape))
            if b.requires_grad:
                b._accum(_reduce_to(-o.grad * x / (y * y), y.shape))
    else:  # "max"
        data = np.maximum(x, y)
        # ties route to the first argument
        def bwd(o):
            if a.requires_grad:
                a._accum(_reduce_to(o.grad * (x >= y), x.shape))
            if b.requires_grad:
                b._accum(_reduce_to(o.grad * (x < y), y.shape))
    out = Tensor._node(data, (a, b), None, kind)
    if out.requires_grad:
        out._backward = lambda o=out: bwd(o)
    return out


def maximum(a, b):
    return _binary("max", a, b)


def _norm_axes(axes, ndim):
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    return tuple(sorted(ax % ndim for ax in axes))


def reduce(op_kind, a, axes=None, keepdims=False):
    """Reduce over ``axes`` (all axes when None).

    ``max`` routes the full gradient to the first maximal element along
    the reduced axes, matching argmax order.
    """
    if not isinstance(a, Tensor):
        a = Tensor(a)
    axes = _norm_axes(axes, a.data.ndim)
    for ax in axes:
        if a.data.shape[ax] == 0:
            raise ValueError("reduction over empty axis %d" % ax)

    if op_kind in ("sum", "mean"):
        count = 1
        for ax in axes:
            count *= a.data.shape[ax]
        data = a.data.sum(axis=axes, keepdims=keepdims)
        if op_kind == "mean":
            data = data / count

        def bwd(o):
            g = o.grad
            if not keepdims:
                g = np.expand_dims(g, axes)
            g = np.broadcast_to(g, a.data.shape)
            a._accum(g / count if op_kind == "mean" else g.copy())

        out = Tensor._node(data, (a,), None, op_kind)
        if out.requires_grad:
            out._backward = lambda o=out: bwd(o)
        return out

    if op_kind == "max":
        keep = tuple(ax for ax in range(a.data.ndim) if ax not in axes)
        perm = keep + axes
        moved = a.data.transpose(perm)
        keep_shape = moved.shape[:len(keep)]
        flat = moved.reshape(keep_shape + (-1,))
        idx = flat.argmax(axis=-1)
        data = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
        if keepdims:
            shape = list(a.data.shape)
            for ax in axes:
                shape[ax] = 1
            out_data = data.reshape(shape)
        else:
            out_data = data

        def bwd(o):
            g = o.grad.reshape(keep_shape)
            gflat = np.zeros_like(flat)
            np.put_along_axis(gflat, idx[..., None], g[..., None], axis=-1)
            gmoved = gflat.reshape(moved.shape)
            inv = np.argsort(perm)
            a._accum(gmoved.transpose(inv))

        out = Tensor._node(out_data, (a,), None, "max")
        if out.requires_grad:
            out._backward = lambda o=out: bwd(o)
        return out

    raise ValueError("unknown reduction %r" % op_kind)


def concat(tensors, axis):
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    datas = [t.data for t in tensors]
    out = Tensor._node(np.concatenate(datas, axis=axis), tuple(tensors),
                       None, "concat")
    if out.requires_grad:
        sizes = [d.shape[axis] for d in datas]
        splits = np.cumsum(sizes)[:-1]

        def bwd(o):
            for t, piece in zip(tensors, np.split(o.grad, splits, axis=axis)):
                if t.requires_grad:
                    t._accum(piece)

        out._backward = lambda o=out: bwd(o)
    return out


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
    reproduces the same values bit for bit. Parameters that do not appear
    in the graph are left untouched (their gradient stays zero).
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

    def __contains__(self, name):
        return name in self._params

    def __len__(self):
        return len(self._params)

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def tensors(self):
        return self._params.values()

    def grad(self, name):
        t = self._params[name]
        return t.grad if t.grad is not None else np.zeros_like(t.data)

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
