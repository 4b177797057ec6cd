"""Binary checkpoint format.

Little-endian layout:

* magic ``ELKP``, version byte (1)
* iteration count, u64
* 32-byte configuration digest
* tensor count, u32
* per tensor: name length u16 + UTF-8 name, rank u8, extents u32 each,
  then float32 payload in row-major order

Tensor names carry a section prefix: ``p/`` parameters, ``o/`` optimizer
state, ``b/`` buffers. Names are written in sorted order, so identical
states produce identical bytes, and a save/load/save cycle round-trips
bit for bit.
"""
from __future__ import annotations

import contextlib
import json
import os
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"ELKP"
VERSION = 1
_DIGEST_LEN = 32


@dataclass
class Checkpoint:
    iteration: int
    config_digest: bytes
    params: dict
    optim: dict
    buffers: dict

    def all_tensors(self):
        out = {}
        for prefix, section in (("p/", self.params), ("o/", self.optim),
                                ("b/", self.buffers)):
            out.update((prefix + k, v) for k, v in section.items())
        return out


@contextlib.contextmanager
def atomic_write(path, mode="wb"):
    """Open ``path + ".tmp"`` for writing and move it onto ``path`` once
    the block exits cleanly, so that ``path`` always holds either the
    previous file or the complete new one. If the block raises, the temp
    file is removed and ``path`` is left as it was."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, mode) as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_json(path, doc):
    """Write ``doc`` to ``path`` as indented, key-sorted JSON through
    :func:`atomic_write`."""
    with atomic_write(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_tensor(f, name, arr):
    # asarray (not ascontiguousarray) so 0-d scalars keep rank 0
    arr = np.asarray(arr, dtype="<f4")
    if not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    encoded = name.encode("utf-8")
    f.write(struct.pack("<H", len(encoded)))
    f.write(encoded)
    f.write(struct.pack("<B", arr.ndim))
    for dim in arr.shape:
        f.write(struct.pack("<I", dim))
    f.write(arr.tobytes())


def save_checkpoint(path, iteration, config_digest, params, optim, buffers):
    if len(config_digest) != _DIGEST_LEN:
        raise ValueError("config digest must be %d bytes" % _DIGEST_LEN)
    named = Checkpoint(iteration, config_digest, dict(params), dict(optim),
                       dict(buffers)).all_tensors()
    with atomic_write(path) as f:
        f.write(MAGIC)
        f.write(struct.pack("<B", VERSION))
        f.write(struct.pack("<Q", iteration))
        f.write(config_digest)
        f.write(struct.pack("<I", len(named)))
        for name in sorted(named):
            _write_tensor(f, name, named[name])


def _read_exact(f, n, what):
    raw = f.read(n)
    if len(raw) != n:
        raise ValueError("checkpoint truncated while reading %s" % what)
    return raw


def load_checkpoint(path):
    with open(path, "rb") as f:
        if _read_exact(f, 4, "magic") != MAGIC:
            raise ValueError("%s is not a checkpoint (bad magic)" % path)
        version = struct.unpack("<B", _read_exact(f, 1, "version"))[0]
        if version != VERSION:
            raise ValueError("unsupported checkpoint version %d" % version)
        iteration = struct.unpack("<Q", _read_exact(f, 8, "iteration"))[0]
        digest = _read_exact(f, _DIGEST_LEN, "digest")
        count = struct.unpack("<I", _read_exact(f, 4, "tensor count"))[0]
        sections = {"p": {}, "o": {}, "b": {}}
        for _ in range(count):
            name_len = struct.unpack("<H", _read_exact(f, 2, "name"))[0]
            name = _read_exact(f, name_len, "name").decode("utf-8")
            rank = struct.unpack("<B", _read_exact(f, 1, "rank"))[0]
            shape = tuple(struct.unpack("<I", _read_exact(f, 4, "extent"))[0]
                          for _ in range(rank))
            n_items = int(np.prod(shape, dtype=np.int64)) if rank else 1
            raw = _read_exact(f, 4 * n_items, "tensor %r" % name)
            arr = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
            prefix, _, rest = name.partition("/")
            if prefix not in sections or not rest:
                raise ValueError("unknown tensor section in %r" % name)
            sections[prefix][rest] = arr
        if f.read(1):
            raise ValueError("trailing bytes after checkpoint payload")
    return Checkpoint(iteration, digest, sections["p"], sections["o"],
                      sections["b"])
