"""Run configuration: one strict JSON document per training run.

The frozen dataclasses are the schema: every field with a default is a
key, and its value must have the type of that default. Unknown keys
anywhere in the document are errors, so typos fail loudly instead of
silently running defaults. The fully resolved configuration
has a canonical serialization whose SHA-256 digest is embedded in
checkpoints to guard resumes against mismatched setups.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json

from .edge_loss import EdgeLossParams
from .lkpp import HadcBlockSpec, LkppConfig, auto_width
from .segnet import BackboneConfig, DecoderConfig, ModelConfig


class ConfigError(ValueError):
    pass


@dataclasses.dataclass(frozen=True)
class TrainConfig:
    data_root: str = ""
    num_classes: int = 4
    seed: int = 0
    precision: str = "f32"
    batch_size: int = 4
    total_iterations: int = 2000
    base_lr: float = 2.5e-4
    poly_power: float = 0.9
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    log_interval: int = 10
    eval_interval: int = 200
    checkpoint_interval: int = 200
    loss: EdgeLossParams = dataclasses.field(default_factory=EdgeLossParams)
    model: ModelConfig = None

    def __post_init__(self):
        if self.precision not in ("f32", "f64"):
            raise ConfigError("precision must be 'f32' or 'f64'")
        for f in ("num_classes", "batch_size", "total_iterations",
                  "log_interval", "eval_interval", "checkpoint_interval"):
            if getattr(self, f) < 1:
                raise ConfigError("%s must be >= 1" % f)
        if self.base_lr <= 0:
            raise ConfigError("base_lr must be positive")
        if not 0 < self.poly_power:
            raise ConfigError("poly_power must be positive")
        if self.model is None:
            object.__setattr__(self, "model",
                               ModelConfig(num_classes=self.num_classes))
        elif self.model.num_classes != self.num_classes:
            raise ConfigError("model num_classes disagrees with num_classes")


def _check_unknown(d, allowed, where):
    if not isinstance(d, dict):
        raise ConfigError("%s must be a JSON object" % where)
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError("unknown key(s) in %s: %s"
                          % (where, ", ".join(unknown)))


def _value(v, default, where):
    """``v`` checked against the type of ``default``."""
    if isinstance(default, bool):
        if not isinstance(v, bool):
            raise ConfigError("%s must be a boolean" % where)
        return v
    if isinstance(default, int):
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError("%s must be an integer" % where)
        return v
    if isinstance(default, float):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError("%s must be a number" % where)
        return float(v)
    if isinstance(default, str):
        if not isinstance(v, str):
            raise ConfigError("%s must be a string" % where)
        return v
    if isinstance(default, tuple):
        if (not isinstance(v, list) or len(v) != len(default)
                or any(isinstance(x, bool) or not isinstance(x, int)
                       for x in v)):
            raise ConfigError("%s must be a list of %d integers"
                              % (where, len(default)))
        return tuple(v)
    raise AssertionError(where)


def _keyed_fields(cls):
    """The fields of ``cls`` that are JSON keys, with their defaults.
    A field without a default is supplied by the enclosing object."""
    for f in dataclasses.fields(cls):
        if f.default_factory is not dataclasses.MISSING:
            yield f.name, f.default_factory()
        elif f.default is not dataclasses.MISSING:
            yield f.name, f.default


def _fields(cls, d, where, custom=()):
    """Constructor arguments of dataclass ``cls`` read from the JSON
    object ``d``: each value is checked against the type of the field's
    default, nested dataclasses are read recursively and absent keys keep
    their defaults. Keys named in ``custom`` are left to the caller."""
    keyed = dict(_keyed_fields(cls))
    _check_unknown(d, keyed, where)
    kw = {}
    for name, default in keyed.items():
        if name in custom:
            continue
        if dataclasses.is_dataclass(default):
            sub = name if where == "config" else "%s.%s" % (where, name)
            kw[name] = _build(type(default),
                              _fields(type(default), d.get(name, {}), sub),
                              sub)
        elif name in d:
            kw[name] = _value(d[name], default, "%s.%s" % (where, name))
    return kw


def _build(cls, kw, where):
    try:
        return cls(**kw)
    except ValueError as e:
        raise ConfigError("%s: %s" % (where, e)) from e


_LKPP_WIDTHS = ("branch_channels", "skip_channels", "global_channels")


def _read_lkpp(d, top_channels):
    """``model.lkpp``: kernel pairs, merge mode and branch widths, where a
    width of 0 means ``lkpp.auto_width(top_channels)``."""
    where = "model.lkpp"
    _check_unknown(d, ("kernel_pairs", "mode") + _LKPP_WIDTHS, where)
    pairs = d.get("kernel_pairs", [[3, 3], [3, 5], [3, 7]])
    if (not isinstance(pairs, list) or len(pairs) != 3
            or any(not isinstance(p, list) or len(p) != 2 for p in pairs)):
        raise ConfigError("%s.kernel_pairs must be three [k1, k2] pairs"
                          % where)
    mode = _value(d.get("mode", "cascade"), "cascade", where + ".mode")
    auto = auto_width(top_channels)
    branch, skip, glob = (_value(d.get(k, 0), 0, "%s.%s" % (where, k))
                          or auto for k in _LKPP_WIDTHS)
    try:
        blocks = tuple(HadcBlockSpec.from_kernels(p[0], p[1], branch, mode)
                       for p in pairs)
        return LkppConfig(blocks, skip, glob)
    except ValueError as e:
        raise ConfigError("%s: %s" % (where, e)) from e


def from_dict(d):
    kw = _fields(TrainConfig, d, "config", custom=("model",))
    model = d.get("model", {})
    mkw = _fields(ModelConfig, model, "model", custom=("lkpp",))
    mkw["lkpp"] = _read_lkpp(model.get("lkpp", {}),
                             mkw["backbone"].stage_channels[-1])
    mkw["num_classes"] = kw.get("num_classes", TrainConfig.num_classes)
    return TrainConfig(model=_build(ModelConfig, mkw, "model"), **kw)


def load_config(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError("malformed JSON in %s: %s" % (path, e)) from e
    return from_dict(doc)


def to_dict(cfg):
    """Fully resolved, JSON-safe view of a configuration."""
    if isinstance(cfg, LkppConfig):
        return {
            "kernel_pairs": [[b.pairs[0].kernel_a, b.pairs[0].kernel_b]
                             for b in cfg.blocks],
            "mode": cfg.blocks[0].mode,
            "branch_channels": cfg.blocks[0].channels,
            "skip_channels": cfg.skip_channels,
            "global_channels": cfg.global_channels,
        }
    if dataclasses.is_dataclass(cfg):
        return {name: to_dict(getattr(cfg, name))
                for name, _ in _keyed_fields(type(cfg))}
    if isinstance(cfg, tuple):
        return list(cfg)
    return cfg


def save_config(path, cfg):
    with open(path, "w") as f:
        json.dump(to_dict(cfg), f, indent=2, sort_keys=True)
        f.write("\n")


def config_digest(cfg):
    """SHA-256 over the canonical serialization; 32 raw bytes."""
    blob = json.dumps(to_dict(cfg), sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).digest()
