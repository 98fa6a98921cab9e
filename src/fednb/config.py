"""Experiment configuration: the config types, INI files and the JSON echo.

Config file grammar (INI-style, case-sensitive keys, `#` comments):

    [experiment]
    name = synth-demo          # dataset label in outputs
    seed = 42
    alphas = 0.05, 0.10, 0.20, 0.30, 0.50, 0.70, 1.00
    reps = 5
    proposals = C, B, E, A
    train_frac = 0.6
    val_frac = 0.2
    test_frac = 0.2
    lambda = 0.10
    floor_delta = 0.05
    max_iters = 500
    n_starts = 5               # 1..5 Nelder-Mead start points

    [synth]                    # either [synth] or [csv], not both
    n_rows = 3000
    n_classes = 2
    n_categorical = 2
    n_numerical = 3
    n_categories = 4
    class_sep = 2.5
    node_noise = 0.0, 0.15, 0.4

    [csv]
    path = data/train.csv
    schema = data/schema.cfg   # [schema] file: columns + n_classes

    [profiles]                 # node order = file order
    Financial = 4, 0.82, 0.12, 3.2
    Health = 3, 0.70, 0.25, 5.1
    Government = 2, 0.55, 0.40, 6.8

Schema file grammar:

    [schema]
    n_classes = 2
    [columns]                  # name = categorical | numerical | label
    protocol_type = categorical
    duration = numerical
    label = label

A missing key takes its dataclass default. An unknown key, a missing key
without a default or a bad value is a ConfigError that names the key (cli
turns one from the grid.json echo into a ParseError). load_config reads a
file into the dict schema of config_to_dict (the grid.json echo), applies
`--set` overrides to that dict, and hands it to config_from_dict, the one
constructor of an ExperimentConfig from outside input; its values may be
JSON or INI strings.
"""

from __future__ import annotations

import configparser
import inspect
import math
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from .data import FeatureSchema, SynthSpec
from .errors import ConfigError, FedNBError
from .governance import NodeProfile
from .weights import OptimizerConfig

DEFAULT_ALPHAS = (0.05, 0.10, 0.20, 0.30, 0.50, 0.70, 1.00)
PROPOSAL_ORDER = ("C", "B", "E", "A")


@dataclass(frozen=True)
class CsvSource:
    path: str
    schema: FeatureSchema
    name: str = "csv"


@dataclass(frozen=True)
class ExperimentConfig:
    source: object  # SynthSpec or CsvSource
    profiles: tuple[NodeProfile, ...]
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    reps: int = 5
    seed: int = 42
    split_fracs: tuple[float, float, float] = (0.6, 0.2, 0.2)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    proposals: tuple[str, ...] = PROPOSAL_ORDER

    def __post_init__(self):
        if len(self.profiles) < 1:
            raise ConfigError("need at least one node profile")
        if not self.alphas:
            raise ConfigError("alphas must name at least one level")
        if any(a <= 0 for a in self.alphas):
            raise ConfigError("alphas must be positive")
        if list(self.alphas) != sorted(set(self.alphas)):
            raise ConfigError("alphas must be strictly increasing")
        too_fine = [a for a in self.alphas if float(f"{a:.6f}") != a]
        if too_fine:  # results.csv prints 6 decimals, and records read back must match the grid
            raise ConfigError(f"alphas must have at most 6 decimals, got {too_fine}")
        if self.reps < 1:
            raise ConfigError("reps must be >= 1")
        if self.seed < 0:  # numpy's generators take non-negative seeds only
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        fracs = self.split_fracs
        if len(fracs) != 3 or not all(f > 0 for f in fracs) or abs(sum(fracs) - 1.0) > 1e-9:
            raise ConfigError(f"split_fracs {fracs}: need three positive fractions summing to 1")
        bad = [p for p in self.proposals if p not in PROPOSAL_ORDER]
        if bad:
            raise ConfigError(f"unknown proposals: {bad}")
        repeated = sorted({p for p in self.proposals if self.proposals.count(p) > 1})
        if repeated:
            raise ConfigError(f"proposals repeated: {repeated}")
        if isinstance(self.source, SynthSpec) and len(self.source.node_noise) != len(self.profiles):
            raise ConfigError("node_noise length must match number of profiles")
        if "A" in self.proposals:
            if self.k < 2:
                raise ConfigError("proposal A needs at least 2 node profiles")
            if self.k * self.optimizer.floor_delta >= 1.0:
                raise ConfigError("proposal A needs K * floor_delta < 1 (infeasible weight floor)")

    @property
    def k(self) -> int:
        return len(self.profiles)

    @property
    def dataset_name(self) -> str:
        return self.source.name


# [experiment] keys other than the split fractions -> path in the dict schema
_EXPERIMENT_KEYS = {
    "name": ("source", "name"),
    **{key: (key,) for key in ("seed", "alphas", "reps", "proposals")},
    **{key: ("optimizer", key) for key in ("lambda", "floor_delta", "max_iters", "n_starts")},
}
_FRAC_KEYS = ("train_frac", "val_frac", "test_frac")
_OVERRIDE_KEYS = {
    "delta": _EXPERIMENT_KEYS["floor_delta"],
    **{key: _EXPERIMENT_KEYS[key] for key in ("seed", "alphas", "reps", "lambda")},
}


@contextmanager
def _blame(where: str):
    """Re-raise an error from a bad value as a ConfigError that says where it is."""
    try:
        yield
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{where}: missing key {exc}") from exc
    except (ValueError, TypeError, FedNBError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _read_ini(path, sections) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    cp.optionxform = str  # keep case of column and node names
    try:
        found = cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not found:
        raise ConfigError(f"cannot read {path}")
    if any(s not in cp for s in sections):
        raise ConfigError(f"{path}: needs " + " and ".join(f"[{s}]" for s in sections) + " sections")
    return cp


def _put(d: dict, path: tuple, value) -> None:
    *parents, last = path
    for key in parents:
        d = d.setdefault(key, {})
    d[last] = value


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Read an INI config, apply `--set` overrides (seed, alphas, reps, lambda, delta)."""
    cp = _read_ini(path, ("experiment", "profiles"))
    if ("synth" in cp) == ("csv" in cp):
        raise ConfigError("config needs exactly one of [synth] or [csv]")
    exp = dict(cp["experiment"])
    d = {
        "split_fracs": [exp.pop(k, x) for k, x in zip(_FRAC_KEYS, ExperimentConfig.split_fracs)],
        "profiles": [],
    }
    for name, raw in cp["profiles"].items():
        vals = raw.replace(",", " ").split()
        if len(vals) != 4:
            raise ConfigError(f"profile {name}: expected cmm, kci, kri, cvss")
        d["profiles"].append({"name": name, **dict(zip(("cmm", "kci", "kri", "cvss"), vals))})
    if "synth" in cp:
        d["source"] = {"kind": "synth", **cp["synth"]}
    else:
        csv, base = dict(cp["csv"]), os.path.dirname(os.path.abspath(path))
        with _blame("[csv]"):
            csv_path, schema_path = (os.path.join(base, csv.pop(k)) for k in ("path", "schema"))
        schema = _read_ini(schema_path, ("schema", "columns"))
        d["source"] = {"kind": "csv", "path": csv_path, **csv, "n_classes": schema["schema"].get("n_classes"),
                       "columns": list(schema["columns"].items())}
    for key, value in exp.items():
        if key not in _EXPERIMENT_KEYS:
            raise ConfigError(f"[experiment]: unknown key {key!r}")
        _put(d, _EXPERIMENT_KEYS[key], value)
    for key, value in (overrides or {}).items():
        if key not in _OVERRIDE_KEYS:
            raise ConfigError(f"unknown override key {key!r} (allowed: {sorted(_OVERRIDE_KEYS)})")
        _put(d, _OVERRIDE_KEYS[key], value)
    return config_from_dict(d)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    d = asdict(cfg)
    src, opt = d["source"], d["optimizer"]
    if isinstance(cfg.source, CsvSource):
        src.update(src.pop("schema"))
    d["source"] = {"kind": "csv" if isinstance(cfg.source, CsvSource) else "synth", **src}
    d["optimizer"] = {"lambda": opt.pop("lam"), **opt}
    return d


def _int(v) -> int:
    if isinstance(v, float):  # int(2.5) would truncate silently
        raise TypeError(f"expected an integer, got {v!r}")
    return int(v)


def _float(v) -> float:
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"{v!r} is not a finite number")
    return x


def _items(v, what: str) -> list:
    """v, a list (or the tuple of an echo built in this process); TypeError
    names what it should hold."""
    if not isinstance(v, (list, tuple)):
        raise TypeError(f"expected a list of {what}, got {v!r}")
    return v


def _floats(v) -> tuple[float, ...]:
    return tuple(_float(x) for x in (v.replace(",", " ").split() if isinstance(v, str) else _items(v, "numbers")))


def _names(v) -> tuple[str, ...]:
    return tuple(str(x).strip() for x in (v.split(",") if isinstance(v, str) else _items(v, "names")))


def _build(cls, where: str, raw: dict, convert: dict):
    """cls(**converted raw); unknown keys are errors, missing ones take cls's
    defaults, and a missing key without a default is an error naming it."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object, got {raw!r}")
    unknown = sorted(set(raw) - set(convert))
    if unknown:
        raise ConfigError(f"{where}: unknown key {unknown[0]!r}")
    required = [k for k, p in inspect.signature(cls).parameters.items()
                if p.default is p.empty and p.kind is not p.VAR_KEYWORD]
    missing = [k for k in required if ("lambda" if k == "lam" else k) not in raw]
    if missing:
        raise ConfigError(f"{where}: missing key {missing[0]!r}")
    kwargs = {}
    for key, value in raw.items():
        with _blame(f"{where}.{key} = {value!r}"):
            kwargs["lam" if key == "lambda" else key] = convert[key](value)
    with _blame(where):
        return cls(**kwargs)


def _csv_source(path, columns, n_classes, **name) -> CsvSource:
    """CsvSource from the flat echo keys; without a name, CsvSource's default applies."""
    return CsvSource(path, FeatureSchema(columns, n_classes), **name)


def _source(raw: dict):
    if not isinstance(raw, dict):
        raise ConfigError(f"source: expected an object, got {raw!r}")
    raw = dict(raw)
    kind = raw.pop("kind", None)
    if kind == "synth":
        return _build(SynthSpec, "source", raw, _SYNTH)
    if kind == "csv":
        return _build(_csv_source, "source", raw, _CSV)
    raise ConfigError(f"source: unknown kind {kind!r}")


_SYNTH = dict(n_rows=_int, n_classes=_int, n_categorical=_int, n_numerical=_int,
              node_noise=_floats, n_categories=_int, class_sep=_float, name=str)
_CSV = dict(path=str, name=str, n_classes=_int,
            columns=lambda cols: tuple((str(n), str(kind)) for n, kind in _items(cols, "[name, kind] pairs")))
_PROFILE = dict(name=str, cmm=_int, kci=_float, kri=_float, cvss=_float)
_OPTIMIZER = {"lambda": _float, "floor_delta": _float, "max_iters": _int, "n_starts": _int, "seed": _int}
_CONFIG = dict(
    source=_source,
    profiles=lambda ps: tuple(_build(NodeProfile, "profiles", p, _PROFILE) for p in _items(ps, "objects")),
    optimizer=lambda opt: _build(OptimizerConfig, "optimizer", opt, _OPTIMIZER),
    alphas=_floats, reps=_int, seed=_int, split_fracs=_floats, proposals=_names,
)


def config_from_dict(d: dict) -> ExperimentConfig:
    """The one constructor of an ExperimentConfig from outside input (see module doc)."""
    return _build(ExperimentConfig, "config", d, _CONFIG)
