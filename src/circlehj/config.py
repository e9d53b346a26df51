"""Flat key = value experiment configuration.

The file format is one `section.key = value` assignment per line, `#`
comments allowed.  Coefficient and initial-datum values are expressions
in x, checked at parse time against the grammar of
`model.compile_expression` (numbers, x, pi, + - * / **, unary +-, cos
and sin) and evaluated, with their x-derivatives, on the nodes of
`grid.n`, where every value must be finite; everything else is numeric,
and every float must be finite.
Unknown keys are rejected so a typo cannot silently fall back to a
default.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .model import compile_expression, make_quadratic_model

# section -> key -> (type tag, default); None default means required-if-used
_SCHEMA = {
    "model": {
        "family": ("str", "quadratic"),
        "a": ("expr", "1"),
        "b": ("expr", "1"),
        "V": ("expr", "0"),
        "lambda": ("float", 0.5),
        "kappa": ("float", None),
        "delta": ("float", None),
    },
    "grid": {"n": ("int", 256)},
    "evolve": {
        "dt": ("float", 1e-3),
        "T": ("float", 1.0),
        "snapshot_every": ("float", None),
        "phi": ("expr", "0"),
    },
    "caps": {"U_cap": ("float", 50.0)},
    "search": {
        "V_max": ("float", 10.0),
        "P_max": ("float", 10.0),
        "U_max": ("float", 50.0),
    },
    "orbit": {
        "guess_p": ("float", 0.0),
        "guess_u": ("float", 0.0),
        "nodes": ("int", 1024),
    },
    "action": {
        "x0": ("float", 0.0),
        "u0": ("float", 0.0),
        "x": ("float", 0.0),
        "t": ("float", 1.0),
        "direction": ("str", "forward"),
        "method": ("str", "both"),
        "dt": ("float", 4e-3),
    },
    "subsolution": {
        "x0": ("float", 0.0),
        "n_x": ("int", 256),
        "n_t": ("int", 64),
    },
    "periodic": {
        "mode": ("str", "pinned"),
        "x0": ("float", 0.0),
        "n_max": ("int", 200),
        "tol": ("float", 5e-3),
        "slices": ("int", 64),
        "phi": ("expr", "0"),
        "dt": ("float", None),
    },
    "trichotomy": {
        "phi": ("expr", "0"),
        "T_budget": ("float", 20.0),
        "dt": ("float", None),
    },
    "weakkam": {
        "tol": ("float", 1e-6),
        "T_max": ("float", 80.0),
        "dt": ("float", None),
    },
    "bifurcate": {
        "lambdas": ("floats", None),
        "grid_n": ("int", 128),
        "tol": ("float", 5e-3),
        "fp_tol": ("float", 1e-4),
        "n_max": ("int", 200),
    },
}

_POSITIVE = {
    ("grid", "n"), ("evolve", "dt"), ("caps", "U_cap"), ("search", "V_max"),
    ("search", "P_max"), ("search", "U_max"), ("orbit", "nodes"),
    ("periodic", "n_max"), ("periodic", "tol"), ("periodic", "slices"),
    ("trichotomy", "T_budget"), ("weakkam", "tol"), ("weakkam", "T_max"),
    ("bifurcate", "grid_n"), ("bifurcate", "tol"), ("bifurcate", "fp_tol"),
    ("bifurcate", "n_max"), ("action", "t"), ("action", "dt"),
    ("subsolution", "n_x"), ("subsolution", "n_t"), ("periodic", "dt"),
    ("trichotomy", "dt"), ("weakkam", "dt"),
}
_NONNEGATIVE = {("evolve", "T")}


@dataclass
class ExperimentConfig:
    """Validated configuration with raw text retained for hashing."""

    values: dict
    text: str
    path: Optional[str] = None

    def get(self, section, key):
        return self.values[section][key]

    def hash(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()[:16]


def _convert(section, key, raw, kind):
    try:
        if kind == "int":
            value = int(raw)
        elif kind == "float":
            value = float(raw)
        elif kind == "floats":
            value = [float(tok) for tok in raw.split(",") if tok.strip()]
        else:
            value = raw
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r} as {kind}") from exc
    numbers = value if kind == "floats" else [value]
    if kind in ("float", "floats") and not all(map(math.isfinite, numbers)):
        raise ConfigError(f"{section}.{key} must be finite, got {raw!r}")
    if (section, key) in _POSITIVE and min(numbers) <= 0:
        raise ConfigError(f"{section}.{key} must be positive, got {raw!r}")
    if (section, key) in _NONNEGATIVE and value < 0:
        raise ConfigError(f"{section}.{key} must be nonnegative, got {raw!r}")
    return value


def parse_config_text(text: str, path=None) -> ExperimentConfig:
    values = {sec: {k: default for k, (_, default) in keys.items()}
              for sec, keys in _SCHEMA.items()}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        lhs, rhs = stripped.split("=", 1)
        lhs = lhs.strip()
        rhs = rhs.strip()
        if "." not in lhs:
            raise ConfigError(f"line {lineno}: key {lhs!r} has no section")
        section, key = lhs.split(".", 1)
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {lhs!r}")
        kind = _SCHEMA[section][key][0]
        values[section][key] = _convert(section, key, rhs, kind)
    _check_expressions(values)
    return ExperimentConfig(values=values, text=text, path=path)


def _check_expressions(values):
    """Compile every expression key and evaluate it and its x-derivative on
    the nodes of grid.n; ConfigError unless every value is finite."""
    n = values["grid"]["n"]
    xs = np.arange(n) / n
    for section, keys in _SCHEMA.items():
        for key, (kind, _) in keys.items():
            if kind != "expr":
                continue
            raw = values[section][key]
            try:
                with np.errstate(all="ignore"):
                    finite = all(np.all(np.isfinite(f(xs)))
                                 for f in compile_expression(raw))
            except ConfigError as exc:
                raise ConfigError(f"{section}.{key}: {exc}") from exc
            if not finite:
                raise ConfigError(f"{section}.{key} = {raw!r} is not finite "
                                  f"on the {n}-node grid")


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, path=str(path))


def build_model(cfg: ExperimentConfig):
    family = cfg.get("model", "family")
    if family != "quadratic":
        raise ConfigError(f"unknown model family {family!r}")
    return make_quadratic_model(
        cfg.get("model", "a"), cfg.get("model", "b"), cfg.get("model", "V"),
        cfg.get("model", "lambda"), kappa=cfg.get("model", "kappa"),
        delta=cfg.get("model", "delta"),
    )
