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
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConfigError
from .model import SearchParams, compile_expression, make_quadratic_model

# section -> key -> (type tag, default, bound): each key's one entry owns its
# type, its default (None means required-if-used) and its bound ("positive",
# "nonnegative", a tuple of the allowed strings, or None), which _convert
# enforces
_SCHEMA = {
    "model": {
        "family": ("str", "quadratic", ("quadratic",)),
        "a": ("expr", "1", None),
        "b": ("expr", "1", None),
        "V": ("expr", "0", None),
        "lambda": ("float", 0.5, None),
        "kappa": ("float", None, None),
        "delta": ("float", None, None),
    },
    "grid": {"n": ("int", 256, "positive")},
    "evolve": {
        "dt": ("float", 1e-3, "positive"),
        "T": ("float", 1.0, "nonnegative"),
        "snapshot_every": ("float", None, None),
        "phi": ("expr", "0", None),
    },
    "caps": {"U_cap": ("float", 50.0, "positive")},
    "search": {
        "V_max": ("float", 10.0, "positive"),
        "P_max": ("float", 10.0, "positive"),
        "U_max": ("float", 50.0, "positive"),
    },
    "orbit": {
        "guess_p": ("float", 0.0, None),
        "guess_u": ("float", 0.0, None),
        "nodes": ("int", 1024, "positive"),
    },
    "action": {
        "x0": ("float", 0.0, None),
        "u0": ("float", 0.0, None),
        "x": ("float", 0.0, None),
        "t": ("float", 1.0, "positive"),
        "direction": ("str", "forward", ("forward", "backward")),
        "method": ("str", "both", ("grid", "shooting", "both")),
        "dt": ("float", 4e-3, "positive"),
    },
    "subsolution": {
        "x0": ("float", 0.0, None),
        "n_x": ("int", 256, "positive"),
        "n_t": ("int", 64, "positive"),
    },
    "periodic": {
        "mode": ("str", "pinned", ("pinned", "longtime")),
        "x0": ("float", 0.0, None),
        "n_max": ("int", 200, "positive"),
        "tol": ("float", 5e-3, "positive"),
        "slices": ("int", 64, "positive"),
        "phi": ("expr", "0", None),
        "dt": ("float", None, "positive"),
    },
    "trichotomy": {
        "phi": ("expr", "0", None),
        "T_budget": ("float", 20.0, "positive"),
        "dt": ("float", None, "positive"),
    },
    "weakkam": {
        "tol": ("float", 1e-6, "positive"),
        "T_max": ("float", 80.0, "positive"),
        "dt": ("float", None, "positive"),
    },
    "bifurcate": {
        "lambdas": ("floats", None, None),
        "grid_n": ("int", 128, "positive"),
        "tol": ("float", 5e-3, "positive"),
        "fp_tol": ("float", 1e-4, "positive"),
        "n_max": ("int", 200, "positive"),
    },
}


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


_BOUNDS = {"positive": lambda v: v > 0, "nonnegative": lambda v: v >= 0}


def _convert(section, key, raw):
    kind, _, bound = _SCHEMA[section][key]
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
    if isinstance(bound, tuple):
        if value not in bound:
            raise ConfigError(f"{section}.{key} must be one of "
                              f"{', '.join(bound)}, got {raw!r}")
        return value
    numbers = value if kind == "floats" else [value]
    if kind in ("float", "floats") and not all(map(math.isfinite, numbers)):
        raise ConfigError(f"{section}.{key} must be finite, got {raw!r}")
    if bound is not None and not _BOUNDS[bound](min(numbers)):
        raise ConfigError(f"{section}.{key} must be {bound}, got {raw!r}")
    return value


def parse_config_text(text: str, path=None) -> ExperimentConfig:
    values = {sec: {k: default for k, (_, default, _) in keys.items()}
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
        values[section][key] = _convert(section, key, rhs)
    _check_expressions(values)
    return ExperimentConfig(values=values, text=text, path=path)


def _check_expressions(values):
    """Compile every expression key and evaluate it and its x-derivative on
    the nodes of grid.n; ConfigError unless every value is finite."""
    n = values["grid"]["n"]
    xs = np.arange(n) / n
    for section, keys in _SCHEMA.items():
        for key, (kind, _, _) in keys.items():
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
    """The configured quadratic-family model, with the window of the
    ``search.*`` keys."""
    model = make_quadratic_model(
        cfg.get("model", "a"), cfg.get("model", "b"), cfg.get("model", "V"),
        cfg.get("model", "lambda"), kappa=cfg.get("model", "kappa"),
        delta=cfg.get("model", "delta"),
    )
    return replace(model, search=SearchParams(
        v_max=cfg.get("search", "V_max"), p_max=cfg.get("search", "P_max"),
        u_max=cfg.get("search", "U_max")))
