"""Study configuration files: INI sections with a strict schema.

Sections are {kinetics, wave, geometry, initial, solver, study}; every key
must be known (unknown keys are errors, catching typos early).  Values are
plain scalars or comma-separated lists.  A command reads the keys that are
parameters of the function cli.COMMANDS gives it, so a key name belongs to
one section only; README lists per key which command reads it.
"""

from __future__ import annotations

import configparser

import numpy as np

from .errors import ConfigurationError
from .geometry import ConvexBody

_FLOAT_LIST = "float_list"

SCHEMA = {
    "kinetics": {
        "epsilon": float,
    },
    "wave": {
        "speeds": _FLOAT_LIST,
    },
    "geometry": {
        "shape": str,  # interval | ball | ellipse
        "a": float,
        "b": float,
        "center": _FLOAT_LIST,
        "radius": float,
        "semi_axes": _FLOAT_LIST,
    },
    "initial": {
        "variant": str,  # compact | algebraic
        "amplitude": float,
        "width": float,
        "tail_lambda": float,
        "tail_cap": float,
        "m": float,
        "n": float,
    },
    "solver": {
        "mode": str,  # line | radial | plane
        "dim": int,
        "t_end": float,
        "extent": float,  # 0 = automatic from the outflow margin
        "checkpoints": _FLOAT_LIST,
    },
    "study": {
        "epsilons": _FLOAT_LIST,
        "probe_t": float,
        "probe_x": float,
    },
}

# [geometry] keys each shape reads besides `shape`
SHAPE_KEYS = {
    "interval": ("a", "b"),
    "ball": ("center", "radius"),
    "ellipse": ("center", "semi_axes"),
}


def _convert(section, key, raw):
    """The value of one key; a float must be finite, a list not empty."""
    kind = SCHEMA[section][key]
    try:
        if kind is _FLOAT_LIST:
            value = tuple(float(v) for v in raw.split(",") if v.strip())
        else:
            value = kind(raw)
    except ValueError as exc:
        raise ConfigurationError(f"bad value for [{section}] {key}: {raw!r}") from exc
    if kind is _FLOAT_LIST and not value:
        raise ConfigurationError(f"empty list for [{section}] {key}")
    if kind in (float, _FLOAT_LIST) and not np.isfinite(value).all():
        raise ConfigurationError(f"non-finite value for [{section}] {key}: {raw!r}")
    return value


def load_config(path) -> dict:
    """Parse and validate a config file into {section: {key: value}}.  A
    file configparser cannot read (a duplicate section or option, a line
    before any section, a bad % interpolation) is a ConfigurationError."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = cp.read(path)
        sections = {section: list(cp[section].items())
                    for section in cp.sections()}
    except configparser.Error as exc:
        reason = " ".join(str(exc).split())
        raise ConfigurationError(f"cannot parse {path}: {reason}") from exc
    if not read:
        raise ConfigurationError(f"config file not found: {path}")
    out = {}
    for section, items in sections.items():
        if section not in SCHEMA:
            raise ConfigurationError(f"unknown config section [{section}]")
        out[section] = {}
        for key, raw in items:
            if key not in SCHEMA[section]:
                raise ConfigurationError(f"unknown key {key!r} in section [{section}]")
            out[section][key] = _convert(section, key, raw)
    return out


def body_from_config(cfg: dict) -> ConvexBody:
    """The [geometry] region, ConvexBody.<shape> called with the shape's
    keys in SHAPE_KEYS order.  The section must give `shape` and every key
    the shape reads; a missing key, or one it does not read, is an error."""
    g = cfg["geometry"]
    if "shape" not in g:
        raise ConfigurationError("[geometry] shape is required")
    shape = g["shape"]
    if shape not in SHAPE_KEYS:
        raise ConfigurationError(f"unknown shape {shape!r}")
    for key in g:
        if key not in ("shape",) + SHAPE_KEYS[shape]:
            raise ConfigurationError(f"[geometry] {key} is not read for shape {shape}")
    for key in SHAPE_KEYS[shape]:
        if key not in g:
            raise ConfigurationError(f"[geometry] {key} is required for shape {shape}")
    return getattr(ConvexBody, shape)(*(g[key] for key in SHAPE_KEYS[shape]))
