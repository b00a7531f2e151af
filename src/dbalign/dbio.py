"""On-disk formats: JSON model specs and a compact binary matrix format.

The binary layout is a 22-byte little-endian header (4-byte magic,
u16 version, u64 rows, u64 cols) followed by row-major one-byte symbols.
"""

from __future__ import annotations

import json
import numbers
import struct

import numpy as np

from .deletions import check_symbols
from .model import MAX_ALPHABET, ModelSpec

MAGIC = b"DBMX"
VERSION = 1
_HEADER = struct.Struct("<4sHQQ")


def write_matrix(path, mat: np.ndarray) -> None:
    mat = np.asarray(mat)
    if mat.ndim != 2:
        raise ValueError("only 2-D symbol matrices are supported")
    check_symbols(MAX_ALPHABET, mat)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, mat.shape[0], mat.shape[1]))
        fh.write(np.ascontiguousarray(mat, dtype=np.uint8).tobytes())


def read_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, version, rows, cols = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        body = fh.read()
    if len(body) != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} bytes, got {len(body)}")
    if 0 in body:  # one-byte symbols cannot exceed the cap, only fall below 1
        raise ValueError(f"{path}: symbols must lie in 1..{MAX_ALPHABET}")
    return np.frombuffer(body, dtype=np.uint8).reshape(rows, cols).copy()


def as_integer(key: str, value) -> int:
    """A config value as int: a whole number, not a fraction, string or bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
        isinstance(value, numbers.Integral) or float(value).is_integer()
    ):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def as_real(key: str, value) -> float:
    """A config value as float: a real number, not a string or bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{key} must be a real number, got {value!r}")
    return float(value)


def as_epsilon(value) -> float:
    """The matcher's epsilon as float: a finite positive real number."""
    epsilon = as_real("epsilon", value)
    if not 0.0 < epsilon < np.inf:
        raise ValueError("epsilon must be finite and positive")
    return epsilon


def _real_array(key: str, value) -> np.ndarray:
    """A (nested) list of config values as a float array, each by as_real."""
    entries = np.asarray(value, dtype=object)
    return np.array([as_real(key, v) for v in entries.flat]).reshape(entries.shape)


# The keys of a model spec, in the order model_spec_to_dict writes them.
SPEC_KEYS = ("alphabet_size", "p_x", "p_y_given_x", "p_s", "s_max")


def model_spec_to_dict(spec: ModelSpec) -> dict:
    return {
        "alphabet_size": spec.alphabet_size,
        "p_x": spec.p_x.tolist(),
        "p_y_given_x": spec.p_y_given_x.tolist(),
        "p_s": spec.p_s.tolist(),
        "s_max": spec.s_max,
    }


def model_spec_from_dict(d: dict) -> ModelSpec:
    try:
        spec = ModelSpec(
            p_x=_real_array("p_x", d["p_x"]),
            p_y_given_x=_real_array("p_y_given_x", d["p_y_given_x"]),
            p_s=_real_array("p_s", d["p_s"]),
        )
    except KeyError as exc:
        raise ValueError(f"model spec is missing key {exc}") from exc
    # Redundant keys are cross-checked rather than trusted.
    lengths = {"alphabet_size": (spec.alphabet_size, "p_x"), "s_max": (spec.s_max, "p_s")}
    for key, (value, source) in lengths.items():
        if key in d and as_integer(key, d[key]) != value:
            raise ValueError(f"{key} does not match the length of {source}")
    return spec


def load_json_object(path) -> dict:
    """A JSON file's top-level object; any other JSON value is bad input."""
    with open(path, "r", encoding="utf-8") as fh:
        value = json.load(fh)
    if not isinstance(value, dict):
        raise ValueError(f"{path}: config must be a JSON object, got {type(value).__name__}")
    return value
