"""On-disk formats: JSON model specs and a compact binary matrix format.

The binary layout is a 22-byte little-endian header (4-byte magic,
u16 version, u64 rows, u64 cols) followed by row-major one-byte symbols.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .model import MAX_ALPHABET, ModelSpec

MAGIC = b"DBMX"
VERSION = 1
_HEADER = struct.Struct("<4sHQQ")


def write_matrix(path, mat: np.ndarray) -> None:
    mat = np.asarray(mat)
    if mat.ndim != 2:
        raise ValueError("only 2-D symbol matrices are supported")
    if mat.size and (mat.min() < 1 or mat.max() > MAX_ALPHABET):
        raise ValueError(f"symbols must lie in 1..{MAX_ALPHABET}")
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
            p_x=np.asarray(d["p_x"], dtype=float),
            p_y_given_x=np.asarray(d["p_y_given_x"], dtype=float),
            p_s=np.asarray(d["p_s"], dtype=float),
        )
    except KeyError as exc:
        raise ValueError(f"model spec is missing key {exc}") from exc
    # Redundant keys are cross-checked rather than trusted.
    if "alphabet_size" in d and int(d["alphabet_size"]) != spec.alphabet_size:
        raise ValueError("alphabet_size does not match the length of p_x")
    if "s_max" in d and int(d["s_max"]) != spec.s_max:
        raise ValueError("s_max does not match the length of p_s")
    return spec


def load_model_spec(path) -> ModelSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return model_spec_from_dict(json.load(fh))
