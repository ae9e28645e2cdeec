"""Deterministic JSON emission: fixed key order, 17-significant-digit floats."""
from __future__ import annotations

import json
import math

import numpy as np

from .rectify import RectifiedPair


def _format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def dumps(obj) -> str:
    """Serialise dicts/lists/scalars with reproducible float formatting."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist())
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if obj is None:
        return "null"
    return json.dumps(obj)


def rectified_pair_to_dict(pair: RectifiedPair) -> dict:
    return {
        "H1": pair.H1.tolist(),
        "H2": pair.H2.tolist(),
        "y1": pair.y1_star,
        "distortion": pair.distortion,
        "components": {
            "w1": list(pair.w1),
            "w2": list(pair.w2),
            "shear1": list(pair.shear1),
            "shear2": list(pair.shear2),
        },
        "output_size": list(pair.output_size),
    }


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
        fh.write("\n")
