"""Small shared helpers: the subdivision jitter constant and JSON codecs."""

from __future__ import annotations

import math

import numpy as np

# Golden-ratio fraction used for deterministic jitter of subdivision angles.
GOLDEN_FRAC = (math.sqrt(5.0) - 1.0) / 2.0


def complex_to_json(value: complex) -> dict:
    """Encode a complex scalar as {"re": x, "im": y}."""
    value = complex(value)
    return {"re": value.real, "im": value.imag}


def complex_from_json(obj) -> complex:
    """Decode {"re": x, "im": y} (a bare real number is accepted too)."""
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, dict) and set(obj) <= {"re", "im"}:
        return complex(float(obj.get("re", 0.0)), float(obj.get("im", 0.0)))
    raise ValueError(f"cannot parse complex value from {obj!r}")


def parse_complex(text: str) -> complex:
    """Parse 're,im', a bare real, or a Python literal like '0.3+0.4j'."""
    parts = text.split(",")
    if len(parts) == 1:
        try:
            return complex(parts[0].strip().replace(" ", ""))
        except ValueError:
            raise ValueError(f"expected 're', 're,im', or 'a+bj', got {text!r}") from None
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"expected 're' or 're,im', got {text!r}")


def json_sanitize(obj):
    """Recursively convert numpy scalars/arrays and complex values for json.dump."""
    if isinstance(obj, dict):
        return {k: json_sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [json_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.complexfloating, complex)):
        return complex_to_json(complex(obj))
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    return obj
