import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from latspec._util import complex_from_json, complex_to_json, json_sanitize, parse_complex


def test_parse_complex_forms():
    assert parse_complex("3") == 3 + 0j
    assert parse_complex("-0.25") == -0.25 + 0j
    assert parse_complex("1.5,-2") == 1.5 - 2j
    assert parse_complex("0.3+0.4j") == 0.3 + 0.4j
    assert parse_complex("2j") == 2j


def test_parse_complex_rejects_garbage():
    with pytest.raises(ValueError):
        parse_complex("not-a-number")
    with pytest.raises(ValueError):
        parse_complex("1,2,3")


@given(st.complex_numbers(allow_nan=False, allow_infinity=False))
def test_complex_json_round_trip(w):
    assert complex_from_json(complex_to_json(w)) == w


def test_json_sanitize_nested():
    out = json_sanitize({"a": 1 + 2j, "b": [np.float64(0.5), np.int64(3)], "c": (1, 2)})
    assert out["a"] == {"re": 1.0, "im": 2.0}
    assert out["b"] == [0.5, 3]
    assert out["c"] == [1, 2]

