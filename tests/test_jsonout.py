"""The output-file writer gives the stdlib's indented text byte for byte."""

import enum
import json
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinforge import _jsonout


def _reference(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


class Color(enum.IntEnum):
    RED = 1
    BLUE = -7


class LoudInt(int):
    def __repr__(self):
        return "loud"


class LoudFloat(float):
    def __repr__(self):
        return "loud"


class Name(str):
    pass


# quotes, backslashes, control characters, brackets and non-ASCII, mixed into arbitrary text
_TRICKY = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "[", "]", "{", "}", ":", ",",
                           "é", " ", "\U0001F600", "\ud800"])
_TEXT = st.lists(st.one_of(_TRICKY, st.text(max_size=4)), max_size=5).map("".join)
_FLOATS = st.one_of(st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300, 5e-324]))
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=-2**80, max_value=2**80), _FLOATS, _TEXT,
    st.sampled_from(list(Color)), st.integers().map(LoudInt), _FLOATS.map(LoudFloat), _FLOATS.map(np.float64),
    _TEXT.map(Name),
)
# one key type per dict: sorting mixed key types raises in both writers
_KEY_TYPES = (_TEXT, st.integers(), _FLOATS, st.booleans(), st.none(), st.sampled_from(list(Color)), _TEXT.map(Name))


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        *[st.dictionaries(keys, children, max_size=4) for keys in _KEY_TYPES],
        st.dictionaries(_TEXT, children, max_size=3).map(OrderedDict),
    )


_VALUES = st.recursive(_SCALARS, _containers, max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(_VALUES)
def test_dumps_equals_the_stdlib_indented_text(value):
    assert _jsonout.dumps(value) == _reference(value)


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}, "b": [], "c": ()}, [[[]], {"": {}}], {"x": [{}, [()]]},
    {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "neg0": -0.0},
    {float("nan"): 1, float("inf"): 2, -0.0: 3, 1.5: 4}, {True: 1, False: 0}, {None: None},
    {1: "a", -2: "b", 10: "c"}, {Color.BLUE: Color.RED}, [True, False, None, 0, 1.0, np.float64(0.1)],
    "a bare \"string\" é", 7, 2.5, None, True,
], ids=repr)
def test_dumps_equals_the_stdlib_at_named_points(value):
    assert _jsonout.dumps(value) == _reference(value)


@pytest.mark.parametrize("value", [
    object(), {"a": {1, 2}}, [np.int64(3)], {"a": np.bool_(True)}, b"bytes", {(1, 2): 3}, {"a": {object(): 1}},
], ids=["object", "set", "numpy-int", "numpy-bool", "bytes", "tuple-key", "object-key"])
def test_unserializable_values_raise_the_stdlib_type_error(value):
    with pytest.raises(TypeError) as stdlib:
        _reference(value)
    with pytest.raises(TypeError) as ours:
        _jsonout.dumps(value)
    assert str(ours.value) == str(stdlib.value)
