"""The output-file writer gives the stdlib's indented text byte for byte for exact JSON types, and
refuses every other value and every key that is not a str with a TypeError."""

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


class Name(str):
    pass


# quotes, backslashes, control characters, brackets and non-ASCII, mixed into arbitrary text
_TRICKY = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "[", "]", "{", "}", ":", ",",
                           "é", " ", "\U0001F600", "\ud800"])
_TEXT = st.lists(st.one_of(_TRICKY, st.text(max_size=4)), max_size=5).map("".join)
_FLOATS = st.one_of(st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300, 5e-324]))
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(min_value=-2**80, max_value=2**80),
                     _FLOATS, _TEXT)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
    )


_VALUES = st.recursive(_SCALARS, _containers, max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(_VALUES)
def test_dumps_equals_the_stdlib_indented_text(value):
    assert _jsonout.dumps(value) == _reference(value)


# points the stdlib encodes by isinstance, or whose keys it converts, and the writer refuses
_REFUSED = [
    {float("nan"): 1, float("inf"): 2, -0.0: 3, 1.5: 4}, {True: 1, False: 0}, {None: None},
    {1: "a", -2: "b", 10: "c"}, {Color.BLUE: Color.RED}, [True, False, None, 0, 1.0, np.float64(0.1)],
]


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}, "b": [], "c": ()}, [[[]], {"": {}}], {"x": [{}, [()]]},
    {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "neg0": -0.0},
    {"b": 1, "a": 2, "": 3, "é": 4, "B": 5}, [True, False, None, 0, 1.0, 0.1, -2**80],
    "a bare \"string\" é", 7, 2.5, None, True, *_REFUSED,
], ids=repr)
def test_dumps_equals_the_stdlib_at_named_points(value):
    """The stdlib's text at every exact-type point; a TypeError at the points of _REFUSED."""
    if any(value is point for point in _REFUSED):
        with pytest.raises(TypeError):
            _jsonout.dumps(value)
    else:
        assert _jsonout.dumps(value) == _reference(value)


@pytest.mark.parametrize("value,same_text", [
    (object(), True), ({"a": {1, 2}}, True), ([np.int64(3)], True), ({"a": np.bool_(True)}, True), (b"bytes", True),
    ({(1, 2): 3}, False), ({"a": {object(): 1}}, False),  # a key that is not a str: the writer's own TypeError
], ids=["object", "set", "numpy-int", "numpy-bool", "bytes", "tuple-key", "object-key"])
def test_unserializable_values_raise_the_stdlib_type_error(value, same_text):
    with pytest.raises(TypeError) as stdlib:
        _reference(value)
    with pytest.raises(TypeError) as ours:
        _jsonout.dumps(value)
    assert same_text is False or str(ours.value) == str(stdlib.value)


@pytest.mark.parametrize("value,name", [
    (Color.RED, "Color"), ([np.float64(0.5)], "float64"), ({"a": Name("x")}, "Name"),
    (OrderedDict(a=1), "OrderedDict"), ({"a": [OrderedDict()]}, "OrderedDict"),
], ids=["int-enum", "numpy-float64", "str-subclass", "ordered-dict", "nested-ordered-dict"])
def test_a_subclass_value_raises_the_stdlib_type_error_text(value, name):
    """The stdlib encodes these by isinstance; the writer takes exact types only."""
    with pytest.raises(TypeError) as ours:
        _jsonout.dumps(value)
    assert str(ours.value) == f"Object of type {name} is not JSON serializable"


@pytest.mark.parametrize("value", [{1: "a"}, {1.5: "a"}, {True: "a"}, {None: "a"}, {"a": {-0.0: 1}}],
                         ids=["int-key", "float-key", "bool-key", "none-key", "nested-float-key"])
def test_a_key_that_is_not_a_str_raises_a_type_error(value):
    with pytest.raises(TypeError):
        _jsonout.dumps(value)
