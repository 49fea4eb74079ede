"""The one text format of coinforge's output files.

`dumps(obj)` takes exact JSON types: `dict` with `str` keys, `list`, `tuple`,
`str`, `int`, `float`, `bool` and `None`. For those it returns exactly
`json.dumps(obj, sort_keys=True, indent=2) + "\\n"`: keys sorted, two-space
indent, non-ASCII and control characters as escapes, floats as
`float.__repr__` with `NaN`, `Infinity` and `-Infinity`. With `indent` set the
stdlib encodes in pure Python, one generator per container yielding one
fragment at a time; here each container is one `join` of its parts, and a
value's exact type picks its text. Any other value, a subclass (`IntEnum`,
`numpy.float64`, `OrderedDict`) included, raises the stdlib's `TypeError`
("Object of type X is not JSON serializable"), and a key that is not a `str`
raises a `TypeError` too. Unlike the stdlib, a container that holds itself is
not detected: it recurses until `RecursionError`.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _str

_int = int.__repr__
_repr = float.__repr__
_INF = float("inf")


def dumps(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2) + "\\n"`, byte for byte."""
    return _encode(obj, "\n") + "\n"


def _float(x) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return _repr(x)


def _encode(o, nl: str) -> str:
    """The text of `o`, whose own closing bracket (if it has one) follows `nl`."""
    t = type(o)
    if t is str:
        return _str(o)
    if t is int:
        return _int(o)
    if t is float:
        return _float(o)
    if t is dict:
        return _dict(o, nl)
    if t is list or t is tuple:
        return _list(o, nl)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _list(seq, nl: str) -> str:
    if not seq:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join([_encode(v, inner) for v in seq]) + nl + "]"


def _dict(d, nl: str) -> str:
    if not d:
        return "{}"
    inner = nl + "  "
    return "{" + inner + ("," + inner).join([_str(k) + ": " + _encode(v, inner)
                                             for k, v in sorted(d.items())]) + nl + "}"
