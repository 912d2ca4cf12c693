import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momt.errors import SchemaError
from momt.serialize import dump_text, dumps, format_float


def _recursive_dumps(obj, indent: int = 0) -> str:
    """`dumps` as it was: one recursive call per value, keys escaped every time."""
    pad = " " * indent
    child = " " * (indent + 2)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        out = out.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
        return f'"{out}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{child}{_recursive_dumps(str(k))}: {_recursive_dumps(v, indent + 2)}'
                for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (int, float, str, bool)) or v is None for v in seq)
        if flat:
            return "[" + ", ".join(_recursive_dumps(v) for v in seq) + "]"
        rows = [f"{child}{_recursive_dumps(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise SchemaError("value", f"cannot serialize {type(obj).__name__}")


def _outcome(write, obj, indent):
    """The text written, or the type, message and field of the error raised."""
    try:
        return write(obj, indent)
    except SchemaError as exc:
        return type(exc), str(exc), exc.field


_EDGE_FLOATS = [0.0, -0.0, 1.0, -3.0, 0.1, 1e15, -1e15, 1e15 - 1, 1e15 + 2,
                999999999999999.9, 2.0**53, 1e300, 5e-324, math.nan, math.inf, -math.inf]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(),
                    st.integers(-2**60, 2**60).map(float))
_TEXT = st.text(alphabet=st.one_of(st.sampled_from('\\"\n\r\t ab/'), st.characters()),
                max_size=8)
_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), _FLOATS, _TEXT,
    _FLOATS.map(np.float64),
    st.sampled_from([np.int64(3), np.bool_(True), object()]),     # not serializable
)
# lists of one exact type take the writer's single-map path
_UNIFORM = st.one_of(st.lists(_FLOATS, max_size=6), st.lists(st.integers(), max_size=6),
                     st.lists(st.booleans(), max_size=4), st.lists(st.none(), max_size=3),
                     st.lists(_TEXT, max_size=4))
_KEY = st.one_of(_TEXT, st.sampled_from(["index", "mass", "value", 'q"uote\\']),
                 st.integers(-5, 5), st.booleans(), st.none(), st.floats(allow_nan=False))


def _containers(children):
    return st.one_of(st.lists(children, max_size=5),
                     st.lists(children, max_size=5).map(tuple),
                     st.dictionaries(_KEY, children, max_size=5))


_DOCUMENT = st.recursive(st.one_of(_SCALAR, _UNIFORM), _containers, max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(_DOCUMENT, st.integers(0, 4))
def test_dumps_matches_the_recursive_writer(doc, indent):
    assert _outcome(dumps, doc, indent) == _outcome(_recursive_dumps, doc, indent)


@pytest.mark.parametrize("doc", [
    {"a": [1.0, 2.0, math.nan]},
    [[0.5, 1.0], {"x": math.inf}],
    {"support": [{"index": [1, 2], "mass": 0.5}, {"index": [2, 1], "mass": -math.inf}]},
    [1, np.int64(2)],
    {"k": (np.float64(0.25), np.float64(1e15), -0.0, True, None, "t\tab")},
    {1: "one", True: "true key", None: [], "": {}},
    [[], {}, (), [[]]],
], ids=["nan-in-floats", "inf-in-dict", "nested-inf", "numpy-int", "numpy-floats",
        "odd-keys", "empty"])
def test_dumps_edge_documents_match_the_recursive_writer(doc):
    for indent in (0, 2):
        assert _outcome(dumps, doc, indent) == _outcome(_recursive_dumps, doc, indent)


def test_dump_text_ends_in_one_newline():
    doc = {"value": 1.5, "support": [{"index": [1, 1], "mass": 1.0}]}
    assert dump_text(doc) == _recursive_dumps(doc) + "\n"


def test_format_float_refuses_non_finite_values():
    for x in (math.nan, math.inf, -math.inf, np.float64("nan")):
        with pytest.raises(SchemaError, match="non-finite value"):
            format_float(x)
    assert format_float(-0.0) == "0.0"
    assert format_float(1e15) == "1000000000000000"
    assert format_float(1e15 - 1) == "999999999999999.0"
