"""The output writers are byte-identical to what they replace: the JSON
writer to json.dumps(obj, indent=2), and a CSV cell's '%.15g' % v to
format(v, ".15g")."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from feynkac._jsonout import dumps

_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308,
                1.7976931348623157e308, -1e308, 1e16, 1e-5, 0.1, 1 / 3,
                math.nan, math.inf, -math.inf]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
# quotes, backslashes, % directives, control and non-ASCII characters
_TEXT = st.one_of(st.sampled_from(['"', "\\", "%", "%s", "%%", "%(a)s", "%r", "\x00",
                                   " ", "café", "\U0001f600", ""]), st.text())
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, _TEXT)
_DOCS = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.tuples(inner, inner),
    st.dictionaries(_TEXT, inner, max_size=4)), max_leaves=24)
# a table's column: every value of one kind, or any scalar
_COLUMNS = st.sampled_from([_FLOATS, st.floats(allow_nan=False, allow_infinity=False),
                            _TEXT, st.booleans(), st.none(), st.integers(), _SCALARS])


@st.composite
def _tables(draw):
    """A list of flat dicts with the same keys, and sometimes one row that
    breaks the pattern: its keys in another order, a key less or more, or a
    nested value."""
    keys = draw(st.lists(_TEXT, max_size=5, unique=True))
    columns = [draw(_COLUMNS) for _ in keys]
    rows = [{k: draw(c) for k, c in zip(keys, columns)}
            for _ in range(draw(st.integers(1, 6)))]
    row = rows[draw(st.integers(0, len(rows) - 1))]
    change = draw(st.sampled_from(["none", "order", "drop", "extra", "nested"]))
    if change == "order" and len(keys) > 1:
        items = list(row.items())
        row.clear()
        row.update(reversed(items))
    elif change == "drop" and keys:
        del row[keys[0]]
    elif change == "extra":
        row[draw(_TEXT)] = draw(_SCALARS)
    elif change == "nested" and keys:
        row[keys[-1]] = draw(st.one_of(st.lists(_SCALARS, max_size=2),
                                       st.dictionaries(_TEXT, _SCALARS, max_size=2)))
    return rows


@settings(max_examples=400, deadline=None, derandomize=True)
@given(doc=_DOCS)
@example(doc={"": [], "a": {}, "b": [{}], "c": ()})
def test_writer_is_json_dumps_with_indent_2(doc):
    assert dumps(doc) == json.dumps(doc, indent=2)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(rows=_tables(), nest=st.booleans())
@example(rows=[{"%(t)s": 0.5, "y": math.nan}, {"%(t)s": -0.0, "y": 5e-324}], nest=False)
@example(rows=[{"a": 1.0, "b": "x"}, {"b": "x", "a": 1.0}], nest=True)
def test_writer_renders_tables_as_json_does(rows, nest):
    doc = {"entry": "cir", "rows": rows} if nest else rows
    assert dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [{"a": object()}, [{"a": 1j}, {"a": 2j}], {(1, 2): 3},
                                 [{"a": 1.0}, {"a": np.float32(1.0)}], {"s": {1, 2}}])
def test_writer_refuses_what_json_refuses(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError):
        dumps(doc)


@pytest.mark.parametrize("doc", [{1: 2}, {None: 1}, [{"a": 1}, {2: 1}]])
def test_writer_takes_str_keys_only(doc):
    with pytest.raises(TypeError):
        dumps(doc)


def test_writer_takes_float_and_int_subclasses_as_json_does():
    doc = {"rows": [{"v": np.float64(0.1), "b": True}, {"v": np.float64(-math.inf), "b": 0}]}
    assert dumps(doc) == json.dumps(doc, indent=2)


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(v=_FLOATS)
def test_percent_g_is_format_g(v):
    assert "%.15g" % v == format(v, ".15g")


def test_percent_g_is_format_g_on_random_bit_patterns():
    # every sign, exponent and mantissa, NaNs with payloads and subnormals too
    bits = np.random.default_rng(2601).integers(0, 2 ** 64, size=200_000, dtype=np.uint64)
    values = bits.view(np.float64).tolist()
    assert [("%.15g" % v) for v in values] == [format(v, ".15g") for v in values]
