"""json.dumps(obj, indent=2), byte for byte (json's C encoder takes no indent),
with each table, a list of flat dicts with the same keys, one %-template."""

from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite
from operator import itemgetter


def dumps(obj, nl: str = "\n") -> str:
    """json.dumps(obj, indent=2) for dicts with str keys, lists, tuples, str,
    int, float, bool and None (else TypeError); nl starts each later line."""
    inner = nl + "  "
    if isinstance(obj, dict):
        items = [_quote(k) + ": " + dumps(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        body = _table(obj, inner) or ("," + inner).join([dumps(v, inner) for v in obj])
        return "[" + inner + body + nl + "]" if obj else "[]"
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return (float.__repr__(obj) if isfinite(obj) else "NaN" if obj != obj
                else "Infinity" if obj > 0 else "-Infinity")
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _table(rows, nl: str):
    """The items of a list of dicts with the same keys, in order, and scalar
    values (finite floats take %r as they are); None for any other list."""
    keys = set(map(tuple, rows)) if set(map(type, rows)) == {dict} else ()
    if len(keys) != 1 or () in keys:
        return None
    fields, columns = [], []
    for k in keys.pop():
        column = list(map(itemgetter(k), rows))
        types = set(map(type, column))
        if not types <= {str, int, float, bool, type(None)}:
            return None
        raw = types == {float} and all(map(isfinite, column))
        fields.append(_quote(k).replace("%", "%%") + (": %r" if raw else ": %s"))
        columns.append(column if raw else list(map(_quote if types == {str} else dumps, column)))
    inner = nl + "  "
    row = "{" + inner + ("," + inner).join(fields) + nl + "}"
    return ("," + nl).join([row] * len(rows)) % tuple(chain.from_iterable(zip(*columns)))
