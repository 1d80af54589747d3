"""The subset of JSON Schema draft 2020-12 that CONFIG_SCHEMA uses, walked by one function.

`_violation` decides whether a value is valid and names the key path and
the cause of its first violation, worded as the reference validator words
it (the tests compare the two); enum members and consts must be strings,
which `==` matches exactly.  One rule is rdasim's own: every number, also
one that no `properties` entry names, must be finite (Python's json reads
NaN and Infinity), so a bound compares finite numbers only.  A failed
oneOf is explained as the reference's `best_match` does: by the only branch
declaring the value's type, else by the only violation below the oneOf.
"""

import math
import numbers

# the draft 2020-12 types, as the reference validator checks them: a bool is
# neither a number nor an integer, and a float with no fractional part is an integer
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: ((isinstance(v, int) and not isinstance(v, bool))
                          or (isinstance(v, float) and v.is_integer())),
}


def _types(schema: dict) -> list:
    return [schema["type"]] if isinstance(schema.get("type"), str) else schema.get("type", [])


def _violation(value, schema: dict, path: tuple = ()):
    """The first violation of `schema` by `value`, as (key path, message), or None."""
    if isinstance(value, float) and not math.isfinite(value):
        return path, f"{value!r} is not a finite number"
    if "oneOf" in schema:
        found = [(sub, _violation(value, sub, path)) for sub in schema["oneOf"]]
        valid = [sub for sub, v in found if v is None]
        fits = [v for sub, v in found if v and any(_TYPES[t](value) for t in _types(sub))]
        deeper = [v for v in fits if len(v[0]) > len(path)]
        if len(valid) > 1:
            return path, f"{value!r} is valid under each of " + ", ".join(
                map(repr, valid[1:] + valid[:1]))
        if not valid:
            return (fits[0] if len(fits) == 1 else deeper[0] if len(deeper) == 1
                    else (path, f"{value!r} is not valid under any of the given schemas"))
    types = _types(schema)
    if types and not any(_TYPES[t](value) for t in types):
        return path, f"{value!r} is not of type {', '.join(map(repr, types))}"
    if "enum" in schema and value not in schema["enum"]:
        return path, f"{value!r} is not one of {schema['enum']!r}"
    if "const" in schema and value != schema["const"]:
        return path, f"{schema['const']!r} was expected"
    children = []
    if isinstance(value, dict):
        props = schema.get("properties", {})
        extras = sorted(value.keys() - props.keys())
        if extras and schema.get("additionalProperties") is False:
            return path, "Additional properties are not allowed ({} {} unexpected)".format(
                ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were")
        if missing := [key for key in schema.get("required", []) if key not in value]:
            return path, f"{missing[0]!r} is a required property"
        children = [(key, item, props.get(key, {})) for key, item in value.items()]
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            short = "should be non-empty" if schema["minItems"] == 1 else "is too short"
            return path, f"{value!r} {short}"
        if len(value) > schema.get("maxItems", len(value)):
            return path, f"{value!r} is too long"
        children = [(k, item, schema.get("items", {})) for k, item in enumerate(value)]
    elif _TYPES["number"](value) and value < (bound := schema.get("minimum", -math.inf)):
        return path, f"{value!r} is less than the minimum of {bound!r}"
    elif _TYPES["number"](value) and value <= (bound := schema.get("exclusiveMinimum", -math.inf)):
        return path, f"{value!r} is less than or equal to the minimum of {bound!r}"
    found = (_violation(item, sub, path + (key,)) for key, item, sub in children)
    return next(filter(None, found), None)
