"""Finite-horizon planning under partial observability via annotated logic
programs: parse action theories, compile them to (normal) logic programs and
CNF, enumerate answer sets, and extract optimal policies — all cross-checked
against a brute-force probabilistic oracle."""

from operator import attrgetter

__version__ = "0.1.0"


class ApoError(Exception):
    """Base of every error the package raises on purpose.  It lives here, not
    in a stage module, so that a module can subclass it without importing
    another stage."""


# How a Record's `__init__` stores a field past the `__setattr__` that refuses.
set_field = object.__setattr__


class Record:
    """Base of the package's immutable value classes.

    A subclass names its fields in `__slots__` and stores each one in its own
    `__init__` with `set_field`, taking them in `__slots__` order.  Records of
    the same class with equal fields are equal and hash alike; records of two
    classes never compare equal.  `repr` reads like a dataclass's
    (`Ref(name='N')`), which `compiler.check_tight` sorts by.  These classes
    replace frozen dataclasses because every command is a fresh process, and
    importing `dataclasses` (which imports `inspect`) and generating the
    classes cost each one more start-up time than its planning work in small
    runs."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the fields in `__slots__` order, or the one field itself
        cls._key = staticmethod(attrgetter(*cls.__slots__))

    def _values(self) -> tuple:
        key = self._key(self)
        return key if len(self.__slots__) > 1 else (key,)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.__class__, self._key(self)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with the named fields changed."""
        fields = dict(zip(self.__slots__, self._values()))
        fields.update(changes)
        return self.__class__(**fields)


# json's escapes of the ASCII characters it escapes: the quote, the backslash,
# and the control characters
_ESCAPES = {c: f"\\u{c:04x}" for c in [*range(32), 127]}
_ESCAPES.update({ord(c): "\\" + e for c, e in
                 zip('"\\\b\f\n\r\t', '"\\bfnrt')})
_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_text(value, newline: str = "\n") -> str:
    """`json.dumps(value, indent=2)` for dicts with string keys, lists and
    tuples, strings, ints, floats, booleans and None, the values the CLI
    writes; `newline` is the line break and indentation of `value`'s level.
    Every command is a fresh process, and json's indented encoder is pure
    Python anyway: writing the text here spares each one importing `json`,
    which only a string holding a non-ASCII character still loads."""
    if isinstance(value, str):
        if value.isascii():
            return '"' + value.translate(_ESCAPES) + '"'
        import json
        return json.dumps(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _FLOATS.get(text, text)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        items = [json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    if isinstance(value, dict):
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"key {key!r} is not a string")
            items.append(json_text(key) + ": " + json_text(item, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
