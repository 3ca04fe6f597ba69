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
