"""Immutable value records: one base class, no code generated per class.

A subclass's fields are its annotations, in order; a class attribute of the
same name is that field's default.  Records equal only records of their own
class; `functools.cached_property` works, as it writes the __dict__ directly.
"""
from operator import attrgetter


class Record:
    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}
        cls._required = max((i + 1 for i, f in enumerate(cls._fields) if f not in cls._defaults), default=0)
        cls._values = property(attrgetter(*cls._fields))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or not self._required <= len(args) <= len(fields):
            named = dict(zip(fields, args))
            values = {**self._defaults, **named, **kwargs}
            if len(args) > len(fields) or named.keys() & kwargs.keys() or values.keys() != set(fields):
                raise TypeError(f"{type(self).__qualname__} takes the fields {', '.join(fields)}")
            args = [values[f] for f in fields]
        # trailing fields left out read their defaults from the class attributes
        self.__dict__.update(zip(fields, args))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__qualname__} is immutable: {name!r} cannot change")

    __delattr__ = __setattr__
