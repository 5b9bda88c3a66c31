"""Frozen value records, built without `dataclasses`, whose import loads `inspect` and `ast`."""

from operator import attrgetter


class FrozenRecordError(AttributeError):
    """Raised on assigning or deleting an attribute of a record."""


def _frozen(self, name, *value):
    raise FrozenRecordError(f"cannot assign to or delete field {name!r}")


def record(cls):
    """Make `cls` a frozen record of its annotated fields, as `dataclass(frozen=True)` does:
    defaults are class attributes, and a class's own `__init__` is kept."""
    fields = tuple(cls.__annotations__)
    tail = tuple(cls.__dict__[f] for f in fields if f in cls.__dict__)  # defaults come last
    required, post_init = len(fields) - len(tail), getattr(cls, "__post_init__", lambda self: None)
    key = attrgetter(*fields) if len(fields) > 1 else lambda self: (getattr(self, fields[0]),)

    def __init__(self, *args, **kwargs):
        if kwargs or not required <= len(args) <= len(fields):
            # a repeated or surplus argument shrinks `given`; an unknown or missing one shows in the keys
            given = {**dict(zip(fields, args)), **kwargs}
            values = {**dict(zip(fields[required:], tail)), **given}
            if len(given) != len(args) + len(kwargs) or values.keys() != set(fields):
                raise TypeError(f"{cls.__qualname__}() takes the fields {fields}")
            args = [values[f] for f in fields]
        elif len(args) < len(fields):
            args += tail[len(args) - required:]
        self.__dict__.update(zip(fields, args))
        post_init(self)

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(map('{}={!r}'.format, fields, key(self)))})"

    cls.__init__ = cls.__dict__.get("__init__", __init__)
    cls.__eq__, cls.__hash__, cls.__repr__ = __eq__, lambda self: hash(key(self)), __repr__
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls
