"""Immutable slotted classes: the package's value types without the
dataclasses module, whose import and class creation a command would pay
for on every run.

A subclass lists its fields as its own ``__slots__`` and sets each of
them once, in its constructor, through ``_setters``: the setters of its
slots in slot order, which write past ``__setattr__``. Assigning or
deleting a field afterwards raises AttributeError.
"""


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(cls.__dict__[name].__set__
                             for name in cls.__dict__.get("__slots__", ()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Record(Frozen):
    """Equal when of one class with equal fields, hashed by its fields,
    and written ``Name(field=value, ...)``, as a frozen dataclass is. The
    fields are the slots of the most derived class."""

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
