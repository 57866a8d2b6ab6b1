"""The frozen base of every record the package defines.

``class X(Record)`` runs ``dataclass(X, repr=False, eq=False)``: ``X`` keeps
dataclass's fields (``fields``, ``asdict``, ``replace``) and its generated
``__init__`` (binding, defaults, ``kw_only``, ``init=False``,
``__post_init__``).  The other methods of a frozen dataclass are defined
here once: ``__repr__`` in dataclass's format, ``__eq__`` and ``__hash__``
over the compared fields (by identity for ``class X(Record, eq=False)``,
the records that hold arrays), and ``__setattr__`` and ``__delattr__``,
which let ``__init__`` set each field once and then raise
``FrozenInstanceError`` (also for a class variable, such as a law's
``family``).  ``__post_init__`` rewrites a field with
``object.__setattr__``, as in a frozen dataclass.
"""

from dataclasses import FrozenInstanceError, dataclass, fields


class Record:
    """Base of the package's frozen records; see the module docstring."""

    def __init_subclass__(cls, eq=True):
        super().__init_subclass__()
        cls._by_value = eq
        dataclass(cls, repr=False, eq=False)
        cls._field_names = frozenset(f.name for f in fields(cls))

    def _compared(self):
        return tuple(getattr(self, f.name) for f in fields(self) if f.compare)

    def __repr__(self):
        shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self) if f.repr)
        return f"{self.__class__.__qualname__}({shown})"

    def __eq__(self, other):
        if self is other:
            return True
        if self._by_value and other.__class__ is self.__class__:
            return self._compared() == other._compared()
        return NotImplemented

    def __hash__(self):
        return hash(self._compared()) if self._by_value else object.__hash__(self)

    def __setattr__(self, name, value):
        if name in self.__dict__ or name not in self._field_names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
