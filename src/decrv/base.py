"""What the other modules share: immutable records, and the error classes
of input that breaks a rule and of work beyond a set capacity.

A record lists its fields in ``__slots__``, which serve as its
``__match_args__`` too.  ``Record.__init__``, its one constructor, takes
one value per field, in order; a record that validates runs its checks
first.  No code is generated when the class is defined.
"""

from __future__ import annotations


class ValidationError(ValueError):
    """A spec, trace or run that breaks a rule (the CLI exits 2)."""


class CapacityError(RuntimeError):
    """Work beyond a configured ceiling or time budget (the CLI exits 3)."""


class Record:
    """An immutable value: ``==`` compares the class and the fields,
    ``hash`` is the hash of the field tuple, the ``repr`` names every
    field, and assigning a field raises."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        names = self.__match_args__
        if len(values) != len(names):
            raise TypeError(f"{self.__class__.__qualname__} takes {len(names)} values")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)  # as a frozen dataclass does

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
