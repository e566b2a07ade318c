"""The base of qsdr's immutable value types.

A subclass names its fields in ``__slots__``, in constructor order, checks
its arguments in ``__init__`` and stores them once with :meth:`Record._set`.
Equality, hashing, ``repr``, copying and pickling all follow that order, as
a frozen dataclass's do, and assigning to an instance raises
``AttributeError``.  No code is generated: importing a record costs what any
class costs.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    # Copies and unpickled records get the fields back without rerunning
    # the checks of __init__.
    def __getstate__(self) -> tuple:
        return self._values()

    def __setstate__(self, state: tuple) -> None:
        self._set(*state)
