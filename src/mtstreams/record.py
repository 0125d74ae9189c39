"""Base classes of the package's records: plain ``__slots__`` classes.

A record's fields are its class's ``_fields``. Two records are equal when
they are of the same class and their fields are equal; a record prints as
``Name(field=value, ...)``. A :class:`Record` can be assigned to and is
unhashable. A :class:`FrozenRecord` refuses assignment, hashes its fields,
and is pickled and copied by calling its class on them, so its
constructor checks them again. Defining them imports nothing and
compiles no code, where generated record classes would load ``inspect``
and compile methods for every class at import.
"""
from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    __slots__ = ()

    def _set(self, **fields) -> None:
        """Set fields; for the constructor only."""
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()
