"""Frozen record classes, built without ``dataclasses``.

``import dataclasses`` loads ``inspect`` (and with it ``ast``, ``dis`` and
``tokenize``), and each ``@dataclass`` compiles its generated methods one
``exec`` at a time: together about half of ``import causalcrit.cli``, which
took 25 ms with bytecode caches (Python 3.11, 2-vCPU VM). :func:`record`
compiles one source per class and supports only what the package's records
use:

- annotated fields in declaration order, with plain defaults or
  ``field(default_factory=...)``, which is called once per instance;
- ``__post_init__``, run last by ``__init__``;
- frozen instances: assigning or deleting an attribute raises
  :class:`FrozenInstanceError`, while ``object.__setattr__`` in
  ``__post_init__`` and ``functools.cached_property`` still work, since
  instances keep their ``__dict__``;
- a ``Name(field=value, ...)`` repr;
- with ``eq=True``, ``==`` on the field tuple between instances of one
  class and a hash of that tuple; with ``eq=False``, the class keeps its
  own ``__eq__`` and ``__hash__`` (by default, identity).

``__match_args__`` holds the field names. A class body's own ``__init__``
and ``__repr__``, and with ``eq=True`` its ``__eq__`` and ``__hash__``, are
replaced.
"""

__all__ = ["FrozenInstanceError", "field", "record"]


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a frozen record."""


class field:
    """A field whose default is ``default_factory()``, made fresh for each instance."""

    __slots__ = ("factory",)

    def __init__(self, *, default_factory):
        self.factory = default_factory


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _repr(self):
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{self.__class__.__qualname__}({shown})"


# Default of a parameter whose field has a factory: the call passed no value.
_NO_VALUE = object()


def record(cls=None, *, eq=True):
    """Make ``cls`` a frozen record; use as ``@record`` or ``@record(eq=False)``."""
    if cls is None:
        return lambda c: _build(c, eq)
    return _build(cls, eq)


def _build(cls, eq):
    names = tuple(cls.__dict__.get("__annotations__", ()))
    scope = {"_NO_VALUE": _NO_VALUE, "_setattr": object.__setattr__}
    params, body = [], []
    for name in names:
        default = cls.__dict__.get(name, _NO_VALUE)
        if isinstance(default, field):
            delattr(cls, name)
            scope[f"_factory_{name}"] = default.factory
            params.append(f"{name}=_NO_VALUE")
            body.append(f"_setattr(self, {name!r}, _factory_{name}() if {name} is _NO_VALUE else {name})")
            continue
        if default is _NO_VALUE:
            params.append(name)
        else:
            scope[f"_default_{name}"] = default
            params.append(f"{name}=_default_{name}")
        body.append(f"_setattr(self, {name!r}, {name})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    source = [f"def __init__(self, {', '.join(params)}):", *(f"    {line}" for line in body)]
    if eq:
        mine = "(" + "".join(f"self.{n}," for n in names) + ")"
        theirs = "(" + "".join(f"other.{n}," for n in names) + ")"
        source += [
            "def __eq__(self, other):",
            "    if other.__class__ is self.__class__:",
            f"        return {mine} == {theirs}",
            "    return NotImplemented",
            "def __hash__(self):",
            f"    return hash({mine})",
        ]
    exec("\n".join(source), scope)
    for method in ("__init__", "__eq__", "__hash__"):
        if method in scope:
            scope[method].__qualname__ = f"{cls.__qualname__}.{method}"
            setattr(cls, method, scope[method])
    cls.__repr__ = _repr
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    cls.__match_args__ = names
    return cls
