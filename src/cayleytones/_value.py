"""The class decorator behind the package's frozen value types.

The standard library's generator of such classes imports inspect and
compiles each method from source, which took most of the CLI's start-up
time; this one builds the same methods from closures.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


def value_type(cls: type) -> type:
    """Make cls an immutable record of the fields annotated in its body.

    The fields are the class's own annotations, in order, at least one
    (TypeError otherwise); a class attribute of the same name is that
    field's default. Installs __init__ (arguments by position or keyword,
    then __post_init__ if the class has one, which may normalise a field
    with object.__setattr__), __eq__ and __hash__ over the tuple of fields
    (equal only to an instance of the same class), __repr__ as
    Name(field=value, ...), and __setattr__ and __delattr__ that raise
    AttributeError. A class that defines its own __eq__ or __repr__ keeps
    it; one with its own __eq__ also keeps the __hash__ Python sets for it,
    None (unhashable) unless the class defines __hash__ too. The defaults,
    by field name in field order, are kept in _field_defaults.
    """
    names = tuple(cls.__dict__.get("__annotations__", {}))
    if not names:
        raise TypeError(f"{cls.__qualname__} must annotate at least one field")
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    count, post_init = len(names), hasattr(cls, "__post_init__")
    get = attrgetter(*names)
    key = get if count > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = _bind(cls.__qualname__, names, defaults, args, kwargs)
        # Setting each field, unlike filling self.__dict__ at once, keeps
        # attribute reads as fast as they were.
        for name, value in zip(names, args):
            _set(self, name, value)
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, key(self)))
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    methods = [__init__, __setattr__, __delattr__]
    if "__eq__" not in cls.__dict__:
        methods += [__eq__, __hash__]
    if "__repr__" not in cls.__dict__:
        methods.append(__repr__)
    for method in methods:
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls._field_defaults = defaults
    return cls


def _bind(qualname: str, names: tuple, defaults: dict, args: tuple, kwargs: dict) -> list:
    """Field values in order from the arguments of a call, with defaults for
    the fields not given; TypeError names a bad call as Python would."""
    if len(args) > len(names):
        raise TypeError(
            f"{qualname}() takes at most {len(names)} positional arguments "
            f"but {len(args)} were given"
        )
    given = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"{qualname}() got an unexpected keyword argument {name!r}")
        if name in given:
            raise TypeError(f"{qualname}() got multiple values for argument {name!r}")
        given[name] = value
    missing = [name for name in names if name not in given and name not in defaults]
    if missing:
        raise TypeError(f"{qualname}() missing required arguments: {', '.join(missing)}")
    return [given[name] if name in given else defaults[name] for name in names]
