"""Plain record classes without `dataclasses`.

`record` gives a class an `__init__`, `__eq__`, `__hash__` and `__repr__`
built from its own annotations, the way `@dataclass` did, but from closures:
importing `dataclasses` pulls in `inspect` and `ast` and every decoration
compiles its methods with `exec`, which together cost more start-up time
than the rest of the command line.  Supported is what the library uses:
fields in annotation order, class-attribute defaults, `__post_init__`,
`frozen=True` and a class-defined `__repr__`.
"""

from __future__ import annotations

from operator import attrgetter


def record(cls=None, /, *, frozen: bool = False):
    """Class decorator; `@record` or `@record(frozen=True)`."""
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    name = cls.__name__
    fields = tuple(cls.__dict__.get("__annotations__", {}))
    n = len(fields)
    defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
    values = attrgetter(*fields)      # the field tuple: every record has two or more
    put = object.__setattr__ if frozen else setattr
    post_init = "__post_init__" in cls.__dict__

    def __init__(self, *args, **kwargs):
        if len(args) > n:
            raise TypeError(f"{name}() takes {n} positional arguments "
                            f"but {len(args)} were given")
        for f, v in zip(fields, args):
            put(self, f, v)
        for f in fields[len(args):]:
            if f in kwargs:
                put(self, f, kwargs.pop(f))
            elif f in defaults:
                put(self, f, defaults[f])
            else:
                raise TypeError(f"{name}() missing required argument {f!r}")
        if kwargs:
            f = next(iter(kwargs))
            raise TypeError(f"{name}() got multiple values for argument {f!r}"
                            if f in fields else
                            f"{name}() got an unexpected keyword argument {f!r}")
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __repr__(self):
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to field {attr!r}")

    def __delattr__(self, attr):
        raise AttributeError(f"cannot delete field {attr!r}")

    cls.__init__ = __init__
    cls.__eq__ = __eq__
    if "__repr__" not in cls.__dict__:
        cls.__repr__ = __repr__
    if frozen:
        cls.__setattr__ = __setattr__
        cls.__delattr__ = __delattr__
        cls.__hash__ = lambda self: hash(values(self))
    else:
        cls.__hash__ = None
    return cls
