"""`record`: the methods `@dataclass(frozen=True)` gave the package's records,
as closures, with no exec: `__init__` (class defaults, then `__post_init__`),
`__repr__`, `__eq__` and `__hash__` over the fields, and no attribute writes.
A class's own methods are kept; instances keep a `__dict__` for cached_property.
"""

from operator import attrgetter


def _frozen(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r}")


def record(cls):
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {f: cls.__dict__[f] for f in names if f in cls.__dict__}
    n, qualname, post = len(names), cls.__qualname__, getattr(cls, "__post_init__", None)
    key = attrgetter(*names) if n > 1 else lambda self: (getattr(self, names[0]),)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            rest = names[len(args):]
            if (len(args) > n or kwargs.keys() - set(rest)
                    or any(f not in kwargs and f not in defaults for f in rest)):
                raise TypeError(f"{qualname}() takes {', '.join(names)}, each once; got "
                                f"{len(args)} positional and keywords {sorted(kwargs)}")
            args = [*args, *(kwargs[f] if f in kwargs else defaults[f] for f in rest)]
        self.__dict__.update(zip(names, args))
        if post is not None:
            post(self)

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(names, key(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    methods = {"__init__": __init__, "__repr__": __repr__, "__eq__": __eq__,
               "__setattr__": _frozen, "__delattr__": _frozen}
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    if cls.__dict__.get("__hash__") is None:  # None too when the class defines __eq__ only
        cls.__hash__ = __hash__
    return cls
