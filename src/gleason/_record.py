"""Frozen records without `dataclasses`, whose import pulls in `inspect`.

`record` gives a class with annotated fields what `dataclass(frozen=True)`
gave it: an `__init__` over the fields, positional or by keyword, defaulting
to the class attributes and ending in `self.__post_init__()` when the class
has one; `__eq__`, `__hash__` and `__repr__` over the fields; and
AttributeError on assignment or deletion.  As in `dataclasses`, `__init__`,
`__eq__` and `__hash__` are compiled once per class, so they run as fast as
hand-written ones; `inspect` alone is about 13 ms of a cold CLI call.
"""


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _repr(self):
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{self.__class__.__qualname__}({fields})"


def record(cls):
    names = tuple(cls.__annotations__)
    params = ", ".join(f"{n}=_defaults[{n!r}]" if n in vars(cls) else n for n in names)
    mine = "".join(f"self.{n}, " for n in names)
    theirs = "".join(f"other.{n}, " for n in names)
    source = "\n".join([
        f"def __init__(self, {params}):",
        *(f"    _set(self, {n!r}, {n})" for n in names),
        "    self.__post_init__()" if hasattr(cls, "__post_init__") else "",
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return ({mine}) == ({theirs})",
        "    return NotImplemented",
        "def __hash__(self):",
        f"    return hash(({mine}))",
    ])
    # fields go in through object.__setattr__: writing to self.__dict__ instead
    # materialises the instance dict, which slows every later attribute read
    namespace = {"_defaults": vars(cls), "_set": object.__setattr__}
    exec(source, namespace)
    for name in ("__init__", "__eq__", "__hash__"):
        method = namespace[name]
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    cls.__repr__ = _repr
    cls.__match_args__ = names
    return cls
