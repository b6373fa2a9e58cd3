"""Immutable value records, the small part of ``dataclasses`` the package uses.

A subclass lists its fields as class annotations, in order; a class-level
value is that field's default.  Records compare and hash like the tuple of
their fields, but only with records of the same class, and print as
``Name(field=value, ...)``.  Instances keep a ``__dict__``, which ``copy``,
``deepcopy`` and ``pickle`` restore without calling ``__setattr__``.

``dataclasses`` itself is not used because importing it loads ``inspect``,
and with it ``ast``, ``dis`` and ``tokenize``: a large share of the start-up
of a command-line call.
"""


class Record:
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        """Read the fields and write an ``__init__`` for them, as ``dataclasses``
        does, so that Python itself binds the arguments and reports a missing,
        unknown or repeated field."""
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(vars(cls).get("__annotations__", ()))
        defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}
        params = ", ".join(f"{name}=_defaults[{name!r}]" if name in defaults else name
                           for name in cls._fields)
        values = ", ".join(f"{name!r}: {name}" for name in cls._fields)
        post_init = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        namespace = {}
        exec(f"def __init__(self, {params}):\n    self.__dict__.update({{{values}}}){post_init}",
             {"_defaults": defaults}, namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _astuple(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
