"""Frozen records: the one base class of the package's small value types.

A subclass names its fields in class annotations, in order; a class
attribute of the same name is that field's default. Instances compare,
hash and print by class and field values, and refuse attribute
assignment, so they behave like frozen dataclasses without importing
`dataclasses` (and through it `inspect`) on every cold start."""


class Record:
    """Base of an immutable value with the fields annotated on its own class.

    Fields are given positionally or by keyword. `__post_init__` runs after
    the fields are set; it may check them, and may normalize one with
    `object.__setattr__`. The instance `__dict__` stays available, so a
    `functools.cached_property` works on a subclass."""

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(vars(cls).get("__annotations__", {}))
        cls._defaults = {f: vars(cls)[f] for f in cls._fields if f in vars(cls)}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        name = type(self).__name__
        if len(args) > len(fields):
            raise TypeError("%s takes %d fields, got %d positional values"
                            % (name, len(fields), len(args)))
        values = dict(self._defaults)
        values.update(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields or key in fields[:len(args)]:
                raise TypeError("%s got an unexpected or repeated field %r" % (name, key))
            values[key] = value
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError("%s is missing field(s) %s" % (name, ", ".join(missing)))
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self):
        return tuple(self.__dict__[f] for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % (f, self.__dict__[f]) for f in self._fields),
        )

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))
